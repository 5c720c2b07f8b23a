"""The three benchmark workloads: their configs, inputs, calls and output checks.

Workload configs are defined here, not imported from the test helpers,
so that a change to the tests cannot silently change what is measured.
Every input is derived from the workload seed.
"""

import contextlib
import hashlib
import io
import json
import math
from dataclasses import dataclass, field

import numpy as np

from omdkit import cli
from omdkit.oracles import GridSpec, numeric_argmax, numeric_biconjugate, numeric_dual_norm
from omdkit.regularizers import (
    CompositeQuadL1,
    FixedQuadratic,
    GrowingQuadratic,
    LinearScheduled,
    MaxScaled,
    PNorm,
    ScaleInvDiag,
    ScaleInvPNorm,
    SqrtScheduled,
    WeightedQNorm,
)

# the eleven CLI configs: key -> (learner flags, data kind)
CONFIGS = {
    "ogd": (["--learner", "ogd", "--eta", "0.5", "--loss", "hinge"], "separable"),
    "composite": (["--learner", "composite", "--eta", "0.7", "--lam", "0.1",
                   "--schedule", "sqrt"], "linear"),
    "pnorm_perceptron": (["--learner", "pnorm_perceptron", "--p", "1.5"], "separable"),
    "pa": (["--learner", "pa"], "separable"),
    "fixed_margin": (["--learner", "fixed_margin", "--fixed-eta", "0.5"], "separable"),
    "second_order_full": (["--learner", "second_order", "--r", "1", "--variant", "full",
                           "--trigger", "omd"], "separable"),
    "second_order_diagonal": (["--learner", "second_order", "--r", "1",
                               "--variant", "diagonal", "--trigger", "omd"], "separable"),
    "vaw": (["--learner", "vaw", "--a", "1"], "linear"),
    "adaptive_filter": (["--learner", "adaptive_filter"], "linear"),
    "scaleinv_pnorm": (["--learner", "scaleinv_pnorm", "--lipschitz", "1", "--eta", "1",
                        "--loss", "absolute"], "linear"),
    "scaleinv_diag": (["--learner", "scaleinv_diag", "--lipschitz", "1", "--eta", "1",
                       "--loss", "absolute"], "linear"),
}

GENERATORS = {
    "separable": "separable_margin:gamma=0.3,d={d},T={T}",
    "linear": "noisy_linear:sigma=0.2,d={d},T={T}",
}

# strict-audit tolerances, as pinned by the acceptance suite
SLACK_TOL = 1e-9
SCALE_INVARIANT_TOL = 1e-6
RESIDUE_TOL = 1e-9
# criterion-7 oracle tolerances
BICONJUGATE_TOL = 1e-3
ARGMAX_TOL = 1e-6
FENCHEL_YOUNG_TOL = 1e-9
DUAL_NORM_TOL = 1e-4


@dataclass
class Call:
    """One public call. execute() is the timed part; check(result) returns failures."""

    ident: tuple      # identifies the inputs; equal idents must give equal outputs
    key: tuple        # call type, for the per-type medians behind pass_ref
    mult: int         # calls of this type in one pass of the workload
    kind: str         # run | audit | biconjugate | argmax | dual_norm
    config: str       # CLI config key or regularizer family
    rounds: int
    root: str         # root span name in the traced pass
    execute: object
    check: object
    digests: dict = field(default_factory=dict)


def cli_main(argv):
    """omdkit.cli.main with its output captured; returns (exit code, output)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


def _finite(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def report_failures(reports):
    """Strict-audit verdict recomputed from the report payload, NaN-safe."""
    if not reports:
        return ["no bound reports"]
    out = []
    for rep in reports:
        name = rep.get("name", "?")
        tol = SCALE_INVARIANT_TOL if name.startswith("scale_invariant") else SLACK_TOL
        slack = rep.get("slack")
        if not _finite(slack) or slack < -tol:
            out.append(f"{name}: slack {slack!r} not >= -{tol}")
        gap = rep.get("terms", {}).get("max_residue_gap")
        if gap is not None and (not _finite(gap) or gap > RESIDUE_TOL):
            out.append(f"{name}: max_residue_gap {gap!r} > {RESIDUE_TOL}")
    return out


def _sha(data):
    return hashlib.sha256(data).hexdigest()


def _summary_digest(payload):
    payload = dict(payload)
    payload.pop("wall_time_s", None)
    return _sha(json.dumps(payload, sort_keys=True).encode())


def cli_pair(tag, argv, rounds, ident, key, mult, config):
    """A `run --trace --strict-audit` call and the `audit --strict-audit` of its trace.

    File names are relative to the working directory, so the paths that
    traces embed, and with them the trace digests, do not depend on it.
    """
    trace = f"{tag}.trace.jsonl"
    summary = f"{tag}.summary.json"
    audit = f"{tag}.audit.json"
    run_argv = ["run", *argv, "--trace", trace, "--summary", summary, "--strict-audit"]
    audit_argv = ["audit", "--trace", trace, "--summary", audit, "--strict-audit"]

    def check_run(call, result):
        code, output = result
        if code != 0:
            return [f"run exit {code}: {output.strip()[-300:]}"]
        with open(summary, "rb") as fh:
            payload = json.loads(fh.read())
        with open(trace, "rb") as fh:
            call.digests["trace"] = _sha(fh.read())
        call.digests["summary"] = _summary_digest(payload)
        fails = report_failures(payload.get("reports"))
        if payload.get("T") != rounds:
            fails.append(f"summary T={payload.get('T')} != {rounds}")
        return fails

    def check_audit(call, result):
        code, output = result
        if code != 0:
            return [f"audit exit {code}: {output.strip()[-300:]}"]
        with open(audit, "rb") as fh:
            payload = json.loads(fh.read())
        with open(summary, "rb") as fh:
            ran = json.loads(fh.read())
        call.digests["summary"] = _summary_digest(payload)
        fails = report_failures(payload.get("reports"))
        if payload.get("reports") != ran.get("reports"):
            fails.append("audit reports differ from the run's reports")
        return fails

    return [
        Call(ident + ("run",), key + ("run",), mult, "run", config, rounds, "cli",
             lambda: cli_main(run_argv), check_run),
        Call(ident + ("audit",), key + ("audit",), mult, "audit", config, rounds, "cli",
             lambda: cli_main(audit_argv), check_audit),
    ]


class SweepLowdim:
    """Many short generator-driven run+audit pairs over all eleven CLI configs."""

    name = "sweep_lowdim"
    T = 200
    SLOTS = 5  # job seeds per pass; slot 0 runs at d=2 against the comparator grid

    def __init__(self, seed):
        self.seed = seed

    def shapes(self):
        return {"d": [10, 2], "T": self.T, "nnz_per_row": "d (dense generators)",
                "configs": len(CONFIGS), "pairs_per_pass": self.SLOTS * len(CONFIGS)}

    def _pair(self, config, job_seed, d):
        flags, kind = CONFIGS[config]
        gen = GENERATORS[kind].format(d=d, T=self.T)
        comps = ["--comparator", "zero", "--comparator", "star"]
        if d == 2:
            comps += ["--comparator", "grid:R=2,n=41"]
        argv = [*flags, "--gen", gen, "--seed", str(job_seed), *comps]
        return cli_pair("job", argv, self.T, (config, job_seed, d),
                        (config, d), 1 if d == 2 else self.SLOTS - 1, config)

    def setup(self):
        for config in CONFIGS:
            for call in self._pair(config, self.seed * 100_000 + 99_999, 10):
                run_checked(call)

    def calls(self, k):
        out = []
        for slot in range(self.SLOTS):
            job_seed = self.seed * 100_000 + self.SLOTS * k + slot
            for config in CONFIGS:
                out += self._pair(config, job_seed, 2 if slot == 0 else 10)
        return out


class FileHighdim:
    """run+audit from dense d=300 svmlight files written with `omdkit gen` during set-up."""

    name = "file_highdim"
    D = 300
    T = 600
    WARM_T = 20
    # config -> data file kind
    JOBS = {"second_order_full": "separable", "vaw": "linear", "pa": "separable"}

    def __init__(self, seed):
        self.seed = seed

    def _path(self, kind, T):
        return f"{kind}-{T}.svm"

    def shapes(self):
        files = {}
        for kind in sorted(set(self.JOBS.values())):
            path = self._path(kind, self.T)
            with open(path, "rb") as fh:
                text = fh.read()
            rows = sum(1 for ln in text.splitlines() if ln and not ln.startswith(b"#"))
            files[kind] = {"bytes": len(text), "rows": rows,
                           "nnz_per_row": text.count(b":") / rows}
        return {"d": self.D, "T": self.T, "files": files,
                "comparators": ["zero", "batch"]}

    def _pair(self, config, T, tag):
        flags = CONFIGS[config][0]
        argv = [*flags, "--data", self._path(self.JOBS[config], T),
                "--comparator", "zero", "--comparator", "batch"]
        return cli_pair(tag, argv, T, (config, T), (config,), 1, config)

    def setup(self):
        for kind in sorted(set(self.JOBS.values())):
            for T in (self.T, self.WARM_T):
                gen = GENERATORS[kind].format(d=self.D, T=T)
                code, output = cli_main(["gen", "--gen", gen, "--seed", str(self.seed),
                                         "--out", self._path(kind, T)])
                if code != 0:
                    raise RuntimeError(f"omdkit gen failed ({code}): {output.strip()}")
        for config in self.JOBS:
            for call in self._pair(config, self.WARM_T, "warm"):
                run_checked(call)

    def calls(self, k):
        out = []
        for config in self.JOBS:
            out += self._pair(config, self.T, "job")
        return out


def regularizer_families(dim=2):
    """One instance per regularizer family, each advanced to a nontrivial state."""
    fams = {}
    fams["fixed_quadratic"] = FixedQuadratic(dim, scale=1.5)
    fams["pnorm"] = PNorm(dim, p=1.5)
    fams["weighted_qnorm"] = WeightedQNorm(dim, q=1.5, weights=np.linspace(0.5, 2.0, dim))

    gq = GrowingQuadratic(dim, r=1.0)
    gq.update(np.linspace(1.0, 0.4, dim))
    gq.update(np.linspace(-0.3, 0.8, dim))
    fams["growing_quadratic"] = gq

    gqd = GrowingQuadratic(dim, r=2.0, diagonal=True)
    gqd.update(np.linspace(1.0, 0.4, dim))
    gqd.update(np.linspace(-0.3, 0.8, dim))
    fams["growing_quadratic_diag"] = gqd

    comp = CompositeQuadL1(dim, eta=0.5, lam=0.3, schedule="sqrt")
    for _ in range(4):
        comp.advance_step()
    fams["composite_sqrt"] = comp

    compl = CompositeQuadL1(dim, eta=1.0, lam=0.2, ridge=1.0, schedule="linear")
    for _ in range(4):
        compl.advance_step()
    fams["composite_linear"] = compl

    sq = SqrtScheduled(PNorm(dim, p=1.8))
    for _ in range(3):
        sq.advance_step()
    fams["sqrt_scheduled"] = sq

    ln = LinearScheduled(FixedQuadratic(dim, scale=0.7))
    for _ in range(3):
        ln.advance_step()
    fams["linear_scheduled"] = ln

    ms = MaxScaled(FixedQuadratic(dim))
    ms.observe_input(np.full(dim, 0.9))
    ms.observe_input(np.linspace(0.2, 1.4, dim))
    fams["max_scaled"] = ms

    sip = ScaleInvPNorm(dim, lipschitz=1.0)
    sip.observe_input(np.linspace(0.5, 1.5, dim))
    sip.observe_gradient(np.linspace(0.3, -0.4, dim))
    sip.observe_input(np.linspace(1.2, 0.8, dim))
    fams["scaleinv_pnorm"] = sip

    sid = ScaleInvDiag(dim, lipschitz=1.0)
    sid.observe_input(np.linspace(0.5, 1.5, dim))
    sid.observe_gradient(np.linspace(0.3, -0.4, dim))
    sid.observe_input(np.linspace(1.2, 0.8, dim))
    fams["scaleinv_diag"] = sid
    return fams


class OracleSuite:
    """Criterion-7-shaped probes over the twelve regularizer families at dim 2."""

    name = "oracle_suite"
    GRID = GridSpec(-3.0, 3.0, 41, 2)
    BICONJUGATE_ITERS = 22
    ARGMAX_ITERS = 70
    ARGMAX_PER_FAMILY = 4
    DUAL_NORM_PER_FAMILY = 2
    DUAL_NORM_SAMPLES = 20_000
    DUAL_NORM_ROUNDS = 35
    # two of criterion-7's 36 biconjugation probes; the full set takes minutes
    BICONJUGATE_PROBES = (("growing_quadratic", (0.4, -0.3)), ("scaleinv_pnorm", (0.6, 0.2)))

    def __init__(self, seed):
        self.seed = seed
        self.tracer = None  # set while the traced pass runs; f then records spans
        self.families = None

    def shapes(self):
        return {"dim": 2, "families": len(self.families),
                "grid": {"lo": self.GRID.lo, "hi": self.GRID.hi,
                         "points_per_axis": self.GRID.points_per_axis},
                "biconjugate_probes_per_pass": len(self.BICONJUGATE_PROBES),
                "argmax_probes_per_pass": self.ARGMAX_PER_FAMILY * len(self.families),
                "dual_norm_probes_per_pass": self.DUAL_NORM_PER_FAMILY * len(self.families)}

    def _f(self, fn):
        """The batched function handed to an oracle; counted through the tracer when on."""
        def f(V):
            return np.asarray(fn(V))

        if self.tracer is None:
            return f

        def rows(counts, args, result):
            counts["oracles.f_calls"] += 1
            counts["oracles.f_rows"] += args[0].shape[0] if np.ndim(args[0]) == 2 else 1

        return self.tracer.traced("oracles.f", f, on_result=rows)

    def setup(self):
        self.families = regularizer_families(2)
        reg = self.families["fixed_quadratic"]
        for call in (self._argmax("fixed_quadratic", reg, np.array([0.3, -0.2]), ()),
                     self._dual_norm("fixed_quadratic", reg, np.array([0.3, -0.2]), ())):
            run_checked(call)

    def _biconjugate(self, name, reg, w, ident):
        w = np.asarray(w, dtype=np.float64)
        expect = float(np.asarray(reg.value(w)))

        def execute():
            return numeric_biconjugate(self._f(reg.value), w, self.GRID,
                                       refine_iters=self.BICONJUGATE_ITERS)

        def check(call, value):
            call.digests["result"] = repr(float(value))
            err = abs(value - expect)
            return [] if err <= BICONJUGATE_TOL else [f"{name}: biconjugate error {err}"]

        return Call(ident, ("biconjugate", name), 1, "biconjugate", name, 0, "oracles",
                    execute, check)

    def _argmax(self, name, reg, theta, ident):
        def execute():
            return numeric_argmax(self._f(reg.value), theta, self.GRID,
                                  refine_iters=self.ARGMAX_ITERS)

        def check(call, result):
            pt, _ = result
            call.digests["result"] = repr([float(v) for v in pt])
            mm = reg.mirror_map(theta)
            fails = []
            err = float(np.max(np.abs(pt - mm)))
            if err > ARGMAX_TOL:
                fails.append(f"{name}: argmax vs mirror_map {err}")
            fy = float(np.asarray(reg.value(mm))) + reg.conjugate(theta) - float(mm @ theta)
            if not abs(fy) <= FENCHEL_YOUNG_TOL:
                fails.append(f"{name}: Fenchel-Young gap {fy}")
            return fails

        return Call(ident, ("argmax", name), self.ARGMAX_PER_FAMILY, "argmax", name, 0,
                    "oracles", execute, check)

    def _dual_norm(self, name, reg, z, ident):
        def execute():
            return numeric_dual_norm(self._f(reg.norm), z, samples=self.DUAL_NORM_SAMPLES,
                                     refine_rounds=self.DUAL_NORM_ROUNDS)

        def check(call, value):
            call.digests["result"] = repr(float(value))
            err = abs(value - reg.dual_norm(z))
            return [] if err <= DUAL_NORM_TOL else [f"{name}: dual norm error {err}"]

        return Call(ident, ("dual_norm", name), self.DUAL_NORM_PER_FAMILY, "dual_norm", name,
                    0, "oracles", execute, check)

    def calls(self, k):
        rng = np.random.default_rng([self.seed, k])
        names = list(self.families)
        half = len(names) // 2
        out = []
        for b, group in enumerate((names[:half], names[half:])):
            fam, w = self.BICONJUGATE_PROBES[b]
            out.append(self._biconjugate(fam, self.families[fam], w, ("bicon", fam, w)))
            for name in group:
                reg = self.families[name]
                for i in range(self.ARGMAX_PER_FAMILY):
                    # the oracle searches the grid box, so its maximizer, the
                    # mirror map, must lie inside it; redraw the rare theta
                    # whose mirror map falls outside
                    theta = rng.normal(size=2)
                    while np.max(np.abs(reg.mirror_map(theta))) > self.GRID.hi:
                        theta = rng.normal(size=2)
                    out.append(self._argmax(name, reg, theta, ("argmax", name, k, i)))
                for i in range(self.DUAL_NORM_PER_FAMILY):
                    z = rng.normal(size=2)
                    out.append(self._dual_norm(name, reg, z, ("dual_norm", name, k, i)))
        return out


def run_checked(call):
    """Execute and check one call outside any measurement; raise on failure (set-up)."""
    fails = call.check(call, call.execute())
    if fails:
        raise RuntimeError(f"set-up call {call.ident} failed: {fails[0]}")


WORKLOADS = {cls.name: cls for cls in (SweepLowdim, FileHighdim, OracleSuite)}
