"""Experiment harness: configs, run/audit drivers, trace and summary serialization.

Traces are JSON-lines files: a header record {version, fingerprint,
config} followed by one record per round. Numbers are serialized with 17
significant digits so a stored trace round-trips bit-faithfully; a replay
of the same config therefore reproduces the file byte for byte (wall time
lives only in the summary and is excluded from determinism claims).
"""

import hashlib
import math
import time

import numpy as np

from . import bounds as bounds_mod
from .bounds import RunTrace, batch_comparator, grid_comparators
from .data import GeneratorSpec, generate, parse_csv, parse_svmlight
from .learners import (
    AdaptiveFilter,
    FirstOrderClassifier,
    GradientDescentLearner,
    ScaleInvariantRegressor,
    SecondOrderClassifier,
    VAWRegressor,
)
from .regularizers import CompositeQuadL1, FixedQuadratic, PNorm

TRACE_VERSION = 1

# slack below -tolerance fails a strict audit; the scale-invariant displays cancel harder
DEFAULT_TOL = 1e-9
REPORT_TOL = {"scale_invariant_pnorm": 1e-6, "scale_invariant_diag": 1e-6}


def _fmt(x):
    if isinstance(x, float):
        if not math.isfinite(x):
            return '"inf"' if x > 0 else ('"-inf"' if x < 0 else '"nan"')
        return format(x, ".17g")
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, str):
        out = x.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{out}"'
    if x is None:
        return "null"
    raise TypeError(f"cannot serialize {type(x)}")


def canonical_json(obj):
    """Deterministic JSON: sorted keys, floats at 17 significant digits."""
    if isinstance(obj, dict):
        inner = ",".join(f"{_fmt(str(k))}:{canonical_json(v)}" for k, v in sorted(obj.items()))
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(canonical_json(v) for v in obj) + "]"
    if isinstance(obj, np.ndarray):
        return canonical_json(list(obj))
    if isinstance(obj, (np.floating,)):
        return _fmt(float(obj))
    return _fmt(obj)


def fingerprint(payload):
    return hashlib.sha256(canonical_json(payload).encode()).hexdigest()[:16]


class ExperimentConfig:
    """Learner spec + data source + comparator specs + audit toggles."""

    def __init__(self, learner, params=None, data=None, comparators=None, audit=True):
        self.learner = learner
        self.params = dict(params or {})
        self.data = dict(data or {})
        self.comparators = list(comparators or ["zero"])
        self.audit = bool(audit)

    def to_dict(self):
        return {
            "learner": self.learner,
            "params": self.params,
            "data": self.data,
            "comparators": self.comparators,
        }

    @classmethod
    def from_dict(cls, d, audit=True):
        return cls(d["learner"], d.get("params"), d.get("data"),
                   d.get("comparators"), audit=audit)

    def fingerprint(self):
        return fingerprint({"learner": self.learner, "params": self.params,
                            "data": self.data})


def load_dataset(config):
    data = config.data
    kind = data.get("kind")
    if kind == "file":
        fmt = data.get("format", "svmlight")
        if fmt == "svmlight":
            return parse_svmlight(data["path"], dim=data.get("dim"))
        if fmt == "csv":
            return parse_csv(data["path"], label_column=data.get("label_column", "label"),
                             remap01=bool(data.get("remap01", False)), dim=data.get("dim"))
        raise ValueError(f"unknown data format {fmt!r}")
    if kind == "generator":
        return generate(GeneratorSpec.from_dict(data["spec"]))
    if kind == "inline":
        return data["dataset"]
    raise ValueError("config.data must have kind 'file', 'generator', or 'inline'")


_CLASSIFIERS = {"pnorm_perceptron", "pa", "fixed_margin", "second_order"}


def build_learner(config, dim):
    name = config.learner
    p = config.params
    if name == "ogd":
        return GradientDescentLearner(FixedQuadratic(dim), loss=p.get("loss", "hinge"),
                                      eta=p.get("eta", 1.0))
    if name == "composite":
        reg = CompositeQuadL1(dim, eta=p.get("eta", 1.0), lam=p.get("lam", 0.0),
                              ridge=p.get("ridge", 0.0), quad=p.get("quad", 1.0),
                              schedule=p.get("schedule", "sqrt"))
        return GradientDescentLearner(reg, loss=p.get("loss", "absolute"),
                                      eta=p.get("eta", 1.0))
    if name == "pnorm_perceptron":
        return FirstOrderClassifier(PNorm(dim, p.get("p", 1.5)), eta_mode="conservative")
    if name == "pa":
        return FirstOrderClassifier(FixedQuadratic(dim), eta_mode="pa_optimal")
    if name == "fixed_margin":
        return FirstOrderClassifier(FixedQuadratic(dim), eta_mode="fixed",
                                    fixed_eta=p.get("fixed_eta", 0.5))
    if name == "second_order":
        return SecondOrderClassifier(dim, r=p.get("r", 1.0),
                                     variant=p.get("variant", "full"),
                                     trigger=p.get("trigger", "omd"))
    if name == "vaw":
        return VAWRegressor(dim, a=p.get("a", 1.0))
    if name == "adaptive_filter":
        return AdaptiveFilter(dim)
    if name in ("scaleinv_pnorm", "scaleinv_diag"):
        return ScaleInvariantRegressor(
            dim, kind=("pnorm" if name.endswith("pnorm") else "diag"),
            lipschitz=p.get("lipschitz", 1.0), eta=p.get("eta", 1.0),
            loss=p.get("loss", "absolute"))
    raise ValueError(f"unknown learner {name!r}")


def _validate_labels(config, dataset):
    if config.learner in _CLASSIFIERS or (
        config.learner in ("ogd", "composite") and config.params.get("loss") == "hinge"
    ):
        for i, ex in enumerate(dataset):
            if ex.y not in (-1.0, 1.0):
                raise ValueError(
                    f"classification learner needs labels in {{-1,+1}}; "
                    f"example {i} has y={ex.y}"
                )


def drive(learner, dataset):
    """Run the online protocol over the dataset, one learner round per example."""
    return [learner.round(ex.x, ex.y) for ex in dataset]


def _replay(config):
    """Load, validate, build and drive config; returns (trace, dataset, drive seconds)."""
    dataset = load_dataset(config)
    _validate_labels(config, dataset)
    learner = build_learner(config, dataset.dim)
    t0 = time.perf_counter()
    records = drive(learner, dataset)
    wall = time.perf_counter() - t0
    trace = RunTrace(
        learner_name=config.learner,
        params={**learner.params(), **{k: v for k, v in config.params.items()
                                       if k not in learner.params()}},
        examples=dataset.examples,
        records=records,
        learner=learner,
    )
    return trace, dataset, wall


def run_experiment(config):
    """Returns (trace, summary, reports). Bound reports only when audit is on."""
    trace, dataset, wall = _replay(config)
    records = trace.records
    reports = audit_reports(trace, config, dataset) if config.audit else []
    summary = {
        "T": len(records),
        "cumulative_loss": float(sum(r.loss for r in records)),
        "mistakes": int(sum(1 for r in records if r.mistake)),
        "margin_errors": int(sum(1 for r in records if r.margin_error)),
        "theta_norm": float(np.linalg.norm(trace.learner.theta)),
        "wall_time_s": wall,
        "reports": [r.to_dict() for r in reports],
    }
    return trace, summary, reports


def comparator_matrix(specs, trace, dataset):
    """Resolve comparator specs into one (N, d) matrix."""
    dim = trace.dim
    rows = []
    for spec in specs:
        if spec == "zero":
            rows.append(np.zeros((1, dim)))
        elif spec == "star":
            u = dataset.meta.get("u_star")
            if u is None:
                raise ValueError("comparator 'star' needs a generator with an embedded target")
            rows.append(np.asarray(u, float)[None, :])
        elif spec == "batch":
            X, y = trace.design()
            kind = trace.params.get("loss")
            if kind not in ("hinge", "square", "absolute"):
                kind = "square" if trace.learner_name in ("vaw", "adaptive_filter") else "hinge"
            rows.append(batch_comparator(X, y, kind=kind)[None, :])
        elif spec.startswith("grid:"):
            opts = dict(kv.split("=") for kv in spec[5:].split(","))
            rows.append(grid_comparators(dim, radius=float(opts.get("R", 2.0)),
                                         points=int(opts.get("n", 41))))
        elif spec.startswith("vec:"):
            vals = [float(v) for v in spec[4:].split(",")]
            if len(vals) != dim:
                raise ValueError(f"comparator vec has {len(vals)} entries, need {dim}")
            rows.append(np.asarray(vals)[None, :])
        else:
            raise ValueError(f"unknown comparator spec {spec!r}")
    return np.vstack(rows)


def audit_reports(trace, config, dataset):
    """Every bound evaluator applicable to the trace's learner."""
    U = comparator_matrix(config.comparators, trace, dataset)
    name = config.learner
    reports = [bounds_mod.engine_audit(trace, U)]
    if name in ("pnorm_perceptron", "pa", "fixed_margin"):
        reports.append(bounds_mod.first_order_mistake_bound(trace, U))
    elif name == "second_order":
        reports.append(bounds_mod.second_order_bound(trace, U))
        s = config.params.get("rare_s")
        if s is not None and trace.params["variant"] == "diagonal":
            star = dataset.meta.get("u_star")
            if star is not None:
                rep, _ok = bounds_mod.diag_rare_feature_refinement(trace, np.asarray(star), s)
                reports.append(rep)
    elif name == "vaw":
        reports.append(bounds_mod.vaw_bound(trace, U))
    elif name == "adaptive_filter":
        reports.append(bounds_mod.adaptive_filter_bound(trace, U))
    elif name in ("scaleinv_pnorm", "scaleinv_diag"):
        reports.append(bounds_mod.scale_invariant_bound(trace, U))
    elif name == "composite":
        # the constant schedule has no display of its own, and the linear one
        # holds only for eta == 1; the general display covers every run
        sched = trace.params.get("schedule", "sqrt")
        if sched == "sqrt" or (sched == "linear" and float(trace.params["eta"]) == 1.0):
            reports.append(bounds_mod.composite_bound(trace, U, sched))
        reports.append(bounds_mod.composite_bound(trace, U, "general"))
    elif name == "ogd":
        pass
    return reports


def report_violations(reports):
    out = []
    for rep in reports:
        tol = REPORT_TOL.get(rep.name, DEFAULT_TOL)
        # written so that a NaN slack or gap fails; +inf slack (a vacuous bound) passes
        if not rep.slack >= -tol:
            out.append((rep.name, rep.slack, tol))
        gap = rep.terms.get("max_residue_gap")
        if gap is not None and not gap <= DEFAULT_TOL:
            out.append((rep.name + ":residue", -gap, DEFAULT_TOL))
    return out


def _record_payload(rec):
    extras = {}
    for k, v in rec.extras.items():
        if isinstance(v, (np.floating, float)):
            extras[k] = float(v)
        elif isinstance(v, (np.integer, int, bool)) or v is None:
            extras[k] = v
        else:
            extras[k] = str(v)
    return {
        "t": rec.t,
        "prediction": rec.prediction,
        "label": rec.label,
        "loss": rec.loss,
        "eta": rec.eta,
        "mistake": bool(rec.mistake),
        "margin_error": bool(rec.margin_error),
        "dual_norm_sq": rec.dual_norm_sq,
        "beta": rec.beta,
        "residue": rec.residue,
        "reg_drop": rec.reg_drop,
        "zw": rec.zw,
        "extras": extras,
    }


def write_trace(path, config, trace):
    header = {
        "version": TRACE_VERSION,
        "fingerprint": config.fingerprint(),
        "config": config.to_dict(),
    }
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(canonical_json(header) + "\n")
        for rec in trace.records:
            fh.write(canonical_json(_record_payload(rec)) + "\n")


def write_summary(path, summary, drop_wall_time=False):
    payload = dict(summary)
    if drop_wall_time:
        payload.pop("wall_time_s", None)
    text = canonical_json(payload) + "\n"
    if path is None:
        return text
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return text


def read_trace_lines(path):
    import json

    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    if not lines:
        raise ValueError(f"{path}: empty trace file")
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as e:
        raise ValueError(f"{path}: bad header record: {e}") from None
    if header.get("version") != TRACE_VERSION:
        raise ValueError(f"{path}: unsupported trace version {header.get('version')}")
    return header, lines[1:]


def audit_stored(path, config_override=None):
    """Re-audit a stored trace: replay the embedded config, verify every record, re-run bounds.

    The trace only stores per-round scalars, so the data source named in
    the embedded config is re-materialized to rebuild regularizer state;
    record-by-record equality against the stored file is enforced before
    any report is produced.
    """
    header, stored = read_trace_lines(path)
    config = ExperimentConfig.from_dict(header["config"])
    if config_override is not None:
        if config_override.fingerprint() != header["fingerprint"]:
            raise ValueError(
                "learner fingerprint mismatch: trace was written by "
                f"{header['fingerprint']}, supplied config is {config_override.fingerprint()}"
            )
    if config.fingerprint() != header["fingerprint"]:
        raise ValueError("trace header fingerprint does not match its own config")
    trace, dataset, _ = _replay(config)
    records = trace.records
    if len(stored) < len(records):
        raise ValueError(
            f"{path}: trace truncated at record {len(stored)} (expected {len(records)})"
        )
    if len(stored) > len(records):
        raise ValueError(
            f"{path}: trace has {len(stored)} records, expected {len(records)}"
        )
    for i, rec in enumerate(records):
        expect = canonical_json(_record_payload(rec))
        if stored[i] != expect:
            raise ValueError(f"{path}: record {i + 1} does not match the replayed run")
    return audit_reports(trace, config, dataset), config


def prediction_deviation(trace_a, trace_b):
    """Max per-round prediction gap, relative to the larger run's scale."""
    pa = np.array([r.prediction for r in trace_a.records])
    pb = np.array([r.prediction for r in trace_b.records])
    if pa.shape != pb.shape:
        raise ValueError("runs have different lengths")
    scale = max(float(np.max(np.abs(pa), initial=0.0)),
                float(np.max(np.abs(pb), initial=0.0)), 1e-12)
    return float(np.max(np.abs(pa - pb), initial=0.0)) / scale


def run_compare(config, factors):
    """Run config and its per-coordinate rescaled twin; report prediction deviation."""
    if config.data.get("kind") != "generator":
        raise ValueError("compare needs a generator data source")
    base_trace, _, _ = run_experiment(
        ExperimentConfig(config.learner, config.params, config.data,
                         config.comparators, audit=False))
    spec = config.data["spec"]
    rescaled = {
        "kind": "generator",
        "spec": {"kind": "rescaled", "seed": spec.get("seed", 0), "params": {},
                 "base": spec, "factors": [float(c) for c in factors]},
    }
    scaled_trace, _, _ = run_experiment(
        ExperimentConfig(config.learner, config.params, rescaled,
                         config.comparators, audit=False))
    return {
        "max_relative_deviation": prediction_deviation(base_trace, scaled_trace),
        "T": len(base_trace.records),
    }
