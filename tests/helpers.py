"""Shared run builders and the CLI runner for the tests."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from omdkit.harness import run_experiment
from omdkit.linalg import SparseVec
from omdkit.prng import Xorshift64Star

SRC = str(Path(__file__).resolve().parents[1] / "src")


# the learner flags each CLI learner reads; every other (learner, flag) pair is a usage error
READS = {
    "ogd": {"eta", "loss"},
    "composite": {"eta", "lam", "ridge", "quad", "schedule", "loss"},
    "pnorm_perceptron": {"p"},
    "pa": set(),
    "fixed_margin": {"fixed_eta"},
    "second_order": {"r", "variant", "trigger"},
    "vaw": {"a"},
    "adaptive_filter": set(),
    "scaleinv_pnorm": {"lipschitz", "eta", "loss"},
    "scaleinv_diag": {"lipschitz", "eta", "loss"},
}


def run_cli(*args, timeout=None, module="omdkit.cli"):
    """Run `python -m <module>` in a child process that imports omdkit from this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-m", module, *args],
                          capture_output=True, text=True, env=env, timeout=timeout)


def gen_config(learner, params, spec, comparators=("zero",)):
    return {"learner": learner, "params": dict(params),
            "data": {"kind": "generator", "spec": spec}, "comparators": list(comparators)}


def separable(seed, gamma=0.3, d=10, T=200):
    return {"kind": "separable_margin", "seed": seed,
            "params": {"gamma": gamma, "d": d, "T": T}}


def noisy_linear(seed, sigma=0.2, d=10, T=200):
    return {"kind": "noisy_linear", "seed": seed,
            "params": {"sigma": sigma, "d": d, "T": T}}


def sparse_target(seed, k=3, d=10, T=200):
    return {"kind": "sparse_target", "seed": seed,
            "params": {"k": k, "d": d, "T": T}}


def heavy_tail(seed, zipf=1.5, d=12, T=200):
    return {"kind": "heavy_tail_features", "seed": seed,
            "params": {"zipf": zipf, "d": d, "T": T}}


def run(learner, params, spec, comparators=("zero",), audit=True):
    """(trace, summary, report dicts) of a generator run."""
    trace, summary = run_experiment(gen_config(learner, params, spec, comparators), audit)
    return trace, summary, summary["reports"]


def regularizer_families(dim=2):
    """One representative instance per regularizer family, at a nontrivial state."""
    import numpy as np

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


def strong_convexity_gap(reg, p, q):
    """The smaller of the two strong-convexity gaps of reg at (p, q) and at (q, p).

    The gap at (a, b) is f(b) - f(w) - <a, b - w> - beta/2 ||b - w||^2 at
    w = mirror_map(a), with beta = reg.strong_convexity(); a gap below 0
    refutes beta.
    """
    beta = reg.strong_convexity()
    gaps = []
    for a, b in ((p, q), (q, p)):
        # a is a subgradient of f at mirror_map(a): this is the inequality the regret proof applies
        w = reg.mirror_map(a)
        gaps.append(float(np.asarray(reg.value(b))) - float(np.asarray(reg.value(w)))
                    - float(a @ (b - w)) - 0.5 * beta * float(np.asarray(reg.norm(b - w))) ** 2)
    return min(gaps)


# the nine audited learner configurations, keyed by display name
def audited_learner_suite(d, T, seed):
    sep = separable(seed, d=d, T=T)
    lin = noisy_linear(seed, d=d, T=T)
    return [
        ("ogd", {"eta": 0.5, "loss": "hinge"}, sep),
        ("pnorm_perceptron", {"p": 1.5}, sep),
        ("pa", {}, sep),
        ("second_order", {"r": 1.0, "variant": "full", "trigger": "omd"}, sep),
        ("second_order", {"r": 1.0, "variant": "diagonal", "trigger": "omd"}, sep),
        ("vaw", {"a": 1.0}, lin),
        ("adaptive_filter", {}, lin),
        ("scaleinv_pnorm", {"lipschitz": 1.0, "eta": 1.0, "loss": "absolute"}, lin),
        ("scaleinv_diag", {"lipschitz": 1.0, "eta": 1.0, "loss": "absolute"}, lin),
    ]


# ---- the scalar generators: one PRNG call per draw and a SparseVec per row ----------------
# They are the oracle for omdkit.data's generators, which draw whole datasets at once and
# must give the same rows, labels, metadata, final PRNG state and spare normal.

def _scalar_unit_vector(rng, d):
    while True:
        v = rng.normals(d)
        n = float(np.linalg.norm(v))
        if n > 1e-12:
            return v / n


def _scalar_separable(rng, gamma, d, T):
    u = _scalar_unit_vector(rng, d)
    rows = []
    for _ in range(int(T)):
        y = rng.sign()
        m = gamma + (1.0 - gamma) * rng.uniform()
        v = rng.normals(d)
        orth = v - (v @ u) * u
        northo = float(np.linalg.norm(orth))
        x = y * m * u
        if northo > 1e-12:
            rho = rng.uniform()
            x = x + (orth / northo) * rho * math.sqrt(max(1.0 - m * m, 0.0))
        rows.append((SparseVec.from_dense(x), y))
    return rows, {"u_star": u / gamma}


def _scalar_noisy_linear(rng, sigma, d, T):
    u = _scalar_unit_vector(rng, d)
    rows = []
    for _ in range(int(T)):
        x = np.array([rng.uniform_in(-1.0, 1.0) for _ in range(d)])
        y = float(u @ x) + sigma * rng.normal()
        rows.append((SparseVec.from_dense(x), y))
    return rows, {"u_star": u}


def _scalar_sparse_target(rng, k, d, T):
    support = rng.permutation(d)[:k]
    u = np.zeros(d)
    for i in support:
        u[i] = rng.sign() / math.sqrt(k)
    rows = []
    for _ in range(int(T)):
        x = np.array([rng.uniform_in(-1.0, 1.0) for _ in range(d)])
        rows.append((SparseVec.from_dense(x), float(u @ x)))
    return rows, {"u_star": u}


def _scalar_heavy_tail(rng, zipf, d, T):
    probs = np.array([(i + 1.0) ** (-zipf) for i in range(d)])
    k = max(d // 4, 1)
    u = np.zeros(d)
    for i in range(d - k, d):
        u[i] = rng.sign() / math.sqrt(k)
    u[0] = 0.1 * rng.sign()
    rows = []
    for _ in range(int(T)):
        x = np.array([1.0 if rng.uniform() < probs[i] else 0.0 for i in range(d)])
        if not x.any():
            x[0] = 1.0
        s = float(u @ x)
        rows.append((SparseVec.from_dense(x), 1.0 if s >= 0 else -1.0))
    return rows, {"u_star": u}


SCALAR_GENERATORS = {
    "separable_margin": _scalar_separable,
    "noisy_linear": _scalar_noisy_linear,
    "sparse_target": _scalar_sparse_target,
    "heavy_tail_features": _scalar_heavy_tail,
}


def scalar_generate(kind, seed, params, rescales=()):
    """(X, y, meta, rng) of the scalar generator, after each factor list in rescales.

    X is the rows' dense reading, SparseVec.to_dense of each row.
    """
    rng = Xorshift64Star(seed)
    rows, meta = SCALAR_GENERATORS[kind](rng, **params)
    for factors in rescales:
        factors = np.asarray(factors, dtype=np.float64)
        rows = [(x.scaled(factors), y) for x, y in rows]
        meta = {**meta, "u_star": np.asarray(meta["u_star"], float) / factors}
    d = params["d"]
    X = np.array([x.to_dense() for x, _ in rows]).reshape(len(rows), d)
    return X, np.array([y for _, y in rows]), meta, rng


# ---- the rescaling path before datasets were one matrix: a SparseVec per row --------------
# A scaled SparseVec keeps its entries, so a product that underflows stays an explicit signed
# zero, which a later rescaling flips and write_svmlight writes. rescale_dataset's support
# mask must give the same matrix bits and the same file bytes.

def sparsevec_rescale(X, rescales):
    """X's rows as SparseVecs, through SparseVec.scaled once per factor list in rescales."""
    rows = [SparseVec.from_dense(x) for x in X]
    for factors in rescales:
        rows = [x.scaled(np.asarray(factors, dtype=np.float64)) for x in rows]
    return rows


def sparsevec_svmlight(rows, y, meta):
    """The svmlight text write_svmlight wrote for SparseVec rows and labels y."""
    lines = []
    if "u_star" in meta:
        lines.append("# u_star " + " ".join(repr(float(v)) for v in meta["u_star"]))
    for x, label in zip(rows, y):
        lines.append(" ".join([repr(float(label))] + [f"{i + 1}:{repr(float(v))}"
                                                       for i, v in zip(x.indices, x.values)]))
    return "".join(line + "\n" for line in lines)
