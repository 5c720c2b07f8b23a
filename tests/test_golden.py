"""Golden digests: traces, summaries and audit payloads pinned byte for byte.

One run per CLI learner config at d=5, T=60 with comparators zero and
star. A refactor of the engine, harness or CLI must keep every digest;
changing one on purpose means a TRACE_VERSION bump or a documented
behaviour change, and new digests here.
"""

import hashlib
import json

import pytest

from omdkit import cli
from omdkit.harness import canonical_json

SEPARABLE = "separable_margin:gamma=0.3,d=5,T=60"
LINEAR = "noisy_linear:sigma=0.2,d=5,T=60"

CONFIGS = {
    "ogd": (["--learner", "ogd", "--eta", "0.5", "--loss", "hinge"], SEPARABLE),
    "composite": (["--learner", "composite", "--eta", "0.7", "--lam", "0.1",
                   "--schedule", "sqrt"], LINEAR),
    "pnorm_perceptron": (["--learner", "pnorm_perceptron", "--p", "1.5"], SEPARABLE),
    "pa": (["--learner", "pa"], SEPARABLE),
    "fixed_margin": (["--learner", "fixed_margin", "--fixed-eta", "0.5"], SEPARABLE),
    "second_order_full": (["--learner", "second_order", "--variant", "full"], SEPARABLE),
    "second_order_diagonal": (["--learner", "second_order", "--variant", "diagonal"],
                              SEPARABLE),
    "vaw": (["--learner", "vaw", "--a", "1"], LINEAR),
    "adaptive_filter": (["--learner", "adaptive_filter"], LINEAR),
    "scaleinv_pnorm": (["--learner", "scaleinv_pnorm"], LINEAR),
    "scaleinv_diag": (["--learner", "scaleinv_diag"], LINEAR),
}

# sha256 of (trace bytes, summary without wall_time_s, audit payload), first 16 hex digits
GOLDEN = {
    "adaptive_filter": ("912c70b977aaec97", "1c475088b6399f83", "1e92408a87aa9c96"),
    "composite": ("3c80686ff2460502", "b9c03da2377a9fbc", "b3d478462f924da9"),
    "fixed_margin": ("7a518dc806db57e2", "763e025990699dbd", "8a3e5ee08d7a4009"),
    "ogd": ("3ee1502bb2d58ceb", "ae8a4221e880d3ba", "a6aadc5326f22282"),
    "pa": ("afce5cd2d2206a2f", "b694fcea6e4e4ff7", "6eabb7c1b8a34fb2"),
    "pnorm_perceptron": ("ac8f65b89639f028", "39967ac99cab6485", "86fcd66ef85f1634"),
    "scaleinv_diag": ("2c3692f73d28e44f", "dd2445957d32509f", "48f95867a410523d"),
    "scaleinv_pnorm": ("ee40eeea7248cd50", "aa6103786ac90aa2", "b20f39dfecdd825a"),
    "second_order_diagonal": ("deb88950bd7b9d02", "ba25bc28f399fd5e", "0f05a4d5e2cbe048"),
    "second_order_full": ("3407e6751ebe9c74", "54cefb098e0af672", "3fb6aeca8379c725"),
    "vaw": ("99020d0923d74b98", "7395d09f867c32a5", "c887ff6ec93eb11a"),
}


def _sha(data):
    return hashlib.sha256(data).hexdigest()[:16]


def _digests(tmp_path, flags, gen):
    trace, summ, audit = (tmp_path / n for n in ("t.jsonl", "s.json", "a.json"))
    assert cli.main(["run", *flags, "--gen", gen, "--seed", "1",
                     "--comparator", "zero", "--comparator", "star",
                     "--trace", str(trace), "--summary", str(summ)]) == 0
    assert cli.main(["audit", "--trace", str(trace), "--summary", str(audit)]) == 0
    summary = json.loads(summ.read_text())
    summary.pop("wall_time_s")
    return (_sha(trace.read_bytes()), _sha(canonical_json(summary).encode()),
            _sha(audit.read_bytes()))


@pytest.mark.parametrize("key", sorted(CONFIGS))
def test_golden_digests(tmp_path, key):
    flags, gen = CONFIGS[key]
    assert _digests(tmp_path, flags, gen) == GOLDEN[key]
