"""The fixed-schema record encoder writes exactly what canonical_json writes.

encode_record fills one %-template per record shape and falls back to
canonical_json, the specification, for non-finite floats and for value
types without a fixed format.
"""

import itertools
import json
import math
import re

import numpy as np
import pytest

from helpers import gen_config, noisy_linear, separable
from omdkit.harness import (
    _record_payload,
    _ulps,
    audit_stored,
    canonical_json,
    encode_record,
    run_experiment,
    write_trace,
)
from omdkit.learners import StepRecord

EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308,
               1.0, -3.0, 1e16, 1e17, 2.0**53, 0.1, 1 / 3, math.nan, math.inf, -math.inf]
FLOAT_FIELDS = ["prediction", "label", "loss", "eta", "dual_norm_sq", "beta", "residue",
                "reg_drop", "zw"]


def _same(rec):
    assert encode_record(rec) == canonical_json(_record_payload(rec))


def _record(**fields):
    base = {"t": 1, "prediction": 0.5, "label": 1.0, "loss": 0.25, "eta": 1.0,
            "z": np.zeros(2)}
    return StepRecord(**{**base, **fields})


def test_encoder_matches_canonical_json_on_edge_values_in_every_field():
    for name, x in itertools.product(FLOAT_FIELDS, EDGE_FLOATS):
        _same(_record(**{name: x}))
        _same(_record(extras={"a": 1.0, "b": x}))
    for t in (0, 1, 2**70, -5):
        _same(_record(t=t))
    for mistake, margin_error in itertools.product((False, True), repeat=2):
        _same(_record(mistake=mistake, margin_error=margin_error))


def test_encoder_matches_canonical_json_on_other_value_types():
    values = [None, True, False, 0, 7, -2**64, 2.5, np.float64(0.1), np.int64(3),
              np.float64(math.nan), "s", 'q"\\']
    for a, b in itertools.product(values, repeat=2):
        _same(_record(extras={"m_t": a, "p_t": b}))
        _same(_record(extras={"z": a, "a": b, "%s": 1.0, 'k"': 2.0}))
    # a key whose text holds "inf" or "nan" still encodes exactly
    _same(_record(extras={"info": 1.5, "nanos": math.inf}))


# trace format 3: each learner's extras keys, sorted, by whether the round updated (eta > 0);
# no extra copies another field of its record
EXTRAS_KEYS = {
    ("ogd", True): (),
    ("composite", True): ("penalty_w",),
    ("pnorm_perceptron", False): ("x_dual_sq", "x_max"),
    ("pnorm_perceptron", True): ("x_dual_sq", "x_max"),
    ("pa", False): ("x_dual_sq", "x_max"),
    ("pa", True): ("x_dual_sq", "x_max"),
    ("fixed_margin", False): ("x_dual_sq", "x_max"),
    ("fixed_margin", True): ("x_dual_sq", "x_max"),
    ("second_order", False): ("chi", "logdet"),
    ("second_order", True): ("chi", "logdet", "margin_w"),
    ("vaw", True): ("post_quad",),
    ("adaptive_filter", True): (),
    ("scaleinv_pnorm", True): ("m_t", "p_t"),
    ("scaleinv_diag", True): (),
}


def test_encoder_matches_canonical_json_on_every_learner_run():
    suite = [("ogd", {"eta": 0.5}, separable(2, d=4, T=40)),
             ("composite", {"eta": 0.7, "lam": 0.1}, noisy_linear(2, d=4, T=40)),
             ("pnorm_perceptron", {"p": 1.5}, separable(2, d=4, T=40)),
             ("pa", {}, separable(2, d=4, T=40)),
             ("fixed_margin", {}, separable(2, d=4, T=40)),
             ("second_order", {"variant": "diagonal"}, separable(2, d=4, T=40)),
             ("second_order", {"variant": "full"}, separable(2, d=4, T=40)),
             ("vaw", {}, noisy_linear(2, d=4, T=40)),
             ("adaptive_filter", {}, noisy_linear(2, d=4, T=40)),
             ("scaleinv_pnorm", {}, noisy_linear(2, d=4, T=40)),
             ("scaleinv_diag", {}, noisy_linear(2, d=4, T=40)),
             # overflows: inf and nan in predictions, losses and extras
             ("vaw", {}, noisy_linear(3, sigma=1e200, d=2, T=20)),
             ("adaptive_filter", {}, noisy_linear(3, sigma=1e200, d=2, T=20)),
             ("composite", {"eta": 0.7}, noisy_linear(3, sigma=1e200, d=2, T=20))]
    shapes = {}
    nonfinite = 0
    for name, params, spec in suite:
        with np.errstate(all="ignore"):
            trace, _ = run_experiment(gen_config(name, params, spec), audit=False)
        for rec in trace.records:
            _same(rec)
            shapes.setdefault((name, rec.eta > 0.0), set()).add(tuple(sorted(rec.extras)))
            nonfinite += not all(math.isfinite(v) for v in vars(rec).values()
                                 if isinstance(v, float))
    assert shapes == {key: {keys} for key, keys in EXTRAS_KEYS.items()}
    assert nonfinite > 0


def test_audit_names_the_field_and_ulps_of_a_changed_digit(tmp_path):
    cfg = gen_config("adaptive_filter", {}, noisy_linear(4, d=3, T=12))
    trace, _ = run_experiment(cfg)
    path = tmp_path / "t.jsonl"
    write_trace(path, cfg, trace)
    lines = path.read_text().splitlines()
    for lineno, key in ((3, "prediction"), (7, "dual_norm_sq"), (12, "zw")):
        old = json.loads(lines[lineno])[key]
        text = canonical_json(old)
        # the sixth digit from the mantissa's end, far enough up to change the float
        i = [m.start() for m in re.finditer(r"\d", text.split("e")[0])][-6]
        new_text = text[:i] + str((int(text[i]) + 1) % 10) + text[i + 1:]
        pattern = f'"{key}":{text}'
        assert lines[lineno].count(pattern) == 1
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join(lines[:lineno] + [lines[lineno].replace(
            pattern, f'"{key}":{new_text}')] + lines[lineno + 1:]) + "\n")
        with pytest.raises(ValueError) as exc:
            audit_stored(bad)
        msg = str(exc.value)
        assert f"record {lineno} does not match the replayed run: field {key!r}" in msg
        assert f"stored {canonical_json(float(new_text))}, replayed {text}" in msg
        assert msg.endswith(f"({_ulps(float(new_text), old)} ulps apart)")
