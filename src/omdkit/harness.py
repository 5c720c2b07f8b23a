"""Experiment harness: configs, run/audit drivers, trace and summary serialization.

The drivers replay a config into a RunTrace, which bounds.audit_reports audits.

Traces are JSON-lines files: a header record {version, fingerprint,
config} followed by one record per round. Numbers are serialized with 17
significant digits so a stored trace round-trips bit-faithfully; a replay
of the same config therefore reproduces the file byte for byte (wall time
lives only in the summary and is excluded from determinism claims). A
record's extras repeat none of its other fields.
"""

import dataclasses
import functools
import hashlib
import itertools
import json
import math
import operator
import os
import sys
import time

import numpy as np

from .bounds import RunTrace, audit_reports, batch_comparator, grid_comparators, ordered_sum
from .data import check_spec, generate, parse_csv, parse_svmlight, rescaled
from .learners import (
    FirstOrderClassifier,
    GradientDescentLearner,
    SecondOrderClassifier,
    StepRecord,
    VAWRegressor,
)
from .regularizers import (
    CompositeQuadL1,
    FixedQuadratic,
    MaxScaled,
    PNorm,
    ScaleInvDiag,
    ScaleInvPNorm,
)

# 3: no extra copies another record field
TRACE_VERSION = 3


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
        return json.dumps(x, ensure_ascii=False)
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


def config_fingerprint(config):
    """The fingerprint of what a replay reads: the config's learner, params and data."""
    return fingerprint({key: config[key] for key in ("learner", "params", "data")})


def load_dataset(config):
    """The dataset of config's data source, whose fields check_config has checked."""
    data = config["data"]
    if data["kind"] == "generator":
        return generate(data["spec"])
    if data.get("format") == "csv":
        return parse_csv(data["path"], label_column=data.get("label_column", "label"),
                         remap01=data.get("remap01", False), dim=data.get("dim"))
    return parse_svmlight(data["path"], dim=data.get("dim"))


_SCALE_INVARIANT = {"lipschitz": 1.0, "eta": 1.0, "loss": "absolute"}
# name -> (factory(dim, params), {param: default}); the CLI accepts exactly these params
LEARNERS = {
    "ogd": (lambda d, p: GradientDescentLearner(FixedQuadratic(d), p["loss"], p["eta"]),
            {"eta": 1.0, "loss": "hinge"}),
    "composite": (lambda d, p: GradientDescentLearner(
        CompositeQuadL1(d, p["eta"], p["lam"], p["ridge"], p["quad"], p["schedule"]),
        p["loss"], p["eta"]),
        {"eta": 1.0, "lam": 0.0, "ridge": 0.0, "quad": 1.0, "schedule": "sqrt",
         "loss": "absolute"}),
    "pnorm_perceptron": (lambda d, p: FirstOrderClassifier(PNorm(d, p["p"]), "conservative"),
                         {"p": 1.5}),
    "pa": (lambda d, p: FirstOrderClassifier(FixedQuadratic(d), "pa_optimal"), {}),
    "fixed_margin": (lambda d, p: FirstOrderClassifier(FixedQuadratic(d), "fixed",
                                                       p["fixed_eta"]), {"fixed_eta": 0.5}),
    "second_order": (lambda d, p: SecondOrderClassifier(d, p["r"], p["variant"], p["trigger"]),
                     {"r": 1.0, "variant": "full", "trigger": "omd"}),
    "vaw": (lambda d, p: VAWRegressor(d, p["a"]), {"a": 1.0}),
    "adaptive_filter": (lambda d, p: GradientDescentLearner(
        MaxScaled(FixedQuadratic(d)), "square", 1.0), {}),
    "scaleinv_pnorm": (lambda d, p: GradientDescentLearner(
        ScaleInvPNorm(d, p["lipschitz"]), p["loss"], p["eta"]), _SCALE_INVARIANT),
    "scaleinv_diag": (lambda d, p: GradientDescentLearner(
        ScaleInvDiag(d, p["lipschitz"]), p["loss"], p["eta"]), _SCALE_INVARIANT),
}


# the string params' choices; the others take a finite number
CHOICES = {"variant": SecondOrderClassifier.VARIANTS, "trigger": SecondOrderClassifier.TRIGGERS,
           "schedule": CompositeQuadL1.SCHEDULES, "loss": ("hinge", "square", "absolute")}


def check_config(config):
    """ValueError naming the first field of a config that no run could read.

    A config is the object a trace header stores: {learner, params, data,
    comparators}. The comparator checks that need the data's dim are
    comparator_matrix's, which a run makes before its first round.
    """
    if not isinstance(config, dict):
        raise ValueError("'config' must be an object")
    for key, kind, shape in (("learner", str, "a string"), ("params", dict, "an object"),
                             ("data", dict, "an object"), ("comparators", list, "a list")):
        if not isinstance(config.get(key), kind):
            raise ValueError(f"config field {key!r} must be {shape}")
    learner, params, data = config["learner"], config["params"], config["data"]
    if learner not in LEARNERS:
        raise ValueError(f"config field 'learner' names no learner: {learner!r}")
    defaults = LEARNERS[learner][1]
    for key, val in params.items():
        name = f"config field 'params.{key}'"
        if key not in defaults:
            raise ValueError(f"{name} is not a parameter of learner {learner!r}")
        if key in CHOICES:
            if val not in CHOICES[key]:
                raise ValueError(f"{name} must be one of {list(CHOICES[key])}")
        elif not (type(val) in (int, float) and abs(val) <= sys.float_info.max):
            raise ValueError(f"{name} must be a finite number")
    try:  # each constructor owns its parameters' ranges
        build_learner(config, 1)
    except (ValueError, ArithmeticError) as e:
        raise ValueError(f"config field 'params': {e}") from None
    kind = data.get("kind")
    if not config["comparators"]:
        raise ValueError("config field 'comparators' must not be empty")
    for spec in config["comparators"]:
        if not isinstance(spec, str):
            raise ValueError("config field 'comparators' must be a list of strings")
        if spec == "star" and kind == "file":
            raise ValueError("comparator 'star' needs a generator with an embedded target")
        if spec.startswith("grid:"):
            _grid_spec(spec)
        elif spec.startswith("vec:"):
            _spec_numbers(spec, spec[4:].split(","))
        elif spec not in ("zero", "star", "batch"):
            raise ValueError(f"unknown comparator spec {spec!r} in field 'comparators'")
    if kind == "generator":
        check_spec(data.get("spec"), "data.spec")
        return
    if kind != "file":
        raise ValueError("config field 'data.kind' must be 'file' or 'generator'")
    dim = data.get("dim")
    for key, ok, shape in (
            ("path", isinstance(data.get("path"), str), "a string"),
            ("format", data.get("format", "svmlight") in ("svmlight", "csv"),
             "'svmlight' or 'csv'"),
            ("dim", dim is None or (type(dim) is int and dim >= 0), "an integer >= 0 or null"),
            ("label_column", isinstance(data.get("label_column", ""), str), "a string"),
            ("remap01", type(data.get("remap01", False)) is bool, "true or false")):
        if not ok:
            raise ValueError(f"config field 'data.{key}' must be {shape}")


def build_learner(config, dim):
    """Build config's learner: its params over the learner's defaults."""
    factory, defaults = LEARNERS[config["learner"]]
    return factory(dim, {**defaults, **config["params"]})


def _validate_labels(learner, dataset):
    bad = np.flatnonzero(np.abs(dataset.y) != 1.0) if learner.loss_name == "hinge" else ()
    if len(bad):
        raise ValueError(f"classification learner needs labels in {{-1,+1}}; "
                         f"example {bad[0]} has y={float(dataset.y[bad[0]])}")


def drive(learner, dataset):
    """Run the online protocol over the dataset, one learner round per example."""
    return [learner.round(x, y) for x, y in dataset]


def _replay(config):
    """Load, validate, build, resolve the comparators and drive; returns (trace, U, drive s)."""
    dataset = load_dataset(config)
    learner = build_learner(config, dataset.dim)
    _validate_labels(learner, dataset)
    U = comparator_matrix(config["comparators"], dataset, learner)
    t0 = time.perf_counter()
    records = drive(learner, dataset)
    wall = time.perf_counter() - t0
    return RunTrace(dataset, records, learner), U, wall


def _norm(v):
    """||v||_2 as np.linalg.norm gives it, max-scaled where that overflows or underflows a
    finite, nonzero v."""
    with np.errstate(over="ignore"):
        n = float(np.linalg.norm(v))
    if (n == 0.0 or n == math.inf) and v.any() and np.isfinite(v).all():
        s = float(np.abs(v).max())
        n = s * float(np.linalg.norm(v / s))
    return n


def run_experiment(config, audit=True):
    """Check and run config; returns (trace, summary). The bound reports only when audit is on."""
    check_config(config)
    trace, U, wall = _replay(config)
    records = trace.records
    summary = {
        "T": len(records),
        "cumulative_loss": float(ordered_sum(r.loss for r in records)),
        "mistakes": int(sum(1 for r in records if r.mistake)),
        "margin_errors": int(sum(1 for r in records if r.margin_error)),
        "theta_norm": _norm(trace.learner.theta),
        "wall_time_s": wall,
        "reports": audit_reports(trace, U) if audit else [],
    }
    return trace, with_first_nonfinite(summary, records)


def _spec_numbers(spec, texts):
    try:
        return [float(v) for v in texts]
    except ValueError:
        raise ValueError(f"comparator {spec!r}: entries must be numbers") from None


def _grid_spec(spec, dim=None):
    """'grid:R=<radius>,n=<points>' into (radius, points), checked before any allocation.

    With dim None only the spec itself is checked; a grid needs dim 1 to 3."""
    items = [item.partition("=")[::2] for item in spec[5:].split(",")]
    opts = dict(items)
    if len(opts) < len(items) or not set(opts) <= {"R", "n"}:
        raise ValueError(f"comparator {spec!r}: expected R=<radius>,n=<points>")
    radius, points = _spec_numbers(spec, [opts.get("R", 2), opts.get("n", 41)])
    if not (math.isfinite(radius) and radius > 0 and points >= 2 and points.is_integer()):
        raise ValueError(f"comparator {spec!r}: needs a finite R > 0 and an integer n >= 2")
    if dim is not None:
        if dim < 1:
            raise ValueError(f"comparator {spec!r}: needs dim >= 1 (the data has dim {dim})")
        if dim > 3 or int(points) ** dim > 10**6:
            raise ValueError(f"comparator {spec!r}: needs dim <= 3 and n^dim <= 10^6 (dim {dim})")
    return radius, int(points)


def comparator_matrix(specs, dataset, learner):
    """Resolve comparator specs, which check_config has checked, into one (N, d) matrix."""
    dim = learner.dim
    rows = []
    for spec in specs:
        if spec == "zero":
            rows.append(np.zeros((1, dim)))
        elif spec == "star":
            rows.append(np.asarray(dataset.meta["u_star"], float)[None, :])
        elif spec == "batch":
            rows.append(batch_comparator(dataset.X, dataset.y, kind=learner.loss_name)[None, :])
        elif spec.startswith("grid:"):
            radius, points = _grid_spec(spec, dim)
            rows.append(grid_comparators(dim, radius=radius, points=points))
        else:  # vec:v1,v2,...
            vals = np.array(_spec_numbers(spec, spec[4:].split(",")))
            if vals.size != dim or not np.isfinite(vals).all():
                raise ValueError(f"comparator {spec!r}: needs {dim} finite entries")
            rows.append(vals[None, :])
    return np.vstack(rows)


_RECORD_FIELDS = [f.name for f in dataclasses.fields(StepRecord) if f.name != "z"]


def _record_payload(rec):
    return {name: getattr(rec, name) for name in _RECORD_FIELDS}


# A record's JSON line has a fixed shape: the sorted fields, with the sorted extras nested
# where "extras" sorts. So records that share their extras keys and value types share one
# %-template, and encode_record fills it; canonical_json stays the specification.
_NAMES = sorted(_RECORD_FIELDS)
_HEAD = _NAMES[:_NAMES.index("extras")]
_TAIL = _NAMES[_NAMES.index("extras") + 1:]
_HEAD_VALUES, _TAIL_VALUES = operator.attrgetter(*_HEAD), operator.attrgetter(*_TAIL)
# %.17g formats a float as format(x, ".17g") does
_SLOTS = {float: "%.17g", int: "%d", bool: "%s"}
_JSON_BOOL = {False: "false", True: "true"}


@functools.cache
def _record_encoder(keys, types):
    """(template, argument getter, bool argument positions) for one record shape.

    keys are the extras keys in insertion order, types the value types in
    the order encode_record lists them. None when a type has no fixed
    format, or when the template's text could hide an "inf" or "nan".
    """
    if not all(t in _SLOTS for t in types):
        return None
    names = [*_HEAD, *("extras." + k for k in keys), *_TAIL]
    kind = dict(zip(names, types))
    position = {name: i for i, name in enumerate(names)}

    def fields(group):
        return ",".join(_fmt(name.removeprefix("extras.")).replace("%", "%%") + ":"
                        + _SLOTS[kind[name]] for name in group)

    extras = ["extras." + k for k in sorted(keys)]
    text = "{%s,\"extras\":{%s},%s}" % (fields(_HEAD), fields(extras), fields(_TAIL))
    if "inf" in text or "nan" in text:
        return None
    args = [*_HEAD, *extras, *_TAIL]
    bools = [i for i, name in enumerate(args) if kind[name] is bool]
    return text, operator.itemgetter(*(position[name] for name in args)), bools


def encode_record(rec):
    """canonical_json(_record_payload(rec)), through the template of the record's shape.

    A non-finite float formats as inf or nan, which no template's own text
    contains; such a record, and one with a value of any other type than
    float, int or bool, goes through canonical_json.
    """
    extras = rec.extras
    vals = (*_HEAD_VALUES(rec), *extras.values(), *_TAIL_VALUES(rec))
    # (*map(...),) sizes the tuple once; tuple(map(...)) would resize it, and CPython
    # parks each resized tuple on a free list of another size, growing memory per record
    enc = _record_encoder(tuple(extras), (*map(type, vals),))
    if enc is not None:
        template, getter, bools = enc
        args = list(getter(vals))
        for i in bools:
            args[i] = _JSON_BOOL[args[i]]
        line = template % tuple(args)
        if "inf" not in line and "nan" not in line:
            return line
    return canonical_json(_record_payload(rec))


def _flat(payload):
    """A record payload with its extras inlined as 'extras.<key>'."""
    extras = payload.get("extras")
    if not isinstance(extras, dict):
        return payload
    return {**{k: v for k, v in payload.items() if k != "extras"},
            **{"extras." + k: v for k, v in extras.items()}}


# every record value that can be a float: all but the update vector z, and the extras' values
_SCREENED = operator.attrgetter(*(name for name in _RECORD_FIELDS if name != "extras"))
_EXTRAS = operator.attrgetter("extras")


def _sum_is_finite(records):
    """Whether the records' values sum to a finite number, in one pass that visits each once.

    True proves that none is NaN or infinite: either one makes the sum NaN
    or infinite. False only calls for a closer look, since finite values can
    overflow the sum, and a value that adds to no float gives False too.
    """
    values = itertools.chain(itertools.chain.from_iterable(map(_SCREENED, records)),
                             itertools.chain.from_iterable(map(dict.values, map(_EXTRAS, records))))
    try:
        return math.isfinite(sum(filter(None, values)))  # filter drops None, zeros and False
    except (TypeError, ValueError, OverflowError):
        return False


def with_first_nonfinite(payload, records):
    """payload plus the {t, field} of the first NaN or infinite record value, if any.

    The records' values pass one screen, _sum_is_finite, over the whole run;
    where it fails, each record takes the screen again, and only a record
    that fails its own has its fields walked, in order, for the first float
    that is not finite.
    """
    if _sum_is_finite(records):
        return payload
    for rec in records:
        if _sum_is_finite((rec,)):
            continue
        for prefix, fields in (("", vars(rec)), ("extras.", rec.extras)):
            for key, val in fields.items():
                if isinstance(val, float) and not math.isfinite(val):
                    return {**payload, "first_nonfinite": {"t": rec.t, "field": prefix + key}}
    return payload


def write_trace(path, config, trace):
    header = {"version": TRACE_VERSION, "fingerprint": config_fingerprint(config),
              "config": config}
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(canonical_json(header) + "\n")
        for rec in trace.records:
            fh.write(encode_record(rec) + "\n")


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
    """(fingerprint, checked config, record lines) of a stored trace; ValueError on a bad one."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    if not lines:
        raise ValueError(f"{path}: empty trace file")
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as e:
        raise ValueError(f"{path}: bad header record: {e}") from None
    if not isinstance(header, dict):
        raise ValueError(f"{path}: bad header record: not a JSON object")
    if header.get("version") != TRACE_VERSION:
        raise ValueError(f"{path}: unsupported trace version {header.get('version')}")
    if not isinstance(header.get("fingerprint"), str):
        raise ValueError(f"{path}: header field 'fingerprint' must be a string")
    try:
        check_config(header.get("config"))
    except ValueError as e:
        raise ValueError(f"{path}: header {e}") from None
    return header["fingerprint"], header["config"], lines[1:]


def _ulps(a, b):
    """Distance between two finite floats in units in the last place."""
    ka, kb = (int(np.float64(x).view(np.int64)) for x in (a, b))
    return abs((ka if ka >= 0 else -(ka & 2**63 - 1)) - (kb if kb >= 0 else -(kb & 2**63 - 1)))


def _record_mismatch(line, payload):
    """Name the first key (extras included) where a stored record differs from the replay."""
    try:
        stored = json.loads(line)
    except json.JSONDecodeError:
        return "not valid JSON"
    got, expect = _flat(stored) if isinstance(stored, dict) else {}, _flat(payload)
    for key in {**expect, **got}:
        old, new = (canonical_json(d[key]) if key in d else "(missing)" for d in (got, expect))
        if old != new:
            text = f"field {key!r}: stored {old}, replayed {new}"
            a, b = got.get(key), expect.get(key)
            # a float with an integral value is written, and read back, as an int
            if (isinstance(b, float) and type(a) in (int, float) and math.isfinite(b)
                    and abs(a) <= sys.float_info.max):
                text += f" ({_ulps(a, b)} ulps apart)"
            return text
    return "same values, different encoding"


def audit_stored(path, config_override=None):
    """Re-audit a stored trace: replay the embedded config, verify every record, re-run bounds.

    The trace only stores per-round scalars, so the data source named in
    the embedded config is re-materialized to rebuild regularizer state;
    record-by-record equality against the stored file is enforced before
    any report is produced. Returns (replayed trace, {reports[, first_nonfinite]}).
    """
    stored_fp, config, stored = read_trace_lines(path)
    if config_override is not None:
        check_config(config_override)
        supplied = config_fingerprint(config_override)
        if supplied != stored_fp:
            raise ValueError("learner fingerprint mismatch: trace was written by "
                             f"{stored_fp}, supplied config is {supplied}")
    if config_fingerprint(config) != stored_fp:
        raise ValueError("trace header fingerprint does not match its own config")
    try:
        trace, U, _ = _replay(config)
    except FileNotFoundError as e:
        data = config["data"]
        if data["kind"] == "generator" or e.filename != data["path"]:
            raise
        raise ValueError(f"{path}: data file {data['path']!r} named in its header not found "
                         f"(resolved against {os.getcwd()})") from None
    records = trace.records
    if len(stored) < len(records):
        raise ValueError(f"{path}: trace truncated at record {len(stored)} "
                         f"(expected {len(records)})")
    if len(stored) > len(records):
        raise ValueError(f"{path}: trace has {len(stored)} records, expected {len(records)}")
    for i, rec in enumerate(records):
        if stored[i] != encode_record(rec):
            raise ValueError(f"{path}: record {i + 1} does not match the replayed run: "
                             f"{_record_mismatch(stored[i], _record_payload(rec))}")
    return trace, with_first_nonfinite({"reports": audit_reports(trace, U)}, records)


def prediction_deviation(trace_a, trace_b):
    """Max per-round prediction gap, relative to the larger run's scale."""
    pa = np.array([r.prediction for r in trace_a.records])
    pb = np.array([r.prediction for r in trace_b.records])
    if pa.shape != pb.shape:
        raise ValueError("runs have different lengths")
    scale = max(float(np.abs(pa).max(initial=0.0)), float(np.abs(pb).max(initial=0.0)), 1e-12)
    return float(np.abs(pa - pb).max(initial=0.0)) / scale


def run_compare(config, factors):
    """Run config and its per-coordinate rescaled twin; report prediction deviation."""
    check_config(config)
    if config["data"]["kind"] != "generator":
        raise ValueError("compare needs a generator data source")
    twin = {**config, "data": {"kind": "generator", "spec": rescaled(config["data"]["spec"],
                                                                     factors)}}
    base, scaled = (run_experiment(c, audit=False)[0] for c in (config, twin))
    return {"max_relative_deviation": prediction_deviation(base, scaled), "T": len(base.records)}
