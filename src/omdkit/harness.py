"""Experiment harness: configs, run/audit drivers, trace and summary serialization.

Traces are JSON-lines files: a header record {version, fingerprint,
config} followed by one record per round. Numbers are serialized with 17
significant digits so a stored trace round-trips bit-faithfully; a replay
of the same config therefore reproduces the file byte for byte (wall time
lives only in the summary and is excluded from determinism claims).
"""

import dataclasses
import functools
import hashlib
import json
import math
import operator
import sys
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
    StepRecord,
    VAWRegressor,
)
from .regularizers import CompositeQuadL1, FixedQuadratic, PNorm

# 2: the lgrad_norm and b_hash extras are gone
TRACE_VERSION = 2

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
    """Learner spec + data source + comparator specs + audit toggles, checked by _check_config."""

    def __init__(self, learner, params=None, data=None, comparators=None, audit=True):
        self.learner = learner
        self.params = dict(params or {})
        self.data = dict(data or {})
        self.comparators = list(comparators or ["zero"])
        self.audit = bool(audit)
        _check_config(self.learner, self.params, self.data)

    def to_dict(self):
        return {"learner": self.learner, "params": self.params, "data": self.data,
                "comparators": self.comparators}

    @classmethod
    def from_dict(cls, d):
        """The config a trace header stores; ValueError names a field of the wrong shape."""
        if not isinstance(d, dict):
            raise ValueError("'config' must be an object")
        for key, kind, shape in (("learner", str, "a string"), ("params", dict, "an object"),
                                 ("data", dict, "an object"), ("comparators", list, "a list")):
            if not isinstance(d.get(key), kind):
                raise ValueError(f"config field {key!r} must be {shape}")
        if not all(isinstance(c, str) for c in d["comparators"]):
            raise ValueError("config field 'comparators' must be a list of strings")
        return cls(d["learner"], d["params"], d["data"], d["comparators"])

    def fingerprint(self):
        return fingerprint({"learner": self.learner, "params": self.params, "data": self.data})


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
    raise ValueError("config.data must have kind 'file' or 'generator'")


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
    # rare_s feeds the diagonal variant's rare-feature refinement in audit_reports
    "second_order": (lambda d, p: SecondOrderClassifier(d, p["r"], p["variant"], p["trigger"]),
                     {"r": 1.0, "variant": "full", "trigger": "omd", "rare_s": None}),
    "vaw": (lambda d, p: VAWRegressor(d, p["a"]), {"a": 1.0}),
    "adaptive_filter": (lambda d, p: AdaptiveFilter(d), {}),
    "scaleinv_pnorm": (lambda d, p: ScaleInvariantRegressor(
        d, "pnorm", p["lipschitz"], p["eta"], p["loss"]), _SCALE_INVARIANT),
    "scaleinv_diag": (lambda d, p: ScaleInvariantRegressor(
        d, "diag", p["lipschitz"], p["eta"], p["loss"]), _SCALE_INVARIANT),
}


# the string params' choices; the others take a finite number, or None where that is the default
CHOICES = {"variant": SecondOrderClassifier.VARIANTS, "trigger": SecondOrderClassifier.TRIGGERS,
           "schedule": CompositeQuadL1.SCHEDULES, "loss": ("hinge", "square", "absolute")}


def _check_config(learner, params, data):
    """ValueError naming the first field no run could read."""
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
        elif not ((type(val) in (int, float) and abs(val) <= sys.float_info.max)
                  or (val is None and defaults[key] is None)):
            allowed = " or null" if defaults[key] is None else ""
            raise ValueError(f"{name} must be a finite number{allowed}")
    if data.get("kind") == "file" and not isinstance(data.get("path"), str):
        raise ValueError("config field 'data.path' must be a string")
    if data.get("kind") == "generator" and not isinstance(data.get("spec"), dict):
        raise ValueError("config field 'data.spec' must be an object")


def build_learner(config, dim):
    """Build config's learner: its params over the learner's defaults."""
    factory, defaults = LEARNERS[config.learner]
    return factory(dim, {**defaults, **config.params})


def _validate_labels(learner, dataset):
    bad = np.flatnonzero(np.abs(dataset.y) != 1.0) if learner.binary_labels else ()
    if len(bad):
        raise ValueError(f"classification learner needs labels in {{-1,+1}}; "
                         f"example {bad[0]} has y={float(dataset.y[bad[0]])}")


def drive(learner, dataset):
    """Run the online protocol over the dataset, one learner round per example."""
    return [learner.round(x, y) for x, y in dataset]


def _replay(config):
    """Load, validate, build and drive config; returns (trace, drive seconds)."""
    dataset = load_dataset(config)
    learner = build_learner(config, dataset.dim)
    _validate_labels(learner, dataset)
    t0 = time.perf_counter()
    records = drive(learner, dataset)
    wall = time.perf_counter() - t0
    return RunTrace(dataset, records, learner), wall


def run_experiment(config):
    """Returns (trace, summary, reports). Bound reports only when audit is on."""
    trace, wall = _replay(config)
    records = trace.records
    reports = audit_reports(trace, config) if config.audit else []
    summary = {
        "T": len(records),
        "cumulative_loss": float(sum(r.loss for r in records)),
        "mistakes": int(sum(1 for r in records if r.mistake)),
        "margin_errors": int(sum(1 for r in records if r.margin_error)),
        "theta_norm": float(np.linalg.norm(trace.learner.theta)),
        "wall_time_s": wall,
        "reports": [r.to_dict() for r in reports],
    }
    return trace, with_first_nonfinite(summary, records), reports


def _spec_numbers(spec, texts):
    try:
        return [float(v) for v in texts]
    except ValueError:
        raise ValueError(f"comparator {spec!r}: entries must be numbers") from None


def _grid_spec(spec, dim):
    """'grid:R=<radius>,n=<points>' into (radius, points), checked before any allocation."""
    items = [item.partition("=")[::2] for item in spec[5:].split(",")]
    opts = dict(items)
    if len(opts) < len(items) or not set(opts) <= {"R", "n"}:
        raise ValueError(f"comparator {spec!r}: expected R=<radius>,n=<points>")
    radius, points = _spec_numbers(spec, [opts.get("R", 2), opts.get("n", 41)])
    if not (math.isfinite(radius) and radius > 0 and points >= 2 and points.is_integer()):
        raise ValueError(f"comparator {spec!r}: needs a finite R > 0 and an integer n >= 2")
    if dim > 3 or int(points) ** dim > 10**6:
        raise ValueError(f"comparator {spec!r}: needs dim <= 3 and n^dim <= 10^6 (dim {dim})")
    return radius, int(points)


def comparator_matrix(specs, trace):
    """Resolve comparator specs into one (N, d) matrix."""
    dim = trace.dim
    rows = []
    for spec in specs:
        if spec == "zero":
            rows.append(np.zeros((1, dim)))
        elif spec == "star":
            u = trace.dataset.meta.get("u_star")
            if u is None:
                raise ValueError("comparator 'star' needs a generator with an embedded target")
            rows.append(np.asarray(u, float)[None, :])
        elif spec == "batch":
            X, y = trace.design()
            kind = getattr(trace.learner, "loss_name", None)
            if kind not in ("hinge", "square", "absolute"):
                kind = "hinge" if trace.learner.binary_labels else "square"
            rows.append(batch_comparator(X, y, kind=kind)[None, :])
        elif spec.startswith("grid:"):
            radius, points = _grid_spec(spec, dim)
            rows.append(grid_comparators(dim, radius=radius, points=points))
        elif spec.startswith("vec:"):
            vals = np.array(_spec_numbers(spec, spec[4:].split(",")))
            if vals.size != dim or not np.isfinite(vals).all():
                raise ValueError(f"comparator {spec!r}: needs {dim} finite entries")
            rows.append(vals[None, :])
        else:
            raise ValueError(f"unknown comparator spec {spec!r}")
    return np.vstack(rows)


def audit_reports(trace, config):
    """Every bound evaluator applicable to the trace's learner."""
    U = comparator_matrix(config.comparators, trace)
    learner = trace.learner
    reports = [bounds_mod.engine_audit(trace, U)]
    if isinstance(learner, FirstOrderClassifier):
        reports.append(bounds_mod.first_order_mistake_bound(trace, U))
    elif isinstance(learner, SecondOrderClassifier):
        reports.append(bounds_mod.second_order_bound(trace, U))
        s = config.params.get("rare_s")
        star = trace.dataset.meta.get("u_star")
        if s is not None and learner.variant == "diagonal" and star is not None:
            rep, _ok = bounds_mod.diag_rare_feature_refinement(trace, np.asarray(star), s)
            reports.append(rep)
    elif isinstance(learner, VAWRegressor):
        reports.append(bounds_mod.vaw_bound(trace, U))
    elif isinstance(learner, AdaptiveFilter):
        reports.append(bounds_mod.adaptive_filter_bound(trace, U))
    elif isinstance(learner, ScaleInvariantRegressor):
        reports.append(bounds_mod.scale_invariant_bound(trace, U))
    elif isinstance(learner.reg, CompositeQuadL1):
        # the constant schedule has no display of its own, and the linear one
        # holds only for eta == 1; the general display covers every run
        sched = learner.reg.schedule
        if sched == "sqrt" or (sched == "linear" and learner.eta == 1.0):
            reports.append(bounds_mod.composite_bound(trace, U, sched))
        reports.append(bounds_mod.composite_bound(trace, U, "general"))
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
# %.17g formats a float as format(x, ".17g") does; None is a literal null, not an argument
_SLOTS = {float: "%.17g", int: "%d", bool: "%s", type(None): "null"}
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
    args = [name for name in (*_HEAD, *extras, *_TAIL) if kind[name] is not type(None)]
    bools = [i for i, name in enumerate(args) if kind[name] is bool]
    return text, operator.itemgetter(*(position[name] for name in args)), bools


def encode_record(rec):
    """canonical_json(_record_payload(rec)), through the template of the record's shape.

    A non-finite float formats as inf or nan, which no template's own text
    contains; such a record, and one with a value of any other type than
    float, int, bool or None, goes through canonical_json.
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


def with_first_nonfinite(payload, records):
    """payload plus the {t, field} of the first NaN or infinite record value, if any."""
    for rec in records:
        for prefix, fields in (("", vars(rec)), ("extras.", rec.extras)):
            for key, val in fields.items():
                if isinstance(val, float) and not math.isfinite(val):
                    return {**payload, "first_nonfinite": {"t": rec.t, "field": prefix + key}}
    return payload


def write_trace(path, config, trace):
    header = {"version": TRACE_VERSION, "fingerprint": config.fingerprint(),
              "config": config.to_dict()}
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
    """(fingerprint, config, record lines) of a stored trace; ValueError on a malformed header."""
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
        return header["fingerprint"], ExperimentConfig.from_dict(header.get("config")), lines[1:]
    except ValueError as e:
        raise ValueError(f"{path}: header {e}") from None


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
    any report is produced. Returns (reports, replayed trace).
    """
    stored_fp, config, stored = read_trace_lines(path)
    if config_override is not None and config_override.fingerprint() != stored_fp:
        raise ValueError("learner fingerprint mismatch: trace was written by "
                         f"{stored_fp}, supplied config is {config_override.fingerprint()}")
    if config.fingerprint() != stored_fp:
        raise ValueError("trace header fingerprint does not match its own config")
    trace, _ = _replay(config)
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
    return audit_reports(trace, config), trace


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
    spec = config.data["spec"]
    rescaled = {"kind": "generator",
                "spec": {"kind": "rescaled", "seed": spec.get("seed", 0), "params": {},
                         "base": spec, "factors": [float(c) for c in factors]}}
    base, scaled = (run_experiment(ExperimentConfig(config.learner, config.params, data,
                                                    audit=False))[0]
                    for data in (config.data, rescaled))
    return {"max_relative_deviation": prediction_deviation(base, scaled), "T": len(base.records)}
