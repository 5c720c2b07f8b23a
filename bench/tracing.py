"""In-memory span tracer that wraps omdkit's public functions from outside the package.

A span is (name, start, end, parent, job). Spans live in flat integer
arrays while the traced pass runs and are summarised and written out
only after it ends. A call made directly inside a span of
the same name records no span of its own, so recursion
(`data.generate` on a rescaled spec) and delegation (`MaxScaled.value`
calling its base family's `value`) count once, at the outermost call.

The patch table names the attributes that callers actually resolve:
`omdkit.harness` imports `generate`, `parse_svmlight`,
`batch_comparator` and the rest by name, so those are patched in the
harness namespace; `omdkit.cli` imports `audit_stored` by name. A
patch target that no longer exists raises, so a rename in the program
cannot make a layer read 0 unnoticed. Only the per-class loops over
regularizers and learners skip a method, because not every class
defines every method.
"""

import os
from array import array
from collections import Counter
from time import perf_counter_ns

import numpy as np


class Tracer:
    def __init__(self):
        self.codes = {}
        self.names = []
        self.name = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.job = array("q")
        self.stack = []
        self.job_id = -1
        self.counts = Counter()
        self._patches = []

    def code(self, name):
        if name not in self.codes:
            self.codes[name] = len(self.names)
            self.names.append(name)
        return self.codes[name]

    def open(self, code):
        i = len(self.name)
        self.name.append(code)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.job.append(self.job_id)
        self.end.append(0)
        self.stack.append(i)
        self.start.append(perf_counter_ns())
        return i

    def close(self, i):
        self.end[i] = perf_counter_ns()
        self.stack.pop()

    def run_job(self, job_id, root, fn):
        """Run fn() as job job_id under a root span; returns (result, outer wall ns)."""
        self.job_id = job_id
        t0 = perf_counter_ns()
        i = self.open(self.code(root))
        try:
            result = fn()
        finally:
            self.close(i)
            wall = perf_counter_ns() - t0
            self.job_id = -1
        return result, wall

    def traced(self, name, fn, on_call=None, on_result=None):
        """Wrap fn in a span; on_call sees every call, on_result only span-opening ones."""
        code = self.code(name)
        tracer = self

        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(tracer.counts)
            stack = tracer.stack
            if not stack or tracer.name[stack[-1]] == code:
                return fn(*args, **kwargs)
            i = tracer.open(code)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(i)
            if on_result is not None:
                on_result(tracer.counts, args, result)
            return result

        return wrapper

    def patch(self, owner, attr, name, optional=False, **hooks):
        """Wrap owner.attr in a span; a missing attribute raises unless optional."""
        raw = vars(owner).get(attr)
        if raw is None:
            if optional:
                return
            raise AttributeError(f"patch target {owner.__name__}.{attr} does not exist")
        if isinstance(raw, classmethod):
            new = classmethod(self.traced(name, raw.__func__, **hooks))
        else:
            new = self.traced(name, raw, **hooks)
        setattr(owner, attr, new)
        self._patches.append((owner, attr, raw))

    def uninstall(self):
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches.clear()

    # ---- summaries -------------------------------------------------------

    def arrays(self):
        n = len(self.name)
        name = np.frombuffer(self.name, dtype=np.int64, count=n)
        start = np.frombuffer(self.start, dtype=np.int64, count=n)
        end = np.frombuffer(self.end, dtype=np.int64, count=n)
        parent = np.frombuffer(self.parent, dtype=np.int64, count=n)
        job = np.frombuffer(self.job, dtype=np.int64, count=n)
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        self_ns = dur - child.astype(np.int64)
        return {"name": name, "start": start, "end": end, "parent": parent, "job": job,
                "dur": dur, "self": self_ns}

    def save(self, path):
        a = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), name=a["name"],
                            start=a["start"], end=a["end"], parent=a["parent"], job=a["job"])


def _array_bytes(obj, depth=2):
    """Bytes of the numpy arrays an object holds, following attributes depth levels down."""
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if depth == 0:
        return 0
    fields = getattr(obj, "__dict__", None)
    if fields is None:
        return 0
    return sum(_array_bytes(v, depth - 1) for v in fields.values())


def _sparsevec(counts, args, result):
    counts["linalg.sparsevec.calls"] += 1


def _learner_round(counts, args, result):
    counts["learners.round.calls"] += 1
    if np.any(result.z):
        counts["learners.updates"] += 1


def _snapshot(counts, args, result):
    counts["regularizers.snapshot.calls"] += 1
    counts["regularizers.snapshot.bytes_computed"] += _array_bytes(result)


def _mirror_map(counts, args, result):
    counts["regularizers.mirror_map.calls"] += 1


def _rank_one(counts, args, result):
    counts["linalg.rank_one.calls"] += 1
    # the d x d float64 inverse is rewritten once per update
    counts["linalg.rank_one.bytes_computed"] += 8 * args[0].dim ** 2


def _draw(counts):
    counts["prng.draws"] += 1


def _generate(counts, args, result):
    counts["data.generate.rows"] += len(result)


def _parse(counts, args, result):
    counts["data.parse.bytes"] += os.path.getsize(args[0])


def _write_trace(counts, args, result):
    counts["harness.encode.records"] += len(args[2].records) + 1
    counts["harness.trace_bytes"] += os.path.getsize(args[0])


def _comparators(counts, args, result):
    counts["bounds.comparators"] += int(result.shape[0])


BOUND_EVALUATORS = ("engine_audit", "first_order_mistake_bound", "second_order_bound",
                    "vaw_bound", "adaptive_filter_bound", "scale_invariant_bound",
                    "composite_bound")

_REGULARIZER_METHODS = {
    "snapshot": ("regularizers.snapshot", _snapshot),
    "mirror_map": ("regularizers.mirror_map", _mirror_map),
    "value": ("regularizers.value", None),
    "conjugate": ("regularizers.conjugate", None),
    "update": ("regularizers.update", None),
    "observe_input": ("regularizers.update", None),
    "observe_gradient": ("regularizers.update", None),
    "advance_step": ("regularizers.update", None),
}

_PRNG_METHODS = ("uniform", "uniform_in", "normal", "normals", "randint", "sign", "permutation")


def install(tracer):
    """Patch omdkit's module attributes and class methods with span wrappers."""
    from omdkit import bounds, cli, data, harness, learners, linalg, prng, regularizers

    rng = prng.Xorshift64Star
    tracer.patch(rng, "next_u64", "prng", on_call=_draw)
    for meth in _PRNG_METHODS:
        tracer.patch(rng, meth, "prng")

    for owner in (data, harness, cli):
        tracer.patch(owner, "generate", "data.generate", on_result=_generate)
    tracer.patch(harness, "parse_svmlight", "data.parse", on_result=_parse)
    tracer.patch(harness, "parse_csv", "data.parse", on_result=_parse)

    for meth in ("__init__", "from_dense", "to_dense", "dot", "scaled"):
        tracer.patch(linalg.SparseVec, meth, "linalg.sparsevec",
                     on_result=_sparsevec)
    tracer.patch(linalg.RankOneInverse, "update", "linalg.rank_one", on_result=_rank_one)

    for cls in vars(regularizers).values():
        if isinstance(cls, type) and issubclass(cls, regularizers.Regularizer):
            for meth, (name, hook) in _REGULARIZER_METHODS.items():
                tracer.patch(cls, meth, name, optional=True, on_result=hook)

    for cls in vars(learners).values():
        if isinstance(cls, type) and issubclass(cls, learners.OnlineLearner):
            # VAW's observe/label halves share the round span; label closes the round
            tracer.patch(cls, "round", "learners.round", optional=True,
                         on_result=_learner_round)
            tracer.patch(cls, "label", "learners.round", optional=True,
                         on_result=_learner_round)
            tracer.patch(cls, "observe", "learners.round", optional=True)

    for fn in BOUND_EVALUATORS:
        tracer.patch(bounds, fn, "bounds." + fn)
    tracer.patch(harness, "batch_comparator", "bounds.batch_comparator")
    tracer.patch(harness, "comparator_matrix", "bounds.comparator_matrix",
                 on_result=_comparators)

    tracer.patch(harness, "load_dataset", "harness.load")
    tracer.patch(harness, "drive", "harness.drive")
    for owner in (harness, cli):
        tracer.patch(owner, "write_trace", "harness.encode", on_result=_write_trace)
        tracer.patch(owner, "audit_stored", "harness.verify")


CONFIG_KEYS = ("ogd", "composite", "pnorm_perceptron", "pa", "fixed_margin",
               "second_order_full", "second_order_diagonal", "vaw", "adaptive_filter",
               "scaleinv_pnorm", "scaleinv_diag")

# per-layer metric -> unit, in report order
PER_LAYER = {
    "prng.draws": "count",
    "prng.busy_s": "s",
    "data.generate.busy_s": "s",
    "data.generate.rows": "count",
    "data.parse.busy_s": "s",
    "data.parse.bytes": "bytes",
    "data.parse.mb_per_s": "MB/s",
    "linalg.sparsevec.calls": "count",
    "linalg.sparsevec.busy_s": "s",
    "linalg.rank_one.calls": "count",
    "linalg.rank_one.busy_s": "s",
    "linalg.rank_one.bytes_computed": "bytes",
    "regularizers.snapshot.calls": "count",
    "regularizers.snapshot.busy_s": "s",
    "regularizers.snapshot.bytes_computed": "bytes",
    "regularizers.mirror_map.calls": "count",
    "regularizers.mirror_maps_per_round": "ratio",
    "regularizers.value.busy_s": "s",
    "regularizers.conjugate.busy_s": "s",
    "regularizers.update.busy_s": "s",
    "learners.round.calls": "count",
    "learners.round.self_s": "s",
    "learners.updates": "count",
    **{f"learners.round_us.{key}": "us" for key in CONFIG_KEYS},
    **{f"bounds.{fn}.busy_s": "s" for fn in BOUND_EVALUATORS},
    "bounds.batch_comparator.busy_s": "s",
    "bounds.comparators": "count",
    "harness.load.busy_s": "s",
    "harness.drive.busy_s": "s",
    "harness.encode.records": "count",
    "harness.encode.busy_s": "s",
    "harness.encode.us_per_record": "us",
    "harness.trace_bytes": "bytes",
    "harness.verify.busy_s": "s",
    "oracles.f_calls": "count",
    "oracles.f_rows": "count",
    "oracles.f_busy_s": "s",
    "oracles.self_s": "s",
    "cli.self_s": "s",
}


def layer_metrics(tracer, calls):
    """Per-layer metrics of a traced pass; calls[j] is the call that ran as job j."""
    a = tracer.arrays()
    n_names = len(tracer.names)
    busy = np.bincount(a["name"], weights=a["dur"], minlength=n_names) * 1e-9
    own = np.bincount(a["name"], weights=a["self"], minlength=n_names) * 1e-9

    def b(name):
        return float(busy[tracer.codes[name]]) if name in tracer.codes else 0.0

    def s(name):
        return float(own[tracer.codes[name]]) if name in tracer.codes else 0.0

    c = tracer.counts
    rounds = c["learners.round.calls"]
    m = {
        "prng.draws": c["prng.draws"],
        "prng.busy_s": b("prng"),
        "data.generate.busy_s": b("data.generate"),
        "data.generate.rows": c["data.generate.rows"],
        "data.parse.busy_s": b("data.parse"),
        "data.parse.bytes": c["data.parse.bytes"],
        "data.parse.mb_per_s": (c["data.parse.bytes"] / 1e6 / b("data.parse")
                                if b("data.parse") else 0.0),
        "linalg.sparsevec.calls": c["linalg.sparsevec.calls"],
        "linalg.sparsevec.busy_s": b("linalg.sparsevec"),
        "linalg.rank_one.calls": c["linalg.rank_one.calls"],
        "linalg.rank_one.busy_s": b("linalg.rank_one"),
        "linalg.rank_one.bytes_computed": c["linalg.rank_one.bytes_computed"],
        "regularizers.snapshot.calls": c["regularizers.snapshot.calls"],
        "regularizers.snapshot.busy_s": b("regularizers.snapshot"),
        "regularizers.snapshot.bytes_computed": c["regularizers.snapshot.bytes_computed"],
        "regularizers.mirror_map.calls": c["regularizers.mirror_map.calls"],
        "regularizers.mirror_maps_per_round": (c["regularizers.mirror_map.calls"] / rounds
                                               if rounds else 0.0),
        "regularizers.value.busy_s": b("regularizers.value"),
        "regularizers.conjugate.busy_s": b("regularizers.conjugate"),
        "regularizers.update.busy_s": b("regularizers.update"),
        "learners.round.calls": rounds,
        "learners.round.self_s": s("learners.round"),
        "learners.updates": c["learners.updates"],
        "bounds.batch_comparator.busy_s": b("bounds.batch_comparator"),
        "bounds.comparators": c["bounds.comparators"],
        "harness.load.busy_s": b("harness.load"),
        "harness.drive.busy_s": b("harness.drive"),
        "harness.encode.records": c["harness.encode.records"],
        "harness.encode.busy_s": b("harness.encode"),
        "harness.encode.us_per_record": (b("harness.encode") * 1e6 / c["harness.encode.records"]
                                         if c["harness.encode.records"] else 0.0),
        "harness.trace_bytes": c["harness.trace_bytes"],
        # audit_stored's own time: reading the trace, re-encoding and comparing records
        "harness.verify.busy_s": s("harness.verify"),
        "oracles.f_calls": c["oracles.f_calls"],
        "oracles.f_rows": c["oracles.f_rows"],
        "oracles.f_busy_s": b("oracles.f"),
        "oracles.self_s": s("oracles"),
        "cli.self_s": s("cli"),
    }
    for fn in BOUND_EVALUATORS:
        m[f"bounds.{fn}.busy_s"] = b("bounds." + fn)

    # inclusive learner-round time per round, by CLI config
    round_ns = np.zeros(len(calls))
    if "learners.round" in tracer.codes:
        mask = a["name"] == tracer.codes["learners.round"]
        round_ns = np.bincount(a["job"][mask], weights=a["dur"][mask], minlength=len(calls))
    per_config = {key: [0.0, 0] for key in CONFIG_KEYS}
    for j, call in enumerate(calls):
        if call.config in per_config and call.rounds:
            per_config[call.config][0] += round_ns[j]
            per_config[call.config][1] += call.rounds
    for key, (ns, n) in per_config.items():
        m[f"learners.round_us.{key}"] = ns / n / 1e3 if n else 0.0
    return {k: m[k] for k in PER_LAYER}


def span_checks(tracer, walls):
    """Structural checks of the span tree; walls[j] is job j's wall time from the outer timer."""
    a = tracer.arrays()
    parent = a["parent"]
    has_parent = parent >= 0
    p = parent[has_parent]
    nested = bool(np.all(a["start"][has_parent] >= a["start"][p])
                  and np.all(a["end"][has_parent] <= a["end"][p]))
    # a job's top-level spans plus its root's self time (cli.self_s) against its wall time
    child_dur = np.bincount(p, weights=a["dur"][has_parent], minlength=len(parent))
    roots = np.flatnonzero(~has_parent)
    gaps = [abs(child_dur[r] + a["self"][r] - walls[a["job"][r]]) * 1e-9 for r in roots]
    return {"spans": int(len(parent)), "spans_nested_in_parents": nested,
            "jobs": int(len(roots)), "max_wall_gap_s": max(gaps, default=0.0)}
