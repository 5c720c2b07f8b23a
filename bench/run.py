"""omdkit benchmark: times the public entry points on one workload and checks every output.

Usage, from the repository root:

    python3 bench/run.py --workload sweep_lowdim --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload sweep_lowdim --seed 1 --seconds 30 --trace 1

--trace 0 measures the end-to-end metrics; --trace 1 runs one fixed pass
untraced and then traced, and reports the per-layer metrics. The
end-to-end timings are in `ref` units, multiples of a reference kernel
read around each call (reference.py), so the host's speed drops out. The last
line of standard output is one JSON object; the lines before it are a
readable table. A full report is written under .bench_work/. See
bench/README.md for the workloads and metrics.
"""

import os

BLAS_THREADS = 1
# fixed before numpy loads: one BLAS thread keeps the process within the
# machine's cores and keeps BLAS scheduling out of the timings
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import reference  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 5
REFERENCE_WARMUP = 20  # untimed readings of the reference kernel before measuring
# what a user's process pays before its first call: a fresh interpreter
# importing numpy and the omdkit modules the workloads drive
IMPORT_PROGRAM = ("import sys; sys.path.insert(0, sys.argv[1]); "
                  "import numpy, omdkit.cli, omdkit.oracles")

END_TO_END = {  # name -> unit
    "setup_s": "s",
    "pass_ref": "ref",
    "call_ref.p50": "ref",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
}


def load_program():
    """Import omdkit from this checkout's src/ and the modules that drive it."""
    sys.path.insert(0, str(SRC))
    import numpy
    import omdkit

    if not Path(omdkit.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"omdkit imported from {omdkit.__file__}, not from {SRC}")
    import tracing
    import workloads

    return numpy, workloads, tracing


def git_commit():
    """HEAD commit read from .git without starting a process; None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def machine_block(numpy, args, workload):
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "configuration": blas.get("openblas configuration")},
        "blas_threads": BLAS_THREADS,
        "commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "shapes": workload.shapes(),
        "bytes_computed_note": "*.bytes_computed are computed from array sizes, not measured",
    }


class Ledger:
    """Call timings, failures and output digests of one process."""

    def __init__(self):
        self.records = []  # (call, seconds)
        self.failures = []
        self.digests = {}  # call ident -> digests, to catch nondeterminism
        self.pass_digests = {}  # pass label -> list of digests in call order

    def check(self, call, result, seconds, label):
        try:
            fails = call.check(call, result)
        except Exception:  # an unreadable output is a failed call, not a crash
            fails = ["check raised: " + traceback.format_exc(limit=2).strip()[-300:]]
        seen = self.digests.setdefault(call.ident, call.digests)
        if seen != call.digests:
            fails = fails + [f"output of {call.ident} differs from an earlier identical call"]
        self.pass_digests.setdefault(label, []).append(call.digests)
        self.records.append((call, seconds))
        if fails:
            self.failures.append({"call": repr(call.ident), "errors": fails})

    @property
    def attempted(self):
        return len(self.records)

    @property
    def failed(self):
        return len(self.failures)

    def combined_digests(self, label):
        """One digest per output kind over a pass, in call order."""
        out = {}
        for kind in ("trace", "summary", "result"):
            parts = [d[kind] for d in self.pass_digests.get(label, []) if kind in d]
            if parts:
                out[kind] = hashlib.sha256("\n".join(parts).encode()).hexdigest()
        return out


def timed_call(call, ledger, label, tracer=None, job_id=0):
    """Time call.execute() (under a root span when tracing), then check its output."""
    t0 = time.perf_counter_ns()
    try:
        if tracer is None:
            result = call.execute()
            wall = time.perf_counter_ns() - t0
        else:
            result, wall = tracer.run_job(job_id, call.root, call.execute)
    except Exception:  # a call that raises is a failed call; the run goes on
        ledger.records.append((call, (time.perf_counter_ns() - t0) * 1e-9))
        ledger.failures.append({"call": repr(call.ident),
                                "errors": [traceback.format_exc(limit=3).strip()[-400:]]})
        return
    ledger.check(call, result, wall * 1e-9, label)


# per-kind timings reported beside the per-layer metrics, from the untraced pass
PER_KIND = ("run.rounds_per_s", "run.job_s.p50", "audit.rounds_per_s", "audit.job_s.p50",
            "oracle.biconjugate_s.p50", "oracle.argmax_s.p50", "oracle.dual_norm_s.p50")


def percentile(values, q):
    if len(values) < 2:
        return values[0] if values else None
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def kind_stats(records):
    """The per-kind timings: run/audit throughput and percentiles, oracle probe percentiles."""
    by_kind = {}
    for call, sec in records:
        by_kind.setdefault(call.kind, []).append((call, sec))
    out = {}
    for kind in ("run", "audit"):
        rows = by_kind.get(kind, [])
        secs = [s for _, s in rows]
        rounds = sum(c.rounds for c, _ in rows)
        out[f"{kind}.rounds_per_s"] = (rounds / sum(secs) if secs else None, "rounds/s", len(secs))
        out[f"{kind}.job_s.p50"] = (percentile(secs, 50), "s", len(secs))
        # p90 is reported only with at least ten samples beyond it
        out[f"{kind}.job_s.p90"] = (percentile(secs, 90) if len(secs) >= 100 else None, "s",
                                    len(secs))
    for kind, name, qs in (("biconjugate", "oracle.biconjugate_s", (50,)),
                           ("argmax", "oracle.argmax_s", (50, 75)),
                           ("dual_norm", "oracle.dual_norm_s", (50,))):
        secs = [s for _, s in by_kind.get(kind, [])]
        for q in qs:
            ok = q == 50 or len(secs) * (100 - q) / 100 >= 10
            out[f"{name}.p{q}"] = (percentile(secs, q) if ok else None, "s", len(secs))
    return out


def by_type(records, units):
    """Call times grouped by call type: key -> (count in a pass, times).

    Each call's time is divided by its entry in units: the reference
    reading around it, or 1 for seconds.
    """
    out = {}
    for (call, sec), unit in zip(records, units):
        out.setdefault(call.key, (call.mult, []))[1].append(sec / unit)
    return out.values()


def pass_time(records, units):
    """Expected time of one pass: per call type, its median time times its count in a pass.

    Medians, so that one call slowed by the host does not move a type
    that gets only a few samples in a run (a biconjugation probe, a
    high-dimensional job).
    """
    return sum(mult * statistics.median(times) for mult, times in by_type(records, units))


def call_p50(records, units):
    """Median call time of one pass, each call type at its median time.

    Weighting types by their count in a pass, rather than by how many ran
    before the deadline, keeps the median from jumping between the cost
    clusters of a workload with few, unequal call types.
    """
    return statistics.median(t for mult, times in by_type(records, units)
                             for t in [statistics.median(times)] * mult)


def measure(workload, seconds, ledger):
    """Call the workload's passes until `seconds` have elapsed and pass 0 is complete.

    The reference kernel is read just before every call and once after
    the last. Returns the passes started, each call's start and the
    readings, as (time, kernel seconds); times count from the start.
    """
    for _ in range(REFERENCE_WARMUP):
        reference.reference_seconds()
    start = time.perf_counter()
    starts, readings = [], []

    def read():
        readings.append((time.perf_counter() - start, reference.reference_seconds()))

    k = 0
    while True:
        for call in workload.calls(k):
            read()
            starts.append(time.perf_counter() - start)
            timed_call(call, ledger, f"pass{k}")
            if k > 0 and time.perf_counter() - start >= seconds:
                read()
                return k + 1, starts, readings
        if time.perf_counter() - start >= seconds:
            read()
            return k + 1, starts, readings
        k += 1


def import_seconds():
    """Wall time of a fresh interpreter that imports numpy and omdkit from src/."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", IMPORT_PROGRAM, str(SRC)], check=True, timeout=120)
    return time.perf_counter() - t0


def setup_times(workload):
    """Median of SETUP_REPEATS set-ups, each a timed import plus the workload's set-up."""
    imports, setups = [], []
    for _ in range(SETUP_REPEATS):
        imports.append(import_seconds())
        t0 = time.perf_counter()
        workload.setup()
        setups.append(time.perf_counter() - t0)
    return statistics.median(i + s for i, s in zip(imports, setups)), imports, setups


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(args, workload, report):
    setup_s, imports, setups = setup_times(workload)
    ledger = Ledger()
    passes, starts, readings = measure(workload, args.seconds, ledger)
    records = ledger.records
    # a call's unit is the mean of the readings just before and just after it,
    # which takes the host's speed during the call out of its time
    refs = [(a + b) / 2 for (_, a), (_, b) in zip(readings, readings[1:])]
    metrics = {
        "setup_s": setup_s,
        "pass_ref": pass_time(records, refs),
        "call_ref.p50": call_p50(records, refs),
        "peak_rss_mb": peak_rss_mb(),
        "ok_frac": (ledger.attempted - ledger.failed) / ledger.attempted,
    }
    samples = {"setup_s": SETUP_REPEATS, "pass_ref": len(records), "call_ref.p50": len(records),
               "peak_rss_mb": 1, "ok_frac": ledger.attempted}
    # the same two figures in seconds, which carry the host's speed
    ones = [1.0] * len(records)
    seconds = {"pass_s": pass_time(records, ones), "call_s.p50": call_p50(records, ones),
               "reference_s.p50": statistics.median(r for _, r in readings)}
    kinds = kind_stats(records)
    report.update({
        "setup_import_s": imports, "setup_workload_s": setups, "passes_started": passes,
        "end_to_end": {k: {"value": v, "unit": END_TO_END[k], "samples": samples[k]}
                       for k, v in metrics.items()},
        "seconds": {k: {"value": v, "unit": "s", "samples": len(records)}
                    for k, v in seconds.items()},
        "calls": [[repr(c.key), sec, t] for (c, sec), t in zip(records, starts)],
        "readings": readings,
        "per_kind": {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in kinds.items()},
        "failed_frac": ledger.failed / ledger.attempted,
        "digests_pass0": ledger.combined_digests("pass0"),
    })
    lines = [f"{k:<24} {v:>14.6g} {END_TO_END[k]:<9} n={samples[k]}" for k, v in metrics.items()]
    lines.append(f"{'failed_frac':<24} {report['failed_frac']:>14.6g} {'ratio':<9} "
                 f"n={ledger.attempted}")
    lines.append("in seconds, which move with the host's speed (reference_s: one reading):")
    lines += [f"  {k:<22} {v:>14.6g} {'s':<9} n={len(records)}" for k, v in seconds.items()]
    lines.append("per-kind breakdown (n = samples; n/a where the workload has none or too few):")
    for k, (v, u, n) in kinds.items():
        shown = f"{v:>14.6g}" if v is not None else f"{'n/a':>14}"
        lines.append(f"  {k:<22} {shown} {u:<9} n={n}")
    out = {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}
    return ledger, out, lines


def traced_run(args, workload, tracing, report):
    """Pass 0 untraced, then the same pass traced; per-layer metrics from the traced one."""
    workload.setup()
    ledger = Ledger()
    for call in workload.calls(0):
        timed_call(call, ledger, "untraced")
    untraced = list(ledger.records)
    tracer = tracing.Tracer()
    calls = workload.calls(0)
    workload.tracer = tracer
    tracing.install(tracer)
    try:
        for j, call in enumerate(calls):
            timed_call(call, ledger, "traced", tracer, j)
    finally:
        tracer.uninstall()
        workload.tracer = None
    traced = ledger.records[len(untraced):]
    untraced_s = sum(s for _, s in untraced)
    traced_s = sum(s for _, s in traced)

    metrics = tracing.layer_metrics(tracer, [c for c, _ in traced])
    kinds = kind_stats(untraced)
    for name in PER_KIND:
        metrics[name] = kinds[name][0] or 0.0
    metrics["tracing.untraced_s"] = untraced_s
    metrics["tracing.overhead_s"] = traced_s - untraced_s
    units = {**tracing.PER_LAYER, **{k: kinds[k][1] for k in PER_KIND},
             "tracing.untraced_s": "s", "tracing.overhead_s": "s"}

    run_rounds = sum(c.rounds for c, _ in traced if c.kind == "run")
    all_rounds = sum(c.rounds for c, _ in traced if c.kind in ("run", "audit"))
    checks = tracing.span_checks(tracer, [int(s * 1e9) for _, s in traced])
    # identities that follow from the inputs: one learner round per example per job,
    # and one trace line per round plus a header per run job
    traces = sum(1 for c, _ in traced if c.kind == "run")
    checks.update({
        "learner_rounds_expected": all_rounds,
        "learner_rounds_match": metrics["learners.round.calls"] == all_rounds,
        "encode_records_expected": run_rounds + traces,
        "encode_records_match": metrics["harness.encode.records"] == run_rounds + traces,
    })
    spans_path = WORK / "spans" / f"{args.workload}-seed{args.seed}.npz"
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    tracer.save(spans_path)
    report.update({
        "per_layer": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "identities": checks,
        "spans_file": str(spans_path.relative_to(ROOT)),
        "digests_pass0": ledger.combined_digests("traced"),
    })
    lines = [f"{k:<44} {v:>16.6g} {units[k]}" for k, v in metrics.items()]
    lines.append(f"checks   {json.dumps(checks, sort_keys=True)}")
    out = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    return ledger, out, lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        numpy, workloads, tracing = load_program()
    except ImportError as exc:
        print(f"bench: cannot load omdkit from {SRC}: {exc}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    run_dir = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    os.chdir(run_dir)  # the workloads write their inputs and outputs here
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed)
        report = {}
        if args.trace:
            ledger, metrics, lines = traced_run(args, workload, tracing, report)
        else:
            ledger, metrics, lines = end_to_end(args, workload, report)
        report["machine"] = machine_block(numpy, args, workload)
    except (RuntimeError, subprocess.SubprocessError) as exc:
        print(f"bench: set-up failed: {exc}", file=sys.stderr)
        return 1
    finally:
        os.chdir(ROOT)
        shutil.rmtree(run_dir, ignore_errors=True)

    report["failures"] = ledger.failures[:50]
    correct = ledger.failed == 0
    report["correct"] = correct
    reports = WORK / "reports"
    reports.mkdir(parents=True, exist_ok=True)
    report_path = reports / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    report_path.write_text(json.dumps(report, indent=1, sort_keys=True, default=str))

    m = report["machine"]
    print(f"omdkit bench  workload={args.workload} seed={args.seed} trace={args.trace} "
          f"commit={m['commit']}")
    print(f"machine  nproc={m['nproc']} python={m['python']} numpy={m['numpy']} "
          f"blas={m['blas']['name']} {m['blas']['version']} blas_threads={m['blas_threads']}")
    print(f"shapes   {json.dumps(m['shapes'], sort_keys=True)}")
    for line in lines:
        print(line)
    for label, digest in sorted(report.get("digests_pass0", {}).items()):
        print(f"digest   {label:<8} {digest}")
    for fail in ledger.failures[:5]:
        print(f"FAILED   {fail['call']}: {fail['errors'][0]}")
    print(f"report   {report_path.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
