"""Self-test of the benchmark: identities, exact counts and digests across repeated runs.

    python3 bench/selftest.py

For each workload it makes two traced runs and one short untraced run
with seed SEED, then checks that

  * every output check passed (`correct` is true);
  * the traced span tree nests, and each job's top-level spans plus
    `cli.self_s` (the root's self time) account for the job's wall time;
  * `learners.round.calls` equals the rounds the jobs were given, and
    `harness.encode.records` equals the run jobs' rounds plus one trace
    header per run job;
  * the exact counts below are identical in the two traced runs;
  * the trace and summary digests agree across all three runs, so tracing
    changes no output.

Exits 0 when every check holds, 1 otherwise.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EXACT = ("prng.draws", "oracles.f_calls", "oracles.f_rows", "regularizers.snapshot.calls",
         "regularizers.mirror_map.calls", "harness.trace_bytes")
WORKLOADS = ("sweep_lowdim", "file_highdim", "oracle_suite")
SEED = 3
WALL_GAP_S = 1e-3


def bench(workload, seed, trace, seconds):
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-500:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    report = json.loads((ROOT / ".bench_work" / "reports" /
                         f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return result, report


def check_workload(workload, seed):
    problems = []
    first, rep1 = bench(workload, seed, 1, 1)
    second, rep2 = bench(workload, seed, 1, 1)
    plain, rep0 = bench(workload, seed, 0, 1)
    for label, result in (("traced", first), ("traced again", second), ("untraced", plain)):
        if not result["correct"]:
            problems.append(f"{label} run not correct: {result['failed']} failed")
    for label, rep in (("first", rep1), ("second", rep2)):
        ids = rep["identities"]
        if not ids["spans_nested_in_parents"]:
            problems.append(f"{label} traced run: a span lies outside its parent")
        if ids["max_wall_gap_s"] > WALL_GAP_S:
            problems.append(f"{label} traced run: spans miss {ids['max_wall_gap_s']} s of a job")
        if not ids["learner_rounds_match"]:
            problems.append(f"{label} traced run: learners.round.calls != "
                            f"{ids['learner_rounds_expected']}")
        if not ids["encode_records_match"]:
            problems.append(f"{label} traced run: harness.encode.records != "
                            f"{ids['encode_records_expected']}")
    for name in EXACT:
        a = first["metrics"][name]["value"]
        b = second["metrics"][name]["value"]
        if a != b:
            problems.append(f"{name} differs between identical traced runs: {a} != {b}")
    digests = [rep["digests_pass0"] for rep in (rep1, rep2, rep0)]
    if not digests[0] or any(d != digests[0] for d in digests):
        problems.append(f"pass-0 digests differ: {digests}")
    return problems


def main():
    failed = False
    for workload in WORKLOADS:
        problems = check_workload(workload, SEED)
        print(f"{workload}: {'ok' if not problems else 'FAILED'}")
        for p in problems:
            print(f"  {p}")
        failed |= bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
