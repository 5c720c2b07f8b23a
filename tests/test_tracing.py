"""The benchmark's span tracer still patches omdkit and counts what a tiny run does.

bench/tracing.py wraps omdkit's functions by name and reads `.z` off each
round's result, so a renamed patch target or a changed round result
fails here, not only in the slow bench/selftest.py.
"""

import importlib.util
from pathlib import Path

from omdkit import cli, harness, learners

_SPEC = importlib.util.spec_from_file_location(
    "bench_tracing", Path(__file__).resolve().parents[1] / "bench" / "tracing.py")
tracing = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tracing)

T = 12


def test_traced_cli_run_counts_every_round(tmp_path):
    trace = tmp_path / "t.jsonl"
    argv = ["run", "--learner", "pa", "--gen", f"separable_margin:gamma=0.3,d=3,T={T}",
            "--seed", "1", "--trace", str(trace), "--strict-audit"]
    originals = (harness.drive, harness.write_trace, learners.FirstOrderClassifier.round)
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        code, _wall = tracer.run_job(0, "cli", lambda: cli.main(argv))
    finally:
        tracer.uninstall()
    assert code == 0
    counts = tracer.counts
    assert counts["learners.round.calls"] == T
    assert 0 < counts["learners.updates"] <= T
    assert counts["harness.encode.records"] == T + 1
    assert counts["bounds.comparators"] == 1
    assert {"harness.drive", "harness.encode", "bounds.engine_audit"} <= set(tracer.names)
    assert (harness.drive, harness.write_trace, learners.FirstOrderClassifier.round) == originals


def test_traced_vaw_run_spans_one_update_and_one_snapshot_per_round(tmp_path):
    # the bench's regularizer layer sees the engine's hook: a layer that read 0 would show here
    argv = ["run", "--learner", "vaw", "--gen", f"noisy_linear:sigma=0.2,d=3,T={T}",
            "--seed", "1", "--trace", str(tmp_path / "t.jsonl"), "--strict-audit"]
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        code, _wall = tracer.run_job(0, "cli", lambda: cli.main(argv))
    finally:
        tracer.uninstall()
    assert code == 0
    names = tracer.arrays()["name"]
    for span in ("regularizers.update", "regularizers.snapshot"):
        assert int((names == tracer.codes[span]).sum()) == T, span
    # the round span rests on `round` alone, VAW's one entry
    assert tracer.counts["learners.round.calls"] == T
    assert 0 < tracer.counts["learners.updates"] <= T


def test_traced_run_and_audit_of_a_file_span_two_parses_of_its_bytes(tmp_path):
    # the block parser runs inside parse_svmlight, the function the bench's data.parse span
    # wraps; a parse that bypassed it would leave data.parse.busy_s at 0
    data, trace = tmp_path / "d.svm", tmp_path / "t.jsonl"
    assert cli.main(["gen", "--gen", f"noisy_linear:sigma=0.2,d=5,T={T}", "--seed", "1",
                     "--out", str(data)]) == 0
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        for job, argv in enumerate((["run", "--learner", "vaw", "--data", str(data),
                                     "--trace", str(trace), "--strict-audit"],
                                    ["audit", "--trace", str(trace), "--strict-audit"])):
            code, _wall = tracer.run_job(job, "cli", lambda: cli.main(argv))
            assert code == 0, argv
    finally:
        tracer.uninstall()
    names = tracer.arrays()["name"]
    assert int((names == tracer.codes["data.parse"]).sum()) == 2
    assert tracer.counts["data.parse.bytes"] == 2 * data.stat().st_size
