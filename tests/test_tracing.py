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
