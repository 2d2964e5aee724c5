"""Fast check of the benchmark harness itself, at tiny sizes.

    python -m pytest bench

Runs every workload at a few-millisecond size, untraced and traced, and
checks that every metric named in BENCHMARK.json is emitted, that spans
nest, that self times are never negative, that the traced run leaves no
wrapper behind, and that the memory guard refuses a workload that would
not fit.
"""

import importlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
if importlib.util.find_spec("circdmd") is None:
    sys.path.insert(0, str(ROOT / "src"))

import circdmd  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(autouse=True)
def one_setup(monkeypatch):
    """One set-up per run: each one times an import in a fresh process."""
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)


def _run(name, tmp_path, trace):
    runner = run.Runner(workloads.tiny(name), seed=1, workdir=tmp_path, trace=trace)
    runner.loop(0)
    return runner


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_untraced_run_emits_every_end_to_end_metric(name, tmp_path):
    runner = _run(name, tmp_path, trace=False)
    values, stats = runner.end_to_end()
    assert set(run.END_TO_END) == {m["name"] for m in SPEC["end_to_end"]}
    assert set(values) == set(run.REPORTED)
    assert all(values[m] > 0 for m in values)
    assert stats["pipeline_s"]["n"] == len(runner.passes) >= 1
    assert runner.counts() == (runner.workload.ops_per_pass * len(runner.passes), 0)


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_traced_run_nests_spans_and_restores_functions(name, tmp_path):
    originals = {
        (layer, fn): getattr(importlib.import_module(f"circdmd.{layer}"), fn)
        for layer, fns in tracing.LAYERS.items()
        for fn in fns
    }
    runner = _run(name, tmp_path, trace=True)
    values, _ = runner.per_layer()
    assert {m["name"] for m in SPEC["per_layer"]} <= set(values)
    assert values["spectral.rank"] >= 1 and values["spectral.gram_dim"] >= 1
    assert values["variants.predict_s"] > 0

    spans = runner.recorder.spans
    assert spans and all(s.end is not None for s in spans)
    for span in spans:
        if span.parent is not None:
            parent = spans[span.parent]
            assert parent.start <= span.start <= span.end <= parent.end
            assert parent.pass_id == span.pass_id
    assert min(runner.recorder.self_times()) >= 0

    assert tracing.leftover_wrappers() == []
    for (layer, fn), original in originals.items():
        assert getattr(importlib.import_module(f"circdmd.{layer}"), fn) is original
    assert circdmd.variants.snapshot_svd is circdmd.spectral.snapshot_svd
    assert circdmd.cli.fit is circdmd.variants.fit


def test_memory_guard_refuses_before_set_up(tmp_path, monkeypatch, capsys):
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(name, "1")
    monkeypatch.setattr(run, "RESULTS", tmp_path)
    monkeypatch.setattr(run, "mem_available", lambda: 1)
    assert run.main(["--workload", "traffic-circ-sp", "--seconds", "0"]) == 3
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert result == {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    record = json.loads((tmp_path / "traffic-circ-sp-seed0-trace0.json").read_text())
    assert record["status"] == "refused"
    assert record["env"]["memory_estimate_mb"] > 2000
