"""Self-tests of the benchmark: tiny workloads, the oracle, the tracer.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import gc
import json
import os
import shutil
import subprocess
import sys
import time
from types import SimpleNamespace

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import cells  # noqa: E402
import hostspeed  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
from repro.recovery.model import RecoveryHandle  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    SPEC = json.load(_handle)

TINY = {
    "scale-tree-20k": ["--nodes", "512"],
    "live-line-wordcount": ["--duration", "20"],
}


def _run(workload, trace, cwd=ROOT):
    command = [
        sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
        "--seed", "3", "--seconds", "0", "--trace", str(trace), *TINY[workload],
    ]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=170)


def test_spec_names_every_workload():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(run.WORKLOADS)


@pytest.mark.parametrize("workload", sorted(TINY))
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_workload_emits_every_metric(workload, trace):
    done = _run(workload, trace)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    report = json.loads(lines[-2])
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }
    if not trace:
        assert all(metric["value"] > 0 for metric in result["metrics"].values())
    assert report["manifest"]["seed"] == 3
    assert "have_numpy" in report["manifest"] and report["manifest"]["params"]
    assert report["simulated"]["sim_recovery_s"] > 0


def test_scale_oracle_fails_on_dropped_or_short_recovery():
    def done(name, shards):
        return SimpleNamespace(state_name=name, result=SimpleNamespace(shards_recovered=shards))

    expected = {"a": 4, "b": 4, "c": 4}
    assert cells.check_scale([done("a", 4), done("b", 4), done("c", 4)], expected)[:2] == (3, 0)
    dropped = RecoveryHandle("tree", "b")  # started, never resolved
    attempted, failed, problems = cells.check_scale(
        [done("a", 4), dropped, done("c", 3)], expected
    )
    assert (attempted, failed) == (3, 2) and len(problems) == 2


def test_live_oracle_fails_on_tampered_checksum():
    report = SimpleNamespace(arrived=10, served=10, recovery_s=1.0, drain_s=1.0)
    golden = {"count[0]": "aa", "count[1]": "bb"}
    assert cells.check_live(report, dict(golden), golden)[:2] == (10, 0)
    attempted, failed, problems = cells.check_live(report, {**golden, "count[1]": "bc"}, golden)
    assert failed == attempted == 10 and "count[1]" in problems[0]
    short = SimpleNamespace(arrived=10, served=9, recovery_s=1.0, drain_s=1.0)
    assert cells.check_live(short, golden, golden)[1] == 1


def test_benchmark_exits_nonzero_when_the_oracle_fails(monkeypatch, capsys):
    real = cells.live_reference
    monkeypatch.setattr(
        cells, "live_reference", lambda params, seed: {**real(params, seed), "count[0]": "0" * 64}
    )
    code = run.main(["--workload", "live-line-wordcount", "--seconds", "0", "--duration", "20"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1 and result["correct"] is False and result["failed"] == result["attempted"]


def test_benchmark_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "scale-tree-20k", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert done.returncode != 0 and done.stdout.strip() == ""


def test_wrapper_self_time_excludes_nested_wrapped_calls():
    trace = layers.LayerTrace()

    def inner():
        time.sleep(0.02)

    inner_w = trace.wrap("inner", inner)

    def outer(depth):
        time.sleep(0.01)
        inner_w()
        if depth:
            outer_w(depth - 1)

    outer_w = trace.wrap("outer", outer)
    outer_w(1)
    assert trace.calls("outer") == 2 and trace.calls("inner") == 2
    assert 0.02 <= trace.self_s("outer") < 0.035
    assert trace.self_s("inner") >= 0.04
    # Recursion counts the outermost call once in the total.
    assert trace.total_s("outer") >= trace.self_s("outer") + trace.self_s("inner") - 1e-6
    assert trace.total_s("outer") < 0.1


def test_install_wraps_and_uninstall_restores():
    from repro.recovery import model
    from repro.sim.kernel import Simulator

    original_run = Simulator.run
    original_handles = model.run_handles
    trace = layers.LayerTrace()
    trace.install()
    try:
        assert Simulator.run is not original_run
        assert model.run_handles is not original_handles
        assert cells.run_handles is model.run_handles
    finally:
        trace.uninstall()
    assert Simulator.run is original_run
    assert model.run_handles is original_handles and cells.run_handles is original_handles


def test_live_prefix_run_times_the_save_phase_again_and_is_checked(monkeypatch):
    params = cells.live_params(20.0)
    reference = cells.live_reference(params, 3)
    first = cells.run_live(params, 3, 1, reference)
    killed_at = first.info["killed_at"]
    second = cells.run_live(params, 3, 1, reference, killed_at)
    assert len(first.save_samples) == 1 and len(second.save_samples) == 2
    assert not second.problems and all(s > 0 for s in second.save_samples)
    real = cells._prefix_run
    monkeypatch.setattr(cells, "_prefix_run", lambda *args: (real(*args)[0], [[], []]))
    third = cells.run_live(params, 3, 1, reference, killed_at)
    assert third.problems and "diverged" in third.problems[0]


def test_host_speed_scales_times_and_rates_to_the_reference_host():
    speed = hostspeed.HostSpeed()
    speed.sample()
    speed.sample()
    assert len(speed.samples) == 2 and all(t > 0 for t in speed.samples) and gc.isenabled()
    assert speed.factor() == pytest.approx(hostspeed.REFERENCE_S * 2 / sum(speed.samples))
    raw = {"setup_s": 1.0, "save_s": 2.0, "recover_s": 3.0, "wall_s": 6.0,
           "events_per_s": 100.0, "peak_rss_mb": 50.0}
    assert run.to_reference_host(raw, 0.5) == {
        "setup_s": 0.5, "save_s": 1.0, "recover_s": 1.5, "wall_s": 3.0,
        "events_per_s": 200.0, "peak_rss_mb": 50.0,
    }
