"""Tests of the benchmark itself.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import run  # noqa: E402
from perfbench.tracing import LayerTracer  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    ClusterWorkload,
    PassResult,
    SimWorkload,
    build_stream_system,
    cluster_stream,
)
from repro.sim.network import Network  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _benchmark_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_metric_names_and_units_are_well_formed() -> None:
    spec = _benchmark_json()
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    assert len(declared) == len(spec["end_to_end"]) + len(spec["per_layer"])
    for name, unit in declared.items():
        assert NAME.fullmatch(name) and len(name) <= 64, name
        assert UNIT.fullmatch(unit), unit
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)


@pytest.mark.parametrize("name", ["sim-ring", "sim-ddb-hot"])
def test_sim_counts_repeat_exactly_for_a_fixed_seed(name: str) -> None:
    first = SimWorkload(name, seed=5).run_pass()
    second = SimWorkload(name, seed=5).run_pass()
    assert first.counts == second.counts
    assert first.declarations > 0
    assert first.soundness_violations == second.soundness_violations


def test_unsound_and_undetected_count_as_failures(capsys: pytest.CaptureFixture[str]) -> None:
    bench = run.Run(SimWorkload("sim-ring", seed=5), seconds=0.0)
    bench.attempted_passes = 2
    bench.results = [PassResult(declarations=10, soundness_violations=2, undetected=1)]
    result = run.report(bench, {"setup_s": (1.0, 1)}, {"setup_s": "s"})
    assert result["correct"] is False
    assert result["attempted"] == 2 + 10 + 1
    assert result["failed"] == 2 + 1
    assert "failed_frac 0.230769 ratio (n=13)" in capsys.readouterr().out


def test_traced_pass_repeats_the_untraced_counts() -> None:
    workload = SimWorkload("sim-ring", seed=5)
    plain = workload.run_pass()
    tracer = LayerTracer()
    with tracer.installed():
        traced = workload.run_pass(tracer=tracer)
    assert traced.counts == plain.counts
    assert tracer.counts["sim.network.send"] == plain.messages
    assert max(tracer.edge_probes["basic"].values()) == 1
    # Every wrapper is gone once the tracer is uninstalled.
    assert Network.send.__qualname__ == "Network.send"


def test_cluster_stream_closes_when_its_schedule_says() -> None:
    stream = cluster_stream(7, 20)
    system = build_stream_system(stream, seed=7)
    system.run_to_quiescence()
    formed: dict[int, float] = {}
    for process, at in system.deadlock_formed_at.items():
        k = (process.transaction - 1) // 2
        formed[k] = min(at, formed.get(k, at))
    assert formed == pytest.approx({d.index: d.closes_at for d in stream})
    assert {(d.process.transaction - 1) // 2 for d in system.declarations} == set(formed)
    assert not system.soundness_violations


def _slow_send(factor: float, calls: list[int]):
    """``Network.send`` stretched to ``factor`` times its own duration."""
    original = Network.send

    def slowed(*args, **kwargs):
        calls[0] += 1
        started = time.perf_counter()
        original(*args, **kwargs)
        target = started + (time.perf_counter() - started) * factor
        while time.perf_counter() < target:
            pass

    return original, slowed


def test_network_send_slowdown_shows_on_sim_ring_only() -> None:
    calls = [0]
    original, slowed = _slow_send(1.25, calls)
    workload = SimWorkload("sim-ring", seed=5)
    workload.run_pass()
    plain_ms: list[float] = []
    slow_ms: list[float] = []
    plain_send: list[float] = []
    slow_send: list[float] = []
    try:
        for _ in range(5):
            for target, host, send in ((None, plain_ms, plain_send), (slowed, slow_ms, slow_send)):
                if target is not None:
                    Network.send = target
                result = workload.run_pass()
                host.append(result.cpu_s * 1000.0 / result.declarations)
                tracer = LayerTracer()
                with tracer.installed():
                    traced = workload.run_pass(tracer=tracer)
                send.append(sum(
                    tracer.self_times(a, b).get("sim.network.send", 0.0)
                    for a, b in traced.run_phases
                ))
                Network.send = original
        cluster_calls = calls[0]
        Network.send = slowed
        cluster = ClusterWorkload("cluster-pair", seed=5).run_pass(warm_up=True)
    finally:
        Network.send = original
    assert statistics.median(slow_send) > 1.1 * statistics.median(plain_send)
    assert statistics.median(slow_ms) > statistics.median(plain_ms)
    # cluster-pair never enters the sim network, so the slowdown cannot reach it.
    assert calls[0] == cluster_calls
    assert cluster.declarations > 0 and cluster.undetected == 0


def test_command_prints_the_result_contract(tmp_path: Path) -> None:
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sim-ddb-hot", "--seed", "3",
         "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=False,
    )
    assert completed.returncode == 0, completed.stderr
    lines = completed.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == set(run.END_TO_END)
    for name, unit in run.END_TO_END.items():
        assert any(line.startswith(f"{name} ") and f" {unit} (n=" in line for line in lines)


def test_command_fails_without_the_program_sources(tmp_path: Path) -> None:
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sim-ring", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180, check=False,
    )
    assert completed.returncode != 0
    assert completed.stdout.strip() == ""
