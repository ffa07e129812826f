"""Run one benchmark workload, check its outputs and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload sim-ring --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run.  Every metric is printed on its own line with
its unit and sample count; the last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 0 only when every check passed.
``--workload all`` runs each workload in a fresh process.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from collections.abc import Callable, Sequence
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("sim-ring", "sim-ring-monitored", "sim-ddb-hot", "cluster-pair")
#: traced runs write Chrome trace files here; the cluster its sockets and logs.
OUT_DIR = Path("perfbench") / "out"

#: end-to-end metrics and their units.
END_TO_END = {
    "setup_s": "s",
    "host_ms_per_detection": "ms",
    "detect_units_p50": "units",
    "detect_units_p90": "units",
    "detect_wall_ms_p50": "ms",
    "detect_wall_ms_p90": "ms",
    "msgs_per_detection": "messages",
    "peak_rss_mb": "MiB",
}
#: per-layer metrics and their units, in report order.
PER_LAYER = {
    "sim.events": "count",
    "sim.events_per_s": "1/s",
    "sim.loop_self_s": "s",
    "sim.network.sends": "count",
    "sim.network.send_self_s": "s",
    "trace.records": "count",
    "trace.events_built": "count",
    "trace.record_self_s": "s",
    "oracle.calls": "count",
    "oracle.self_s": "s",
    "oracle.scc_calls": "count",
    "oracle.scc_s": "s",
    "basic.probes": "count",
    "basic.handler_self_s": "s",
    "basic.probes_per_edge_max": "ratio",
    "basic.declaring_ratio": "ratio",
    "ddb.handler_self_s": "s",
    "ddb.probes": "count",
    "ddb.declaring_ratio": "ratio",
    "ddb.commits": "count",
    "ddb.aborts": "count",
    "ddb.commit_ratio": "ratio",
    "ddb.probes_per_edge_max": "ratio",
    "sched.initiations": "count",
    "obs.span_events": "count",
    "obs.span_self_s": "s",
    "obs.telemetry_self_s": "s",
    "obs.open_spans_peak": "count",
    "obs.bound_violations": "count",
    "cluster.spawn_s": "s",
    "cluster.frames": "count",
    "cluster.codec_s": "s",
    "cluster.bytes_per_msg": "bytes",
    "cluster.hop_overhead_ms": "ms",
    "cluster.coordinator_cpu_ms_per_detection": "ms",
    "cluster.worker_cpu_ms_per_detection": "ms",
    "cluster.generator_lag_ms": "ms",
    "cluster.worker_failures": "count",
    "workloads.provision_s": "s",
    "trace.overhead_ratio": "ratio",
    "trace.self_sum_ratio": "ratio",
}
#: layer self-time metrics and the span names each one adds up.
SELF_TIME_SPANS = {
    "sim.loop_self_s": ("sim.run", "sim.timer", "other.timer"),
    "sim.network.send_self_s": ("sim.network.send",),
    "trace.record_self_s": ("trace.record", "trace.subscriber"),
    "oracle.self_s": ("oracle.feed",),
    "oracle.scc_s": ("oracle.scc",),
    "basic.handler_self_s": ("basic.on_message", "basic.timer"),
    "ddb.handler_self_s": ("ddb.on_message", "ddb.timer"),
    "obs.span_self_s": ("obs.span",),
    "obs.telemetry_self_s": ("obs.telemetry", "obs.timer"),
    "cluster.codec_s": ("cluster.codec",),
}
#: layer counts read from the tracer, by metric.
TRACER_COUNTS = {
    "sim.network.sends": "sim.network.send",
    "trace.records": "trace.record",
    "trace.events_built": "trace.events_built",
    "oracle.calls": "oracle.feed",
    "oracle.scc_calls": "oracle.scc",
    "obs.span_events": "obs.span",
    "cluster.frames": "cluster.frames",
}
#: layer counts read from the systems, by metric.
SYSTEM_COUNTS = {
    "sim.events": "events",
    "basic.probes": "basic.probes",
    "ddb.probes": "ddb.probes",
    "ddb.commits": "ddb.commits",
    "ddb.aborts": "ddb.aborts",
    "obs.open_spans_peak": "obs.open_spans_peak",
    "obs.bound_violations": "obs.bound_violations",
}
#: a run gives up after this many raising passes.
MAX_RAISING_PASSES = 3
#: fresh processes that time the program's import for ``setup_s``.
COLD_STARTS = 3

Metrics = dict[str, tuple[float, int]]


def mean(values: Sequence[float]) -> float:
    return sum(values) / len(values)


class Run:
    """One workload run: its passes, checks and failures."""

    def __init__(self, workload: Any, seconds: float) -> None:
        self.workload = workload
        self.seconds = seconds
        self.attempted_passes = 0
        self.raised = 0
        self.problems: list[str] = []
        self.results: list[Any] = []
        #: counts of the first pass of each seed group.
        self._reference_counts: dict[int, dict[str, float]] = {}

    def fail(self, problem: str) -> None:
        self.problems.append(problem)
        print(f"CHECK FAILED: {problem}", file=sys.stderr)

    def one_pass(self, **kwargs: Any) -> Any:
        """Run and check one pass; ``None`` when it raised."""
        self.attempted_passes += 1
        gc.collect()
        try:
            result = self.workload.run_pass(**kwargs)
        except Exception as error:  # noqa: BLE001 - a raising pass is a counted failure
            self.raised += 1
            self.fail(f"pass raised {type(error).__name__}: {error}")
            return None
        if result.declarations == 0 and not kwargs.get("warm_up"):
            self.fail("a pass declared no deadlock")
        if result.inputs is not None:
            counts = {k: v for k, v in result.counts.items()
                      if not k.startswith("obs.") and k != "detections"}
            reference = self._reference_counts.setdefault(result.inputs, counts)
            if counts != reference:
                self.fail(f"sim counts differ between passes of one seed group: "
                          f"{counts} != {reference}")
        self.results.append(result)
        return result

    def timed_passes(self, make_pass: Callable[[], Any], cost: Callable[[Any], float]) -> list:
        """Passes until their ``cost`` adds up to ``seconds``, and at least
        one pass per seed group."""
        done: list[Any] = []
        measured = 0.0
        while (
            measured < self.seconds or len(done) < self.workload.groups
        ) and self.raised < MAX_RAISING_PASSES:
            started = time.perf_counter()
            outcome = make_pass()
            if outcome is None:
                measured += time.perf_counter() - started
                continue
            done.append(outcome)
            measured += cost(outcome)
        return done


def _ms_per_detection(results: Sequence[Any], cpu: Callable[[Any], float]) -> list[float]:
    """Host-speed-scaled CPU milliseconds per declaration, one per pass."""
    return [cpu(r) * r.host_factor * 1000.0 / r.declarations for r in results if r.declarations]


def per_group(
    results: Sequence[Any], numerator: Callable[[Any], float], denominator: Callable[[Any], float]
) -> float:
    """``numerator / denominator`` over the run's whole seed list.

    Passes of one seed group give the group's ratio as their median; the
    groups combine weighted by their denominators, so every seed counts
    once however many passes its group ran.
    """
    groups: dict[Any, list[Any]] = {}
    for result in results:
        groups.setdefault(result.inputs, []).append(result)
    total = weight = 0.0
    for passes in groups.values():
        size = statistics.median(denominator(r) for r in passes)
        total += statistics.median(numerator(r) / denominator(r) for r in passes) * size
        weight += size
    return total / weight


def cold_starts(workload: str) -> list[float]:
    """Scaled seconds of :data:`COLD_STARTS` fresh-process program imports."""
    samples = []
    for _ in range(COLD_STARTS):
        completed = subprocess.run(
            [sys.executable, str(Path("perfbench") / "coldstart.py"), workload],
            capture_output=True, text=True, check=True, timeout=60,
        )
        samples.append(float(completed.stdout.strip().splitlines()[-1]))
    return samples


def end_to_end(run: Run, cold_start_s: float) -> Metrics:
    """Untimed warm-up, timed passes, then the end-to-end metrics."""
    from perfbench.reference import run_factor
    from perfbench.workloads import percentile
    workload = run.workload
    run.one_pass(warm_up=True)
    results = run.timed_passes(run.one_pass, cost=lambda r: r.run_s)
    if not results:
        return {}
    cluster = workload.name == "cluster-pair"
    if cluster:
        latencies = [x for r in results for x in r.detect_units]
    else:
        latencies = results[0].detect_units
        if not workload.monitored:
            # Virtual time does not depend on observers: an observed pass
            # of each seed group supplies the latencies.
            observed = [run.one_pass(observed=True, group=g)
                        for g in range(workload.latency_groups)]
            latencies = [x for r in observed if r is not None for x in r.detect_units]
    # One kernel run samples the host's speed at one instant, and a pass
    # has only a few: the mean over every kernel run of the run tracks the
    # host better than each pass's own scale.
    factor = run_factor([k for r in run.results for k in r.kernels])
    for result in run.results:
        result.host_factor = factor
    if cluster:
        walls = [x for r in results for x in r.detect_wall_ms]
        wall_p50, wall_p90 = percentile(walls, 0.5), percentile(walls, 0.9)
        wall_samples = len(walls)
    else:
        # The sim's wall-clock reading of a virtual latency: the host time
        # the simulator needs to cover that much virtual time.
        ms_per_unit = per_group(
            results, lambda r: r.cpu_s * r.host_factor * 1000.0, lambda r: r.virtual_units)
        wall_p50 = percentile(latencies, 0.5) * ms_per_unit
        wall_p90 = percentile(latencies, 0.9) * ms_per_unit
        wall_samples = len(latencies)
    declarations = sum(r.declarations for r in results)
    setup = statistics.median(r.setup_s * r.host_factor for r in results)
    host = per_group(
        results, lambda r: r.cpu_s * r.host_factor * 1000.0, lambda r: r.declarations)
    return {
        "setup_s": (cold_start_s + setup, len(results)),
        "host_ms_per_detection": (host, len(results)),
        "detect_units_p50": (percentile(latencies, 0.5), len(latencies)),
        "detect_units_p90": (percentile(latencies, 0.9), len(latencies)),
        "detect_wall_ms_p50": (wall_p50, wall_samples),
        "detect_wall_ms_p90": (wall_p90, wall_samples),
        "msgs_per_detection": (
            per_group(results, lambda r: r.messages, lambda r: r.declarations), declarations),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1),
    }


def per_layer(run: Run) -> Metrics:
    """The traced run: an untraced and a traced pass of the same seeds alternate."""
    from perfbench.tracing import LayerTracer, write_chrome_trace

    workload = run.workload
    run.one_pass(warm_up=True)
    tracer = LayerTracer()
    pairs: list[tuple[Any, Any, dict[str, float], dict[str, float]]] = []

    def pair() -> Any:
        plain = run.one_pass()
        if plain is None:
            return None
        tracer.clear()
        with tracer.installed():
            traced = run.one_pass(tracer=tracer, group=plain.inputs)
        if traced is None:
            return None
        if not pairs:
            for problem in write_chrome_trace(tracer, OUT_DIR / f"trace-{workload.name}.json"):
                run.fail(f"chrome trace: {problem}")
        spans: dict[str, float] = {}
        for start, end in traced.run_phases or [(0, None)]:
            for name, value in tracer.self_times(start, end).items():
                spans[name] = spans.get(name, 0.0) + value * traced.host_factor
        counts = dict(tracer.counts)
        counts["sched.initiations"] = sum(
            n for category, n in tracer.categories.items()
            if category.endswith(".computation.initiated"))
        for model, edges in tracer.edge_probes.items():
            counts[f"{model}.probes_per_edge_max"] = max(edges.values(), default=0)
        pairs.append((plain, traced, spans, counts))
        return plain, traced

    run.timed_passes(pair, cost=lambda both: both[0].run_s + both[1].run_s)
    if not pairs:
        return {}
    return layer_metrics(run, pairs)


def layer_metrics(run: Run, pairs: list) -> Metrics:
    """Per-layer metrics from ``(untraced, traced, self times, counts)`` pairs."""
    n = len(pairs)
    untraced = [plain for plain, _, _, _ in pairs]
    traced = [result for _, result, _, _ in pairs]
    first, first_counts = traced[0], pairs[0][3]
    metrics: Metrics = {name: (0.0, n) for name in PER_LAYER}
    for metric, names in SELF_TIME_SPANS.items():
        metrics[metric] = (mean([sum(s.get(x, 0.0) for x in names) for *_, s, _ in pairs]), n)
    # Counts come from the first traced pass, which always runs the first
    # seed group, so they repeat exactly from run to run on the sim models.
    for metric, key in TRACER_COUNTS.items():
        metrics[metric] = (first_counts.get(key, 0), 1)
    system_counts = first.counts or first.layer
    for metric, key in SYSTEM_COUNTS.items():
        metrics[metric] = (system_counts.get(key, 0), 1)

    # Section 4 of the paper: one probe per edge per computation.
    for model in ("basic", "ddb"):
        most = max(c.get(f"{model}.probes_per_edge_max", 0) for *_, c in pairs)
        metrics[f"{model}.probes_per_edge_max"] = (most, n)
        if most > 1:
            run.fail(f"section 4 bound broken: {most} {model} probes on one edge "
                     "in one computation")
    if metrics["obs.bound_violations"][0]:
        run.fail("the span engine recorded section 4 bound violations")
    initiated = first_counts["sched.initiations"]
    metrics["sched.initiations"] = (initiated, 1)
    model = run.workload.model
    if initiated:
        metrics[f"{model}.declaring_ratio"] = (
            system_counts.get(f"{model}.declaring_tags", 0) / initiated, 1)
    commits, aborts = metrics["ddb.commits"][0], metrics["ddb.aborts"][0]
    if commits + aborts:
        metrics["ddb.commit_ratio"] = (commits / (commits + aborts), 1)

    if run.workload.name == "cluster-pair":
        frame_bytes = mean([c.get("cluster.frame_bytes", 0) for *_, c in pairs])
        metrics["cluster.bytes_per_msg"] = (frame_bytes / mean([r.messages for r in traced]), n)
        everyone = untraced + traced
        metrics["cluster.spawn_s"] = (
            statistics.median(r.layer["cluster.spawn_s"] * r.host_factor for r in everyone),
            len(everyone))
        for name in ("cluster.hop_overhead_ms", "cluster.generator_lag_ms"):
            metrics[name] = (statistics.median(r.layer[name] for r in everyone), len(everyone))
        metrics["cluster.worker_failures"] = (
            sum(r.layer["cluster.worker_failures"] for r in everyone), len(everyone))
        metrics["cluster.coordinator_cpu_ms_per_detection"] = (
            statistics.median(_ms_per_detection(untraced, lambda r: r.cpu_s)), n)
        metrics["cluster.worker_cpu_ms_per_detection"] = (
            statistics.median(
                _ms_per_detection(untraced, lambda r: r.layer["cluster.worker_cpu_s"])), n)
    else:
        metrics["sim.events_per_s"] = (
            statistics.median(r.events / (r.run_s * r.host_factor) for r in untraced), n)
        run_phase = mean([r.run_s * r.host_factor for r in traced])
        share = sum(metrics[m][0] for m in SELF_TIME_SPANS) / run_phase
        metrics["trace.self_sum_ratio"] = (share, n)
        if abs(share - 1.0) > 0.1:
            run.fail(f"layer self times add up to {share:.3f} of the run phase")
    metrics["workloads.provision_s"] = (
        statistics.median(r.provision_s * r.host_factor for r in untraced), n)
    metrics["trace.overhead_ratio"] = (
        statistics.median(r.cpu_s * r.host_factor for r in traced)
        / statistics.median(r.cpu_s * r.host_factor for r in untraced), n)
    return metrics


def report(run: Run, metrics: Metrics, units: dict[str, str]) -> dict[str, Any]:
    """Print one line per metric and return the result object."""
    violations = sum(r.soundness_violations for r in run.results)
    undetected = sum(r.undetected for r in run.results)
    attempted = run.attempted_passes + sum(r.declarations for r in run.results) + undetected
    # Raising passes and failed checks count one failure each.
    failed = len(run.problems) + violations + undetected
    if violations:
        run.fail(f"{violations} unsound declarations")
    if undetected:
        run.fail(f"{undetected} deadlocks left undetected at quiescence")
    missing = [name for name in units if name not in metrics]
    if missing:
        run.fail(f"metrics not measured: {missing}")
        failed += 1
    factors = [r.host_factor for r in run.results]
    print(f"host_factor {statistics.median(factors) if factors else 0:.6g} ratio "
          f"(n={len(factors)}; host times are scaled by it to the reference host)")
    print(f"failed_frac {failed / max(attempted, 1):.6g} ratio (n={attempted})")
    for name, unit in units.items():
        if name in metrics:
            value, samples = metrics[name]
            print(f"{name} {value:.6g} {unit} (n={samples})")
    return {
        "correct": not run.problems,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {name: {"value": metrics[name][0], "unit": unit}
                    for name, unit in units.items() if name in metrics},
    }


def run_all(args: argparse.Namespace) -> int:
    """Each workload in a fresh process; one combined result line."""
    combined: dict[str, Any] = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        print(f"== {name}", flush=True)
        completed = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False, timeout=900,
        )
        lines = completed.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        try:
            result = json.loads(lines[-1]) if lines else {}
        except json.JSONDecodeError:
            result = {}
        combined["correct"] &= completed.returncode == 0 and result.get("correct") is True
        combined["attempted"] += result.get("attempted", 1)
        combined["failed"] += result.get("failed", 1)
        for metric, value in result.get("metrics", {}).items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    os.chdir(ROOT)
    (OUT_DIR / "tmp").mkdir(parents=True, exist_ok=True)
    # Cluster sockets and worker logs stay inside the checkout, on a short
    # relative path (Unix socket paths are limited to about 100 bytes).
    tempfile.tempdir = str(OUT_DIR / "tmp")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    from perfbench.workloads import make_workload

    workload = make_workload(args.workload, args.seed)
    run = Run(workload, args.seconds)
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(), "python": platform.python_version(),
        "implementation": platform.python_implementation(), "seeds": workload.seeds,
    }))
    if args.trace:
        metrics, units = per_layer(run), PER_LAYER
    else:
        cold_start_s = statistics.median(cold_starts(args.workload))
        metrics, units = end_to_end(run, cold_start_s), END_TO_END
    result = report(run, metrics, units)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
