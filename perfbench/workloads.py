"""The benchmark's workloads: inputs made from a seed, one pass, checks.

Every workload is a sequence of identical *passes*.  A sim pass builds
one system per seed of the workload's seed list, runs each to
quiescence and checks it; a cluster pass is one bring-up of a
two-worker :class:`~repro.cluster.transport.ClusterTransport` carrying
an open-loop stream of deadlocks.  :class:`PassResult` carries what the
runner turns into metrics.

* ``sim-ring``: a 128-vertex cycle on the basic model, immediate
  initiation, seeded exponential per-message delays, tracing off.
* ``sim-ring-monitored``: the same systems with the ``repro monitor``
  observers attached through ``telemetry_for_variant``.
* ``sim-ddb-hot``: the ``ddb-hot`` family on 8 sites at load 3,
  detection-only (``resolve=0``: no victim aborts, so no restarts), on
  the same delay model.  The victim-restart path declares deadlocks the
  model's own oracle calls unsound on about one seed in a hundred, so it is
  left out until that is fixed in the program.
* ``cluster-pair``: staggered, disjoint two-site exclusive-lock deadlocks
  (the ``ddb-cross`` shape) on two worker processes over Unix sockets.
"""

from __future__ import annotations

import random
import resource
import time
from dataclasses import dataclass, field
from typing import Any

from perfbench.reference import HostSpeed
from repro._ids import ResourceId, SiteId, TransactionId
from repro.cluster.transport import ClusterTransport
from repro.core.registry import get_variant
from repro.ddb.locks import LockMode
from repro.ddb.system import DdbSystem
from repro.ddb.transaction import Think, TransactionSpec, acquire
from repro.obs.metrics import telemetry_for_variant
from repro.sim.network import ExponentialDelay, FixedDelay, Network
from repro.sim.simulator import Simulator
from repro.sim.transport import SimTransport
from repro.workloads.provision import provision_workload
from repro.workloads.spec import WorkloadSpec, ensure_builtin_families, make_params

RING_VERTICES = 128
#: mean of the seeded exponential per-message delay of both sim models.
DELAY_MEAN = 1.0
RING_SEEDS = RING_SEEDS_PER_PASS = 2
DDB_SITES = 8
DDB_LOAD = 3.0
DDB_DURATION = 200.0
#: a run's DDB seeds; passes take them DDB_SEEDS_PER_PASS at a time.
DDB_SEEDS = 192
DDB_SEEDS_PER_PASS = 48
#: seeds whose detection latencies a DDB run observes: the run's seeds
#: and half as many again.  A quarter of the latencies are 0, so p50 lies
#: on a steep part of the distribution and needs many seeds to be steady.
DDB_LATENCY_SEEDS = 288
#: deadlocks per cluster bring-up, one every CLUSTER_GAP units.
CLUSTER_DEADLOCKS = 25
CLUSTER_WARMUP_DEADLOCKS = 10
#: stream seeds of one run; bring-ups cycle through them.
CLUSTER_SEEDS = 4
CLUSTER_GAP = 5.0
#: wall seconds per virtual unit on the cluster: eight times the ``repro
#: cluster`` default, so injected delays, not host load, dominate latency.
CLUSTER_TIME_SCALE = 0.040
#: injected delay per hop on the cluster, in virtual units.
CLUSTER_HOP_DELAY = 1.0
MAX_EVENTS = 20_000_000


def percentile(values: list[float], q: float) -> float:
    """The ``q``-quantile (0..1) by linear interpolation between ranks."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def derive_seeds(seed: int, count: int) -> list[int]:
    """The workload seed list: the same ``seed`` always gives the same list."""
    rng = random.Random(seed)
    return [rng.randrange(1, 2**31) for _ in range(count)]


@dataclass
class PassResult:
    """What one pass measured and checked."""

    #: wall seconds to build the systems and schedule the inputs (cluster:
    #: plus spawning and connecting the workers).
    setup_s: float = 0.0
    #: the part of ``setup_s`` spent in ``provision_workload`` / stream build.
    provision_s: float = 0.0
    #: wall and process-CPU seconds of the run phase.
    run_s: float = 0.0
    cpu_s: float = 0.0
    declarations: int = 0
    messages: int = 0
    events: int = 0
    #: virtual time simulated, summed over the pass's systems.
    virtual_units: float = 0.0
    soundness_violations: int = 0
    undetected: int = 0
    detect_units: list[float] = field(default_factory=list)
    detect_wall_ms: list[float] = field(default_factory=list)
    #: deterministic per-pass counts (sim), compared across repeated passes.
    counts: dict[str, float] = field(default_factory=dict)
    #: per-pass layer numbers that are not deterministic (cluster).
    layer: dict[str, float] = field(default_factory=dict)
    #: (start, end) span indexes of each run phase, when traced.
    run_phases: list[tuple[int, int]] = field(default_factory=list)
    #: host-speed scale for this pass's host times (see ``reference``).
    host_factor: float = 1.0
    #: the kernel times the scale came from.
    kernels: list[float] = field(default_factory=list)
    #: which group of the seed list the pass ran; passes of one group
    #: must repeat its counts exactly (None: nothing to compare).
    inputs: int | None = None


class Workload:
    """Inputs in ``groups`` groups of seeds; passes cycle through them."""

    groups = 1
    _passes = 0

    def _next_group(self, group: int | None) -> int:
        """``group`` if given, else the next group in rotation."""
        if group is not None:
            return group
        group = self._passes % self.groups
        self._passes += 1
        return group


class SimWorkload(Workload):
    """A closed sim workload: fixed inputs per seed, run to quiescence."""

    def __init__(self, name: str, seed: int) -> None:
        self.name = name
        self.monitored = name == "sim-ring-monitored"
        self.model = "ddb" if name == "sim-ddb-hot" else "basic"
        count, observed, self.per_pass = (
            (DDB_SEEDS, DDB_LATENCY_SEEDS, DDB_SEEDS_PER_PASS)
            if self.model == "ddb"
            else (RING_SEEDS, RING_SEEDS, RING_SEEDS_PER_PASS)
        )
        self.seeds = derive_seeds(seed, observed)
        #: timed passes cycle through the first ``count`` seeds in this many groups.
        self.groups = count // self.per_pass
        #: groups of the whole seed list, each observed once for the latencies.
        self.latency_groups = observed // self.per_pass
        self.variant = get_variant(self.model)

    def _spec(self, seed: int) -> WorkloadSpec:
        if self.model == "ddb":
            return WorkloadSpec(
                family="ddb-hot",
                n=DDB_SITES,
                seed=seed,
                duration=DDB_DURATION,
                params=make_params(load=DDB_LOAD, resolve=0.0),
            )
        return WorkloadSpec(family="cycle", n=RING_VERTICES, seed=seed)

    def _transport(self, seed: int) -> SimTransport:
        simulator = Simulator(seed=seed, trace=False)
        network = Network(simulator, delay_model=ExponentialDelay(DELAY_MEAN))
        return SimTransport(simulator, network)

    def run_pass(
        self,
        *,
        warm_up: bool = False,
        observed: bool = False,
        group: int | None = None,
        tracer: Any = None,
    ) -> PassResult:
        """Run one group of ``per_pass`` seeds: ``group``, or the next one.

        ``observed`` attaches telemetry for the latencies.  A warm-up runs
        the first seed only and reports no counts.
        """
        result = PassResult()
        observe = observed or self.monitored
        totals: dict[str, float] = {}
        if warm_up:
            seeds = self.seeds[:1]
        else:
            result.inputs = self._next_group(group)
            seeds = self.seeds[result.inputs * self.per_pass:][:self.per_pass]
        speed = HostSpeed()
        for seed in seeds:
            started = time.perf_counter()
            run = provision_workload(self.variant, self._spec(seed), transport=self._transport(seed))
            provisioned = time.perf_counter()
            telemetry = None
            if observe:
                telemetry = telemetry_for_variant(
                    run.system.transport,
                    self.variant.capabilities,
                    n_vertices=run.spec.n if self.model == "basic" else None,
                )
            span_start = len(tracer.spans) if tracer is not None else 0
            wall0 = time.perf_counter()
            cpu0 = time.process_time()
            run.run_to_quiescence(max_events=MAX_EVENTS)
            cpu1 = time.process_time()
            wall1 = time.perf_counter()
            if tracer is not None:
                result.run_phases.append((span_start, len(tracer.spans)))
            result.setup_s += wall0 - started
            result.provision_s += provisioned - started
            result.run_s += wall1 - wall0
            result.cpu_s += cpu1 - cpu0
            speed.add(cpu1 - cpu0)
            if telemetry is not None:
                telemetry.finish()
                result.detect_units.extend(telemetry.detection_latencies)
            outcome = run.summarize()
            system = run.system
            simulator = system.simulator
            result.declarations += outcome.declarations
            result.soundness_violations += outcome.soundness_violations
            result.undetected += outcome.undetected_components
            result.messages += int(system.metrics.counter("net.messages.sent").value)
            result.events += simulator.events_executed
            result.virtual_units += simulator.now
            for key, value in self._counts(run, telemetry).items():
                combine = max if key.endswith("_peak") else sum
                totals[key] = combine((totals.get(key, 0), value))
        result.counts = {} if warm_up else totals
        result.host_factor = speed.factor()
        result.kernels = speed.kernels
        return result

    def _counts(self, run: Any, telemetry: Any) -> dict[str, float]:
        """Deterministic per-system counts, for the repeat check and layers."""
        system = run.system
        metrics = system.metrics
        probe_type = "DdbProbe" if self.model == "ddb" else "Probe"
        counts: dict[str, float] = {
            "declarations": len(system.declarations),
            "messages": metrics.counter("net.messages.sent").value,
            "events": system.simulator.events_executed,
            "virtual_end": system.simulator.now,
            f"{self.model}.probes": metrics.counter(f"net.messages.sent.{probe_type}").value,
            f"{self.model}.declaring_tags": len({d.tag for d in system.declarations}),
            f"{self.model}.computations": len(system.probes_per_computation),
        }
        if self.model == "ddb":
            extra = run.extra()
            counts["ddb.commits"] = extra["commits"]
            counts["ddb.aborts"] = extra["aborts"]
        if telemetry is not None:
            engines = telemetry.engines.values()
            counts["obs.open_spans_peak"] = max((e.peak_open for e in engines), default=0)
            counts["obs.bound_violations"] = telemetry.bound_violations
            counts["detections"] = len(telemetry.detection_latencies)
        return counts


@dataclass(frozen=True)
class Deadlock:
    """One two-site deadlock of the cluster stream."""

    index: int
    #: virtual time of the first transaction's begin.
    at: float
    #: site whose transaction begins first.
    first_site: int
    #: virtual units between the two begins.
    offset: float
    think: float

    def begins(self) -> list[tuple[int, float]]:
        """``(home site, begin time)`` of its two transactions."""
        return [(self.first_site, self.at), (1 - self.first_site, self.at + self.offset)]

    @property
    def closes_at(self) -> float:
        """When the schedule closes the cycle: the later transaction's
        remote request arrives after its think time and one hop."""
        return self.at + self.offset + self.think + CLUSTER_HOP_DELAY


def cluster_stream(seed: int, count: int) -> list[Deadlock]:
    """Staggered, disjoint deadlocks, one every ``CLUSTER_GAP`` units."""
    rng = random.Random(seed)
    return [
        Deadlock(
            index=k,
            at=CLUSTER_GAP * (k + 1),
            first_site=rng.randrange(2),
            offset=round(rng.uniform(0.1, 0.9), 3),
            think=round(rng.uniform(0.5, 1.5), 3),
        )
        for k in range(count)
    ]


def build_stream_system(stream: list[Deadlock], seed: int, transport: Any = None) -> DdbSystem:
    """A two-site DDB with each deadlock of ``stream`` scheduled.

    Deadlock ``k`` is transactions ``2k+1`` and ``2k+2``: each holds a
    lock at its home site and then asks for the other's, exclusively.
    """
    X = LockMode.EXCLUSIVE
    resources: dict[ResourceId, SiteId] = {}
    for deadlock in stream:
        for site in (0, 1):
            resources[ResourceId(f"r{deadlock.index}.{site}")] = SiteId(site)
    system = DdbSystem(
        n_sites=2,
        resources=resources,
        seed=seed,
        delay_model=FixedDelay(CLUSTER_HOP_DELAY),
        strict=False,
        trace=False,
        transport=transport,
    )
    for deadlock in stream:
        k = deadlock.index
        for site, at in deadlock.begins():
            own, other = f"r{k}.{site}", f"r{k}.{1 - site}"
            system.begin(
                TransactionSpec(
                    tid=TransactionId(2 * k + 1 + site),
                    home=SiteId(site),
                    operations=(acquire((own, X)), Think(deadlock.think), acquire((other, X))),
                ),
                at=at,
            )
    return system


def _first_declarations(system: DdbSystem) -> dict[int, float]:
    """Virtual time of the first declaration naming each deadlock."""
    first: dict[int, float] = {}
    for declaration in system.declarations:
        k = (declaration.process.transaction - 1) // 2
        first.setdefault(k, declaration.time)
    return first


class ClusterWorkload(Workload):
    """The open-loop deadlock stream on a two-worker cluster."""

    def __init__(self, name: str, seed: int) -> None:
        self.name = name
        self.model = "ddb"
        self.seeds = derive_seeds(seed, CLUSTER_SEEDS)
        #: each bring-up runs the stream of one seed, cycling.
        self.groups = CLUSTER_SEEDS
        self.variant = get_variant("ddb")

    def run_pass(
        self, *, warm_up: bool = False, group: int | None = None, tracer: Any = None
    ) -> PassResult:
        """One bring-up carrying the stream of seed ``group`` (or the next).

        Telemetry is always attached.  A warm-up carries a short stream.
        """
        result = PassResult()
        index = 0 if warm_up else self._next_group(group)
        result.inputs = None if warm_up else index
        seed = self.seeds[index]
        stream = cluster_stream(seed, CLUSTER_WARMUP_DEADLOCKS if warm_up else CLUSTER_DEADLOCKS)
        speed = HostSpeed()
        children0 = resource.getrusage(resource.RUSAGE_CHILDREN)
        started = time.perf_counter()
        transport = ClusterTransport(
            seed=seed,
            delay_model=FixedDelay(CLUSTER_HOP_DELAY),
            trace=False,
            time_scale=CLUSTER_TIME_SCALE,
            max_wall_seconds=120.0,
        )
        try:
            system = build_stream_system(stream, seed, transport)
            telemetry = telemetry_for_variant(transport, self.variant.capabilities)
            provisioned = time.perf_counter()
            run_call = transport.run if tracer is None else tracer.wrap("cluster.bring_up", transport.run)
            run_call(until=0.0)
            wall0 = time.perf_counter()
            cpu0 = time.process_time()
            system.run_to_quiescence(max_events=MAX_EVENTS)
            cpu1 = time.process_time()
            wall1 = time.perf_counter()
            telemetry.finish()
            failures = len(transport.worker_failures)
            _, undetected = system.completeness_report()
        finally:
            transport.close()
        children1 = resource.getrusage(resource.RUSAGE_CHILDREN)
        speed.add(cpu1 - cpu0)
        result.host_factor = speed.factor()
        result.kernels = speed.kernels
        result.setup_s = wall0 - started
        result.provision_s = provisioned - started
        result.run_s = wall1 - wall0
        result.cpu_s = cpu1 - cpu0
        result.declarations = len(system.declarations)
        result.soundness_violations = len(system.soundness_violations)
        result.messages = int(transport.metrics.counter("net.messages.sent").value)
        result.detect_units = list(telemetry.detection_latencies)
        declared = _first_declarations(system)
        result.undetected = len(undetected) + sum(1 for d in stream if d.index not in declared)
        # Wall latency from the instant the schedule closes each cycle, so
        # late deliveries and a lagging generator both count.
        result.detect_wall_ms = [
            (declared[d.index] - d.closes_at) * CLUSTER_TIME_SCALE * 1000.0
            for d in stream
            if d.index in declared
        ]
        lags = [
            (system.transactions[TransactionId(2 * d.index + 1 + site)].first_begin or 0.0) - at
            for d in stream
            for site, at in d.begins()
        ]
        # Send-to-delivery latency of every hop, as the telemetry bridge folds it.
        hops = telemetry.registry.histogram(
            "repro_handler_latency_units", labelnames=("handler",)
        ).series.values()
        mean_hop = sum(h.sum for h in hops) / max(sum(h.count for h in hops), 1)
        ms_per_unit = CLUSTER_TIME_SCALE * 1000.0
        engines = telemetry.engines.values()
        result.layer = {
            "ddb.probes": transport.metrics.counter("net.messages.sent.DdbProbe").value,
            "ddb.declaring_tags": len({d.tag for d in system.declarations}),
            "obs.open_spans_peak": max((e.peak_open for e in engines), default=0),
            "obs.bound_violations": telemetry.bound_violations,
            "cluster.spawn_s": wall0 - provisioned,
            "cluster.worker_failures": failures,
            "cluster.generator_lag_ms": percentile(lags, 0.9) * ms_per_unit,
            "cluster.hop_overhead_ms": (mean_hop - CLUSTER_HOP_DELAY) * ms_per_unit,
            "cluster.worker_cpu_s": (children1.ru_utime + children1.ru_stime)
            - (children0.ru_utime + children0.ru_stime),
        }
        return result


def make_workload(name: str, seed: int) -> SimWorkload | ClusterWorkload:
    """Build workload ``name``; loads the variant and family registries."""
    ensure_builtin_families()
    if name == "cluster-pair":
        return ClusterWorkload(name, seed)
    return SimWorkload(name, seed)
