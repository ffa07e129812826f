"""Layer spans for the traced benchmark run.

The traced run measures where host time goes without changing program
code: :class:`LayerTracer` replaces each layer's public entry points with
wrappers for the duration of one pass and restores them afterwards.  The
boundaries are

* ``Simulator.run`` (the event loop) and every action scheduled through
  ``Simulator.schedule`` / ``schedule_at`` except the network's own
  delivery closures (timer callbacks, named after the module that
  scheduled them);
* ``Network.send``;
* ``on_message`` of every protocol process class;
* ``Tracer.record`` and every callback passed to ``Tracer.subscribe``
  (the systems' oracle feeds, the streaming span engine, the telemetry
  bridge);
* ``dark_components`` as the system modules call it (the oracle's SCC
  search);
* the ``repro.cluster.frames`` codec.

Spans are kept in memory as ``[name, start, end, parent]`` rows.  The
self time of a layer is the time its spans cover minus the time their
child spans cover, so the self times of one run phase add up to the
duration of its root spans.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from pathlib import Path
from typing import Any

from repro.basic import system as basic_system
from repro.cluster import frames
from repro.cluster import transport as cluster_transport
from repro.ddb import system as ddb_system
from repro.obs.export import validate_chrome
from repro.sim.network import Network
from repro.sim.process import Process
from repro.sim.simulator import Simulator
from repro.sim.trace import Tracer

#: subscriber owners, by class name, and the layer their callbacks count to.
SUBSCRIBER_LAYERS = {
    "BasicSystem": "oracle.feed",
    "DdbSystem": "oracle.feed",
    "StreamingSpanEngine": "obs.span",
    "TransportTelemetry": "obs.telemetry",
}
#: message types that carry a probe computation tag.
PROBE_TYPES = {"Probe": "basic", "DdbProbe": "ddb"}
#: exported spans per Chrome trace file; the rest are counted, not written.
MAX_EXPORTED_SPANS = 20_000


def _timer_layer(action: Callable[[], None]) -> str | None:
    """Layer of one scheduled action, or None for network deliveries."""
    if getattr(action, "__qualname__", "").startswith("Network.send"):
        return None
    parts = (getattr(action, "__module__", None) or "").split(".")
    if len(parts) > 1 and parts[0] == "repro":
        return f"{parts[1]}.timer"
    return "other.timer"


def _process_classes() -> Iterator[type]:
    """Every imported process class that defines its own ``on_message``."""
    pending = list(Process.__subclasses__())
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if "on_message" in cls.__dict__:
            yield cls


class LayerTracer:
    """Records layer spans and boundary counts while installed."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self.counts: Counter[str] = Counter()
        #: ``Tracer.record`` calls per trace category.
        self.categories: Counter[str] = Counter()
        #: probes sent per (computation tag, wait-for edge), per model.
        self.edge_probes: dict[str, Counter[Any]] = defaultdict(Counter)
        self._stack: list[int] = []
        self._patches: list[tuple[Any, str, Any]] = []
        self._subscribers: dict[Any, Callable[..., None]] = {}

    # -- spans ----------------------------------------------------------

    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` inside a span called ``name``; calls are counted under ``name``."""
        spans = self.spans
        stack = self._stack
        counts = self.counts
        clock = time.perf_counter

        def traced(*args: Any, **kwargs: Any) -> Any:
            counts[name] += 1
            row = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(row)
            try:
                return fn(*args, **kwargs)
            finally:
                row[2] = clock()
                stack.pop()

        return traced

    def self_times(self, start: int = 0, end: int | None = None) -> dict[str, float]:
        """Self seconds per span name over ``spans[start:end]``.

        Parents recorded before ``start`` are ignored, so a slice taken
        around one run phase attributes its time to that phase only.
        """
        totals: dict[str, float] = defaultdict(float)
        spans = self.spans
        for name, began, ended, parent in spans[start:end]:
            duration = ended - began
            totals[name] += duration
            if parent >= start:
                totals[spans[parent][0]] -= duration
        return dict(totals)

    def clear(self) -> None:
        self.spans.clear()
        self.counts.clear()
        self.categories.clear()
        self.edge_probes.clear()

    # -- install / uninstall ---------------------------------------------

    def _patch(self, owner: Any, attr: str, replacement: Any) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    @contextmanager
    def installed(self) -> Iterator[LayerTracer]:
        """Wrap every boundary for the ``with`` body, then restore them."""
        self._install()
        try:
            yield self
        finally:
            while self._patches:
                owner, attr, original = self._patches.pop()
                setattr(owner, attr, original)
            self._subscribers.clear()

    def _install(self) -> None:
        wrap = self.wrap

        self._patch(Simulator, "run", wrap("sim.run", Simulator.run))
        for method in ("schedule", "schedule_at"):
            self._patch(Simulator, method, self._scheduling(getattr(Simulator, method)))
        self._patch(Network, "send", self._network_send(Network.send))
        for cls in _process_classes():
            package = cls.__module__.split(".")[1]
            self._patch(cls, "on_message", wrap(f"{package}.on_message", cls.on_message))
        self._patch(Tracer, "record", self._record(Tracer.record))
        self._patch(Tracer, "subscribe", self._subscribe(Tracer.subscribe))
        self._patch(Tracer, "unsubscribe", self._unsubscribe(Tracer.unsubscribe))

        for module in (basic_system, ddb_system):
            self._patch(module, "dark_components", wrap("oracle.scc", module.dark_components))

        for name in ("encode_value", "decode_value"):
            codec = wrap("cluster.codec", getattr(frames, name))
            self._patch(frames, name, codec)
            self._patch(cluster_transport, name, codec)
        for name, out in (("encode_frame", True), ("decode_frame", False)):
            self._patch(frames, name, self._frame_codec(getattr(frames, name), out=out))

    # -- boundary wrappers -----------------------------------------------

    def _scheduling(self, schedule: Callable[..., Any]) -> Callable[..., Any]:
        wrap = self.wrap
        layers: dict[Any, str | None] = {}

        def traced_schedule(sim: Simulator, when: float, action: Any, name: str = "") -> Any:
            code = getattr(action, "__code__", action)
            layer = layers.get(code, "")
            if layer == "":
                layer = layers[code] = _timer_layer(action)
            if layer is not None:
                action = wrap(layer, action)
            return schedule(sim, when, action, name)

        return traced_schedule

    def _network_send(self, send: Callable[..., None]) -> Callable[..., None]:
        timed = self.wrap("sim.network.send", send)
        edge_probes = self.edge_probes

        def traced_send(network: Network, sender: Any, destination: Any, message: Any) -> None:
            # Tags repeat across systems, so the network is part of the key
            # (held, so its id cannot be reused by a later system's network).
            model = PROBE_TYPES.get(type(message).__name__)
            if model == "basic":
                edge_probes[model][(network, message.tag, sender, destination)] += 1
            elif model == "ddb":
                edge_probes[model][(network, message.tag, message.edge)] += 1
            timed(network, sender, destination, message)

        return traced_send

    def _record(self, record: Callable[..., None]) -> Callable[..., None]:
        timed = self.wrap("trace.record", record)
        counts = self.counts
        categories = self.categories

        def traced_record(tracer: Tracer, when: float, category: str, **details: Any) -> None:
            categories[category] += 1
            if tracer.wants(category):
                counts["trace.events_built"] += 1
            timed(tracer, when, category, **details)

        return traced_record

    def _subscribe(self, subscribe: Callable[..., None]) -> Callable[..., None]:
        subscribers = self._subscribers
        wrap = self.wrap

        def traced_subscribe(tracer: Tracer, callback: Any, categories: Any = None) -> None:
            owner = type(getattr(callback, "__self__", None)).__name__
            timed = subscribers[callback] = wrap(
                SUBSCRIBER_LAYERS.get(owner, "trace.subscriber"), callback)
            subscribe(tracer, timed, categories)

        return traced_subscribe

    def _unsubscribe(self, unsubscribe: Callable[..., None]) -> Callable[..., None]:
        subscribers = self._subscribers

        def traced_unsubscribe(tracer: Tracer, callback: Any) -> None:
            unsubscribe(tracer, subscribers.pop(callback, callback))

        return traced_unsubscribe

    def _frame_codec(
        self, codec: Callable[[Any], Any], *, out: bool
    ) -> Callable[[Any], Any]:
        """A frame codec call: a ``cluster.codec`` span plus a frame count."""
        timed = self.wrap("cluster.codec", codec)
        counts = self.counts

        def traced_codec(value: Any) -> Any:
            result = timed(value)
            counts["cluster.frames"] += 1
            counts["cluster.frame_bytes"] += len(result if out else value)
            return result

        return traced_codec


def write_chrome_trace(tracer: LayerTracer, path: Path) -> list[str]:
    """Write ``tracer``'s spans as Chrome trace-event JSON, one nested track.

    Returns the problems :func:`repro.obs.export.validate_chrome` finds
    in the document (empty when it is well formed).
    """
    rows = tracer.spans[:MAX_EXPORTED_SPANS]
    origin = rows[0][1] if rows else 0.0
    events: list[dict[str, Any]] = [
        {"ph": "M", "name": "process_name", "pid": 0, "tid": 0,
         "args": {"name": "benchmark layers"}},
    ]
    for index, (name, began, ended, parent) in enumerate(rows):
        events.append({
            "ph": "X",
            "name": name,
            "cat": name.split(".")[0],
            "pid": 0,
            "tid": 0,
            "ts": round((began - origin) * 1e6, 3),
            "dur": round((ended - began) * 1e6, 3),
            "args": {"span": index, "parent": parent},
        })
    document = {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"spans": len(tracer.spans), "exported": len(rows)},
    }
    problems = validate_chrome(document)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(document), encoding="utf-8")
    return problems
