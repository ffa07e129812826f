"""Incremental span reconstruction: the project's one span fold.

This module rebuilds :class:`~repro.obs.spans.ProbeComputationSpan`
records one :class:`~repro.sim.trace.TraceEvent` at a time, via
category-scoped :meth:`~repro.sim.trace.Tracer.subscribe` hooks, and
emits each span the moment its computation ``(i, n)`` resolves:

* **deadlock** -- the A1 declaration arrived and every probe hop of the
  tag has drained (received + net-delivered);
* **superseded** -- a later computation ``(i, n')`` of the same initiator
  appeared (section 4.3) and the old tag's hops have drained;
* **fizzled** -- assigned only at :meth:`StreamingSpanEngine.finish`,
  because "no declaration will ever come" is a quiescence-time fact.

The same engine serves a live monitor (``repro monitor``, where the full
trace does not exist under ``trace=False``) and a finished trace
(:func:`stream_spans`, and :func:`~repro.obs.spans.build_spans` on top of
it).  Its output is pinned by goldens in ``tests/obs/``.

Memory is bounded by the *open* computations, not the run length: all
state of one computation lives in one record, keyed by the plain
``(initiator, sequence)`` tuple, and a settled span is evicted with its
record -- which is what lets a monitor watch an unbounded run.
Settlement is deferred until the first event of a *different* tag:
probes propagate only inside the handler that received them (A0/A2), so
once a drained tag's handler has moved on, no further event of that tag
can exist.

The section 4 bounds are checked **online**: the per-edge probe count is
maintained incrementally and a breach raises (``strict_bounds=True``) or
records a :class:`~repro.errors.BoundViolation` at the offending
``probe.sent`` event -- not after the run, when the evidence has long
since scrolled past.
"""

from __future__ import annotations

from collections.abc import Callable, Hashable, Iterable
from typing import Any

from repro._ids import ProbeTag
from repro.errors import BoundViolation
from repro.obs.spans import (
    BASIC_SPAN_SCHEMA,
    ProbeComputationSpan,
    ProbeHop,
    SpanOutcome,
    SpanSchema,
)
from repro.sim import categories
from repro.sim.trace import TraceEvent, Tracer

SpanSink = Callable[[ProbeComputationSpan], None]
ViolationSink = Callable[[BoundViolation], None]
#: an open computation's key: the plain ``(initiator, sequence)`` of its
#: tag, which hashes in C (the :class:`ProbeTag` dataclass does not).
TagKey = tuple[int, int]


def span_sort_key(span: ProbeComputationSpan) -> tuple[float, int, int]:
    """Initiation order: initiation time, initiator, sequence."""
    start = span.initiated_at if span.initiated_at is not None else span.end_time
    return (start, span.tag.initiator, span.tag.sequence)


class _Computation:
    """Everything the fold holds for one open computation."""

    __slots__ = (
        "awaiting_net",
        "awaiting_receive",
        "edge_counts",
        "key",
        "outstanding",
        "probes",
        "span",
    )

    def __init__(self, key: TagKey, span: ProbeComputationSpan) -> None:
        self.key = key
        self.span = span
        #: sent hops awaiting their protocol receive, FIFO per edge label,
        #: and awaiting their network delivery, FIFO per channel (the
        #: network's per-channel FIFO guarantee).  Section 4 makes nearly
        #: every queue one hop long, so they are short lists, dropped
        #: when they drain.
        self.awaiting_receive: dict[Hashable, list[ProbeHop]] = {}
        self.awaiting_net: dict[tuple[Hashable, Hashable], list[ProbeHop]] = {}
        #: receive and net-delivery matches still owed; zero means no
        #: future event can belong to the computation (once its producing
        #: handler has finished).
        self.outstanding = 0
        #: probes sent per edge label, and in total (online section 4).
        self.edge_counts: dict[Hashable, int] = {}
        self.probes = 0


class StreamingSpanEngine:
    """Rebuild probe-computation spans from a live event stream.

    Parameters
    ----------
    schema:
        Which model's lifecycle categories to fold.
    n_vertices:
        When given, the section 4 total bound (at most ``n(n-1)`` probes
        per computation) is checked online as well as the per-edge bound.
    strict_bounds:
        Raise the first :class:`~repro.errors.BoundViolation` out of the
        producing handler instead of only recording it.
    on_span:
        Called once per settled span, at eviction time.  Emission order
        is settlement order, **not** initiation order; sort with
        :func:`span_sort_key` for initiation order.
    on_violation:
        Called for every recorded bound violation (also in strict mode,
        just before the raise).
    on_probe:
        Called with the edge label of every ``probe.sent`` event, before
        the online bound check; the telemetry bridge counts probes per
        edge through it, so the edge is read once per probe.
    """

    def __init__(
        self,
        schema: SpanSchema = BASIC_SPAN_SCHEMA,
        *,
        n_vertices: int | None = None,
        strict_bounds: bool = False,
        on_span: SpanSink | None = None,
        on_violation: ViolationSink | None = None,
        on_probe: Callable[[Hashable], None] | None = None,
    ) -> None:
        self.schema = schema
        self.n_vertices = n_vertices
        self.strict_bounds = strict_bounds
        self.on_span = on_span
        self.on_violation = on_violation
        self.on_probe = on_probe
        #: every bound violation seen so far, in event order.
        self.violations: list[BoundViolation] = []
        #: settled spans emitted so far.
        self.emitted = 0
        #: high-water mark of simultaneously open computations -- the
        #: bounded-memory claim, made testable.
        self.peak_open = 0
        self._tracer: Tracer | None = None
        self._open: dict[TagKey, _Computation] = {}
        #: highest sequence seen per initiator (section 4.3 supersession).
        self._latest: dict[int, int] = {}
        #: resolved + drained computations awaiting confirmation by the
        #: first event of a different tag (probes of a tag are only
        #: produced inside that tag's own receive handler).
        self._deferred: dict[TagKey, _Computation] = {}
        #: one handler per observed category: the tracer calls it directly.
        self._handlers: dict[str, Callable[[TraceEvent], None]] = {
            schema.initiated: self._on_initiated,
            schema.probe_sent: self._on_probe_sent,
            schema.probe_received: self._on_probe_received,
            schema.declared: self._on_declared,
            categories.NET_SENT: self._on_net_sent,
            categories.NET_DELIVERED: self._on_net_delivered,
        }

    # ------------------------------------------------------------------
    # Subscription plumbing
    # ------------------------------------------------------------------

    @property
    def open_computations(self) -> int:
        """Computations currently held in memory (settled ones are gone)."""
        return len(self._open)

    def attach(self, tracer: Tracer) -> None:
        """Subscribe to ``tracer``: one handler per category.

        The scoped subscription is the whole point: with ``trace=False``
        every category the engine does not watch stays on the tracer's
        zero-cost path, and nothing is ever buffered in the trace log.
        """
        for category, handler in self._handlers.items():
            tracer.subscribe(handler, categories=(category,))
        self._tracer = tracer

    def detach(self, tracer: Tracer) -> None:
        for handler in self._handlers.values():
            tracer.unsubscribe(handler)
        self._tracer = None

    def on_event(self, event: TraceEvent) -> None:
        """Consume one event of any category (for replayed traces)."""
        handler = self._handlers.get(event.category)
        if handler is not None:
            handler(event)

    # ------------------------------------------------------------------
    # The incremental fold
    # ------------------------------------------------------------------

    def _enter(self, tag: Any, time: float) -> _Computation | None:
        """The record an event of ``tag`` at ``time`` belongs to, opened if
        new; None when the event carries no probe tag."""
        if not isinstance(tag, ProbeTag):
            return None
        key = (tag.initiator, tag.sequence)
        if self._deferred:
            self._flush_deferred(key)
        computation = self._open.get(key)
        if computation is not None:
            _touch(computation.span, time)
            return computation
        computation = _Computation(
            key,
            ProbeComputationSpan(
                tag=tag, initiator=tag.initiator, initiated_at=None, end_time=time
            ),
        )
        self._open[key] = computation
        if len(self._open) > self.peak_open:
            self.peak_open = len(self._open)
        initiator, sequence = key
        latest = self._latest.get(initiator)
        if latest is None:
            self._latest[initiator] = sequence
        elif sequence > latest:
            self._latest[initiator] = sequence
            # a new latest sequence may resolve older computations of the
            # same initiator; re-examine them.
            for other in self._open.values():
                if other.key[0] == initiator and other.key[1] < sequence:
                    self._try_settle(other)
        return computation

    def _on_initiated(self, event: TraceEvent) -> None:
        computation = self._enter(event.details["tag"], event.time)
        if computation is not None and computation.span.initiated_at is None:
            computation.span.initiated_at = event.time

    def _on_probe_sent(self, event: TraceEvent) -> None:
        details = event.details
        tag = details["tag"]
        schema = self.schema
        edge = schema.edge_of(details)
        if self.on_probe is not None:
            self.on_probe(edge)
        time = event.time
        computation = self._enter(tag, time)
        if computation is None:
            return
        sender, destination = schema.sent_endpoints(details)
        hop = ProbeHop(tag=tag, source=sender, target=destination, edge=edge, sent_at=time)
        computation.span.hops.append(hop)
        by_edge = computation.awaiting_receive.get(edge)
        if by_edge is None:
            computation.awaiting_receive[edge] = [hop]
        else:
            by_edge.append(hop)
        channel = (sender, destination)
        by_channel = computation.awaiting_net.get(channel)
        if by_channel is None:
            computation.awaiting_net[channel] = [hop]
        else:
            by_channel.append(hop)
        computation.outstanding += 2
        self._check_bounds_online(computation, hop)

    def _on_probe_received(self, event: TraceEvent) -> None:
        details = event.details
        tag = details["tag"]
        computation = self._enter(tag, event.time)
        if computation is None:
            return
        edge = self.schema.edge_of(details)
        pending = computation.awaiting_receive.get(edge)
        if pending:
            hop = pending.pop(0)
            if not pending:
                del computation.awaiting_receive[edge]
            computation.outstanding -= 1
        else:
            # Sliced trace: the matching send was not recorded.
            hop = ProbeHop(
                tag=tag,
                source=details.get("source"),
                target=details.get("target", details.get("site")),
                edge=edge,
            )
            computation.span.hops.append(hop)
        hop.received_at = event.time
        meaningful = details.get("meaningful")
        hop.meaningful = bool(meaningful) if meaningful is not None else None
        self._try_settle(computation)

    def _on_declared(self, event: TraceEvent) -> None:
        details = event.details
        computation = self._enter(details["tag"], event.time)
        if computation is None:
            return
        span = computation.span
        if span.declared_at is None:
            span.declared_at = event.time
            span.declared_by = self.schema.declared_by(details)
        self._try_settle(computation)

    def _net_hops(
        self, event: TraceEvent
    ) -> tuple[_Computation, tuple[Hashable, Hashable], list[ProbeHop]] | None:
        """The open record and channel queue a ``net.*`` event matches.

        Unlike the lifecycle events, a network event never opens a record:
        it only times hops that a ``probe.sent`` event queued.
        """
        details = event.details
        tag = getattr(details.get("message"), "tag", None)
        if not isinstance(tag, ProbeTag):
            return None
        key = (tag.initiator, tag.sequence)
        if self._deferred:
            self._flush_deferred(key)
        computation = self._open.get(key)
        if computation is None:
            return None
        channel = (details["sender"], details["destination"])
        pending = computation.awaiting_net.get(channel)
        if not pending:
            return None
        return computation, channel, pending

    def _on_net_sent(self, event: TraceEvent) -> None:
        match = self._net_hops(event)
        if match is None:
            return
        computation, _, pending = match
        # First hop in the queue that has no net-accept time yet.
        for hop in pending:
            if hop.net_sent_at is None:
                hop.net_sent_at = event.time
                _touch(computation.span, event.time)
                break

    def _on_net_delivered(self, event: TraceEvent) -> None:
        match = self._net_hops(event)
        if match is None:
            return
        computation, channel, pending = match
        pending.pop(0).net_delivered_at = event.time
        if not pending:
            del computation.awaiting_net[channel]
        _touch(computation.span, event.time)
        computation.outstanding -= 1
        self._try_settle(computation)

    # ------------------------------------------------------------------
    # Online section 4 bounds
    # ------------------------------------------------------------------

    def _check_bounds_online(self, computation: _Computation, hop: ProbeHop) -> None:
        counts = computation.edge_counts
        count = counts.get(hop.edge, 0) + 1
        counts[hop.edge] = count
        computation.probes += 1
        tag = computation.span.tag
        if count == 2:
            self._violate(
                BoundViolation(
                    "one-probe-per-edge",
                    f"computation {tag} sent a second probe over edge "
                    f"{hop.edge!r} at t={hop.sent_at} (section 4 allows "
                    "exactly one)",
                )
            )
        if self.n_vertices is not None:
            limit = self.n_vertices * (self.n_vertices - 1)
            if computation.probes == limit + 1:
                self._violate(
                    BoundViolation(
                        "probes-le-edges",
                        f"computation {tag} exceeded the {limit} possible "
                        f"wait-for edges among {self.n_vertices} vertices at "
                        f"t={hop.sent_at}",
                    )
                )

    def _violate(self, violation: BoundViolation) -> None:
        self.violations.append(violation)
        if self.on_violation is not None:
            self.on_violation(violation)
        if self.strict_bounds:
            raise violation

    # ------------------------------------------------------------------
    # Settlement & eviction
    # ------------------------------------------------------------------

    def _resolution(self, computation: _Computation) -> SpanOutcome | None:
        """The outcome already determined for ``computation``, if any.

        FIZZLED is never determined mid-stream: only quiescence proves
        the absence of a future declaration.
        """
        if computation.span.declared_at is not None:
            return SpanOutcome.DEADLOCK
        initiator, sequence = computation.key
        if sequence < self._latest[initiator]:
            return SpanOutcome.SUPERSEDED
        return None

    def _try_settle(self, computation: _Computation) -> None:
        if computation.outstanding == 0 and self._resolution(computation) is not None:
            self._deferred[computation.key] = computation

    def _flush_deferred(self, current: TagKey) -> None:
        """Evict deferred computations once an event of a *different* tag
        proves their producing handlers have completed."""
        deferred = self._deferred
        for key in list(deferred):
            if key == current:
                continue
            computation = deferred.pop(key)
            if computation.outstanding > 0:
                continue
            outcome = self._resolution(computation)
            if outcome is not None:
                self._evict(computation, outcome)

    def _evict(self, computation: _Computation, outcome: SpanOutcome) -> None:
        del self._open[computation.key]
        span = computation.span
        span.outcome = outcome
        self.emitted += 1
        tracer = self._tracer
        if tracer is not None and tracer.wants(categories.OBS_SPAN_SETTLED):
            tracer.record(
                span.end_time,
                categories.OBS_SPAN_SETTLED,
                tag=span.tag,
                outcome=outcome.value,
                probes_sent=span.probes_sent,
                detection_latency=span.detection_latency,
            )
        if self.on_span is not None:
            self.on_span(span)

    def finish(self) -> list[ProbeComputationSpan]:
        """Flush every remaining computation at end of stream.

        Undetermined spans become FIZZLED (or SUPERSEDED when a later
        sequence exists).  Returns the spans emitted *by this call*, in
        :func:`span_sort_key` order; spans already emitted mid-stream are
        not repeated.
        """
        self._deferred.clear()
        remaining = sorted(self._open.values(), key=lambda c: span_sort_key(c.span))
        for computation in remaining:
            outcome = self._resolution(computation)
            self._evict(computation, SpanOutcome.FIZZLED if outcome is None else outcome)
        return [computation.span for computation in remaining]


def _touch(span: ProbeComputationSpan, time: float) -> None:
    """Stretch ``span`` to cover an event at ``time``."""
    if time > span.end_time:
        span.end_time = time


def span_to_json(span: ProbeComputationSpan) -> dict[str, Any]:
    """A compact JSON-able view of one span, for streamed JSONL export.

    Deliberately simpler than the lossless trace round-trip of
    :mod:`repro.obs.export`: ids are stringified, derived quantities are
    precomputed -- the shape a dashboard or ``jq`` wants, not a decoder.
    """
    return {
        "tag": str(span.tag),
        "initiator": span.initiator,
        "sequence": span.tag.sequence,
        "initiated_at": span.initiated_at,
        "declared_at": span.declared_at,
        "declared_by": None if span.declared_by is None else str(span.declared_by),
        "outcome": span.outcome.value,
        "end_time": span.end_time,
        "probes_sent": span.probes_sent,
        "meaningful_probes": span.meaningful_probes,
        "detection_latency": span.detection_latency,
        "hops": [
            {
                "source": str(hop.source),
                "target": str(hop.target),
                "edge": str(hop.edge),
                "sent_at": hop.sent_at,
                "net_sent_at": hop.net_sent_at,
                "net_delivered_at": hop.net_delivered_at,
                "received_at": hop.received_at,
                "meaningful": hop.meaningful,
            }
            for hop in span.hops
        ],
    }


def stream_spans(
    source: Tracer | Iterable[TraceEvent],
    schema: SpanSchema = BASIC_SPAN_SCHEMA,
    *,
    n_vertices: int | None = None,
    strict_bounds: bool = False,
) -> list[ProbeComputationSpan]:
    """Run the engine over a complete event stream.

    Returns every span, in :func:`span_sort_key` order.
    """
    collected: list[ProbeComputationSpan] = []
    engine = StreamingSpanEngine(
        schema,
        n_vertices=n_vertices,
        strict_bounds=strict_bounds,
        on_span=collected.append,
    )
    for event in source:
        engine.on_event(event)
    engine.finish()
    return sorted(collected, key=span_sort_key)
