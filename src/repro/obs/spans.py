"""Reconstruct probe computations ``(i, n)`` as spans from a flat trace.

One probe computation is the unit of everything the paper proves: QRP2's
"on a black cycle at the moment the meaningful probe is received" is a
statement about one computation's final hop, and section 4's performance
argument bounds the probes **per computation** -- at most one per edge,
hence at most ``|E|`` in total and ``N`` on a simple cycle of ``N``
vertices.  A flat :class:`~repro.sim.trace.TraceEvent` list interleaves
all computations; this module folds it back into one
:class:`ProbeComputationSpan` per tag ``(initiator, n)``:

* the initiation instant (step A0),
* every probe **hop** with its latency split (protocol send -> network
  accept -> delivery -> protocol receive) and meaningfulness verdict,
* the outcome -- deadlock declared (A1 fired), fizzled (probes discarded
  or still travelling at quiescence), or superseded by a later computation
  of the same initiator (section 4.3),
* per-edge probe accounting, machine-checked by :func:`check_probe_bounds`.

The fold is schema-driven so the same machinery serves the basic model
(vertex probes) and the DDB model (controller probes); see
:data:`BASIC_SPAN_SCHEMA` and :data:`DDB_SPAN_SCHEMA`.  There is one fold,
:class:`repro.obs.stream.StreamingSpanEngine`; :func:`build_spans` feeds
it a finished trace.
"""

from __future__ import annotations

from collections.abc import Callable, Hashable, Iterable, Mapping
from dataclasses import dataclass, field
from enum import Enum
from operator import itemgetter
from typing import Any

from repro._ids import ProbeTag
from repro.core.registry import MessageTaxonomy, all_variants
from repro.errors import BoundViolation
from repro.sim.trace import TraceEvent, Tracer

#: an extractor reads one event's ``details`` mapping.
Extractor = Callable[[Mapping[str, Any]], Any]


class SpanOutcome(Enum):
    """How a probe computation ended."""

    #: Step A1 fired: the initiator received a meaningful probe of its own
    #: computation and declared itself on a black cycle.
    DEADLOCK = "deadlock"
    #: The computation produced no declaration: its probes were discarded as
    #: not meaningful / stale, or were still in flight when the run ended.
    FIZZLED = "fizzled"
    #: A later computation ``(i, n')`` with ``n' > n`` by the same initiator
    #: exists, which makes this one obsolete (section 4.3).
    SUPERSEDED = "superseded"


@dataclass(frozen=True)
class SpanSchema:
    """How to read one model's probe lifecycle out of its trace categories.

    The extractor callables isolate the fold from per-model detail-key
    differences (the basic model records ``source``/``target`` vertices,
    the DDB model records ``site``/``destination``/``edge``).  Each takes
    the event's ``details`` mapping, not the event, so a plain
    :func:`operator.itemgetter` serves.
    """

    model: str
    initiated: str
    probe_sent: str
    probe_received: str
    declared: str
    #: network pids ``(sender, destination)`` of a probe-sent event; used
    #: both as hop endpoints and to match ``net.sent``/``net.delivered``.
    sent_endpoints: Extractor
    #: canonical wait-for-graph edge label of a sent/received probe event;
    #: the section 4 bound counts probes per *this* label.
    edge_of: Extractor
    #: who declared (step A1): the vertex in the basic model, the victim
    #: process in the DDB model.
    declared_by: Extractor


def schema_from_taxonomy(model: str, taxonomy: MessageTaxonomy) -> SpanSchema:
    """Derive a fold schema from a registered variant's message taxonomy.

    The taxonomy names the lifecycle categories and the detail keys; this
    turns the keys into the extractor callables the fold runs.  A single
    edge key reads that detail verbatim (the DDB model records a canonical
    ``edge`` label); several keys form a tuple label (the basic model's
    ``(source, target)``) -- exactly what :func:`operator.itemgetter`
    returns for one key and for several.
    """
    return SpanSchema(
        model=model,
        initiated=taxonomy.initiated,
        probe_sent=taxonomy.probe_sent,
        probe_received=taxonomy.probe_received,
        declared=taxonomy.declared,
        sent_endpoints=itemgetter(*taxonomy.endpoint_keys),
        edge_of=itemgetter(*taxonomy.edge_keys),
        declared_by=itemgetter(taxonomy.declared_by_key),
    )


def _registered_schemas() -> dict[str, SpanSchema]:
    """One schema per registered variant model that declares a taxonomy.

    Built exactly once at import: ``SpanSchema`` equality falls back to
    the identity of its extractor callables, so every consumer must share
    these instances rather than re-deriving their own.
    """
    schemas: dict[str, SpanSchema] = {}
    for variant in all_variants():
        taxonomy = variant.capabilities.taxonomy
        if taxonomy is None or variant.capabilities.model in schemas:
            continue
        schemas[variant.capabilities.model] = schema_from_taxonomy(
            variant.capabilities.model, taxonomy
        )
    return schemas


SCHEMAS_BY_MODEL: dict[str, SpanSchema] = _registered_schemas()

BASIC_SPAN_SCHEMA = SCHEMAS_BY_MODEL["basic"]

DDB_SPAN_SCHEMA = SCHEMAS_BY_MODEL["ddb"]


@dataclass(slots=True)
class ProbeHop:
    """One probe travelling one edge within one computation.

    The four timestamps split the hop's latency the way the transport
    experiences it: ``sent_at`` (protocol-level send, step A0/A2) ->
    ``net_sent_at`` (network accepted the message) -> ``net_delivered_at``
    (delivery event fired) -> ``received_at`` (protocol-level receipt).
    ``queue_delay`` is time spent between protocol send and network accept,
    ``flight_delay`` the in-flight time on the channel.  Any timestamp may
    be ``None`` on a sliced trace or for probes still in flight.
    """

    tag: ProbeTag
    source: Hashable
    target: Hashable
    edge: Hashable
    sent_at: float | None = None
    net_sent_at: float | None = None
    net_delivered_at: float | None = None
    received_at: float | None = None
    #: P3 verdict at receipt: was the edge (source -> target) black?  None
    #: while the probe is still in flight.
    meaningful: bool | None = None

    @property
    def latency(self) -> float | None:
        """End-to-end protocol latency of the hop, when both ends were seen."""
        if self.sent_at is None or self.received_at is None:
            return None
        return self.received_at - self.sent_at

    @property
    def queue_delay(self) -> float | None:
        if self.sent_at is None or self.net_sent_at is None:
            return None
        return self.net_sent_at - self.sent_at

    @property
    def flight_delay(self) -> float | None:
        if self.net_sent_at is None or self.net_delivered_at is None:
            return None
        return self.net_delivered_at - self.net_sent_at

    @property
    def delivered(self) -> bool:
        return self.received_at is not None


@dataclass(slots=True)
class ProbeComputationSpan:
    """One probe computation ``(i, n)``, end to end."""

    tag: ProbeTag
    initiator: int
    initiated_at: float | None
    hops: list[ProbeHop] = field(default_factory=list)
    declared_at: float | None = None
    declared_by: object | None = None
    outcome: SpanOutcome = SpanOutcome.FIZZLED
    #: time of the last event attributed to this computation
    end_time: float = 0.0

    @property
    def detection_latency(self) -> float | None:
        """Initiation-to-declaration latency (the E5 'detection latency'
        measured per computation), or None if A1 never fired."""
        if self.initiated_at is None or self.declared_at is None:
            return None
        return self.declared_at - self.initiated_at

    @property
    def probes_sent(self) -> int:
        return sum(1 for hop in self.hops if hop.sent_at is not None)

    @property
    def meaningful_probes(self) -> int:
        return sum(1 for hop in self.hops if hop.meaningful)

    def probes_per_edge(self) -> dict[Hashable, int]:
        """Sent-probe count per wait-for-graph edge (section 4 accounting)."""
        counts: dict[Hashable, int] = {}
        for hop in self.hops:
            if hop.sent_at is not None:
                counts[hop.edge] = counts.get(hop.edge, 0) + 1
        return counts

    @property
    def max_probes_on_one_edge(self) -> int:
        counts = self.probes_per_edge()
        return max(counts.values()) if counts else 0

    def check_bounds(self, n_vertices: int | None = None) -> None:
        """Machine-check the section 4 bounds for this one computation.

        * **one probe per edge**: a vertex propagates at most once per
          computation, so no edge may carry two probes of the same tag;
        * with ``n_vertices`` given, **at most |E| probes overall**, where
          ``|E| <= n(n-1)`` for the simple wait-for digraph (on a simple
          cycle this specialises to the paper's "at most N probes").

        Raises :class:`~repro.errors.BoundViolation` on the first breach.
        """
        for edge, count in sorted(
            self.probes_per_edge().items(), key=lambda item: str(item[0])
        ):
            if count > 1:
                raise BoundViolation(
                    "one-probe-per-edge",
                    f"computation {self.tag} sent {count} probes over edge "
                    f"{edge!r} (section 4 allows exactly one)",
                )
        if n_vertices is not None:
            limit = n_vertices * (n_vertices - 1)
            if self.probes_sent > limit:
                raise BoundViolation(
                    "probes-le-edges",
                    f"computation {self.tag} sent {self.probes_sent} probes, "
                    f"more than the {limit} possible wait-for edges among "
                    f"{n_vertices} vertices",
                )


def check_probe_bounds(
    spans: Iterable[ProbeComputationSpan], n_vertices: int | None = None
) -> None:
    """Run :meth:`ProbeComputationSpan.check_bounds` over every span."""
    for span in spans:
        span.check_bounds(n_vertices=n_vertices)


def build_spans(
    source: Tracer | Iterable[TraceEvent],
    schema: SpanSchema = BASIC_SPAN_SCHEMA,
) -> list[ProbeComputationSpan]:
    """Fold a trace into one span per probe computation tag.

    ``source`` is a live :class:`~repro.sim.trace.Tracer` or any iterable
    of events (e.g. re-imported via :func:`repro.obs.export.read_jsonl`).
    Events of other categories are ignored, so the full mixed trace of a
    run can be passed as-is.  Spans come back ordered by initiation time
    (:func:`repro.obs.stream.span_sort_key`).  The fold itself is
    :class:`repro.obs.stream.StreamingSpanEngine`, run to the end of the
    trace.
    """
    from repro.obs.stream import stream_spans

    return stream_spans(source, schema)
