"""Tracing and decision recording for the DDSI pipeline.

The paper's closing argument (§7) is that applying the framework to real
systems hinges on *measuring* actual parameters; this module is the
measurement substrate.  A :class:`Recorder` collects three kinds of
records while the pipeline runs:

* **spans** — named, nested wall-time intervals (``perf_counter`` based)
  with structured attributes, one per pipeline stage or hot-path call;
* **decision events** — typed records of what the pipeline chose
  (heuristic merges, R1-R5 rule firings, mapping placements, degraded-mode
  shed/split choices) and why;
* **metrics** — counters, gauges and fixed-bucket histograms kept in the
  recorder's :class:`~repro.obs.metrics.MetricsRegistry`.

Instrumented library code never takes a recorder parameter; it asks
:func:`current` for the ambient one.  The default is :data:`NULL_RECORDER`,
whose every method is a storage-free no-op, so instrumentation costs one
attribute check when observability is off.  Enable recording around any
block with :func:`use`; :meth:`Recorder.open_sink` streams the trace to
a file as the run goes, and :meth:`Recorder.close` ends it::

    from repro.obs import Recorder, use

    recorder = Recorder()
    recorder.open_sink("trace.ndjson")
    with use(recorder):
        IntegrationFramework(system).integrate(hw)
    recorder.close()
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.errors import ObservabilityError
from repro.obs.metrics import (
    NULL_INSTRUMENT,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.ndjson import dump_ndjson

TRACE_FORMAT = "repro-trace"
# Version 2 added the mandatory ``provenance`` block to the meta line
# (git sha, python version, machine fingerprint, repro version, and the
# workload name when one was set) so trace diffs can refuse to compare
# incomparable runs.  Version 3 writes the meta line first and each
# record as it closes; the record counts the meta line used to carry
# move to one closing ``metrics`` record, which also holds the metrics
# snapshot.  A version-3 trace without that record is the live prefix
# of a run still going.  Version-1 and -2 traces are still readable.
TRACE_VERSION = 3


@dataclass
class Span:
    """One completed (or still-open) named interval.

    Times are seconds since the recorder's epoch (its construction time),
    so a trace is self-relative and deterministic in structure across
    runs — only the durations vary.
    """

    sid: int
    parent: int | None
    name: str
    depth: int
    t_start: float
    t_end: float | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        """Elapsed seconds (0.0 while the span is still open)."""
        if self.t_end is None:
            return 0.0
        return self.t_end - self.t_start

    def to_event(self) -> dict:
        event = {
            "type": "span",
            "sid": self.sid,
            "parent": self.parent,
            "name": self.name,
            "depth": self.depth,
            "t_start": self.t_start,
            "t_end": self.t_end,
            "dur_s": self.duration,
        }
        if self.attrs:
            event["attrs"] = self.attrs
        return event


@dataclass(frozen=True)
class DecisionEvent:
    """A typed record of one choice the pipeline made.

    Attributes:
        seq: Monotonic sequence number within the recorder.
        category: Subsystem slug (``condense``, ``map``, ``rule``,
            ``degrade``, ...).
        action: What was done (``merge``, ``place``, ``violation``,
            ``shed``, ``split``, ...).
        subject: The thing decided about (cluster label, rule id, ...).
        reason: Human-readable justification.
        span: sid of the innermost open span when the decision fired.
        attrs: Structured extras (scores, node names, ...).
    """

    seq: int
    category: str
    action: str
    subject: str
    reason: str
    span: int | None
    attrs: dict = field(default_factory=dict)

    def to_event(self) -> dict:
        event = {
            "type": "decision",
            "seq": self.seq,
            "category": self.category,
            "action": self.action,
            "subject": self.subject,
            "reason": self.reason,
            "span": self.span,
        }
        if self.attrs:
            event["attrs"] = self.attrs
        return event


class _ActiveSpan:
    """Context manager driving one :class:`Span` on the recorder stack."""

    __slots__ = ("_recorder", "_span")

    def __init__(self, recorder: "Recorder", span: Span) -> None:
        self._recorder = recorder
        self._span = span

    def set(self, **attrs) -> "_ActiveSpan":
        """Attach attributes to the span after it opened."""
        self._span.attrs.update(attrs)
        return self

    @property
    def sid(self) -> int:
        """The underlying span's sid (for grafting remote children)."""
        return self._span.sid

    @property
    def depth(self) -> int:
        """The underlying span's nesting depth."""
        return self._span.depth

    def __enter__(self) -> "_ActiveSpan":
        return self

    def __exit__(self, *exc) -> bool:
        self._recorder._close_span(self._span)
        return False


class _Timed:
    """Context manager that observes its elapsed time into a histogram."""

    __slots__ = ("_histogram", "_labels", "_t0")

    def __init__(self, histogram: Histogram, labels: dict) -> None:
        self._histogram = histogram
        self._labels = labels
        self._t0 = 0.0

    def __enter__(self) -> "_Timed":
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        self._histogram.observe(time.perf_counter() - self._t0, **self._labels)
        return False


class _NoopSpan:
    """The do-nothing span/timer; one shared instance, zero storage."""

    __slots__ = ()

    def set(self, **attrs) -> "_NoopSpan":
        return self

    @property
    def sid(self) -> None:
        return None

    @property
    def depth(self) -> int:
        return 0

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False


NOOP_SPAN = _NoopSpan()


class NullRecorder:
    """The disabled recorder: every method is a storage-free no-op.

    Hot paths gate attribute formatting on :attr:`enabled` so the
    disabled path costs one attribute check and no allocations that
    outlive the call.
    """

    __slots__ = ()

    enabled = False

    def span(self, name: str, **attrs) -> _NoopSpan:
        return NOOP_SPAN

    def timed(self, name: str, **labels) -> _NoopSpan:
        return NOOP_SPAN

    def decision(
        self,
        category: str,
        action: str,
        subject: str = "",
        reason: str = "",
        **attrs,
    ) -> None:
        return None

    def counter(self, name: str):
        return NULL_INSTRUMENT

    def gauge(self, name: str):
        return NULL_INSTRUMENT

    def histogram(self, name: str, buckets=None):
        return NULL_INSTRUMENT


NULL_RECORDER = NullRecorder()


class Recorder:
    """Collects spans, decisions and metrics for one observed run."""

    enabled = True

    def __init__(self) -> None:
        self._epoch = time.perf_counter()
        # Wall-clock anchor of the perf_counter epoch: lets two recorders
        # in different processes (supervisor + shard worker) normalise
        # their self-relative span times onto one timeline.
        self.epoch_unix = time.time()
        self._seq = 0
        self._stack: list[Span] = []
        self.spans: list[Span] = []
        self.decisions: list[DecisionEvent] = []
        self.metrics = MetricsRegistry()
        # Extra provenance merged over the auto-collected block when the
        # meta line is made (set_provenance(workload="paper", ...)).
        self.provenance: dict = {}
        # Events in completion order (spans append on close, decisions on
        # creation); each is also written to the sink when one is open.
        self._log: list[dict] = []
        self._meta: dict | None = None
        self._sink = None
        self._closed = False  # set by close(): the trace has ended
        # Installed by repro.obs.profile.Profiler; when set, spans get
        # cpu_s / rss_peak_delta attrs stamped at close.  None keeps the
        # unprofiled path at one attribute check per span.
        self._resource_probe = None
        self.profiles = 0

    def set_provenance(self, **fields) -> None:
        """Record extra provenance for the trace meta line.

        ``None`` values are dropped so callers can pass through optional
        CLI arguments unconditionally.
        """
        self.provenance.update(
            {k: v for k, v in fields.items() if v is not None}
        )

    def _next_seq(self) -> int:
        self._seq += 1
        return self._seq

    def _emit(self, event: dict) -> None:
        if self._closed:
            return
        self._log.append(event)
        if self._sink is not None:
            dump_ndjson((event,), self._sink)

    # ------------------------------------------------------------------
    # The trace file
    # ------------------------------------------------------------------
    def open_sink(self, path) -> None:
        """Stream the trace to ``path`` from now on.

        The meta line and any records made so far are written at once;
        then each record is appended, and flushed, as it closes: spans
        at close, decisions when made, profile batches when handed
        over, grafted worker telemetry when its lease settles.  Set the
        provenance first: the meta line is final once written.
        """
        try:
            sink = open(path, "w", buffering=1)
        except OSError as exc:
            raise ObservabilityError(
                f"cannot write trace file {path!r}: {exc}"
            ) from exc
        self._meta = self._meta_record()
        dump_ndjson([self._meta] + self._log, sink)
        self._sink = sink

    def close(self) -> None:
        """End the trace with its closing ``metrics`` record.

        Spans still open are recorded with ``t_end: null`` first; the
        closing record holds the span, decision and profile counts and
        the metrics snapshot.  The sink, if any, is closed, and nothing
        recorded afterwards reaches the trace.  Idempotent.
        """
        if self._closed:
            return
        for span in self._stack:
            self._emit(span.to_event())
        self._emit({
            "type": "metrics",
            "spans": len(self.spans),
            "decisions": len(self.decisions),
            "profiles": self.profiles,
            "snapshot": self.metrics.snapshot(),
        })
        self._closed = True
        if self._sink is not None:
            self._sink.close()
            self._sink = None

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------
    def span(self, name: str, **attrs) -> _ActiveSpan:
        """Open a nested span; use as a context manager."""
        parent = self._stack[-1].sid if self._stack else None
        span = Span(
            sid=self._next_seq(),
            parent=parent,
            name=name,
            depth=len(self._stack),
            t_start=time.perf_counter() - self._epoch,
            attrs=dict(attrs),
        )
        self._stack.append(span)
        self.spans.append(span)
        if self._resource_probe is not None:
            self._resource_probe.open_span(span)
        return _ActiveSpan(self, span)

    def _close_span(self, span: Span) -> None:
        span.t_end = time.perf_counter() - self._epoch
        probe = self._resource_probe
        # Close any deeper spans left open (defensive: exceptions may
        # unwind several levels at once).
        while self._stack and self._stack[-1] is not span:
            dangling = self._stack.pop()
            dangling.t_end = span.t_end
            if probe is not None:
                probe.close_span(dangling)
            self._emit(dangling.to_event())
        if self._stack:
            self._stack.pop()
        if probe is not None:
            probe.close_span(span)
        self._emit(span.to_event())

    def timed(self, name: str, **labels) -> _Timed:
        """Time a block into histogram ``name`` (seconds)."""
        return _Timed(self.metrics.histogram(name), labels)

    # ------------------------------------------------------------------
    # Decisions
    # ------------------------------------------------------------------
    def decision(
        self,
        category: str,
        action: str,
        subject: str = "",
        reason: str = "",
        **attrs,
    ) -> DecisionEvent:
        event = DecisionEvent(
            seq=self._next_seq(),
            category=category,
            action=action,
            subject=subject,
            reason=reason,
            span=self._stack[-1].sid if self._stack else None,
            attrs=attrs,
        )
        self.decisions.append(event)
        self._emit(event.to_event())
        return event

    # ------------------------------------------------------------------
    # Profile events
    # ------------------------------------------------------------------
    def profile_event(self, event: dict) -> None:
        """Append one ``profile`` record (sampled stacks / resources).

        Produced by :class:`repro.obs.profile.Profiler`; span references
        inside the event already use this recorder's sids (the profiler
        reads them off the live span stack).
        """
        self._emit(event)
        self.profiles += 1

    # ------------------------------------------------------------------
    # Remote event grafting
    # ------------------------------------------------------------------
    def graft_events(
        self,
        events: list[dict],
        parent_sid: int | None = None,
        parent_depth: int = 0,
        t_offset: float = 0.0,
    ) -> dict[int, int]:
        """Splice events recorded by *another* recorder into this one.

        Used by the shard supervisor to merge worker-side spans and
        decisions (shipped over the transport as plain dicts) into the
        campaign trace.  Remote sids are rebased onto this recorder's
        sequence, parent references are remapped (a parent that never
        arrived — e.g. the worker was killed mid-lease — reparents onto
        ``parent_sid``), times are shifted by ``t_offset`` (the remote
        epoch minus ours, from the handshake wall clocks) and clamped so
        clock skew can't produce negative or inverted intervals, and
        still-open remote spans are closed at their start time so every
        grafted span closes.  Grafted spans carry ``attrs.remote: true``.

        Returns the remote-sid → local-sid mapping so callers grafting
        one lease across several batches can keep references stable.
        """
        sid_map: dict[int, int] = {}
        base_depth = parent_depth + 1
        for event in events:
            if event.get("type") == "span":
                sid_map[event["sid"]] = self._next_seq()
        for event in events:
            kind = event.get("type")
            if kind == "span":
                t_start = max(0.0, event["t_start"] + t_offset)
                t_end = event.get("t_end")
                t_end = t_start if t_end is None else max(
                    t_start, t_end + t_offset
                )
                parent = event.get("parent")
                attrs = dict(event.get("attrs") or {})
                attrs["remote"] = True
                span = Span(
                    sid=sid_map[event["sid"]],
                    parent=sid_map.get(parent, parent_sid),
                    name=event["name"],
                    depth=base_depth + event.get("depth", 0),
                    t_start=t_start,
                    t_end=t_end,
                    attrs=attrs,
                )
                self.spans.append(span)
                self._emit(span.to_event())
            elif kind == "decision":
                remote_span = event.get("span")
                decision = DecisionEvent(
                    seq=self._next_seq(),
                    category=event["category"],
                    action=event["action"],
                    subject=event.get("subject", ""),
                    reason=event.get("reason", ""),
                    span=sid_map.get(remote_span, parent_sid),
                    attrs=dict(event.get("attrs") or {}),
                )
                self.decisions.append(decision)
                self._emit(decision.to_event())
            elif kind == "profile":
                grafted = dict(event)
                owner = grafted.get("span")
                if owner is not None:
                    grafted["span"] = sid_map.get(owner, parent_sid)
                if "t" in grafted:
                    grafted["t"] = max(0.0, grafted["t"] + t_offset)
                grafted["remote"] = True
                self._emit(grafted)
                self.profiles += 1
        return sid_map

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------
    def counter(self, name: str) -> Counter:
        return self.metrics.counter(name)

    def gauge(self, name: str) -> Gauge:
        return self.metrics.gauge(name)

    def histogram(self, name: str, buckets=None) -> Histogram:
        return self.metrics.histogram(name, buckets)

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def _meta_record(self) -> dict:
        from repro.obs.provenance import collect_provenance

        provenance = collect_provenance()
        provenance.update(self.provenance)
        return {
            "type": "meta",
            "format": TRACE_FORMAT,
            "version": TRACE_VERSION,
            "clock": "perf_counter",
            "provenance": provenance,
        }

    def events(self) -> list[dict]:
        """All trace records: the meta line, then completion order.

        The same records the sink writes, so a finished run's trace file
        loads back equal to this list.  Before :meth:`close`, spans
        still open are appended with ``t_end: null`` so a trace written
        mid-run is valid NDJSON.
        """
        out = [self._meta or self._meta_record()]
        out.extend(self._log)
        if not self._closed:
            out.extend(span.to_event() for span in self._stack)
        return out

    def write_trace(self, path_or_file) -> None:
        """End the trace (:meth:`close`) and write its :meth:`events` as
        NDJSON: a finished trace, for a recorder that streamed nowhere."""
        self.close()
        dump_ndjson(self.events(), path_or_file)


# ----------------------------------------------------------------------
# Ambient recorder
# ----------------------------------------------------------------------
_current: Recorder | NullRecorder = NULL_RECORDER


def current() -> Recorder | NullRecorder:
    """The ambient recorder (the no-op :data:`NULL_RECORDER` by default)."""
    return _current


@contextmanager
def use(recorder: Recorder | NullRecorder):
    """Install ``recorder`` as the ambient recorder for a ``with`` block."""
    global _current
    previous = _current
    _current = recorder
    try:
        yield recorder
    finally:
        _current = previous
