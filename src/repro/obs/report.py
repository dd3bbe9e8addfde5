"""One reader for recorded traces: the sections of ``repro report``.

:func:`index_trace` makes the single pass over a trace's events (as
returned by :func:`~repro.obs.ndjson.load_ndjson` or
:meth:`~repro.obs.recorder.Recorder.events`): it splits them by type,
checks the type of every field a reader uses, and builds the span tree.
:func:`render_report` renders each section the trace has data for from
that index — stage timing, decisions, critical path, exec lease health,
sampled profile, process resources and, on request, the span tree.
``trace diff`` / ``trace export`` (:mod:`repro.obs.analyze`) read the
same index, ``repro exec watch`` prints :func:`lease_health` of a trace
still being written, and ``repro metrics export`` reads the closing
``metrics`` record it keeps.

Hand-written and truncated traces are tolerated: a span without a name
reads as ``"?"``, a missing duration and a still-open span (``t_end``
null) count as 0, and a span whose parent is absent from the trace (an
orphan) or whose parent chain loops back to itself is promoted to a
root.  A field of the wrong type raises
:class:`~repro.errors.ObservabilityError` naming the event index and
the field.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ObservabilityError
from repro.obs.ndjson import (
    is_live_prefix,
    parent_cycles,
    trace_meta,
    wrong_fields,
)


@dataclass(frozen=True)
class TraceSpan:
    """One span record with its fields checked and defaulted."""

    sid: int | None
    parent: int | None
    name: str
    t_start: float
    dur_s: float
    open: bool
    attrs: dict


@dataclass
class TraceIndex:
    """Everything the report sections, ``diff`` and ``export`` read."""

    n_events: int
    meta: dict | None
    #: Spans in stream order; ``roots`` and ``children`` (keyed by the
    #: parent's sid) hold the same spans ordered by start time.
    spans: list[TraceSpan]
    roots: list[TraceSpan]
    children: dict[int, list[TraceSpan]]
    by_sid: dict[int | None, TraceSpan]
    decisions: list[dict]
    decisions_per_span: dict[int | None, int]
    profiles: list[dict]
    unknown: dict[str, int]
    #: A finished version-3 trace's closing ``metrics`` record.
    metrics: dict | None = None

    @property
    def live(self) -> bool:
        """Whether this is a run still writing its trace (see
        :func:`~repro.obs.ndjson.is_live_prefix`)."""
        return is_live_prefix(self.meta, self.metrics is not None)

    def walk(self):
        """``(span, names)`` in tree pre-order; ``names`` is the chain of
        span names from the root down to ``span``."""
        stack = [(root, (root.name,)) for root in reversed(self.roots)]
        seen: set[int] = set()
        while stack:
            span, names = stack.pop()
            if id(span) in seen:  # duplicate sids can share a child list
                continue
            seen.add(id(span))
            yield span, names
            for child in reversed(self.children.get(span.sid, ())):
                stack.append((child, names + (child.name,)))


def index_trace(events: list[dict]) -> TraceIndex:
    """The one pass over a trace's events (see the module docstring)."""
    spans: list[TraceSpan] = []
    decisions: list[dict] = []
    per_span: dict[int | None, int] = {}
    profiles: list[dict] = []
    unknown: dict[str, int] = {}
    metrics = None
    for at, event in enumerate(events):
        wrong = wrong_fields(event)
        if wrong:
            raise ObservabilityError(f"event {at}: {wrong[0]}")
        kind = event.get("type")
        if kind == "span":
            still_open = event.get("t_end") is None
            spans.append(TraceSpan(
                sid=event.get("sid"),
                parent=event.get("parent"),
                name=event.get("name") or "?",
                t_start=event.get("t_start") or 0.0,
                dur_s=0.0 if still_open else event.get("dur_s") or 0.0,
                open=still_open,
                attrs=event.get("attrs") or {},
            ))
        elif kind == "decision":
            decisions.append(event)
            owner = event.get("span")
            per_span[owner] = per_span.get(owner, 0) + 1
        elif kind == "profile":
            profiles.append(event)
        elif kind == "metrics":
            metrics = event
        elif kind != "meta":
            label = kind if isinstance(kind, str) else "<missing>"
            unknown[label] = unknown.get(label, 0) + 1

    by_sid = {span.sid: span for span in spans}
    looped = parent_cycles(
        {span.sid: span.parent for span in spans if span.sid is not None}
    )
    roots: list[TraceSpan] = []
    children: dict[int, list[TraceSpan]] = {}
    for span in sorted(spans, key=lambda s: s.t_start):
        if span.parent is None or span.parent not in by_sid or span.sid in looped:
            roots.append(span)
        else:
            children.setdefault(span.parent, []).append(span)
    return TraceIndex(
        n_events=len(events),
        meta=trace_meta(events),
        spans=spans,
        roots=roots,
        children=children,
        by_sid=by_sid,
        decisions=decisions,
        decisions_per_span=per_span,
        profiles=profiles,
        unknown=unknown,
        metrics=metrics,
    )


# ----------------------------------------------------------------------
# Section data
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CriticalPathStep:
    """One span on the dominant path, root first."""

    sid: int | None
    name: str
    depth: int
    total_s: float
    #: Total minus the children's durations: time in the span's own code.
    self_s: float
    child_s: float
    #: Fraction of the path root's total (0.0 when the root lasted 0).
    share_of_root: float
    #: How many sibling spans competed at this step (including this one).
    siblings: int


def critical_path(index: TraceIndex) -> list[CriticalPathStep]:
    """The dominant path, root first (empty for a span-less trace).

    Starts at the longest root span and follows the longest child at
    every level (ties go to the earlier start).
    """
    if not index.roots:
        return []
    node = max(index.roots, key=lambda s: s.dur_s)
    root_total = node.dur_s
    siblings, depth = len(index.roots), 0
    path: list[CriticalPathStep] = []
    while True:
        kids = index.children.get(node.sid, [])
        child_s = sum(k.dur_s for k in kids)
        path.append(CriticalPathStep(
            sid=node.sid,
            name=node.name,
            depth=depth,
            total_s=node.dur_s,
            self_s=max(node.dur_s - child_s, 0.0),
            child_s=child_s,
            share_of_root=node.dur_s / root_total if root_total > 0 else 0.0,
            siblings=siblings,
        ))
        if not kids:
            return path
        node = max(kids, key=lambda s: s.dur_s)
        siblings, depth = len(kids), depth + 1


@dataclass
class ShardLane:
    """Lease-supervisor activity observed for one shard."""

    shard: int
    leases: int = 0
    done: int = 0
    heartbeats: int = 0
    expiries: int = 0
    redispatches: int = 0
    crashes: int = 0
    errors: int = 0
    rescues: int = 0


@dataclass
class ExecHealth:
    """What the campaign supervisor's ``exec`` decisions say about a run."""

    decisions: int = 0
    lanes: dict[int, ShardLane] = field(default_factory=dict)
    shard_plan: int = 0
    backend: str | None = None
    backend_abandoned: int = 0
    interrupted: int = 0
    resumes: int = 0
    resumed_entries: int = 0
    corrupt_checkpoint_lines: int = 0
    completed: bool = False
    completed_batches: int = 0
    completed_from_checkpoint: int = 0
    protocol_torn_lines: int = 0
    generation_fenced_lines: int = 0
    #: shard -> stderr tail of its last crash.
    crash_stderr: dict[int, str] = field(default_factory=dict)


#: lease decision action -> ShardLane counter it increments.
_LANE_ACTIONS = {
    "lease_grant": "leases",
    "lease_done": "done",
    "lease_expired": "expiries",
    "lease_error": "errors",
    "redispatch": "redispatches",
    "shard_crash": "crashes",
    "serial_fallback": "rescues",
}

#: actions whose attrs carry the lease's final heartbeat count.
_HEARTBEAT_ACTIONS = {"lease_done", "lease_expired", "lease_error", "shard_crash"}

#: run-level action -> ExecHealth counter it increments.
_RUN_COUNTERS = {
    "backend_abandoned": "backend_abandoned",
    "interrupted": "interrupted",
    "protocol_torn": "protocol_torn_lines",
    "generation_fenced": "generation_fenced_lines",
}


def exec_health(index: TraceIndex) -> ExecHealth:
    """Fold the trace's ``exec`` decisions into per-shard lanes and run
    figures.  Actions nothing folds (such as the batch-pool actions of
    older traces) still count as rows of the decisions table."""
    health = ExecHealth()
    for event in index.decisions:
        if event.get("category") != "exec":
            continue
        health.decisions += 1
        action = event.get("action")
        attrs = event.get("attrs") or {}
        shard = attrs.get("shard")
        if action in _LANE_ACTIONS:
            if shard is None:
                continue
            lane = health.lanes.setdefault(shard, ShardLane(shard))
            counter = _LANE_ACTIONS[action]
            setattr(lane, counter, getattr(lane, counter) + 1)
            if action in _HEARTBEAT_ACTIONS:
                lane.heartbeats += attrs.get("heartbeats") or 0
            if action == "shard_crash" and attrs.get("stderr_tail"):
                health.crash_stderr[shard] = attrs["stderr_tail"]
        elif action in _RUN_COUNTERS:
            counter = _RUN_COUNTERS[action]
            setattr(health, counter, getattr(health, counter) + 1)
        elif action == "shard_plan":
            health.shard_plan = attrs.get("shards") or 0
            health.backend = attrs.get("backend")
        elif action == "resume":
            health.resumes += 1
            health.resumed_entries += attrs.get("entries") or 0
            health.corrupt_checkpoint_lines += attrs.get("corrupt_lines") or 0
        elif action == "checkpoint_corrupt":
            health.corrupt_checkpoint_lines += attrs.get("lines") or 0
        elif action == "complete":
            health.completed = True
            health.completed_batches = attrs.get("batches") or 0
            health.completed_from_checkpoint = attrs.get("from_checkpoint") or 0
    return health


# ----------------------------------------------------------------------
# Sections
# ----------------------------------------------------------------------
def _ms(seconds: float) -> str:
    return f"{seconds * 1000:.2f}"


def _stage_timing(index: TraceIndex) -> str | None:
    from repro.metrics.report import format_table

    durations: dict[str, list[float]] = {}
    still_open: dict[str, int] = {}
    for span in index.spans:
        durations.setdefault(span.name, []).append(span.dur_s)
        if span.open:
            still_open[span.name] = still_open.get(span.name, 0) + 1
    if not durations:
        return None
    rows = [
        (
            name + (f" ({still_open[name]} open)" if name in still_open else ""),
            len(durs),
            _ms(sum(durs)),
            _ms(sum(durs) / len(durs)),
            _ms(max(durs)),
        )
        for name, durs in sorted(
            durations.items(), key=lambda kv: (-sum(kv[1]), kv[0])
        )
    ]
    text = format_table(
        ["span", "count", "total ms", "mean ms", "max ms"],
        rows,
        title="Per-stage timing",
    )
    if still_open:
        text += (
            f"\n\nnote: {sum(still_open.values())} span(s) still open when "
            "the trace was written; their durations count as 0"
        )
    return text


def _decision_table(index: TraceIndex) -> str | None:
    from repro.metrics.report import format_table

    counts: dict[tuple[str, str], int] = {}
    for event in index.decisions:
        key = (event.get("category") or "?", event.get("action") or "?")
        counts[key] = counts.get(key, 0) + 1
    if not counts:
        return None
    return format_table(
        ["category", "action", "decisions"],
        [(category, action, n) for (category, action), n in sorted(counts.items())],
        title="Decision events",
    )


def _critical_path(index: TraceIndex) -> str | None:
    from repro.metrics.report import format_table

    path = critical_path(index)
    if not path:
        return None
    rows = [
        (
            "  " * step.depth + step.name,
            _ms(step.total_s),
            _ms(step.self_s),
            _ms(step.child_s),
            f"{step.share_of_root * 100:.1f}%",
            step.siblings,
        )
        for step in path
    ]
    table = format_table(
        ["span", "total ms", "self ms", "child ms", "of root", "siblings"],
        rows,
        title="Critical path (dominant child at every level)",
    )
    hottest = max(path, key=lambda s: s.self_s)
    if path[0].total_s > 0:
        summary = (
            f"hottest self-time: {hottest.name} ({_ms(hottest.self_s)}ms, "
            f"{hottest.self_s / path[0].total_s * 100:.1f}% of root)"
        )
    else:
        summary = "root span has zero recorded duration"
    return table + "\n\n" + summary


def lease_health(index: TraceIndex) -> str | None:
    """The lease-health section (``repro report``, ``repro exec watch``)."""
    from repro.metrics.report import format_table

    health = exec_health(index)
    if not health.decisions:
        return None
    parts: list[str] = []
    if health.lanes:
        title = "Per-shard lease health"
        if health.backend:
            title += f" (backend: {health.backend})"
        parts.append(format_table(
            ["shard", "leases", "done", "heartbeats", "expiries", "redisp",
             "crashes", "errors", "rescues"],
            [
                (lane.shard, lane.leases, lane.done, lane.heartbeats,
                 lane.expiries, lane.redispatches, lane.crashes,
                 lane.errors, lane.rescues)
                for _, lane in sorted(health.lanes.items())
            ],
            title=title,
        ))
    if health.crash_stderr:
        lines = ["Crashed-shard stderr tails:"]
        for shard, tail in sorted(health.crash_stderr.items()):
            lines.append(f"  shard {shard}: {(tail.strip().splitlines() or [''])[-1]}")
        parts.append("\n".join(lines))
    summary = []
    if health.resumes:
        summary.append(
            f"resumes: {health.resumes} "
            f"({health.resumed_entries} checkpointed batches reused)"
        )
    if health.corrupt_checkpoint_lines:
        summary.append(
            f"corrupt checkpoint lines: {health.corrupt_checkpoint_lines}"
        )
    if health.lanes:
        summary.append(
            f"shards: {len(health.lanes)}"
            + (f" of {health.shard_plan} planned" if health.shard_plan else "")
        )
    if health.protocol_torn_lines:
        summary.append(f"torn protocol lines: {health.protocol_torn_lines}")
    if health.generation_fenced_lines:
        summary.append(
            f"generation-fenced lines: {health.generation_fenced_lines}"
        )
    if health.backend_abandoned:
        summary.append(f"backend abandoned: {health.backend_abandoned}x")
    if health.interrupted:
        summary.append(f"interrupted: {health.interrupted}x")
    if health.completed:
        summary.append(
            f"completed: {health.completed_batches} batches "
            f"({health.completed_from_checkpoint} from checkpoint)"
        )
    else:
        summary.append("completed: NO (no exec complete event in trace)")
    parts.append("exec: " + " · ".join(summary))
    return "\n\n".join(parts)


def _sampled_profile(index: TraceIndex, top: int) -> str | None:
    from repro.metrics.report import format_table

    if not index.profiles:
        return None
    self_samples: dict[str, int] = {}
    span_samples: dict[str, int] = {}
    total = 0
    hz = None
    for event in index.profiles:
        if event.get("kind") != "stacks":
            continue
        hz = hz or event.get("hz")
        owner = event.get("span")
        if owner is None:
            owner_name = "(no span)"
        elif owner in index.by_sid:
            owner_name = index.by_sid[owner].name
        else:
            owner_name = f"sid {owner}"
        for stack, count in (event.get("stacks") or {}).items():
            leaf = stack.rsplit(";", 1)[-1] or "?"
            self_samples[leaf] = self_samples.get(leaf, 0) + count
            span_samples[owner_name] = span_samples.get(owner_name, 0) + count
            total += count
    head = f"profile events: {len(index.profiles)} · "
    if not total:
        return head + "no stack samples recorded (run too short for the rate?)"
    period = 1.0 / float(hz) if hz else 0.0

    def rows(samples: dict[str, int]) -> list[tuple]:
        ranked = sorted(samples.items(), key=lambda kv: (-kv[1], kv[0]))[:top]
        return [
            (name, n, f"{100.0 * n / total:.1f}", f"{n * period:.3f}")
            for name, n in ranked
        ]

    return "\n\n".join([
        head + f"{total} stack samples at {hz:g} Hz "
        f"(~{total * period:.2f}s of sampled CPU time)",
        format_table(
            ["function", "samples", "self %", "est s"],
            rows(self_samples),
            title=f"Top {min(top, len(self_samples))} functions by self time",
        ),
        format_table(
            ["span", "samples", "share %", "est s"],
            rows(span_samples),
            title="Sample attribution by span",
        ),
    ])


def _process_resources(index: TraceIndex) -> str | None:
    from repro.metrics.report import format_table

    # Workers ship a cumulative summary, so the last one per process wins.
    latest: dict[tuple, dict] = {}
    for event in index.profiles:
        if event.get("kind") == "resource_summary":
            latest[(event.get("shard"), event.get("pid"))] = event
    if not latest:
        return None
    rows = []
    for key in sorted(latest, key=lambda k: (k[0] is None, k[0] or 0, k[1] or 0)):
        s = latest[key]
        shard = s.get("shard")
        rows.append((
            "sup" if shard is None or shard < 0 else shard,
            s.get("pid") or "-",
            f"{(s.get('rss_peak_bytes') or 0) / 1e6:.1f}",
            f"{s.get('cpu_s') or 0.0:.3f}",
            s.get("gc_collections") or 0,
            f"{(s.get('gc_pause_s') or 0.0) * 1000:.1f}",
            s.get("samples") or 0,
        ))
    return format_table(
        ["shard", "pid", "peak rss MB", "cpu s", "gc", "gc ms", "samples"],
        rows,
        title="Per-shard process resources",
    )


def _span_tree(index: TraceIndex) -> str | None:
    lines = ["Span tree"]
    for span, names in index.walk():
        suffix = " (open)" if span.open else ""
        n = index.decisions_per_span.get(span.sid, 0)
        if n:
            suffix += f"  [{n} decision{'s' if n != 1 else ''}]"
        indent = "  " * (len(names) - 1)
        lines.append(f"{indent}{span.name}  {_ms(span.dur_s)}ms{suffix}")
    return "\n".join(lines) if len(lines) > 1 else None


def render_report(index: TraceIndex, tree: bool = False, top: int = 15) -> str:
    """The ``repro report`` text: every section the trace has data for.

    ``top`` caps the rows of the sampled-profile tables; ``tree`` adds
    the indented span tree.
    """
    if not index.n_events:
        return "trace is empty (no events)"
    sections = [
        _stage_timing(index),
        _decision_table(index),
        _critical_path(index),
        lease_health(index),
        _sampled_profile(index, top),
        _process_resources(index),
        _span_tree(index) if tree else None,
    ]
    if index.unknown:
        detail = ", ".join(
            f"{kind} x{n}" for kind, n in sorted(index.unknown.items())
        )
        sections.append(
            f"note: {sum(index.unknown.values())} event(s) of unknown kind "
            f"skipped ({detail}) — written by a newer repro?"
        )
    text = "\n\n".join(s for s in sections if s)
    return text or "trace contains no spans"
