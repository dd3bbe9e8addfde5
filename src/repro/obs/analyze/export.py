"""Trace exporters: Chrome trace-event JSON and collapsed flamegraph stacks.

Two lingua-franca formats so repro traces plug into standard tooling:

* **Chrome trace-event JSON** (``--format chrome``) — loadable in
  Perfetto (https://ui.perfetto.dev) or ``chrome://tracing``.  Spans
  become complete (``"ph": "X"``) events with microsecond timestamps;
  decision events become instant (``"ph": "i"``) events pinned to their
  owning span's start, with category/action/reason in ``args``.
* **Collapsed stacks** (``--format collapsed``) — Brendan Gregg's
  ``flamegraph.pl`` / speedscope input: one ``root;child;leaf value``
  line per distinct span stack, where the value is the stack's **self
  time** in integer microseconds.  Self time (not total) keeps the
  flamegraph's invariant that a frame's width equals its samples.

Traces recorded with ``--profile`` additionally carry sampled-stack
``profile`` events: the collapsed export emits them under a separate
``profile`` root (one line per sampled Python stack, weighted by
``count / hz`` in microseconds) so the span flamegraph's width
invariant is preserved, and the Chrome export renders the resource
time series as counter (``"ph": "C"``) tracks.
"""

from __future__ import annotations

from repro.obs.report import TraceIndex

_US = 1_000_000.0


def to_chrome_trace(index: TraceIndex) -> dict:
    """A Chrome trace-event document (``json.dump`` it to a file)."""
    trace_events: list[dict] = []
    for span in index.spans:
        record = {
            "name": span.name,
            "cat": "span",
            "ph": "X",
            "ts": span.t_start * _US,
            "dur": span.dur_s * _US,
            "pid": 1,
            "tid": 1,
        }
        args = dict(span.attrs)
        if span.open:
            args["open"] = True
        if args:
            record["args"] = args
        trace_events.append(record)
    for event in index.decisions:
        owner = index.by_sid.get(event.get("span"))
        ts = owner.t_start if owner is not None else 0.0
        trace_events.append(
            {
                "name": f"{event.get('category', '?')}.{event.get('action', '?')}",
                "cat": "decision",
                "ph": "i",
                "ts": ts * _US,
                "s": "t",
                "pid": 1,
                "tid": 1,
                "args": {
                    "subject": event.get("subject", ""),
                    "reason": event.get("reason", ""),
                    **(event.get("attrs") or {}),
                },
            }
        )
    for event in index.profiles:
        kind = event.get("kind")
        if kind == "resource":
            trace_events.append({
                "name": "process.rss",
                "cat": "profile",
                "ph": "C",
                "ts": (event.get("t") or 0.0) * _US,
                "pid": 1,
                "tid": 1,
                "args": {"rss_bytes": event.get("rss_bytes", 0)},
            })
            trace_events.append({
                "name": "process.cpu",
                "cat": "profile",
                "ph": "C",
                "ts": (event.get("t") or 0.0) * _US,
                "pid": 1,
                "tid": 1,
                "args": {
                    "user_s": event.get("cpu_user_s", 0.0),
                    "sys_s": event.get("cpu_sys_s", 0.0),
                },
            })
        elif kind == "resource_summary":
            shard = event.get("shard")
            name = (
                "profile.resources"
                if shard is None
                else f"profile.resources.shard{shard}"
            )
            trace_events.append({
                "name": name,
                "cat": "profile",
                "ph": "i",
                "ts": 0.0,
                "s": "g",
                "pid": 1,
                "tid": 1,
                "args": {
                    k: v for k, v in event.items()
                    if k not in ("type", "kind")
                },
            })
    document = {
        "traceEvents": trace_events,
        "displayTimeUnit": "ms",
    }
    if index.meta is not None and index.meta.get("provenance"):
        document["otherData"] = index.meta["provenance"]
    return document


def to_collapsed_stacks(index: TraceIndex) -> str:
    """Collapsed-stack text (``flamegraph.pl`` input), sorted by stack.

    Stacks with zero integer-microsecond self time are dropped — they
    would render as zero-width frames anyway.
    """
    totals: dict[str, int] = {}
    for span, names in index.walk():
        stack = ";".join(name.replace(";", ",") for name in names)
        child_s = sum(k.dur_s for k in index.children.get(span.sid, ()))
        self_us = int(round(max(span.dur_s - child_s, 0.0) * _US))
        if self_us > 0:
            totals[stack] = totals.get(stack, 0) + self_us
    # Sampled Python stacks from profile events land under their own
    # ``profile`` root, weighted by sample count / rate, so they never
    # distort the span tree's width invariant above.
    for event in index.profiles:
        if event.get("kind") != "stacks":
            continue
        hz = float(event.get("hz") or 0.0)
        if hz <= 0:
            continue
        owner = event.get("span")
        if owner is None:
            owner_name = "unattributed"
        elif owner in index.by_sid:
            owner_name = index.by_sid[owner].name.replace(";", ",")
        else:
            owner_name = f"sid{owner}"
        for stack, count in (event.get("stacks") or {}).items():
            value = int(round(count * _US / hz))
            if value <= 0:
                continue
            key = f"profile;{owner_name};{stack}"
            totals[key] = totals.get(key, 0) + value
    return "\n".join(f"{stack} {value}" for stack, value in sorted(totals.items()))
