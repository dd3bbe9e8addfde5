"""repro.obs — dependency-free observability for the DDSI pipeline.

Three record kinds over one ambient :class:`Recorder`:

* **spans** — nested wall-time intervals per pipeline stage / hot path;
* **metrics** — counters, gauges, fixed-bucket histograms with labels;
* **decision events** — what the pipeline chose, with reasons.

One sink per run: :meth:`Recorder.open_sink` streams the trace to a
file as records close, and :meth:`Recorder.close` ends it with a
``metrics`` record holding the metrics snapshot.

Disabled by default: library instrumentation talks to
:data:`NULL_RECORDER` (every call a no-op) unless a real recorder is
installed with :func:`use`.  See ``docs/OBSERVABILITY.md`` for the trace
schema and the metric-name catalogue.
"""

from repro.obs.metrics import (
    DEFAULT_COUNT_BUCKETS,
    DEFAULT_TIME_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.ndjson import (
    dump_ndjson,
    load_live_trace,
    load_ndjson,
    trace_meta,
    unknown_kind_counts,
    validate_trace,
)
from repro.obs.profile import (
    DEFAULT_PROFILE_HZ,
    Profiler,
    ResourceProbe,
    process_metrics_snapshot,
)
from repro.obs.provenance import collect_provenance, machine_fingerprint
from repro.obs.recorder import (
    NULL_RECORDER,
    DecisionEvent,
    NullRecorder,
    Recorder,
    Span,
    current,
    use,
)
from repro.obs.telemetry import (
    LeaseTelemetry,
    TelemetryMerger,
    make_context,
    mint_run_id,
)
from repro.obs.report import (
    TraceIndex,
    index_trace,
    lease_health,
    render_report,
)
from repro.obs.summarize import PIPELINE_STAGES, stage_footer

__all__ = [
    "DEFAULT_COUNT_BUCKETS",
    "DEFAULT_PROFILE_HZ",
    "DEFAULT_TIME_BUCKETS",
    "NULL_RECORDER",
    "PIPELINE_STAGES",
    "Counter",
    "DecisionEvent",
    "Gauge",
    "Histogram",
    "LeaseTelemetry",
    "MetricsRegistry",
    "NullRecorder",
    "Profiler",
    "Recorder",
    "ResourceProbe",
    "Span",
    "TelemetryMerger",
    "TraceIndex",
    "collect_provenance",
    "current",
    "dump_ndjson",
    "index_trace",
    "lease_health",
    "load_live_trace",
    "load_ndjson",
    "machine_fingerprint",
    "make_context",
    "mint_run_id",
    "process_metrics_snapshot",
    "render_report",
    "stage_footer",
    "trace_meta",
    "unknown_kind_counts",
    "use",
    "validate_trace",
]
