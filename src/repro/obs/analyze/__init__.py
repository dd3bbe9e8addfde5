"""repro.obs.analyze — the read side of the observability stack.

:mod:`repro.obs` captures spans, metrics and decision events as NDJSON,
and :mod:`repro.obs.report` reads one trace back (``repro report``);
this package compares and converts the captured artifacts:

* :mod:`~repro.obs.analyze.diff` — align two traces by span path and
  report per-stage wall-time / count deltas with a noise threshold,
  refusing to compare incomparable runs (provenance check);
* :mod:`~repro.obs.analyze.export` — Chrome trace-event JSON (loadable
  in Perfetto / ``chrome://tracing``) and collapsed-stack output for
  flamegraph tooling;
* :mod:`~repro.obs.analyze.bench` — benchmark history and the
  baseline-vs-latest regression gate behind ``repro bench check``.

The trace tools read the :class:`~repro.obs.report.TraceIndex` that
:func:`repro.obs.index_trace` builds from the events of
:func:`repro.obs.load_ndjson` or :meth:`repro.obs.Recorder.events`, so
they run identically on live recorders and on files.
"""

from repro.obs.analyze.bench import (
    BenchCheck,
    BenchFinding,
    append_history,
    check_bench,
    load_baseline,
    render_bench_check,
    write_baseline,
)
from repro.obs.analyze.diff import (
    StageDelta,
    TraceDiff,
    comparability_problems,
    diff_traces,
    render_diff,
    span_path_stats,
)
from repro.obs.analyze.export import (
    to_chrome_trace,
    to_collapsed_stacks,
)

__all__ = [
    "BenchCheck",
    "BenchFinding",
    "StageDelta",
    "TraceDiff",
    "append_history",
    "check_bench",
    "comparability_problems",
    "diff_traces",
    "load_baseline",
    "render_bench_check",
    "render_diff",
    "span_path_stats",
    "to_chrome_trace",
    "to_collapsed_stacks",
    "write_baseline",
]
