"""The ``-v`` stage-timing footer, read off the live recorder.

Recorded traces are read back by :mod:`repro.obs.report`.
"""

from __future__ import annotations

#: The pipeline stage spans, in execution order, used by the footer.
PIPELINE_STAGES = ("audit", "expand", "condense", "map", "score")


def stage_footer(recorder) -> str:
    """One-line ``stages: audit 2ms · condense 14ms · ...`` summary.

    Reads the live recorder (not a file): picks the children of the
    outermost ``pipeline`` span, in execution order.  Returns ``""`` when
    no pipeline span was recorded.
    """
    pipeline = next((s for s in recorder.spans if s.name == "pipeline"), None)
    if pipeline is None:
        return ""
    stages = [
        s for s in recorder.spans
        if s.parent == pipeline.sid and s.name in PIPELINE_STAGES
    ]
    if not stages:
        return ""
    parts = [f"{s.name} {s.duration * 1000:.0f}ms" for s in stages]
    return "stages: " + " · ".join(parts)
