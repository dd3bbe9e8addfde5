"""Trace diffing: per-stage wall-time and count deltas with a noise gate.

``repro trace diff A B`` treats A as the baseline and B as the
candidate.  Spans are aligned by **path** — the ``/``-joined chain of
span names from the root (``pipeline/condense``), so a ``score`` span
inside the pipeline never aliases a ``score`` span elsewhere — and each
path's wall time and span count are compared.

Noise gating is two-sided: a path only counts as a regression when its
time grew by more than ``threshold`` (relative) **and** by more than
``min_delta_s`` (absolute), so microsecond jitter on tiny stages cannot
fail a gate however large its ratio is.

Version-2 traces carry provenance; :func:`comparability_problems`
refuses to diff runs of different workloads or trace formats (different
python versions or machines are reported as warnings, not refusals).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.obs.report import TraceIndex

#: Default relative growth considered real (20%).
DEFAULT_THRESHOLD = 0.20
#: Default absolute growth considered real (0.5ms).
DEFAULT_MIN_DELTA_S = 0.0005


@dataclass(frozen=True)
class StageDelta:
    """One span path compared across the two traces."""

    path: str
    count_a: int
    count_b: int
    total_a_s: float
    total_b_s: float

    @property
    def delta_s(self) -> float:
        return self.total_b_s - self.total_a_s

    @property
    def ratio(self) -> float | None:
        """total_b / total_a, or None when the baseline time is zero."""
        if self.total_a_s <= 0.0:
            return None
        return self.total_b_s / self.total_a_s


@dataclass
class TraceDiff:
    """The full comparison; ``regression`` drives the exit code."""

    stages: list[StageDelta]
    regressions: list[StageDelta]
    improvements: list[StageDelta]
    added: list[StageDelta]
    removed: list[StageDelta]
    threshold: float
    min_delta_s: float
    warnings: list[str] = field(default_factory=list)

    @property
    def regression(self) -> bool:
        return bool(self.regressions)


def span_path_stats(index: TraceIndex) -> dict[str, tuple[int, float]]:
    """``path -> (span count, total seconds)`` for one trace."""
    stats: dict[str, tuple[int, float]] = {}
    for span, names in index.walk():
        path = "/".join(names)
        count, total = stats.get(path, (0, 0.0))
        stats[path] = (count + 1, total + span.dur_s)
    return stats


def comparability_problems(
    index_a: TraceIndex, index_b: TraceIndex
) -> tuple[list[str], list[str]]:
    """(refusals, warnings) from the two traces' meta/provenance.

    Refusals: different trace formats, or both traces name a workload
    and the names differ.  Warnings: missing meta, differing python
    versions, machines or repro versions — comparable, but noisier.
    """
    refusals: list[str] = []
    warnings: list[str] = []
    meta_a, meta_b = index_a.meta, index_b.meta
    if meta_a is None or meta_b is None:
        warnings.append("one or both traces have no meta line; provenance unchecked")
        return refusals, warnings
    fmt_a, fmt_b = meta_a.get("format"), meta_b.get("format")
    if fmt_a != fmt_b:
        refusals.append(f"trace formats differ: {fmt_a!r} vs {fmt_b!r}")
    prov_a = meta_a.get("provenance") or {}
    prov_b = meta_b.get("provenance") or {}
    wl_a, wl_b = prov_a.get("workload"), prov_b.get("workload")
    if wl_a is not None and wl_b is not None and wl_a != wl_b:
        refusals.append(
            f"traces record different workloads: {wl_a!r} vs {wl_b!r}"
        )
    for key in ("python", "machine", "repro_version"):
        va, vb = prov_a.get(key), prov_b.get(key)
        if va is not None and vb is not None and va != vb:
            warnings.append(f"{key} differs: {va!r} vs {vb!r}")
    if (meta_a.get("version") or 1) != (meta_b.get("version") or 1):
        warnings.append(
            f"trace format versions differ: "
            f"{meta_a.get('version')} vs {meta_b.get('version')}"
        )
    return refusals, warnings


def diff_traces(
    index_a: TraceIndex,
    index_b: TraceIndex,
    threshold: float = DEFAULT_THRESHOLD,
    min_delta_s: float = DEFAULT_MIN_DELTA_S,
) -> TraceDiff:
    """Compare candidate B against baseline A (see module docstring).

    Provenance refusals are *not* applied here — the caller decides
    (the CLI refuses unless ``--force``); they are surfaced via
    :func:`comparability_problems`.
    """
    stats_a = span_path_stats(index_a)
    stats_b = span_path_stats(index_b)
    _, warnings = comparability_problems(index_a, index_b)

    stages: list[StageDelta] = []
    for path in sorted(set(stats_a) | set(stats_b)):
        count_a, total_a = stats_a.get(path, (0, 0.0))
        count_b, total_b = stats_b.get(path, (0, 0.0))
        stages.append(
            StageDelta(
                path=path,
                count_a=count_a,
                count_b=count_b,
                total_a_s=total_a,
                total_b_s=total_b,
            )
        )

    regressions, improvements, added, removed = [], [], [], []
    for stage in stages:
        if stage.count_a == 0:
            added.append(stage)
            if stage.total_b_s > min_delta_s:
                regressions.append(stage)
            continue
        if stage.count_b == 0:
            removed.append(stage)
            continue
        grew = stage.delta_s > min_delta_s and (
            stage.total_b_s > stage.total_a_s * (1.0 + threshold)
        )
        shrank = -stage.delta_s > min_delta_s and (
            stage.total_b_s < stage.total_a_s * (1.0 - min(threshold, 0.999))
        )
        if grew:
            regressions.append(stage)
        elif shrank:
            improvements.append(stage)
    return TraceDiff(
        stages=stages,
        regressions=regressions,
        improvements=improvements,
        added=added,
        removed=removed,
        threshold=threshold,
        min_delta_s=min_delta_s,
        warnings=warnings,
    )


def _fmt_ratio(stage: StageDelta) -> str:
    ratio = stage.ratio
    if ratio is None:
        return "new" if stage.count_a == 0 else "-"
    return f"{ratio:.2f}x"


def render_diff(diff: TraceDiff) -> str:
    """The ``repro trace diff`` report."""
    from repro.metrics.report import format_table

    if not diff.stages:
        return "both traces contain no spans"
    flags = {id(s): "" for s in diff.stages}
    for s in diff.regressions:
        flags[id(s)] = "REGRESSION"
    for s in diff.improvements:
        flags[id(s)] = "improved"
    for s in diff.removed:
        flags[id(s)] = "removed"
    rows = [
        (
            s.path,
            f"{s.total_a_s * 1000:.2f}",
            f"{s.total_b_s * 1000:.2f}",
            f"{s.delta_s * 1000:+.2f}",
            _fmt_ratio(s),
            f"{s.count_a}->{s.count_b}" if s.count_a != s.count_b else s.count_a,
            flags[id(s)],
        )
        for s in diff.stages
    ]
    lines = [
        format_table(
            ["path", "A ms", "B ms", "delta ms", "ratio", "count", ""],
            rows,
            title=(
                f"Trace diff (threshold {diff.threshold * 100:.0f}%, "
                f"noise floor {diff.min_delta_s * 1000:.2f}ms)"
            ),
        )
    ]
    for warning in diff.warnings:
        lines.append(f"warning: {warning}")
    lines.append(
        f"{len(diff.regressions)} regression(s), "
        f"{len(diff.improvements)} improvement(s), "
        f"{len(diff.added)} added, {len(diff.removed)} removed"
    )
    return "\n".join(lines)
