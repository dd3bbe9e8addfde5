"""Trace diffing: path alignment, noise gating, provenance refusal."""

from repro.obs import Recorder, index_trace, use
from repro.obs.analyze import render_diff
from repro.obs.analyze import comparability_problems as _comparability
from repro.obs.analyze import diff_traces as _diff_traces
from repro.obs.analyze import span_path_stats as _span_path_stats


def span_path_stats(events):
    return _span_path_stats(index_trace(events))


def comparability_problems(events_a, events_b):
    return _comparability(index_trace(events_a), index_trace(events_b))


def diff_traces(events_a, events_b):
    return _diff_traces(index_trace(events_a), index_trace(events_b))


def _span(sid, parent, name, t0, t1):
    return {
        "type": "span",
        "sid": sid,
        "parent": parent,
        "name": name,
        "depth": 0,
        "t_start": t0,
        "t_end": t1,
        "dur_s": t1 - t0,
    }


def _meta(workload=None, **over):
    provenance = {
        "repro_version": "1.0.0",
        "python": "3.11.7",
        "machine": "abc",
        "git_sha": None,
    }
    if workload is not None:
        provenance["workload"] = workload
    meta = {
        "type": "meta",
        "format": "repro-trace",
        "version": 2,
        "provenance": provenance,
    }
    meta.update(over)
    return meta


def _trace(condense_s=0.010, workload="paper"):
    return [
        _meta(workload=workload),
        _span(1, None, "pipeline", 0.0, 0.002 + condense_s),
        _span(2, 1, "audit", 0.0, 0.001),
        _span(3, 1, "condense", 0.001, 0.001 + condense_s),
    ]


class TestPathStats:
    def test_paths_are_rooted(self):
        stats = span_path_stats(_trace())
        assert set(stats) == {"pipeline", "pipeline/audit", "pipeline/condense"}

    def test_counts_and_totals_aggregate(self):
        events = _trace()
        events.append(_span(4, 1, "condense", 0.02, 0.025))
        count, total = span_path_stats(events)["pipeline/condense"]
        assert count == 2
        assert abs(total - 0.015) < 1e-9

    def test_same_name_different_parent_not_aliased(self):
        events = [
            _span(1, None, "a", 0.0, 0.01),
            _span(2, 1, "score", 0.0, 0.005),
            _span(3, None, "b", 0.01, 0.02),
            _span(4, 3, "score", 0.01, 0.015),
        ]
        stats = span_path_stats(events)
        assert "a/score" in stats and "b/score" in stats


class TestDiff:
    def test_identical_traces_no_regression(self):
        diff = diff_traces(_trace(), _trace())
        assert not diff.regression
        assert diff.improvements == []

    def test_detects_2x_slowdown_in_one_stage(self):
        diff = diff_traces(_trace(condense_s=0.010), _trace(condense_s=0.020))
        regressed = {s.path for s in diff.regressions}
        assert "pipeline/condense" in regressed
        delta = next(
            s for s in diff.regressions if s.path == "pipeline/condense"
        )
        assert abs(delta.ratio - 2.0) < 1e-6

    def test_noise_floor_suppresses_tiny_ratios(self):
        # 3x ratio, but only 0.2ms absolute growth: below the 0.5ms floor.
        a = [_span(1, None, "tiny", 0.0, 0.0001)]
        b = [_span(1, None, "tiny", 0.0, 0.0003)]
        assert not diff_traces(a, b).regression

    def test_threshold_suppresses_small_relative_growth(self):
        # +10% on a 100ms stage is under the default 20% threshold.
        a = [_span(1, None, "big", 0.0, 0.100)]
        b = [_span(1, None, "big", 0.0, 0.110)]
        assert not diff_traces(a, b).regression

    def test_improvement_reported_not_failed(self):
        diff = diff_traces(_trace(condense_s=0.020), _trace(condense_s=0.010))
        assert not diff.regression
        assert "pipeline/condense" in {s.path for s in diff.improvements}

    def test_added_stage_with_time_is_regression(self):
        a = _trace()
        b = _trace()
        b.append(_span(9, 1, "new-stage", 0.03, 0.05))
        diff = diff_traces(a, b)
        assert "pipeline/new-stage" in {s.path for s in diff.added}
        assert "pipeline/new-stage" in {s.path for s in diff.regressions}

    def test_removed_stage_reported(self):
        a = _trace()
        b = [e for e in _trace() if e.get("name") != "audit"]
        diff = diff_traces(a, b)
        assert "pipeline/audit" in {s.path for s in diff.removed}

    def test_count_delta_visible(self):
        a = _trace()
        b = _trace()
        b.append(_span(4, 1, "condense", 0.02, 0.021))
        diff = diff_traces(a, b)
        condense = next(
            s for s in diff.stages if s.path == "pipeline/condense"
        )
        assert (condense.count_a, condense.count_b) == (1, 2)

    def test_render_mentions_regressions(self):
        diff = diff_traces(_trace(condense_s=0.010), _trace(condense_s=0.020))
        text = render_diff(diff)
        assert "REGRESSION" in text
        assert "pipeline/condense" in text


class TestComparability:
    def test_same_workload_comparable(self):
        refusals, _ = comparability_problems(_trace(), _trace())
        assert refusals == []

    def test_different_workloads_refused(self):
        refusals, _ = comparability_problems(
            _trace(workload="paper"), _trace(workload="avionics")
        )
        assert any("workload" in r for r in refusals)

    def test_different_formats_refused(self):
        other = _trace()
        other[0] = dict(other[0], format="not-a-trace")
        refusals, _ = comparability_problems(_trace(), other)
        assert any("format" in r for r in refusals)

    def test_unnamed_workload_comparable_with_named(self):
        refusals, _ = comparability_problems(
            _trace(workload=None), _trace(workload="paper")
        )
        assert refusals == []

    def test_python_mismatch_is_warning_only(self):
        other = _trace()
        other[0]["provenance"] = dict(other[0]["provenance"], python="3.12.0")
        refusals, warnings = comparability_problems(_trace(), other)
        assert refusals == []
        assert any("python" in w for w in warnings)

    def test_missing_meta_is_warning_only(self):
        refusals, warnings = comparability_problems(
            _trace()[1:], _trace()
        )
        assert refusals == []
        assert warnings


class TestAcceptance:
    """ISSUE 4 acceptance: injected 2x slowdown on recorded paper traces."""

    @staticmethod
    def _record_paper_trace():
        from repro.allocation.hw_model import fully_connected
        from repro.core.framework import IntegrationFramework
        from repro.workloads import HW_NODE_COUNT, paper_system

        rec = Recorder()
        rec.set_provenance(workload="paper")
        with use(rec):
            IntegrationFramework(paper_system()).integrate(
                fully_connected(HW_NODE_COUNT)
            )
        return rec.events()

    def test_injected_condense_slowdown_detected(self):
        import copy

        from repro.obs.analyze.diff import DEFAULT_MIN_DELTA_S

        events_a = self._record_paper_trace()
        # B is A plus the injected regression and nothing else, so no
        # run-to-run noise (a cold first run, a busy host) can hide it.
        events_b = copy.deepcopy(events_a)
        # Inject a 2x slowdown into the condense stage of B (and grow
        # the parent pipeline span by the same delta, as a real
        # slowdown would).  A condense recorded under the noise gate
        # gets an absolute delta that clears it; the gate stays as is.
        for event in events_b:
            if event.get("type") == "span" and event["name"] == "condense":
                injected = max(event["dur_s"], 2 * DEFAULT_MIN_DELTA_S)
                event["dur_s"] += injected
                event["t_end"] += injected
        for event in events_b:
            if event.get("type") == "span" and event["name"] == "pipeline":
                event["dur_s"] += injected
                event["t_end"] += injected
        diff = diff_traces(events_a, events_b)
        assert diff.regression
        assert "pipeline/condense" in {s.path for s in diff.regressions}
