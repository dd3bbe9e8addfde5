"""The report's critical path: dominant-path walk, self vs child time."""

from repro.obs import Recorder, index_trace, render_report, use
from repro.obs.report import critical_path as _critical_path


def critical_path(events):
    return _critical_path(index_trace(events))


def _span(sid, parent, name, t0, t1, depth=0):
    return {
        "type": "span",
        "sid": sid,
        "parent": parent,
        "name": name,
        "depth": depth,
        "t_start": t0,
        "t_end": t1,
        "dur_s": (t1 - t0) if t1 is not None else 0.0,
    }


def _tree_events():
    # root (10ms): a (6ms: a1 4ms) and b (3ms)
    return [
        {"type": "meta", "format": "repro-trace", "version": 2,
         "provenance": {"repro_version": "x", "python": "y", "machine": "z"}},
        _span(1, None, "root", 0.000, 0.010),
        _span(2, 1, "a", 0.000, 0.006, depth=1),
        _span(3, 2, "a1", 0.001, 0.005, depth=2),
        _span(4, 1, "b", 0.006, 0.009, depth=1),
    ]


class TestCriticalPath:
    def test_follows_dominant_child(self):
        path = critical_path(_tree_events())
        assert [step.name for step in path] == ["root", "a", "a1"]

    def test_self_time_excludes_children(self):
        path = critical_path(_tree_events())
        by_name = {step.name: step for step in path}
        assert abs(by_name["root"].self_s - 0.001) < 1e-9  # 10 - (6 + 3)
        assert abs(by_name["a"].self_s - 0.002) < 1e-9  # 6 - 4
        assert abs(by_name["a1"].self_s - 0.004) < 1e-9  # leaf

    def test_share_of_root(self):
        path = critical_path(_tree_events())
        assert path[0].share_of_root == 1.0
        assert abs(path[1].share_of_root - 0.6) < 1e-9

    def test_sibling_counts(self):
        path = critical_path(_tree_events())
        assert path[0].siblings == 1  # one root
        assert path[1].siblings == 2  # a competed with b

    def test_empty_trace(self):
        assert critical_path([]) == []
        assert render_report(index_trace([])) == "trace is empty (no events)"

    def test_meta_only_trace(self):
        events = [{"type": "meta", "format": "repro-trace", "version": 1}]
        assert critical_path(events) == []
        assert render_report(index_trace(events)) == "trace contains no spans"

    def test_open_spans_count_as_zero(self):
        events = [
            _span(1, None, "root", 0.0, 0.010),
            _span(2, 1, "open-child", 0.001, None, depth=1),
            _span(3, 1, "closed-child", 0.002, 0.006, depth=1),
        ]
        path = critical_path(events)
        assert [step.name for step in path] == ["root", "closed-child"]

    def test_orphan_parent_promoted_to_root(self):
        events = [_span(7, 99, "orphan", 0.0, 0.004)]
        assert [r.name for r in index_trace(events).roots] == ["orphan"]
        assert critical_path(events)[0].name == "orphan"

    def test_render_includes_hottest_self_time(self):
        text = render_report(index_trace(_tree_events()))
        assert "Critical path" in text
        assert "hottest self-time: a1" in text

    def test_multiple_roots_picks_longest(self):
        events = [
            _span(1, None, "short", 0.0, 0.001),
            _span(2, None, "long", 0.001, 0.010),
        ]
        assert critical_path(events)[0].name == "long"


class TestOnRealPipeline:
    def test_pipeline_trace_has_pipeline_root(self):
        from repro.allocation.hw_model import fully_connected
        from repro.core.framework import IntegrationFramework
        from repro.workloads import HW_NODE_COUNT, paper_system

        rec = Recorder()
        with use(rec):
            IntegrationFramework(paper_system()).integrate(
                fully_connected(HW_NODE_COUNT)
            )
        path = critical_path(rec.events())
        assert path[0].name == "pipeline"
        assert len(path) >= 2
        # The stage chosen at depth 1 is one of the five pipeline stages.
        from repro.obs import PIPELINE_STAGES

        assert path[1].name in PIPELINE_STAGES
