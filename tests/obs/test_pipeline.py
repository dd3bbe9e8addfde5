"""End-to-end instrumentation: stage spans, decisions, campaign metrics."""

import pytest

from repro.allocation.hw_model import fully_connected
from repro.core.framework import FrameworkOptions, Heuristic, IntegrationFramework
from repro.obs import (
    PIPELINE_STAGES,
    Recorder,
    index_trace,
    render_report,
    stage_footer,
    use,
    validate_trace,
)
from repro.workloads import HW_NODE_COUNT, paper_system


@pytest.fixture
def recorded_pipeline():
    rec = Recorder()
    framework = IntegrationFramework(
        paper_system(), FrameworkOptions(heuristic=Heuristic.H1)
    )
    with use(rec):
        outcome = framework.integrate(fully_connected(HW_NODE_COUNT))
        framework.validate_by_campaign(outcome, trials=50, seed=0)
    rec.close()
    return rec


class TestPipelineSpans:
    def test_all_five_stages_nested_under_pipeline(self, recorded_pipeline):
        spans = {s.name: s for s in recorded_pipeline.spans}
        pipeline = spans["pipeline"]
        for stage in PIPELINE_STAGES:
            assert stage in spans, f"missing stage span {stage!r}"
            assert spans[stage].parent == pipeline.sid
            assert spans[stage].t_end is not None

    def test_trace_validates(self, recorded_pipeline):
        assert validate_trace(recorded_pipeline.events()) == []

    def test_at_least_three_decisions(self, recorded_pipeline):
        assert len(recorded_pipeline.decisions) >= 3

    def test_condense_and_map_decisions_present(self, recorded_pipeline):
        text = render_report(index_trace(recorded_pipeline.events()))
        assert "condense  merge" in text
        assert "map       place" in text

    def test_campaign_span_and_metrics(self, recorded_pipeline):
        spans = {s.name for s in recorded_pipeline.spans}
        assert "faultsim.campaign" in spans
        metrics = recorded_pipeline.metrics.snapshot()["metrics"]
        series = metrics["faultsim_trials_total"]["series"]
        assert sum(series.values()) == 50.0
        assert "faultsim_affected_fcms" in metrics

    def test_rule_check_counters_and_decision(self):
        # The R1-R5 checkers are a standalone composition API; verify
        # they label the shared counter and emit a retest decision.
        from repro.composition import check_r2_unparented, retest_set

        system = paper_system()
        process = system.processes()[0].name
        rec = Recorder()
        with use(rec):
            retest_set(system.hierarchy, process)
            check_r2_unparented(system.hierarchy, [process])
        series = rec.metrics.snapshot()["metrics"]["rule_checks_total"]["series"]
        assert series.get("outcome=ok,rule=R5") == 1.0
        assert any("rule=R2" in key for key in series)
        assert any(d.action == "retest" for d in rec.decisions)


class TestSummaries:
    def test_summarize_orders_by_total_time(self, recorded_pipeline):
        text = render_report(index_trace(recorded_pipeline.events()))
        rows = text.split("Per-stage timing\n")[1].split("\n\n")[0]
        rows = [line.split() for line in rows.splitlines()[2:]]
        totals = [float(row[2]) for row in rows]
        assert totals == sorted(totals, reverse=True)
        # The pipeline root encloses each stage nested under it (the
        # campaign is a second root, so no ordering between roots holds).
        total_of = {row[0]: float(row[2]) for row in rows}
        for stage in PIPELINE_STAGES:
            assert total_of["pipeline"] >= total_of[stage]

    def test_render_summary_has_stage_rows(self, recorded_pipeline):
        text = render_report(index_trace(recorded_pipeline.events()))
        for stage in PIPELINE_STAGES:
            assert stage in text
        assert "Decision events" in text

    def test_render_tree_indents_children(self, recorded_pipeline):
        text = render_report(index_trace(recorded_pipeline.events()), tree=True)
        lines = text.split("Span tree\n")[1].splitlines()
        assert lines[0].startswith("pipeline")
        assert any(line.startswith("  audit") for line in lines)

    def test_stage_footer_format(self, recorded_pipeline):
        footer = stage_footer(recorded_pipeline)
        assert footer.startswith("stages: audit ")
        assert " · " in footer
        assert footer.count("ms") == len(PIPELINE_STAGES)

    def test_stage_footer_empty_without_pipeline_span(self):
        assert stage_footer(Recorder()) == ""


class TestCampaignTiming:
    def test_faultsim_reports_elapsed_and_rate(self):
        framework = IntegrationFramework(paper_system())
        outcome = framework.integrate(fully_connected(HW_NODE_COUNT))
        campaign = framework.validate_by_campaign(outcome, trials=50, seed=0)
        assert campaign.elapsed_s > 0.0
        assert campaign.trials_per_s > 0.0

    def test_timing_excluded_from_equality(self):
        framework = IntegrationFramework(paper_system())
        outcome = framework.integrate(fully_connected(HW_NODE_COUNT))
        first = framework.validate_by_campaign(outcome, trials=50, seed=0)
        second = framework.validate_by_campaign(outcome, trials=50, seed=0)
        assert first == second  # wall time differs; results must not

    def test_resilience_reports_elapsed_and_rate(self):
        from repro.resilience.campaign import run_resilience_campaign

        framework = IntegrationFramework(paper_system())
        outcome = framework.integrate(fully_connected(HW_NODE_COUNT))
        report = run_resilience_campaign(outcome, trials=5, seed=0)
        assert report.elapsed_s > 0.0
        assert report.trials_per_s > 0.0
