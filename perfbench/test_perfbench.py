"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checks  # noqa: E402
import report  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from inputs import SystemShape, expected_members, op_rng, system_doc  # noqa: E402


# ----------------------------------------------------------------------
# Seeded input generation
# ----------------------------------------------------------------------
def test_generator_is_deterministic_per_seed():
    shape = SystemShape(processes=30)
    first = system_doc(op_rng(7, "integrate", 3), "g", shape)
    again = system_doc(op_rng(7, "integrate", 3), "g", shape)
    other = system_doc(op_rng(8, "integrate", 3), "g", shape)
    assert first == again
    assert first != other


def test_generated_shape_matches_its_properties():
    shape = SystemShape(processes=200, replicated=0.25)
    doc = system_doc(op_rng(1, "integrate", 0), "g", shape)
    processes = [f for f in doc["fcms"] if f["level"] == "PROCESS"]
    replicated = [f for f in processes if f["attributes"]["fault_tolerance"] > 1]
    assert len(processes) == 200
    assert len(replicated) == 50
    edges = len(doc["influence"]["PROCESS"]["edges"])
    assert 0.12 < edges / (200 * 199) < 0.18


def test_workload_ops_prepare_identical_inputs_for_a_seed():
    def docs(seed):
        w = workloads.IntegrateLarge(seed)
        return [op.prepare().doc for op in w.round(0)[:3]]

    assert docs(4) == docs(4)
    assert docs(4) != docs(5)


def test_campaign_targets_are_deterministic_per_seed():
    def targets(seed):
        w = workloads.Campaigns(seed)
        w.generate()
        return w.docs

    assert targets(2) == targets(2)
    assert targets(2) != targets(3)


# ----------------------------------------------------------------------
# Output checks
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def paper_outcome():
    w = workloads.IntegratePaper(0)
    w.generate()
    op = next(op for op in w.round(0) if op.label == "paper-8/h1/a")
    prepared = op.prepare()
    outcome, emitted = op.run(prepared)
    assert outcome is not None and emitted["feasible"]
    return op, prepared, (outcome, emitted)


def test_checker_accepts_a_correct_outcome(paper_outcome):
    op, prepared, result = paper_outcome
    assert op.check(prepared, result).problems == []


def _problems(prepared, result, tamper):
    outcome, emitted = result
    emitted = copy.deepcopy(emitted)
    tamper(emitted)
    recomputed = checks.score_fields(
        workloads.goodness.evaluate_mapping(outcome.mapping, prepared.options.resources)
    )
    return checks.check_integration(
        expected_members(prepared.doc), set(outcome.mapping.hw.names()), emitted, recomputed
    )


def test_checker_rejects_colocated_replicas(paper_outcome):
    _op, prepared, result = paper_outcome

    def colocate(emitted):
        clusters = emitted["clusters"]
        home = next(c for c in clusters if "p1a" in c["members"])
        away = next(c for c in clusters if "p1b" in c["members"])
        away["members"].remove("p1b")
        home["members"].append("p1b")

    problems = _problems(prepared, result, colocate)
    assert any("replicas of p1 share a HW node" in p for p in problems)


def test_checker_rejects_a_dropped_fcm(paper_outcome):
    _op, prepared, result = paper_outcome

    def drop(emitted):
        emitted["clusters"][0]["members"].pop()

    problems = _problems(prepared, result, drop)
    assert any("is in no cluster" in p for p in problems)


def test_checker_rejects_a_tampered_score(paper_outcome):
    _op, prepared, result = paper_outcome

    def tamper(emitted):
        emitted["scores"]["cross_influence"] += 1e-9

    problems = _problems(prepared, result, tamper)
    assert any(p.startswith("score cross_influence") for p in problems)


def test_checker_rejects_a_shared_or_unknown_hw_node(paper_outcome):
    _op, prepared, result = paper_outcome

    def share(emitted):
        emitted["clusters"][1]["hw_node"] = emitted["clusters"][0]["hw_node"]
        emitted["clusters"][2]["hw_node"] = "nowhere"

    problems = _problems(prepared, result, share)
    assert any("share HW node" in p for p in problems)
    assert any("unknown HW node" in p for p in problems)


def test_campaign_check_counts_trials_and_bounds_the_escape_rate():
    from repro.faultsim.campaign import CampaignResult

    result = CampaignResult(100, 1.0, 0.5, 3, 0.25)
    assert checks.check_campaign("faultsim", result, 100) == []
    assert checks.check_campaign("faultsim", result, 99)
    escaped = CampaignResult(100, 1.0, 0.5, 3, 1.5)
    assert checks.check_campaign("faultsim", escaped, 100)


def test_digest_depends_on_every_output_in_order():
    def digest(outputs):
        d = checks.Digest()
        for output in outputs:
            d.add(output)
        return d.hexdigest()

    assert digest([{"a": 1.5}, {"b": 2}]) == digest([{"a": 1.5}, {"b": 2}])
    assert digest([{"a": 1.5}, {"b": 2}]) != digest([{"b": 2}, {"a": 1.5}])
    assert digest([{"a": 1.5}]) != digest([{"a": 1.5000000001}])


# ----------------------------------------------------------------------
# Span arithmetic and hooks
# ----------------------------------------------------------------------
def test_self_time_subtracts_the_union_of_clipped_children():
    # 0: root [0, 10]; children 1 [1, 3] and 2 [2, 5] overlap, 3 [8, 12]
    # overhangs the root; 4 [2.5, 3.5] is a grandchild under 2.
    start = [0.0, 1.0, 2.0, 8.0, 2.5]
    end = [10.0, 3.0, 5.0, 12.0, 3.5]
    parent = [-1, 0, 0, 0, 2]
    own = spans.self_times(start, end, parent)
    assert own == pytest.approx([10.0 - (4.0 + 2.0), 2.0, 3.0 - 1.0, 4.0, 1.0])


def test_layer_totals_and_top_level_wall_on_a_synthetic_tree():
    tracer = spans.Tracer()
    tracer.names.extend(["io.parse", "io.validate", "allocation.map"])
    for name, s, e, p, op in (
        (0, 0.0, 1.0, -1, 0),
        (1, 0.2, 0.6, 0, 0),
        (2, 1.0, 3.0, -1, 0),
        (0, 5.0, 6.0, -1, 1),
    ):
        tracer.name.append(name)
        tracer.start.append(s)
        tracer.end.append(e)
        tracer.parent.append(p)
        tracer.op_of.append(op)
        tracer.cpu.append(0.0)
    totals = spans.layer_totals(tracer)
    assert totals["io.parse"]["self_s"] == pytest.approx(0.6 + 1.0)
    assert totals["io.validate"]["self_s"] == pytest.approx(0.4)
    assert totals["allocation.map"]["count"] == 1
    assert spans.top_level_wall(tracer) == pytest.approx({0: 3.0, 1: 1.0})


def test_hooks_record_nested_spans_and_restore_the_originals():
    from repro.core import framework
    from repro.io import serialization

    original = serialization.system_from_dict
    tracer = spans.Tracer()
    hooks = spans.Hooks(tracer)
    assert hooks.absent == []
    w = workloads.IntegratePaper(0)
    w.generate()
    op = next(op for op in w.round(0) if op.label == "paper-8/h2/b")
    prepared = op.prepare()
    with hooks:
        assert serialization.system_from_dict is not original
        tracer.enabled = True
        tracer.op = 0
        op.run(prepared)
        tracer.enabled = False
    tracer.flush_deferred()
    assert serialization.system_from_dict is original
    assert framework.condense_h2.__name__ == "condense_h2"
    totals = spans.layer_totals(tracer)
    for layer in ("io.parse", "io.validate", "verification.audit", "allocation.expand",
                  "allocation.condense.h2", "graphs.mincut", "scheduling",
                  "allocation.map", "allocation.score", "io.emit"):
        assert totals[layer]["count"] >= 1, layer
    validate = tracer.names.index("io.validate")
    parse = tracer.names.index("io.parse")
    child = list(tracer.name).index(validate)
    assert tracer.name[tracer.parent[child]] == parse
    assert tracer.counts["allocation.expand.fcms"] == len(expected_members(prepared.doc))


def test_a_missing_hook_target_is_reported_absent(monkeypatch):
    monkeypatch.setattr(
        spans, "SPAN_HOOKS",
        spans.SPAN_HOOKS + (("gone.layer", "repro.core.framework", "no_such_function", True),),
    )
    hooks = spans.Hooks(spans.Tracer())
    assert hooks.absent == ["gone.layer (repro.core.framework.no_such_function)"]


# ----------------------------------------------------------------------
# The timed loop
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kind", ["integrate", "campaigns"])
def test_a_run_whose_ops_all_raise_ends_with_correct_false(kind):
    def broken(_prepared):
        raise RuntimeError("broken program")

    op_kinds = ["integrate"] * 2 if kind == "integrate" else ["faultsim", "resilience"]

    class Broken:
        def __init__(self) -> None:
            self.kind = kind

        def round(self, r):
            return [
                workloads.Op(f"broken/{r}/{i}", lambda: None, (broken,), None,
                             kind=op_kind, trials=8)
                for i, op_kind in enumerate(op_kinds)
            ]

    stats = run.timed_loop(Broken(), 3600.0, lambda: None)
    assert stats.rounds == 1
    assert stats.attempted == stats.failed == 2
    metrics, lines = run.end_to_end(Broken(), stats, [0.5], 0.0)
    verdict = json.loads(json.dumps(run.result(stats, metrics)))
    assert verdict["correct"] is False
    assert (verdict["attempted"], verdict["failed"]) == (2, 2)
    assert set(verdict["metrics"]) == {name for name, _unit in run.END_TO_END}
    assert any(line.startswith("metric failed_ops_ratio = 1.0") for line in lines)


# ----------------------------------------------------------------------
# Report
# ----------------------------------------------------------------------
def test_p90_is_withheld_with_fewer_than_ten_samples_beyond_it():
    value, beyond = report.p90([float(i) for i in range(1, 100)])
    assert value is None and beyond == 9
    value, beyond = report.p90([float(i) for i in range(1, 101)])
    assert value == 90.0 and beyond == 10
    assert report.p90([]) == (None, 0)


def test_benchmark_json_lists_the_metrics_the_run_prints():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == [n for n, _u in run.END_TO_END]
    assert [m["unit"] for m in spec["end_to_end"]] == [u for _n, u in run.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert list(workloads.WORKLOADS) == list(run.WORKLOAD_NAMES)
