"""``repro report``: one trace index, every section against the raw events.

The cross-check recomputes each section's figures straight from the
event dicts (stage totals, self times, lease lanes, resource rows,
sample counts) instead of trusting the index that renders them.  The
other classes cover parent cycles and fields of the wrong type, which
every reader meets through the same index.
"""

import pytest

from repro.cli import main
from repro.errors import ObservabilityError
from repro.exec import ExecPolicy, ShardChaos, run_sharded
from repro.exec.backend import combine_selftest, selftest_spec, selftest_task
from repro.obs import Recorder, dump_ndjson, index_trace, render_report, use
from repro.obs import validate_trace
from repro.obs.analyze import (
    diff_traces,
    render_diff,
    span_path_stats,
    to_collapsed_stacks,
)


def table(text, title):
    """The whitespace-split body rows of the table titled ``title``."""
    block = text.split(title + "\n", 1)[1].split("\n\n", 1)[0]
    return [row.split() for row in block.splitlines()[2:]]


def ms(seconds):
    return f"{seconds * 1000:.2f}"


@pytest.fixture(scope="module")
def chaos_events():
    """A traced, profiled 2-shard campaign whose shard 1 is killed."""
    spec = selftest_spec()
    recorder = Recorder()
    with use(recorder):
        run_sharded(
            selftest_task(spec["params"]),
            trials=1024, seed=5, kind="selftest", params=spec["params"],
            policy=ExecPolicy(workers=2, backoff_base=0.01, backoff_max=0.02),
            shards=2, backend="local", combine=combine_selftest,
            chaos=ShardChaos(kill_shards=frozenset({1})), profile=251.0,
        )
    return recorder.events()


class TestSectionsMatchRawEvents:
    @pytest.fixture(scope="class")
    def text(self, chaos_events):
        return render_report(index_trace(chaos_events), tree=True)

    def spans(self, events):
        return [e for e in events if e.get("type") == "span"]

    def test_stage_totals_are_sums_of_dur_by_name(self, chaos_events, text):
        durations = {}
        for span in self.spans(chaos_events):
            durations.setdefault(span["name"], []).append(span["dur_s"])
        rows = table(text, "Per-stage timing")
        assert {row[0] for row in rows} == set(durations)
        for name, count, total, mean, peak in rows:
            durs = durations[name]
            assert int(count) == len(durs)
            assert total == ms(sum(durs))
            assert mean == ms(sum(durs) / len(durs))
            assert peak == ms(max(durs))

    def test_decision_rows_count_category_and_action(self, chaos_events, text):
        counts = {}
        for event in chaos_events:
            if event.get("type") == "decision":
                key = (event["category"], event["action"])
                counts[key] = counts.get(key, 0) + 1
        rows = table(text, "Decision events")
        assert {(c, a): int(n) for c, a, n in rows} == counts

    def test_self_time_is_duration_minus_children(self, chaos_events, text):
        spans = self.spans(chaos_events)
        rows = table(text, "Critical path (dominant child at every level)")
        assert rows
        parent = None
        for name, total, self_ms, child_ms, _share, _siblings in rows:
            # Each step is a child of the step above it; same-named
            # siblings may tie on the printed total, so any may match.
            matches = []
            for span in spans:
                if span["parent"] != parent or span["name"] != name:
                    continue
                child_s = sum(
                    s["dur_s"] for s in spans if s["parent"] == span["sid"]
                )
                if (ms(span["dur_s"]), ms(child_s),
                        ms(max(span["dur_s"] - child_s, 0.0))) == (
                        total, child_ms, self_ms):
                    matches.append(span)
            assert matches, name
            parent = matches[0]["sid"]

    def test_lane_counts_are_lease_decisions_per_shard(self, chaos_events, text):
        columns = {
            "lease_grant": 1, "lease_done": 2, "lease_expired": 4,
            "redispatch": 5, "shard_crash": 6, "lease_error": 7,
            "serial_fallback": 8,
        }
        expected = {}
        for event in chaos_events:
            if event.get("type") != "decision" or event["category"] != "exec":
                continue
            attrs = event.get("attrs") or {}
            shard = attrs.get("shard")
            if shard is None or event["action"] not in columns:
                continue
            row = expected.setdefault(shard, [shard] + [0] * 8)
            row[columns[event["action"]]] += 1
            if event["action"] not in ("lease_grant", "redispatch", "serial_fallback"):
                row[3] += attrs.get("heartbeats", 0)
        rows = table(text, "Per-shard lease health (backend: local)")
        assert [[int(cell) for cell in row] for row in rows] == [
            expected[shard] for shard in sorted(expected)
        ]
        assert expected[1][6] >= 1  # the killed shard's crash is a lane row

    def test_resource_rows_are_last_summary_per_process(self, chaos_events, text):
        last = {}
        for event in chaos_events:
            if event.get("type") == "profile" and event["kind"] == "resource_summary":
                last[(event.get("shard"), event["pid"])] = event
        rows = table(text, "Per-shard process resources")
        assert len(rows) == len(last)
        for row in rows:
            shard = None if row[0] == "sup" else int(row[0])
            summary = last[(shard, int(row[1]))]
            assert row[2:] == [
                f"{summary['rss_peak_bytes'] / 1e6:.1f}",
                f"{summary['cpu_s']:.3f}",
                str(summary["gc_collections"]),
                f"{summary['gc_pause_s'] * 1000:.1f}",
                str(summary["samples"]),
            ]

    def test_profile_samples_are_stack_counts(self, chaos_events, text):
        profiles = [e for e in chaos_events if e.get("type") == "profile"]
        total = sum(
            sum(e["stacks"].values()) for e in profiles if e["kind"] == "stacks"
        )
        assert f"profile events: {len(profiles)} · " in text
        if total:
            assert f"· {total} stack samples at 251 Hz" in text
            rows = table(text, "Sample attribution by span")
            assert sum(int(row[-3]) for row in rows) <= total

    def test_tree_lists_every_span_once(self, chaos_events, text):
        tree = text.split("Span tree\n", 1)[1].splitlines()
        assert len(tree) == len(self.spans(chaos_events))


def _span(sid, parent, name, t0=0.0, t1=0.004):
    return {"type": "span", "sid": sid, "parent": parent, "name": name,
            "depth": 0, "t_start": t0, "t_end": t1, "dur_s": t1 - t0}


CYCLES = {
    "self-parent": [_span(1, 1, "loop")],
    "two-cycle": [
        _span(1, 2, "ping", 0.0, 0.004),
        _span(2, 1, "pong", 0.001, 0.003),
        _span(3, 2, "leaf", 0.001, 0.002),
    ],
}


@pytest.mark.parametrize("shape", sorted(CYCLES))
class TestParentCycles:
    def test_validate_reports_the_cycle(self, shape):
        problems = validate_trace(CYCLES[shape])
        assert problems and all("parent cycle" in p for p in problems)
        looped = {"self-parent": {1}, "two-cycle": {1, 2}}[shape]
        assert len(problems) == len(looped)

    def test_every_reader_sees_the_spans(self, shape):
        paths = {
            "self-parent": {"loop"},
            "two-cycle": {"ping", "pong", "pong/leaf"},
        }[shape]
        index = index_trace(CYCLES[shape])
        assert set(span_path_stats(index)) == paths
        text = render_report(index, tree=True)
        steps = table(text, "Critical path (dominant child at every level)")
        assert steps[0][0] == {"self-parent": "loop", "two-cycle": "ping"}[shape]
        tree = text.split("Span tree\n", 1)[1].splitlines()
        assert sorted(line.split()[0] for line in tree) == sorted(
            path.rsplit("/", 1)[-1] for path in paths
        )
        diff = render_diff(diff_traces(index, index))
        assert {row.split()[0] for row in diff.splitlines()[3:3 + len(paths)]} == paths
        stacks = {line.split()[0] for line in to_collapsed_stacks(index).splitlines()}
        assert stacks == {path.replace("/", ";") for path in paths}

    def test_cycle_members_become_roots(self, shape):
        roots, children = {
            "self-parent": (["loop"], {}),
            "two-cycle": (["ping", "pong"], {2: ["leaf"]}),
        }[shape]
        index = index_trace(CYCLES[shape])
        assert [r.name for r in index.roots] == roots
        assert {
            sid: [c.name for c in kids] for sid, kids in index.children.items()
        } == children


BAD_FIELDS = {
    "span dur_s string": (
        {"type": "span", "sid": 1, "parent": None, "name": "s",
         "t_start": 0.0, "t_end": 1.0, "dur_s": "1.0"},
        "event 1: span field 'dur_s' must be a number, not str",
    ),
    "decision attrs list": (
        {"type": "decision", "seq": 1, "category": "exec",
         "action": "complete", "subject": "", "reason": "", "span": None,
         "attrs": [1, 2]},
        "event 1: decision field 'attrs' must be an object, not list",
    ),
    "profile stacks list": (
        {"type": "profile", "kind": "stacks", "span": None, "hz": 97.0,
         "samples": 1, "stacks": ["a.py:f"]},
        "event 1: profile field 'stacks' must be an object, not list",
    ),
}


class TestWrongFieldTypes:
    @pytest.mark.parametrize("case", sorted(BAD_FIELDS))
    def test_report_exits_2_naming_event_and_field(self, case, tmp_path, capsys):
        event, message = BAD_FIELDS[case]
        path = tmp_path / "bad.ndjson"
        dump_ndjson(Recorder().events() + [event], str(path))
        for argv in (
            ["report", str(path), "--tree"],
            ["trace", "diff", str(path), str(path)],
            ["trace", "export", str(path), "--format", "collapsed"],
        ):
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert err == f"error: {path}: {message}\n"

    def test_exec_attr_of_wrong_type(self):
        event = dict(BAD_FIELDS["decision attrs list"][0], attrs={"heartbeats": "3"})
        with pytest.raises(ObservabilityError, match="field 'attrs.heartbeats'"):
            index_trace([event])


class TestReportCommand:
    def test_top_caps_profile_tables(self, tmp_path, capsys):
        rec = Recorder()
        rec.profile_event({
            "type": "profile", "kind": "stacks", "span": None, "hz": 100.0,
            "samples": 6, "stacks": {f"a.py:f{i}": 6 - i for i in range(6)},
        })
        path = tmp_path / "t.ndjson"
        rec.write_trace(str(path))
        assert main(["report", str(path), "--top", "2"]) == 0
        rows = table(capsys.readouterr().out, "Top 2 functions by self time")
        assert [row[0] for row in rows] == ["a.py:f0", "a.py:f1"]
