"""The report's exec section: lease-health lanes and run figures."""

from repro.obs import index_trace, render_report
from repro.obs.report import exec_health


def _decision(action, subject="[0,16)", **attrs):
    return {
        "type": "decision",
        "seq": 1,
        "category": "exec",
        "action": action,
        "subject": subject,
        "reason": "test",
        "span": None,
        "attrs": attrs,
    }


def health(events):
    return exec_health(index_trace(events))


def report(events):
    return render_report(index_trace(events))


#: What the batch pool of earlier releases recorded: no lease supervisor
#: folds these any more, but traces carrying them still load.
BATCH_POOL_EVENTS = [
    _decision("retry", delay_s=0.1),
    _decision("retry", subject="[16,32)", delay_s=0.3),
    _decision("split"),
    _decision("worker_crash"),
    _decision("worker_crash", subject="[16,32)"),
    _decision("batch_timeout"),
    _decision("batch_error"),
    _decision("serial_fallback"),
    _decision("pool_abandoned", subject="pool"),
]


class TestDigest:
    def test_empty_trace(self):
        assert health([]).decisions == 0
        assert health([]).lanes == {}
        assert report([]) == "trace is empty (no events)"

    def test_non_exec_decisions_ignored(self):
        events = [
            {"type": "decision", "category": "condense", "action": "merge",
             "seq": 1, "subject": "", "reason": "", "span": None},
        ]
        assert health(events).decisions == 0
        text = report(events)
        assert "Decision events" in text
        assert "exec:" not in text

    def test_batch_counters_by_action(self):
        # Batch-pool actions are rows of the decisions table, counted
        # per action; none of them makes a lane or a run figure.
        text = report(BATCH_POOL_EVENTS)
        rows = {
            tuple(line.split()[:2]): int(line.split()[2])
            for line in text.splitlines()
            if line.startswith("exec ")
        }
        assert rows == {
            ("exec", "retry"): 2,
            ("exec", "split"): 1,
            ("exec", "worker_crash"): 2,
            ("exec", "batch_timeout"): 1,
            ("exec", "batch_error"): 1,
            ("exec", "serial_fallback"): 1,
            ("exec", "pool_abandoned"): 1,
        }
        assert health(BATCH_POOL_EVENTS).lanes == {}
        assert "exec: completed: NO" in text

    def test_resume_and_corrupt_checkpoint(self):
        events = [
            _decision("checkpoint_corrupt", subject="cp.ndjson", lines=2),
            _decision("resume", subject="cp.ndjson", entries=5, corrupt_lines=1),
        ]
        result = health(events)
        assert result.resumes == 1
        assert result.resumed_entries == 5
        assert result.corrupt_checkpoint_lines == 3
        text = report(events)
        assert "resumes: 1 (5 checkpointed batches reused)" in text
        assert "corrupt checkpoint lines: 3" in text

    def test_complete_recorded(self):
        events = [_decision("complete", batches=8, retries=1, from_checkpoint=3)]
        result = health(events)
        assert result.completed
        assert result.completed_batches == 8
        assert result.completed_from_checkpoint == 3
        assert "exec: completed: 8 batches (3 from checkpoint)" in report(events)

    def test_render_flags_incomplete_runs(self):
        assert "completed: NO" in report([_decision("retry", delay_s=0.1)])


class TestOnRealCampaign:
    def test_supervised_campaign_digest_completes(self):
        from repro.exec import ExecPolicy
        from repro.faultsim.campaign import run_campaign
        from repro.obs import Recorder, use
        from repro.allocation.hw_model import fully_connected
        from repro.core.framework import IntegrationFramework
        from repro.workloads import HW_NODE_COUNT, paper_system

        outcome = IntegrationFramework(paper_system()).integrate(
            fully_connected(HW_NODE_COUNT)
        )
        state = outcome.condensation.state
        rec = Recorder()
        with use(rec):
            run_campaign(
                state.graph,
                state.as_partition(),
                trials=1024,
                seed=0,
                policy=ExecPolicy(workers=0),
            )
        result = health(rec.events())
        assert result.completed
        assert result.completed_batches == 4
        assert "completed: 4 batches" in report(rec.events())


class TestShardLanes:
    def shard_events(self):
        return [
            _decision("shard_plan", subject="plan", shards=2, backend="local"),
            _decision("lease_grant", subject="lease 1", shard=0),
            _decision("lease_grant", subject="lease 2", shard=1),
            _decision("lease_done", subject="lease 1", shard=0, heartbeats=3),
            _decision("shard_crash", subject="lease 2", shard=1, heartbeats=1,
                      stderr_tail="Traceback\nMemoryError: out\n"),
            _decision("redispatch", subject="[256,256)", shard=1),
            _decision("lease_grant", subject="lease 3", shard=1),
            _decision("lease_expired", subject="lease 3", shard=1,
                      heartbeats=2),
            _decision("serial_fallback", subject="[256,256)", shard=1),
            _decision("protocol_torn", subject="slot 1"),
            _decision("generation_fenced", subject="slot 1"),
            _decision("backend_abandoned", subject="local"),
            _decision("interrupted", subject="faultsim"),
        ]

    def test_lanes_fold_lease_actions_by_shard(self):
        result = health(self.shard_events())
        assert result.shard_plan == 2
        assert result.backend == "local"
        lane0, lane1 = result.lanes[0], result.lanes[1]
        assert (lane0.leases, lane0.done, lane0.heartbeats) == (1, 1, 3)
        assert lane1.leases == 2
        assert lane1.crashes == 1
        assert lane1.redispatches == 1
        assert lane1.expiries == 1
        assert lane1.rescues == 1
        assert lane1.heartbeats == 3  # 1 at the crash + 2 at the expiry

    def test_shardless_decisions_do_not_make_lanes(self):
        # A serial_fallback without a shard attr (batch-pool traces) must
        # stay a decisions-table row, never invent a lane.
        events = [_decision("serial_fallback")]
        assert health(events).lanes == {}
        text = report(events)
        assert "Per-shard lease health" not in text
        assert "exec      serial_fallback  1" in text

    def test_render_shows_shard_table_and_summary(self):
        text = report(self.shard_events())
        assert "Per-shard lease health (backend: local)" in text
        assert "shards: 2 of 2 planned" in text
        lane1_row = next(
            line for line in text.splitlines() if line.startswith("1 ")
        )
        assert lane1_row.split() == ["1", "2", "0", "3", "1", "1", "1", "0", "1"]
        assert "Crashed-shard stderr tails:\n  shard 1: MemoryError: out" in text
        for figure in ("torn protocol lines: 1", "generation-fenced lines: 1",
                       "backend abandoned: 1x", "interrupted: 1x"):
            assert figure in text
