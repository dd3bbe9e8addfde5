"""Run-health digest of supervised-runner decision events."""

from repro.obs.analyze import digest_exec_events, render_digest


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


class TestDigest:
    def test_empty_trace(self):
        digest = digest_exec_events([])
        assert digest.batches == {}
        assert render_digest(digest) == "trace contains no exec decision events"

    def test_non_exec_decisions_ignored(self):
        events = [
            {"type": "decision", "category": "condense", "action": "merge",
             "seq": 1, "subject": "", "reason": "", "span": None},
        ]
        assert digest_exec_events(events).batches == {}

    def test_retries_accumulate_backoff(self):
        events = [
            _decision("retry", delay_s=0.1),
            _decision("retry", delay_s=0.3),
        ]
        digest = digest_exec_events(events)
        batch = digest.batches["[0,16)"]
        assert batch.retries == 2
        assert abs(batch.backoff_s - 0.4) < 1e-9
        assert abs(digest.total_backoff_s - 0.4) < 1e-9

    def test_batch_counters_by_action(self):
        events = [
            _decision("split"),
            _decision("worker_crash"),
            _decision("batch_timeout"),
            _decision("batch_error"),
            _decision("serial_fallback"),
        ]
        batch = digest_exec_events(events).batches["[0,16)"]
        assert (
            batch.splits, batch.crashes, batch.timeouts,
            batch.errors, batch.serial_fallbacks,
        ) == (1, 1, 1, 1, 1)

    def test_batches_keyed_by_subject(self):
        events = [_decision("retry", subject="[0,8)"),
                  _decision("retry", subject="[8,16)")]
        digest = digest_exec_events(events)
        assert set(digest.batches) == {"[0,8)", "[8,16)"}

    def test_resume_and_corrupt_checkpoint(self):
        events = [
            _decision("checkpoint_corrupt", subject="cp.ndjson", lines=2),
            _decision("resume", subject="cp.ndjson", entries=5, corrupt_lines=1),
        ]
        digest = digest_exec_events(events)
        assert digest.resumes == 1
        assert digest.resumed_entries == 5
        assert digest.corrupt_checkpoint_lines == 3

    def test_complete_recorded(self):
        events = [_decision("complete", batches=8, retries=1, from_checkpoint=3)]
        digest = digest_exec_events(events)
        assert digest.completed
        assert digest.completed_batches == 8
        assert digest.completed_from_checkpoint == 3

    def test_render_flags_incomplete_runs(self):
        text = render_digest(digest_exec_events([_decision("retry", delay_s=0.1)]))
        assert "completed: NO" in text

    def test_render_table_sorted_by_event_count(self):
        events = [
            _decision("retry", subject="[8,16)"),
            _decision("retry", subject="[0,8)"),
            _decision("split", subject="[0,8)"),
        ]
        text = render_digest(digest_exec_events(events))
        lines = text.splitlines()
        assert lines.index(
            next(line for line in lines if line.startswith("[0,8)"))
        ) < lines.index(
            next(line for line in lines if line.startswith("[8,16)"))
        )


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
                trials=128,
                seed=0,
                policy=ExecPolicy(workers=0),
                engine="scalar",
            )
        digest = digest_exec_events(rec.events())
        assert digest.completed
        assert digest.completed_batches == 4
        assert "completed: 4 batches" in render_digest(digest)


class TestShardLanes:
    def shard_events(self):
        return [
            _decision("shard_plan", subject="plan", shards=2, backend="local"),
            _decision("lease_grant", subject="lease 1", shard=0),
            _decision("lease_grant", subject="lease 2", shard=1),
            _decision("lease_done", subject="lease 1", shard=0, heartbeats=3),
            _decision("shard_crash", subject="lease 2", shard=1, heartbeats=1),
            _decision("redispatch", subject="[256,256)", shard=1),
            _decision("lease_grant", subject="lease 3", shard=1),
            _decision("lease_expired", subject="lease 3", shard=1,
                      heartbeats=2),
            _decision("serial_fallback", subject="[256,256)", shard=1),
        ]

    def test_lanes_fold_lease_actions_by_shard(self):
        digest = digest_exec_events(self.shard_events())
        assert digest.shard_plan == 2
        assert digest.backend == "local"
        lane0, lane1 = digest.shards[0], digest.shards[1]
        assert (lane0.leases, lane0.done, lane0.heartbeats) == (1, 1, 3)
        assert lane1.leases == 2
        assert lane1.crashes == 1
        assert lane1.redispatches == 1
        assert lane1.expiries == 1
        assert lane1.rescues == 1
        assert lane1.heartbeats == 3  # 1 at the crash + 2 at the expiry

    def test_shardless_decisions_do_not_make_lanes(self):
        # A serial_fallback from the batch runner has no shard attr; it
        # must count as batch health only, never invent shard -1 lanes.
        digest = digest_exec_events([_decision("serial_fallback")])
        assert digest.shards == {}
        assert digest.batches["[0,16)"].serial_fallbacks == 1

    def test_render_shows_shard_table_and_summary(self):
        digest = digest_exec_events(self.shard_events())
        text = render_digest(digest)
        assert "Per-shard lease health (backend: local)" in text
        assert "shards: 2 of 2 planned" in text
        lane1_row = next(
            line for line in text.splitlines() if line.startswith("1 ")
        )
        assert lane1_row.split() == ["1", "2", "0", "3", "1", "1", "1", "0", "1"]
