"""Seed derivation and trial ranges: the determinism contract's base."""

import pytest

from repro.errors import ExecutionError
from repro.exec import (
    Batch,
    available_cpus,
    derive_seed,
    resolve_workers,
    run_supervised,
)


class TestDeriveSeed:
    def test_golden_values(self):
        # SHA-256-derived, so these must never change: a drift here would
        # silently invalidate every checkpoint and recorded campaign.
        assert derive_seed(0, 0) == 3512151679464241053
        assert derive_seed(0, 1) == 4970550609977612471
        assert derive_seed(42, 7) == 7646889150069685285
        assert derive_seed(0, 0, purpose="jitter") == 8086545943070776203

    def test_deterministic(self):
        assert derive_seed(5, 17) == derive_seed(5, 17)

    def test_distinct_across_indices_and_seeds(self):
        seeds = {derive_seed(s, i) for s in range(4) for i in range(64)}
        assert len(seeds) == 4 * 64

    def test_purpose_separates_streams(self):
        assert derive_seed(1, 2) != derive_seed(1, 2, purpose="jitter")

    def test_fits_in_63_bits(self):
        for i in range(100):
            assert 0 <= derive_seed(123, i) < 2**63


class TestBatch:
    def test_stop_and_trials(self):
        batch = Batch(10, 5)
        assert batch.stop == 15
        assert list(batch.trials()) == [10, 11, 12, 13, 14]

    def test_invalid_batches_rejected(self):
        with pytest.raises(ExecutionError):
            Batch(-1, 5)
        with pytest.raises(ExecutionError):
            Batch(0, 0)


class TestPlanBatches:
    """The in-process supervisor's plan: its task blocks, in trial order."""

    @staticmethod
    def planned(trials, block):
        calls = []

        def task(start, size, seed):
            calls.append((start, size))
            return {}

        run_supervised(task, trials=trials, seed=0, kind="plan", block=block)
        return calls

    def test_covers_every_trial_exactly_once(self):
        for trials in (1, 7, 16, 100):
            for block in (1, 3, 16, 1000):
                covered = [
                    t
                    for start, size in self.planned(trials, block)
                    for t in Batch(start, size).trials()
                ]
                assert covered == list(range(trials))

    def test_last_batch_short(self):
        assert [size for _, size in self.planned(10, 4)] == [4, 4, 2]

    def test_rejects_bad_inputs(self):
        with pytest.raises(ExecutionError):
            self.planned(0, 4)
        with pytest.raises(ExecutionError):
            self.planned(10, 0)


class TestResolveWorkers:
    def test_integers_pass_through(self):
        assert resolve_workers(0) == 0
        assert resolve_workers(4) == 4
        assert resolve_workers("3") == 3

    def test_auto_matches_available_cpus(self):
        # 'auto' must never oversubscribe: a pool larger than the machine
        # is how the parallel bench once measured a 0.884x "speedup".
        resolved = resolve_workers("auto")
        assert resolved == available_cpus()
        assert resolved >= 1

    def test_bad_values_rejected(self):
        with pytest.raises(ExecutionError):
            resolve_workers("many")
        with pytest.raises(ExecutionError):
            resolve_workers(-1)
        with pytest.raises(ExecutionError):
            resolve_workers(None)
