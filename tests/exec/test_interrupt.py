"""Graceful SIGINT/SIGTERM shutdown: flush, seal, exit resumable."""

import json
import multiprocessing
import os
import signal
import sys
import time

import pytest

from repro.errors import CampaignInterrupted
from repro.exec import ExecPolicy, InterruptGuard, run_supervised
from repro.exec.backend import combine_selftest, selftest_spec, selftest_task
from repro.obs import Recorder, use

SPEC = selftest_spec(delay_s=0.002)
TRIALS = 400
SEED = 23
CLEAN_INTERRUPT_EXIT = 21


class TestInterruptGuard:
    def test_first_signal_defers_until_check(self):
        recorder = Recorder()
        with InterruptGuard() as guard:
            os.kill(os.getpid(), signal.SIGINT)
            time.sleep(0.02)
            assert guard.signaled == "SIGINT"
            with use(recorder), pytest.raises(CampaignInterrupted):
                guard.check(recorder, "test")
        assert any(d.action == "interrupted" for d in recorder.decisions)

    def test_second_signal_escalates(self):
        with InterruptGuard() as guard:
            os.kill(os.getpid(), signal.SIGINT)
            time.sleep(0.02)
            assert guard.signaled == "SIGINT"
            with pytest.raises(KeyboardInterrupt):
                guard._handle(signal.SIGINT, None)

    def test_previous_handlers_restored(self):
        before = signal.getsignal(signal.SIGINT)
        with InterruptGuard():
            assert signal.getsignal(signal.SIGINT) != before
        assert signal.getsignal(signal.SIGINT) == before

    def test_no_signal_check_is_noop(self):
        with InterruptGuard() as guard:
            guard.check(Recorder(), "test")  # must not raise


def _interruptible_campaign(path: str) -> None:
    os.setsid()  # own group so the test runner never sees the signal
    task = selftest_task(SPEC["params"])
    try:
        run_supervised(
            task, trials=TRIALS, seed=SEED, kind="sigtest",
            params=SPEC["params"],
            policy=ExecPolicy(workers=2), block=20,
            combine=combine_selftest, checkpoint=path,
        )
    except CampaignInterrupted:
        sys.exit(CLEAN_INTERRUPT_EXIT)


def _batch_lines(path: str) -> int:
    try:
        with open(path, encoding="utf-8") as handle:
            return sum(1 for line in handle if '"type": "batch"' in line)
    except OSError:
        return 0


class TestGracefulShutdown:
    @pytest.mark.timeout(120)
    def test_sigint_seals_resumable_state_and_resume_is_identical(
        self, tmp_path
    ):
        task = selftest_task(SPEC["params"])
        baseline, _ = run_supervised(
            task, trials=TRIALS, seed=SEED, kind="sigtest",
            params=SPEC["params"], combine=combine_selftest, block=20,
        )
        path = str(tmp_path / "sigint.ndjson")
        ctx = multiprocessing.get_context("fork")
        child = ctx.Process(target=_interruptible_campaign, args=(path,))
        child.start()
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline and _batch_lines(path) < 3:
            time.sleep(0.01)
        os.kill(child.pid, signal.SIGINT)
        child.join(60)
        assert child.exitcode == CLEAN_INTERRUPT_EXIT

        # The interrupted run must have sealed a resumable manifest.
        with open(path + ".manifest", encoding="utf-8") as handle:
            manifest = json.load(handle)
        assert manifest["complete"] is False
        assert manifest["interrupted"] is True
        assert manifest["batches_written"] >= 3

        resumed, report = run_supervised(
            task, trials=TRIALS, seed=SEED, kind="sigtest",
            params=SPEC["params"],
            policy=ExecPolicy(workers=2), block=20,
            combine=combine_selftest, resume=path,
        )
        merged_base = baseline[0]
        for payload in baseline[1:]:
            merged_base = combine_selftest(merged_base, payload)
        merged = resumed[0]
        for payload in resumed[1:]:
            merged = combine_selftest(merged, payload)
        assert merged == merged_base
        assert report.partials_from_checkpoint >= 3
        with open(path + ".manifest", encoding="utf-8") as handle:
            assert json.load(handle)["complete"] is True
