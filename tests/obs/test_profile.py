"""The sampling profiler: stacks, resource deltas, zero-cost discipline.

Covers the ``repro.obs.profile`` primitives (frame collapsing, the
resource probe's per-span deltas and GC accounting), the
:class:`Profiler`'s SIGPROF sampling (drain/reset contract, samples
weighed against the CPU clock, main-thread-only start), the session
against a live recorder, the zero-cost-when-disabled guarantees, and
the profile sections of ``repro report``.
"""

import gc
import random
import signal
import sys
import threading
import time
from contextlib import nullcontext

import numpy as np
import pytest

from repro.errors import ObservabilityError
from repro.obs import Recorder, index_trace, render_report, use, validate_trace
from repro.obs.profile import (
    Profiler,
    ResourceProbe,
    collapse_frame,
    cpu_seconds,
    open_fd_count,
    process_metrics_snapshot,
    read_rss_bytes,
)


def render_profile_report(events, top=15):
    return render_report(index_trace(events), top=top)


def _busy(seconds: float) -> int:
    """Burn CPU on this thread so the sampler has something to catch."""
    deadline = time.perf_counter() + seconds
    acc = 0
    while time.perf_counter() < deadline:
        acc += sum(range(200))
    return acc


def _sigprof_state():
    """The process's SIGPROF handler and ITIMER_PROF setting."""
    return signal.getsignal(signal.SIGPROF), signal.getitimer(signal.ITIMER_PROF)


def _leaf_counts(events) -> dict[str, int]:
    """Sample counts per leaf function over every ``stacks`` event."""
    leaves: dict[str, int] = {}
    for event in events:
        if event["kind"] == "stacks":
            for stack, count in event["stacks"].items():
                leaf = stack.rsplit(";", 1)[-1]
                leaves[leaf] = leaves.get(leaf, 0) + count
    return leaves


def _float_products(cpu_s: float) -> None:
    a = np.random.default_rng(0).random((1200, 1200))
    start = time.process_time()
    while time.process_time() - start < cpu_s:
        a @ a


def _python_step(n: int) -> int:
    acc = 0
    for i in range(n):
        acc += i * i
    return acc


def _numpy_step(x, n: int) -> None:
    for _ in range(n):
        np.sqrt(np.exp(x))  # GIL released inside each ufunc


class TestPrimitives:
    def test_read_rss_is_positive(self):
        assert read_rss_bytes() > 0

    def test_cpu_seconds_monotone(self):
        u0, s0 = cpu_seconds()
        _busy(0.01)
        u1, s1 = cpu_seconds()
        assert u1 + s1 >= u0 + s0

    def test_open_fd_count_positive_on_procfs(self):
        fds = open_fd_count()
        if fds is None:
            pytest.skip("no /proc/self/fd on this platform")
        assert fds > 0

    def test_collapse_frame_leaf_last(self):
        def inner():
            return collapse_frame(sys._getframe())

        stack = inner()
        parts = stack.split(";")
        assert parts[-1] == "test_profile.py:inner"
        assert "test_profile.py:test_collapse_frame_leaf_last" in parts
        # caller precedes callee: collapsed-stack (flamegraph) order
        assert parts.index(
            "test_profile.py:test_collapse_frame_leaf_last"
        ) < parts.index("test_profile.py:inner")

    def test_collapse_frame_truncates_depth(self):
        def recurse(n):
            if n == 0:
                return collapse_frame(sys._getframe(), max_depth=5)
            return recurse(n - 1)

        assert len(recurse(50).split(";")) == 5


class TestResourceProbe:
    def test_span_deltas_stamped_on_close(self):
        class FakeSpan:
            def __init__(self):
                self.attrs = {}

        probe = ResourceProbe()
        probe.sample()
        span = FakeSpan()
        probe.open_span(span)
        _busy(0.02)
        probe.note_rss(probe._last_rss + 4096)
        probe.close_span(span)
        assert span.attrs["cpu_s"] >= 0.0
        assert span.attrs["rss_peak_delta"] >= 4096

    def test_close_without_open_is_harmless(self):
        class FakeSpan:
            attrs = {}

        ResourceProbe().close_span(FakeSpan())
        assert FakeSpan.attrs == {}

    def test_gc_callback_counts_collections(self):
        probe = ResourceProbe()
        probe.install()
        try:
            before = probe.gc_collections
            gc.collect()
            assert probe.gc_collections > before
            assert probe.gc_pause_s >= 0.0
        finally:
            probe.uninstall()
        assert probe._on_gc not in gc.callbacks

    def test_install_is_idempotent(self):
        probe = ResourceProbe()
        probe.install()
        probe.install()
        try:
            assert gc.callbacks.count(probe._on_gc) == 1
        finally:
            probe.uninstall()
            probe.uninstall()
        assert probe._on_gc not in gc.callbacks

    def test_sample_updates_registry_gauges(self):
        rec = Recorder()
        probe = ResourceProbe(registry=rec.metrics)
        probe.sample()
        snap = rec.metrics.snapshot()["metrics"]
        assert snap["process_resident_memory_bytes"]["series"][""] > 0
        assert snap["process_cpu_seconds_total"]["series"][""] >= 0


class TestStackProfiler:
    """The :class:`Profiler`'s stack sampling."""

    def test_zero_hz_rejected(self):
        with pytest.raises(ObservabilityError, match="> 0 Hz"):
            Profiler(Recorder(), hz=0)
        with pytest.raises(ObservabilityError, match="> 0 Hz"):
            Profiler(Recorder(), hz=-5)

    def test_out_of_range_hz_rejected(self):
        # An infinite rate means a zero timer interval, which would
        # disarm ITIMER_PROF instead of sampling.
        for hz in (float("inf"), float("nan")):
            with pytest.raises(ObservabilityError, match="finite"):
                Profiler(Recorder(), hz=hz)
        # A period too long for the timer leaves nothing installed.
        before = _sigprof_state()
        with pytest.raises(ObservabilityError, match="1e-300 Hz"):
            Profiler(Recorder(), hz=1e-300).start()
        assert _sigprof_state() == before

    def test_samples_attributed_to_ambient_span(self):
        rec = Recorder()
        sampler = Profiler(rec, hz=500.0)
        with use(rec):
            sampler.start()
            with rec.span("hot") as span:
                _busy(0.15)
            events = sampler.stop()
        stacks = [e for e in events if e["kind"] == "stacks"]
        assert stacks, "a 500 Hz sampler caught nothing in 150ms"
        assert any(e["span"] == span.sid for e in stacks)
        attributed = next(e for e in stacks if e["span"] == span.sid)
        assert attributed["samples"] == sum(attributed["stacks"].values())
        assert all(";" not in s.rsplit(";", 1)[-1] for s in attributed["stacks"])

    def test_drain_resets_aggregate(self):
        rec = Recorder()
        sampler = Profiler(rec, hz=500.0)
        sampler.start()
        _busy(0.1)
        first = sampler.drain()
        rest = sampler.stop()
        assert first
        assert sampler.drain() == []
        # a drained sample is never shipped again
        drained = sum(e["samples"] for e in first + rest if e["kind"] == "stacks")
        assert drained == rest[-1]["samples"]

    def test_resource_series_emitted_with_probe(self):
        sampler = Profiler(Recorder(), hz=200.0)
        sampler.start()
        _busy(0.25)
        resources = [
            e for e in sampler.stop() if e["kind"] == "resource"
        ]
        assert resources, "no resource ticks in 250ms at a 100ms cadence"
        assert all(e["rss_bytes"] > 0 for e in resources)
        times = [e["t"] for e in resources]
        assert times == sorted(times)

    @pytest.mark.parametrize("hz", [97.0, 500.0])
    @pytest.mark.parametrize("work", [_busy, _float_products])
    def test_samples_over_hz_equal_process_cpu_time(self, hz, work):
        # One sample stands for 1/hz s of process CPU time, whatever
        # rate the kernel delivers SIGPROF at and however long a GIL-free
        # BLAS call holds the handler back.
        profiler = Profiler(Recorder(), hz=hz)
        cpu0 = time.process_time()
        profiler.start()
        work(0.6)
        samples = profiler.stop()[-1]["samples"]
        cpu_s = time.process_time() - cpu0
        assert samples / hz == pytest.approx(cpu_s, abs=0.05 * cpu_s + 2.0 / hz)

    def test_gil_releasing_step_gets_its_share(self):
        # Samples follow CPU time even where the running code releases
        # the GIL; a sampler that waits for the GIL credits nearly every
        # sample to the NumPy step.  Step lengths come from a seeded RNG
        # so they cannot phase-lock with the kernel tick that delivers
        # SIGPROF.
        rng = random.Random(11)
        x = np.linspace(0.0, 1.0, 4000)
        spent = {"_python_step": 0.0, "_numpy_step": 0.0}
        profiler = Profiler(Recorder(), hz=500.0).start()
        start = time.process_time()
        while time.process_time() - start < 1.0:
            t0 = time.process_time()
            _python_step(rng.randint(2000, 30000))
            t1 = time.process_time()
            _numpy_step(x, rng.randint(20, 240))
            t2 = time.process_time()
            spent["_python_step"] += t1 - t0
            spent["_numpy_step"] += t2 - t1
        leaves = _leaf_counts(profiler.stop())
        counts = {
            step: leaves.get(f"test_profile.py:{step}", 0) for step in spent
        }
        assert sum(counts.values()) > 0
        for step in spent:
            sample_share = counts[step] / sum(counts.values())
            time_share = spent[step] / sum(spent.values())
            assert sample_share == pytest.approx(time_share, abs=0.1), step

    def test_gc_callback_frames_charged_to_caller(self):
        # The probe's GC callback runs Python code, so a signal pending
        # through a collection is handled inside it; the handler walks
        # past this module's frames to the code that allocated.
        threshold = gc.get_threshold()
        profiler = Profiler(Recorder(), hz=500.0)
        gc.set_threshold(5)
        try:
            profiler.start()
            start = time.process_time()
            while time.process_time() - start < 0.3:
                a, b = [], []
                a.append(b)
                b.append(a)
            events = profiler.stop()
        finally:
            gc.set_threshold(*threshold)
        assert profiler.probe.gc_collections > 0
        leaves = _leaf_counts(events)
        assert leaves
        assert not [leaf for leaf in leaves if leaf.startswith("profile.py:")]

    def test_start_off_main_thread_rejected(self):
        before = _sigprof_state()
        errors = []

        def start_here():
            try:
                Profiler(Recorder(), hz=97.0).start()
            except ObservabilityError as exc:
                errors.append(exc)

        thread = threading.Thread(target=start_here)
        thread.start()
        thread.join()
        assert len(errors) == 1
        assert "main thread" in str(errors[0])
        assert _sigprof_state() == before


class TestProfilerSession:
    def test_context_manager_appends_trace_events(self):
        rec = Recorder()
        with use(rec):
            with Profiler(rec, hz=400.0):
                with rec.span("work"):
                    _busy(0.1)
        rec.close()
        events = rec.events()
        assert validate_trace(events) == []
        kinds = {e.get("kind") for e in events if e.get("type") == "profile"}
        assert "resource_summary" in kinds
        assert "stacks" in kinds
        assert events[-1]["profiles"] == rec.profiles > 0
        # the probe stamped per-span resource deltas before teardown
        work = next(s for s in rec.spans if s.name == "work")
        assert "cpu_s" in work.attrs
        assert "rss_peak_delta" in work.attrs

    def test_summary_shape(self):
        rec = Recorder()
        profiler = Profiler(rec, hz=300.0, shard=3).start()
        _busy(0.05)
        events = profiler.stop()
        summary = events[-1]
        assert summary["kind"] == "resource_summary"
        assert summary["shard"] == 3
        assert summary["rss_peak_bytes"] > 0
        assert summary["cpu_s"] >= summary["cpu_user_s"] >= 0.0
        assert summary["hz"] == 300.0
        # every shipped event carries the shard tag for the merger
        assert all(e.get("shard") == 3 for e in events)

    def test_stop_is_idempotent(self):
        rec = Recorder()
        profiler = Profiler(rec, hz=300.0).start()
        assert profiler.stop() != []
        assert profiler.stop() == []

    def test_no_residue_after_exit(self):
        rec = Recorder()
        baseline_callbacks = len(gc.callbacks)
        before = _sigprof_state()
        threads = set(threading.enumerate())
        for body_raises in (False, True):
            with pytest.raises(RuntimeError) if body_raises else nullcontext():
                with use(rec):
                    with Profiler(rec, hz=300.0) as profiler:
                        assert rec._resource_probe is not None
                        handler, (_, interval) = _sigprof_state()
                        assert handler == profiler._on_sigprof
                        assert interval > 0  # ITIMER_PROF armed
                        if body_raises:
                            raise RuntimeError("body failed")
            assert set(threading.enumerate()) <= threads  # none started
            assert _sigprof_state() == before
            assert len(gc.callbacks) == baseline_callbacks
            assert rec._resource_probe is None


class TestZeroCostWhenDisabled:
    def test_plain_recorder_never_profiles(self):
        rec = Recorder()
        baseline_callbacks = len(gc.callbacks)
        before = _sigprof_state()
        with use(rec):
            with rec.span("work"):
                _busy(0.02)
        assert rec._resource_probe is None
        work = next(s for s in rec.spans if s.name == "work")
        assert "cpu_s" not in work.attrs
        assert "rss_peak_delta" not in work.attrs
        assert rec.profiles == 0
        assert "profiles" not in rec.events()[0]
        assert _sigprof_state() == before
        assert len(gc.callbacks) == baseline_callbacks


class TestProcessMetricsSnapshot:
    def test_snapshot_shape_and_prom_render(self):
        from repro.obs.metrics import to_prometheus_text

        snap = process_metrics_snapshot()
        assert snap["format"] == "repro-metrics"
        assert snap["metrics"]["process_resident_memory_bytes"]["series"][""] > 0
        text = to_prometheus_text(snap)
        assert "# TYPE process_cpu_seconds_total counter" in text
        assert "# TYPE process_resident_memory_bytes gauge" in text


class TestProfileReport:
    def _trace(self):
        rec = Recorder()
        with use(rec):
            with Profiler(rec, hz=400.0):
                with rec.span("hot"):
                    _busy(0.12)
        return rec.events()

    def test_report_has_all_three_tables(self):
        report = render_profile_report(self._trace())
        assert "functions by self time" in report
        assert "Sample attribution by span" in report
        assert "hot" in report
        assert "Per-shard process resources" in report
        assert "sup" in report  # unsharded summary renders as supervisor

    def test_report_without_profile_events(self):
        rec = Recorder()
        with rec.span("quiet"):
            pass
        report = render_profile_report(rec.events())
        assert "profile" not in report
        assert "Per-shard process resources" not in report

    def test_report_respects_top(self):
        events = [
            {"type": "profile", "kind": "stacks", "span": None, "hz": 100.0,
             "samples": 6,
             "stacks": {f"a.py:f{i};b.py:g{i}": 1 for i in range(6)}},
        ]
        report = render_profile_report(events, top=2)
        assert "Top 2 functions" in report

    def test_unattributed_samples_labelled(self):
        events = [
            {"type": "profile", "kind": "stacks", "span": None, "hz": 100.0,
             "samples": 3, "stacks": {"a.py:main;a.py:leaf": 3}},
        ]
        report = render_profile_report(events)
        assert "(no span)" in report
        assert "a.py:leaf" in report
