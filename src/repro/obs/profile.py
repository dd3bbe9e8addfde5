"""Sampling stack profiler and process-resource telemetry.

The trace layer shows *where time goes* — spans, critical paths,
flamegraphs — but nothing about what the process is doing to the
machine.  This module adds that second axis.

:class:`Profiler` is one profiling session (the ``--profile [HZ]`` CLI
flag, or a shard worker's lease — see
:class:`~repro.obs.telemetry.LeaseTelemetry`).  It samples from a
``SIGPROF`` handler armed by ``ITIMER_PROF``, a timer that runs on the
process's CPU time: each sample collapses the interrupted frame into a
``root;child;leaf`` stack string, counts the CPU periods since the
previous sample, and charges them to the innermost open span of the
recorder.  Drained samples become ``profile`` events (kind ``stacks``)
in the trace stream, exportable through the collapsed-stack / Perfetto
exporters and summarized by ``repro report``.  The same handler ticks a
:class:`ResourceProbe` — RSS from ``/proc/self/statm``
(``resource.getrusage`` fallback), user/sys CPU time from
``os.times()``, GC collection counts and pause time via
``gc.callbacks``, and the open-fd count — which feeds process-level
gauges into the metrics registry, emits a throttled ``resource`` time
series, and, installed on a :class:`~repro.obs.recorder.Recorder`,
stamps per-span deltas (``cpu_s``, ``rss_peak_delta``) at span close.

Profiling follows the same two disciplines as the rest of ``repro.obs``:

* **zero-cost when disabled** — no signal handler, no timer, no
  ``gc.callbacks`` entry, and no per-span work unless a profiler was
  explicitly started (``Recorder._resource_probe`` stays ``None``);
* **result-transparent** — sampling reads process state, never touches
  payloads, seeds, or checkpoint fingerprints; a profiled campaign is
  bit-identical to an unprofiled one (enforced by the
  ``identical_profiled`` / ``max_profile_overhead`` bench gates).
"""

from __future__ import annotations

import gc
import math
import os
import signal
import sys
import time

from repro.errors import ObservabilityError

#: Default sampling rate for ``--profile``.  A prime just under 100 Hz
#: so the sampler cannot phase-lock with periodic work (the same reason
#: ``perf`` defaults to 99 Hz).
DEFAULT_PROFILE_HZ = 97.0

#: Resource time-series cadence (seconds) — independent of the stack
#: rate so a fast sampler does not flood the trace with RSS lines.
RESOURCE_INTERVAL_S = 0.1

#: Stack frames kept per sample; deeper stacks are truncated at the root.
MAX_STACK_DEPTH = 64

try:
    _PAGE_BYTES = os.sysconf("SC_PAGE_SIZE")
except (ValueError, OSError, AttributeError):  # pragma: no cover
    _PAGE_BYTES = 4096


def read_rss_bytes() -> int:
    """Current resident set size in bytes.

    Reads ``/proc/self/statm`` (field 2 is resident pages); platforms
    without procfs fall back to ``resource.getrusage`` — whose
    ``ru_maxrss`` is the *peak*, not the current, RSS, which is the
    right conservative answer for peak tracking.
    """
    try:
        with open("/proc/self/statm", "rb") as handle:
            return int(handle.read().split()[1]) * _PAGE_BYTES
    except (OSError, ValueError, IndexError):
        pass
    try:
        import resource

        kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        # Linux reports kilobytes; macOS reports bytes.
        return int(kb) * (1 if sys.platform == "darwin" else 1024)
    except Exception:  # pragma: no cover - no resource module at all
        return 0


def cpu_seconds() -> tuple[float, float]:
    """(user, system) CPU seconds consumed by this process."""
    times = os.times()
    return times.user, times.system


def open_fd_count() -> int | None:
    """Open file descriptors, or ``None`` where /proc is unavailable."""
    try:
        # listdir itself holds one fd while counting; don't count it.
        return max(0, len(os.listdir("/proc/self/fd")) - 1)
    except OSError:
        return None


def collapse_frame(frame, max_depth: int = MAX_STACK_DEPTH) -> str:
    """One ``root;child;leaf`` collapsed-stack string for a live frame."""
    parts: list[str] = []
    while frame is not None and len(parts) < max_depth:
        code = frame.f_code
        name = f"{os.path.basename(code.co_filename)}:{code.co_name}"
        parts.append(name.replace(";", ","))
        frame = frame.f_back
    parts.reverse()
    return ";".join(parts)


# ----------------------------------------------------------------------
# Resource accounting
# ----------------------------------------------------------------------
class ResourceProbe:
    """Process resource truth: RSS peaks, CPU time, GC, per-span deltas.

    The probe itself is passive — :meth:`sample` is ticked by the
    profiler's signal handler (and once at start and stop), so attaching
    it costs nothing between ticks.  Installed on a recorder
    (``recorder._resource_probe``) it additionally tracks every open
    span's running RSS peak and stamps ``cpu_s`` / ``rss_peak_delta``
    attrs when the span closes.  Ticks and span hooks all run on the
    main thread, so the probe takes no lock: a lock held by the
    interrupted code would deadlock the handler.
    """

    def __init__(self, registry=None) -> None:
        self._registry = registry
        # id(span) -> [rss_at_open, running_rss_peak, cpu_at_open]
        self._tokens: dict[int, list] = {}
        self._last_rss = 0
        self.rss_peak = 0
        self.gc_collections = 0
        self.gc_pause_s = 0.0
        self._gc_t0: float | None = None
        self._installed = False

    # GC hooks ----------------------------------------------------------
    def install(self) -> None:
        """Register the GC callback (idempotent)."""
        if self._installed:
            return
        self._installed = True
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        if not self._installed:
            return
        self._installed = False
        try:
            gc.callbacks.remove(self._on_gc)
        except ValueError:  # pragma: no cover - already gone
            pass

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_t0 = time.perf_counter()
        elif phase == "stop":
            self.gc_collections += 1
            if self._gc_t0 is not None:
                self.gc_pause_s += time.perf_counter() - self._gc_t0
                self._gc_t0 = None

    # Sampling ----------------------------------------------------------
    def note_rss(self, rss: int) -> None:
        """Fold one RSS reading into the process and per-span peaks."""
        self._last_rss = rss
        if rss > self.rss_peak:
            self.rss_peak = rss
        for token in self._tokens.values():
            if rss > token[1]:
                token[1] = rss

    def sample(self) -> dict:
        """Read RSS/CPU/fds once; update peaks and registry gauges."""
        rss = read_rss_bytes()
        self.note_rss(rss)
        user, system = cpu_seconds()
        fds = open_fd_count()
        record = {
            "rss_bytes": rss,
            "cpu_user_s": round(user, 6),
            "cpu_sys_s": round(system, 6),
        }
        if fds is not None:
            record["open_fds"] = fds
        if self._registry is not None:
            self._registry.gauge("process_resident_memory_bytes").set(rss)
            self._registry.gauge("process_cpu_seconds_total").set(
                round(user + system, 6)
            )
            if fds is not None:
                self._registry.gauge("process_open_fds").set(fds)
        return record

    # Per-span deltas (called by Recorder when installed) ---------------
    def open_span(self, span) -> None:
        rss = self._last_rss or read_rss_bytes()
        user, system = cpu_seconds()
        self._tokens[id(span)] = [rss, rss, user + system]

    def close_span(self, span) -> None:
        token = self._tokens.pop(id(span), None)
        if token is None:
            return
        rss0, peak, cpu0 = token
        peak = max(peak, self._last_rss)
        user, system = cpu_seconds()
        span.attrs["cpu_s"] = round(max(0.0, user + system - cpu0), 6)
        span.attrs["rss_peak_delta"] = int(max(0, peak - rss0))


# ----------------------------------------------------------------------
# The profiling session
# ----------------------------------------------------------------------
class Profiler:
    """One profiling session: SIGPROF stack sampler + resource probe.

    ``start()`` installs the probe on the recorder (per-span deltas),
    registers the GC callback, installs the ``SIGPROF`` handler and arms
    ``ITIMER_PROF`` at ``1/hz`` seconds of process CPU time; ``stop()``
    restores both and returns the final drained events plus a
    ``resource_summary``.  Aggregation is ``(span sid, collapsed stack)
    -> count``; :meth:`drain` converts the aggregate into ``profile``
    events and resets it, so callers flushing incrementally (shard
    workers) have already shipped everything but the current window if
    the process dies.  As a context manager the final events are
    appended to the recorder (``profile_event``) and so to its trace;
    shard workers instead call :meth:`drain` / :meth:`stop` directly and
    ship the events over the telemetry transport (see
    :class:`~repro.obs.telemetry.LeaseTelemetry`).

    A process has one ``SIGPROF`` handler, and only its main thread may
    install it: starting elsewhere raises
    :class:`~repro.errors.ObservabilityError`.
    """

    def __init__(
        self,
        recorder,
        hz: float = DEFAULT_PROFILE_HZ,
        shard: int | None = None,
    ) -> None:
        hz = float(hz)
        if not (math.isfinite(hz) and hz > 0):
            raise ObservabilityError(
                f"profile rate must be a finite number > 0 Hz, got {hz}"
            )
        self.recorder = recorder
        self.hz = hz
        self.shard = shard
        self.probe = ResourceProbe(
            registry=getattr(recorder, "metrics", None)
        )
        self._spans = getattr(recorder, "_stack", [])
        self._epoch = getattr(recorder, "_epoch", None) or time.perf_counter()
        self._agg: dict[tuple[int | None, str], int] = {}
        self._resources: list[dict] = []
        self.samples = 0
        self._tick = 0
        self._last_resource = 0.0
        # (previous SIGPROF handler, previous ITIMER_PROF) while running.
        self._restore: tuple | None = None

    def start(self) -> "Profiler":
        """Start sampling this process; main thread only."""
        if self._restore is not None:
            return self
        self._tick = int(time.process_time() * self.hz)
        try:
            handler = signal.signal(signal.SIGPROF, self._on_sigprof)
        except ValueError as exc:  # not the main thread
            raise ObservabilityError(f"cannot profile: {exc}") from None
        period = 1.0 / self.hz
        try:
            timer = signal.setitimer(signal.ITIMER_PROF, period, period)
        except OverflowError as exc:  # a period the timer cannot hold
            signal.signal(signal.SIGPROF, handler)
            raise ObservabilityError(
                f"cannot profile at {self.hz:g} Hz: {exc}"
            ) from None
        self._restore = (handler, timer)
        self.probe.install()
        self.probe.sample()
        if getattr(self.recorder, "enabled", False):
            self.recorder._resource_probe = self.probe
        return self

    def _on_sigprof(self, signum, frame) -> None:
        """Charge the CPU time since the last sample to the running stack.

        The count is the number of ``1/hz`` periods of process CPU time
        (BLAS threads included) since the previous sample, so
        ``samples / hz`` is the CPU time whatever rate the kernel
        delivers at: it caps ITIMER_PROF at its tick rate, and the
        signals of one long GIL-free call arrive as one.  Frames of this
        module (the GC callback, per-span stamps) are charged to their
        caller.  The handler runs on the main thread between two
        bytecodes, so it needs no lock, and it must not raise: the
        exception would surface in whatever line it interrupted.
        """
        try:
            tick = int(time.process_time() * self.hz)
            count = tick - self._tick
            if count <= 0:
                return
            self._tick = tick
            while frame is not None and frame.f_code.co_filename == __file__:
                frame = frame.f_back
            sid = self._spans[-1].sid if self._spans else None
            key = (sid, collapse_frame(frame))
            self._agg[key] = self._agg.get(key, 0) + count
            self.samples += count
            now = time.perf_counter()
            if now - self._last_resource >= RESOURCE_INTERVAL_S:
                self._last_resource = now
                event = {
                    "type": "profile",
                    "kind": "resource",
                    "t": round(now - self._epoch, 6),
                }
                event.update(self.probe.sample())
                self._resources.append(event)
        except Exception:  # pragma: no cover - a lost sample, not a crash
            pass

    def drain(self) -> list[dict]:
        """Convert and reset the sample aggregate: ``profile`` events.

        One ``stacks`` event per attributed span (``span: null`` for
        samples landing outside any span), then the buffered
        ``resource`` time series, in capture order; every event carries
        the shard tag when there is one.
        """
        agg, self._agg = self._agg, {}
        resources, self._resources = self._resources, []
        by_sid: dict[int | None, dict[str, int]] = {}
        for (sid, stack), count in agg.items():
            by_sid.setdefault(sid, {})[stack] = count
        events: list[dict] = []
        for sid in sorted(by_sid, key=lambda s: (s is None, s or 0)):
            stacks = by_sid[sid]
            events.append({
                "type": "profile",
                "kind": "stacks",
                "span": sid,
                "hz": self.hz,
                "samples": sum(stacks.values()),
                "stacks": dict(sorted(stacks.items())),
            })
        events.extend(resources)
        if self.shard is not None:
            for event in events:
                event["shard"] = self.shard
        return events

    def summary(self) -> dict:
        """The cumulative ``resource_summary`` event for this process."""
        user, system = cpu_seconds()
        event = {
            "type": "profile",
            "kind": "resource_summary",
            "pid": os.getpid(),
            "hz": self.hz,
            "samples": self.samples,
            "rss_peak_bytes": int(self.probe.rss_peak),
            "cpu_user_s": round(user, 6),
            "cpu_sys_s": round(system, 6),
            "cpu_s": round(user + system, 6),
            "gc_collections": self.probe.gc_collections,
            "gc_pause_s": round(self.probe.gc_pause_s, 6),
        }
        if self.shard is not None:
            event["shard"] = self.shard
        return event

    def stop(self) -> list[dict]:
        """Stop sampling; the remaining events plus the final summary."""
        if self._restore is None:
            return []
        handler, timer = self._restore
        self._restore = None
        # Disarm before the handler goes: SIGPROF's default action
        # terminates the process.
        signal.setitimer(signal.ITIMER_PROF, *timer)
        signal.signal(signal.SIGPROF, handler)
        self.probe.sample()  # final peak/CPU reading
        self.probe.uninstall()
        if getattr(self.recorder, "_resource_probe", None) is self.probe:
            self.recorder._resource_probe = None
        events = self.drain()
        events.append(self.summary())
        return events

    def __enter__(self) -> "Profiler":
        return self.start()

    def __exit__(self, *exc) -> bool:
        events = self.stop()
        if getattr(self.recorder, "enabled", False):
            for event in events:
                self.recorder.profile_event(event)
        return False


# ----------------------------------------------------------------------
# Process-level metrics (Prometheus exposition)
# ----------------------------------------------------------------------
def process_metrics_snapshot() -> dict:
    """A ``repro-metrics`` snapshot of the standard process gauges.

    ``repro metrics export --format prom`` merges this into whatever
    campaign snapshot it is rendering (without overriding same-named
    campaign series), so scrapers always see process truth — even when
    no campaign metrics exist at all.
    """
    rss = read_rss_bytes()
    user, system = cpu_seconds()
    fds = open_fd_count()
    metrics: dict = {
        "process_cpu_seconds_total": {
            "type": "counter",
            "series": {"": round(user + system, 6)},
        },
        "process_resident_memory_bytes": {
            "type": "gauge",
            "series": {"": float(rss)},
        },
    }
    if fds is not None:
        metrics["process_open_fds"] = {
            "type": "gauge",
            "series": {"": float(fds)},
        }
    return {"format": "repro-metrics", "version": 1, "metrics": metrics}
