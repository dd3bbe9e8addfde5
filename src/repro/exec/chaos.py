"""Chaos harness for the campaign supervisor itself.

The resilience and faultsim subsystems inject faults into the *modeled*
system; this module injects faults into the *supervisor* — the
application-level fault-tolerance argument (De Florio) applied to our
own tooling:

* :class:`ShardChaos` rides into worker slots and SIGKILLs or stalls
  them mid-lease; supervisor-side, it interrupts a campaign after a
  number of checkpointed partials (in-process runs use that too);
* :class:`NetChaos` corrupts the TCP transport's receive path;
* :func:`truncate_file` tears bytes off a checkpoint to fake a crash
  mid-write.

:func:`run_shard_chaos_selftest` wires it all into the end-to-end
self-test behind ``repro exec chaos`` and the test suite.
"""

from __future__ import annotations

import os
import signal
import time
from dataclasses import dataclass, field


@dataclass(frozen=True)
class ShardChaos:
    """Faults for the lease supervisor (`run_sharded`).

    ``ShardChaos`` murders or stalls *whole shard workers* — the
    failure modes a distributed campaign actually meets:

    * ``kill_shards`` — a first-attempt lease for one of these shards
      SIGKILLs its slot **mid-lease**: after the first block's partial
      has streamed out when the lease spans several blocks (proving
      completed blocks are banked, not recomputed), else before any.
    * ``stall_shards`` — a first-attempt lease for one of these shards
      sleeps ``stall_s`` before its first heartbeat, so the supervisor
      must detect the silence via ``ExecPolicy.heartbeat_timeout``,
      expire the lease, and re-dispatch.
    * ``interrupt_after_partials`` — supervisor-side: raise
      :class:`~repro.errors.CampaignInterrupted` once this many
      partials are checkpointed (mid-campaign crash without murder).
      The in-process supervisor honours it too.

    Injection keys on ``attempt == 1`` only, so re-dispatch always
    recovers.  The plan is JSON round-trippable (``to_dict`` /
    ``from_dict``) because it must cross the subprocess transport's
    hello line.
    """

    kill_shards: frozenset[int] = frozenset()
    stall_shards: frozenset[int] = frozenset()
    stall_s: float = 30.0
    interrupt_after_partials: int | None = None

    def maybe_inject(
        self, shard: int, attempt: int, block_index: int, total_blocks: int
    ) -> None:
        """Run inside a shard slot just before serving one block."""
        if attempt != 1:
            return
        if shard in self.stall_shards and block_index == 0:
            time.sleep(self.stall_s)
        if shard in self.kill_shards:
            kill_at = 1 if total_blocks > 1 else 0
            if block_index == kill_at:
                os.kill(os.getpid(), signal.SIGKILL)

    def to_dict(self) -> dict:
        return {
            "kill_shards": sorted(self.kill_shards),
            "stall_shards": sorted(self.stall_shards),
            "stall_s": self.stall_s,
            "interrupt_after_partials": self.interrupt_after_partials,
        }

    @classmethod
    def from_dict(cls, data: dict) -> ShardChaos:
        return cls(
            kill_shards=frozenset(data.get("kill_shards") or ()),
            stall_shards=frozenset(data.get("stall_shards") or ()),
            stall_s=float(data.get("stall_s", 30.0)),
            interrupt_after_partials=data.get("interrupt_after_partials"),
        )


@dataclass(frozen=True)
class NetChaos:
    """Deterministic network faults for the TCP shard transport.

    Where :class:`ShardChaos` rides into the worker and murders it from
    the inside, ``NetChaos`` sits *in the supervisor's receive path*
    (:class:`repro.exec.tcp.TcpBackend`) and corrupts the network
    between intact processes — the failures a real wire delivers:

    * ``drop_after`` — ``{slot: n}``: hard-close the slot's connection
      after ``n`` complete lines have been received from it.  The
      worker sees EOF mid-lease; the supervisor sees slot death.
    * ``delay_slots`` — ``{slot: seconds}``: receive the slot's bytes
      but withhold them from parsing for ``seconds`` — long enough and
      the heartbeat deadline expires a perfectly healthy lease.
    * ``tear_lines`` — ``{slot: index}``: truncate the slot's
      ``index``-th received line mid-frame so it no longer decodes.
    * ``duplicate_slots`` + ``duplicate_rate`` — deliver each of these
      slots' lines twice with per-line probability ``duplicate_rate``,
      drawn from a stream seeded by ``derive_seed(seed, slot,
      purpose="net-chaos")`` so every schedule is reproducible.
    * ``partition_after`` — after this many lines *total* (all slots),
      close every connection at once: a full partition.  The backend
      keeps listening, so reconnecting workers heal it — unless
      ``partition_interrupt`` also raises
      :class:`~repro.errors.CampaignInterrupted`, simulating a
      supervisor that dies partitioned (its ``complete:false`` manifest
      must then resume cleanly).

    Supervisor-side only, so it never crosses the hello line and needs
    no serialization.
    """

    seed: int = 0
    drop_after: dict[int, int] = field(default_factory=dict)
    delay_slots: dict[int, float] = field(default_factory=dict)
    tear_lines: dict[int, int] = field(default_factory=dict)
    duplicate_slots: frozenset[int] = frozenset()
    duplicate_rate: float = 1.0
    partition_after: int | None = None
    partition_interrupt: bool = False

    def rng_for(self, slot: int):
        """The slot's private duplicate-decision stream."""
        import random

        from repro.exec.batching import derive_seed

        return random.Random(derive_seed(self.seed, slot, purpose="net-chaos"))


def truncate_file(path: str, chop_bytes: int) -> int:
    """Remove the last ``chop_bytes`` bytes of ``path`` (torn-write fake).

    Returns the resulting file size.
    """
    size = os.path.getsize(path)
    new_size = max(0, size - chop_bytes)
    with open(path, "r+b") as handle:
        handle.truncate(new_size)
    return new_size


@dataclass
class ChaosSelfTestResult:
    """Outcome of :func:`run_shard_chaos_selftest`."""

    passed: bool
    checks: list[str] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)

    def describe(self) -> list[str]:
        lines = [f"[ok] {check}" for check in self.checks]
        lines.extend(f"[FAIL] {failure}" for failure in self.failures)
        return lines


def run_shard_chaos_selftest(
    workdir: str,
    trials: int = 1024,
    shards: int = 2,
    workers: int = 2,
    seed: int = 7,
    backend: str = "local",
) -> ChaosSelfTestResult:
    """Prove shard-lease supervision end-to-end against three failures.

    Runs the same faultsim campaign serially (baseline) and then three
    chaos-ridden sharded ways — a SIGKILLed shard worker mid-lease, a
    shard stalled past the heartbeat deadline, and an interrupted run
    resumed over a torn shard checkpoint — checking every variant
    reproduces the baseline bit-for-bit while the decision trail shows
    the supervisor actually expired, re-dispatched, and recovered.

    The kill run executes under a live recorder streaming its trace to
    a file **with the sampling profiler enabled**, so it also proves
    distributed observability under chaos: surviving workers' spans and
    profile events (sampled stacks, resource summaries) must graft into
    one valid merged trace even though a shard died mid-lease, and
    ``repro report`` must surface the survivors' per-shard resource
    figures.  The chaos checkpoint and the merged trace
    (``shard-trace.ndjson``) are left in ``workdir`` so CI can validate
    their structure with ``scripts/check_ndjson.py``.
    """
    from repro.errors import CampaignInterrupted
    from repro.exec.runner import ExecPolicy
    from repro.faultsim.campaign import run_campaign
    from repro.obs import (
        Recorder,
        index_trace,
        load_ndjson,
        render_report,
        use,
        validate_trace,
    )
    from repro.workloads import paper_influence_graph

    os.makedirs(workdir, exist_ok=True)
    graph = paper_influence_graph()
    partition = [[name] for name in graph.fcm_names()]
    result = ChaosSelfTestResult(passed=True)

    def check(condition: bool, label: str) -> None:
        if condition:
            result.checks.append(label)
        else:
            result.passed = False
            result.failures.append(label)

    def actions_of(recorder) -> set[str]:
        return {d.action for d in recorder.decisions if d.category == "exec"}

    baseline = run_campaign(graph, partition, trials=trials, seed=seed)

    # --- proof 1: SIGKILL a whole shard worker mid-lease ---------------
    # Traced to a file with the profiler: chaos must not break the
    # merge, and surviving shards' profile events must land.
    trace_path = os.path.join(workdir, "shard-trace.ndjson")
    recorder = Recorder()
    recorder.open_sink(trace_path)
    try:
        with use(recorder):
            killed = run_campaign(
                graph, partition, trials=trials, seed=seed,
                policy=ExecPolicy(
                    workers=workers, backoff_base=0.01, backoff_max=0.05,
                ),
                shards=shards, backend=backend,
                chaos=ShardChaos(kill_shards=frozenset({shards - 1})),
                profile=211.0,
            )
    finally:
        recorder.close()
    actions = actions_of(recorder)
    check(killed == baseline,
          "kill-a-shard result identical to serial baseline")
    check("shard_crash" in actions,
          "SIGKILLed shard worker detected as a crash")
    check("redispatch" in actions,
          "dead shard's uncovered remainder re-dispatched")
    merged = recorder.events()
    check(not validate_trace(merged),
          "merged trace valid despite a shard dying mid-lease")
    check(load_ndjson(trace_path) == merged,
          "merged trace streamed to its file as the run went")
    worker_spans = [
        e for e in merged
        if e.get("type") == "span" and (e.get("attrs") or {}).get("remote")
    ]
    check(any(e["name"] == "worker.lease" for e in worker_spans),
          "worker lease spans grafted into the supervisor trace")
    check(any(e["name"] == "worker.block" for e in worker_spans),
          "worker block spans grafted into the supervisor trace")
    index = index_trace(merged)
    summaries = [
        e for e in index.profiles
        if e.get("kind") == "resource_summary" and e.get("shard") is not None
    ]
    check(bool(summaries),
          "surviving shards' profile resource summaries merged into trace")
    check(all(e.get("rss_peak_bytes", 0) > 0 for e in summaries),
          "merged per-shard resource summaries carry nonzero peak RSS")
    check("Per-shard process resources" in render_report(index),
          "trace report shows per-shard peak RSS/CPU for survivors")

    # --- proof 2: shard stalls past the heartbeat deadline -------------
    recorder = Recorder()
    with use(recorder):
        stalled = run_campaign(
            graph, partition, trials=trials, seed=seed,
            policy=ExecPolicy(
                workers=workers, backoff_base=0.01, backoff_max=0.05,
                heartbeat_timeout=0.75,
            ),
            shards=shards, backend=backend,
            chaos=ShardChaos(stall_shards=frozenset({0}), stall_s=30.0),
        )
    actions = actions_of(recorder)
    check(stalled == baseline,
          "stalled-shard result identical to serial baseline")
    check("lease_expired" in actions,
          "silent shard expired by heartbeat deadline")

    # --- proof 3: interrupt, corrupt the shard checkpoint, resume ------
    checkpoint = os.path.join(workdir, "shard-chaos.ndjson")
    if os.path.exists(checkpoint):
        os.remove(checkpoint)
    interrupted = False
    try:
        run_campaign(
            graph, partition, trials=trials, seed=seed,
            policy=ExecPolicy(workers=workers),
            shards=shards, backend=backend, checkpoint=checkpoint,
            chaos=ShardChaos(interrupt_after_partials=2),
        )
    except CampaignInterrupted:
        interrupted = True
    check(interrupted, "interrupt chaos aborts the sharded campaign mid-run")
    truncate_file(checkpoint, 7)
    recorder = Recorder()
    with use(recorder):
        resumed = run_campaign(
            graph, partition, trials=trials, seed=seed,
            policy=ExecPolicy(workers=workers),
            shards=shards, backend=backend, resume=checkpoint,
        )
    actions = actions_of(recorder)
    check(resumed == baseline,
          "resumed sharded result identical to serial baseline")
    check("checkpoint_corrupt" in actions,
          "torn shard partial detected and reported")
    check(os.path.exists(checkpoint + ".manifest"),
          "shard completion manifest atomically published")

    # --- TCP-only proofs: deterministic network faults -----------------
    if backend == "tcp":
        _tcp_net_chaos_proofs(
            workdir, graph, partition, trials, shards, workers, seed,
            baseline, check, actions_of,
        )
    return result


def _tcp_net_chaos_proofs(
    workdir, graph, partition, trials, shards, workers, seed,
    baseline, check, actions_of,
) -> None:
    """NetChaos invariants the TCP transport must hold (see NetChaos).

    Every schedule must leave the campaign bit-identical to serial:
    dropped connections mid-lease, frames delayed past the heartbeat
    deadline, torn frames plus every line duplicated, a full partition
    healed by fresh connections, and a full partition that kills the
    supervisor — whose ``complete:false`` manifest must then resume
    cleanly with waiting workers.
    """
    import json

    from repro.errors import CampaignInterrupted
    from repro.exec.runner import ExecPolicy
    from repro.exec.tcp import TcpBackend
    from repro.faultsim.campaign import campaign_task_spec, run_campaign
    from repro.obs import Recorder, load_ndjson, use, validate_trace

    spec = campaign_task_spec(graph, partition)
    policy = ExecPolicy(workers=workers, backoff_base=0.01, backoff_max=0.05)

    # -- proof 4: connection hard-dropped mid-lease ---------------------
    net = NetChaos(drop_after={1: 2})
    recorder = Recorder()
    with use(recorder), TcpBackend(spec, seed, net_chaos=net) as tcp:
        dropped = run_campaign(
            graph, partition, trials=trials, seed=seed,
            policy=policy, shards=shards, backend=tcp,
        )
    actions = actions_of(recorder)
    check(dropped == baseline,
          "dropped-connection result identical to serial baseline")
    check("shard_crash" in actions,
          "severed TCP connection detected as slot death")
    check("redispatch" in actions,
          "dropped slot's uncovered remainder re-dispatched")

    # -- proof 5: frames delayed past the heartbeat deadline ------------
    net = NetChaos(delay_slots={0: 5.0})
    recorder = Recorder()
    with use(recorder), TcpBackend(spec, seed, net_chaos=net) as tcp:
        delayed = run_campaign(
            graph, partition, trials=trials, seed=seed,
            policy=ExecPolicy(
                workers=workers, backoff_base=0.01, backoff_max=0.05,
                heartbeat_timeout=0.75,
            ),
            shards=shards, backend=tcp,
        )
    actions = actions_of(recorder)
    check(delayed == baseline,
          "delayed-frames result identical to serial baseline")
    check("lease_expired" in actions,
          "frames delayed past the deadline expired the lease")

    # -- proof 6: torn frame + every line delivered twice ---------------
    # Traced to a file: the merger must drop each replayed telemetry
    # batch, so every grafted worker.block span is unique per lease.
    tcp_trace = os.path.join(workdir, "tcp-trace.ndjson")
    net = NetChaos(
        seed=seed, tear_lines={0: 1},
        duplicate_slots=frozenset(range(workers)), duplicate_rate=1.0,
    )
    recorder = Recorder()
    recorder.open_sink(tcp_trace)
    try:
        with use(recorder), TcpBackend(spec, seed, net_chaos=net) as tcp:
            noisy = run_campaign(
                graph, partition, trials=trials, seed=seed,
                policy=policy, shards=shards, backend=tcp,
            )
    finally:
        recorder.close()
    check(noisy == baseline,
          "torn+duplicated-lines result identical to serial baseline "
          "(done/partial idempotent)")
    check(noisy.exec_report.protocol_torn_lines >= 1,
          "torn TCP frame counted as a protocol_torn line")
    check(not validate_trace(load_ndjson(tcp_trace)),
          "merged trace valid despite duplicated batch delivery")
    blocks = [
        (span.parent, span.attrs.get("start"))
        for span in recorder.spans
        if span.name == "worker.block" and span.attrs.get("remote")
    ]
    check(bool(blocks) and len(set(blocks)) == len(blocks),
          "no worker block grafted twice under duplicated delivery")

    # -- proof 7: full partition, healed by fresh connections -----------
    # Severed at 5 delivered lines: with two slots that is at most one
    # banked partial, so at least one in-flight lease still has an
    # uncovered remainder and a re-dispatch is guaranteed.
    net = NetChaos(partition_after=5)
    recorder = Recorder()
    with use(recorder), TcpBackend(spec, seed, net_chaos=net) as tcp:
        healed = run_campaign(
            graph, partition, trials=trials, seed=seed,
            policy=policy, shards=shards, backend=tcp,
        )
    actions = actions_of(recorder)
    check(healed == baseline,
          "partition-then-heal result identical to serial baseline")
    check("shard_crash" in actions,
          "full partition observed as slot deaths")
    check("redispatch" in actions,
          "partitioned leases re-dispatched to fresh connections")

    # -- proof 8: partition kills the run; complete:false must resume ---
    checkpoint = os.path.join(workdir, "tcp-partition.ndjson")
    if os.path.exists(checkpoint):
        os.remove(checkpoint)
    interrupted = False
    net = NetChaos(partition_after=7, partition_interrupt=True)
    try:
        with TcpBackend(spec, seed, net_chaos=net) as tcp:
            run_campaign(
                graph, partition, trials=trials, seed=seed,
                policy=policy, shards=shards, backend=tcp,
                checkpoint=checkpoint,
            )
    except CampaignInterrupted:
        interrupted = True
    check(interrupted,
          "full partition with partition_interrupt aborts the campaign")
    manifest_path = checkpoint + ".manifest"
    try:
        with open(manifest_path, encoding="utf-8") as handle:
            manifest = json.load(handle)
    except (OSError, ValueError):
        manifest = {}
    check(manifest.get("complete") is False,
          "interrupted run sealed a complete:false manifest")
    recorder = Recorder()
    with use(recorder), TcpBackend(spec, seed) as tcp:
        resumed = run_campaign(
            graph, partition, trials=trials, seed=seed,
            policy=policy, shards=shards, backend=tcp,
            resume=checkpoint,
        )
    check(resumed == baseline,
          "post-partition resume identical to serial baseline")
    try:
        with open(manifest_path, encoding="utf-8") as handle:
            manifest = json.load(handle)
    except (OSError, ValueError):
        manifest = {}
    check(manifest.get("complete") is True,
          "resumed run republished a complete manifest")
