"""Fault-injection campaigns over partitions and mappings.

Where :mod:`repro.faultsim.monte_carlo` estimates pairwise parameters,
campaigns answer system-level questions: *given this clustering, how far
does a fault travel?*  A campaign seeds faults uniformly over FCMs and
reports, per trial, how many FCMs and how many *clusters* (HW nodes) were
affected — the quantitative version of "mapping of FCMs which influence
each other strongly onto the same node ... so faults are not propagated
across HW nodes" (§5.3).

Trials run on the NumPy batch kernel (:mod:`repro.faultsim.kernel`),
through :mod:`repro.exec` in the kernel's 256-trial RNG blocks, so the
result is bit-identical whether the campaign runs in-process, across
worker slots, sharded, or resumed from a checkpoint after a crash.  Pass
an :class:`~repro.exec.runner.ExecPolicy` to parallelise and
``checkpoint=``/``resume=`` paths to make the run crash-safe.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.errors import SimulationError
from repro.exec.runner import ExecPolicy, ExecReport, run_supervised
from repro.exec.shards import run_sharded
from repro.faultsim import kernel
from repro.influence.influence_graph import InfluenceGraph
from repro.obs import DEFAULT_COUNT_BUCKETS, current

#: The kernel's RNG stream, as the checkpoint fingerprint and the shard
#: task spec name it.  A checkpoint or spec of the retired per-trial
#: engine says ``"scalar"`` and is refused, not mixed into this stream.
_STREAM = "vector"


@dataclass(frozen=True)
class CampaignResult:
    """Aggregates of one fault-injection campaign.

    Attributes:
        trials: Number of injected faults.
        mean_affected_fcms: Average FCMs affected per trial (excluding the
            seeded FCM).
        mean_affected_clusters: Average clusters containing at least one
            affected FCM, beyond the seed's own cluster.
        max_affected_fcms: Worst single trial.
        cross_cluster_rate: Fraction of trials in which the fault escaped
            the seed's cluster.
        elapsed_s: Wall time of the campaign loop (``perf_counter``;
            excluded from equality so seeded reruns still compare equal).
        trials_per_s: Campaign throughput (also excluded from equality).
        exec_report: How the supervisor completed the campaign (also
            excluded from equality).
    """

    trials: int
    mean_affected_fcms: float
    mean_affected_clusters: float
    max_affected_fcms: int
    cross_cluster_rate: float
    elapsed_s: float = field(default=0.0, compare=False)
    trials_per_s: float = field(default=0.0, compare=False)
    exec_report: ExecReport | None = field(
        default=None, compare=False, repr=False
    )


def _check_partition(
    graph: InfluenceGraph, partition: list[list[str]]
) -> dict[str, int]:
    names = graph.fcm_names()
    if not names:
        raise SimulationError("graph has no FCMs")
    cluster_of: dict[str, int] = {}
    for index, block in enumerate(partition):
        for member in block:
            if member in cluster_of:
                raise SimulationError(f"{member!r} appears in two blocks")
            cluster_of[member] = index
    missing = [n for n in names if n not in cluster_of]
    if missing:
        raise SimulationError(f"partition misses FCMs: {missing!r}")
    known = set(names)
    unknown = sorted(member for member in cluster_of if member not in known)
    if unknown:
        raise SimulationError(f"partition contains unknown FCMs: {unknown!r}")
    return cluster_of


def _combine(a: dict, b: dict) -> dict:
    """Merge the payloads of two adjacent trial ranges (trial order)."""
    return {
        "affected": a["affected"] + b["affected"],
        "cluster_hits": a["cluster_hits"] + b["cluster_hits"],
    }


def _batch_task(graph, cluster_of, clusters):
    """Whole batches of trials as matrix operations on the kernel.

    The kernel's functions are looked up on the module at call time, so
    a wrapper installed there (the benchmark's span hooks) sees them.
    """
    compiled = kernel.compile_graph(graph)
    cluster_vector = np.array(
        [cluster_of[name] for name in compiled.names], dtype=np.int64
    )

    def run_batch(start: int, size: int, campaign_seed: int) -> dict:
        return kernel.campaign_batch(
            compiled, cluster_vector, clusters, campaign_seed, start, size
        )

    return run_batch


def _task_from_params(params: dict):
    """Rebuild a campaign batch task from a JSON task spec.

    This is the factory behind the shard task-spec entry
    ``"repro.faultsim.campaign:_task_from_params"``: a subprocess shard
    worker receives only JSON (serialized graph, partition, stream) and
    rebuilds the same closure the in-process path uses.  A spec naming
    any stream but the kernel's is refused: a ``--listen`` worker can be
    dialled by a supervisor of an older release that asks for the
    retired per-trial engine.
    """
    from repro.io.serialization import graph_from_dict

    if params.get("engine") != _STREAM:
        raise SimulationError(
            f"campaign task spec names engine {params.get('engine')!r}; "
            f"this release runs only {_STREAM!r}"
        )
    graph = graph_from_dict(params["graph"])
    partition = [list(block) for block in params["partition"]]
    cluster_of = _check_partition(graph, partition)
    return _batch_task(graph, cluster_of, len(partition))


def campaign_task_spec(
    graph: InfluenceGraph, partition: list[list[str]]
) -> dict:
    """The JSON task spec an out-of-process shard worker rebuilds from."""
    from repro.io.serialization import graph_to_dict

    return {
        "entry": "repro.faultsim.campaign:_task_from_params",
        "params": {
            "graph": graph_to_dict(graph),
            "partition": [list(block) for block in partition],
            "engine": _STREAM,
        },
    }


def run_campaign(
    graph: InfluenceGraph,
    partition: list[list[str]],
    trials: int = 1000,
    seed: int = 0,
    policy: ExecPolicy | None = None,
    checkpoint: str | None = None,
    resume: str | None = None,
    chaos=None,
    backend: str | None = None,
    shards: int = 0,
    listen: str | None = None,
    profile: float | None = None,
) -> CampaignResult:
    """Seed ``trials`` faults uniformly over FCMs and measure spread.

    ``partition`` maps FCMs to clusters (HW nodes); propagation runs on
    the *FCM-level* graph — the partition only determines how spread is
    counted.  Intra-cluster edges are assumed contained by the shared
    node's FCR in the cross-cluster accounting, per the paper's fault
    containment argument.

    The result is a pure function of ``(trials, seed)``: the kernel
    draws fixed RNG blocks, so it does not depend on ``policy``
    (workers), the shard plan, retries, or checkpoint/resume history.

    ``backend``/``shards`` pick the lease supervisor's shape explicitly
    (:func:`repro.exec.shards.run_sharded`): ``backend`` the transport
    (``"local"`` forked slots, ``"subprocess"`` isolated interpreters,
    or ``"tcp"`` workers over real network connections — or a pre-built
    :class:`~repro.exec.backend.ExecBackend` instance), ``shards`` the
    split into leases of 256-trial blocks, and ``listen`` (tcp only) a
    ``HOST:PORT`` to await hand-started remote workers on.  Checkpoints
    are interchangeable between every path (same fingerprint, same
    record format), and ``chaos`` is a
    :class:`~repro.exec.chaos.ShardChaos` on all of them.

    ``profile`` (a sampling rate in Hz) only applies on the sharded
    path under an enabled recorder: it turns on worker-side
    stack/resource profiling whose batches merge into the campaign
    trace (see :mod:`repro.obs.telemetry`).  It does not affect the
    result.
    """
    if trials < 1:
        raise SimulationError("trials must be >= 1")
    cluster_of = _check_partition(graph, partition)
    names = graph.fcm_names()
    run_batch = _batch_task(graph, cluster_of, len(partition))

    rec = current()
    policy = policy or ExecPolicy()
    t0 = time.perf_counter()
    with rec.span(
        "faultsim.campaign",
        trials=trials,
        seed=seed,
        fcms=len(names),
        clusters=len(partition),
        workers=policy.workers,
    ):
        campaign_params = {
            "fcms": sorted(names),
            "clusters": len(partition),
            "engine": _STREAM,
        }
        if backend is not None or shards > 0:
            task_spec = None
            if backend in ("subprocess", "tcp"):
                task_spec = campaign_task_spec(graph, partition)
            payloads, exec_report = run_sharded(
                run_batch,
                trials=trials,
                seed=seed,
                kind="faultsim",
                params=campaign_params,
                policy=policy,
                shards=shards,
                backend=backend or "local",
                task_spec=task_spec,
                combine=_combine,
                checkpoint=checkpoint,
                resume=resume,
                chaos=chaos,
                listen=listen,
                profile=profile,
            )
        else:
            payloads, exec_report = run_supervised(
                run_batch,
                trials=trials,
                seed=seed,
                kind="faultsim",
                params=campaign_params,
                policy=policy,
                combine=_combine,
                checkpoint=checkpoint,
                resume=resume,
                chaos=chaos,
            )
        spread_hist = (
            rec.histogram("faultsim_affected_fcms", buckets=DEFAULT_COUNT_BUCKETS)
            if rec.enabled
            else None
        )
        total_fcms = 0
        total_clusters = 0
        worst = 0
        escapes = 0
        for payload in payloads:
            for count, hits in zip(payload["affected"], payload["cluster_hits"]):
                total_fcms += count
                total_clusters += hits
                worst = max(worst, count)
                if hits:
                    escapes += 1
                if spread_hist is not None:
                    spread_hist.observe(count)
    elapsed = time.perf_counter() - t0
    rate = trials / elapsed if elapsed > 0 else 0.0
    if rec.enabled:
        rec.counter("faultsim_trials_total").inc(trials)
        rec.counter("faultsim_escapes_total").inc(escapes)
        rec.gauge("faultsim_trials_per_s").set(rate)
    return CampaignResult(
        trials=trials,
        mean_affected_fcms=total_fcms / trials,
        mean_affected_clusters=total_clusters / trials,
        max_affected_fcms=worst,
        cross_cluster_rate=escapes / trials,
        elapsed_s=elapsed,
        trials_per_s=rate,
        exec_report=exec_report,
    )


def compare_partitions(
    graph: InfluenceGraph,
    partitions: dict[str, list[list[str]]],
    trials: int = 1000,
    seed: int = 0,
) -> dict[str, CampaignResult]:
    """Run the same campaign (same seed) against several partitions."""
    return {
        label: run_campaign(graph, partition, trials=trials, seed=seed)
        for label, partition in partitions.items()
    }
