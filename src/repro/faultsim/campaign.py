"""Fault-injection campaigns over partitions and mappings.

Where :mod:`repro.faultsim.monte_carlo` estimates pairwise parameters,
campaigns answer system-level questions: *given this clustering, how far
does a fault travel?*  A campaign seeds faults uniformly over FCMs and
reports, per trial, how many FCMs and how many *clusters* (HW nodes) were
affected — the quantitative version of "mapping of FCMs which influence
each other strongly onto the same node ... so faults are not propagated
across HW nodes" (§5.3).

Campaigns execute through :mod:`repro.exec` in block-aligned trial
ranges: the vector kernel's 256-trial RNG blocks, or 32-trial blocks of
per-trial seeds (:func:`repro.exec.batching.derive_seed`) on the scalar
engine — so the result is bit-identical whether the campaign runs
in-process, across worker slots, sharded, or resumed from a checkpoint
after a crash.  Pass an :class:`~repro.exec.runner.ExecPolicy` to parallelise
and ``checkpoint=``/``resume=`` paths to make the run crash-safe.

``engine=`` selects the trial simulator: the scalar per-trial oracle,
the NumPy batch kernel (:mod:`repro.faultsim.kernel`), or ``auto``
(vector when numpy is importable).  Each engine is deterministic on its
own stream; the resolved engine is baked into the checkpoint fingerprint
so resume never mixes streams.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field

from repro.errors import SimulationError
from repro.exec.backend import LEASE_BLOCK_TRIALS, SCALAR_BLOCK_TRIALS
from repro.exec.batching import derive_seed
from repro.exec.runner import ExecPolicy, ExecReport, run_supervised
from repro.exec.shards import run_sharded
from repro.faultsim.engine import record_engine_decision, resolve_engine
from repro.faultsim.propagation import compile_adjacency, propagate_once
from repro.influence.influence_graph import InfluenceGraph
from repro.obs import DEFAULT_COUNT_BUCKETS, current


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
        engine: Which trial simulator produced the result (``scalar`` or
            ``vector``; excluded from equality — engines are compared
            statistically, not bit-wise).
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
    engine: str = field(default="scalar", compare=False)
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


def _scalar_batch_task(graph, names, cluster_of):
    """The per-trial reference path, with the adjacency hoisted out.

    The compiled adjacency is captured by the closure, so forked slots
    receive it once at fork time — leases stay ``(start, size)`` ranges.
    """
    adjacency = compile_adjacency(graph)

    def run_batch(start: int, size: int, campaign_seed: int) -> dict:
        affected: list[int] = []
        cluster_hits: list[int] = []
        for trial in range(start, start + size):
            rng = random.Random(derive_seed(campaign_seed, trial))
            source = names[rng.randrange(len(names))]
            record = propagate_once(
                graph, source, rng, trial, adjacency=adjacency
            )
            others = record.affected - {source}
            seed_cluster = cluster_of[source]
            hit = {cluster_of[n] for n in others} - {seed_cluster}
            affected.append(len(others))
            cluster_hits.append(len(hit))
        return {"affected": affected, "cluster_hits": cluster_hits}

    return run_batch


def _vector_batch_task(graph, names, cluster_of, clusters):
    """The NumPy kernel path: whole batches as matrix operations."""
    import numpy as np

    from repro.faultsim.kernel import campaign_batch, compile_graph

    compiled = compile_graph(graph)
    cluster_vector = np.array(
        [cluster_of[name] for name in compiled.names], dtype=np.int64
    )

    def run_batch(start: int, size: int, campaign_seed: int) -> dict:
        return campaign_batch(
            compiled, cluster_vector, clusters, campaign_seed, start, size
        )

    return run_batch


def _task_from_params(params: dict):
    """Rebuild a campaign batch task from a JSON task spec.

    This is the factory behind the shard task-spec entry
    ``"repro.faultsim.campaign:_task_from_params"``: a subprocess shard
    worker receives only JSON (serialized graph, partition, resolved
    engine — never ``"auto"``, so every worker runs the exact stream the
    supervisor fingerprinted) and rebuilds the same closure the
    in-process path uses.
    """
    from repro.io.serialization import graph_from_dict

    graph = graph_from_dict(params["graph"])
    partition = [list(block) for block in params["partition"]]
    cluster_of = _check_partition(graph, partition)
    names = graph.fcm_names()
    if params["engine"] == "vector":
        return _vector_batch_task(graph, names, cluster_of, len(partition))
    return _scalar_batch_task(graph, names, cluster_of)


def campaign_task_spec(
    graph: InfluenceGraph, partition: list[list[str]], engine: str
) -> dict:
    """The JSON task spec an out-of-process shard worker rebuilds from.

    ``engine`` must already be resolved (``"scalar"``/``"vector"``,
    never ``"auto"``) so every worker runs the exact stream the
    supervisor fingerprinted.
    """
    from repro.io.serialization import graph_to_dict

    return {
        "entry": "repro.faultsim.campaign:_task_from_params",
        "params": {
            "graph": graph_to_dict(graph),
            "partition": [list(block) for block in partition],
            "engine": engine,
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
    engine: str = "auto",
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

    The result is a pure function of ``(trials, seed, engine)``: the
    scalar engine seeds trial ``t`` with ``derive_seed(seed, t)``, the
    vector engine draws fixed RNG blocks — neither depends on ``policy``
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
    choice = resolve_engine(engine)
    record_engine_decision("faultsim", choice)
    if choice.is_vector:
        run_batch = _vector_batch_task(
            graph, names, cluster_of, len(partition)
        )
        block = LEASE_BLOCK_TRIALS
    else:
        run_batch = _scalar_batch_task(graph, names, cluster_of)
        block = SCALAR_BLOCK_TRIALS

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
        engine=choice.engine,
    ):
        campaign_params = {
            "fcms": sorted(names),
            "clusters": len(partition),
            "engine": choice.engine,
        }
        if backend is not None or shards > 0:
            task_spec = None
            if backend in ("subprocess", "tcp"):
                task_spec = campaign_task_spec(
                    graph, partition, choice.engine
                )
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
                block=block,
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
        rec.counter("faultsim_trials_total").inc(trials, engine=choice.engine)
        rec.counter("faultsim_escapes_total").inc(escapes)
        rec.gauge("faultsim_trials_per_s").set(rate)
    return CampaignResult(
        trials=trials,
        mean_affected_fcms=total_fcms / trials,
        mean_affected_clusters=total_clusters / trials,
        max_affected_fcms=worst,
        cross_cluster_rate=escapes / trials,
        engine=choice.engine,
        elapsed_s=elapsed,
        trials_per_s=rate,
        exec_report=exec_report,
    )


def compare_partitions(
    graph: InfluenceGraph,
    partitions: dict[str, list[list[str]]],
    trials: int = 1000,
    seed: int = 0,
    engine: str = "auto",
) -> dict[str, CampaignResult]:
    """Run the same campaign (same seed) against several partitions."""
    return {
        label: run_campaign(
            graph, partition, trials=trials, seed=seed, engine=engine
        )
        for label, partition in partitions.items()
    }
