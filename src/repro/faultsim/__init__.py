"""Fault-injection simulator: propagation, estimation, campaigns.

One trial engine backs every campaign and estimator: the NumPy batch
kernel (:mod:`repro.faultsim.kernel`).  Its oracles are the exact hit
probabilities of :func:`~repro.faultsim.propagation.exact_hit_probabilities`
(every outcome of a small graph's edges, enumerated) and the per-trial
walk :func:`~repro.faultsim.propagation.propagate_once`, which a shared
draw matrix must drive to the kernel's affected sets.
"""

from repro.faultsim.campaign import (
    CampaignResult,
    compare_partitions,
    run_campaign,
)
from repro.faultsim.events import PairEstimate, TrialRecord
from repro.faultsim.kernel import (
    DEFAULT_BLOCK_SIZE,
    CompiledGraph,
    campaign_batch,
    compile_graph,
    propagate_with_draws,
    simulate_range,
)
from repro.faultsim.multilevel import (
    DEFAULT_CONTAINMENT,
    MultiLevelResult,
    hierarchy_value,
    run_multilevel_campaign,
)
from repro.faultsim.monte_carlo import (
    estimate_all_influences,
    estimate_influence,
    estimate_separation,
    estimate_transitive_influence,
    max_estimation_error,
)
from repro.faultsim.propagation import (
    MAX_EXACT_EDGES,
    ScalarAdjacency,
    affected_counts,
    compile_adjacency,
    exact_hit_probabilities,
    expected_affected,
    propagate_once,
)

__all__ = [
    "CampaignResult",
    "CompiledGraph",
    "DEFAULT_BLOCK_SIZE",
    "DEFAULT_CONTAINMENT",
    "MAX_EXACT_EDGES",
    "MultiLevelResult",
    "PairEstimate",
    "ScalarAdjacency",
    "TrialRecord",
    "affected_counts",
    "campaign_batch",
    "compare_partitions",
    "compile_adjacency",
    "compile_graph",
    "estimate_all_influences",
    "estimate_influence",
    "estimate_separation",
    "estimate_transitive_influence",
    "exact_hit_probabilities",
    "expected_affected",
    "hierarchy_value",
    "max_estimation_error",
    "propagate_once",
    "propagate_with_draws",
    "run_multilevel_campaign",
    "run_campaign",
    "simulate_range",
]
