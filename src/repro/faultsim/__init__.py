"""Fault-injection simulator: propagation, estimation, campaigns.

Two interchangeable trial engines back every campaign and estimator:
the scalar per-trial oracle (:mod:`repro.faultsim.propagation`) and the
NumPy batch kernel (:mod:`repro.faultsim.kernel`), selected with
``engine="auto" | "scalar" | "vector"`` (see
:func:`repro.faultsim.engine.resolve_engine`).
"""

from repro.faultsim.campaign import (
    CampaignResult,
    compare_partitions,
    run_campaign,
)
from repro.faultsim.engine import ENGINES, EngineChoice, resolve_engine
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
    ScalarAdjacency,
    affected_counts,
    compile_adjacency,
    expected_affected,
    propagate_once,
)

__all__ = [
    "CampaignResult",
    "CompiledGraph",
    "DEFAULT_BLOCK_SIZE",
    "DEFAULT_CONTAINMENT",
    "ENGINES",
    "EngineChoice",
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
    "expected_affected",
    "hierarchy_value",
    "max_estimation_error",
    "propagate_once",
    "propagate_with_draws",
    "resolve_engine",
    "run_multilevel_campaign",
    "run_campaign",
    "simulate_range",
]
