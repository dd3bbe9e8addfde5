"""repro — Dependability-Driven Software Integration (DDSI).

A reproduction of "A Framework for Dependability Driven Software
Integration" (Suri, Ghosh & Marlowe, ICDCS 1998): fault containment
modules, rules of composition, influence/separation metrics, and HW/SW
allocation heuristics, plus the substrates (graphs, scheduling, fault
simulation) needed to exercise them.

Quick start::

    from repro import (
        paper_system, fully_connected, IntegrationFramework, FrameworkOptions
    )

    outcome = IntegrationFramework(paper_system()).integrate(fully_connected(6))
    print(outcome.summary())

Subpackages:

* ``repro.model`` — FCMs, attributes, fault taxonomy, hierarchy
* ``repro.composition`` — rules R1-R5, merging/grouping, retest tracking
* ``repro.influence`` — Eqs. (1)-(4), separation, estimation, reduction
* ``repro.scheduling`` — EDF/RM feasibility, timing-fault simulation
* ``repro.allocation`` — SW/HW graphs, heuristics H1-H3, mapping, goodness
* ``repro.faultsim`` — Monte-Carlo fault propagation and campaigns
* ``repro.resilience`` — HW-failure injection, degraded-mode planning,
  recovery policies (restart/retry/failover)
* ``repro.verification`` — non-interference battery, system audit
* ``repro.metrics`` — containment/dependability measures, text reports
* ``repro.workloads`` — paper example, avionics + automotive scenarios,
  generators
* ``repro.core`` — the end-to-end :class:`IntegrationFramework`
* ``repro.analysis`` — trade-off sweeps, codesign, exact optima, annealing
* ``repro.obs`` — tracing, metrics, decision events, one trace per run
  (``--trace``)
* ``repro.extensions`` — the OO class level (paper footnote 4)
* ``repro.io`` — JSON round-trip, Graphviz export; ``repro.cli`` — the
  ``python -m repro`` command line
"""

from repro.core import (
    FrameworkOptions,
    Heuristic,
    IntegrationFramework,
    IntegrationOutcome,
    MappingApproach,
    integrate,
)
from repro.allocation import (
    ClusterState,
    CombinationPolicy,
    HWGraph,
    HWNode,
    expand_replication,
    fully_connected,
    initial_state,
)
from repro.influence import InfluenceFactor, InfluenceGraph, FactorKind
from repro.model import (
    FCM,
    AttributeSet,
    FCMHierarchy,
    Level,
    SecurityLevel,
    SoftwareSystem,
    TimingConstraint,
)
from repro.resilience import (
    DegradationPlan,
    FailureEvent,
    FailureKind,
    FailureScenario,
    ResilienceReport,
    plan_degradation,
    run_resilience_campaign,
)
from repro.workloads import avionics_system, paper_system, random_system

__version__ = "1.0.0"

__all__ = [
    "AttributeSet",
    "ClusterState",
    "CombinationPolicy",
    "DegradationPlan",
    "FCM",
    "FCMHierarchy",
    "FactorKind",
    "FailureEvent",
    "FailureKind",
    "FailureScenario",
    "FrameworkOptions",
    "HWGraph",
    "HWNode",
    "Heuristic",
    "InfluenceFactor",
    "InfluenceGraph",
    "IntegrationFramework",
    "IntegrationOutcome",
    "Level",
    "MappingApproach",
    "ResilienceReport",
    "SecurityLevel",
    "SoftwareSystem",
    "TimingConstraint",
    "__version__",
    "avionics_system",
    "expand_replication",
    "fully_connected",
    "initial_state",
    "integrate",
    "paper_system",
    "plan_degradation",
    "random_system",
    "run_resilience_campaign",
]
