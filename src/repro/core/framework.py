"""The integration framework facade.

One object that walks a :class:`SoftwareSystem` through the paper's whole
method: audit the design (§3), expand replication (§5.4), condense the SW
graph with a chosen heuristic (§5.4, §6), map onto the HW graph (§5.3),
and score the result (§5.3).  Each stage is also callable separately; the
facade just sequences them with consistent options and collects the typed
results.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from repro.errors import AllocationError
from repro.allocation.clustering import ClusterState
from repro.allocation.constraints import CombinationPolicy, ResourceRequirements
from repro.allocation.goodness import evaluate_mapping
from repro.allocation.heuristics import (
    condense_criticality,
    condense_h1,
    condense_h2,
    condense_h3,
    condense_timing,
    pack_by_timing,
)
from repro.allocation.heuristics.base import CondensationResult
from repro.allocation.hw_model import HWGraph
from repro.allocation.mapping import Mapping, map_approach_a, map_approach_b
from repro.allocation.sw_graph import expand_replication, required_hw_nodes
from repro.core.results import IntegrationOutcome
from repro.model.fcm import Level
from repro.model.system import SoftwareSystem
from repro.obs import current
from repro.verification.checks import audit_system


class Heuristic(Enum):
    """Condensation heuristics available to the pipeline."""

    H1 = "h1"
    H2 = "h2"
    H3 = "h3"
    H1_ANNEALED = "h1-annealed"  # H1 polished by simulated annealing
    CRITICALITY = "criticality"  # Approach B (§6.2)
    TIMING = "timing"  # slack-driven refinement (Fig. 8)
    TIMING_PACK = "timing-pack"  # first-fit over the timing order


class MappingApproach(Enum):
    IMPORTANCE = "a"  # Approach A: importance of tasks
    ATTRIBUTES = "b"  # Approach B: importance of attributes


@dataclass
class FrameworkOptions:
    """Pipeline configuration."""

    heuristic: Heuristic = Heuristic.H1
    mapping: MappingApproach = MappingApproach.IMPORTANCE
    policy: CombinationPolicy = field(default_factory=CombinationPolicy)
    resources: ResourceRequirements = field(default_factory=ResourceRequirements)
    influence_budget: float = 1.0
    separation_floor: float = 0.0


class IntegrationFramework:
    """End-to-end dependability-driven integration of one system."""

    def __init__(self, system: SoftwareSystem, options: FrameworkOptions | None = None) -> None:
        self.system = system
        self.options = options or FrameworkOptions()

    # ------------------------------------------------------------------
    # Stages
    # ------------------------------------------------------------------
    def audit(self):
        """Stage 1: structural and non-interference audit."""
        with current().span("audit", system=self.system.name):
            return audit_system(
                self.system,
                influence_budget=self.options.influence_budget,
                separation_floor=self.options.separation_floor,
            )

    def expanded_state(self) -> ClusterState:
        """Stage 2: replicate FT>1 processes and start singleton clusters."""
        with current().span("expand") as span:
            graph = self.system.influence_at(Level.PROCESS)
            expanded = expand_replication(graph)
            span.set(processes=len(graph), expanded=len(expanded))
            return ClusterState(expanded, self.options.policy)

    def condense(self, state: ClusterState, target: int) -> CondensationResult:
        """Stage 3: reduce the SW graph to at most ``target`` clusters."""
        heuristic = self.options.heuristic
        rec = current()
        with rec.span("condense", heuristic=heuristic.value, target=target):
            result = self._condense(state, target, heuristic)
        if rec.enabled:
            for step in result.steps:
                rec.decision(
                    "condense",
                    "merge",
                    subject=",".join(step.first) + " + " + ",".join(step.second),
                    reason=step.note or f"heuristic {result.heuristic}",
                    mutual_influence=step.mutual_influence,
                    heuristic=result.heuristic,
                )
        return result

    def _condense(
        self, state: ClusterState, target: int, heuristic: Heuristic
    ) -> CondensationResult:
        if heuristic is Heuristic.H1:
            return condense_h1(state, target)
        if heuristic is Heuristic.H1_ANNEALED:
            from repro.analysis.annealing import AnnealingOptions, anneal

            result = condense_h1(state, target)
            anneal(result.state, AnnealingOptions(iterations=2000, seed=0))
            return result
        if heuristic is Heuristic.H2:
            return condense_h2(state, target)
        if heuristic is Heuristic.H3:
            return condense_h3(state, target)
        if heuristic is Heuristic.CRITICALITY:
            return condense_criticality(state, target)
        if heuristic is Heuristic.TIMING:
            return condense_timing(state, target)
        if heuristic is Heuristic.TIMING_PACK:
            return pack_by_timing(state, target)
        raise AllocationError(f"unknown heuristic {heuristic!r}")

    def map(self, state: ClusterState, hw: HWGraph) -> Mapping:
        """Stage 4: assign clusters to HW nodes."""
        with current().span(
            "map", approach=self.options.mapping.value, hw_nodes=len(hw)
        ):
            if self.options.mapping is MappingApproach.IMPORTANCE:
                return map_approach_a(state, hw, self.options.resources)
            return map_approach_b(state, hw, self.options.resources)

    def validate_by_campaign(
        self,
        outcome: IntegrationOutcome,
        trials: int = 1000,
        seed: int = 0,
    ):
        """Independent validation: seed faults, measure cross-node escapes.

        Returns the :class:`~repro.faultsim.campaign.CampaignResult` and
        appends a one-line note to the outcome — the analytic goodness
        score and the simulated escape rate together close the loop the
        paper's §5.3 containment criterion asks for.
        """
        from repro.faultsim.campaign import run_campaign

        state = outcome.condensation.state
        campaign = run_campaign(
            state.graph, state.as_partition(), trials=trials, seed=seed
        )
        outcome.notes.append(
            f"campaign validation ({trials} faults): "
            f"escape rate {campaign.cross_cluster_rate:.3f}, "
            f"mean affected {campaign.mean_affected_fcms:.3f}"
        )
        return campaign

    # ------------------------------------------------------------------
    # Degraded mode
    # ------------------------------------------------------------------
    def degrade(
        self,
        outcome: IntegrationOutcome,
        failed_nodes: list[str] | tuple[str, ...] | set[str],
        failed_links: tuple[tuple[str, str], ...] = (),
    ):
        """Plan the degraded mapping after losing ``failed_nodes``.

        Re-homes the outcome's clusters on the surviving HW with the
        pipeline's configured mapping approach, shedding the least
        critical clusters if capacity runs out.  Returns the
        :class:`~repro.resilience.degradation.DegradationPlan`.
        """
        from repro.resilience.degradation import plan_degradation

        return plan_degradation(
            outcome,
            failed_nodes,
            failed_links=failed_links,
            approach=self.options.mapping.value,
            resources=self.options.resources,
        )

    def validate_under_failures(
        self,
        outcome: IntegrationOutcome,
        failures: int = 2,
        trials: int = 100,
        seed: int = 0,
        horizon: float = 100.0,
        rates=None,
        policies=None,
    ):
        """Independent validation: inject HW-node failures, measure
        degraded-mode availability.

        Runs a resilience campaign against the outcome's own HW graph and
        appends a one-line note, mirroring :meth:`validate_by_campaign`
        for the hardware-failure axis.  Returns the
        :class:`~repro.resilience.campaign.ResilienceReport`.
        """
        from repro.resilience.campaign import run_resilience_campaign

        report = run_resilience_campaign(
            outcome,
            failures=failures,
            trials=trials,
            seed=seed,
            horizon=horizon,
            rates=rates,
            policies=policies,
            resources=self.options.resources,
            approach=self.options.mapping.value,
        )
        outcome.notes.append(
            f"resilience validation ({trials} trials, {failures} failures): "
            f"min class availability {report.min_availability:.3f}, "
            f"mean clusters shed {report.mean_clusters_shed:.2f}, "
            f"separation violations {report.separation_violations}"
        )
        return report

    # ------------------------------------------------------------------
    # Pipeline
    # ------------------------------------------------------------------
    def integrate(self, hw: HWGraph) -> IntegrationOutcome:
        """Run all stages against ``hw`` and return the full outcome."""
        rec = current()
        with rec.span(
            "pipeline",
            system=self.system.name,
            heuristic=self.options.heuristic.value,
            mapping=self.options.mapping.value,
            hw_nodes=len(hw),
        ):
            audit = self.audit()
            state = self.expanded_state()
            notes = []
            lower = required_hw_nodes(state.graph)
            if lower > len(hw):
                raise AllocationError(
                    f"replication needs {lower} HW nodes but only {len(hw)} exist"
                )
            condensation = self.condense(state, len(hw))
            mapping = self.map(condensation.state, hw)
            with rec.span("score"):
                score = evaluate_mapping(mapping, self.options.resources)
            notes.append(
                f"condensed to {len(condensation.state.clusters)} clusters "
                f"for {len(hw)} HW nodes (replica lower bound {lower})"
            )
        return IntegrationOutcome(
            system_name=self.system.name,
            audit=audit,
            condensation=condensation,
            mapping=mapping,
            score=score,
            notes=notes,
        )


def integrate(
    system: SoftwareSystem,
    hw: HWGraph,
    options: FrameworkOptions | None = None,
) -> IntegrationOutcome:
    """Functional one-shot wrapper around :class:`IntegrationFramework`."""
    return IntegrationFramework(system, options).integrate(hw)
