"""The benchmark's workloads: inputs, set-up, rounds of ops, and checks.

Every workload is a closed loop with one caller.  An op is prepared
(input generated, untimed), run (timed, through the public API a user
script calls) and checked (untimed).  Ops come in rounds; a round is the
workload's full input mix, so every completed round weighs the mix the
same way.

The allocation and campaign engines and the exec batch size are left at
their defaults: no ``engine=`` is passed and no batch size is pinned.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.allocation import goodness, hw_model
from repro.core import framework
from repro.core.framework import FrameworkOptions, Heuristic, MappingApproach
from repro.errors import InfeasibleAllocationError
from repro.faultsim import campaign as faultsim_campaign
from repro.io import serialization
from repro.resilience import campaign as resilience_campaign

import checks
from inputs import SystemShape, expected_members, hw_doc, op_rng, system_doc

MAPPINGS = (MappingApproach.IMPORTANCE, MappingApproach.ATTRIBUTES)


@dataclass
class Outcome:
    """What one op produced, after its checks."""

    output: object  # canonical JSON-able output, fed to the digest
    problems: list[str]
    infeasible: bool = False


@dataclass
class Op:
    """One closed-loop op: ``prepare`` and ``check`` run untimed.

    The op is a chain of ``steps``, each fed the previous one's result;
    the loop times them one by one, so that the speed reference can be
    taken between the steps of a long op.
    """

    label: str
    prepare: Callable[[], object]
    steps: tuple[Callable[[object], object], ...]
    check: Callable[[object, object], Outcome]  # (prepared, result)
    group: str = ""  # the report sums op time per group
    kind: str = "integrate"  # integrate, faultsim or resilience
    trials: int = 0  # campaign trials the op runs

    def run(self, prepared):
        value = prepared
        for step in self.steps:
            value = step(value)
        return value


# ----------------------------------------------------------------------
# Integrate workloads
# ----------------------------------------------------------------------
@dataclass
class IntegrateInput:
    doc: dict
    options: FrameworkOptions
    hw_nodes: int = 0  # generated inputs: fully_connected(hw_nodes) in the op
    hw: object = None  # fixed examples: their own HW graph


# The op's steps: parse, integrate, emit.  The outcome is ``None`` when
# the allocation is infeasible.
def parse(prepared: IntegrateInput):
    return prepared, serialization.system_from_dict(prepared.doc)


def allocate(parsed):
    prepared, system = parsed
    hw = prepared.hw if prepared.hw is not None else hw_model.fully_connected(prepared.hw_nodes)
    try:
        return framework.IntegrationFramework(system, prepared.options).integrate(hw), None
    except InfeasibleAllocationError as exc:
        return None, str(exc)


def emit(allocated):
    outcome, infeasible = allocated
    if outcome is None:
        return None, {"infeasible": infeasible}
    return outcome, serialization.outcome_to_dict(outcome)


def check_integrate(prepared: IntegrateInput, result) -> Outcome:
    outcome, emitted = result
    if outcome is None:
        return Outcome(emitted, [], infeasible=True)
    recomputed = checks.score_fields(
        goodness.evaluate_mapping(outcome.mapping, prepared.options.resources)
    )
    hw = outcome.mapping.hw
    problems = checks.check_integration(
        expected_members(prepared.doc), set(hw.names()), emitted, recomputed
    )
    return Outcome(emitted, problems)


def integrate_op(label: str, group: str, prepare: Callable[[], IntegrateInput]) -> Op:
    return Op(label, prepare, (parse, allocate, emit), check_integrate, group=group)


def generated_op(seed: int, index: int, shape: SystemShape, hw_nodes: int,
                 heuristic: Heuristic, mapping: MappingApproach, group: str) -> Op:
    def prepare() -> IntegrateInput:
        rng = op_rng(seed, "integrate", index)
        doc = system_doc(rng, f"generated-{shape.processes}-{index}", shape)
        return IntegrateInput(
            doc, FrameworkOptions(heuristic=heuristic, mapping=mapping), hw_nodes
        )

    return integrate_op(
        f"generated-{shape.processes}/{heuristic.value}/{mapping.value}", group, prepare
    )


class IntegrateLarge:
    """Large generated systems under first-fit packing (TIMING_PACK)."""

    name = "integrate-large"
    kind = "integrate"
    SIZES = (150, 175, 200, 225, 250, 275, 300)
    trace_rounds = 1

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def generate(self) -> None:
        """Nothing up front: each op generates its own document."""

    def setup(self) -> None:
        pass

    def describe(self) -> list[str]:
        return [
            f"inputs: one generated 3-level system per op, {self.SIZES[0]}-"
            f"{self.SIZES[-1]} processes (each size with mapping A and B per "
            "round), 15% influence density per level, 20% replicated at FT 2-3, "
            "utilization 0.3, HW fully_connected(processes/5); TIMING_PACK"
        ]

    def round(self, r: int) -> list[Op]:
        ops = []
        n = len(self.SIZES)
        for j in range(2 * n):
            size = self.SIZES[j % n]
            mapping = MAPPINGS[(j + j // n) % 2]
            ops.append(
                generated_op(
                    self.seed, r * 2 * n + j, SystemShape(processes=size),
                    size // 5, Heuristic.TIMING_PACK, mapping, f"{size} processes",
                )
            )
        return ops


class IntegratePaper:
    """The paper's heuristics on the fixed examples and sized generated systems."""

    name = "integrate-paper"
    kind = "integrate"
    HEURISTICS = (
        Heuristic.H1, Heuristic.H2, Heuristic.H3, Heuristic.CRITICALITY, Heuristic.TIMING,
    )
    # heuristic -> (processes, HW nodes, ops per round); sized so H1 and
    # H2 each take 35-50% of the workload's time.
    GENERATED = {
        Heuristic.H1: (36, 8, 8),
        Heuristic.H2: (16, 5, 8),
        Heuristic.H3: (60, 14, 2),
        Heuristic.CRITICALITY: (60, 14, 2),
        Heuristic.TIMING: (32, 8, 2),
    }
    trace_rounds = 2

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.fixed: list[tuple[str, dict, Callable, dict]] = []

    def setup(self) -> None:
        pass

    def generate(self) -> None:
        """Serialize the shipped examples once (input generation, untimed)."""
        from repro.workloads import (
            HW_NODE_COUNT, automotive_hw, automotive_policy, automotive_resources,
            automotive_system, avionics_hw, avionics_resources, avionics_system,
            paper_system,
        )

        self.fixed = [
            ("paper-8", serialization.system_to_dict(paper_system()),
             lambda: hw_model.fully_connected(HW_NODE_COUNT), {}),
            ("avionics", serialization.system_to_dict(avionics_system()),
             lambda: avionics_hw(6), {"resources": avionics_resources}),
            ("automotive", serialization.system_to_dict(automotive_system()),
             automotive_hw,
             {"policy": automotive_policy, "resources": automotive_resources}),
        ]

    def describe(self) -> list[str]:
        sizes = ", ".join(
            f"{h.value} {n} processes on {k} nodes x{c}"
            for h, (n, k, c) in self.GENERATED.items()
        )
        return [
            "inputs: paper-8 on 6 nodes, avionics and automotive with their own "
            "HW graphs, resources and policy, each under H1, H2, H3, "
            "criticality and timing with mapping A and B",
            f"inputs: plus one generated 3-level system per op ({sizes}; 15% "
            "density, 20% replicated, utilization 0.3), mappings alternating",
        ]

    def round(self, r: int) -> list[Op]:
        ops = []
        per_round = sum(c for _n, _k, c in self.GENERATED.values())
        index = r * per_round
        for heuristic in self.HEURISTICS:
            for mapping in MAPPINGS:
                for label, doc, make_hw, extra in self.fixed:
                    ops.append(self._fixed_op(label, doc, make_hw, extra, heuristic, mapping))
            processes, hw_nodes, count = self.GENERATED[heuristic]
            for c in range(count):
                ops.append(
                    generated_op(
                        self.seed, index, SystemShape(processes=processes),
                        hw_nodes, heuristic, MAPPINGS[(r + c) % 2], heuristic.value,
                    )
                )
                index += 1
        return ops

    @staticmethod
    def _fixed_op(label, doc, make_hw, extra, heuristic, mapping) -> Op:
        def prepare() -> IntegrateInput:
            options = FrameworkOptions(
                heuristic=heuristic, mapping=mapping,
                **{key: make() for key, make in extra.items()},
            )
            return IntegrateInput(doc, options, hw=make_hw())

        return integrate_op(
            f"{label}/{heuristic.value}/{mapping.value}", heuristic.value, prepare
        )


# ----------------------------------------------------------------------
# Campaign workloads
# ----------------------------------------------------------------------
# (processes, mean out-degree, HW nodes) of the three campaign targets.
TARGETS = ((100, 2.0, 12), (150, 3.0, 24), (200, 4.0, 40))
TARGET_SHAPE = dict(levels=1, replicated=0.25, utilization=0.12)
FAULT_TRIALS = 2048
RESILIENCE_TRIALS = 100
FAILURES = 2


@dataclass
class Target:
    label: str
    outcome: object
    graph: object
    partition: list


class Campaigns:
    """Fault-injection and HW-failure campaigns on integrated targets."""

    name = "campaigns"
    kind = "campaigns"
    trace_rounds = 2

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.docs: list[tuple[str, dict, dict]] = []
        self.targets: list[Target] = []

    def generate(self) -> None:
        self.docs = []
        for i, (processes, degree, nodes) in enumerate(TARGETS):
            shape = SystemShape(processes=processes, out_degree=degree, **TARGET_SHAPE)
            label = f"target-{processes}"
            doc = system_doc(op_rng(self.seed, "campaign-target", i), label, shape)
            self.docs.append((label, doc, hw_doc(nodes)))

    def setup(self) -> None:
        """Parse and integrate the targets (TIMING_PACK, mapping A)."""
        self.targets = []
        for label, doc, hw in self.docs:
            system = serialization.system_from_dict(doc)
            options = FrameworkOptions(heuristic=Heuristic.TIMING_PACK)
            outcome = framework.IntegrationFramework(system, options).integrate(
                serialization.hw_from_dict(hw)
            )
            state = outcome.condensation.state
            self.targets.append(Target(label, outcome, state.graph, state.as_partition()))

    def describe(self) -> list[str]:
        lines = [
            f"inputs: {len(TARGETS)} generated process graphs, 25% replicated at "
            "FT 2-3, utilization 0.12, integrated with TIMING_PACK/A; per round and "
            f"target one fault campaign ({FAULT_TRIALS} trials) and one resilience "
            f"campaign ({RESILIENCE_TRIALS} trials, {FAILURES} failures), with a "
            "seed per round and target; a round is one sweep"
        ]
        for (processes, degree, nodes), target in zip(TARGETS, self.targets):
            graph = target.graph
            lines.append(
                f"target {target.label}: {processes} processes, mean out-degree "
                f"{degree}, {len(graph)} FCMs, {len(graph.influence_edges())} "
                f"influence edges, {len(target.partition)} clusters on {nodes} "
                "HW nodes"
            )
        return lines

    def round(self, r: int) -> list[Op]:
        ops = []
        for t, target in enumerate(self.targets):
            index = r * len(self.targets) + t
            ops.append(self._op(target, index, "faultsim", FAULT_TRIALS))
            ops.append(self._op(target, index, "resilience", RESILIENCE_TRIALS))
        return ops

    def _op(self, target: Target, index: int, kind: str, trials: int) -> Op:
        def prepare() -> int:
            return op_rng(self.seed, "campaign", index).getrandbits(31)

        def run(seed: int):
            return run_campaign(kind, target, seed)

        def check(seed: int, result) -> Outcome:
            problems = checks.check_campaign(kind, result, trials)
            output = {"target": target.label, kind: checks.result_fields(result)}
            return Outcome(output, problems)

        return Op(f"{target.label}/{kind}/{index}", prepare, (run,), check,
                  group=f"{target.label} {kind}", kind=kind, trials=trials)


def run_campaign(kind: str, target: Target, seed: int):
    """One in-process fault-injection or HW-failure campaign on ``target``."""
    if kind == "faultsim":
        return faultsim_campaign.run_campaign(
            target.graph, target.partition, trials=FAULT_TRIALS, seed=seed
        )
    return resilience_campaign.run_resilience_campaign(
        target.outcome, failures=FAILURES, trials=RESILIENCE_TRIALS, seed=seed
    )


WORKLOADS = {w.name: w for w in (IntegrateLarge, IntegratePaper, Campaigns)}
