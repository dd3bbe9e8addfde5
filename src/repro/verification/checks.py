"""The full design-audit battery.

Ties together the structural audits (hierarchy rules), the analytic
non-interference checks, and the fault-level discipline check ("obtaining
isolation of fault types into fixed levels of a design/implementation
hierarchy") into one report over a :class:`SoftwareSystem`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.influence.factors import FactorKind
from repro.model.fcm import Level
from repro.model.system import SoftwareSystem
from repro.verification.noninterference import (
    NonInterferenceReport,
    verify_noninterference,
)

# Which factor kinds are legitimate at which level: procedure-level
# mechanisms must not appear between processes, and vice versa.  Task
# techniques "are also applicable at the process level", so the shared
# kinds list both levels.
ALLOWED_FACTORS: dict[Level, frozenset[FactorKind]] = {
    Level.PROCEDURE: frozenset(
        {FactorKind.PARAMETER_PASSING, FactorKind.GLOBAL_VARIABLE}
    ),
    Level.TASK: frozenset(
        {
            FactorKind.SHARED_MEMORY,
            FactorKind.MESSAGE_PASSING,
            FactorKind.TIMING,
        }
    ),
    Level.PROCESS: frozenset(
        {
            FactorKind.SHARED_MEMORY,
            FactorKind.MESSAGE_PASSING,
            FactorKind.TIMING,
            FactorKind.RESOURCE_SHARING,
        }
    ),
}


@dataclass
class AuditReport:
    """Everything the battery found, grouped by category."""

    structural: list[str] = field(default_factory=list)
    level_discipline: list[str] = field(default_factory=list)
    noninterference: dict[Level, NonInterferenceReport] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return (
            not self.structural
            and not self.level_discipline
            and all(report.passed for report in self.noninterference.values())
        )

    def describe(self) -> list[str]:
        lines = list(self.structural)
        lines.extend(self.level_discipline)
        for level, report in self.noninterference.items():
            lines.extend(f"[{level.name}] {msg}" for msg in report.describe())
        return lines


def audit_system(
    system: SoftwareSystem,
    influence_budget: float = 1.0,
    separation_floor: float = 0.0,
) -> AuditReport:
    """Run every check against ``system``."""
    report = AuditReport()
    report.structural = system.validate()

    for level, graph in system.influence.items():
        allowed = ALLOWED_FACTORS.get(level, frozenset(FactorKind))
        for src, dst, _w, factors in graph.influence_edge_factors():
            for factor in factors:
                if factor.kind not in allowed:
                    report.level_discipline.append(
                        f"factor {factor.kind.value} on {src} -> {dst} is "
                        f"not a {level.name}-level mechanism"
                    )
        report.noninterference[level] = verify_noninterference(
            graph,
            influence_budget=influence_budget,
            separation_floor=separation_floor,
        )
    return report
