"""Engine selection for fault campaigns: ``scalar | vector | auto``.

Every campaign entry point takes an ``engine=`` switch:

* ``scalar`` — the per-trial reference oracle
  (:mod:`repro.faultsim.propagation`), pure Python, per-trial seeded.
* ``vector`` — the NumPy batch kernel (:mod:`repro.faultsim.kernel`).
* ``auto`` — the vector kernel; the resolved engine is recorded as a
  typed decision event so a trace shows which engine actually executed
  and why.

The two engines draw from *different* deterministic streams (per-trial
seeds vs. fixed RNG blocks), so their results agree statistically, not
bit-for-bit; a campaign's results are reproducible per engine.  The
resolved engine is part of the campaign's checkpoint fingerprint —
resuming a scalar checkpoint with the vector engine is refused rather
than silently mixing streams.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import SimulationError
from repro.obs import current

ENGINES = ("auto", "scalar", "vector")


@dataclass(frozen=True)
class EngineChoice:
    """The resolved engine plus the reason it was picked."""

    requested: str
    engine: str  # "scalar" or "vector"
    reason: str

    @property
    def is_vector(self) -> bool:
        return self.engine == "vector"


def resolve_engine(requested: str) -> EngineChoice:
    """Resolve ``requested`` to the engine that will run."""
    if requested not in ENGINES:
        raise SimulationError(
            f"unknown engine {requested!r}; choose one of {'/'.join(ENGINES)}"
        )
    if requested == "scalar":
        return EngineChoice(requested, "scalar", "scalar engine requested")
    if requested == "vector":
        return EngineChoice(requested, "vector", "vector engine requested")
    return EngineChoice(
        requested, "vector", "auto picked the vectorized kernel"
    )


def record_engine_decision(category: str, choice: EngineChoice) -> None:
    """Emit the engine decision on the ambient recorder (no-op default)."""
    rec = current()
    if rec.enabled:
        rec.decision(
            category,
            "engine",
            subject=choice.engine,
            reason=choice.reason,
            requested=choice.requested,
        )
