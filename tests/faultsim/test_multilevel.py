"""Multi-level containment simulation."""

import os
import subprocess
import sys

import pytest

import repro

from repro.errors import SimulationError
from repro.faultsim import (
    hierarchy_value,
    run_multilevel_campaign,
)
from repro.model import AttributeSet, Level, SoftwareSystem
from repro.model.fcm import procedure, process, task
from repro.workloads import random_system


def tiny_system(proc_influence: float = 0.0) -> SoftwareSystem:
    """Two processes, each one task with one procedure."""
    s = SoftwareSystem(name="tiny")
    for p in ("pa", "pb"):
        s.hierarchy.add(process(p))
        s.hierarchy.add(task(f"{p}.t"), parent=p)
        s.hierarchy.add(procedure(f"{p}.t.f"), parent=f"{p}.t")
    if proc_influence:
        graph = s.influence_at(Level.PROCEDURE)
        graph.set_influence("pa.t.f", "pb.t.f", proc_influence)
    s.influence_at(Level.TASK)
    s.influence_at(Level.PROCESS)
    return s


class TestRunMultilevel:
    def test_full_containment_never_escalates(self):
        s = tiny_system()
        result = run_multilevel_campaign(
            s,
            trials=300,
            containment={Level.TASK: 1.0, Level.PROCESS: 1.0},
            seed=0,
        )
        assert result.mean_tasks_affected == 0.0
        assert result.mean_processes_affected == 0.0
        assert result.process_escape_rate == 0.0
        assert result.mean_procedures_affected == pytest.approx(1.0)

    def test_zero_containment_always_escalates(self):
        s = tiny_system()
        result = run_multilevel_campaign(
            s,
            trials=300,
            containment={Level.TASK: 0.0, Level.PROCESS: 0.0},
            seed=0,
        )
        # One procedure fault -> its task -> its process, every trial.
        assert result.mean_tasks_affected == pytest.approx(1.0)
        assert result.mean_processes_affected == pytest.approx(1.0)
        assert result.process_escape_rate == 1.0

    def test_partial_containment_between_extremes(self):
        s = tiny_system()
        result = run_multilevel_campaign(
            s,
            trials=3000,
            containment={Level.TASK: 0.5, Level.PROCESS: 0.5},
            seed=1,
        )
        assert result.mean_tasks_affected == pytest.approx(0.5, abs=0.05)
        assert result.mean_processes_affected == pytest.approx(0.25, abs=0.05)

    def test_lateral_spread_at_procedure_level(self):
        s = tiny_system(proc_influence=1.0)
        result = run_multilevel_campaign(
            s,
            trials=200,
            containment={Level.TASK: 1.0, Level.PROCESS: 1.0},
            seed=0,
        )
        # Half the seeds start at pa.t.f and certainly infect pb.t.f.
        assert result.mean_procedures_affected == pytest.approx(1.5, abs=0.1)

    def test_validation(self):
        s = tiny_system()
        with pytest.raises(SimulationError):
            run_multilevel_campaign(s, trials=0)
        with pytest.raises(SimulationError):
            run_multilevel_campaign(
                s, containment={Level.TASK: 1.5}
            )
        empty = SoftwareSystem(name="empty")
        with pytest.raises(SimulationError, match="no procedures"):
            run_multilevel_campaign(empty)


class TestHierarchyValue:
    def test_hierarchy_never_worse(self):
        system = random_system(processes=3, seed=4)
        hier, flat, factor = hierarchy_value(system, trials=800, seed=2)
        assert hier.mean_processes_affected <= flat.mean_processes_affected + 1e-9
        assert factor >= 1.0

    def test_reduction_substantial_at_default_containment(self):
        system = random_system(processes=4, seed=2)
        _hier, _flat, factor = hierarchy_value(system, trials=1500, seed=1)
        assert factor > 1.5

    def test_deterministic(self):
        system = random_system(processes=3, seed=4)
        a = hierarchy_value(system, trials=300, seed=9)
        b = hierarchy_value(system, trials=300, seed=9)
        assert a[0] == b[0] and a[1] == b[1]


class TestHashSeedInvariance:
    """The RNG draws must not follow set iteration order, which changes
    with the string hash seed of each interpreter run."""

    SCRIPT = (
        "from repro.faultsim import run_multilevel_campaign\n"
        "from repro.model import Level\n"
        "from repro.workloads import random_system\n"
        "system = random_system(processes=4, tasks_per_process=3, "
        "procedures_per_task=3, seed=7)\n"
        "print(run_multilevel_campaign(system, trials=400, seed=11, "
        "containment={Level.TASK: 0.8, Level.PROCESS: 0.8}))\n"
    )

    def test_same_result_under_every_hash_seed(self):
        src = os.path.dirname(os.path.dirname(repro.__file__))
        outputs = {
            subprocess.run(
                [sys.executable, "-c", self.SCRIPT],
                env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed},
                capture_output=True, text=True, check=True, timeout=60,
            ).stdout
            for seed in ("0", "1", "2")
        }
        assert len(outputs) == 1, outputs
