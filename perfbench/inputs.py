"""Seeded input generation for the benchmark.

Everything here is plain data: ``ddsi-system`` and ``ddsi-hw`` documents
built from :class:`random.Random` streams, so the program under test
receives only documents (and, for the fixed examples, the HW graphs,
policies and resources that ship with them).  The same ``(seed, op)``
always yields the same document; nothing here imports :mod:`repro`.

The generated systems follow the shape of ``repro.workloads.random_system``:
three levels (process, task, procedure), one task per process and one
procedure per task, criticality spread that narrows down the hierarchy,
timing windows laid out over a 100-unit horizon, and random influence
edges among siblings of each level.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

HORIZON = 100.0
LEVELS = ("PROCESS", "TASK", "PROCEDURE")


@dataclass(frozen=True)
class SystemShape:
    """The input properties a generated system document is drawn from.

    Attributes:
        processes: Process count before replication.
        levels: 3 for process/task/procedure systems, 1 for process-only.
        density: Probability that an ordered pair of siblings gets an
            influence edge (used when ``out_degree`` is 0).
        out_degree: Mean influence out-degree per process; when set, the
            edge probability is ``out_degree / (processes - 1)``.
        replicated: Share of processes given fault tolerance 2 or 3.
        utilization: Mean share of each timing window used as work.
    """

    processes: int
    levels: int = 3
    density: float = 0.15
    out_degree: float = 0.0
    replicated: float = 0.2
    utilization: float = 0.3

    @property
    def edge_probability(self) -> float:
        if self.out_degree:
            return min(1.0, self.out_degree / max(1, self.processes - 1))
        return self.density


def op_rng(seed: int, stream: str, index: int) -> random.Random:
    """The random stream of one generated input, keyed by name."""
    return random.Random(f"{seed}:{stream}:{index}")


def _attributes(rng: random.Random, shape: SystemShape, replicated: bool) -> dict:
    start = rng.uniform(0.0, HORIZON * 0.6)
    window = rng.uniform(HORIZON * 0.2, HORIZON * 0.4)
    deadline = min(start + window, HORIZON)
    work = max(0.01, (deadline - start) * shape.utilization * rng.uniform(0.5, 1.5))
    work = min(work, deadline - start)
    return {
        "criticality": rng.uniform(1.0, 30.0),
        "fault_tolerance": rng.choice((2, 3)) if replicated else 1,
        "throughput": rng.uniform(0.0, 10.0),
        "timing": {
            "earliest_start": start,
            "deadline": deadline,
            "computation_time": work,
        },
    }


def _edges(rng: random.Random, names: list[str], p: float) -> list[dict]:
    edges = []
    for src in names:
        for dst in names:
            if src != dst and rng.random() < p:
                edges.append(
                    {"source": src, "target": dst, "value": rng.uniform(0.05, 0.6)}
                )
    return edges


def system_doc(rng: random.Random, name: str, shape: SystemShape) -> dict:
    """One ``ddsi-system`` document drawn from ``rng`` under ``shape``."""
    fcms: list[dict] = []
    links: list[dict] = []
    names: dict[str, list[str]] = {level: [] for level in LEVELS[: shape.levels]}
    replicated = set(
        rng.sample(range(shape.processes), round(shape.processes * shape.replicated))
    )
    for p in range(shape.processes):
        process = f"p{p + 1}"
        fcms.append(
            {
                "name": process,
                "level": "PROCESS",
                "attributes": _attributes(rng, shape, p in replicated),
            }
        )
        names["PROCESS"].append(process)
        if shape.levels == 3:
            task, procedure = f"{process}.t1", f"{process}.t1.f1"
            fcms.append(
                {"name": task, "level": "TASK",
                 "attributes": {"criticality": rng.uniform(1.0, 15.0)}}
            )
            fcms.append(
                {"name": procedure, "level": "PROCEDURE",
                 "attributes": {"criticality": rng.uniform(0.0, 5.0)}}
            )
            links.append({"child": task, "parent": process})
            links.append({"child": procedure, "parent": task})
            names["TASK"].append(task)
            names["PROCEDURE"].append(procedure)
    influence = {
        level: {"edges": _edges(rng, level_names, shape.edge_probability),
                "replica_links": []}
        for level, level_names in names.items()
    }
    return {
        "format": "ddsi-system",
        "version": 1,
        "name": name,
        "fcms": fcms,
        "links": links,
        "influence": influence,
    }


def hw_doc(nodes: int) -> dict:
    """A fully connected ``ddsi-hw`` document: one FCR per node, unit links."""
    names = [f"hw{i}" for i in range(1, nodes + 1)]
    return {
        "format": "ddsi-hw",
        "version": 1,
        "nodes": [
            {"name": name, "fcr": f"fcr{i}", "resources": [], "memory": 0.0}
            for i, name in enumerate(names, start=1)
        ],
        "links": [
            {"a": a, "b": b, "cost": 1.0}
            for i, a in enumerate(names)
            for b in names[i + 1:]
        ],
    }


def expected_members(doc: dict) -> dict[str, str]:
    """Expanded FCM name -> origin process, as replica expansion names them.

    A process with fault tolerance ``k > 1`` becomes ``k`` replicas
    suffixed ``a``, ``b``, ``c``...; others keep their name.
    """
    out: dict[str, str] = {}
    for fcm in doc["fcms"]:
        if fcm["level"] != "PROCESS":
            continue
        ft = fcm.get("attributes", {}).get("fault_tolerance", 1)
        if ft > 1:
            for suffix in "abcdefghijklmnopqrstuvwxyz"[:ft]:
                out[fcm["name"] + suffix] = fcm["name"]
        else:
            out[fcm["name"]] = fcm["name"]
    return out
