"""Span tracing for the benchmark's traced run.

The hooks wrap public functions of the program at the module attribute
their caller resolves them through (``repro.core.framework.audit_system``,
``repro.resilience.degradation.map_approach_a``, ...), so the program
itself is untouched and its own ``repro.obs`` recorder stays off.  Each
span records its name, start, end, parent span, op id and, for the
layer-boundary spans, the process-CPU delta.  Spans stay in memory as
flat arrays and are written out once, when the run ends.

A hook whose target no longer exists is reported as absent instead of
failing the run, so the benchmark keeps working as layers are deleted.
"""

from __future__ import annotations

import importlib
import time
from array import array
from collections import Counter
from dataclasses import dataclass, field

# (span name, module, attribute path, per-call CPU delta).  Hooks on
# methods name the class in the attribute path.  The per-call constraint
# and scheduling checks run ~10^4-10^5 times per op, so they record wall
# time only.  The EDF check runs as the scalar ``coschedulable`` and, on
# the default compiled engine, as ``_demand_feasible`` (looked up as a
# module global at call time); both are the scheduling layer.
SPAN_HOOKS: tuple[tuple[str, str, str, bool], ...] = (
    ("io.parse", "repro.io.serialization", "system_from_dict", True),
    ("io.validate", "repro.io.validation", "validate_system_dict", True),
    ("io.emit", "repro.io.serialization", "outcome_to_dict", True),
    ("verification.audit", "repro.core.framework", "audit_system", True),
    ("allocation.expand", "repro.core.framework", "expand_replication", True),
    ("allocation.compile", "repro.faultsim.kernel", "compile_graph", True),
    ("allocation.compile", "repro.allocation.compiled", "compile_policy", True),
    ("allocation.compile", "repro.graphs.matrix", "CompiledInfluence.from_weights", True),
    ("allocation.condense.h1", "repro.core.framework", "condense_h1", True),
    ("allocation.condense.h2", "repro.core.framework", "condense_h2", True),
    ("allocation.condense.h3", "repro.core.framework", "condense_h3", True),
    ("allocation.condense.criticality", "repro.core.framework", "condense_criticality", True),
    ("allocation.condense.timing", "repro.core.framework", "condense_timing", True),
    ("allocation.condense.pack", "repro.core.framework", "pack_by_timing", True),
    ("graphs.mincut", "repro.allocation.heuristics.h2_mincut", "stoer_wagner", True),
    ("graphs.mincut", "repro.allocation.heuristics.h2_mincut", "st_min_cut", True),
    ("allocation.constraints", "repro.allocation.clustering", "ClusterState.policy_block_valid", False),
    ("allocation.constraints", "repro.allocation.clustering", "ClusterState.policy_block_violations", False),
    ("scheduling", "repro.allocation.constraints", "coschedulable", False),
    ("scheduling", "repro.allocation.compiled", "_demand_feasible", False),
    ("allocation.map", "repro.core.framework", "map_approach_a", True),
    ("allocation.map", "repro.core.framework", "map_approach_b", True),
    ("allocation.map", "repro.resilience.degradation", "map_approach_a", True),
    ("allocation.map", "repro.resilience.degradation", "map_approach_b", True),
    ("allocation.score", "repro.core.framework", "evaluate_mapping", True),
    ("faultsim.campaign", "repro.faultsim.campaign", "run_campaign", True),
    ("faultsim.kernel", "repro.faultsim.kernel", "campaign_batch", True),
    ("resilience.campaign", "repro.resilience.campaign", "run_resilience_campaign", True),
    ("resilience.plan", "repro.resilience.campaign", "plan_degradation", True),
    ("resilience.draw", "repro.resilience.campaign", "draw_failure_sequence", True),
)

# Supervisor entry points: a span, the batch task wrapped as a child
# span, and the returned exec report's counts.
EXEC_HOOKS: tuple[tuple[str, str], ...] = (
    ("repro.faultsim.campaign", "run_supervised"),
    ("repro.faultsim.campaign", "run_sharded"),
    ("repro.resilience.campaign", "run_supervised"),
)

# Per-pair queries: counted, not timed.
COUNT_HOOKS: tuple[tuple[str, str, str], ...] = (
    ("allocation.clustering.pair_queries", "repro.allocation.clustering", "ClusterState.mutual_influence"),
    ("allocation.clustering.pair_queries", "repro.allocation.clustering", "ClusterState.can_combine"),
)

EXEC_REPORT_FIELDS = (
    ("exec.batches", "batches_run"),
    ("exec.retries", "retries"),
    ("exec.worker_crashes", "worker_crashes"),
    ("exec.timeouts", "timeouts"),
    ("exec.serial_fallbacks", "serial_fallbacks"),
)


@dataclass
class Tracer:
    """In-memory span recorder; ``enabled`` gates every hook."""

    enabled: bool = False
    op: int = -1
    names: list[str] = field(default_factory=list)
    name: array = field(default_factory=lambda: array("i"))
    parent: array = field(default_factory=lambda: array("i"))
    op_of: array = field(default_factory=lambda: array("i"))
    start: array = field(default_factory=lambda: array("d"))
    end: array = field(default_factory=lambda: array("d"))
    cpu: array = field(default_factory=lambda: array("d"))
    counts: Counter = field(default_factory=Counter)
    _ids: dict[str, int] = field(default_factory=dict)
    _stack: list[int] = field(default_factory=list)
    _deferred: list = field(default_factory=list)

    def open(self, name: str, cpu: bool = True) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        index = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op_of.append(self.op)
        self.cpu.append(-time.process_time() if cpu else 0.0)
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(time.perf_counter())
        return index

    def close(self, index: int, cpu: bool = True) -> None:
        self.end[index] = time.perf_counter()
        if cpu:
            self.cpu[index] += time.process_time()
        self._stack.pop()

    def defer(self, fn) -> None:
        """Run ``fn`` after the current op, outside its timed window."""
        self._deferred.append(fn)

    def flush_deferred(self) -> None:
        for fn in self._deferred:
            fn()
        self._deferred.clear()

    def __len__(self) -> int:
        return len(self.start)


# ----------------------------------------------------------------------
# Hook installation
# ----------------------------------------------------------------------
def _resolve(module: str, path: str):
    """(owner object, attribute name) for ``module`` + dotted ``path``."""
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    getattr(owner, attr)  # raises AttributeError when the target is gone
    return owner, attr


def _span_wrapper(tracer: Tracer, name: str, fn, cpu: bool, after=None):
    def wrapper(*args, **kwargs):
        if not tracer.enabled:
            return fn(*args, **kwargs)
        index = tracer.open(name, cpu)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(index, cpu)
        if after is not None:
            after(tracer, result)
        return result

    wrapper.__wrapped__ = fn
    return wrapper


def _count_wrapper(tracer: Tracer, name: str, fn):
    counts = tracer.counts

    def wrapper(*args, **kwargs):
        if tracer.enabled:
            counts[name] += 1
        return fn(*args, **kwargs)

    wrapper.__wrapped__ = fn
    return wrapper


def _exec_wrapper(tracer: Tracer, fn):
    def wrapper(task, *args, **kwargs):
        if not tracer.enabled:
            return fn(task, *args, **kwargs)
        kind = kwargs.get("kind", "campaign")
        task = _span_wrapper(tracer, f"{kind}.batch", task, True)
        index = tracer.open("exec")
        try:
            payloads, report = fn(task, *args, **kwargs)
        finally:
            tracer.close(index)
        for metric, attr in EXEC_REPORT_FIELDS:
            tracer.counts[metric] += getattr(report, attr, 0) or 0
        return payloads, report

    wrapper.__wrapped__ = fn
    return wrapper


def _count_steps(tracer: Tracer, result) -> None:
    tracer.counts["allocation.condense.steps"] += len(result.steps)


def _count_call(metric: str):
    def after(tracer: Tracer, _result) -> None:
        tracer.counts[metric] += 1

    return after


def _count_expansion(tracer: Tracer, graph) -> None:
    # Sizing the expanded graph walks its edges: do it after the op.
    def count() -> None:
        tracer.counts["allocation.expand.fcms"] += len(graph)
        tracer.counts["allocation.expand.edges"] += len(graph.influence_edges())

    tracer.defer(count)


def _count_events(tracer: Tracer, events) -> None:
    tracer.counts["resilience.draw.events"] += len(events)


def _count_kernel_trials(tracer: Tracer, payload) -> None:
    tracer.counts["faultsim.kernel.trials"] += len(payload["affected"])


AFTER = {
    "allocation.expand": _count_expansion,
    "graphs.mincut": _count_call("graphs.mincut.calls"),
    "allocation.constraints": _count_call("allocation.constraints.block_checks"),
    "scheduling": _count_call("scheduling.coschedulable.calls"),
    "allocation.map": _count_call("allocation.map.calls"),
    "resilience.plan": _count_call("resilience.plan.calls"),
    "resilience.draw": _count_events,
    "faultsim.kernel": _count_kernel_trials,
}


class Hooks:
    """Every hook, resolved once; installed on entry, removed on exit.

    ``absent`` lists, by layer, the targets that no longer exist.
    """

    def __init__(self, tracer: Tracer) -> None:
        self.absent: list[str] = []
        self._patches: list[tuple[object, str, object, object]] = []
        for name, module, path, cpu in SPAN_HOOKS:
            after = _count_steps if name.startswith("allocation.condense.") else AFTER.get(name)
            self._add(name, module, path, lambda fn, n=name, c=cpu, a=after:
                      _span_wrapper(tracer, n, fn, c, a))
        for module, attr in EXEC_HOOKS:
            self._add("exec", module, attr, lambda fn: _exec_wrapper(tracer, fn))
        for name, module, path in COUNT_HOOKS:
            self._add(name, module, path, lambda fn, n=name: _count_wrapper(tracer, n, fn))

    def _add(self, layer: str, module: str, path: str, make) -> None:
        try:
            owner, attr = _resolve(module, path)
        except (ImportError, AttributeError):
            self.absent.append(f"{layer} ({module}.{path})")
            return
        raw = vars(owner).get(attr) or getattr(owner, attr)
        if isinstance(raw, classmethod):
            patched = classmethod(make(raw.__func__))
        else:
            patched = make(raw)
        self._patches.append((owner, attr, raw, patched))

    def __enter__(self) -> "Hooks":
        for owner, attr, _raw, patched in self._patches:
            setattr(owner, attr, patched)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, raw, _patched in reversed(self._patches):
            setattr(owner, attr, raw)


# ----------------------------------------------------------------------
# Span arithmetic
# ----------------------------------------------------------------------
def self_times(start, end, parent) -> list[float]:
    """Each span's duration minus the part of it its children cover.

    Child intervals are clipped to the parent's interval and merged
    before subtracting, so overlapping or overhanging children are not
    counted twice.
    """
    n = len(start)
    children: dict[int, list[tuple[float, float]]] = {}
    for i in range(n):
        p = parent[i]
        if p >= 0:
            children.setdefault(p, []).append((start[i], end[i]))
    out = [end[i] - start[i] for i in range(n)]
    for p, spans in children.items():
        lo, hi = start[p], end[p]
        covered = 0.0
        cur_a = cur_b = None
        for a, b in sorted(spans):
            a, b = max(a, lo), min(b, hi)
            if b <= a:
                continue
            if cur_b is None or a > cur_b:
                if cur_b is not None:
                    covered += cur_b - cur_a
                cur_a, cur_b = a, b
            elif b > cur_b:
                cur_b = b
        if cur_b is not None:
            covered += cur_b - cur_a
        out[p] -= covered
    return out


def layer_totals(tracer: Tracer) -> dict[str, dict[str, float]]:
    """Per span name: summed self time, wall time, CPU time and count."""
    own = self_times(tracer.start, tracer.end, tracer.parent)
    totals: dict[str, dict[str, float]] = {}
    for i, self_s in enumerate(own):
        entry = totals.setdefault(
            tracer.names[tracer.name[i]],
            {"self_s": 0.0, "wall_s": 0.0, "cpu_s": 0.0, "count": 0},
        )
        entry["self_s"] += self_s
        entry["wall_s"] += tracer.end[i] - tracer.start[i]
        entry["cpu_s"] += tracer.cpu[i]
        entry["count"] += 1
    return totals


def top_level_wall(tracer: Tracer) -> dict[int, float]:
    """Per op: summed duration of the spans with no parent span."""
    out: dict[int, float] = {}
    for i in range(len(tracer)):
        if tracer.parent[i] < 0:
            op = tracer.op_of[i]
            out[op] = out.get(op, 0.0) + tracer.end[i] - tracer.start[i]
    return out


def dump(tracer: Tracer, path) -> None:
    """Write every span, the name table and the counts to ``path`` (.npz)."""
    import json

    import numpy as np

    np.savez(
        path,
        names=np.array(json.dumps(tracer.names)),
        name=np.frombuffer(tracer.name, dtype=np.int32),
        parent=np.frombuffer(tracer.parent, dtype=np.int32),
        op=np.frombuffer(tracer.op_of, dtype=np.int32),
        start=np.frombuffer(tracer.start, dtype=np.float64),
        end=np.frombuffer(tracer.end, dtype=np.float64),
        cpu=np.frombuffer(tracer.cpu, dtype=np.float64),
        counts=np.array(json.dumps(dict(tracer.counts))),
    )
