"""Per-layer tracing for the benchmark's traced run.

The benchmark installs a wrapper on public callables of each layer of the
program. A wrapper aggregates in memory, per key: the number of calls, the
total time (outermost calls only, so recursion is not counted twice) and
the self time, which is the duration minus the time covered by nested
wrapped calls. No span is kept per call; keys that ask for it also keep
each call's duration in a flat array so percentiles can be taken at exit.

Counts that the program already keeps (simulator events, metrics
registry counters and series) are read from public state after the run
by :func:`per_layer_metrics`.
"""

from __future__ import annotations

import functools
import gc
import math
import sys
import time
from array import array
from typing import Callable, Dict, List, Tuple

#: key -> [(owner, attribute)] of every public callable that key wraps.
#: An owner is a class or a module given by its import path; a module
#: function is also replaced in every module that imported it by name.
TARGETS: Dict[str, List[Tuple[str, str]]] = {
    "sim.kernel.run": [("repro.sim.kernel:Simulator", "run")],
    "sim.network.transfer": [("repro.sim.network:Network", "transfer")],
    "sim.network.set_flow_demand": [("repro.sim.network:Network", "set_flow_demand")],
    "dht.build": [("repro.dht.overlay:Overlay", "build")],
    "dht.responsible_node": [("repro.dht.overlay:Overlay", "responsible_node")],
    "dht.route": [("repro.dht.overlay:Overlay", "route")],
    "dht.fail_node": [("repro.dht.overlay:Overlay", "fail_node")],
    "dht.replacement_for": [("repro.dht.overlay:Overlay", "replacement_for")],
    "multicast.create_topic": [("repro.multicast.scribe:ScribeSystem", "create_topic")],
    "multicast.subscribe_many": [("repro.multicast.scribe:ScribeSystem", "subscribe_many")],
    "multicast.publish": [("repro.multicast.scribe:ScribeSystem", "publish")],
    "multicast.build_tree": [
        ("repro.multicast.tree", "build_tree"),
        ("repro.multicast.tree", "build_tree_with_depth"),
    ],
    "state.partition": [("repro.state.partitioner", "partition_synthetic")],
    "state.place": [
        ("repro.state.placement:HashPlacement", "place"),
        ("repro.state.placement:LeafSetPlacement", "place"),
    ],
    "state.store.put": [("repro.state.store:StateStore", "put")],
    "state.store.update": [("repro.state.store:StateStore", "update")],
    "state.store.snapshot": [("repro.state.store:StateStore", "snapshot")],
    "state.store.restore": [("repro.state.store:StateStore", "restore")],
    "recovery.register": [("repro.recovery.manager:RecoveryManager", "register")],
    "recovery.save_all": [("repro.recovery.manager:RecoveryManager", "save_all")],
    "recovery.start": [
        ("repro.recovery.line:LineRecovery", "start"),
        ("repro.recovery.tree:TreeRecovery", "start"),
    ],
    "recovery.run_handles": [("repro.recovery.model", "run_handles")],
    "streaming.inject": [("repro.streaming.cluster:LocalCluster", "inject")],
    "streaming.grouping.choose": [
        ("repro.streaming.groupings:ShuffleGrouping", "choose"),
        ("repro.streaming.groupings:FieldsGrouping", "choose"),
        ("repro.streaming.groupings:GlobalGrouping", "choose"),
        ("repro.streaming.groupings:AllGrouping", "choose"),
    ],
    # LoadDriver checkpoints through the backend (not
    # LocalCluster.checkpoint) and restores the killed task and the
    # rolled-back survivors through it after the recovery lands.
    "streaming.checkpoint": [("repro.streaming.backend:SR3StateBackend", "save_all")],
    "streaming.recover_task": [
        ("repro.streaming.backend:SR3StateBackend", "rebuild_store"),
        ("repro.streaming.backend:SR3StateBackend", "rollback_task"),
    ],
    "live.run": [("repro.live.driver:LoadDriver", "run")],
}

#: Keys whose per-call durations are kept for percentiles.
SAMPLED = ("streaming.inject",)


def _resolve(owner: str):
    module_name, _, class_name = owner.partition(":")
    __import__(module_name)
    module = sys.modules[module_name]
    return getattr(module, class_name) if class_name else module


class LayerTrace:
    """Wrappers on the program's public callables, aggregated per key."""

    def __init__(self) -> None:
        self.stats: Dict[str, List[float]] = {}  # key -> [calls, total_s, self_s]
        self.samples: Dict[str, array] = {}
        self._stack: List[List[float]] = []  # open calls: [covered_by_children]
        self._depth: Dict[str, int] = {}
        self._undo: List[Callable[[], None]] = []
        # generation -> [collections, seconds] of the cyclic garbage collector
        self.gc_stats: Dict[int, List[float]] = {0: [0, 0.0], 1: [0, 0.0], 2: [0, 0.0]}
        self._gc_started = 0.0

    def _on_gc(self, phase: str, info: Dict[str, int]) -> None:
        if phase == "start":
            self._gc_started = time.perf_counter()
            return
        stats = self.gc_stats[info["generation"]]
        stats[0] += 1
        stats[1] += time.perf_counter() - self._gc_started

    def wrap(self, key: str, fn: Callable) -> Callable:
        stats = self.stats.setdefault(key, [0, 0.0, 0.0])
        samples = self.samples.setdefault(key, array("d")) if key in SAMPLED else None
        stack = self._stack
        depth = self._depth
        depth.setdefault(key, 0)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            depth[key] += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                depth[key] -= 1
                stats[0] += 1
                stats[2] += elapsed - frame[0]
                if not depth[key]:
                    stats[1] += elapsed
                if stack:
                    stack[-1][0] += elapsed
                if samples is not None:
                    samples.append(elapsed)

        return wrapper

    def install(self) -> None:
        """Wrap every target; call :meth:`uninstall` to put the originals back."""
        gc.callbacks.append(self._on_gc)
        self._undo.append(functools.partial(gc.callbacks.remove, self._on_gc))
        for key, owners in TARGETS.items():
            for owner, attr in owners:
                obj = _resolve(owner)
                original = obj.__dict__[attr]
                wrapped = self.wrap(key, original)
                if isinstance(obj, type):
                    setattr(obj, attr, wrapped)
                    self._undo.append(functools.partial(setattr, obj, attr, original))
                    continue
                # A module function: rebind it wherever it was imported by name.
                for module in list(sys.modules.values()):
                    namespace = getattr(module, "__dict__", None)
                    if namespace is None:
                        continue
                    for name, value in list(namespace.items()):
                        if value is original:
                            setattr(module, name, wrapped)
                            self._undo.append(
                                functools.partial(setattr, module, name, original)
                            )

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def calls(self, key: str) -> int:
        return int(self.stats.get(key, (0, 0.0, 0.0))[0])

    def total_s(self, key: str) -> float:
        return float(self.stats.get(key, (0, 0.0, 0.0))[1])

    def self_s(self, key: str) -> float:
        return float(self.stats.get(key, (0, 0.0, 0.0))[2])

    def percentile_us(self, key: str, q: float) -> float:
        values = sorted(self.samples.get(key, ()))
        if not values:
            return 0.0
        # Nearest rank: the smallest value with at least q% of samples at or below it.
        rank = max(0, math.ceil(q / 100.0 * len(values)) - 1)
        return values[rank] * 1e6


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(trace: LayerTrace, sim, extra: Dict[str, float]) -> Dict[str, float]:
    """Every per-layer metric of the benchmark, named as in BENCHMARK.json.

    Counts are read from the simulator's public state after the run;
    ``extra`` supplies the values the workload itself knows (live served
    and replayed tuples, the tracing overhead).
    """
    counters = {name: counter.total for name, counter in sim.metrics.counters().items()}
    c = counters.get
    series = sim.metrics.all_series()
    out: Dict[str, float] = {
        "sim.kernel.events": sim.events_processed,
        "sim.kernel.run.calls": trace.calls("sim.kernel.run"),
        "sim.kernel.run.self_s": trace.self_s("sim.kernel.run"),
        "sim.network.transfer.calls": trace.calls("sim.network.transfer"),
        "sim.network.transfer.self_s": trace.self_s("sim.network.transfer"),
        "sim.network.set_flow_demand.calls": trace.calls("sim.network.set_flow_demand"),
        "sim.network.set_flow_demand.self_s": trace.self_s("sim.network.set_flow_demand"),
        "sim.network.reallocations": len(series.get("net.flows_active", ())),
        "sim.network.flows_started": c("net.flows_started", 0.0),
        "sim.network.flows_aborted": c("net.flows_aborted", 0.0),
        "sim.network.flow_bytes": c("net.flow_bytes", 0.0),
        "sim.network.abort_ratio": _ratio(
            c("net.flows_aborted", 0.0), c("net.flows_started", 0.0)
        ),
        "obs.link_points": sum(
            len(points) for name, points in series.items() if name.startswith("net.host.")
        ),
        "dht.build.total_s": trace.total_s("dht.build"),
        "dht.routes": c("overlay.routes", 0.0),
        "dht.repairs": c("overlay.repairs", 0.0),
        "multicast.joins": c("multicast.joins", 0.0),
        "state.partition.calls": trace.calls("state.partition"),
        "state.partition.self_s": trace.self_s("state.partition"),
        "recovery.run_handles.total_s": trace.total_s("recovery.run_handles"),
        "recovery.started": c("recovery.started", 0.0),
        "recovery.completed": c("recovery.completed", 0.0),
        "recovery.failed": c("recovery.failed", 0.0),
        "recovery.retries": c("recovery.retries", 0.0),
        "recovery.retry_ratio": _ratio(
            c("recovery.retries", 0.0), trace.calls("recovery.start")
        ),
        "streaming.inject.p50_us": trace.percentile_us("streaming.inject", 50),
        "streaming.inject.p99_us": trace.percentile_us("streaming.inject", 99),
        "streaming.inject.samples": float(len(trace.samples.get("streaming.inject", ()))),
        "streaming.checkpoint.self_s": trace.self_s("streaming.checkpoint"),
        "streaming.recover_task.self_s": trace.self_s("streaming.recover_task"),
        "streaming.fanout": _ratio(
            trace.calls("streaming.grouping.choose"), trace.calls("streaming.inject")
        ),
        "live.run.self_s": trace.self_s("live.run"),
        "runtime.gc.collections": sum(n for n, _ in trace.gc_stats.values()),
        "runtime.gc.total_s": sum(s for _, s in trace.gc_stats.values()),
        "runtime.gc.gen2.collections": trace.gc_stats[2][0],
        "runtime.gc.gen2.total_s": trace.gc_stats[2][1],
    }
    for key in (
        "dht.responsible_node",
        "dht.route",
        "dht.fail_node",
        "dht.replacement_for",
        "multicast.create_topic",
        "multicast.subscribe_many",
        "multicast.publish",
        "multicast.build_tree",
        "state.place",
        "state.store.put",
        "state.store.update",
        "state.store.snapshot",
        "state.store.restore",
        "recovery.register",
        "recovery.save_all",
        "recovery.start",
        "streaming.inject",
        "streaming.grouping.choose",
    ):
        out[f"{key}.calls"] = trace.calls(key)
        out[f"{key}.self_s"] = trace.self_s(key)
    out.update(extra)
    return {name: float(value) for name, value in out.items()}
