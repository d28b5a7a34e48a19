"""The benchmark's workloads, built only through the program's public API.

Each workload runs one *iteration*: set the cell up (several times, for
a steady ``setup_s``), then run it phase by phase, timing each phase from
outside with ``time.perf_counter``. Every iteration is checked by an
oracle; its verdict is ``(attempted, failed, problems)``.

- ``scale-tree-20k``: the ``scale`` experiment's 20,000-node cell — 1,250
  apps x 16 MB (4 shards, replication 5), hash placement, 1 Gb/s links,
  every owner failed at one instant — recovered with tree.
- ``live-line-wordcount``: the ``bench live`` flash crowd on a 16-node,
  200 Mb/s word-count cell, killed at t=10 and recovered with line. Its
  sub-second save phase is also timed in a kill-free *prefix run* per
  iteration, for twice the samples of the phase.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.bench.harness import build_scenario
from repro.errors import RecoveryError
from repro.live.driver import LoadDriver, build_live_cell
from repro.live.rates import FlashCrowd
from repro.recovery.line import LineRecovery
from repro.recovery.model import RecoveryHandle, run_handles
from repro.recovery.tree import TreeRecovery
from repro.state.partitioner import partition_synthetic
from repro.state.version import StateVersion
from repro.util.sizes import MB

# The mechanism configurations of the bench's Fig. 8 / scale / live runs.
MECHANISMS: Dict[str, Callable[[], object]] = {
    "line": lambda: LineRecovery(path_length=8),
    "tree": lambda: TreeRecovery(fanout_bits=1, sub_shards=8),
}


@dataclass
class Iteration:
    """One measured pass over a workload, with the oracle's verdict."""

    setup_samples: List[float]
    save_samples: List[float]  # the full run's save phase first, then the prefix run's
    recover_s: float
    wall_s: float
    recover_events: int
    simulated: Dict[str, object]
    attempted: int
    failed: int
    problems: List[str] = field(default_factory=list)
    info: Dict[str, float] = field(default_factory=dict)
    sim: Optional[object] = None  # kept for the traced run's per-layer counts


def _nothing() -> None:
    pass


def _timed_setups(build: Callable[[], object], reps: int) -> Tuple[object, List[float]]:
    """Build ``reps`` times; keep the last cell, return every build time."""
    samples = []
    for _ in range(max(1, reps)):
        cell = None  # the previous build is garbage before the next is timed
        gc.collect()
        start = time.perf_counter()
        cell = build()
        samples.append(time.perf_counter() - start)
    return cell, samples


# ------------------------------------------------------------------ scale


def scale_params(mechanism: str, nodes: int) -> Dict[str, object]:
    return {
        "mechanism": mechanism,
        "nodes": nodes,
        "apps": max(4, nodes // 16),
        "state_mb": 16,
        "shards": 4,
        # The scale experiment replicates deeper from 20k nodes on.
        "replication": 3 if nodes < 20000 else 5,
        "placement": "hash",
        "link_mbit": 1000.0,
    }


Verdict = Tuple[int, int, List[str]]  # (attempted, failed, problems)


def check_scale(handles: List[RecoveryHandle], expected: Dict[str, int]) -> Verdict:
    """Every state recovered, with all of its registered shards."""
    problems = []
    if len(handles) != len(expected):
        problems.append(f"{len(expected)} states registered, {len(handles)} recoveries started")
    recovered = set()
    for handle in handles:
        try:
            result = handle.result
        except RecoveryError as exc:
            problems.append(f"{handle.state_name}: {exc}")
            continue
        if result.shards_recovered != expected.get(handle.state_name):
            problems.append(
                f"{handle.state_name}: {result.shards_recovered} of "
                f"{expected.get(handle.state_name)} shards recovered"
            )
            continue
        recovered.add(handle.state_name)
    attempted = max(1, len(expected))
    return attempted, attempted - len(recovered), problems


def _scale_save(scenario, params: Dict[str, object]) -> Tuple[float, Dict[str, int]]:
    """Register every app's state on its owner and save it all.

    Returns the host time and the shard count of each registered state.
    """
    # Each phase starts from a fresh collector state, so a full collection
    # of the previous phase's garbage never lands inside the next phase.
    gc.collect()
    start = time.perf_counter()
    expected = {}
    for i, owner in enumerate(scenario.overlay.nodes[: params["apps"]]):
        shards = partition_synthetic(
            f"app-{i}/state", params["state_mb"] * MB, params["shards"], StateVersion(0.0, 1)
        )
        registered = scenario.manager.register(owner, shards, params["replication"])
        expected[registered.state_name] = len(shards)
    scenario.manager.save_all()
    scenario.sim.run_until_idle()
    return time.perf_counter() - start, expected


def run_scale(
    params: Dict[str, object], seed: int, prefix: bool, gap: Callable[[], None] = _nothing
) -> Iteration:
    """One full iteration; first, with ``prefix``, a save on a cell of its own.

    The prefix cell is built and saved exactly as the full one is, for a
    second sample of ``setup_s`` and ``save_s``; its save must end at the
    same simulated instant and event count. It is garbage before the full
    cell is built. ``gap`` is called before each timed phase.
    """
    nodes = int(params["nodes"])

    def build():
        return build_scenario(
            num_nodes=nodes,
            seed=seed,
            uplink_mbit=params["link_mbit"],
            downlink_mbit=params["link_mbit"],
            placement=params["placement"],
        )

    mechanism = MECHANISMS[params["mechanism"]]()
    setups: List[float] = []
    save_samples: List[float] = []
    prefix_end = None
    if prefix:
        gap()
        scenario, setups = _timed_setups(build, 1)
        gap()
        save_samples.append(_scale_save(scenario, params)[0])
        prefix_end = (scenario.sim.now, scenario.sim.events_processed)
        scenario = None
    gap()
    scenario, full_setup = _timed_setups(build, 1)
    setups += full_setup
    sim = scenario.sim
    owners = scenario.overlay.nodes[: params["apps"]]
    gap()
    save_s, expected = _scale_save(scenario, params)
    save_samples.insert(0, save_s)

    gap()
    gc.collect()
    failing = time.perf_counter()
    failed_at = sim.now
    events_before = sim.events_processed
    for owner in owners:
        scenario.overlay.fail_node(owner)
    handles = []
    for i, owner in enumerate(owners):
        name = f"app-{i}/state"
        replacement = scenario.overlay.replacement_for(owner)
        plan = scenario.manager.states[name].plan
        handles.append(mechanism.start(scenario.ctx, plan, replacement, name))
    try:
        run_handles(sim, handles)
    except RecoveryError:
        pass  # check_scale reports every unresolved handle
    done = time.perf_counter()

    attempted, failed, problems = check_scale(handles, expected)
    if prefix_end is not None and prefix_end != (failed_at, events_before):
        problems.append(
            f"the prefix save ended at {prefix_end}, the full save at {(failed_at, events_before)}"
        )
    finished = []
    for handle in handles:
        try:
            finished.append(handle.result.finished_at)
        except RecoveryError:
            pass
    return Iteration(
        setup_samples=setups,
        save_samples=save_samples,
        recover_s=done - failing,
        wall_s=setups[-1] + save_s + (done - failing),
        recover_events=sim.events_processed - events_before,
        simulated={"sim_recovery_s": (max(finished) - failed_at) if finished else None},
        attempted=attempted,
        failed=failed,
        problems=problems,
        sim=sim,
    )


# ------------------------------------------------------------------- live


def live_params(duration: float) -> Dict[str, object]:
    return {
        "mechanism": "line",
        "nodes": 16,
        "link_mbit": 200.0,
        "rate": {"base": 300.0, "peak": 1500.0, "at": 8.0, "ramp": 2.0, "hold": 10.0, "decay": 5.0},
        "service_rate": 3000.0,
        "bulk_state_mb": 32.0,
        "checkpoint_at": 5.0,
        "kill_at": 10.0,
        "app_load": True,
        "duration": duration,
    }


class TickClock:
    """Host clock read once per :class:`LoadDriver` tick.

    Handed to :class:`LoadDriver` as its ``telemetry`` attachment, which
    ``LoadDriver.run`` samples at the end of every tick; it schedules nothing and
    reads only the clocks, so the simulation is unchanged.
    """

    def __init__(self, sim) -> None:
        self.sim = sim
        self.ticks: List[Tuple[float, float, int]] = []  # (sim t, host t, events)

    def sample(self, t: float) -> None:
        self.ticks.append((t, time.perf_counter(), self.sim.events_processed))

    def at(self, sim_time: float) -> Tuple[float, int]:
        """Host time and event count at the first tick at or after ``sim_time``."""
        for t, host, events in self.ticks:
            if t >= sim_time - 1e-9:
                return host, events
        return self.ticks[-1][1], self.ticks[-1][2]

    def before(self, sim_time: float) -> Tuple[float, int]:
        """Host time and event count at the last tick before ``sim_time``."""
        last = self.ticks[0]
        for tick in self.ticks:
            if tick[0] >= sim_time - 1e-9:
                break
            last = tick
        return last[1], last[2]


def _live_load(params: Dict[str, object], seed: int, kill: bool) -> LoadDriver:
    cell = build_live_cell(
        num_nodes=params["nodes"],
        seed=seed,
        link_mbit=params["link_mbit"],
        trace_name="perfbench-live",
    )
    return LoadDriver(
        cell,
        FlashCrowd(**params["rate"]),
        duration=params["duration"],
        service_rate=params["service_rate"],
        checkpoint_at=(params["checkpoint_at"],),
        kill_at=params["kill_at"] if kill else None,
        mechanism=MECHANISMS[params["mechanism"]](),
        bulk_state_mb=params["bulk_state_mb"],
        app_load=params["app_load"],
    )


def live_reference(params: Dict[str, object], seed: int) -> Dict[str, str]:
    """State checksums of the failure-free run with the same arrivals."""
    load = _live_load(params, seed, kill=False)
    load.run()
    return load.cluster.state_checksums()


def check_live(report, checksums: Dict[str, str], reference: Dict[str, str]) -> Verdict:
    """No arrival lost, recovery landed and drained, state equals the golden run."""
    problems = []
    attempted = max(1, report.arrived)
    failed = max(0, report.arrived - report.served)
    if failed:
        problems.append(f"served {report.served} of {report.arrived} arrivals")
    if report.recovery_s is None or report.drain_s is None:
        problems.append("the run never recovered or never drained")
        failed = attempted
    if checksums != reference:
        keys = set(checksums) | set(reference)
        bad = sorted(k for k in keys if checksums.get(k) != reference.get(k))
        problems.append(f"state checksums differ from the failure-free run: {bad}")
        failed = attempted
    return attempted, failed, problems


def _pre_kill_points(sim, killed_at: float) -> List[List[Tuple[float, float]]]:
    """The backlog and throughput series up to the last tick before the kill."""
    series = sim.metrics.all_series()
    return [
        [point for point in series[name].points if point[0] < killed_at - 1e-9]
        for name in ("live.backlog", "live.throughput")
    ]


def _prefix_run(
    params: Dict[str, object], seed: int, killed_at: float
) -> Tuple[float, List[List[Tuple[float, float]]]]:
    """Time the save phase once more, in a run whose load ends at the kill.

    Kill-free, with the same seed and arrivals, it does the full run's work up
    to the last tick before ``killed_at``; the caller checks that with the
    per-tick backlog and throughput series. Returns the host time from
    ``LoadDriver.run`` to that tick, and those series.
    """
    load = _live_load(dict(params, duration=killed_at), seed, kill=False)
    load.telemetry = TickClock(load.sim)
    gc.collect()
    start = time.perf_counter()
    load.run()
    host, _ = load.telemetry.before(killed_at)
    return host - start, _pre_kill_points(load.sim, killed_at)


def run_live(
    params: Dict[str, object],
    seed: int,
    setup_reps: int,
    reference: Dict[str, str],
    killed_at: Optional[float] = None,
    gap: Callable[[], None] = _nothing,
) -> Iteration:
    """One full run; first a prefix run when the kill instant is known.

    The prefix run goes first, so its heap is garbage before the full run's
    cell is built. ``gap`` is called before each timed run.
    """
    prefix = None
    if killed_at is not None:
        gap()
        prefix = _prefix_run(params, seed, killed_at)

    def build():
        load = _live_load(params, seed, kill=True)
        # Attached after construction: a telemetry object passed to the
        # constructor would also make the latency histogram keep samples.
        load.telemetry = TickClock(load.sim)
        return load

    gap()
    load, setups = _timed_setups(build, setup_reps)
    clock = load.telemetry
    start = time.perf_counter()
    report = load.run()
    done = time.perf_counter()

    attempted, failed, problems = check_live(report, load.cluster.state_checksums(), reference)
    if report.killed_at is None or report.drained_at is None:
        # Failed run (the oracle already says so): the whole run is one phase.
        kill_host, kill_events = start, 0
        drained_host, drained_events = done, load.sim.events_processed
    else:
        kill_host, kill_events = clock.before(report.killed_at)
        drained_host, drained_events = clock.at(report.drained_at)
    save_samples = [kill_host - start]
    if prefix is not None:
        if report.killed_at != killed_at:
            problems.append(f"killed at {report.killed_at}, not at {killed_at} as before")
        elif prefix[1] != _pre_kill_points(load.sim, killed_at):
            problems.append("the prefix run diverged from the full run before the kill")
        save_samples.append(prefix[0])
    during = report.phases.get("during")
    run_s = done - start
    return Iteration(
        setup_samples=setups,
        save_samples=save_samples,
        recover_s=drained_host - kill_host,
        wall_s=setups[-1] + run_s,
        recover_events=drained_events - kill_events,
        simulated={
            "sim_recovery_s": report.recovery_s,
            "sim_p99_during_s": during.p99 if during is not None else None,
            "checksums": load.cluster.state_checksums(),
        },
        attempted=attempted,
        failed=failed,
        problems=problems,
        info={
            "tuples_per_s": (report.served + report.replayed) / run_s,
            "served": float(report.served),
            "replayed": float(report.replayed),
            "run_s": run_s,
            "killed_at": report.killed_at,
        },
        sim=load.sim,
    )
