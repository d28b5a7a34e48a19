"""Link telemetry is recorded only when read, and reading it changes nothing.

The per-host ``net.host.<name>.{up_util,down_util,flows}`` timelines cost a
sample per touched host per reallocation, so the network records them only
while ``sim.metrics.link_telemetry`` is on: registry collection, an attached
:class:`TelemetryPipeline` and a live tracer switch it on. These tests run
one small save + tree-recovery scenario with the timelines off and on:

- off, no ``net.host.*`` series exist, and everything else the run
  observes (flow completion instants, makespans, counters, histograms,
  ``net.flows_active``) equals the run with them on;
- on, through either switch, the timelines match a digest recorded before
  the timelines became opt-in, when they were always on.
"""

import hashlib
import json

from repro.bench.harness import build_scenario
from repro.obs import registry
from repro.obs.timeseries import TelemetryPipeline
from repro.recovery.model import run_handles
from repro.recovery.tree import TreeRecovery
from repro.state.partitioner import partition_synthetic
from repro.state.version import StateVersion
from repro.util.sizes import MB

#: SHA-256 of the ``net.host.*`` series of :func:`run_scenario`, recorded
#: while the timelines were always on.
LINK_DIGEST = "2f30f45b8c41248ce5aeec5764748f7f1e10ea61f92680c458e9716719b91ed5"

APPS = 4


def run_scenario(observe: bool = False):
    """64 nodes at seed 3: four apps saved, their owners failed, tree recovery.

    ``observe`` attaches a telemetry pipeline before the first flow.
    Returns the simulator's registry dump, every flow's (seq, tag,
    completion instant, aborted) and every recovery's finish instant.
    """
    scenario = build_scenario(
        num_nodes=64,
        seed=3,
        uplink_mbit=1000.0,
        downlink_mbit=1000.0,
        placement="hash",
    )
    if observe:
        TelemetryPipeline(scenario.sim)
    network = scenario.network
    flows = []
    transfer = network.transfer

    def recording_transfer(*args, **kwargs):
        flow = transfer(*args, **kwargs)
        flows.append(flow)
        return flow

    network.transfer = recording_transfer
    owners = scenario.overlay.nodes[:APPS]
    for i, owner in enumerate(owners):
        shards = partition_synthetic(f"app-{i}/state", 16 * MB, 4, StateVersion(0.0, 1))
        scenario.manager.register(owner, shards, 3)
    scenario.manager.save_all()
    scenario.sim.run_until_idle()
    for owner in owners:
        scenario.overlay.fail_node(owner)
    mechanism = TreeRecovery(fanout_bits=1, sub_shards=8)
    handles = []
    for i, owner in enumerate(owners):
        name = f"app-{i}/state"
        plan = scenario.manager.states[name].plan
        replacement = scenario.overlay.replacement_for(owner)
        handles.append(mechanism.start(scenario.ctx, plan, replacement, name))
    run_handles(scenario.sim, handles)
    flow_log = [(f.seq, f.tag, f.completed_at, f.aborted) for f in flows]
    finished = [h.result.finished_at for h in handles]
    return scenario.sim.metrics.dump(), flow_log, finished


def split_links(dump):
    """(the dump without the link timelines and their switch, the timelines)."""
    rest = dict(dump)
    series = dict(rest.pop("series"))
    links = {name: series.pop(name) for name in list(series) if name.startswith("net.host.")}
    rest["series"] = series
    rest.pop("link_telemetry")
    rest.pop("name")
    return rest, links


def digest(links) -> str:
    return hashlib.sha256(json.dumps(links, sort_keys=True).encode()).hexdigest()


def collected_run():
    registry.clear_collected_registries()
    registry.enable_metrics_collection(True)
    try:
        return run_scenario()
    finally:
        registry.enable_metrics_collection(False)
        registry.clear_collected_registries()


class TestLinkTelemetryGating:
    def test_off_by_default_and_nothing_else_moves(self):
        off_dump, off_flows, off_finished = run_scenario()
        on_dump, on_flows, on_finished = run_scenario(observe=True)
        assert off_dump["link_telemetry"] is False
        assert on_dump["link_telemetry"] is True
        off_rest, off_links = split_links(off_dump)
        on_rest, on_links = split_links(on_dump)
        assert off_links == {}
        assert on_links
        assert off_flows == on_flows
        assert all(done is not None for _, _, done, aborted in off_flows if not aborted)
        assert off_finished == on_finished
        assert off_rest["counters"] == on_rest["counters"]
        assert off_rest["histograms"] == on_rest["histograms"]
        assert off_rest["series"]["net.flows_active"] == on_rest["series"]["net.flows_active"]
        assert off_rest == on_rest

    def test_pipeline_timelines_match_always_on_digest(self):
        dump, _, _ = run_scenario(observe=True)
        assert digest(split_links(dump)[1]) == LINK_DIGEST

    def test_collection_timelines_match_always_on_digest(self):
        dump, _, _ = collected_run()
        assert dump["link_telemetry"] is True
        assert digest(split_links(dump)[1]) == LINK_DIGEST
