"""Per-host network telemetry: utilization timelines and queueing stats.

The per-host timelines are recorded only while something reads them;
these tests switch them on the way a user does, by attaching a
:class:`TelemetryPipeline` to the simulator.
"""

import json

import pytest

from repro.obs.timeseries import TelemetryPipeline
from repro.sim.kernel import Simulator
from repro.sim.network import Network


def observed_sim():
    """A simulator whose link timelines have a reader attached."""
    sim = Simulator()
    TelemetryPipeline(sim)
    return sim


def two_host_net(up_bw=100.0, down_bw=100.0):
    sim = observed_sim()
    net = Network(sim)
    a = net.add_host("a", up_bw=up_bw, down_bw=down_bw, latency=0.0)
    b = net.add_host("b", up_bw=up_bw, down_bw=down_bw, latency=0.0)
    return sim, net, a, b


class TestUtilizationSeries:
    def test_single_flow_saturates_and_drains(self):
        sim, net, a, b = two_host_net()
        net.transfer(a, b, 1000.0)
        sim.run_until_idle()
        up = sim.metrics.series("net.host.a.up_util")
        down = sim.metrics.series("net.host.b.down_util")
        assert 1.0 in up.values()  # saturated while transferring
        assert up.values()[-1] == 0.0  # closed out after the flow drained
        assert down.values()[-1] == 0.0
        flows = sim.metrics.series("net.host.a.flows")
        assert flows.values()[0] == 1.0
        assert flows.values()[-1] == 0.0

    def test_fair_share_shows_up_in_utilization(self):
        sim, net, a, b = two_host_net()
        c = net.add_host("c", up_bw=100.0, down_bw=100.0, latency=0.0)
        # Two flows into b: b's downlink is the bottleneck, each sender
        # gets half of it, so each uplink sits at 50%.
        net.transfer(a, b, 1000.0)
        net.transfer(c, b, 1000.0)
        sim.run_until_idle()
        assert 0.5 in sim.metrics.series("net.host.a.up_util").values()
        assert 1.0 in sim.metrics.series("net.host.b.down_util").values()

    def test_unconstrained_hosts_record_zero(self):
        sim = observed_sim()
        net = Network(sim)
        a = net.add_host("a", latency=0.0)  # infinite bandwidth
        b = net.add_host("b", latency=0.0)
        net.transfer(a, b, 1000.0)
        sim.run_until_idle()
        assert set(sim.metrics.series("net.host.a.up_util").values()) == {0.0}

    def test_global_active_flow_series_returns_to_zero(self):
        sim, net, a, b = two_host_net()
        net.transfer(a, b, 500.0)
        net.transfer(b, a, 500.0)
        sim.run_until_idle()
        active = sim.metrics.series("net.flows_active")
        assert max(active.values()) == 2.0
        assert active.values()[-1] == 0.0


class TestQueueingStats:
    def test_queue_wait_is_propagation_latency(self):
        sim = Simulator()
        net = Network(sim)
        a = net.add_host("a", up_bw=100.0, down_bw=100.0, latency=0.25)
        b = net.add_host("b", up_bw=100.0, down_bw=100.0, latency=0.25)
        net.transfer(a, b, 100.0)
        sim.run_until_idle()
        wait = sim.metrics.histogram("net.flow_queue_wait")
        assert wait.count == 1
        assert wait.mean == pytest.approx(0.5)

    def test_stall_measures_sharing_delay(self):
        sim, net, a, b = two_host_net()
        c = net.add_host("c", up_bw=100.0, down_bw=100.0, latency=0.0)
        net.transfer(a, b, 1000.0)  # alone: 10s; sharing b's downlink: slower
        net.transfer(c, b, 1000.0)
        sim.run_until_idle()
        stall = sim.metrics.histogram("net.flow_stall_s")
        assert stall.count == 2
        assert stall.max > 0.0

    def test_solo_flow_has_no_stall(self):
        sim, net, a, b = two_host_net()
        net.transfer(a, b, 1000.0)
        sim.run_until_idle()
        stall = sim.metrics.histogram("net.flow_stall_s")
        assert stall.count == 1
        assert stall.max == pytest.approx(0.0, abs=1e-9)


class TestAbortPaths:
    def test_failed_host_closes_out_series(self):
        sim, net, a, b = two_host_net()
        net.transfer(a, b, 10_000.0)
        sim.run(until=5.0)
        net.fail_host(b)
        sim.run_until_idle()
        assert sim.metrics.series("net.host.a.up_util").values()[-1] == 0.0
        assert sim.metrics.series("net.flows_active").values()[-1] == 0.0


class TestDeterminism:
    @staticmethod
    def run_mesh(seed):
        import random

        rng = random.Random(seed)
        sim = observed_sim()
        net = Network(sim)
        hosts = [
            net.add_host(f"h{i}", up_bw=100.0, down_bw=100.0, latency=0.001)
            for i in range(6)
        ]
        for _ in range(12):
            src, dst = rng.sample(hosts, 2)
            sim.schedule(
                rng.uniform(0, 2),
                lambda s=src, d=dst: net.transfer(s, d, rng.uniform(100, 2000)),
            )
        sim.run_until_idle()
        return json.dumps(sim.metrics.dump(), sort_keys=True)

    def test_same_seed_byte_identical_series(self):
        assert self.run_mesh(3) == self.run_mesh(3)

    def test_different_seeds_differ(self):
        assert self.run_mesh(3) != self.run_mesh(4)
