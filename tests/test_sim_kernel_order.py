"""Kernel order oracle: random interleavings execute in (time, seq) order.

Hypothesis drives random scripts of ``schedule`` (zero and positive delay),
``schedule_at``, ``cancel`` (in bulk, enough to trigger the lazy
compaction) and ``run(until=...)``. Executed callbacks react by scheduling
and cancelling further events, so compaction also happens while ``run`` is
iterating. The oracle is the set of live events: every executed event must
be the minimum of that set by ``(time, seq)`` at the moment it fires, a run
must leave no live event at or before its horizon, and ``pending`` and
``events_processed`` must match the oracle's counts.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.kernel import Simulator

# 1e-300 is positive (the event goes to the heap) but vanishes when added
# to a clock past zero: a heap entry that ties a batch entry on time and
# must still lose to it on seq.
DELAYS = st.one_of(
    st.sampled_from([0.0, 0.0, 1e-300, 0.5, 1.0, 2.0]),
    st.floats(min_value=0.0, max_value=4.0, allow_nan=False),
)

OPS = st.one_of(
    st.tuples(st.just("schedule"), DELAYS),
    st.tuples(st.just("schedule_at"), DELAYS),
    st.tuples(st.just("burst"), st.integers(1, 90), DELAYS),
    st.tuples(st.just("cancel"), st.integers(0, 10**6)),
    st.tuples(st.just("cancel_many"), st.integers(0, 10**6), st.integers(1, 120)),
    st.tuples(st.just("run"), st.one_of(st.none(), DELAYS)),
)


class OrderOracle:
    """Drives a simulator and checks it against the live-event set."""

    def __init__(self, seed: int) -> None:
        self.sim = Simulator()
        self.rng = random.Random(seed)
        self.events = []  # every event ever scheduled
        self.live = set()  # scheduled, not cancelled, not yet executed
        self.processed = 0
        self.horizon = None  # the running call's ``until``

    def schedule(self, delay: float, at: bool = False, action=None) -> None:
        if at:
            event = self.sim.schedule_at(self.sim.now + delay, self.fire)
        else:
            event = self.sim.schedule(delay, self.fire)
        event.args = (event, action)
        self.events.append(event)
        self.live.add(event)

    def cancel(self, index: int) -> None:
        if self.events:
            event = self.events[index % len(self.events)]
            self.sim.cancel(event)
            self.live.discard(event)

    def fire(self, event, action) -> None:
        expected = min(self.live, key=lambda e: (e.time, e.seq))
        assert event is expected
        assert self.sim.now == event.time
        if self.horizon is not None:
            assert event.time <= self.horizon
        self.live.remove(event)
        self.processed += 1
        if action is not None:
            action()
            return
        # React like the network does: same-instant settles, future
        # completion timers, and bulk cancels of pending timers.
        roll = self.rng.random()
        if roll < 0.25:
            self.schedule(0.0)
        elif roll < 0.45:
            self.schedule(self.rng.choice([0.0, 1e-300, 1.0, self.rng.uniform(0, 3)]))
        elif roll < 0.5:
            for _ in range(self.rng.randint(1, 80)):
                self.cancel(self.rng.randrange(10**6))

    def run(self, until) -> None:
        start = self.sim.now
        self.horizon = None if until is None else start + until
        stopped = self.sim.run(until=self.horizon)
        if self.horizon is None:
            assert not self.live
            assert stopped == self.sim.now
        else:
            assert all(e.time > self.horizon for e in self.live)
            assert stopped == self.horizon == self.sim.now
        self.horizon = None
        self.check_counts()

    def check_counts(self) -> None:
        assert self.sim.pending == len(self.live)
        assert self.sim.events_processed == self.processed


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), ops=st.lists(OPS, max_size=60))
def test_executed_order_matches_time_seq_oracle(seed, ops):
    oracle = OrderOracle(seed)
    for op in ops:
        kind = op[0]
        if kind == "schedule":
            oracle.schedule(op[1])
        elif kind == "schedule_at":
            oracle.schedule(op[1], at=True)
        elif kind == "burst":
            for _ in range(op[1]):
                oracle.schedule(op[2])
        elif kind == "cancel":
            oracle.cancel(op[1])
        elif kind == "cancel_many":
            for step in range(op[2]):
                oracle.cancel(op[1] + step)
        else:
            oracle.run(op[1])
        oracle.check_counts()
    oracle.run(None)


def test_compaction_inside_run_keeps_order():
    """A callback's bulk cancel compacts both queues while ``run`` iterates."""
    oracle = OrderOracle(0)
    sim = oracle.sim
    for index in range(200):
        oracle.schedule(1.0 + index / 100.0)
    swept = []

    def cancel_most():
        for _ in range(100):
            oracle.schedule(0.0)
        queued = len(sim._queue) + len(sim._batch)
        for index in range(len(oracle.events)):
            if index % 4:
                oracle.cancel(index)
        swept.append(queued - (len(sim._queue) + len(sim._batch)))

    oracle.schedule(0.5, action=cancel_most)
    oracle.run(None)
    assert swept and swept[0] > 100
