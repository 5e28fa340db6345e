"""Environment edge cases: scheduling, stepping, introspection."""

import random

import pytest

from repro.sim import EmptySchedule, Environment, SimulationError, Store


@pytest.fixture
def env():
    return Environment()


class TestScheduling:
    def test_initial_time(self):
        env = Environment(initial_time=5.0)
        assert env.now == 5.0
        env.timeout(1)
        env.run()
        assert env.now == 6.0

    def test_schedule_in_the_past_rejected(self, env):
        event = env.event()
        with pytest.raises(SimulationError):
            env.schedule(event, delay=-1)

    def test_schedule_nan_delay_rejected(self, env):
        """A NaN timestamp breaks heapq's ordering invariant and silently
        corrupts the event queue — it must be rejected at the door."""
        event = env.event()
        with pytest.raises(SimulationError):
            env.schedule(event, delay=float("nan"))
        assert env.queue_size == 0

    def test_schedule_inf_delay_rejected(self, env):
        event = env.event()
        with pytest.raises(SimulationError):
            env.schedule(event, delay=float("inf"))
        assert env.queue_size == 0

    def test_run_until_nan_rejected(self, env):
        env.timeout(1)
        with pytest.raises(ValueError):
            env.run(until=float("nan"))

    def test_step_on_empty_queue(self, env):
        with pytest.raises(EmptySchedule):
            env.step()

    def test_queue_size(self, env):
        assert env.queue_size == 0
        env.timeout(1)
        env.timeout(2)
        assert env.queue_size == 2
        env.run()
        assert env.queue_size == 0

    def test_manual_stepping(self, env):
        seen = []
        for delay in (3, 1, 2):
            env.timeout(delay, value=delay).callbacks.append(
                lambda e: seen.append(e.value)
            )
        env.step()
        assert seen == [1]
        assert env.now == 1
        env.step()
        env.step()
        assert seen == [1, 2, 3]

    def test_repr(self, env):
        env.timeout(1)
        text = repr(env)
        assert "Environment" in text and "queued=1" in text


class TestSameTimeOrdering:
    def test_priority_beats_insertion(self, env):
        """URGENT events at a timestamp run before NORMAL ones regardless
        of insertion order (process initialisation relies on this)."""
        from repro.sim.events import NORMAL, URGENT

        order = []
        normal = env.event()
        normal._ok, normal._value = True, "normal"
        urgent = env.event()
        urgent._ok, urgent._value = True, "urgent"
        env.schedule(normal, priority=NORMAL)
        env.schedule(urgent, priority=URGENT)
        normal.callbacks.append(lambda e: order.append(e.value))
        urgent.callbacks.append(lambda e: order.append(e.value))
        env.run()
        assert order == ["urgent", "normal"]

    def test_fifo_within_priority(self, env):
        order = []
        for name in ("a", "b", "c"):
            t = env.timeout(1, value=name)
            t.callbacks.append(lambda e: order.append(e.value))
        env.run()
        assert order == ["a", "b", "c"]


class TestTraces:
    """Pinned event orders of small mixed workloads."""

    def test_basic_run(self, env):
        trace = []

        def proc(env, name, delays):
            for d in delays:
                yield env.timeout(d)
                trace.append((env.now, name))

        env.process(proc(env, "a", [1, 2, 3]))
        env.process(proc(env, "b", [2, 2, 2]))
        env.run()
        assert trace == [
            (1, "a"), (2, "b"), (3, "a"), (4, "b"), (6, "a"), (6, "b")
        ]

    def test_urgent_mid_batch(self, env):
        """A process spawned mid-timestamp runs its URGENT init before the
        NORMAL events already queued at that time."""
        trace = []

        def child(env):
            trace.append((env.now, "child"))
            yield env.timeout(1)
            trace.append((env.now, "child-end"))

        def spawner(env):
            yield env.timeout(2)
            trace.append((env.now, "spawn"))
            env.process(child(env))
            yield env.timeout(0)
            trace.append((env.now, "after"))

        def bystander(env):
            yield env.timeout(2)
            trace.append((env.now, "bystander"))

        env.process(spawner(env))
        env.process(bystander(env))
        env.run()
        assert trace == [
            (2, "spawn"),
            (2, "child"),
            (2, "bystander"),
            (2, "after"),
            (3, "child-end"),
        ]

    @staticmethod
    def _mixed_workload(env, trace, seed):
        """Timers, same-time collisions, zero delays, stores, conditions."""
        rng = random.Random(seed)
        store = Store(env)

        def timer(env, name):
            for _ in range(rng.randrange(1, 6)):
                yield env.timeout(round(rng.uniform(0, 5), 1))
                trace.append((env.now, "t", name))

        def producer(env):
            for i in range(10):
                yield env.timeout(0.5)
                yield store.put(i)

        def consumer(env, name):
            for _ in range(5):
                item = yield store.get()
                trace.append((env.now, "c", name, item))
                yield env.timeout(0)  # zero-delay cascade

        def waiter(env):
            t1 = env.timeout(2.0, "x")
            t2 = env.timeout(2.0, "y")
            got = yield t1 | t2
            trace.append((env.now, "w", len(got.events)))

        for i in range(8):
            env.process(timer(env, i))
        env.process(producer(env))
        env.process(consumer(env, "c1"))
        env.process(consumer(env, "c2"))
        env.process(waiter(env))

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_split_run_matches_single_run(self, seed):
        """Stopping at times and resuming must not perturb the event order:
        same trace, same final clock, and the same events plus exactly one
        stopper event per ``run(until=t)``."""
        single_env, single = Environment(), []
        self._mixed_workload(single_env, single, seed)
        single_env.run()

        split_env, split = Environment(), []
        self._mixed_workload(split_env, split, seed)
        split_env.run(until=1.5)
        split_env.run(until=3.0)
        split_env.run()

        assert split == single
        assert split_env.now == single_env.now > 3.0
        assert next(split_env._eid) == next(single_env._eid) + 2


class TestRunUntilFailedEvent:
    """run(until=event) must defuse a failed event in both orders.

    When the awaited event fails *during* the run, _stop_simulation
    defuses it before re-raising (the caller took responsibility by
    receiving the exception).  Regression: the already-processed branch
    re-raised *without* defusing — harmless in isolation, but
    inconsistent, and it left the event looking unhandled to any later
    audit of the object.
    """

    @staticmethod
    def _failing_event(env):
        bad = env.event()

        def failer(env):
            yield env.timeout(1)
            bad.fail(RuntimeError("boom"))

        env.process(failer(env))
        return bad

    def test_failure_during_run(self, env):
        bad = self._failing_event(env)
        with pytest.raises(RuntimeError, match="boom"):
            env.run(until=bad)
        assert bad._defused

    def test_failure_already_processed(self, env):
        bad = self._failing_event(env)
        with pytest.raises(RuntimeError, match="boom"):
            env.run(until=bad)
        # Second run on the now-processed failed event: same behaviour,
        # and the event stays defused.
        with pytest.raises(RuntimeError, match="boom"):
            env.run(until=bad)
        assert bad._defused

    def test_already_processed_defuses_fresh_reference(self, env):
        """A failed event processed while *another* waiter held it still
        defuses when later passed to run(until=...)."""
        bad = self._failing_event(env)

        def watcher(env):
            try:
                yield bad
            except RuntimeError:
                return "saw it"

        assert env.run(env.process(watcher(env))) == "saw it"
        with pytest.raises(RuntimeError, match="boom"):
            env.run(until=bad)
        assert bad._defused


class TestRunReturnValues:
    def test_run_returns_event_value(self, env):
        def proc(env):
            yield env.timeout(1)
            return {"answer": 42}

        assert env.run(env.process(proc(env))) == {"answer": 42}

    def test_run_until_float_accepts_int(self, env):
        env.timeout(10)
        env.run(until=5)
        assert env.now == 5.0

    def test_nested_processes_chain_values(self, env):
        def leaf(env):
            yield env.timeout(1)
            return 1

        def middle(env):
            value = yield env.process(leaf(env))
            return value + 1

        def root(env):
            value = yield env.process(middle(env))
            return value + 1

        assert env.run(env.process(root(env))) == 3
