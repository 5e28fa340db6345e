"""Fluid bulk-transfer model: fair sharing, drops, accounting, gating."""

import pytest

from repro.sim import Environment
from repro.mpi.network import (
    LinkFailure,
    LinkFaults,
    MIB,
    Network,
    NetworkConfig,
)


class _ScriptedRng:
    def __init__(self, values):
        self.values = list(values)

    def random(self):
        return self.values.pop(0)


def _cfg(**kw):
    base = dict(
        latency_s=0.0, bandwidth_Bps=100.0, cpu_overhead_s=0.0, fluid_threshold_B=1
    )
    base.update(kw)
    return NetworkConfig(**base)


def _xfer(env, net, src, dst, nbytes, done, key):
    yield from net.transfer(src, dst, nbytes)
    done[key] = env.now


@pytest.fixture
def env():
    return Environment()


class TestConfig:
    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            NetworkConfig(fluid_threshold_B=0)
        with pytest.raises(ValueError):
            NetworkConfig(fluid_threshold_B=-5)

    def test_default_has_no_scheduler(self, env):
        net = Network(env, 2, NetworkConfig())
        assert net.flows is None

    def test_threshold_gates_path(self, env):
        """Messages under the threshold stay on the packet path."""
        net = Network(env, 2, _cfg(fluid_threshold_B=500))
        done = {}
        env.process(_xfer(env, net, 0, 1, 499, done, "small"))
        env.run()
        assert net.flows.flows_started == 0
        done = {}
        env.process(_xfer(env, net, 0, 1, 500, done, "big"))
        env.run()
        assert net.flows.flows_started == 1


class TestFairSharing:
    def test_single_flow_full_rate(self, env):
        net = Network(env, 2, _cfg())
        done = {}
        env.process(_xfer(env, net, 0, 1, 1000, done, "a"))
        env.run()
        assert done["a"] == pytest.approx(10.0)

    def test_shared_destination_halves_rate(self, env):
        net = Network(env, 3, _cfg())
        done = {}
        env.process(_xfer(env, net, 1, 0, 1000, done, "a"))
        env.process(_xfer(env, net, 2, 0, 1000, done, "b"))
        env.run()
        assert done["a"] == pytest.approx(20.0)
        assert done["b"] == pytest.approx(20.0)

    def test_disjoint_pairs_full_rate(self, env):
        net = Network(env, 4, _cfg())
        done = {}
        env.process(_xfer(env, net, 0, 1, 1000, done, "a"))
        env.process(_xfer(env, net, 2, 3, 1000, done, "b"))
        env.run()
        assert done["a"] == pytest.approx(10.0)
        assert done["b"] == pytest.approx(10.0)

    def test_late_flow_rebalances(self, env):
        """b arrives at t=5: both run at 50 B/s until a drains at t=15,
        then b finishes its remaining 500 B at full rate at t=20."""
        net = Network(env, 3, _cfg())
        done = {}

        def late(env):
            yield env.timeout(5.0)
            yield from net.transfer(2, 0, 1000)
            done["b"] = env.now

        env.process(_xfer(env, net, 1, 0, 1000, done, "a"))
        env.process(late(env))
        env.run()
        assert done["a"] == pytest.approx(15.0)
        assert done["b"] == pytest.approx(20.0)
        # start(a), start(b), finish(a), finish(b) — one recompute each.
        assert net.flows.rate_changes == 4

    def test_max_min_unbalanced_shares(self, env):
        """Three flows into one sink plus one disjoint flow: the sink's
        flows get 1/3 each; the disjoint flow is NOT throttled to the
        bottleneck share (max-min, not global equal split)."""
        net = Network(env, 6, _cfg())
        done = {}
        for i, key in enumerate(("a", "b", "c")):
            env.process(_xfer(env, net, i + 1, 0, 900, done, key))
        env.process(_xfer(env, net, 4, 5, 900, done, "free"))
        env.run()
        for key in ("a", "b", "c"):
            assert done[key] == pytest.approx(27.0)
        assert done["free"] == pytest.approx(9.0)

    def test_fabric_capacity_bounds_aggregate(self, env):
        net = Network(env, 6, _cfg(fabric_capacity=1))
        done = {}
        for i, key in enumerate(("a", "b", "c")):
            env.process(_xfer(env, net, 2 * i, 2 * i + 1, 1000, done, key))
        env.run()
        # Aggregate fabric pipe = 1 × 100 B/s shared three ways.
        for key in ("a", "b", "c"):
            assert done[key] == pytest.approx(30.0)

    def test_same_nic_stays_on_memcpy_path(self, env):
        """Node-local transfers never become flows."""
        net = Network(env, 4, _cfg(ranks_per_nic=2))
        done = {}
        env.process(_xfer(env, net, 0, 1, 1000, done, "local"))
        env.run()
        assert net.flows.flows_started == 0
        # memcpy model: serialization/4.
        assert done["local"] == pytest.approx(2.5)

    def test_latency_and_overhead_charged(self, env):
        net = Network(
            env, 2, _cfg(latency_s=0.5, cpu_overhead_s=0.25)
        )
        done = {}
        env.process(_xfer(env, net, 0, 1, 1000, done, "a"))
        env.run()
        # cpu + flow(10) + latency + cpu
        assert done["a"] == pytest.approx(11.0)


class TestFluidFaults:
    def _loss(self, **kw):
        from repro.faults import MessageLoss

        base = dict(
            drop_prob=0.5,
            start=0.0,
            end=1e9,
            retransmit_timeout_s=0.5,
            backoff=2.0,
            max_retries=3,
        )
        base.update(kw)
        return MessageLoss(**base)

    def test_drop_retransmits_whole_flow(self, env):
        net = Network(env, 2, _cfg())
        net.install_faults(LinkFaults([self._loss()], _ScriptedRng([0.0, 0.9])))
        done = {}
        env.process(_xfer(env, net, 0, 1, 100, done, "a"))
        env.run()
        # flow(1s) + backoff(0.5) + flow(1s)
        assert done["a"] == pytest.approx(2.5)
        assert net.faults.stats.drops == 1
        assert net.faults.stats.retransmits == 1

    def test_budget_exhaustion_raises(self, env):
        net = Network(env, 2, _cfg())
        net.install_faults(
            LinkFaults([self._loss(max_retries=3)], _ScriptedRng([0.0] * 8))
        )

        def doomed():
            yield from net.transfer(0, 1, 100)

        with pytest.raises(LinkFailure):
            env.run(env.process(doomed()))
        assert net.faults.stats.drops == 4
        assert net.faults.stats.link_failures == 1

    def test_byte_conservation_under_drops(self, env):
        """Checker ledger parity: rx + dropped == tx when every loss is
        eventually recovered."""
        from repro.check.invariants import InvariantChecker

        env.check = InvariantChecker(env)
        net = Network(env, 2, _cfg())
        net.install_faults(
            LinkFaults([self._loss()], _ScriptedRng([0.0, 0.0, 0.9]))
        )
        done = {}
        env.process(_xfer(env, net, 0, 1, 100, done, "a"))
        env.run()
        s = env.check.summary()
        assert s["tx_bytes"] == 300  # three attempts
        assert s["rx_bytes"] == 100
        assert s["dropped_bytes"] == 200
        env.check.finalize(now=env.now, fault_free=False)


class TestFluidAccounting:
    def test_nic_stats_and_metrics(self, env):
        from repro.obs.metrics import MetricsRegistry

        env.metrics = MetricsRegistry()
        net = Network(env, 2, _cfg())
        done = {}
        env.process(_xfer(env, net, 0, 1, 1000, done, "a"))
        env.run()
        assert net.nic(0).stats.tx_bytes == 1000
        assert net.nic(0).stats.tx_messages == 1
        assert net.nic(1).stats.rx_bytes == 1000
        snap = env.metrics.snapshot()
        assert snap.counter_total("mpi.fluid_flows") == 1
        assert snap.counter_total("mpi.fluid_bytes") == 1000
        assert snap.counter_total("mpi.nic_tx_bytes", nic=0, rank=0) == 1000
        assert snap.counter_total("mpi.nic_rx_bytes", nic=1, rank=1) == 1000
        assert snap.counter_total("mpi.flow_rate_changes") == 2

    def test_scheduler_repr_and_counters(self, env):
        net = Network(env, 2, _cfg())
        done = {}
        env.process(_xfer(env, net, 0, 1, 1000, done, "a"))
        env.run()
        assert net.flows.flows_started == 1
        assert net.flows.flows_finished == 1
        assert net.flows.active_flows == 0
        assert "FlowScheduler" in repr(net.flows)


class TestFluidEndToEnd:
    @staticmethod
    def _fluid_mw_config():
        from dataclasses import replace

        from repro.core import SimulationConfig

        base = SimulationConfig(
            nprocs=4, nqueries=2, nfragments=8, strategy="mw", check=True
        )
        # Lower the eager threshold so the worker→master result payloads
        # go rendezvous (the only path that reaches Network.transfer) and
        # thus exercise the fluid model inside a full application run.
        return base.with_(
            network=replace(
                base.network, eager_threshold_B=2048, fluid_threshold_B=4096
            ),
        )

    def test_full_run_completes_with_fluid(self):
        """A whole S3aSim run with fluid transfers on: completes, output
        file dense, invariants clean."""
        from repro.core import S3aSim

        app = S3aSim(self._fluid_mw_config())
        result = app.run()
        assert result.file_stats.complete
        assert app.world.network.flows is not None
        # The bulk result writes are big enough to ride the fluid path.
        assert app.world.network.flows.flows_finished > 0

    def test_fluid_run_twice_is_bit_identical(self):
        from repro.core import S3aSim

        def fingerprint():
            app = S3aSim(self._fluid_mw_config())
            result = app.run()
            return (
                result.elapsed,
                tuple(sorted(result.master.as_dict().items())),
                tuple(tuple(sorted(w.as_dict().items())) for w in result.workers),
                result.file_stats,
                tuple(sorted(result.server_stats.items())),
                next(app.world.env._eid),
            )

        assert fingerprint() == fingerprint()

    def test_fluid_matches_packet_byte_totals(self):
        """Fluid mode changes timing, never payload byte totals."""
        from dataclasses import replace

        from repro.core import S3aSim, SimulationConfig

        base = SimulationConfig(nprocs=4, nqueries=2, nfragments=8, strategy="mw")
        packet_net = replace(base.network, eager_threshold_B=2048)
        totals = {}
        for name, net in (
            ("packet", packet_net),
            ("fluid", replace(packet_net, fluid_threshold_B=4096)),
        ):
            app = S3aSim(base.with_(network=net))
            result = app.run()
            assert result.file_stats.complete
            totals[name] = result.file_stats.total_bytes
        assert totals["packet"] == totals["fluid"]
