import math

import numpy as np
import pytest

from sbsched.engine import Replication, ScenarioConfig, epoch_tables, run_horizon
from sbsched.network import BsParams, Topology, dbm_to_watts
from sbsched.pricing import PriceTag
from sbsched.schedulers import (
    AdaptivePolicy,
    DoaPolicy,
    FixedPolicy,
    RentHistory,
    RoaPolicy,
    ThresholdPolicy,
    adaptive_off_time,
    doa_off_time,
    make_policy,
    roa_off_time,
)

E = math.e


def run_one_cell(policy, initial, harvest):
    """One period of eight 0.125 s slots on a record built from arrays: one
    SBS serves one UE and draws 8 W, so a slot ON costs exactly 1 J;
    `harvest` is credited in the first slots."""
    cfg = ScenarioConfig(period=1.0, dt=0.125, horizon_periods=1, n_sbs=1, n_ue=1,
                         q=1.0, sbs_op_power=8.0, initial_energy=initial)
    bs = (BsParams(id=0, kind="MBS", x=0.0, y=0.0, tx_power=dbm_to_watts(33.0),
                   op_power_max=20.0, bandwidth=10e6, max_users=50),
          BsParams(id=1, kind="SBS", x=0.0, y=0.0, tx_power=dbm_to_watts(23.0),
                   op_power_max=8.0, bandwidth=10e6, max_users=10))
    topo = Topology.from_bs(bs, np.zeros((1, 2)), np.array([[1e-13, 1e-10]]),
                            dbm_to_watts(-104.0), (500.0, 500.0))
    trace = np.zeros((cfg.n_steps, 1))
    trace[:len(harvest), 0] = harvest
    trace.flags.writeable = False
    rep = Replication(cfg, topo, tuple(epoch_tables(cfg, topo)), (trace,),
                      np.random.SeedSequence(0))
    (res,) = run_horizon(rep, policy)
    assert res.used[0]
    return res


class TestDoa:
    def test_ratio_rule(self):
        assert doa_off_time(1.0, 4.0, 10.0) == 4.0

    def test_zero_buy_immediate_off(self):
        assert doa_off_time(1.0, 0.0, 10.0) == 0.0

    def test_clamped_to_period(self):
        assert doa_off_time(0.1, 4.0, 10.0) == 10.0

    def test_zero_rent_never_off(self):
        assert doa_off_time(0.0, 4.0, 10.0) == 10.0

    def test_invalid(self):
        with pytest.raises(ValueError):
            doa_off_time(-1.0, 4.0, 10.0)


class TestRoaInverse:
    def test_endpoints(self):
        assert roa_off_time(1.0, 4.0, 0.0) == 0.0
        assert roa_off_time(1.0, 4.0, 1.0) == pytest.approx(4.0, rel=1e-12)

    def test_median_example(self):
        assert roa_off_time(1.0, 4.0, 0.5) == pytest.approx(2.48046, abs=1e-5)

    def test_round_trip(self):
        for mu in np.linspace(0.01, 0.99, 25):
            t = roa_off_time(0.7, 3.1, float(mu))
            # the ROA OFF-time CDF on [0, b/r], (e^(rt/b) - 1) / (e - 1)
            assert (math.exp(0.7 * t / 3.1) - 1.0) / (E - 1.0) == pytest.approx(mu, abs=1e-9)

    def test_support(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            r, b = rng.uniform(0.1, 5.0, size=2)
            t = roa_off_time(r, b, float(rng.uniform()))
            assert 0.0 <= t <= b / r + 1e-12

    def test_zero_buy(self):
        assert roa_off_time(1.0, 0.0, 0.7) == 0.0


THREE_STEP = RentHistory(((0.0, 2.0), (1.0, 1.0), (2.0, 0.5)))


class TestAdaptive:
    def test_history_validation(self):
        with pytest.raises(ValueError):
            RentHistory(())
        with pytest.raises(ValueError):
            RentHistory(((1.0, 2.0),))  # must start at t=0
        with pytest.raises(ValueError):
            RentHistory(((0.0, 2.0), (1.0, 2.0)))  # not strictly decreasing
        with pytest.raises(ValueError):
            RentHistory(((0.0, 2.0), (0.0, 1.0)))  # times must increase

    def test_three_step_schedule(self):
        assert adaptive_off_time(RentHistory(((0.0, 2.0),)), 4.0) == pytest.approx(2.0)
        assert adaptive_off_time(
            RentHistory(((0.0, 2.0), (1.0, 1.0))), 4.0
        ) == pytest.approx(3.0)
        assert adaptive_off_time(THREE_STEP, 4.0) == pytest.approx(4.0)

    def test_updates_strictly_increase(self):
        # a rent drop observed before the scheduled OFF time always pushes
        # the schedule later
        rng = np.random.default_rng(5)
        for _ in range(50):
            rents = np.sort(rng.uniform(0.1, 5.0, size=4))[::-1]
            buy = float(rng.uniform(0.5, 10.0))
            steps = [(0.0, float(rents[0]))]
            prev = adaptive_off_time(RentHistory(tuple(steps)), buy)
            for v in range(1, 4):
                last_t = steps[-1][0]
                if prev <= last_t:  # already OFF; no further updates arrive
                    break
                t_new = float(rng.uniform(last_t, prev))
                steps.append((np.nextafter(t_new, np.inf) if t_new == last_t
                              else t_new, float(rents[v])))
                t_bar = adaptive_off_time(RentHistory(tuple(steps)), buy)
                assert t_bar > prev
                prev = t_bar

    def test_accumulated_rent_equals_buy_at_schedule(self):
        for v in range(1, 4):
            h = RentHistory(THREE_STEP.steps[:v])
            t_bar = adaptive_off_time(h, 4.0)
            assert t_bar > h.steps[-1][0]
            # the rent paid on [0, t_bar], each level held until the next
            ends = [t for t, _ in h.steps[1:]] + [t_bar]
            paid = sum(r * (end - t0) for (t0, r), end in zip(h.steps, ends))
            assert paid == pytest.approx(4.0, abs=1e-12)

    def test_realized_stops_at_early_schedule(self):
        # the first schedule (t = 0.5) precedes the change at t = 1, so it is
        # final: a lower rent seen after it leaves the OFF time at or before
        # the time it is seen, and the engine switches the cell OFF then
        pol = AdaptivePolicy()
        pol.reset([PriceTag(sbs=1, rent=8.0, buy=4.0)], 10.0, [])
        assert not pol.observe(1, 0.4, 8.0)
        assert pol.off_times[1] == 0.5
        pol.observe(1, 1.0, 1.0)
        assert pol.off_times[1] <= 1.0


class TestBaselines:
    def test_fixed(self):
        tags = [PriceTag(sbs=1, rent=1.0, buy=4.0)]
        for t_fix, off in ((7.0, 7.0), (0.0, 0.0), (10.0, 10.0), (11.0, 10.0)):
            pol = FixedPolicy(t_fix)
            pol.reset(tags, 10.0, [])
            assert pol.off_times == {1: off}


class TestPolicyObjects:
    def tags(self):
        return [PriceTag(sbs=1, rent=1.0, buy=4.0), PriceTag(sbs=2, rent=2.0, buy=4.0)]

    def rngs(self):
        return [np.random.default_rng(s) for s in range(2)]

    def test_doa_policy(self):
        pol = DoaPolicy()
        pol.reset(self.tags(), 10.0, self.rngs())
        assert pol.off_times == {1: 4.0, 2: 2.0}

    def test_roa_policy_support_and_determinism(self):
        pol = RoaPolicy()
        pol.reset(self.tags(), 10.0, self.rngs())
        first = dict(pol.off_times)
        assert 0.0 <= first[1] <= 4.0 and 0.0 <= first[2] <= 2.0
        pol2 = RoaPolicy()
        pol2.reset(self.tags(), 10.0, self.rngs())
        assert pol2.off_times == first

    def test_fixed_policy(self):
        pol = FixedPolicy(7.0)
        pol.reset(self.tags(), 10.0, self.rngs())
        assert pol.off_times == {1: 7.0, 2: 7.0}

    def test_threshold_policy_flips_both_ways(self):
        # 51 J > 50% of 100 J: ON in slot 0, which leaves 50 J; 50 is not
        # above 50, so OFF in slot 1, whose 5 J bring it back ON in slot 2;
        # five slots later it is down to 50 J and OFF again
        res = run_one_cell(ThresholdPolicy(50.0), 51.0, [0.0, 5.0])
        assert res.switch_count[0] == 3 and res.on_time[0] == 0.75
        assert res.buy_charged[0] and res.total_cost == res.rent_cost[0] + res.buy_price[0]
        assert np.isnan(res.depleted_at[0])

    def test_adaptive_policy_tracks_decreasing_rent(self):
        pol = AdaptivePolicy()
        pol.reset([PriceTag(sbs=1, rent=2.0, buy=4.0)], 10.0, self.rngs())
        assert pol.off_times[1] == pytest.approx(2.0)
        assert pol.observe(1, 1.0, 1.0)
        assert pol.off_times[1] == pytest.approx(3.0)
        assert pol.observe(1, 2.0, 0.5)
        assert pol.off_times[1] == pytest.approx(4.0)
        assert not pol.observe(1, 3.0, 0.5)  # the same rent again moves nothing
        assert pol.off_times[1] == pytest.approx(4.0)

    def test_adaptive_policy_lower_rent_at_start_replaces_the_tag(self):
        pol = AdaptivePolicy()
        pol.reset([PriceTag(sbs=1, rent=2.0, buy=4.0)], 10.0, self.rngs())
        assert pol.observe(1, 0.0, 1.0)
        assert pol.histories[1].steps == ((0.0, 1.0),)
        assert pol.off_times[1] == pytest.approx(4.0)

    def test_adaptive_policy_holds_on_increase(self):
        pol = AdaptivePolicy()
        pol.reset([PriceTag(sbs=1, rent=2.0, buy=4.0)], 10.0, self.rngs())
        assert not pol.observe(1, 1.0, 3.0)  # increase: schedule kept
        assert pol.off_times[1] == pytest.approx(2.0)

    def test_adaptive_policy_zero_rent_never_switches_off(self):
        # a zero rent never adds up to the buy price: a cell that has not
        # paid it yet stays ON to the period's end, and is no longer tracked
        pol = AdaptivePolicy()
        pol.reset([PriceTag(sbs=1, rent=2.0, buy=4.0)], 10.0, self.rngs())
        assert pol.observe(1, 1.0, 0.0)
        assert pol.off_times[1] == 10.0 and 1 not in pol.histories
        assert not pol.observe(1, 2.0, 1.0)
        # one that has paid it by its OFF time at 2 s is OFF from then on
        pol.reset([PriceTag(sbs=1, rent=2.0, buy=4.0)], 10.0, self.rngs())
        assert not pol.observe(1, 2.0, 0.0)
        assert pol.off_times[1] == 2.0

    def test_make_policy(self):
        assert isinstance(make_policy("doa"), DoaPolicy)
        assert isinstance(make_policy("roa"), RoaPolicy)
        assert isinstance(make_policy("adaptive"), AdaptivePolicy)
        assert make_policy("fixed:7").t_fix == 7.0
        assert make_policy("threshold:50").k_percent == 50.0
        with pytest.raises(ValueError):
            make_policy("genie")
        with pytest.raises(ValueError):
            make_policy("fixed")

    @pytest.mark.parametrize("spec", ["fixed:-1", "fixed:nan", "threshold:150",
                                      "threshold:-0.5", "threshold:nan"])
    def test_make_policy_rejects_out_of_range_arguments(self, spec):
        with pytest.raises(ValueError):
            make_policy(spec)
