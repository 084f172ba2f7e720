from dataclasses import fields

import numpy as np
import pytest

from sbsched.energy import (
    POISSON_MEAN_MAX,
    EnergyState,
    HarvestParams,
    harvest_trace,
    power_draw,
)
from sbsched.engine import Replication, ScenarioConfig, run_period
from sbsched.network import BsParams, Topology, dbm_to_watts
from sbsched.pricing import OnSetTable
from sbsched.schedulers import FixedPolicy


def small_cell(op_power=10.0, max_users=10):
    return BsParams(id=1, kind="SBS", x=0.0, y=0.0,
                    tx_power=dbm_to_watts(23.0), op_power_max=op_power,
                    bandwidth=10e6, max_users=max_users)


def macro_cell():
    return BsParams(id=0, kind="MBS", x=0.0, y=0.0,
                    tx_power=dbm_to_watts(33.0), op_power_max=20.0,
                    bandwidth=10e6, max_users=50)


def cell_power(cell, n_users, q):
    """`power_draw` of one cell with `n_users` attached, as a float."""
    return power_draw(np.array([cell.op_power_max]), np.array([cell.max_users]),
                      np.array([n_users]), q, (cell.id,)).item()


class TestPowerModel:
    def test_q_one_is_constant_power(self):
        cell = small_cell()
        for n in (0, 3, 10):
            assert cell_power(cell, n, 1.0) == pytest.approx(10.0)

    def test_half_load(self):
        assert cell_power(small_cell(), 5, 0.9) == pytest.approx(9.5)

    def test_zero_load_proportional(self):
        assert cell_power(small_cell(), 0, 0.0) == 0.0

    def test_macro_share_example(self):
        assert cell_power(macro_cell(), 5, 0.9) == pytest.approx(18.2)

    def test_overload_clamps_with_warning(self):
        with pytest.warns(UserWarning, match="BS 1: 15 users exceed max 10"):
            p = cell_power(small_cell(), 15, 0.9)
        assert p == pytest.approx(cell_power(small_cell(), 10, 0.9))

    def test_scalar_is_the_float_formula_bit_for_bit(self):
        for op, max_users in ((10.0, 10), (7.3, 3), (20.0, 50)):
            cell = small_cell(op_power=op, max_users=max_users)
            for q in (0.0, 0.1, 0.37, 0.9, 1.0):
                for n in range(max_users + 1):
                    p = cell_power(cell, n, q)
                    assert type(p) is float
                    assert p == (n / max_users) * (1.0 - q) * op + q * op

    def test_array_draw_is_the_scalar_per_cell_and_warns_per_cell(self):
        op = np.array([10.0, 7.3, 12.5, 9.0])
        max_users = np.array([10, 3, 2, 4])
        n = np.array([4, 5, 2, 9])
        with pytest.warns(UserWarning) as caught:
            p = power_draw(op, max_users, n, 0.37, (1, 2, 3, 4))
        assert [str(w.message) for w in caught] == [
            "BS 2: 5 users exceed max 3; clamping the proportional term",
            "BS 4: 9 users exceed max 4; clamping the proportional term",
        ]
        for i in range(4):
            u, cap = min(int(n[i]), int(max_users[i])), int(max_users[i])
            assert p[i] == (u / cap) * (1.0 - 0.37) * op[i] + 0.37 * op[i]


class TestHarvest:
    def test_zero_rate(self):
        rng = np.random.default_rng(0)
        trace = harvest_trace(HarvestParams(rate=0.0, quantum=0.2), 1.0, 10, 2, rng)
        assert trace.shape == (10, 2) and np.all(trace == 0.0)

    def test_zero_quantum(self):
        rng = np.random.default_rng(0)
        trace = harvest_trace(HarvestParams(rate=20.0, quantum=0.0), 1.0, 10, 2, rng)
        assert trace.shape == (10, 2) and np.all(trace == 0.0)

    def test_mean_matches_rate_times_quantum(self):
        rng = np.random.default_rng(1)
        params = HarvestParams(rate=20.0, quantum=0.2)
        trace = harvest_trace(params, 1.0, 100_000, 1, rng)
        assert trace.mean() == pytest.approx(4.0, rel=0.01)

    def test_poisson_variance(self):
        rng = np.random.default_rng(2)
        counts = harvest_trace(HarvestParams(20.0, 1.0), 0.1, 200_000, 1, rng)
        assert counts.var() == pytest.approx(counts.mean(), rel=0.02)

    def test_largest_mean_is_numpy_s(self):
        # the scenario accepts the largest mean numpy's sampler draws from,
        # and rejects the next float up, which numpy would reject mid-run
        rng = np.random.default_rng(4)
        params = ScenarioConfig(harvest_rate=POISSON_MEAN_MAX, dt=1.0).harvest
        assert harvest_trace(params, 1.0, 1, 1, rng).shape == (1, 1)
        above = np.nextafter(POISSON_MEAN_MAX, np.inf)
        with pytest.raises(ValueError, match="lam value too large"):
            rng.poisson(above)
        with pytest.raises(ValueError, match="harvest_rate"):
            ScenarioConfig(harvest_rate=above, dt=1.0)

    def test_trace_shape_and_quantization(self):
        rng = np.random.default_rng(3)
        trace = harvest_trace(HarvestParams(20.0, 0.2), 0.1, 100, 4, rng)
        assert trace.shape == (100, 4)
        # every entry is an integer number of 0.2 J quanta
        assert np.allclose(np.round(trace / 0.2), trace / 0.2)


class TestStorage:
    # one slot of one cell, as `run_one_cell` runs it: an OFF cell consumes
    # nothing, an ON one op_power * 0.125 s

    def test_cap_clamp(self):
        _, stored = run_one_cell(99.9, [0.4], t_off=0.0, period=0.125)
        assert stored == pytest.approx(100.0)

    def test_plain_step(self):
        _, stored = run_one_cell(99.9, [0.4], period=0.125, op_power=7.6)
        assert stored == pytest.approx(99.35)

    def test_empty_stays_empty(self):
        _, stored = run_one_cell(0.0, t_off=0.0, period=0.125)
        assert stored == 0.0

    def test_negative_arrivals_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            run_one_cell(1.0, [-0.25], period=0.125)

    def test_overdraw_is_a_caller_bug(self):
        # a draw that the depletion check does not see must not be charged
        with pytest.raises(RuntimeError, match="consumption exceeds available energy"):
            run_one_cell(0.1, period=0.125, unseen_draw=True)

    def test_state_bounds_validated(self):
        # direct construction checks every entry; `fresh` checks its scalar
        for stored in ([120.0], [3.0, -0.5]):
            with pytest.raises(ValueError, match="stored energy out of"):
                EnergyState(stored=np.array(stored), capacity=100.0)
        for initial in (120.0, -0.5, np.nan):
            with pytest.raises(ValueError, match="initial energy must lie"):
                EnergyState.fresh(2, initial=initial, capacity=100.0)

    def test_fresh_state(self):
        state = EnergyState.fresh(3, 60, 100)
        direct = EnergyState(stored=[60.0] * 3, capacity=100.0)
        for got in (state, direct):
            assert got.stored.dtype == np.float64 and got.stored.tolist() == [60.0] * 3
            assert type(got.capacity) is float and got.capacity == 100.0
        # only what crosses a period boundary; depletion is per period
        assert [f.name for f in fields(EnergyState)] == ["stored", "capacity"]


class UnseenDraw(float):
    """A power draw whose every other product reads 0: in a slot of one ON
    cell, the depletion check sees 0 J and the storage step the real draw."""

    products = 0

    def __mul__(self, other):
        self.products += 1
        return float(self) * other if self.products % 2 == 0 else 0.0


def run_one_cell(initial, harvest=(), t_off=1.0, *, period=1.0, op_power=8.0,
                 unseen_draw=False):
    """One period of slots of 0.125 s: one SBS serves one UE and draws
    `op_power`, so 8 W is exactly 1 J a slot. `harvest` is credited in the
    first slots; the policy switches the cell OFF at `t_off`. With the default
    power, all values are exact in binary. Returns the result and the cell's
    storage at the end."""
    cfg = ScenarioConfig(period=period, dt=0.125, n_sbs=1, n_ue=1, q=1.0,
                         sbs_op_power=op_power, initial_energy=initial)
    bs = (macro_cell(), small_cell(op_power=op_power))
    topo = Topology.from_bs(bs, np.zeros((1, 2)), np.array([[1e-13, 1e-10]]),
                            dbm_to_watts(-104.0), (500.0, 500.0))
    table = OnSetTable(topo, cfg.weights, cfg.q, cfg.file_bits, cfg.period)
    if unseen_draw:
        table[np.ones(2, dtype=bool)].psi_values = (UnseenDraw(op_power),)
    trace = np.zeros((cfg.n_steps, 1))
    trace[:len(harvest), 0] = harvest
    trace.flags.writeable = False
    # a record built by hand runs on the table built here
    rep = Replication(cfg, topo, (table,), (trace,), 0)
    energy = EnergyState.fresh(1, initial, cfg.capacity)
    res, _ = run_period(cfg, topo, energy, FixedPolicy(t_off), rep.policy_rngs(), trace,
                        record=rep)
    assert res.used[0]
    return res, energy.stored[0]


class TestDepletion:
    def test_cannot_fund_next_slot(self):
        res, _ = run_one_cell(0.5, [0.25])
        assert res.depleted_at[0] == 0.0 and res.on_time[0] == 0.0
        assert not res.buy_charged[0]

    def test_zero_power_never_depletes(self):
        # a cell switched OFF draws nothing, so an empty battery is no depletion
        res, _ = run_one_cell(0.0, t_off=0.0)
        assert np.isnan(res.depleted_at[0]) and res.buy_charged[0]
        assert res.energy_consumed[0] == 0.0

    def test_exact_boundary_not_depleted(self):
        # 2 J fund exactly two slots; the third finds 0 J and depletes
        res, _ = run_one_cell(2.0)
        assert res.on_time[0] == 0.25 and res.depleted_at[0] == 0.25
        assert res.energy_consumed[0] == 2.0
        # 8 J fund exactly the whole period
        res, _ = run_one_cell(8.0)
        assert res.on_time[0] == 1.0 and np.isnan(res.depleted_at[0])

    def test_harvest_can_rescue(self):
        assert run_one_cell(0.5)[0].depleted_at[0] == 0.0
        res, _ = run_one_cell(0.5, [0.5])
        assert res.on_time[0] == 0.125 and res.depleted_at[0] == 0.125
