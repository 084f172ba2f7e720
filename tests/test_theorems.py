"""The paper's competitive ratios, checked on policies run through `run_horizon`.

Each test runs policies on a one-cell record built from arrays: one SBS
serving one UE on a hand-built `Topology`, a zero-harvest trace, and 8 W at
dt = 0.125 s, so a slot ON costs exactly 1 J and E0 = s J makes the cell run
dry at slot s. A record's optimum comes from engine runs of that record, not
from a formula: the cheaper of never switching OFF (`fixed:` past the
period) and switching OFF at once (`fixed:0`).
"""
import math
from dataclasses import replace

import numpy as np
import pytest

from sbsched.engine import Replication, ScenarioConfig, epoch_tables, run_horizon
from sbsched.network import BsParams, Topology, dbm_to_watts
from sbsched.schedulers import make_policy

DT = 0.125
N_STEPS = 80
NEVER_DRY = 100  # J, more than the 80 J of a period ON
KAPPA = math.e / (math.e - 1.0)

ONE_CELL = ScenarioConfig(period=N_STEPS * DT, dt=DT, horizon_periods=1, n_sbs=1, n_ue=1,
                          q=1.0, sbs_op_power=8.0)
FROZEN = replace(ONE_CELL, price_mode="frozen")
# live prices weigh the delay only; the SBS's transmit power, and with it its
# rate, rises at 0.5 s and 1 s, so its rent steps down twice
FALLING_RENT = replace(ONE_CELL, alpha_d=1.0, alpha_p=0.0, alpha_b=0.015,
                       sbs_tx_schedule=((0.5, 0.6), (1.0, 2.0)))
ZERO_HARVEST = np.zeros((N_STEPS, 1))
ZERO_HARVEST.flags.writeable = False


def one_cell_tables(cfg, gain):
    """The epoch tables of one SBS and one UE, `gain` the UE's (MBS, SBS) gains."""
    bs = (BsParams(id=0, kind="MBS", x=0.0, y=0.0, tx_power=dbm_to_watts(33.0),
                   op_power_max=20.0, bandwidth=10e6, max_users=50),
          BsParams(id=1, kind="SBS", x=0.0, y=0.0, tx_power=dbm_to_watts(23.0),
                   op_power_max=8.0, bandwidth=10e6, max_users=10))
    topo = Topology.from_bs(bs, np.zeros((1, 2)), np.array([gain]), dbm_to_watts(-104.0),
                            (500.0, 500.0))
    return tuple(epoch_tables(cfg, topo))


def record(cfg, tables, s, seed=0):
    """A record of `cfg` on `tables` whose cell starts with s J."""
    cfg = replace(cfg, initial_energy=float(s))
    return Replication(cfg, tables[0].topo, tables, (ZERO_HARVEST,),
                       np.random.SeedSequence(seed))


def run(rep, policy):
    (res,) = run_horizon(rep, make_policy(policy))
    return res


def cost(rep, policy):
    return run(rep, policy).total_cost


def opt(rep):
    return min(cost(rep, "fixed:100"), cost(rep, "fixed:0"))


@pytest.fixture(scope="module")
def frozen():
    tables = one_cell_tables(FROZEN, (1e-13, 1e-10))
    (tag,) = tables[0].tags
    r, b = tag.rent, tag.buy
    assert r * FROZEN.period >= b
    # DOA's OFF slot, the first slot whose start is not before b/r; dividing
    # by 0.125 is exact
    k_doa = math.ceil(b / r / DT)
    assert 1 < k_doa < N_STEPS
    return tables, r, b, k_doa


def test_doa_cost_is_its_closed_form_and_at_most_twice_opt(frozen):
    tables, r, b, k_doa = frozen
    worst = 0.0
    for s in [*range(1, N_STEPS + 1), NEVER_DRY]:
        rep = record(FROZEN, tables, s)
        u = min(s, N_STEPS)  # slots ON before the cell runs dry
        # a voluntary OFF in the slot where the cell runs dry wins, and buys
        closed = r * DT * k_doa + b if k_doa <= s else r * DT * u
        doa, best = cost(rep, "doa"), opt(rep)
        assert doa == pytest.approx(closed, rel=1e-12)
        assert best == pytest.approx(min(r * DT * u, b), rel=1e-12)
        worst = max(worst, doa / best)
    # b/r is reached at a slot start, up to one slot late: the slot's rent
    # is the discretisation's share
    assert 2.0 <= worst <= 2.0 + r * DT / b


def roa_expected_cost(r, b, s):
    """ROA's exact expected cost when the cell runs dry at slot s: its OFF
    time t has the CDF F, and it switches OFF at slot j when
    (j - 1) * dt < t <= j * dt."""
    def cdf(t):
        return min((math.exp(r * t / b) - 1.0) / (math.e - 1.0), 1.0)
    return sum((cdf(j * DT) - cdf((j - 1) * DT))
               * (r * DT * j + b if j <= s else r * DT * min(s, N_STEPS))
               for j in range(1, N_STEPS + 1))


# b/r lies between slots 10 and 11
@pytest.mark.parametrize("s", [5, 10, 12, NEVER_DRY])
def test_roa_mean_cost_is_its_discrete_expectation(frozen, s):
    tables, r, b, _ = frozen
    n = 400
    costs = np.array([cost(record(FROZEN, tables, s, seed), "roa") for seed in range(n)])
    mean, stderr = costs.mean(), costs.std(ddof=1) / math.sqrt(n)
    expected = roa_expected_cost(r, b, s)
    assert abs(mean - expected) <= 4 * stderr
    # against the continuous e/(e-1) * OPT, the slot grid defers each OFF by
    # less than one slot, so the expectation lies above it by less than r * dt
    best = opt(record(FROZEN, tables, s))
    assert 0.0 <= expected - KAPPA * best <= r * DT


def test_adaptive_follows_the_falling_rent_within_twice_opt():
    tables = one_cell_tables(FALLING_RENT, (1e-15, 1e-13))
    (tag,) = tables[0].tags
    all_on = np.ones(2, dtype=bool)
    r0, r1, r2 = (table[all_on].rent_values[1] for table in tables)
    assert tag.rent == r0 > r1 > r2
    b = tag.buy
    # the OFF time re-derived after both drops, where the rent paid is b
    t_off = (b - 0.5 * (r0 - r1) - 1.0 * (r1 - r2)) / r2
    assert 0.5 < b / r0 and 1.0 < t_off < FALLING_RENT.period

    rep = record(FALLING_RENT, tables, NEVER_DRY)
    adaptive = run(rep, "adaptive")
    assert adaptive.buy_charged[0]
    assert 0.0 <= adaptive.rent_cost[0] - b <= r2 * DT
    assert adaptive.total_cost != cost(rep, "doa")
    for s in range(1, N_STEPS + 1):
        rep = record(FALLING_RENT, tables, s)
        # as for DOA, the OFF falls up to one slot after t_off
        assert cost(rep, "adaptive") <= 2.0 * opt(rep) + r2 * DT


def test_adaptive_goes_off_at_once_when_its_rent_falls_as_it_is_due_off():
    # b/r0 = 0.415 s, so the cell is due OFF in the slot that starts at
    # 0.5 s, where its rent falls. Re-derived there, its OFF time moves back
    # before that slot, and the cell goes OFF in it, as doa's does
    cfg = replace(FALLING_RENT, alpha_b=0.005)
    tables = one_cell_tables(cfg, (1e-15, 1e-13))
    (tag,) = tables[0].tags
    assert 3 * DT < tag.buy / tag.rent < 4 * DT
    rep = record(cfg, tables, NEVER_DRY)
    adaptive = run(rep, "adaptive")
    assert adaptive.on_time[0] == 4 * DT and adaptive.buy_charged[0]
    assert adaptive.total_cost == cost(rep, "doa")
