"""The paper's competitive ratios, checked on policies run through `run_horizon`.

Most tests run policies on a one-cell record built from arrays: one SBS
serving one UE on a hand-built `Topology`, a zero-harvest trace, and 8 W at
dt = 0.125 s, so a slot ON costs exactly 1 J and E0 = s J makes the cell run
dry at slot s. A record's optimum comes from engine runs of that record, not
from a formula: the cheaper of never switching OFF (`fixed:` past the
period) and switching OFF at once (`fixed:0`). The last two check the bounds
on drawn records and ratio studies, against the oracle's optimum.
"""
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sbsched.analysis import DegenerateStudyError, empirical_cr_study
from sbsched.engine import Replication, ScenarioConfig, epoch_tables, run_horizon
from sbsched.network import BsParams, Topology, dbm_to_watts
from sbsched.oracle import _depletion_possible, build_tables, optimum_and_row
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


# drawn scenarios of a few slots: one SBS, or up to three for a ratio study,
# among 1-40 UEs, with drawn weights and harvest. A buy weight of at most 0.5
# puts b/r inside the period in most records
SLOTS = st.sampled_from([(1.0, 0.1), (2.0, 0.25), (5.0, 0.5), (0.5, 0.5)])
WEIGHT = st.floats(0.01, 1.0)
DRAWN = dict(n_ue=st.integers(1, 40), side=st.sampled_from([500.0, 1000.0, 2000.0]),
             slots=SLOTS, alpha_d=WEIGHT, alpha_p=WEIGHT, alpha_b=st.floats(0.0, 0.5),
             harvest_rate=st.floats(0.0, 20.0), seed=st.integers(0, 2**32 - 1))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(**DRAWN)
def test_doa_on_drawn_one_cell_records_is_within_twice_the_oracles_optimum(
        n_ue, side, slots, alpha_d, alpha_p, alpha_b, harvest_rate, seed):
    # the paper's bound where its preconditions hold: one served cell, frozen
    # prices, and a battery that no schedule can run dry (twice the most a
    # period ON can draw). With one SBS the oracle's live rent of the cell's
    # ON set is the frozen tag's. DOA's OFF falls at the first slot start
    # not before b/r, so up to one slot late: r * dt is the slot grid's slack
    period, dt = slots
    cfg = ScenarioConfig(period=period, dt=dt, horizon_periods=1, n_sbs=1, n_ue=n_ue,
                         area=(side, side), initial_energy=2 * 10.0 * period, capacity=200.0,
                         harvest_rate=harvest_rate, alpha_d=alpha_d, alpha_p=alpha_p,
                         alpha_b=alpha_b, price_mode="frozen", seed=seed)
    # the first of up to 20 records whose cell serves UEs
    reps = (Replication.draw(cfg, [seed, k]) for k in range(20))
    rep = next((rep for rep in reps if rep.plan.ids), None)
    if rep is None:
        return
    (tag,) = rep.plan.tags
    r, b, e0, cap, n = tag.rent, tag.buy, cfg.initial_energy, cfg.capacity, cfg.n_steps
    (tables,) = build_tables(rep.topo.take(np.newaxis), [rep.plan.tags], cfg.weights, cfg.q,
                             cfg.file_bits, dt)
    assert tables.rent_sum.tolist() == [0.0, r]
    harvest = rep.harvest[0][:, rep.plan.cells]
    assert not _depletion_possible(tables, harvest, e0, cap, dt, n)
    opt, _ = optimum_and_row(tables, harvest, [n], e0, cap, dt, n)
    (res,) = run_horizon(rep, make_policy("doa"))
    assert np.isnan(res.depleted_at).all()
    assert opt > 0.0 and res.total_cost <= (2.0 * opt + r * dt) * (1.0 + 1e-12)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(n_sbs=st.integers(1, 3), e0=st.sampled_from([5.0, 20.0, 60.0]), **DRAWN)
def test_every_ratio_of_a_drawn_study_is_at_least_one(
        n_sbs, e0, n_ue, side, slots, alpha_d, alpha_p, alpha_b, harvest_rate, seed):
    # the policy's schedule is a row of the oracle's grid, costed with the
    # same slot step, so no ratio is below 1, whether batteries run dry or not
    period, dt = slots
    cfg = ScenarioConfig(period=period, dt=dt, n_sbs=n_sbs, n_ue=n_ue, area=(side, side),
                         initial_energy=e0, harvest_rate=harvest_rate, alpha_d=alpha_d,
                         alpha_p=alpha_p, alpha_b=alpha_b, seed=seed)
    try:
        report = empirical_cr_study(cfg, 3)
    except DegenerateStudyError:
        return  # too few attempts with a served cell and a positive optimum
    assert report.ratios.size == 3 and (report.ratios >= 1.0).all()
