"""The oracle's row evaluator and its bound-pruned search for the least
cost, against a vectorized reference.

`reference_evaluate_stepwise` and `reference_depletion_possible` are earlier
`oracle._evaluate_stepwise` and `oracle._depletion_possible` bodies, kept here
as test-only references: numpy arrays over every row, one slot at a time. The
current evaluator walks each row along its own slots in plain floats, with the
slot step that `oracle.optimum_and_row` shares. The property test requires it
to return exactly the same bytes and the same path decision, and
`optimum_and_row` the same bytes as the minimum over the study's grid and as
a row of it.
"""
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sbsched import oracle, pricing
from sbsched.analysis import empirical_cr_study
from sbsched.engine import Replication, ScenarioConfig
from sbsched.network import place_nodes
from sbsched.oracle import (
    SubsetTables,
    _depletion_possible,
    _evaluate_no_depletion,
    _evaluate_stepwise,
    all_combinations,
    optimum_and_row,
)
from sbsched.pricing import CostWeights
from test_oracle import table_subsets


def reference_depletion_possible(tables, trace_used, e0, cap, dt, n_steps):
    e_lb = np.full(tables.used.size, float(e0))
    worst = tables.psi_max * dt
    for k in range(n_steps):
        h = trace_used[k]
        if np.any(e_lb + h < worst):
            return True
        e_lb = np.minimum(e_lb + h - worst, cap)
    return False


def reference_evaluate_stepwise(tables, trace_used, off_idx, e0, cap, dt, n_steps):
    c, m = off_idx.shape
    bits = (1 << np.arange(m)).astype(np.int64)
    on = np.ones((c, m), dtype=bool)
    depleted = np.zeros((c, m), dtype=bool)
    bought = np.zeros((c, m), dtype=bool)
    e = np.full((c, m), float(e0))
    rent_cost = np.zeros(c)
    for k in range(n_steps):
        vol_off = on & (k >= off_idx)
        bought |= vol_off
        on &= ~vol_off
        h = trace_used[k]
        while True:
            sidx = on @ bits
            psi = tables.psi[sidx]
            dep_now = on & (e + h[None, :] < psi * dt)
            if not dep_now.any():
                break
            depleted |= dep_now
            on &= ~dep_now
        rent_cost += tables.rent[sidx].sum(axis=1) * dt
        e = np.minimum(e + h[None, :] - psi * dt * on, cap)
    buy_cost = (bought * tables.buys[None, :]).sum(axis=1)
    return rent_cost + buy_cost


DT = 0.25
PSI_LO, PSI_HI = 1.0, 10.0  # watts while ON, per cell and ON set
H_MAX = 0.1  # joules harvested per slot at most, unless the mode is "mixed"


def runs_dry(tables, trace_used, e0, cap, dt, n_steps):
    """Does keeping every cell ON all period deplete one of them?"""
    never_off = np.full((1, tables.used.size), n_steps)
    stepwise = reference_evaluate_stepwise(tables, trace_used, never_off, e0, cap, dt,
                                           n_steps)
    closed = _evaluate_no_depletion(tables, never_off, dt, n_steps)
    return not np.isclose(stepwise[0], closed[0], rtol=1e-9, atol=0.0)


def synthetic_tables(m, rng, snap):
    """Rates of every ON subset of m cells, zero for the OFF cells."""
    on = (np.arange(1 << m)[:, None] >> np.arange(m)) & 1 == 1
    rent = np.where(on, snap(rng.uniform(0.01, 1.0, (1 << m, m))), 0.0)
    psi = np.where(on, snap(rng.uniform(PSI_LO, PSI_HI, (1 << m, m))), 0.0)
    return SubsetTables(
        used=np.arange(1, m + 1), rent=rent, psi=psi, rent_sum=rent.sum(axis=1),
        buys=rng.uniform(0.0, 3.0, m), psi_max=psi.max(axis=0),
    )


def row_sets(m, n_steps, rng):
    """The full grid, the study's grid, single and random rows, and the grid
    of a few requested slots per cell."""
    grid = all_combinations(m, n_steps)
    random_rows = rng.integers(-3, n_steps + 4, size=(24, m))
    with_duplicates = np.concatenate([random_rows, random_rows[::3]])[
        rng.permutation(32)]
    # gaps between a cell's requested slots, and a last one before n_steps,
    # so that a cell left alone ON must go OFF inside the period
    sparse = [np.unique(rng.integers(0, n_steps, size=3)) for _ in range(m)]
    return {
        "grid": grid,
        "grid >= 1": np.maximum(grid, 1),
        "one row": rng.integers(0, n_steps + 1, size=(1, m)),
        "one row outside the grid": np.array([[-2] + [n_steps + 5] * (m - 1)]),
        "random rows": with_duplicates,
        "sparse grid": np.stack(np.meshgrid(*sparse, indexing="ij"), -1).reshape(-1, m),
    }


# The pinned examples keep the slot situations of one cell left ON: after its
# sibling ran dry (seed 3), from the last slot on (m = 1, and seed 1), up to an
# OFF index below n_steps, and until it runs dry itself.
@settings(max_examples=80, deadline=None, derandomize=True)
@example(m=3, n_steps=12, seed=0, energy="dry", exact=False, e0_share=1.0, cap_extra=0.0)
@example(m=3, n_steps=12, seed=1, energy="wet", exact=True, e0_share=1.0, cap_extra=0.0)
@example(m=2, n_steps=12, seed=3, energy="mixed", exact=True, e0_share=0.5, cap_extra=0.5)
@example(m=1, n_steps=1, seed=2, energy="dry", exact=False, e0_share=0.0, cap_extra=0.0)
@given(
    m=st.integers(1, 3),
    n_steps=st.integers(1, 12),
    seed=st.integers(0, 2**32 - 1),
    energy=st.sampled_from(["dry", "wet", "mixed"]),
    exact=st.booleans(),
    e0_share=st.floats(0.0, 1.0),
    cap_extra=st.floats(0.0, 2.0),
)
def test_walk_matches_reference_bit_for_bit(m, n_steps, seed, energy, exact, e0_share,
                                            cap_extra):
    # exact: every value a multiple of 1/16, so that stored plus harvested
    # energy often equals the slot's draw exactly
    snap = (lambda x: np.floor(np.multiply(x, 16.0)) / 16.0) if exact else (lambda x: x)
    rng = np.random.default_rng(seed)
    tables = synthetic_tables(m, rng, snap)
    if energy == "dry":
        # an ON cell draws at least PSI_LO*DT - H_MAX a slot more than it
        # harvests, so one that stays ON all period runs dry
        trace_used = rng.uniform(0.0, H_MAX, (n_steps, m))
        e0 = e0_share * (PSI_LO * DT - H_MAX) * n_steps / 2
    elif energy == "wet":
        trace_used = rng.uniform(0.0, H_MAX, (n_steps, m))
        e0 = PSI_HI * DT * n_steps * (1.0 + e0_share)
    else:
        # harvest can outpace the draw, so small batteries fill to the cap
        trace_used = rng.uniform(0.0, PSI_HI * DT, (n_steps, m))
        e0 = e0_share * PSI_HI * DT
    trace_used, e0 = snap(trace_used), float(snap(e0))
    args = (e0, float(snap(e0 + cap_extra)), DT, n_steps)

    possible = _depletion_possible(tables, trace_used, *args)
    assert possible == reference_depletion_possible(tables, trace_used, *args)
    if energy != "mixed":
        assert possible == (energy == "dry") == runs_dry(tables, trace_used, *args)
    assert_optimum_is_the_grid_minimum(tables, trace_used, *args)

    for name, rows in row_sets(m, n_steps, rng).items():
        got = _evaluate_stepwise(tables, trace_used, rows, *args)
        want = reference_evaluate_stepwise(tables, trace_used, rows, *args)
        assert got.dtype == want.dtype and got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), name
        # a row costs the same bits alone as in a batch, on either path,
        # which is what lets the study cost the policy's row alone
        alone = [_evaluate_stepwise(tables, trace_used, r[None, :], *args)[0]
                 for r in rows[:5]]
        assert np.array(alone).tobytes() == got[:5].tobytes(), name
        closed = _evaluate_no_depletion(tables, rows, DT, n_steps)
        alone = [_evaluate_no_depletion(tables, r[None, :], DT, n_steps)[0]
                 for r in rows[:5]]
        assert np.array(alone).tobytes() == closed[:5].tobytes(), name


def assert_optimum_is_the_grid_minimum(tables, trace_used, e0, cap, dt, n_steps,
                                       reference=None):
    """`optimum_and_row` gives the minimum over the study's grid and a row's
    entry in it, to the bit: the reference loop's where a cell can run dry
    (`reference`, if the caller has costed that grid with it already), the
    closed form's where none can. Rows: the grid's first and last, and a few
    drawn from it."""
    grid = np.maximum(all_combinations(tables.used.size, n_steps), 1)
    if _depletion_possible(tables, trace_used, e0, cap, dt, n_steps):
        costs = reference if reference is not None else reference_evaluate_stepwise(
            tables, trace_used, grid, e0, cap, dt, n_steps)
    else:
        costs = _evaluate_no_depletion(tables, grid, dt, n_steps)
    picks = [0, len(grid) - 1] + np.random.default_rng(0).integers(0, len(grid), 3).tolist()
    for i in picks:
        got, row_cost = optimum_and_row(tables, trace_used, grid[i], e0, cap, dt, n_steps)
        assert type(got) is float and type(row_cost) is float
        assert np.float64(got).tobytes() == costs.min().tobytes()
        assert np.float64(row_cost).tobytes() == costs[i].tobytes()


@settings(max_examples=24, deadline=None, derandomize=True)
# the optimum buys 7 and 9 cells, whose pairwise sum is not the cell-order one
@example(m=8, n_steps=2, seed=1, energy="one dry", cheap_buys=True)
@example(m=10, n_steps=2, seed=0, energy="one dry", cheap_buys=True)
@given(
    m=st.integers(8, 10),
    n_steps=st.integers(1, 2),
    seed=st.integers(0, 2**32 - 1),
    energy=st.sampled_from(["dry", "one dry", "wet"]),
    cheap_buys=st.booleans(),
)
def test_many_cells_on_a_short_period(m, n_steps, seed, energy, cheap_buys):
    # 8 or more cells: numpy sums a C-ordered row of buys pairwise, not in
    # cell order, so the search must tabulate them with the evaluator's sum.
    # With "one dry" only cell 0 can run dry: it draws PSI_HI in every set,
    # so it does at slot 1, and the all-ON set's rent is negligible. The
    # others' rent after slot 1 is not, so with buys far below it the
    # optimum sends every other cell OFF at slot 1 and costs almost only
    # their buys, whose last bit the rent does not round away.
    rng = np.random.default_rng(seed)
    tables = synthetic_tables(m, rng, np.asarray)
    if cheap_buys:
        tables = replace(tables, buys=rng.uniform(0.0, 0.01, m))
    trace_used = rng.uniform(0.0, H_MAX, (n_steps, m))
    if energy == "one dry":
        trace_used[:, 1:] += PSI_HI * DT
        psi, rent = tables.psi.copy(), tables.rent.copy()
        psi[1::2, 0] = PSI_HI  # the sets with cell 0 ON
        rent[-1] *= 1e-6
        tables = replace(tables, psi=psi, psi_max=psi.max(axis=0), rent=rent,
                         rent_sum=rent.sum(axis=1))
    # every cell lives through slot 0 unless n_steps is 1 and it may run dry
    e0 = PSI_HI * DT * (n_steps - (energy != "wet"))
    args = (e0, e0 + 1.0, DT, n_steps)
    assert _depletion_possible(tables, trace_used, *args) == (energy != "wet")
    assert_optimum_is_the_grid_minimum(tables, trace_used, *args)
    grid = np.maximum(all_combinations(m, n_steps), 1)
    pick = rng.integers(0, len(grid), 5)
    for name, evaluate in (
            ("stepwise", lambda rows: _evaluate_stepwise(tables, trace_used, rows, *args)),
            ("closed form", lambda rows: _evaluate_no_depletion(tables, rows, DT, n_steps))):
        alone = [evaluate(grid[i][None, :])[0] for i in pick]
        assert np.array(alone).tobytes() == evaluate(grid)[pick].tobytes(), name


@pytest.mark.parametrize("e0, first, n_ties", [(5.0, (3, 3), 2304), (10.0, (0, 0), 1)])
def test_offline_exhaustive_on_a_full_depletion_grid(e0, first, n_ties):
    # 2 served cells with small batteries and a little harvest, costed over
    # the full grid, OFF index 0 included. With 5 J both run dry a few slots
    # in, so every OFF index from then on ties with the best; with 10 J the
    # buys cost less than the rent until then, and OFF at 0 alone is best.
    rng = np.random.default_rng(1)
    topo = place_nodes((500.0, 500.0), 3, 15, rng)
    n_steps = 50
    trace = 0.2 * rng.poisson(0.5, (n_steps, 3)).astype(float)
    scenario = oracle.RecordedScenario(
        topo=topo, weights=CostWeights(), q=0.9, file_bits=1e5, period=10.0, dt=0.2,
        trace=trace, initial_energy=e0, capacity=100.0)
    tables = table_subsets(pricing.OnSetTable(topo, CostWeights(), 0.9, 1e5, 10.0))
    assert tables.used.tolist() == [1, 2]
    trace_used = trace[:, tables.used - 1]
    args = (e0, 100.0, 0.2, n_steps)
    assert _depletion_possible(tables, trace_used, *args)
    grid = all_combinations(2, n_steps)
    want = reference_evaluate_stepwise(tables, trace_used, grid, *args)
    ties = np.flatnonzero(want == want.min())
    # the grid is in lexicographic order, so the first tie is the smallest
    assert ties.size == n_ties and tuple(grid[ties[0]]) == first

    off_times, cost = oracle.offline_exhaustive(scenario, 0.2)
    assert type(cost) is float
    assert np.float64(cost).tobytes() == want.min().tobytes()
    assert off_times.tolist() == [first[0] * 0.2, first[1] * 0.2, 0.0]


def test_empty_batch():
    tables = synthetic_tables(2, np.random.default_rng(0), np.asarray)
    out = _evaluate_stepwise(tables, np.zeros((4, 2)), np.zeros((0, 2), dtype=np.int64),
                             0.0, 1.0, DT, 4)
    assert out.shape == (0,)


def test_recorded_study_grids_match_reference():
    # served replications of a competitive-ratio study on 2 and 3 cells, with
    # 10 J batteries over a 50-slot period: the full grid of the study
    dry = 0
    for n_sbs, n_ue, side, wanted in ((2, 40, 1000.0, 3), (3, 15, 500.0, 1)):
        cfg = ScenarioConfig(n_sbs=n_sbs, n_ue=n_ue, area=(side, side), dt=0.2,
                             initial_energy=10.0, seed=5)
        n_steps, checked, attempt = cfg.n_steps, 0, 0
        while checked < wanted:
            attempt += 1
            rep = Replication.draw(cfg, np.random.SeedSequence([cfg.seed, attempt]))
            trace, table = rep.harvest[0], rep.tables[0]
            tables = table_subsets(table)
            if tables.used.size < n_sbs:
                continue
            trace_used = trace[:, tables.used - 1]
            args = (cfg.initial_energy, cfg.capacity, cfg.dt, n_steps)
            assert _depletion_possible(tables, trace_used, *args) \
                == reference_depletion_possible(tables, trace_used, *args)
            rows = np.maximum(all_combinations(n_sbs, n_steps), 1)
            got = _evaluate_stepwise(tables, trace_used, rows, *args)
            want = reference_evaluate_stepwise(tables, trace_used, rows, *args)
            assert got.tobytes() == want.tobytes()
            assert_optimum_is_the_grid_minimum(tables, trace_used, *args, reference=want)
            checked += 1
            dry += runs_dry(tables, trace_used, *args)
    assert dry >= 2


def test_study_evaluates_each_served_attempt_once(monkeypatch):
    served = 0
    passes = []  # (tables, trace_used, row, rest, (optimum, row cost)) per pass
    real_build, real_pass = oracle.build_tables, oracle.optimum_and_row

    def build(topo, tags, *args):
        nonlocal served
        served += len(tags)
        return real_build(topo, tags, *args)

    def one_pass(tables, trace_used, row, *rest):
        out = real_pass(tables, trace_used, row, *rest)
        passes.append((tables, trace_used, list(row), rest, out))
        return out

    def elsewhere(*args):
        raise AssertionError("the study costs a schedule outside its one pass")

    cfg = ScenarioConfig(n_sbs=2, n_ue=40, area=(1000.0, 1000.0), dt=0.2,
                         initial_energy=30.0, seed=3)
    monkeypatch.setattr(oracle, "build_tables", build)
    monkeypatch.setattr(oracle, "optimum_and_row", one_pass)
    monkeypatch.setattr(oracle, "evaluate_schedules", elsewhere)
    monkeypatch.setattr(oracle, "_evaluate_stepwise", elsewhere)
    report = empirical_cr_study(cfg, 12)
    monkeypatch.undo()
    assert report.ratios.size == 12
    # one pass per served attempt, which is the study's only costing
    assert len(passes) == served >= 12
    accepted = [p for p in passes if p[4][0] > 0.0]
    assert len(accepted) == 12
    # the ratios are the bytes of the full grid's minimum and the policy's
    # row looked up in that grid, recomputed on the same records
    want = []
    n_steps = cfg.n_steps
    for tables, trace_used, row, rest, (opt, realized) in accepted:
        m = tables.used.size
        assert len(row) == m and min(row) >= 1 and max(row) <= n_steps
        grid = np.maximum(all_combinations(m, n_steps), 1)
        costs = oracle.evaluate_schedules(tables, trace_used, grid, *rest)
        assert np.float64(opt).tobytes() == costs.min().tobytes()
        at = np.ravel_multi_index(row, (n_steps + 1,) * m)
        assert np.float64(realized).tobytes() == costs[at].tobytes()
        want.append(float(costs[at]) / float(costs.min()))
    assert np.array(want).tobytes() == report.ratios.tobytes()
    assert any(_depletion_possible(t, tr, *rest) for t, tr, _, rest, _ in accepted)
    assert np.array_equal(empirical_cr_study(cfg, 12).ratios, report.ratios)
