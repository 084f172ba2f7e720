"""The oracle's prefix-tree walk against the per-row loop it replaced.

`reference_evaluate_stepwise` and `reference_depletion_possible` are the
earlier `oracle._evaluate_stepwise` and `oracle._depletion_possible` bodies,
kept here as test-only references: numpy arrays over every row, one slot at a
time. The property test requires the current functions to return exactly the
same bytes and the same path decision.
"""
import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sbsched import oracle
from sbsched.analysis import empirical_cr_study
from sbsched.engine import Replication, ScenarioConfig
from sbsched.oracle import (
    SubsetTables,
    _depletion_possible,
    _evaluate_no_depletion,
    _evaluate_stepwise,
    all_combinations,
)


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


# Where one cell is left ON, the walk finishes its subtree in one loop. The
# pinned examples reach its ends and entries: a sibling already dry when it
# starts (seed 3), a start at the last slot (m = 1, and seed 1), a forced OFF
# at a last requested index below n_steps, and a lone cell that runs dry.
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

    for name, rows in row_sets(m, n_steps, rng).items():
        got = _evaluate_stepwise(tables, trace_used, rows, *args)
        want = reference_evaluate_stepwise(tables, trace_used, rows, *args)
        assert got.dtype == want.dtype and got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), name
        # a row costs the same bits alone as in a batch, which is what lets
        # the study read its realized cost from the grid
        alone = [_evaluate_stepwise(tables, trace_used, r[None, :], *args)[0]
                 for r in rows[:5]]
        assert np.array(alone).tobytes() == got[:5].tobytes(), name


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
            tables = oracle.build_tables(table)
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
            checked += 1
            dry += runs_dry(tables, trace_used, *args)
    assert dry >= 2


def test_study_evaluates_each_served_attempt_once(monkeypatch):
    served = []
    evaluated = []
    real_build, real_eval = oracle.build_tables, oracle.evaluate_schedules

    def build(*args):
        tables = real_build(*args)
        served.append(tables.used.size > 0)
        return tables

    def evaluate(tables, trace_used, off_idx, *rest):
        evaluated.append(len(off_idx))
        return real_eval(tables, trace_used, off_idx, *rest)

    cfg = ScenarioConfig(n_sbs=2, n_ue=40, area=(1000.0, 1000.0), dt=0.2,
                         initial_energy=30.0, seed=3)
    monkeypatch.setattr(oracle, "build_tables", build)
    monkeypatch.setattr(oracle, "evaluate_schedules", evaluate)
    report = empirical_cr_study(cfg, 12)
    assert report.ratios.size == 12
    assert len(evaluated) == sum(served) >= 12
    # every call is the whole grid; none is the policy's single row
    assert min(evaluated) > 1
    monkeypatch.undo()
    assert np.array_equal(empirical_cr_study(cfg, 12).ratios, report.ratios)
