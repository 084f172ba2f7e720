import numpy as np
import pytest

from sbsched import oracle, pricing
from sbsched.network import place_stack
from sbsched.oracle import (
    BudgetError,
    RecordedScenario,
    all_combinations,
    build_tables,
    evaluate_schedules,
    offline_exhaustive,
    _evaluate_no_depletion,
    _evaluate_stepwise,
)
from sbsched.pricing import CostWeights

PERIOD = 10.0
DT = 0.2
N_STEPS = 50


def scenario_with_used(seed, n_sbs=3, n_ue=15, initial=60.0, trace=None,
                       weights=None):
    """Recorded scenario from a fixed placement; trace defaults to zero."""
    rng = np.random.default_rng(seed)
    topo = place_stack((500.0, 500.0), n_sbs, n_ue, [rng]).take(0)
    if trace is None:
        trace = np.zeros((N_STEPS, n_sbs))
    return RecordedScenario(
        topo=topo, weights=weights or CostWeights(), q=0.9, file_bits=1e5,
        period=PERIOD, dt=DT, trace=trace, initial_energy=initial,
        capacity=100.0,
    )


def table_subsets(table, dt=DT):
    """`build_tables` of one table's served cells: a stack of one."""
    (tables,) = build_tables(table.topo.take(np.newaxis), [table.tags], table.w,
                             table.q, table.file_bits, dt)
    return tables


def tables_for(scn):
    return table_subsets(pricing.OnSetTable(
        scn.topo, scn.weights, scn.q, scn.file_bits, scn.period))


# placements found by direct search over placement seeds
SEED_M0, SEED_M1, SEED_M2 = 0, 21, 1


class TestRecordedTrace:
    @pytest.mark.parametrize("initial", [100.0, 5.0])
    def test_too_few_rows_rejected(self, initial):
        # 10 rows on a 50-slot period: with 100 J the closed form would not
        # read the trace, and with 5 J every branch of the walk runs dry
        # before row 10, so neither search would notice the missing rows
        with pytest.raises(ValueError, match="shape"):
            scenario_with_used(SEED_M2, initial=initial, trace=np.zeros((10, 3)))

    def test_extra_column_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            scenario_with_used(SEED_M2, trace=np.zeros((N_STEPS, 4)))

    @pytest.mark.parametrize("bad", [-0.2, np.nan])
    def test_negative_or_nan_joules_rejected(self, bad):
        trace = np.zeros((N_STEPS, 3))
        trace[7, 1] = bad
        with pytest.raises(ValueError, match="non-negative"):
            scenario_with_used(SEED_M2, trace=trace)


class TestCombinations:
    def test_count_three_cells(self):
        combos = all_combinations(3, N_STEPS)
        assert combos.shape == ((N_STEPS + 1) ** 3, 3)
        assert combos.shape[0] == 132651

    def test_lexicographic_order(self):
        combos = all_combinations(2, 3)
        as_tuples = [tuple(row) for row in combos]
        assert as_tuples == sorted(as_tuples)
        assert as_tuples[0] == (0, 0) and as_tuples[-1] == (3, 3)


class TestOfflineExhaustive:
    def test_no_used_cells_costs_nothing(self):
        scn = scenario_with_used(SEED_M0)
        off_times, cost = offline_exhaustive(scn, DT)
        assert cost == 0.0
        assert np.all(off_times == 0.0)

    def test_budget_refusal_reports_required(self):
        scn = scenario_with_used(SEED_M2)
        with pytest.raises(BudgetError) as exc:
            offline_exhaustive(scn, DT, budget=10)
        assert exc.value.required == (N_STEPS + 1) ** 2
        assert exc.value.budget == 10

    def test_grid_must_match_recorded_resolution(self):
        scn = scenario_with_used(SEED_M1)
        with pytest.raises(ValueError):
            offline_exhaustive(scn, 0.1)

    def test_single_cell_no_depletion_closed_form(self):
        # ample energy, zero harvest irrelevant: optimum is min(rent*T, buy)
        scn = scenario_with_used(SEED_M1, initial=100.0)
        tables = tables_for(scn)
        assert tables.used.size == 1
        rent_on = tables.rent[1, 0]
        buy = tables.buys[0]
        _, cost = offline_exhaustive(scn, DT)
        assert cost == pytest.approx(min(rent_on * PERIOD, buy), rel=1e-12)

    def test_zero_weights_tie_breaks_to_smallest_off_times(self):
        scn = scenario_with_used(SEED_M2, weights=CostWeights(0.0, 0.0, 0.0))
        off_times, cost = offline_exhaustive(scn, DT)
        assert cost == 0.0
        assert np.all(off_times == 0.0)

    def test_never_beaten_by_any_explicit_schedule(self):
        scn = scenario_with_used(SEED_M2, initial=30.0,
                                 trace=np.full((N_STEPS, 3), 0.4))
        tables = tables_for(scn)
        m = tables.used.size
        assert m == 2
        _, opt = offline_exhaustive(scn, DT)
        rng = np.random.default_rng(7)
        combos = rng.integers(0, N_STEPS + 1, size=(64, m))
        costs = evaluate_schedules(
            tables, scn.trace[:, tables.used - 1], combos,
            scn.initial_energy, scn.capacity, DT, N_STEPS,
        )
        assert np.all(costs >= opt - 1e-12)


class TestEvaluationPaths:
    def test_fast_path_matches_stepwise_without_depletion(self):
        scn = scenario_with_used(SEED_M2, initial=100.0)
        tables = tables_for(scn)
        trace_used = np.full((N_STEPS, tables.used.size), 1.0)
        rng = np.random.default_rng(11)
        combos = rng.integers(0, N_STEPS + 1, size=(200, tables.used.size))
        fast = _evaluate_no_depletion(tables, combos, DT, N_STEPS)
        slow = _evaluate_stepwise(tables, trace_used, combos, 1e6, 1e9, DT,
                                  N_STEPS)
        assert np.allclose(fast, slow, rtol=0, atol=1e-9)

    def test_depletion_truncates_rent_and_charges_no_buy(self):
        # zero harvest, tiny battery: the never-OFF schedule pays rent only
        # for the slots the battery can fund
        scn = scenario_with_used(SEED_M1, initial=5.0)
        tables = tables_for(scn)
        psi_on = tables.psi[1, 0]
        rent_on = tables.rent[1, 0]
        funded = int(scn.initial_energy / (psi_on * DT))
        assert 0 < funded < N_STEPS
        cost = evaluate_schedules(
            tables, scn.trace[:, tables.used - 1],
            np.array([[N_STEPS]]), scn.initial_energy, scn.capacity, DT,
            N_STEPS,
        )[0]
        assert cost == pytest.approx(rent_on * funded * DT, rel=1e-12)

    def test_voluntary_off_same_slot_still_buys(self):
        # schedule OFF exactly at the depletion slot: buy is charged
        scn = scenario_with_used(SEED_M1, initial=5.0)
        tables = tables_for(scn)
        psi_on = tables.psi[1, 0]
        rent_on = tables.rent[1, 0]
        funded = int(scn.initial_energy / (psi_on * DT))
        cost = evaluate_schedules(
            tables, scn.trace[:, tables.used - 1],
            np.array([[funded]]), scn.initial_energy, scn.capacity, DT,
            N_STEPS,
        )[0]
        assert cost == pytest.approx(
            rent_on * funded * DT + tables.buys[0], rel=1e-12
        )

    def test_harvest_extends_on_time(self):
        scn_dry = scenario_with_used(SEED_M1, initial=5.0)
        tables = tables_for(scn_dry)
        never = np.array([[N_STEPS]])
        dry = evaluate_schedules(
            tables, scn_dry.trace[:, tables.used - 1], never, 5.0, 100.0, DT,
            N_STEPS,
        )[0]
        wet_trace = np.full((N_STEPS, 3), 0.6)
        wet = evaluate_schedules(
            tables, wet_trace[:, tables.used - 1], never, 5.0, 100.0, DT,
            N_STEPS,
        )[0]
        assert wet > dry


class TestOptimalCost:
    def test_closed_form_checks_depletion_once(self, monkeypatch):
        scn = scenario_with_used(SEED_M2)
        tables = tables_for(scn)
        trace_used = np.full((N_STEPS, tables.used.size), 1.0)
        args = (1e6, 1e9, DT, N_STEPS)  # no cell can run dry
        calls = []
        real = oracle._depletion_possible

        def counted(*a):
            calls.append(real(*a))
            return calls[-1]

        monkeypatch.setattr(oracle, "_depletion_possible", counted)
        got, row_cost = oracle.optimum_and_row(tables, trace_used, [7, 3], *args)
        assert calls == [False]
        grid = np.maximum(all_combinations(tables.used.size, N_STEPS), 1)
        assert got == _evaluate_no_depletion(tables, grid, DT, N_STEPS).min()
        assert row_cost == _evaluate_no_depletion(tables, np.array([[7, 3]]), DT, N_STEPS)[0]

    def test_stepwise_sets_up_one_slot_step(self, monkeypatch):
        # the search and the policy's row share one depletion check and one
        # slot step
        scn = scenario_with_used(SEED_M2, initial=5.0)
        tables = tables_for(scn)
        trace_used = np.full((N_STEPS, tables.used.size), 0.01)
        args = (5.0, 100.0, DT, N_STEPS)
        calls = {"_depletion_possible": 0, "_slot_step": 0}
        for name in calls:
            def counted(*a, _real=getattr(oracle, name), _name=name):
                calls[_name] += 1
                return _real(*a)

            monkeypatch.setattr(oracle, name, counted)
        got, row_cost = oracle.optimum_and_row(tables, trace_used, [40, 2], *args)
        assert calls == {"_depletion_possible": 1, "_slot_step": 1}
        monkeypatch.undo()
        grid = np.maximum(all_combinations(tables.used.size, N_STEPS), 1)
        costs = evaluate_schedules(tables, trace_used, grid, *args)
        assert np.float64(got).tobytes() == costs.min().tobytes()
        row = evaluate_schedules(tables, trace_used, [[40, 2]], *args)[0]
        assert np.float64(row_cost).tobytes() == row.tobytes()
        assert oracle._depletion_possible(tables, trace_used, *args)

    @pytest.mark.parametrize("row", [[0, 3], [3, 51], [3], [1, 2, 3]])
    def test_row_off_the_study_grid_rejected(self, row):
        scn = scenario_with_used(SEED_M2)
        tables = tables_for(scn)
        trace_used = np.zeros((N_STEPS, tables.used.size))
        with pytest.raises(ValueError, match="the row must hold 2 OFF indices in 1..50"):
            oracle.optimum_and_row(tables, trace_used, row, 60.0, 100.0, DT, N_STEPS)


class TestTables:
    def test_off_rows_are_zero(self):
        scn = scenario_with_used(SEED_M2)
        tables = tables_for(scn)
        assert tables.rent[0].sum() == 0.0 and tables.psi[0].sum() == 0.0
        for i in range(tables.used.size):
            on_mask = 1 << i
            assert tables.rent[on_mask, i] > 0.0
            assert tables.psi[on_mask, i] > 0.0

    @pytest.mark.parametrize("n_sbs, seed", [(2, 1), (3, 28)])
    def test_one_entry_per_served_on_set(self, monkeypatch, n_sbs, seed):
        # every cell is served, so the tags' all-ON set is the full subset;
        # the all-OFF subset's rows are zero and need no entry: one stacked
        # pass prices each other subset once
        scn = scenario_with_used(seed, n_sbs=n_sbs)
        table = pricing.OnSetTable(scn.topo, scn.weights, scn.q, scn.file_bits,
                                   scn.period)
        assert len(table.tags) == n_sbs
        priced = []
        real = pricing.price_on_sets

        def price(state, *args):
            priced.append(state.sigma)
            return real(state, *args)

        monkeypatch.setattr(pricing, "price_on_sets", price)
        tables = table_subsets(table)
        assert tables.used.size == n_sbs
        (sigma,) = priced
        assert len({row.tobytes() for row in sigma}) == sigma.shape[0] == 2 ** n_sbs - 1
        assert sigma[:, 0].all() and sigma[:, 1:].any(axis=1).all()

    def test_psi_max_dominates(self):
        scn = scenario_with_used(SEED_M2)
        tables = tables_for(scn)
        assert np.all(tables.psi <= tables.psi_max[None, :] + 1e-12)
