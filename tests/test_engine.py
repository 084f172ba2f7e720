import math
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sbsched import engine, network, pricing
from sbsched.energy import EnergyState
from sbsched.engine import (
    PeriodResult,
    Replication,
    ScenarioConfig,
    SeedStack,
    build_topology,
    run_horizon,
    run_period,
)
from sbsched.cli import PRESETS
from sbsched.network import dbm_to_watts
from sbsched.oracle import RecordedScenario, evaluate_schedules
from sbsched.schedulers import DoaPolicy, FixedPolicy, RoaPolicy, make_policy
from test_oracle import table_subsets

# run_horizon seeds found by direct search: these place at least one SBS
# where it serves UEs at the period start
SEED_ONE_USED = 2
SEED_TWO_USED = 11


def horizon(cfg, policy, trace_rows=None):
    """A run of `policy` on the record drawn from `cfg.seed`."""
    return run_horizon(Replication.draw(cfg, cfg.seed), make_policy(policy), trace_rows)


def setup_period(seed=SEED_ONE_USED, n_sbs=6, n_ue=30, **over):
    """Topology, energy, zero-harvest trace for a direct run_period call."""
    cfg = ScenarioConfig(n_sbs=n_sbs, n_ue=n_ue, seed=seed, **over)
    ss = np.random.SeedSequence(seed)
    topo_ss, _, policy_ss = ss.spawn(3)
    topo = build_topology(cfg, np.random.default_rng(topo_ss))
    energy = EnergyState.fresh(cfg.n_sbs, cfg.initial_energy, cfg.capacity)
    rngs = [np.random.default_rng(s) for s in policy_ss.spawn(cfg.n_sbs)]
    trace = np.zeros((cfg.n_steps, cfg.n_sbs))
    return cfg, topo, energy, rngs, trace


def table_for(cfg, topo):
    return pricing.OnSetTable(topo, cfg.weights, cfg.q, cfg.file_bits, cfg.period)


def frozen_rents(cfg, topo):
    """The period-start rent of each served cell, by 0-based SBS index."""
    return {tag.sbs - 1: tag.rent for tag in table_for(cfg, topo).tags}


class TestConfig:
    def test_dt_must_divide_period(self):
        with pytest.raises(ValueError):
            ScenarioConfig(period=10.0, dt=0.3)

    def test_a_period_must_hold_a_slot(self):
        # period / dt rounds to 0 within the divisibility tolerance
        with pytest.raises(ValueError, match="at least one slot"):
            ScenarioConfig(period=1e-10, dt=1.0)
        assert ScenarioConfig(period=0.5, dt=0.5).n_steps == 1

    def test_defaults_are_consistent(self):
        cfg = ScenarioConfig()
        assert cfg.n_steps == 100
        assert cfg.weights.alpha_b == 0.05

    def test_invalid_price_mode(self):
        with pytest.raises(ValueError):
            ScenarioConfig(price_mode="oracle")

    def test_q_validated(self):
        for q in (1.5, -1.0, math.nan):
            with pytest.raises(ValueError, match="q must lie"):
                ScenarioConfig(q=q)
        assert ScenarioConfig(q=0.0).q == 0.0 and ScenarioConfig(q=1.0).q == 1.0

    def test_cost_weights_validated(self):
        for over in (dict(alpha_b=1.5), dict(alpha_d=-1.0), dict(alpha_p=-0.1),
                     dict(alpha_d=math.nan)):
            with pytest.raises(ValueError):
                ScenarioConfig(**over)
        assert ScenarioConfig(alpha_b=1.0, alpha_d=0.0).weights.alpha_b == 1.0

    def test_harvest_parameters_validated(self):
        for over in (dict(harvest_rate=-1.0), dict(harvest_rate=math.nan),
                     dict(harvest_quantum=-0.2), dict(harvest_quantum=math.nan)):
            with pytest.raises(ValueError, match="harvest rate and quantum"):
                ScenarioConfig(**over)
        cfg = ScenarioConfig(harvest_rate=0.0, harvest_quantum=0.0)
        assert cfg.harvest.rate == 0.0 and cfg.harvest.quantum == 0.0

    def test_node_counts_validated(self):
        for over in (dict(n_ue=0), dict(n_ue=-3), dict(n_sbs=-1)):
            with pytest.raises(ValueError, match="n_ue >= 1"):
                ScenarioConfig(**over)
        for over in (dict(sbs_max_users=0), dict(mbs_max_users=0)):
            with pytest.raises(ValueError, match="max_users"):
                ScenarioConfig(**over)
        assert ScenarioConfig(n_ue=1, n_sbs=0, sbs_max_users=1).n_ue == 1

    def test_tx_schedule_times_must_strictly_increase(self):
        for sched in (((5.0, dbm_to_watts(29.0)), (1.0, dbm_to_watts(20.0))),
                      ((1.0, dbm_to_watts(29.0)), (1.0, dbm_to_watts(20.0)))):
            with pytest.raises(ValueError, match="strictly increase"):
                ScenarioConfig(sbs_tx_schedule=sched)

    def test_tx_schedule_times_must_lie_in_the_period(self):
        for when in (-0.5, 10.0, math.nan):
            with pytest.raises(ValueError, match="period"):
                ScenarioConfig(sbs_tx_schedule=((when, dbm_to_watts(23.0)),))

    def test_tx_schedule_power_must_not_exceed_operational_power(self):
        for watts in (50.0, 0.0, -1.0):
            with pytest.raises(ValueError, match="sbs_op_power"):
                ScenarioConfig(sbs_tx_schedule=((0.0, watts),))

    def test_theorem_demo_schedule_is_accepted(self):
        sched = PRESETS["theorem-demo"].base.sbs_tx_schedule
        assert len(ScenarioConfig(sbs_tx_schedule=sched).sbs_tx_schedule) == 4


class TestArrayRecords:
    def test_equality_of_array_holding_records_is_identity(self):
        # the generated `==` would compare ndarray fields and raise
        # "truth value of an array ... is ambiguous" for multi-cell records
        cfg, topo, energy, rngs, trace = setup_period()
        sigma = np.ones(topo.n_bs, dtype=bool)
        pairs = [
            (EnergyState.fresh(3, 60.0, 100.0), EnergyState(np.full(3, 60.0), 100.0)),
            (network.associate(sigma, topo), network.associate(sigma, topo)),
        ]
        res, _ = run_period(cfg, topo, energy, RoaPolicy(), rngs, trace)
        pairs.append((res, replace(res)))
        for a, b in pairs:
            assert (a == b) is False and (a != b) is True
            assert (a == a) is True


class TestRunPeriodExtremes:
    def test_immediate_off_pays_buy_only(self):
        cfg, topo, energy, rngs, trace = setup_period()
        res, _ = run_period(cfg, topo, energy, FixedPolicy(0.0), rngs, trace)
        used = np.flatnonzero(res.used)
        assert used.size == 1
        i = used[0]
        assert res.on_time[i] == 0.0
        assert res.buy_charged[i]
        assert res.rent_cost[i] == 0.0
        assert res.total_cost == pytest.approx(res.buy_price[i], rel=1e-12)

    def test_never_off_pays_rent_for_full_period(self):
        cfg, topo, energy, rngs, trace = setup_period(price_mode="frozen",
                                                      initial_energy=95.0)
        rent = frozen_rents(cfg, topo)
        res, _ = run_period(cfg, topo, energy, FixedPolicy(cfg.period), rngs,
                            trace)
        i = int(np.flatnonzero(res.used)[0])
        assert res.on_time[i] == pytest.approx(cfg.period)
        assert not res.buy_charged[i]
        assert np.all(np.isnan(res.depleted_at))
        assert res.total_cost == pytest.approx(rent[i] * cfg.period,
                                               rel=1e-12)

    def test_depletion_cuts_rent_without_buy(self):
        # zero harvest, battery funds 20 slots (plus half a slot of slack to
        # stay clear of the strict-inequality boundary) at the frozen draw
        cfg, topo, energy0, rngs, trace = setup_period(price_mode="frozen")
        rent = frozen_rents(cfg, topo)
        all_on = network.associate(np.ones(topo.n_bs, dtype=bool), topo)
        i = int(np.flatnonzero(
            [all_on.n_members(j) > 0 for j in range(1, topo.n_bs)])[0])
        cell = topo.bs[i + 1]  # its power draw, the model's formula in plain floats
        psi = (all_on.n_members(i + 1) / cell.max_users * (1.0 - cfg.q) * cell.op_power_max
               + cfg.q * cell.op_power_max)
        energy = EnergyState.fresh(cfg.n_sbs, psi * cfg.dt * 20.5,
                                   cfg.capacity)
        res, _ = run_period(cfg, topo, energy, FixedPolicy(cfg.period), rngs,
                            trace)
        assert res.on_time[i] == pytest.approx(20 * cfg.dt)
        assert res.depleted_at[i] == pytest.approx(20 * cfg.dt)
        assert not res.buy_charged[i]
        assert res.rent_cost[i] == pytest.approx(rent[i] * 20 * cfg.dt,
                                                 rel=1e-12)

    def test_unused_cells_stay_off_at_zero_cost(self):
        cfg, topo, energy, rngs, trace = setup_period()
        res, _ = run_period(cfg, topo, energy, FixedPolicy(cfg.period), rngs,
                            trace)
        for i in np.flatnonzero(~res.used):
            assert res.on_time[i] == 0.0
            assert res.rent_cost[i] == 0.0
            assert not res.buy_charged[i]
            assert res.energy_consumed[i] == 0.0


class TestOracleConsistency:
    def test_engine_cost_matches_schedule_evaluator(self):
        # same topology, prices, harvest trace: a fixed schedule must cost
        # the same through the engine and the offline evaluator
        for seed in (SEED_ONE_USED, SEED_TWO_USED):
            for t_fix, e0 in ((3.0, 60.0), (10.0, 5.0), (7.0, 12.0)):
                cfg, topo, _, rngs, _ = setup_period(seed=seed)
                rng = np.random.default_rng(99)
                trace = rng.poisson(
                    cfg.harvest_rate * cfg.dt, size=(cfg.n_steps, cfg.n_sbs)
                ) * cfg.harvest_quantum
                energy = EnergyState.fresh(cfg.n_sbs, e0, cfg.capacity)
                res, _ = run_period(cfg, topo, energy, FixedPolicy(t_fix),
                                    rngs, trace)
                tables = table_subsets(table_for(cfg, topo))
                k_off = int(round(t_fix / cfg.dt))
                off_idx = np.full((1, tables.used.size), k_off)
                cost = evaluate_schedules(
                    tables, trace[:, tables.used - 1], off_idx, e0,
                    cfg.capacity, cfg.dt, cfg.n_steps,
                )[0]
                assert res.total_cost == pytest.approx(cost, abs=1e-12)


class TestRunHorizon:
    def test_deterministic(self):
        cfg = ScenarioConfig(seed=SEED_ONE_USED)
        rows_a, rows_b = [], []
        res_a = horizon(cfg, "roa", trace_rows=rows_a)
        res_b = horizon(cfg, "roa", trace_rows=rows_b)
        assert rows_a == rows_b
        for a, b in zip(res_a, res_b):
            assert a.to_dict() == b.to_dict()

    def test_period_count_and_indices(self):
        cfg = ScenarioConfig(seed=SEED_ONE_USED, horizon_periods=3)
        res = horizon(cfg, "roa")
        assert [r.period_index for r in res] == [0, 1, 2]

    def test_energy_carries_across_periods_within_bounds(self):
        cfg = ScenarioConfig(seed=SEED_ONE_USED, horizon_periods=2)
        rows = []
        horizon(cfg, "doa", trace_rows=rows)
        stored = np.array([r[3] for r in rows])
        assert np.all(stored >= 0.0) and np.all(stored <= cfg.capacity)
        times = sorted({r[0] for r in rows})
        assert times[0] == 0.0 and times[-1] == pytest.approx(19.9)

    def test_depletion_flag_resets_each_period(self):
        # tiny battery with real harvesting: depleted in period 1 does not
        # preclude being ON in period 2
        cfg = ScenarioConfig(seed=SEED_ONE_USED, initial_energy=2.0,
                             horizon_periods=2)
        res = horizon(cfg, "fixed:10")
        i = int(np.flatnonzero(res[0].used)[0])
        assert not np.isnan(res[0].depleted_at[i])
        assert res[1].on_time[i] > 0.0

    def test_seed_as_seedsequence(self):
        cfg = ScenarioConfig(seed=SEED_ONE_USED)
        a = run_horizon(Replication.draw(cfg, np.random.SeedSequence(SEED_ONE_USED)),
                        RoaPolicy())
        b = horizon(cfg, "roa")
        assert a[0].to_dict() == b[0].to_dict()

    def test_runs_on_a_drawn_replication(self):
        cfg = ScenarioConfig(seed=SEED_ONE_USED)
        rep = Replication.draw(cfg, cfg.seed)
        assert rep.topo.n_sbs == cfg.n_sbs and len(rep.harvest) == cfg.horizon_periods
        res = run_horizon(rep, RoaPolicy())
        assert [r.period_index for r in res] == list(range(cfg.horizon_periods))
        for r, trace in zip(res, rep.harvest, strict=True):
            assert np.array_equal(r.energy_harvested, trace.sum(axis=0))

    def test_policies_sharing_a_record_see_fresh_policy_streams(self):
        # each run on a shared record gives what it gives on a fresh one,
        # whatever ran on the record before it
        cfg = ScenarioConfig(seed=SEED_TWO_USED, n_sbs=6)
        shared = Replication.draw(cfg, cfg.seed)
        for policy in ("roa", "doa", "roa"):
            got = run_horizon(shared, make_policy(policy))
            want = run_horizon(Replication.draw(cfg, cfg.seed), make_policy(policy))
            assert [r.to_dict() for r in got] == [r.to_dict() for r in want]
            assert any(r.switch_count.any() for r in got)

    @pytest.mark.parametrize("price_mode", ["live", "frozen"])
    @pytest.mark.parametrize("sched", [(), ((0.0, dbm_to_watts(20.0)),
                                           (2.5, dbm_to_watts(26.0)),
                                           (6.0, dbm_to_watts(23.0)))])
    def test_a_shared_record_runs_each_policy_as_a_fresh_one(self, price_mode, sched):
        # what a record computes once for all its runs must not carry one
        # run's state into the next, nor differ from what `run_period`
        # computes without a record: field for field, bit for bit, and every
        # trace row of both periods, idle cells included
        cfg = ScenarioConfig(seed=4, n_sbs=8, n_ue=40, area=(1000.0, 1000.0),
                             initial_energy=20.0, alpha_b=0.3, harvest_rate=5.0,
                             price_mode=price_mode, sbs_tx_schedule=sched)
        shared = Replication.draw(cfg, cfg.seed)
        dry = set()
        for policy in ("roa", "threshold:30", "doa", "roa"):
            runs = []
            for rep in (shared, Replication.draw(cfg, cfg.seed)):
                rows = []
                runs.append((run_horizon(rep, make_policy(policy), trace_rows=rows), rows))
            # without a record: the policy seeds as `spawn` makes them
            rep = Replication.draw(cfg, cfg.seed)
            rngs = [np.random.default_rng(s) for s in rep.policy_ss.spawn(cfg.n_sbs)]
            energy = EnergyState.fresh(cfg.n_sbs, cfg.initial_energy, cfg.capacity)
            chained, rows, chain_policy = [], [], make_policy(policy)
            for p, trace in enumerate(rep.harvest):
                res, energy = run_period(cfg, rep.topo, energy, chain_policy, rngs,
                                         trace, p, rows)
                chained.append(res)
            runs.append((chained, rows))
            (got, got_rows), *others = runs
            for want, want_rows in others:
                for a, b in zip(got, want, strict=True):
                    for f in fields(PeriodResult):
                        x, y = getattr(a, f.name), getattr(b, f.name)
                        if isinstance(x, np.ndarray):
                            assert x.dtype == y.dtype and np.array_equal(
                                x, y, equal_nan=x.dtype.kind == "f"), f.name
                        else:
                            assert x == y, f.name
                assert got_rows == want_rows
            assert len(got_rows) == 2 * cfg.n_steps * cfg.n_sbs
            if any(not np.isnan(res.depleted_at).all() for res in got):
                dry.add(policy)
        assert 0 < len(shared.tables[0].tags) < cfg.n_sbs
        assert dry == {"roa", "doa"}

    def test_policies_and_periods_of_a_record_share_its_bookkeeping(self, monkeypatch):
        # 3 policies x 2 periods: the harvest's bookkeeping is done once, over
        # the record's whole horizon, in its chunk's one stacked pass, and a
        # generator is seeded for each served cell only, and only for roa,
        # the one policy that draws
        cfg = ScenarioConfig(seed=SEED_TWO_USED, horizon_periods=2)
        rep = Replication.draw(cfg, cfg.seed)
        books, seeds = [], []
        real_book, real_generator = engine._harvest_book, engine._generator

        def counting_book(*args):
            books.append(args)
            return real_book(*args)

        def counting_generator(words):
            seeds.append(words)
            return real_generator(words)

        monkeypatch.setattr(engine, "_harvest_book", counting_book)
        monkeypatch.setattr(engine, "_generator", counting_generator)
        runs = [run_horizon(rep, make_policy(policy)) for policy in ("roa", "doa", "fixed:7")]
        served = [tag.sbs - 1 for tag in rep.tables[0].tags]
        assert len(served) == 2 and len(books) == 1
        stored, arrivals, periods, _ = books[0]
        assert arrivals.shape == (1, 2 * cfg.n_steps, cfg.n_sbs) and periods == 2
        assert all(trace.base is arrivals.base for trace in rep.harvest)
        children = [engine._child(rep.policy_ss, i).generate_state(4, np.uint64).tolist()
                    for i in served]
        assert seeds == children
        book = rep.book
        assert not (book.idle_stored.flags.writeable or book.harvested.flags.writeable)
        assert book.idle_stored.shape == (2 * cfg.n_steps + 1, cfg.n_sbs)
        assert [len(col) for col in book.arrivals] == [2 * cfg.n_steps] * 2
        # every period of every run reads its row of the record's totals
        for results in runs:
            assert len(results) == 2
            for p, res in enumerate(results):
                assert np.shares_memory(res.energy_harvested, book.harvested)
                assert res.energy_harvested.tobytes() == book.harvested[p].tobytes()
                assert res.to_dict()["energy_harvested"] == book.sums[p]

    def test_the_policy_seed_is_built_on_first_use(self):
        # the record of `draw` builds it on first use, as `spawn` would make
        # it; a run seeds its generators from words its chunk hashed, so no
        # run builds it
        cfg = ScenarioConfig(seed=SEED_TWO_USED)
        rep = Replication.draw(cfg, cfg.seed)
        for policy in ("doa", "fixed:7", "threshold:50"):
            run_horizon(rep, make_policy(policy))
        assert "policy_ss" not in vars(rep)
        run_horizon(rep, make_policy("roa"))
        assert "policy_ss" not in vars(rep)
        want = np.random.SeedSequence(cfg.seed).spawn(3)[2]
        assert rep.policy_ss.spawn_key == want.spawn_key
        assert rep.policy_ss.generate_state(4).tolist() == want.generate_state(4).tolist()

    def test_records_of_one_scenario_share_its_slot_grid(self):
        cfg = ScenarioConfig(sbs_tx_schedule=((2.5, dbm_to_watts(20.0)),))
        a, b = Replication.draw(cfg, 1), Replication.draw(cfg, 2)
        assert a.plan.grid is b.plan.grid and a.plan.epoch_at is b.plan.epoch_at
        assert a.plan.epoch_at == {0: 0, 25: 1} and len(a.plan.grid) == cfg.n_steps

    def test_policy_generators_are_the_spawned_children(self):
        cfg = ScenarioConfig(seed=SEED_TWO_USED)
        rep = Replication.draw(cfg, cfg.seed)
        ss = rep.policy_ss
        children = np.random.SeedSequence(
            ss.entropy, spawn_key=ss.spawn_key, pool_size=ss.pool_size).spawn(cfg.n_sbs)
        rngs = rep.policy_rngs()
        served = [tag.sbs - 1 for tag in rep.tables[0].tags]
        assert [i for i, g in enumerate(rngs) if g is not None] == served
        for i in served:
            assert np.array_equal(rngs[i].random(4), np.random.default_rng(children[i]).random(4))

    @pytest.mark.parametrize("seed", [7, [7, 3]])
    def test_replication_seeds_are_the_spawned_children(self, seed):
        # built directly, each child equals the one a parent's spawn(3)
        # makes, also below a spawned parent
        nested = np.random.SeedSequence(seed).spawn(2)[1]
        cases = [(seed, np.random.SeedSequence(seed).spawn(3)),
                 (np.random.SeedSequence(seed), np.random.SeedSequence(seed).spawn(3)),
                 (nested, np.random.SeedSequence(seed).spawn(2)[1].spawn(3))]
        for parent, spawned in cases:
            built = [engine._child(parent, i) for i in range(3)]
            for got, want in zip(built, spawned, strict=True):
                assert got.entropy == want.entropy
                assert got.spawn_key == want.spawn_key
                assert got.pool_size == want.pool_size
                assert got.generate_state(4).tolist() == want.generate_state(4).tolist()

    @pytest.mark.parametrize("seed", [0, 7, 2**32 + 5, 2**128 + 1])
    def test_a_seed_stack_seeds_as_numpy_does(self, seed):
        # attempts of one and two words after a seed of one, two or five, and
        # after that seed and a sweep's value index of one or two words: five
        # and more words overflow the pool of four, and those of each count
        # are hashed as their own group
        attempts = [1, 2, 3, 2**32 - 1, 2**32, 2**32 + 1]
        for lead in (seed, [seed, 0], [seed, 3], [seed, 2**32 + 7]):
            stack = SeedStack(lead, attempts)
            for i, a in enumerate(attempts):
                entropy = [*(lead if isinstance(lead, list) else [lead]), a]
                for name, child in zip(engine.STREAMS,
                                       np.random.SeedSequence(entropy).spawn(3), strict=True):
                    want = np.random.default_rng(child)
                    got = stack.rng(i, name)
                    assert got.bit_generator.state == want.bit_generator.state
                    for draw in (lambda g: g.random(5), lambda g: g.poisson(3.0, 5),
                                 lambda g: g.uniform(2.0, 7.0, 5)):
                        assert draw(got).tobytes() == draw(want).tobytes()

    def test_run_period_on_a_record_takes_its_own_trace(self):
        cfg = ScenarioConfig(seed=SEED_TWO_USED)
        rep = Replication.draw(cfg, cfg.seed)
        energy = EnergyState.fresh(cfg.n_sbs, cfg.initial_energy, cfg.capacity)
        with pytest.raises(ValueError, match="record"):
            run_period(cfg, rep.topo, energy, DoaPolicy(), rep.policy_rngs(),
                       rep.harvest[1], 0, record=rep)

    def test_run_period_on_a_record_takes_its_own_scenario(self):
        # a record drawn for one scenario must not run under another, nor
        # under an equal copy that nothing ties to the record
        cfg = ScenarioConfig(seed=SEED_ONE_USED)
        rep = Replication.draw(cfg, cfg.seed)
        for other in (replace(cfg),
                      replace(cfg, dt=0.2, capacity=200.0, initial_energy=150.0)):
            energy = EnergyState.fresh(other.n_sbs, other.initial_energy, other.capacity)
            with pytest.raises(ValueError, match="record"):
                run_period(other, rep.topo, energy, DoaPolicy(), rep.policy_rngs(),
                           rep.harvest[0], 0, record=rep)

    def test_each_record_runs_under_its_own_price_mode(self):
        # one seed drawn live and frozen: the frozen run's cost splits per
        # cell at the period-start rents, the live run's does not
        live = ScenarioConfig(seed=SEED_ONE_USED)
        for cfg in (live, replace(live, price_mode="frozen")):
            rep = Replication.draw(cfg, cfg.seed)
            rent = frozen_rents(cfg, rep.topo)
            for res in run_horizon(rep, DoaPolicy()):
                split = sum(rent[i] * res.on_time[i] + res.buy_price[i] * res.buy_charged[i]
                            for i in rent)
                if cfg.price_mode == "frozen":
                    assert res.total_cost == pytest.approx(split, abs=1e-9)
                else:
                    assert abs(res.total_cost - split) > 1e-3

    def test_record_harvest_is_read_only(self):
        rep = Replication.draw(ScenarioConfig(seed=SEED_ONE_USED), 0)
        with pytest.raises(ValueError):
            rep.harvest[0][0, 0] = 1.0


class TestIdleRecord:
    # 3 UEs on 2000 m, all of them on the macro cell: no SBS serves a UE
    CFG = ScenarioConfig(n_sbs=3, n_ue=3, area=(2000.0, 2000.0), seed=0,
                         initial_energy=90.0)
    POLICIES = ("roa", "fixed:3", "threshold:50")

    def draw(self):
        rep = Replication.draw(self.CFG, self.CFG.seed)
        assert not rep.plan.cells
        return rep

    def test_policies_share_its_periods(self, monkeypatch):
        rep = self.draw()
        books, made = [], []
        real_book, real_idle = engine._harvest_book, engine._idle_period

        def counting_book(*args):
            books.append(args)
            return real_book(*args)

        def counting_idle(period_index, *args):
            made.append(period_index)
            return real_idle(period_index, *args)

        monkeypatch.setattr(engine, "_harvest_book", counting_book)
        monkeypatch.setattr(engine, "_idle_period", counting_idle)
        runs = [run_horizon(rep, make_policy(p)) for p in self.POLICIES]
        # the periods are read from one bookkeeping pass over the horizon, the
        # record's chunk's, and made once, for the first policy, and every
        # later run returns those very results
        assert len(books) == 1 and books[0][1].shape[:2] == (1, 2 * self.CFG.n_steps)
        assert made == list(range(self.CFG.horizon_periods))
        for results in runs[1:]:
            assert all(a is b for a, b in zip(results, runs[0], strict=True))
        # each policy alone on a record of its own gives the same rows
        for policy, results in zip(self.POLICIES, runs):
            alone = run_horizon(self.draw(), make_policy(policy))
            assert [r.to_dict() for r in results] == [r.to_dict() for r in alone]
        for res in runs[0]:
            for f in fields(res):
                value = getattr(res, f.name)
                if isinstance(value, np.ndarray):
                    assert not value.flags.writeable, f.name
        # a row is computed once, and each caller gets a copy of its own
        row = runs[1][0].to_dict()
        row["total_cost"] = -1.0
        assert runs[2][0].to_dict()["total_cost"] == 0.0

    def test_an_untraced_run_makes_no_table_or_entry(self, monkeypatch):
        # nor the record's topology rows: its plan is its scenario's one
        # idle plan, shared by every idle record
        made = []
        real_table, real_entry = pricing.OnSetTable.__init__, pricing.OnSetEntry.__init__

        def table(self, *args):
            made.append("table")
            real_table(self, *args)

        def entry(self, *args):
            made.append("entry")
            real_entry(self, *args)

        monkeypatch.setattr(pricing.OnSetTable, "__init__", table)
        monkeypatch.setattr(pricing.OnSetEntry, "__init__", entry)
        rep, other = self.draw(), self.draw()
        for policy in self.POLICIES:
            run_horizon(rep, make_policy(policy))
        assert made == []
        assert not {"tables", "topo", "harvest"} & set(vars(rep))
        assert rep.plan is other.plan is self.CFG._idle_plan
        assert not (rep.plan.buy.flags.writeable or rep.plan.used.flags.writeable)
        # a traced run builds them: one table per epoch, and its entries
        rows = []
        run_horizon(rep, make_policy("doa"), trace_rows=rows)
        assert made.count("table") == len(rep.tables) == 1 and "entry" in made
        assert len(rows) == self.CFG.horizon_periods * self.CFG.n_steps * self.CFG.n_sbs

    @pytest.mark.parametrize("horizon_periods", [1, 2, 3])
    @pytest.mark.parametrize("price_mode", ["live", "frozen"])
    @pytest.mark.parametrize("sched", [(), ((2.5, dbm_to_watts(20.0)),
                                           (6.0, dbm_to_watts(30.0)))])
    @pytest.mark.parametrize("n_sbs", [3, 0])
    def test_untraced_periods_equal_a_traced_run(self, horizon_periods, price_mode,
                                                 sched, n_sbs):
        # the arrival totals alone give what the slot walk of a traced run
        # gives: every array to the bit, every row, and the storage each
        # period leaves to the next
        cfg = replace(self.CFG, horizon_periods=horizon_periods, price_mode=price_mode,
                      sbs_tx_schedule=sched, n_sbs=n_sbs)
        untraced, traced = Replication.draw(cfg, 5), Replication.draw(cfg, 5)
        assert not untraced.plan.cells
        got = run_horizon(untraced, make_policy("roa"))
        rows = []
        want = run_horizon(traced, make_policy("roa"), trace_rows=rows)
        assert len(rows) == horizon_periods * cfg.n_steps * n_sbs
        for a, b in zip(got, want, strict=True):
            for f in fields(PeriodResult):
                x, y = getattr(a, f.name), getattr(b, f.name)
                if isinstance(x, np.ndarray):
                    assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), f.name
                else:
                    assert x == y, f.name
            assert a.to_dict() == b.to_dict()
        energies = []
        for trace_rows in (None, []):
            energy = EnergyState.fresh(cfg.n_sbs, cfg.initial_energy, cfg.capacity)
            for p, trace in enumerate(traced.harvest):
                _, energy = run_period(cfg, traced.topo, energy, DoaPolicy(), [None] * n_sbs,
                                       trace, p, trace_rows, record=traced)
                energies.append(energy.stored.tobytes())
        assert energies[:horizon_periods] == energies[horizon_periods:]

    def test_an_untraced_run_walks_no_slot_and_resets_no_policy(self, monkeypatch):
        rep = self.draw()
        calls = []
        # a slot walk looks up the entry of its ON set in the record's tables
        monkeypatch.setattr(pricing.OnSetTable, "__getitem__", lambda *a: calls.append("entry"))
        monkeypatch.setattr(RoaPolicy, "reset", lambda *a: calls.append("reset"))
        monkeypatch.setattr(np.random, "default_rng", lambda *a: calls.append("rng"))
        results = run_horizon(rep, RoaPolicy())
        assert len(results) == self.CFG.horizon_periods and calls == []
        # nor is the policies' seed built
        assert "policy_ss" not in vars(rep)

    def test_a_traced_run_still_writes_every_slot(self):
        rep = self.draw()
        run_horizon(rep, make_policy("roa"))
        rows = []
        run_horizon(rep, make_policy("doa"), trace_rows=rows)
        cfg = self.CFG
        assert len(rows) == cfg.horizon_periods * cfg.n_steps * cfg.n_sbs
        fresh = []
        run_horizon(self.draw(), make_policy("doa"), trace_rows=fresh)
        assert rows == fresh


ZERO_SIGNS = st.sampled_from([0.0, -0.0, 0.1, 0.2, 0.7, 1.0, 3.0])


@settings(max_examples=80, deadline=None, derandomize=True)
@given(periods=st.integers(1, 3), n_steps=st.integers(1, 5), n_sbs=st.integers(0, 10),
       cap=st.sampled_from([0.0, 1.0, 2.5, 100.0]), data=st.data())
def test_a_horizons_bookkeeping_is_its_periods_alone(periods, n_steps, n_sbs, cap, data):
    # one pass over the horizon has the bits of each period's own, begun
    # where the period before left the cells that stay OFF: a running sum
    # clamped at the capacity, also where it crosses a period boundary, and
    # arrivals of -0.0, whose column sums to +0.0
    grids = st.lists(st.lists(ZERO_SIGNS, min_size=n_sbs, max_size=n_sbs),
                     min_size=n_steps, max_size=n_steps)
    harvest = tuple(np.array(data.draw(grids), dtype=float).reshape(n_steps, n_sbs)
                    for _ in range(periods))
    stored = np.array(data.draw(st.lists(st.sampled_from([0.0, -0.0, 0.5 * cap, cap]),
                                         min_size=n_sbs, max_size=n_sbs)), dtype=float)
    cells = sorted(data.draw(st.sets(st.integers(0, n_sbs - 1)))) if n_sbs else []
    book = engine._harvest_book(stored, np.concatenate(harvest)[None], periods, cap).row(0, cells)
    start = stored
    for p, trace in enumerate(harvest):
        totals = np.cumsum(trace, axis=0)[-1] + 0.0
        idle = np.minimum(np.cumsum(np.vstack((start, trace)), axis=0), cap)
        assert book.harvested[p].tobytes() == totals.tobytes()
        assert repr(book.sums[p]) == repr(float(totals.sum()))
        assert book.idle_stored[p * n_steps:(p + 1) * n_steps + 1].tobytes() == idle.tobytes()
        start = idle[-1]
    arrivals = np.concatenate(harvest)[:, cells].T
    assert np.array(book.arrivals, dtype=float).reshape(arrivals.shape).tobytes() == \
        arrivals.tobytes()
    assert not (book.harvested.flags.writeable or book.idle_stored.flags.writeable)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(records=st.integers(1, 4), periods=st.integers(1, 3), n_steps=st.integers(1, 5),
       n_sbs=st.integers(0, 10), cap=st.sampled_from([0.0, 1.0, 2.5, 100.0]), data=st.data())
def test_a_stacks_bookkeeping_is_each_records_alone(records, periods, n_steps, n_sbs, cap,
                                                    data):
    # a chunk's one pass over its records' arrivals gives each record the
    # bits of its pass alone, a stack of one
    values = st.lists(ZERO_SIGNS, min_size=periods * n_steps * n_sbs,
                      max_size=periods * n_steps * n_sbs)
    arrivals = np.array([data.draw(values) for _ in range(records)],
                        dtype=float).reshape(records, periods * n_steps, n_sbs)
    stored = np.full(n_sbs, 0.5 * cap)
    cells = sorted(data.draw(st.sets(st.integers(0, n_sbs - 1)))) if n_sbs else []
    stack = engine._harvest_book(stored, arrivals.copy(), periods, cap)
    assert not stack.arrivals.flags.writeable
    for k in range(records):
        got = stack.row(k, cells)
        want = engine._harvest_book(stored, arrivals[k][None].copy(), periods, cap).row(0, cells)
        assert got.harvested.tobytes() == want.harvested.tobytes()
        assert repr(got.sums) == repr(want.sums)
        assert got.idle_stored.tobytes() == want.idle_stored.tobytes()
        assert repr(got.arrivals) == repr(want.arrivals)


def test_a_negative_arrival_in_any_period_is_rejected():
    harvest = np.array([[[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, -0.25]]])
    with pytest.raises(ValueError, match="non-negative"):
        engine._harvest_book(np.zeros(2), harvest, 2, 1.0)


@settings(max_examples=40, deadline=None, derandomize=True)
# 8 served cells of 16 (seeds 3 and 4)
@example(n_sbs=16, n_ue=80, side=2000.0, price_mode="live", policy="threshold:50",
         traced=False, seed=3)
@example(n_sbs=16, n_ue=80, side=2000.0, price_mode="frozen", policy="roa", traced=True,
         seed=4)
@example(n_sbs=16, n_ue=80, side=2000.0, price_mode="live", policy="fixed:3", traced=False,
         seed=4)
@given(
    n_sbs=st.integers(0, 16),
    n_ue=st.integers(1, 80),
    side=st.sampled_from([300.0, 1000.0, 2000.0]),
    price_mode=st.sampled_from(["live", "frozen"]),
    policy=st.sampled_from(["roa", "doa", "fixed:3", "threshold:50", "adaptive"]),
    traced=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_a_results_row_is_its_reductions(n_sbs, n_ue, side, price_mode, policy, traced,
                                        seed):
    # the row a period primes (`_row`'s cache, set by `run_period` from its
    # stacked sums and by the idle period) has the bits of `_row`'s own
    # reductions of the result's arrays, served or idle, traced or not; 8 or
    # more served cells sum pairwise
    cfg = ScenarioConfig(n_sbs=n_sbs, n_ue=n_ue, area=(side, side), price_mode=price_mode,
                         initial_energy=20.0, seed=seed)
    rows = [] if traced else None
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # overloaded cells
        results = run_horizon(Replication.draw(cfg, seed), make_policy(policy), rows)
    for res in results:
        assert "_row" in vars(res)
        assert repr(res.to_dict()) == repr(PeriodResult._row.func(res))


class TestCostOverflow:
    def test_a_period_total_that_overflows_raises(self):
        # each of 4 served cells' rent is finite, and their sum is not
        cfg = ScenarioConfig(n_sbs=16, n_ue=80, area=(2000.0, 2000.0), seed=1,
                             initial_energy=100.0, alpha_p=1e306)
        rep = Replication.draw(cfg, np.random.SeedSequence([1, 0, 0]))
        rents = [tag.rent * cfg.period for tag in rep.tables[0].tags]
        assert len(rents) == 4 and all(map(math.isfinite, rents))
        with np.errstate(over="ignore"):
            assert sum(rents) == math.inf
            with pytest.raises(engine.CostOverflowError, match=r"period 0: .* \(inf\)"):
                run_horizon(rep, make_policy("fixed:10"))


class TestInvariants:
    @pytest.mark.parametrize("policy", ["doa", "roa"])
    def test_at_most_one_switch_per_cell(self, policy):
        for seed in range(12):
            cfg = ScenarioConfig(seed=seed)
            for res in horizon(cfg, policy):
                assert np.all(res.switch_count <= 1)

    def test_on_or_bought_before_depletion(self):
        # sigma + x >= 1 while energy remains: an OFF cell that has not
        # depleted must have paid the buy price
        for seed in range(12):
            cfg = ScenarioConfig(seed=seed)
            for res in horizon(cfg, "roa"):
                for i in np.flatnonzero(res.used):
                    if np.isnan(res.depleted_at[i]) and res.on_time[i] < cfg.period:
                        assert res.buy_charged[i]

    def test_frozen_mode_cost_decomposes_per_cell(self):
        # total = sum_j rent_j * on_time_j + buy_j * x_j, each term isolated
        for seed in (SEED_ONE_USED, SEED_TWO_USED, 5, 12):
            cfg = ScenarioConfig(seed=seed, price_mode="frozen")
            results = horizon(cfg, "roa")
            rent = frozen_rents(cfg, Replication.draw(cfg, cfg.seed).topo)
            for res in results:
                assert sorted(rent) == np.flatnonzero(res.used).tolist()
                expected = sum(
                    rent[i] * res.on_time[i]
                    + res.buy_price[i] * res.buy_charged[i]
                    for i in rent
                )
                assert res.total_cost == pytest.approx(expected, abs=1e-9)

    def test_instantaneous_rent_matches_frozen_tag_at_start(self):
        cfg, topo, _, _, _ = setup_period(seed=SEED_TWO_USED)
        tags = table_for(cfg, topo).tags
        live = table_for(cfg, topo)[np.ones(topo.n_bs, dtype=bool)].rent
        assert tags
        for tag in tags:
            assert live[tag.sbs] == tag.rent

    def test_trace_row_schema(self):
        cfg = ScenarioConfig(seed=SEED_ONE_USED, horizon_periods=1)
        rows = []
        horizon(cfg, "roa", trace_rows=rows)
        assert len(rows) == cfg.n_steps * cfg.n_sbs
        t0, j, sigma, stored, assoc, rent = rows[0]
        assert t0 == 0.0 and j == 1 and sigma in (0, 1)
        assert 0.0 <= stored <= cfg.capacity and assoc >= 0 and rent >= 0.0

    def test_per_sbs_cost_sums_to_total(self):
        cfg = ScenarioConfig(seed=SEED_TWO_USED)
        for res in horizon(cfg, "doa"):
            per_sbs_cost = res.rent_cost + res.buy_price * res.buy_charged
            assert per_sbs_cost.sum() == pytest.approx(res.total_cost, rel=1e-12)


class TestTxPowerSchedule:
    def test_power_boost_lowers_live_rent(self):
        from sbsched.network import dbm_to_watts
        sched = ((0.0, dbm_to_watts(23.0)), (5.0, dbm_to_watts(29.0)))
        # placement seed 6 keeps the single cell serving UEs all period
        cfg = ScenarioConfig(seed=6, n_sbs=1, n_ue=10,
                             sbs_tx_schedule=sched, horizon_periods=1)
        rows = []
        res = run_horizon(Replication.draw(cfg, cfg.seed), FixedPolicy(10.0), trace_rows=rows)
        assert res[0].used[0]
        rents = {r[0]: r[5] for r in rows if r[1] == 1}
        # faster downlink before the boost time: constant, then a step down
        assert rents[0.0] == rents[4.9]
        assert rents[5.0] == rents[9.9]
        assert rents[5.0] < rents[4.9]


class TestAdaptiveStart:
    @pytest.mark.parametrize("seed", [5, 11, 12, 38])
    def test_live_rent_below_the_tag_at_start_does_not_abort(self, seed):
        # these seeds start with a live rent below the frozen tag at t = 0
        for res in horizon(ScenarioConfig(seed=seed), "adaptive"):
            assert np.all(res.switch_count <= 1)
            assert math.isfinite(res.total_cost)


# default-size cells on 1000 m with 2 or 3 served cells at the all-ON start,
# found by direct search over build_topology seeds
MULTI_CELL = dict(n_sbs=4, n_ue=30, area=(1000.0, 1000.0))
MULTI_CELL_SEEDS = (1, 2, 3, 7, 11, 13, 16, 18, 19, 21, 22, 27, 28, 30, 34, 35)


CHURN_LIKE = dict(n_sbs=16, n_ue=80, area=(2000.0, 2000.0), initial_energy=20.0,
                  alpha_b=0.3)
POLICY_ORDERS = (("roa", "doa", "threshold:30", "adaptive"),
                 ("threshold:30", "adaptive", "doa", "roa"),
                 ("adaptive", "roa", "threshold:30", "doa"))


class TestOnSetTable:
    @pytest.mark.parametrize("mode", ["live", "frozen"])
    def test_sharing_a_table_does_not_depend_on_the_policy_order(self, mode):
        # policies run in any order on fresh copies of one record give the
        # same rows, and make the same entries, whose served-cell lists do
        # not depend on the policy that made the entry first
        cfg = ScenarioConfig(seed=5, price_mode=mode, **CHURN_LIKE)
        runs = []
        for order in POLICY_ORDERS:
            rep = Replication.draw(cfg, cfg.seed)
            rows = {p: repr([r.to_dict() for r in run_horizon(rep, make_policy(p))])
                    for p in order}
            ids = rep.plan.ids
            entries = {key: (entry.served(ids), entry.rent_values, entry.psi_values,
                             entry.on_delay, entry.state.serving.tobytes())
                       for key, entry in rep.tables[0]._entries.items()}
            runs.append((rows, entries))
        assert len(runs[0][0]["threshold:30"]) and len(runs[0][1]) > 20  # the ON set churns
        for rows, entries in runs[1:]:
            assert rows == runs[0][0]
            assert entries == runs[0][1]
        for served, rent, psi, *_ in runs[0][1].values():
            assert served == ([psi[j - 1] for j in ids], [rent[j] for j in ids])

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        topo_seed=st.sampled_from(MULTI_CELL_SEEDS),
        harvest_seed=st.integers(0, 2**32 - 1),
        e0=st.floats(0.0, 100.0),
        harvest_rate=st.floats(0.0, 20.0),
        spec=st.one_of(st.sampled_from(["doa", "roa"]),
                       st.floats(0.0, 10.0).map(lambda t: f"fixed:{t!r}")),
    )
    def test_engine_matches_oracle_on_multi_cell_depletion(
            self, topo_seed, harvest_seed, e0, harvest_rate, spec):
        cfg = ScenarioConfig(seed=topo_seed, initial_energy=e0, **MULTI_CELL)
        topo = build_topology(cfg, np.random.default_rng(topo_seed))
        trace = cfg.harvest_quantum * np.random.default_rng(harvest_seed).poisson(
            harvest_rate * cfg.dt, size=(cfg.n_steps, cfg.n_sbs))
        rngs = [np.random.default_rng([harvest_seed, j]) for j in range(cfg.n_sbs)]
        policy = make_policy(spec)
        energy = EnergyState.fresh(cfg.n_sbs, e0, cfg.capacity)
        res, _ = run_period(cfg, topo, energy, policy, rngs, trace)

        tables = table_subsets(table_for(cfg, topo))
        assert tables.used.size in (2, 3)
        # the first slot at which the engine's policy wants the cell OFF
        off_idx = [[next((k for k in range(cfg.n_steps)
                          if not k * cfg.dt < policy.off_times[j]), cfg.n_steps)
                    for j in tables.used]]
        cost = evaluate_schedules(tables, trace[:, tables.used - 1], off_idx, e0,
                                  cfg.capacity, cfg.dt, cfg.n_steps)[0]
        assert math.isclose(res.total_cost, cost, rel_tol=1e-12)

    @pytest.mark.parametrize("policy", ["roa", "adaptive"])
    @pytest.mark.parametrize("sched", [(), ((2.5, dbm_to_watts(25.0)),
                                            (6.0, dbm_to_watts(20.0)))])
    def test_associates_each_on_set_once_per_epoch(self, monkeypatch, policy, sched):
        # a buy price of half a period's MBS cost keeps a served cell ON past
        # 6 s, so the loop reaches every epoch before all are OFF
        cfg, topo, energy, rngs, _ = setup_period(
            seed=SEED_TWO_USED, sbs_tx_schedule=sched,
            initial_energy=40.0, alpha_b=0.5)
        trace = cfg.harvest_quantum * np.random.default_rng(0).poisson(
            cfg.harvest_rate * cfg.dt, size=(cfg.n_steps, cfg.n_sbs))
        seen = []
        real = network.associate

        def counting(sigma, topo):
            seen.append((topo, bytes(sigma)))
            return real(sigma, topo)

        monkeypatch.setattr(network, "associate", counting)
        res, _ = run_period(cfg, topo, energy, make_policy(policy), rngs, trace)
        assert res.switch_count.sum() > 0
        keys = [(id(tp), s) for tp, s in seen]
        assert len(keys) == len(set(keys))
        assert len({id(tp) for tp, _ in seen}) == 1 + len(sched)

    @pytest.mark.parametrize("policy", ["roa", "threshold:50"])
    def test_periods_of_a_horizon_share_the_tables(self, monkeypatch, policy):
        # both periods read the all-ON state and the period-start ON set, so
        # each epoch's table must be built once for the whole horizon; as
        # above, a served cell stays ON past 6 s
        sched = ((2.5, dbm_to_watts(25.0)), (6.0, dbm_to_watts(20.0)))
        cfg = ScenarioConfig(seed=SEED_TWO_USED, horizon_periods=2,
                             sbs_tx_schedule=sched, initial_energy=40.0, alpha_b=0.5)
        seen = []
        real = network.associate

        def counting(sigma, topo):
            seen.append((topo, bytes(sigma)))
            return real(sigma, topo)

        monkeypatch.setattr(network, "associate", counting)
        results = horizon(cfg, policy)
        assert all(res.switch_count.sum() > 0 for res in results)
        keys = [(id(tp), s) for tp, s in seen]
        assert len(keys) == len(set(keys))
        assert len({id(tp) for tp, _ in seen}) == 1 + len(sched)

    def test_policies_and_periods_of_a_record_freeze_the_tags_once(self, monkeypatch):
        # two periods for each of three policies read one table's tags: each
        # served cell is priced once for the record, when it is drawn
        cfg = ScenarioConfig(seed=SEED_TWO_USED, horizon_periods=2)
        calls = []
        real = pricing.buy_price

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(pricing, "buy_price", counting)
        rep = Replication.draw(cfg, cfg.seed)
        for policy in ("roa", "doa", "fixed:7"):
            results = run_horizon(rep, make_policy(policy))
            assert len(results) == 2
        assert len(rep.tables[0].tags) == 2
        # both cells in one call
        assert [np.size(args[0]) for args in calls] == [2]
