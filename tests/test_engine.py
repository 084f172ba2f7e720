import math
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sbsched import engine, network, pricing
from sbsched.energy import EnergyState
from sbsched.engine import (
    PeriodResult,
    Replication,
    ReplicationSeeds,
    ScenarioConfig,
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

    def test_policies_and_periods_of_a_record_share_the_period_start(self, monkeypatch):
        # 3 policies x 2 periods: the storage of the idle cells is computed
        # once per period, and a generator is seeded for each served cell
        # only, and only for roa, the one policy that draws
        cfg = ScenarioConfig(seed=SEED_TWO_USED, horizon_periods=2)
        rep = Replication.draw(cfg, cfg.seed)
        starts, seeds = [], []
        real_start, real_rng = engine._period_start, np.random.default_rng

        def counting_start(*args):
            starts.append(args)
            return real_start(*args)

        def counting_rng(seed=None):
            seeds.append(seed)
            return real_rng(seed)

        monkeypatch.setattr(engine, "_period_start", counting_start)
        monkeypatch.setattr(np.random, "default_rng", counting_rng)
        for policy in ("roa", "doa", "fixed:7"):
            results = run_horizon(rep, make_policy(policy))
            assert len(results) == 2
        served = [tag.sbs - 1 for tag in rep.tables[0].tags]
        assert len(served) == 2 and len(starts) == 2
        assert [s.spawn_key[-1] for s in seeds] == served
        start = rep.period_start(1)
        assert not (start.idle_stored.flags.writeable or start.harvested.flags.writeable)

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
        # built directly, alone or all three, each child equals the one a
        # parent's spawn(3) makes, also below a spawned parent
        nested = np.random.SeedSequence(seed).spawn(2)[1]
        cases = [(seed, np.random.SeedSequence(seed).spawn(3)),
                 (np.random.SeedSequence(seed), np.random.SeedSequence(seed).spawn(3)),
                 (nested, np.random.SeedSequence(seed).spawn(2)[1].spawn(3))]
        for parent, spawned in cases:
            alone = [ReplicationSeeds.child(parent, name)
                     for name in ("topo", "harvest", "policy")]
            for built in (list(ReplicationSeeds.spawn(parent)), alone):
                for got, want in zip(built, spawned, strict=True):
                    assert got.entropy == want.entropy
                    assert got.spawn_key == want.spawn_key
                    assert got.pool_size == want.pool_size
                    assert got.generate_state(4).tolist() == want.generate_state(4).tolist()

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
        calls = []
        real = engine.run_period

        def counting(*args, **kwargs):
            calls.append(kwargs["period_index"])
            return real(*args, **kwargs)

        monkeypatch.setattr(engine, "run_period", counting)
        runs = [run_horizon(rep, make_policy(p)) for p in self.POLICIES]
        assert calls == list(range(self.CFG.horizon_periods))
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


class TestOnSetTable:
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
        # served cell is priced once for the record
        cfg = ScenarioConfig(seed=SEED_TWO_USED, horizon_periods=2)
        rep = Replication.draw(cfg, cfg.seed)
        calls = []
        real = pricing.buy_price

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(pricing, "buy_price", counting)
        for policy in ("roa", "doa", "fixed:7"):
            results = run_horizon(rep, make_policy(policy))
            assert len(results) == 2
        assert len(rep.tables[0].tags) == 2
        # both cells in one call
        assert [np.size(args[0]) for args in calls] == [2]
