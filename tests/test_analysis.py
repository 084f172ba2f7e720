import csv
import json
import math
from dataclasses import replace

import numpy as np
import pytest

from sbsched.analysis import DegenerateStudyError, RatioReport, empirical_cr_study
from sbsched import analysis, network, oracle
from sbsched.engine import Replication, ScenarioConfig
from sbsched.network import dbm_to_watts
from sbsched.pricing import NonFinitePriceError
from sbsched.schedulers import RoaPolicy
from test_oracle_walk import reference_evaluate_stepwise


class TestRatioReport:
    def test_statistics(self):
        ratios = np.array([1.0, 1.2, 1.4, 2.0])
        rep = RatioReport.from_ratios(ratios)
        assert rep.median == pytest.approx(1.3)
        assert rep.worst == 2.0
        assert rep.mean == pytest.approx(1.4)
        assert rep.ci_halfwidth == pytest.approx(0.5)  # (max-min)/2 for n<100

    def test_gaussian_ci_for_large_n(self):
        rng = np.random.default_rng(3)
        ratios = 1.0 + rng.uniform(size=1000)
        rep = RatioReport.from_ratios(ratios)
        expected = 1.96 * ratios.std(ddof=1) / math.sqrt(1000)
        assert rep.ci_halfwidth == pytest.approx(expected, rel=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            RatioReport.from_ratios(np.array([]))

    def test_save_round_trip(self, tmp_path):
        rep = RatioReport.from_ratios(np.array([1.0, 1.5, 2.0]))
        rep.save(str(tmp_path))
        with open(tmp_path / "ratios.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["replication", "ratio"]
        assert [float(r[1]) for r in rows[1:]] == [1.0, 1.5, 2.0]
        with open(tmp_path / "ratios_summary.json") as fh:
            summary = json.load(fh)
        assert summary["n"] == 3 and summary["worst"] == 2.0


def reference_study(cfg, n_runs):
    """Each attempt the long way: a full one-period `Replication.draw`,
    accepted on non-empty tags and a positive optimum, the least cost over
    the study's whole grid, and the policy's row costed alone by
    `evaluate_schedules`. Returns the accepted attempts and their ratios."""
    study_cfg = replace(cfg, horizon_periods=1)
    n_steps, dt = cfg.n_steps, cfg.dt
    accepted, ratios = [], []
    attempt = 0
    while len(ratios) < n_runs:
        attempt += 1
        rep = Replication.draw(study_cfg, np.random.SeedSequence([cfg.seed, attempt]))
        table = rep.tables[0]
        if not table.tags:
            continue
        tables = oracle.build_tables(table)
        m = tables.used.size
        trace_used = rep.harvest[0][:, tables.used - 1]
        args = (cfg.initial_energy, cfg.capacity, dt, n_steps)
        grid = np.maximum(oracle.all_combinations(m, n_steps), 1)
        if oracle._depletion_possible(tables, trace_used, *args):
            # the vectorized reference: the row evaluator takes seconds here
            costs = reference_evaluate_stepwise(tables, trace_used, grid, *args)
        else:
            costs = oracle.evaluate_schedules(tables, trace_used, grid, *args)
        opt = float(costs.min())
        if opt <= 0.0:
            continue
        policy = RoaPolicy()
        policy.reset(table.tags, cfg.period,
                     [np.random.default_rng(rep.policy_ss)] * cfg.n_sbs)
        snapped = [min(int(math.floor(policy.off_times[tag.sbs] / dt + 1e-9)), n_steps)
                   for tag in table.tags]
        realized = float(oracle.evaluate_schedules(
            tables, trace_used, np.maximum([snapped], 1), *args)[0])
        accepted.append(attempt)
        ratios.append(realized / opt)
    return accepted, np.array(ratios)


class TestEmpiricalStudy:
    # fig6's scenario, where 79% of attempts serve no cell, and three cells
    # that can run dry, on a coarser grid so that the reference stays quick
    @pytest.mark.parametrize("cfg, n_runs", [
        (ScenarioConfig(n_sbs=3, n_ue=15, dt=0.2, seed=6), 40),
        (ScenarioConfig(n_sbs=3, n_ue=60, area=(700.0, 700.0), dt=0.5,
                        initial_energy=10.0, alpha_b=1.0, seed=9), 6),
    ])
    def test_accepts_and_costs_as_a_full_draw_would(self, monkeypatch, cfg, n_runs):
        attempts, passes = [], []
        real_topology, real_pass = analysis.build_topology, oracle.optimum_and_row

        def topology(*args):
            attempts.append(len(attempts) + 1)
            return real_topology(*args)

        def one_pass(tables, *args):
            out = real_pass(tables, *args)
            passes.append((attempts[-1], tables.used.size,
                           oracle._depletion_possible(tables, args[0], *args[2:]), out))
            return out

        monkeypatch.setattr(analysis, "build_topology", topology)
        monkeypatch.setattr(oracle, "optimum_and_row", one_pass)
        report = empirical_cr_study(cfg, n_runs)
        monkeypatch.undo()
        want_attempts, want = reference_study(cfg, n_runs)
        assert [a for a, _, _, (opt, _) in passes if opt > 0.0] == want_attempts
        assert report.ratios.tobytes() == want.tobytes()
        # fig6 rejects most attempts and takes both oracle paths; the other
        # takes the stepwise one with up to three cells
        dry = [d for _, _, d, _ in passes]
        if cfg.seed == 6:
            assert len(attempts) > 3 * n_runs
            assert any(dry) and not all(dry)
        else:
            assert max(m for _, m, _, _ in passes) == 3 and all(dry)

    def test_small_study_properties(self, tmp_path):
        cfg = ScenarioConfig(n_sbs=3, n_ue=15, dt=0.2, seed=6)
        rep = empirical_cr_study(cfg, 40, out_dir=str(tmp_path))
        assert rep.ratios.size == 40
        assert np.all(rep.ratios >= 1.0 - 1e-12)
        assert rep.worst <= 2.0 + 1e-9  # deterministic part of the guarantee
        assert (tmp_path / "ratios.csv").exists()
        assert (tmp_path / "ratios_summary.json").exists()

    def test_deterministic_given_seed(self):
        cfg = ScenarioConfig(n_sbs=3, n_ue=15, dt=0.2, seed=6)
        a = empirical_cr_study(cfg, 10)
        b = empirical_cr_study(cfg, 10)
        assert np.array_equal(a.ratios, b.ratios)

    def test_budget_respected(self):
        cfg = ScenarioConfig(n_sbs=3, n_ue=15, dt=0.2, seed=6)
        from sbsched.oracle import BudgetError
        with pytest.raises(BudgetError):
            empirical_cr_study(cfg, 40, budget=10)

    def test_each_attempt_draws_one_period(self, monkeypatch):
        # the study reads the first period only, whatever the configured
        # horizon: one topology and one all-ON association per attempt, and
        # one harvest trace per served attempt only, none where every UE is
        # on the MBS
        counts = {"build_topology": 0, "harvest_trace": 0, "build_tables": 0,
                  "all_on": 0}
        for mod, name in ((analysis, "build_topology"), (analysis, "harvest_trace"),
                          (oracle, "build_tables")):
            real = getattr(mod, name)

            def counting(*args, _real=real, _name=name):
                counts[_name] += 1
                return _real(*args)

            monkeypatch.setattr(mod, name, counting)
        real_associate = network.associate

        def associate(sigma, topo):
            counts["all_on"] += bool(np.all(sigma))
            return real_associate(sigma, topo)

        monkeypatch.setattr(network, "associate", associate)
        cfg = ScenarioConfig(n_sbs=3, n_ue=15, dt=0.2, seed=6, horizon_periods=3)
        report = empirical_cr_study(cfg, 10)
        assert counts["harvest_trace"] == counts["build_tables"] >= 10
        assert counts["build_topology"] == counts["all_on"] > counts["harvest_trace"]
        one = empirical_cr_study(ScenarioConfig(n_sbs=3, n_ue=15, dt=0.2, seed=6), 10)
        assert np.array_equal(one.ratios, report.ratios)

    def test_overflowing_price_fails_where_it_is_priced(self):
        # the price fails where the table prices it, before a policy draws a
        # NaN OFF time from it
        cfg = ScenarioConfig(n_sbs=3, dt=0.2, seed=3, file_bits=1e7, alpha_d=1e308)
        with np.errstate(over="ignore"):
            with pytest.raises(NonFinitePriceError,
                               match=r"SBS \d+: (rent|buy) price is not finite"):
                empirical_cr_study(cfg, 3)

    def test_too_many_degenerate_attempts(self):
        # at -30 dBm no cell wins a UE from the MBS: ten attempts per run,
        # none served, then the study gives up
        cfg = ScenarioConfig(n_sbs=3, dt=0.2, seed=3, sbs_tx_power=dbm_to_watts(-30.0))
        with pytest.raises(DegenerateStudyError,
                           match="too many degenerate replications: 20 attempts for 0 of 2"):
            empirical_cr_study(cfg, 2)

    def test_tx_schedule_rejected(self):
        # the oracle prices one transmit-power epoch
        cfg = ScenarioConfig(n_sbs=3, n_ue=15, dt=0.2, seed=6,
                             sbs_tx_schedule=((0.0, 0.2), (5.0, 0.5)))
        with pytest.raises(ValueError, match="sbs_tx_schedule"):
            empirical_cr_study(cfg, 5)
