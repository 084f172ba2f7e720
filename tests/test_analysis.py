import csv
import json
import math
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from sbsched.analysis import DegenerateStudyError, RatioReport, empirical_cr_study
from sbsched import analysis, engine, network, oracle, pricing
from sbsched.engine import Replication, ScenarioConfig, SeedStack
from sbsched.network import dbm_to_watts
from sbsched.pricing import NonFinitePriceError
from sbsched.schedulers import RoaPolicy
from test_oracle import table_subsets
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

    def test_median_has_np_medians_bits(self):
        rng = np.random.default_rng(5)
        cases = [1.0 + rng.uniform(size=n) for n in range(1, 201)]
        cases += [np.round(rng.uniform(-1, 1, 9)) * 0.0, np.array([-0.0, -0.0])]
        for special in (np.nan, np.inf, -np.inf):
            for n in (1, 2, 7, 8):
                ratios = 1.0 + rng.uniform(size=n)
                ratios[n // 2] = special
                cases.append(ratios)
        cases.append(np.array([np.inf, -np.inf]))
        with np.errstate(invalid="ignore"):
            for ratios in cases:
                got = RatioReport.from_ratios(ratios).median
                assert np.float64(got).tobytes() == np.median(ratios).tobytes(), ratios

    def test_a_study_leaves_numpy_ma_unimported(self, tmp_path):
        # np.median imports numpy.ma to check for a NaN, inside every study
        code = ("import sys; from sbsched import cli; "
                f"cli.main(['--preset', 'fig6', '--runs', '5', '--out-dir', {str(tmp_path)!r}]); "
                "assert 'numpy.ma' not in sys.modules, 'numpy.ma imported'")
        src = os.path.dirname(os.path.dirname(analysis.__file__))
        subprocess.run([sys.executable, "-c", code], check=True, timeout=300,
                       env={**os.environ, "PYTHONPATH": src})
        assert (tmp_path / "ratios_summary.json").exists()

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
        tables = table_subsets(table)
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
        attempts, harvested, passes = [], [], []
        real_rng, real_pass = SeedStack.rng, oracle.optimum_and_row

        def rng(seeds, i, name):
            # every attempt draws its topology's stream, a served one its harvest's
            {"topo": attempts, "harvest": harvested}.get(name, []).append(seeds.attempts[i])
            return real_rng(seeds, i, name)

        def one_pass(tables, *args):
            out = real_pass(tables, *args)
            passes.append((harvested[-1], tables.used.size,
                           oracle._depletion_possible(tables, args[0], *args[2:]), out))
            return out

        monkeypatch.setattr(SeedStack, "rng", rng)
        monkeypatch.setattr(oracle, "optimum_and_row", one_pass)
        report = empirical_cr_study(cfg, n_runs)
        monkeypatch.undo()
        want_attempts, want = reference_study(cfg, n_runs)
        assert [a for a, _, _, (opt, _) in passes if opt > 0.0] == want_attempts
        assert report.ratios.tobytes() == want.tobytes()
        # attempts in order, each once, and one harvest per served attempt
        assert attempts == list(range(1, len(attempts) + 1))
        assert harvested == [a for a, _, _, _ in passes]
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
        # one harvest trace of one period per served attempt only, none where
        # every UE is on the MBS; topologies, all-ON pairs and tables are
        # counted per attempt of each stacked call
        counts = {"topologies": 0, "harvest_trace": 0, "tables": 0, "all_on": 0}
        real_topologies, real_harvest = engine.build_topologies, analysis.harvest_trace
        real_tables, real_associate = oracle.build_tables, network.associate_stack

        def topologies(cfg, rngs):
            stack = real_topologies(cfg, rngs)
            counts["topologies"] += stack.mbs_snr.shape[0]
            return stack

        def harvest(params, dt, n_steps, *args):
            counts["harvest_trace"] += 1
            assert n_steps == cfg.n_steps
            return real_harvest(params, dt, n_steps, *args)

        def tables(topo, tags, *args):
            counts["tables"] += len(tags)
            return real_tables(topo, tags, *args)

        def associate(sigma, topo):
            if np.all(sigma):
                counts["all_on"] += sigma.shape[0]
            return real_associate(sigma, topo)

        monkeypatch.setattr(engine, "build_topologies", topologies)
        monkeypatch.setattr(analysis, "harvest_trace", harvest)
        monkeypatch.setattr(oracle, "build_tables", tables)
        monkeypatch.setattr(network, "associate_stack", associate)
        cfg = ScenarioConfig(n_sbs=3, n_ue=15, dt=0.2, seed=6, horizon_periods=3)
        report = empirical_cr_study(cfg, 10)
        assert counts["harvest_trace"] == counts["tables"] >= 10
        assert counts["topologies"] == counts["all_on"] > counts["harvest_trace"]
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


class StudyLog:
    """Hooks on a study: the attempts whose topology stream is drawn, in
    order, the served ones (whose harvest stream is drawn), the chunk sizes
    and the accepted attempts. `zero_rates` and `fail_pass` inject failures
    into attempts by number: every rate of a `zero_rates` attempt's UEs is
    0, and the oracle pass of a `fail_pass` attempt raises."""

    def __init__(self, monkeypatch, zero_rates=(), fail_pass=(), zero_optimum=()):
        self.topo, self.served, self.chunks, self.accepted = [], [], [], []
        real_rng, real_place = SeedStack.rng, engine.build_topologies
        real_pass = oracle.optimum_and_row

        def rng(seeds, i, name):
            {"topo": self.topo, "harvest": self.served}.get(name, []).append(seeds.attempts[i])
            return real_rng(seeds, i, name)

        def place(cfg, rngs):
            stack = real_place(cfg, rngs)
            size = stack.mbs_snr.shape[0]
            chunk = self.topo[-size:]
            self.chunks.append(size)
            dead = [i for i, a in enumerate(chunk) if a in zero_rates]
            if dead:
                recv, snr = stack.sbs_received_power.copy(), stack.mbs_snr.copy()
                recv[dead], snr[dead] = 0.0, 0.0
                stack = replace(stack, sbs_received_power=recv, mbs_snr=snr)
            return stack

        def one_pass(tables, *args):
            attempt = self.served[-1]
            if attempt in fail_pass:
                raise RuntimeError(f"injected into attempt {attempt}")
            opt, realized = (0.0, 0.0) if attempt in zero_optimum else real_pass(tables, *args)
            if opt > 0.0:
                self.accepted.append(attempt)
            return opt, realized

        monkeypatch.setattr(SeedStack, "rng", rng)
        monkeypatch.setattr(engine, "build_topologies", place)
        monkeypatch.setattr(oracle, "optimum_and_row", one_pass)


# oracle-depletion's scenario: two cells that can run dry, 30-40% of the
# attempts unserved
TWO_CELLS = ScenarioConfig(n_sbs=2, n_ue=40, area=(1000.0, 1000.0), dt=0.2,
                           initial_energy=30.0, seed=11)


def one_at_a_time(monkeypatch, cfg, n_runs, budget=1_000_000, **inject):
    """The study and its log with chunks of one attempt, or the failure."""
    with monkeypatch.context() as m:
        m.setattr(engine, "CHUNK", 1)
        log = StudyLog(m, **inject)
        try:
            return empirical_cr_study(cfg, n_runs, budget), log
        except Exception as err:
            return err, log


class TestStudyChunks:
    def test_chunks_match_one_attempt_at_a_time(self, monkeypatch):
        n_runs = engine.CHUNK + 36
        with monkeypatch.context() as m:
            log = StudyLog(m)
            report = empirical_cr_study(TWO_CELLS, n_runs)
        want, alone = one_at_a_time(monkeypatch, TWO_CELLS, n_runs)
        assert report.ratios.tobytes() == want.ratios.tobytes()
        assert log.accepted == alone.accepted and len(log.accepted) == n_runs
        assert log.topo == alone.topo == list(range(1, len(log.topo) + 1))
        assert log.served == alone.served
        # a chunk holds CHUNK attempts, or the runs that are left if fewer
        assert sum(log.chunks) == len(log.topo) and len(log.chunks) > 2
        done = 0
        for size in log.chunks:
            left = n_runs - sum(a <= done for a in log.accepted)
            assert size == min(engine.CHUNK, left)
            done += size

    @pytest.mark.parametrize("inject", ["stacked", "attempt", "both"])
    def test_a_failure_in_mid_chunk_is_the_first_in_attempt_order(self, monkeypatch, inject):
        # the first attempt accepted, then two later served attempts of the
        # same chunk: one fails in the chunk's stacked all-ON pass (every
        # rate 0), one in its own oracle pass
        _, log = one_at_a_time(monkeypatch, TWO_CELLS, 20)
        first, *later = [a for a in log.served if a > log.accepted[0]][:2]
        assert later and later[0] <= 20  # in the first chunk, of 20 attempts
        fails = {"stacked": dict(zero_rates=[first]),
                 "attempt": dict(fail_pass=[first]),
                 "both": dict(fail_pass=[first], zero_rates=later)}[inject]
        want, alone = one_at_a_time(monkeypatch, TWO_CELLS, 20, **fails)
        assert isinstance(want, Exception)
        with monkeypatch.context() as m:
            log = StudyLog(m, **fails)
            with pytest.raises(type(want)) as err:
                empirical_cr_study(TWO_CELLS, 20)
        assert str(err.value) == str(want)
        # attempts before the failure are run again, one at a time
        assert log.chunks[0] == 20 and list(dict.fromkeys(log.accepted)) == alone.accepted
        assert alone.accepted[0] < first

    def test_too_many_degenerate_attempts_after_some_runs(self, monkeypatch):
        # a zero optimum on all but five served attempts: the cap of ten
        # attempts per run ends the study after five runs
        _, log = one_at_a_time(monkeypatch, TWO_CELLS, 20)
        keep = log.served[:5]
        zero = [a for a in range(1, 200) if a not in keep]
        want, _ = one_at_a_time(monkeypatch, TWO_CELLS, 12, zero_optimum=zero)
        assert isinstance(want, DegenerateStudyError)
        with monkeypatch.context() as m:
            log = StudyLog(m, zero_optimum=zero)
            with pytest.raises(DegenerateStudyError) as err:
                empirical_cr_study(TWO_CELLS, 12)
        assert str(err.value) == str(want)
        assert "120 attempts for 5 of 12 runs" in str(want)
        assert log.topo == list(range(1, 121))

    def test_a_budget_failure_ends_the_chunk_at_its_attempt(self, monkeypatch):
        # a budget for two served cells: the first attempt with three raises
        # once its tables are built, and no later attempt's are, though the
        # chunk serves more attempts after it
        cfg = ScenarioConfig(n_sbs=3, n_ue=60, area=(700.0, 700.0), dt=0.2, seed=6)
        want, alone = one_at_a_time(monkeypatch, cfg, 30, budget=51 ** 2)
        assert isinstance(want, oracle.BudgetError) and len(alone.served) == 4
        built, frozen, passes = [], [], []
        real, real_freeze, real_pass = (oracle.build_tables, pricing.freeze_prices,
                                        oracle.optimum_and_row)

        def tables(topo, tags, *args):
            built.append(real(topo, tags, *args))
            return built[-1]

        def freeze(*args):
            frozen.append(real_freeze(*args))
            return frozen[-1]

        def one_pass(tables, *args):
            passes.append(tables)
            return real_pass(tables, *args)

        with monkeypatch.context() as m:
            m.setattr(oracle, "build_tables", tables)
            m.setattr(pricing, "freeze_prices", freeze)
            m.setattr(oracle, "optimum_and_row", one_pass)
            with pytest.raises(oracle.BudgetError) as err:
                empirical_cr_study(cfg, 30, budget=51 ** 2)
        assert str(err.value) == str(want)
        chunk = built[0]
        sizes = [t.used.size for t in chunk]
        assert sizes[-1] == 3 and max(sizes[:-1], default=0) <= 2
        assert len(chunk) < len(frozen[0])  # served attempts after it are not built
        # its tables are whole before it raises, and it is not searched
        assert not any(getattr(chunk[-1], name).flags.writeable
                       for name in ("used", "rent", "psi", "rent_sum", "buys", "psi_max"))
        assert chunk[-1].rows(cfg.dt).psi_dt == (chunk[-1].psi * cfg.dt).tolist()
        # (the chunk is then run again one attempt at a time)
        searched = [id(t) for t in passes]
        assert searched[:len(chunk) - 1] == [id(t) for t in chunk[:-1]]
        assert id(chunk[-1]) not in searched

    def test_chunks_hold_at_most_the_links_of_a_pass(self, monkeypatch):
        # five attempts' links to a pass: chunks of five, the same ratios
        n_ue, n_bs = TWO_CELLS.n_ue, TWO_CELLS.n_sbs + 1
        want, _ = one_at_a_time(monkeypatch, TWO_CELLS, 12)
        with monkeypatch.context() as m:
            m.setattr(network, "STACK_LINKS", 5 * n_ue * n_bs + n_bs)
            log = StudyLog(m)
            report = empirical_cr_study(TWO_CELLS, 12)
        assert max(log.chunks) == 5
        assert report.ratios.tobytes() == want.ratios.tobytes()
