import csv
import json
import math

import numpy as np
import pytest

from sbsched.analysis import DegenerateStudyError, RatioReport, empirical_cr_study
from sbsched import energy, engine
from sbsched.engine import ScenarioConfig
from sbsched.network import dbm_to_watts
from sbsched.pricing import NonFinitePriceError


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


class TestEmpiricalStudy:
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
        # the study reads the first period only: one topology and one
        # harvest trace per attempt, whatever the configured horizon
        counts = {"build_topology": 0, "harvest_trace": 0}
        for mod, name in ((engine, "build_topology"), (energy, "harvest_trace")):
            real = getattr(mod, name)

            def counting(*args, _real=real, _name=name):
                counts[_name] += 1
                return _real(*args)

            monkeypatch.setattr(mod, name, counting)
        cfg = ScenarioConfig(n_sbs=3, n_ue=15, dt=0.2, seed=6, horizon_periods=3)
        report = empirical_cr_study(cfg, 10)
        assert counts["build_topology"] >= 10
        assert counts["harvest_trace"] == counts["build_topology"]
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
