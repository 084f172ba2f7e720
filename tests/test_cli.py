import csv
import json
import math
import tempfile
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sbsched import cli
from sbsched.cli import (
    ConfigError,
    ExperimentSpec,
    PRESETS,
    RESULTS_COLUMNS,
    SCENARIO_KEYS,
    main,
    mean_and_ci,
    parse_config,
    replication_total,
    run_experiment,
    _sweep_axis,
    serialize,
)
from sbsched.engine import (
    MAX_SLOT_CELLS, CostOverflowError, Replication, ScenarioConfig, run_horizon,
)
from sbsched.network import dbm_to_watts
from sbsched.schedulers import make_policy

from configs import KEY_VALUES, config_texts


def write_config(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


SMALL_SWEEP = """
name = smoke
seed = 11
replications = 2
policies = roa, doa
n_sbs = 6
n_ue = 30
horizon_periods = 1
sweep.parameter = n_sbs
sweep.values = 4, 6
"""


# scenario values that once parsed and then failed in the middle of a run
# (or, for file_bits, ran to a meaningless result)
FAILS_MID_RUN = ["network.noise_power = 0 W\n", "network.sbs_tx_power = 0 W\n",
                 "network.mbs_tx_power = 0 W\n", "network.mbs_op_power = 1 W\n",
                 "area.width = 0\narea.height = 500\n", "network.sbs_bandwidth = 0\n",
                 "period = inf\n", "dt = inf\n", "network.file_bits = -1\n",
                 "network.file_bits = nan\n",
                 "sweep.parameter = network.file_bits\nsweep.values = 1e5, -1\n",
                 "seed = -1\n", "energy.quantum = inf\n", "energy.rate = inf\n",
                 "energy.rate = 1e30\n", "energy.quantum = 1e308\n",
                 "area.width = 1e300\narea.height = 1e300\n"]


# the power step at 1 s moves every UE of a served cell to the MBS before
# b/r, so the cell's live rent becomes 0
ZERO_LIVE_RENT = """seed = 1
replications = 1
policies = adaptive
n_sbs = 6
area.width = 1000
area.height = 1000
power.q = 0
cost.alpha_b = 1
network.sbs_tx_schedule = 0:30 dBm, 1:0 dBm
"""


# each served cell's rent is finite; their sum in a period is not
COST_OVERFLOW = """seed = 1
replications = 2
policies = fixed:10
n_sbs = 16
n_ue = 80
area.width = 2000
area.height = 2000
energy.initial = 100
cost.alpha_p = 1e306
"""


# keys a cr_study would accept and then ignore
CR_STUDY_UNREAD = ["sweep.parameter = n_sbs\nsweep.values = 2, 3\n",
                   "price_mode = frozen\n", "policies = doa\n", "policies = roa, doa\n",
                   "horizon_periods = 3\n"]


class TestParsing:
    def test_empty_config_gives_defaults(self, tmp_path):
        spec = parse_config(write_config(tmp_path, "# nothing here\n"))
        assert spec.base == ScenarioConfig()
        assert spec.policies == ("roa",)
        assert spec.n_replications == 1

    def test_full_round_trip(self, tmp_path):
        spec = parse_config(write_config(tmp_path, SMALL_SWEEP))
        again = parse_config(write_config(tmp_path, serialize(spec), "b.cfg"))
        assert again == spec

    def test_preset_round_trips(self, tmp_path):
        for name, spec in PRESETS.items():
            text = serialize(spec)
            again = parse_config(write_config(tmp_path, text, f"{name}.cfg"))
            assert again.base == spec.base
            assert again.policies == spec.policies
            assert again.sweep_values == spec.sweep_values
            assert again.kind == spec.kind

    def test_bad_dt_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config(write_config(tmp_path, "dt = 0.3\nperiod = 10\n"))

    def test_duplicate_key_reports_both_lines(self, tmp_path):
        path = write_config(tmp_path, "n_sbs = 4\nn_ue = 20\nn_sbs = 6\n")
        with pytest.raises(ConfigError) as exc:
            parse_config(path)
        msg = str(exc.value)
        assert ":3:" in msg and "line 1" in msg

    def test_unknown_key_rejected_with_location(self, tmp_path):
        path = write_config(tmp_path, "\nn_cells = 4\n")
        with pytest.raises(ConfigError) as exc:
            parse_config(path)
        assert ":2:" in str(exc.value)

    def test_power_requires_unit(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config(write_config(tmp_path, "network.sbs_tx_power = 23\n"))
        spec = parse_config(
            write_config(tmp_path, "network.sbs_tx_power = 23 dBm\n", "ok.cfg")
        )
        assert spec.base.sbs_tx_power == pytest.approx(dbm_to_watts(23.0))
        spec_w = parse_config(
            write_config(tmp_path, "network.sbs_op_power = 12 W\n", "w.cfg")
        )
        assert spec_w.base.sbs_op_power == 12.0

    def test_tx_schedule_above_operational_power_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="sbs_op_power"):
            parse_config(write_config(
                tmp_path, "network.sbs_tx_schedule = 0:23 dBm, 5:50 W\n"))

    def test_swept_op_power_below_the_tx_schedule_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="sweep.values"):
            parse_config(write_config(tmp_path, (
                "network.sbs_tx_schedule = 0:23 dBm, 5:1 W\n"
                "sweep.parameter = network.sbs_op_power\n"
                "sweep.values = 10 W, 0.5 W\n")))

    def test_cr_study_rejects_a_tx_schedule(self, tmp_path):
        # the oracle prices one transmit-power epoch
        with pytest.raises(ConfigError, match="sbs_tx_schedule"):
            parse_config(write_config(tmp_path, (
                "kind = cr_study\n"
                "network.sbs_tx_schedule = 0:23 dBm, 5:26 dBm\n")))

    def test_runs_on_a_sweep_rejected(self, tmp_path):
        # a sweep counts replications, so `runs` would be dropped
        with pytest.raises(ConfigError, match="runs"):
            parse_config(write_config(tmp_path, "runs = 5\n"))

    def test_runs_with_replications_rejected(self, tmp_path):
        # a study takes either count, but not both
        for text, n in (("runs = 5\n", 5), ("replications = 4\n", 4)):
            path = write_config(tmp_path, "kind = cr_study\n" + text, "ok.cfg")
            assert parse_config(path).n_replications == n
        with pytest.raises(ConfigError, match="runs"):
            parse_config(write_config(
                tmp_path, "kind = cr_study\nruns = 5\nreplications = 3\n"))

    @pytest.mark.parametrize("text", CR_STUDY_UNREAD)
    def test_cr_study_rejects_what_it_does_not_read(self, tmp_path, text):
        # the study runs live-priced roa on the base scenario only
        study = "kind = cr_study\nruns = 5\n"
        spec = parse_config(write_config(
            tmp_path, study + "policies = roa\nprice_mode = live\nhorizon_periods = 1\n",
            "ok.cfg"))
        assert (spec.kind, spec.policies, spec.base.price_mode) == ("cr_study", ("roa",), "live")
        with pytest.raises(ConfigError, match=text.split()[0].split(".")[0]):
            parse_config(write_config(tmp_path, study + text))

    def test_sweep_needs_both_keys(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config(write_config(tmp_path, "sweep.parameter = n_sbs\n"))
        with pytest.raises(ConfigError):
            parse_config(write_config(tmp_path, "sweep.values = 1, 2\n", "b.cfg"))

    def test_bad_policy_rejected_before_running(self, tmp_path):
        with pytest.raises(ValueError):
            parse_config(write_config(tmp_path, "policies = genie\n"))

    @pytest.mark.parametrize("text", ["policies = roa, threshold:150\n",
                                      "policies = fixed:-1\n"])
    def test_out_of_range_policy_argument_rejected(self, tmp_path, text):
        with pytest.raises(ConfigError, match="policies"):
            parse_config(write_config(tmp_path, text))

    @pytest.mark.parametrize("text", ["power.q = 1.5\n", "power.q = -1\n",
                                      "cost.alpha_b = 1.5\n", "cost.alpha_d = -1\n",
                                      "energy.rate = -1\n", "energy.rate = nan\n",
                                      "energy.quantum = -0.2\n", "n_ue = 0\n",
                                      "network.sbs_max_users = 0\n"] + FAILS_MID_RUN)
    def test_out_of_range_model_parameter_rejected(self, tmp_path, text):
        with pytest.raises(ConfigError):
            parse_config(write_config(tmp_path, text))

    def test_area_keys_set_together(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config(write_config(tmp_path, "area.width = 400\n"))
        spec = parse_config(write_config(
            tmp_path, "area.width = 400\narea.height = 300\n", "ok.cfg"
        ))
        assert spec.base.area == (400.0, 300.0)

    def test_a_spec_builds_its_sweep_axis_once(self, tmp_path, monkeypatch):
        built = []
        real = cli._sweep_axis

        def counting(spec):
            built.append(spec)
            return real(spec)

        monkeypatch.setattr(cli, "_sweep_axis", counting)
        spec = parse_config(write_config(tmp_path, SMALL_SWEEP))
        assert built == [spec]
        run_experiment(spec, str(tmp_path / "out"))
        assert len(built) == 1
        # a preset with --runs: the preset's own spec was built at import, and
        # the spec that --runs makes builds its axis once, for its checks and
        # its run alike
        assert main(["--preset", "fig7", "--runs", "1", "--out-dir",
                     str(tmp_path / "fig7")]) == 0
        assert len(built) == 2 and built[1].n_replications == 1
        # a rejected sweep value still fails its parse, with the same message
        with pytest.raises(ConfigError, match="^sweep.values: "):
            parse_config(write_config(tmp_path, SMALL_SWEEP.replace("4, 6", "4, -1"), "bad.cfg"))
        assert len(built) == 3


class TestTotals:
    BIG = 1.5e308  # finite, and twice it is not

    def test_a_replication_total_that_overflows_raises(self):
        periods = [{"total_cost": self.BIG}, {"total_cost": self.BIG}]
        with pytest.raises(CostOverflowError, match=r"replication 3: .* \(inf\)"):
            replication_total(periods, 3)
        assert replication_total(periods[:1], 3) == self.BIG

    def test_the_mean_of_totals_near_the_float_maximum_is_finite(self):
        ((mean, ci),) = mean_and_ci([[self.BIG, self.BIG, 0.5 * self.BIG]])
        assert mean == pytest.approx(2.5 / 3 * self.BIG) and math.isfinite(ci)
        assert mean_and_ci([[self.BIG]]) == [(self.BIG, 0.0)]

    def test_the_scale_changes_no_bit_of_the_mean(self):
        totals = np.random.default_rng(0).exponential(3.0, size=200).tolist() + [0.0]
        arr = np.array(totals)
        assert mean_and_ci([totals]) == [(
            float(arr.mean()), 1.96 * float(arr.std(ddof=1)) / math.sqrt(arr.size))]

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(n=st.integers(1, 300), seed=st.integers(0, 2**32 - 1),
           scales=st.lists(st.sampled_from([0.0, 1e-300, 0.3, 1.0, 7e5, 1e307]),
                           min_size=1, max_size=7))
    def test_a_stacked_pass_gives_each_row_its_bits_alone(self, n, seed, scales):
        # each policy's totals of a sweep value, summarised in one pass, have
        # the mean and half-width of that policy's totals summarised alone
        rng = np.random.default_rng(seed)
        rows = [(rng.exponential(1.0, n) * scale).tolist() for scale in scales]
        got = mean_and_ci(rows)
        assert len(got) == len(rows)
        for row, stats in zip(rows, got):
            assert repr(stats) == repr(mean_and_ci_alone(row))


def mean_and_ci_alone(totals: list[float]) -> tuple[float, float]:
    """One row's mean and 95% half-width, computed alone at its own
    power-of-two scale, as the summary once computed each policy's."""
    arr = np.array(totals)
    e = math.frexp(float(np.abs(arr).max()))[1]
    scaled = np.ldexp(arr, -e)
    std = math.ldexp(float(scaled.std(ddof=1)), e) if arr.size > 1 else 0.0
    return math.ldexp(float(scaled.mean()), e), 1.96 * std / math.sqrt(arr.size)


class TestRunExperiment:
    def run_small(self, tmp_path, reps=2, trace=False):
        tmp_path.mkdir(parents=True, exist_ok=True)
        spec = parse_config(write_config(tmp_path, SMALL_SWEEP))
        if reps != 2:
            spec = replace(spec, n_replications=reps)
        out = tmp_path / "out"
        assert run_experiment(spec, str(out), trace=trace) == 0
        return out

    def test_artifacts_written(self, tmp_path):
        out = self.run_small(tmp_path, trace=True)
        for name in ("results.csv", "summary.json", "topology.json",
                     "trace.csv"):
            assert (out / name).exists()

    def test_results_schema(self, tmp_path):
        out = self.run_small(tmp_path)
        with open(out / "results.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == RESULTS_COLUMNS
        # 2 sweep values x 2 policies x 2 replications x 1 period
        assert len(rows) - 1 == 8
        for row in rows[1:]:
            assert row[0] == "n_sbs" and row[2] in ("roa", "doa")
            assert float(row[5]) >= 0.0  # total_cost

    def test_summary_schema(self, tmp_path):
        out = self.run_small(tmp_path)
        with open(out / "summary.json") as fh:
            summary = json.load(fh)
        assert summary["name"] == "smoke"
        assert len(summary["cells"]) == 4
        for cell in summary["cells"]:
            assert cell["replications"] == 2
            assert cell["mean_total_cost"] >= 0.0

    def test_a_sweep_value_writes_its_rows_before_the_next_runs(self, tmp_path, monkeypatch):
        # results.csv holds the rows of each sweep value once it is done, and
        # a failure in a later value removes that partial file
        spec = parse_config(write_config(tmp_path, SMALL_SWEEP))
        out = tmp_path / "out"
        real, lines = cli.run_horizon, []

        def fails_in_the_second_value(record, policy, trace_rows=None):
            if record.cfg.n_sbs == 6:
                lines.append((out / "results.csv").read_text().count("\n"))
                raise RuntimeError("boom")
            return real(record, policy, trace_rows=trace_rows)

        monkeypatch.setattr(cli, "run_horizon", fails_in_the_second_value)
        with pytest.raises(RuntimeError, match="boom"):
            run_experiment(spec, str(out))
        # the header, then 2 policies x 2 replications x 1 period of n_sbs = 4
        assert lines == [1 + 4]
        assert not out.exists()

    def test_byte_identical_reruns(self, tmp_path):
        out_a = self.run_small(tmp_path)
        spec = parse_config(write_config(tmp_path, SMALL_SWEEP, "again.cfg"))
        out_b = tmp_path / "out_b"
        run_experiment(spec, str(out_b))
        assert (out_a / "results.csv").read_bytes() == (
            out_b / "results.csv").read_bytes()

    def test_seed_prefix_stability(self, tmp_path):
        # adding replications never changes the earlier ones
        out_small = self.run_small(tmp_path)
        out_big = self.run_small(tmp_path / "big", reps=4)
        with open(out_small / "results.csv") as fh:
            small = {tuple(r[:5]): r for r in csv.reader(fh)}
        with open(out_big / "results.csv") as fh:
            big = {tuple(r[:5]): r for r in csv.reader(fh)}
        for key, row in small.items():
            assert big[key] == row

    def test_trace_schema(self, tmp_path):
        out = self.run_small(tmp_path, trace=True)
        with open(out / "trace.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["t", "sbs_id", "sigma", "E_j", "assoc_count",
                           "rent_rate"]
        # first replication only: n_steps x n_sbs rows for the first cell
        assert len(rows) - 1 == 100 * 4

    def test_policies_share_each_replication(self, tmp_path):
        # every row equals a lone run of its policy on its own seed
        spec = parse_config(write_config(tmp_path, """
seed = 13
replications = 2
policies = roa, adaptive, threshold:30, fixed:2
n_sbs = 3
n_ue = 20
horizon_periods = 2
price_mode = frozen
network.sbs_tx_schedule = 0:23 dBm, 4:26 dBm
sweep.parameter = energy.initial
sweep.values = 20, 60
"""))
        out = tmp_path / "out"
        assert run_experiment(spec, str(out)) == 0
        with open(out / "results.csv") as fh:
            got = list(csv.reader(fh))[1:]
        want = []
        for idx, (_, value, cfg) in enumerate(_sweep_axis(spec)):
            for policy in spec.policies:
                for rep in range(spec.n_replications):
                    record = Replication.draw(cfg, [spec.master_seed, idx, rep])
                    for res in run_horizon(record, make_policy(policy)):
                        d = res.to_dict()
                        want.append([str(x) for x in (
                            "energy.initial", value, policy, rep,
                            *(d[c] for c in RESULTS_COLUMNS[4:]))])
        assert got == want

    def test_cr_study_outputs(self, tmp_path):
        spec = parse_config(write_config(tmp_path, """
name = tiny-cr
kind = cr_study
seed = 6
runs = 5
n_sbs = 3
n_ue = 15
dt = 0.2
"""))
        out = tmp_path / "cr"
        assert run_experiment(spec, str(out)) == 0
        with open(out / "summary.json") as fh:
            summary = json.load(fh)
        assert summary["runs"] == 5
        assert summary["worst_ratio"] >= summary["median_ratio"] >= 1.0
        assert (out / "ratios.csv").exists()


class TestMain:
    def test_requires_config_or_preset(self, capsys):
        with pytest.raises(SystemExit):
            main([])

    def test_preset_list_complete(self):
        for name in ("fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10",
                     "fig11", "theorem-demo"):
            assert name in PRESETS
            assert isinstance(PRESETS[name], ExperimentSpec)

    def test_config_run_via_main(self, tmp_path):
        cfg = write_config(tmp_path, SMALL_SWEEP)
        out = tmp_path / "out"
        assert main(["--config", cfg, "--out-dir", str(out)]) == 0
        assert (out / "results.csv").exists()

    def test_runs_and_algorithm_overrides(self, tmp_path):
        cfg = write_config(tmp_path, SMALL_SWEEP)
        out = tmp_path / "out"
        assert main(["--config", cfg, "--out-dir", str(out),
                     "--runs", "1", "--algorithm", "fixed:7"]) == 0
        with open(out / "results.csv") as fh:
            rows = list(csv.reader(fh))
        assert all(r[2] == "fixed:7" for r in rows[1:])
        assert len(rows) - 1 == 2  # 2 sweep values x 1 policy x 1 rep

    @pytest.mark.parametrize("preset", ["fig7", "fig6"])
    def test_negative_seed_exits_before_running(self, tmp_path, capsys, preset):
        # numpy seeds no generator from a negative integer
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(["--preset", preset, "--runs", "1", "--seed", "-1", "--out-dir", str(out)])
        assert exc.value.code == 2
        assert capsys.readouterr().err == "error: seed must be non-negative\n"
        assert not out.exists()
        with pytest.raises(ConfigError, match="seed"):
            replace(PRESETS[preset], master_seed=-1)

    def test_bad_algorithm_exits_before_running(self, tmp_path):
        cfg = write_config(tmp_path, SMALL_SWEEP)
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(["--config", cfg, "--out-dir", str(out),
                  "--algorithm", "genie"])
        assert exc.value.code == 2
        assert not (out / "results.csv").exists()

    @pytest.mark.parametrize("algorithm", ["fixed:-1", "fixed:nan", "threshold:150",
                                           "threshold:nan"])
    def test_out_of_range_algorithm_exits_before_running(self, tmp_path, capsys,
                                                         algorithm):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(["--preset", "fig5", "--runs", "1", "--out-dir", str(out),
                  "--algorithm", algorithm])
        assert exc.value.code == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize("text", ["energy.rate = -1\n", "energy.quantum = nan\n",
                                      "n_ue = 0\n", "network.sbs_max_users = 0\n"]
                             + FAILS_MID_RUN)
    def test_out_of_range_scenario_exits_before_running(self, tmp_path, capsys, text):
        cfg = write_config(tmp_path, "replications = 1\nhorizon_periods = 1\n" + text)
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(["--config", cfg, "--out-dir", str(out)])
        assert exc.value.code == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["replications = 1\n", "kind = cr_study\nruns = 1\n"])
    @pytest.mark.parametrize("period, dt, status", [("1e-10", "1", 2), ("0.5", "0.5", 0)])
    def test_a_period_without_a_slot_exits_before_running(self, tmp_path, capsys, kind,
                                                          period, dt, status):
        # period / dt rounds to 0 slots: rejected when parsed, for a sweep
        # and a study alike, with one error line; exactly 1 slot runs
        cfg = write_config(tmp_path, f"{kind}period = {period}\ndt = {dt}\n"
                                     "n_sbs = 2\nn_ue = 30\n")
        out = tmp_path / "out"
        if status:
            with pytest.raises(SystemExit) as exc:
                main(["--config", cfg, "--out-dir", str(out)])
            assert exc.value.code == status
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1
            assert "at least one slot" in err
            assert not out.exists()
        else:
            assert main(["--config", cfg, "--out-dir", str(out)]) == 0

    @pytest.mark.parametrize("text, slots_at_cap", [
        # a sweep's record draws n_steps * horizon_periods * n_sbs slot-cells
        ("replications = 1\nn_sbs = 4\nhorizon_periods = 2\n", MAX_SLOT_CELLS // 8),
        # with no SBS, a record still draws one column
        ("replications = 1\nn_sbs = 0\nhorizon_periods = 1\n", MAX_SLOT_CELLS),
        # a study draws one period, whatever the scenario's horizon
        ("kind = cr_study\nruns = 1\nn_sbs = 2\n", MAX_SLOT_CELLS // 2),
        # the largest swept value decides
        ("replications = 1\nn_sbs = 1\nhorizon_periods = 1\nsweep.parameter = n_sbs\n"
         "sweep.values = 1, 2\n", MAX_SLOT_CELLS // 2),
    ])
    def test_a_record_past_the_slot_cell_cap_exits_before_running(self, tmp_path, capsys,
                                                                   text, slots_at_cap):
        # the cap is checked when parsed: nothing here is run or drawn
        at_cap = write_config(tmp_path, f"{text}period = {slots_at_cap}\ndt = 1\n", "at.cfg")
        past = write_config(tmp_path, f"{text}period = {slots_at_cap + 1}\ndt = 1\n",
                            "past.cfg")
        assert parse_config(at_cap).base.n_steps == slots_at_cap
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(["--config", past, "--out-dir", str(out)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"{MAX_SLOT_CELLS} allowed" in err
        assert not out.exists()

    def test_every_preset_is_well_under_the_slot_cell_cap(self):
        for spec in PRESETS.values():
            for *_, cfg in _sweep_axis(spec):
                assert cfg.n_steps * cfg.horizon_periods * max(cfg.n_sbs, 1) \
                    <= MAX_SLOT_CELLS // 1000

    @pytest.mark.parametrize("text", (
        ["runs = 5\n", "kind = cr_study\nruns = 5\nreplications = 5\n"]
        + ["kind = cr_study\n" + t for t in CR_STUDY_UNREAD]))
    def test_ignored_keys_exit_before_running(self, tmp_path, capsys, text):
        cfg = write_config(tmp_path, text)
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(["--config", cfg, "--out-dir", str(out)])
        assert exc.value.code == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize("text, algorithm", [
        ("policies = roa, threshold:30\nenergy.capacity = 0\nenergy.initial = 0\n", None),
        ("policies = roa, threshold:30\nenergy.initial = 0\n"
         "sweep.parameter = energy.capacity\nsweep.values = 100, 0\n", None),
        ("energy.capacity = 0\nenergy.initial = 0\n", "threshold:30"),
    ])
    def test_threshold_without_capacity_exits_before_running(self, tmp_path, capsys,
                                                             text, algorithm):
        # the threshold is a share of the capacity: none can be set at 0 J
        cfg = write_config(tmp_path, "replications = 20\n" + text)
        out = tmp_path / "out"
        argv = ["--config", cfg, "--out-dir", str(out)]
        with pytest.raises(SystemExit) as exc:
            main(argv + (["--algorithm", algorithm] if algorithm else []))
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "threshold:30" in err and "energy.capacity > 0, got 0.0" in err
        assert not out.exists()

    @pytest.mark.parametrize("line", ["policies = ,\n", "policies =\n"])
    def test_policies_naming_no_policy_exit_before_running(self, tmp_path, capsys, line):
        # only a config without the key runs the default, roa
        cfg = write_config(tmp_path, "replications = 1\nhorizon_periods = 1\n" + line)
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(["--config", cfg, "--out-dir", str(out)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "policies: names no policy" in err
        assert not out.exists()

    def test_cr_study_takes_roa_only_from_the_command_line(self, tmp_path, capsys):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(["--preset", "fig6", "--runs", "2", "--algorithm", "doa",
                  "--out-dir", str(out)])
        assert exc.value.code == 2
        assert not out.exists()
        assert main(["--preset", "fig6", "--runs", "2", "--algorithm", "roa",
                     "--out-dir", str(out)]) == 0

    @pytest.mark.parametrize("text, message", [
        ("kind = cr_study\nruns = 2\nnetwork.sbs_tx_power = -30 dBm\n",
         "too many degenerate replications: 20 attempts for 0 of 2 runs "
         "(no served SBSs, or a zero optimum)"),
        ("kind = cr_study\nruns = 2\nn_sbs = 3\ndt = 0.01\n",
         "exhaustive search needs 1002001 evaluations, budget is 1000000"),
        ("replications = 1\nhorizon_periods = 1\nnetwork.mbs_tx_power = 1e-30 W\n"
         "network.sbs_tx_power = 1e-30 W\n", "a UE has zero achievable rate"),
        ("replications = 2\nhorizon_periods = 1\nn_sbs = 3\nseed = 3\n"
         "network.file_bits = 1e7\ncost.alpha_d = 1e308\n",
         "SBS 3: buy price is not finite (inf)"),
        (COST_OVERFLOW, "period 0: the total cost overflows (inf)"),
        # a study rejects an attempt with no served cell after the rates check
        ("kind = cr_study\nruns = 2\nn_sbs = 0\nnetwork.mbs_tx_power = 1e-30 W\n",
         "a UE has zero achievable rate"),
    ])
    def test_draw_dependent_failure_exits_3(self, tmp_path, capsys, text, message):
        # these configs parse; what fails depends on the drawn topologies
        cfg = write_config(tmp_path, text)
        out = tmp_path / "new" / "out"
        with np.errstate(over="ignore"):
            assert main(["--config", cfg, "--out-dir", str(out)]) == 3
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "new").exists()
        out = tmp_path / "out"
        # a directory that was there before stays, with what it held
        out.mkdir()
        (out / "keep.txt").write_text("x")
        with np.errstate(over="ignore"):
            assert main(["--config", cfg, "--out-dir", str(out)]) == 3
        assert sorted(p.name for p in out.iterdir()) == ["keep.txt"]

    def test_cost_overflow_exits_3_without_a_warning(self, tmp_path, capsys):
        # the period total overflows: its one error line is all that is printed
        cfg = write_config(tmp_path, COST_OVERFLOW)
        with warnings.catch_warnings(), np.errstate(all="warn"):
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["--config", cfg, "--out-dir", str(tmp_path / "out")]) == 3
        assert capsys.readouterr().err == "error: period 0: the total cost overflows (inf)\n"

    def test_missing_config_file(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["--config", str(tmp_path / "nope.cfg")])
        assert exc.value.code == 2

    def test_env_out_dir_default(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path, SMALL_SWEEP)
        target = tmp_path / "from-env"
        monkeypatch.setenv("SBSCHED_OUT_DIR", str(target))
        assert main(["--config", cfg]) == 0
        assert (target / "results.csv").exists()

    def test_seed_override_changes_results(self, tmp_path):
        cfg = write_config(tmp_path, SMALL_SWEEP)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(["--config", cfg, "--out-dir", str(out_a)])
        main(["--config", cfg, "--out-dir", str(out_b), "--seed", "99"])
        assert (out_a / "results.csv").read_bytes() != (
            out_b / "results.csv").read_bytes()

    @pytest.mark.parametrize("text", [
        ZERO_LIVE_RENT, ZERO_LIVE_RENT.replace("power.q = 0", "cost.alpha_p = 0")])
    def test_adaptive_on_a_zero_live_rent_never_buys(self, tmp_path, text):
        # a zero rent never adds up to the buy price, so the served cell stays
        # ON until the period ends or its battery runs dry
        cfg = write_config(tmp_path, text)
        out = tmp_path / "out"
        assert main(["--config", cfg, "--out-dir", str(out)]) == 0
        with open(out / "results.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        for row in rows:
            assert row["n_used"] == "1" and row["buy_count"] == "0"

    @pytest.mark.parametrize("algorithm", ["doa", "roa", "adaptive", "fixed:7",
                                           "threshold:50"])
    @pytest.mark.parametrize("preset", sorted(
        name for name, spec in PRESETS.items() if spec.kind == "sweep"))
    def test_every_policy_runs_on_every_sweep_preset(self, tmp_path, preset,
                                                     algorithm):
        out = tmp_path / "out"
        assert main(["--preset", preset, "--algorithm", algorithm,
                     "--runs", "2", "--out-dir", str(out)]) == 0
        with open(out / "results.csv") as fh:
            rows = list(csv.reader(fh))[1:]
        spec = PRESETS[preset]
        n_values = max(len(spec.sweep_values), 1)
        assert len(rows) == n_values * 2 * spec.base.horizon_periods
        assert {r[2] for r in rows} == {algorithm}


def assert_finite_numbers(out: Path) -> None:
    """Every number in every CSV field and JSON value written is finite."""
    def walk(value):
        if isinstance(value, dict):
            value = list(value.values())
        if isinstance(value, list):
            for item in value:
                walk(item)
        elif isinstance(value, float):
            assert math.isfinite(value)

    for path in out.iterdir():
        if path.suffix == ".json":
            walk(json.loads(path.read_text()))
        else:
            with open(path) as fh:
                for row in csv.reader(fh):
                    for field in row:
                        try:
                            number = float(field)
                        except ValueError:
                            continue
                        assert math.isfinite(number), (path.name, row)


@settings(max_examples=150, deadline=None, derandomize=True)
@example(text=ZERO_LIVE_RENT, trace=False)
@example(text=COST_OVERFLOW, trace=False)
@given(text=config_texts(), trace=st.booleans())
def test_an_accepted_config_runs_to_a_clean_exit(text, trace):
    # what the parser accepts, the run completes: exit 2 for a config that is
    # rejected, 3 for a failure that depends on the draws, and 0 otherwise,
    # with only finite numbers written
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "fuzz.cfg"
        cfg.write_text(text)
        at_cap = f"period = {MAX_SLOT_CELLS}\n"
        if at_cap in text:
            # parsed, not run: the cap is never what rejects the config, and
            # a slot more is always rejected, for the cap if nothing else
            try:
                parse_config(str(cfg))
                parsed = True
            except ConfigError as exc:
                assert "slot-cells" not in str(exc), text
                parsed = False
            cfg.write_text(text.replace(at_cap, f"period = {MAX_SLOT_CELLS + 1}\n"))
            with pytest.raises(ConfigError, match="slot-cells" if parsed else None):
                parse_config(str(cfg))
            return
        out = Path(tmp) / "new" / "out"
        argv = ["--config", str(cfg), "--out-dir", str(out)] + (["--trace"] if trace else [])
        with warnings.catch_warnings(), np.errstate(all="ignore"):
            warnings.simplefilter("ignore")
            try:
                status = main(argv)
            except SystemExit as exc:
                status = exc.code
        assert status in (0, 2, 3), text
        if "period = 1e-10\ndt = 1\n" in text:  # ZERO_SLOTS
            assert status == 2, text
        if status == 0:
            assert_finite_numbers(out)
        else:
            assert not out.parent.exists()


def test_the_fuzzed_values_cover_every_scenario_key():
    assert set(KEY_VALUES) == set(SCENARIO_KEYS)
