"""Fast self-tests of the benchmark.

Run from the repository root: python3 -m pytest -q bench/test_bench.py
"""
from __future__ import annotations

import csv
import json
import os
import shutil
import subprocess
import sys
import time

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH_DIR]

import checks  # noqa: E402
import oracle_ref  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from sbsched import cli, oracle  # noqa: E402

TINY_SWEEP = """\
seed = 3
replications = 3
policies = roa, doa, fixed:7, threshold:30
n_ue = 20
energy.initial = 20
sweep.parameter = n_sbs
sweep.values = 2, 4
"""
TINY_STUDY = """\
kind = cr_study
seed = 3
runs = 6
n_sbs = 2
n_ue = 40
area.width = 1000
area.height = 1000
dt = 0.5
energy.initial = 30
"""


def _simulate(tmp_path, text: str, name: str):
    cfg = tmp_path / f"{name}.cfg"
    cfg.write_text(text)
    out = str(tmp_path / name)
    assert cli.main(["--config", str(cfg), "--out-dir", out]) == 0
    return out, cli.parse_config(str(cfg))


@pytest.fixture
def sweep(tmp_path):
    return _simulate(tmp_path, TINY_SWEEP, "sweep")


@pytest.fixture
def study(tmp_path):
    return _simulate(tmp_path, TINY_STUDY, "study")


def _edit_csv(path: str, row: int, column: str, change) -> None:
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
        fields = list(rows[0])
    rows[row][column] = repr(change(float(rows[row][column])))
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        writer.writerows(rows)


def test_checks_pass_on_fresh_artifacts(sweep, study):
    out, spec = sweep
    assert checks.check_sweep(out, run.scenario(spec)) == []
    out, spec = study
    assert checks.check_study(out, spec.n_replications) == []


def test_altered_total_cost_fails_the_sweep_checks(sweep):
    out, spec = sweep
    _edit_csv(os.path.join(out, "results.csv"), 5, "total_cost", lambda v: v + 1e-3)
    problems = checks.check_sweep(out, run.scenario(spec))
    assert any("total_cost != rent_cost + buy_cost" in p for p in problems)
    assert any("mean_total_cost" in p for p in problems)


def test_altered_ratio_fails_the_study_checks(study):
    out, spec = study
    _edit_csv(os.path.join(out, "ratios.csv"), 2, "ratio", lambda v: v * 1.01)
    assert checks.check_study(out, spec.n_replications) != []


def test_ratio_below_one_fails_the_study_checks(study):
    out, spec = study
    _edit_csv(os.path.join(out, "ratios.csv"), 0, "ratio", lambda v: 0.99)
    assert any("below 1" in p for p in checks.check_study(out, spec.n_replications))


def test_compare_artifacts_sees_one_changed_byte(sweep, tmp_path):
    out, _ = sweep
    copy = str(tmp_path / "copy")
    shutil.copytree(out, copy)
    assert checks.compare_artifacts(out, copy) == []
    with open(os.path.join(copy, "summary.json"), "a") as fh:
        fh.write(" ")
    assert checks.compare_artifacts(out, copy) != []


def _bindings(tr: tracer.Tracer) -> dict:
    seen = {}
    for mod in tr.modules.values():
        seen.update({(mod.__name__, k): v for k, v in vars(mod).items()})
        for cls in vars(mod).values():
            if isinstance(cls, type) and cls.__module__ == mod.__name__:
                seen.update({(cls.__qualname__, k): v for k, v in vars(cls).items()})
    return seen


def test_traced_run_restores_every_wrapped_function(tmp_path):
    tr = tracer.Tracer()
    before = _bindings(tr)
    from sbsched import analysis, engine
    with tr:
        # wrappers sit in every namespace that binds a function by name
        assert cli.run_horizon is not before[("sbsched.engine", "run_horizon")]
        assert cli.run_horizon is engine.run_horizon
        assert analysis.harvest_trace is tr.modules["energy"].harvest_trace
        assert analysis.build_topology is engine.build_topology
        _simulate(tmp_path, TINY_SWEEP, "traced")
    after = _bindings(tr)
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert tr.report()["functions"]["network.associate"]["calls"] > 0


def test_trace_accounts_for_its_time(tmp_path):
    cfg = tmp_path / "study.cfg"
    cfg.write_text(TINY_STUDY)
    with tracer.Tracer() as tr:
        t0 = time.monotonic()
        assert cli.main(["--config", str(cfg), "--out-dir", str(tmp_path / "study")]) == 0
        busy = time.monotonic() - t0
    report = tr.report()
    assert run.trace_accounting_problems(report, busy) == []
    # time spent outside wrapped code after set-up is caught
    assert run.trace_accounting_problems(report, busy + 0.01)
    fns = report["functions"]
    assert fns[run.STEPWISE]["calls"] + fns.get(run.CLOSED_FORM, {"calls": 0})["calls"] \
        == fns["oracle.evaluate_schedules"]["calls"]


def test_times_are_scaled_by_the_calibration():
    fake = {"wall_s": 2.0, "setup_s": 0.2, "busy_s": 1.5, "reps": 30, "rss_mib": 40.0}
    same, raw = run.end_to_end_metrics([[fake]] * 3, [run.CAL_REF_S] * 3)
    slow, _ = run.end_to_end_metrics([[fake]] * 3, [2 * run.CAL_REF_S] * 3)
    assert same == {k: v for k, v in raw.items() if k != "calibration_s"}
    assert same["wall_s"] == 2.0 and slow["wall_s"] == 1.0
    assert slow["setup_s"] == 0.1 and slow["reps_per_s"] == 40.0
    assert slow["peak_rss_mib"] == 40.0


def _benchmark_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_printed_metrics_match_benchmark_json(tmp_path):
    spec = _benchmark_json()
    assert spec["command"] == ["python3", "bench/run.py"]
    assert spec["run_seconds"] == run.DEFAULT_SECONDS
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (w.name, w.why) for w in run.WORKLOADS.values()]
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] \
        == [tuple(m) for m in run.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == [tuple(m) for m in run.PER_LAYER]

    fake = {"wall_s": 2.0, "setup_s": 0.2, "busy_s": 1.5, "reps": 30, "rss_mib": 40.0}
    e2e, _ = run.end_to_end_metrics([[fake, fake]] * 3, [run.CAL_REF_S])
    assert list(e2e) == [m["name"] for m in spec["end_to_end"]]
    with tracer.Tracer() as tr:
        _simulate(tmp_path, TINY_SWEEP, "sweep")
    layers = run.per_layer_metrics(tr.report(), 2.0, 0.2, 1.8, 0, 1000)
    assert list(layers) == [m["name"] for m in spec["per_layer"]]
    assert layers["network.associate.calls"] > 0
    assert 0.0 < layers["network.on_sets.repeat_share"] < 1.0


def test_scalar_reference_matches_the_oracle_and_catches_a_wrong_one(monkeypatch):
    problems, enumerated = oracle_ref.run(7)
    assert problems == [] and enumerated > 0
    real = oracle._evaluate_stepwise
    monkeypatch.setattr(oracle, "_evaluate_stepwise", lambda *a: real(*a) * 0.9)
    problems, _ = oracle_ref.run(7)
    assert any("offline_exhaustive" in p and "depletion" in p for p in problems)


def test_benchmark_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sweep-fig5", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
