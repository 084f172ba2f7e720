"""Experiment orchestration: config parsing, figure-style presets, seeded
replication sweeps, and CSV/JSON output writing.

Config files are flat `key = value` lines with dotted namespaces::

    energy.rate = 20
    network.sbs_tx_power = 23 dBm
    sweep.parameter = n_sbs
    sweep.values = 4, 6, 8
    policies = roa, doa, fixed:7

Powers must carry an explicit `dBm` or `W` suffix and are stored in watts.
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from . import analysis, network, oracle, pricing
from .engine import (
    MAX_SLOT_CELLS, CostOverflowError, Replication, ScenarioConfig, SeedStack, run_horizon,
)
from .network import dbm_to_watts
from .schedulers import ThresholdPolicy, make_policy

ENV_OUT_DIR = "SBSCHED_OUT_DIR"

# failures that depend on what a run draws, not on the config's values alone:
# `simulate` reports each as one `error:` line with exit status 3
DRAW_ERRORS = (oracle.BudgetError, network.UnserviceableError,
               analysis.DegenerateStudyError, pricing.NonFinitePriceError,
               CostOverflowError)

RESULTS_COLUMNS = [
    "sweep_parameter", "sweep_value", "policy", "replication", "period",
    "total_cost", "rent_cost", "buy_cost", "buy_count", "on_time_mean",
    "switch_count", "energy_consumed", "energy_harvested", "delay_per_sbs",
    "unused_fraction", "n_used", "depleted_count",
]


class ConfigError(ValueError):
    """A configuration file problem, reported with file/line context."""


def _parse_float(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ConfigError(f"expected a number, got {text!r}") from None


def _parse_int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"expected an integer, got {text!r}") from None


def _parse_power(text: str) -> float:
    """A power value with a mandatory unit: '23 dBm' or '10 W' -> watts."""
    t = text.strip()
    low = t.lower()
    if low.endswith("dbm"):
        return dbm_to_watts(_parse_float(t[:-3]))
    if low.endswith("w"):
        return _parse_float(t[:-1])
    raise ConfigError(f"power value {text!r} needs an explicit 'dBm' or 'W' suffix")


def _parse_str(text: str) -> str:
    return text.strip()


def _format_power(watts: float) -> str:
    return f"{watts!r} W"


def _parse_tx_schedule(text: str) -> tuple[tuple[float, float], ...]:
    """Comma-separated 'time:power' pairs, e.g. '0:23 dBm, 5:29 dBm'."""
    entries = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if ":" not in part:
            raise ConfigError(
                f"schedule entry {part!r} must look like 'time:power'"
            )
        when, _, power = part.partition(":")
        entries.append((_parse_float(when.strip()), _parse_power(power)))
    return tuple(entries)


def _format_tx_schedule(schedule: tuple[tuple[float, float], ...]) -> str:
    return ", ".join(f"{t!r}:{_format_power(p)}" for t, p in schedule)


# config key -> (ScenarioConfig attribute, parser, formatter)
SCENARIO_KEYS = {
    "period": ("period", _parse_float, repr),
    "dt": ("dt", _parse_float, repr),
    "horizon_periods": ("horizon_periods", _parse_int, str),
    "n_sbs": ("n_sbs", _parse_int, str),
    "n_ue": ("n_ue", _parse_int, str),
    "network.mbs_tx_power": ("mbs_tx_power", _parse_power, _format_power),
    "network.sbs_tx_power": ("sbs_tx_power", _parse_power, _format_power),
    "network.mbs_op_power": ("mbs_op_power", _parse_power, _format_power),
    "network.sbs_op_power": ("sbs_op_power", _parse_power, _format_power),
    "network.mbs_bandwidth": ("mbs_bandwidth", _parse_float, repr),
    "network.sbs_bandwidth": ("sbs_bandwidth", _parse_float, repr),
    "network.mbs_max_users": ("mbs_max_users", _parse_int, str),
    "network.sbs_max_users": ("sbs_max_users", _parse_int, str),
    "network.noise_power": ("noise_power", _parse_power, _format_power),
    "network.sbs_tx_schedule": ("sbs_tx_schedule", _parse_tx_schedule,
                                _format_tx_schedule),
    "network.file_bits": ("file_bits", _parse_float, repr),
    "energy.rate": ("harvest_rate", _parse_float, repr),
    "energy.quantum": ("harvest_quantum", _parse_float, repr),
    "energy.initial": ("initial_energy", _parse_float, repr),
    "energy.capacity": ("capacity", _parse_float, repr),
    "power.q": ("q", _parse_float, repr),
    "cost.alpha_d": ("alpha_d", _parse_float, repr),
    "cost.alpha_p": ("alpha_p", _parse_float, repr),
    "cost.alpha_b": ("alpha_b", _parse_float, repr),
    "price_mode": ("price_mode", _parse_str, str),
}


@dataclass(frozen=True)
class ExperimentSpec:
    """A full experiment: base scenario, sweep axis, policies, replications."""

    name: str
    base: ScenarioConfig
    sweep_parameter: str | None  # a SCENARIO_KEYS key, or None for no sweep
    sweep_values: tuple
    policies: tuple[str, ...]
    n_replications: int
    master_seed: int
    kind: str = "sweep"  # "sweep" or "cr_study"

    def __post_init__(self) -> None:
        if self.n_replications < 1:
            raise ConfigError("replications must be at least 1")
        if self.master_seed < 0:
            raise ConfigError("seed must be non-negative")
        if self.kind not in ("sweep", "cr_study"):
            raise ConfigError(f"unknown experiment kind {self.kind!r}")
        if self.sweep_parameter is not None:
            if self.sweep_parameter not in SCENARIO_KEYS:
                raise ConfigError(
                    f"sweep.parameter {self.sweep_parameter!r} is not a config key"
                )
            if not self.sweep_values:
                raise ConfigError("sweep.values must be non-empty when sweeping")
            try:
                self.axis  # every swept scenario must be valid
            except ValueError as exc:
                raise ConfigError(f"sweep.values: {exc}") from None
        if self.kind == "cr_study":
            # the ratio study replays roa against the oracle on the base
            # scenario, priced live in one transmit-power epoch: reject what
            # it would ignore
            for key, ignored in (("network.sbs_tx_schedule", self.base.sbs_tx_schedule),
                                 ("sweep.parameter", self.sweep_parameter),
                                 ("price_mode", self.base.price_mode != "live"),
                                 ("policies", self.policies != ("roa",))):
                if ignored:
                    raise ConfigError(f"{key}: a cr_study runs live-priced roa in one epoch")
        if not self.policies and self.kind == "sweep":
            raise ConfigError("at least one policy is required")
        for *_, cfg in self.axis:  # a study draws one period
            periods = 1 if self.kind == "cr_study" else cfg.horizon_periods
            cells = cfg.n_steps * periods * max(cfg.n_sbs, 1)
            if cells > MAX_SLOT_CELLS:
                raise ConfigError(
                    f"a record would draw {cells} slot-cells (n_steps * periods * "
                    f"max(n_sbs, 1)), more than the {MAX_SLOT_CELLS} allowed")
        cap = min([self.base.capacity] + [cfg.capacity for *_, cfg in self.axis])
        for p in self.policies:
            try:
                policy = make_policy(p)  # validates the string and its argument
            except ValueError as exc:
                raise ConfigError(f"policies: {exc}") from None
            if isinstance(policy, ThresholdPolicy) and cap <= 0:  # K is a share of cap
                raise ConfigError(f"policies: {p} needs energy.capacity > 0, got {cap!r}")

    @cached_property
    def axis(self) -> list[tuple[str, object, ScenarioConfig]]:
        """(parameter, value, scenario) per sweep value (`_sweep_axis`),
        built once per spec: by the checks of its construction, and read
        again by a run."""
        return _sweep_axis(self)


def parse_config(path: str) -> ExperimentSpec:
    """Read a flat key=value config file into a fully resolved ExperimentSpec."""
    raw: dict[str, str] = {}
    lines: dict[str, int] = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            if "=" not in text:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, _, value = text.partition("=")
            key, value = key.strip(), value.strip()
            if key in raw:
                raise ConfigError(
                    f"{path}:{lineno}: duplicate key {key!r} "
                    f"(first set on line {lines[key]})"
                )
            raw[key] = value
            lines[key] = lineno
    return _build_spec(raw, lines, path)


def _build_spec(raw: dict[str, str], lines: dict[str, int], path: str) -> ExperimentSpec:
    def err(key: str, msg: str) -> ConfigError:
        where = f"{path}:{lines[key]}: " if key in lines else f"{path}: "
        return ConfigError(f"{where}{key}: {msg}")

    scenario_kwargs: dict = {}
    area_w = area_h = None
    name = "experiment"
    sweep_param = None
    sweep_values: tuple = ()
    policies: tuple[str, ...] = ("roa",)
    n_reps = 1
    seed = 0
    kind = "sweep"
    n_runs = None
    sweep_values_text = None

    for key, value in raw.items():
        try:
            if key in SCENARIO_KEYS:
                attr, parser, _ = SCENARIO_KEYS[key]
                scenario_kwargs[attr] = parser(value)
            elif key == "area.width":
                area_w = _parse_float(value)
            elif key == "area.height":
                area_h = _parse_float(value)
            elif key == "name":
                name = value
            elif key == "seed":
                seed = _parse_int(value)
            elif key == "replications":
                n_reps = _parse_int(value)
            elif key == "policies":
                policies = tuple(p.strip() for p in value.split(",") if p.strip())
                if not policies:
                    raise ConfigError("names no policy")
            elif key == "kind":
                kind = value
            elif key == "runs":
                n_runs = _parse_int(value)
            elif key == "sweep.parameter":
                sweep_param = value
            elif key == "sweep.values":
                sweep_values_text = value
            else:
                raise ConfigError(f"unknown key {key!r}")
        except ConfigError as exc:
            raise err(key, str(exc)) from None

    if (area_w is None) != (area_h is None):
        raise ConfigError(f"{path}: area.width and area.height must be set together")
    if area_w is not None:
        scenario_kwargs["area"] = (area_w, area_h)
    if n_runs is not None:
        if kind != "cr_study":
            raise err("runs", "only a cr_study takes runs; a sweep sets replications")
        if "replications" in raw:
            raise err("runs", "set runs or replications, not both")
        n_reps = n_runs
    if kind == "cr_study" and scenario_kwargs.get("horizon_periods", 1) != 1:
        raise err("horizon_periods", "a cr_study runs one period")

    if sweep_values_text is not None:
        if sweep_param is None:
            raise err("sweep.values", "sweep.parameter is not set")
        _, parser, _ = SCENARIO_KEYS.get(sweep_param, (None, None, None))
        if parser is None:
            raise err("sweep.parameter", f"{sweep_param!r} is not a config key")
        try:
            sweep_values = tuple(
                parser(v.strip()) for v in sweep_values_text.split(",") if v.strip()
            )
        except ConfigError as exc:
            raise err("sweep.values", str(exc)) from None
    elif sweep_param is not None:
        raise err("sweep.parameter", "sweep.values is not set")

    try:
        base = ScenarioConfig(seed=seed, **scenario_kwargs)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    return ExperimentSpec(
        name=name, base=base, sweep_parameter=sweep_param,
        sweep_values=sweep_values, policies=policies, n_replications=n_reps,
        master_seed=seed, kind=kind,
    )


def serialize(spec: ExperimentSpec) -> str:
    """Render a spec back to config text; parse_config(serialize(s)) == s."""
    out = [f"name = {spec.name}", f"kind = {spec.kind}", f"seed = {spec.master_seed}",
           f"replications = {spec.n_replications}",
           f"policies = {', '.join(spec.policies)}"]
    defaults = ScenarioConfig()
    for key, (attr, _, fmt) in SCENARIO_KEYS.items():
        value = getattr(spec.base, attr)
        if value != getattr(defaults, attr):
            out.append(f"{key} = {fmt(value)}")
    if spec.base.area != defaults.area:
        out.append(f"area.width = {spec.base.area[0]!r}")
        out.append(f"area.height = {spec.base.area[1]!r}")
    if spec.sweep_parameter is not None:
        _, _, fmt = SCENARIO_KEYS[spec.sweep_parameter]
        out.append(f"sweep.parameter = {spec.sweep_parameter}")
        out.append(f"sweep.values = {', '.join(fmt(v) for v in spec.sweep_values)}")
    return "\n".join(out) + "\n"


def run_experiment(spec: ExperimentSpec, out_dir: str, trace: bool = False) -> int:
    """Run every (sweep value, policy, replication) and write the artifacts.

    Writes results.csv (one row per replication and period), summary.json,
    topology.json (layout of the first replication), and optionally trace.csv
    for the first replication. Partial outputs are removed on failure, and
    so are the directories this call created, innermost first, while empty.
    """
    created = []  # the directories makedirs is about to make, innermost first
    parent = os.path.abspath(out_dir)
    while not os.path.isdir(parent):
        created.append(parent)
        parent = os.path.dirname(parent)
    os.makedirs(out_dir, exist_ok=True)
    written: list[str] = []
    try:
        if spec.kind == "cr_study":
            return _run_cr_study(spec, out_dir, written)
        return _run_sweep(spec, out_dir, trace, written)
    except Exception:
        for path in written:
            if os.path.exists(path):
                os.remove(path)
        for directory in created:
            if os.listdir(directory):
                break
            os.rmdir(directory)
        raise


def _sweep_axis(spec: ExperimentSpec) -> list[tuple[str, object, ScenarioConfig]]:
    if spec.sweep_parameter is None:
        return [("none", "", spec.base)]
    attr = SCENARIO_KEYS[spec.sweep_parameter][0]
    return [
        (spec.sweep_parameter, v, replace(spec.base, **{attr: v}))
        for v in spec.sweep_values
    ]


def replication_total(periods: list[dict], rep: int) -> float:
    """The sum of a replication's period totals, which must not overflow."""
    total = sum(d["total_cost"] for d in periods)
    if not math.isfinite(total):
        raise CostOverflowError(f"replication {rep}: the total cost overflows ({total!r})")
    return total


def mean_and_ci(totals: Sequence[Sequence[float]]) -> list[tuple[float, float]]:
    """Per row of finite `totals`, each row of the same length, the mean and
    its 95% confidence half-width, in one stacked pass. Each row takes its
    own power-of-two scale, which changes no bit of either and keeps totals
    near the float maximum from overflowing when summed or squared; the
    reductions along the contiguous last axis give each row the bits it has
    alone."""
    totals_arr = np.array(totals, dtype=float)
    n = totals_arr.shape[1]
    e = np.frexp(np.abs(totals_arr).max(axis=1))[1]
    scaled = np.ldexp(totals_arr, -e[:, None])
    means = scaled.mean(axis=1).tolist()
    stds = scaled.std(axis=1, ddof=1).tolist() if n > 1 else [0.0] * len(means)
    return [(math.ldexp(mean, int(k)), 1.96 * math.ldexp(std, int(k)) / math.sqrt(n))
            for mean, std, k in zip(means, stds, e)]


def _sweep_records(spec: ExperimentSpec,
                   axis: list[tuple[str, object, ScenarioConfig]]) -> Iterator[Replication]:
    """The records of a sweep in (value, replication) order, record `rep` of
    value `v` from the seed `[master, v, rep]`, each made when the iterator
    reaches it.

    Seeds are hashed in passes of at most `analysis.CHUNK` records, across
    sweep values (`SeedStack`). A pass's records of one value are drawn in
    chunks of at most `analysis.chunk_size` (`Replication.draw_chunk`); a
    chunk whose stacked draw raises is drawn again one record at a time
    (`Replication.draw`), so the failure raised is the first in order, after
    the records before it have run."""
    n, total = spec.n_replications, len(axis) * spec.n_replications
    for start in range(0, total, analysis.CHUNK):  # record k is (v, rep) = divmod(k, n)
        stop = min(start + analysis.CHUNK, total)
        seeds = SeedStack(spec.master_seed, [divmod(k, n) for k in range(start, stop)])
        for v in range(start // n, (stop - 1) // n + 1):
            cfg, size = axis[v][2], analysis.chunk_size(axis[v][2])
            lo, hi = max(start, v * n) - start, min(stop, (v + 1) * n) - start
            for first in range(lo, hi, size):
                chunk = range(first, min(first + size, hi))
                try:
                    records = Replication.draw_chunk(cfg, seeds, chunk)
                except Exception:  # again one record at a time: the first failure raises
                    records = (Replication.draw(cfg, seeds.seed(k)) for k in chunk)
                yield from records


def _run_sweep(spec: ExperimentSpec, out_dir: str, trace: bool, written: list) -> int:
    results_path = os.path.join(out_dir, "results.csv")
    summary_path = os.path.join(out_dir, "summary.json")
    topo_path = os.path.join(out_dir, "topology.json")
    trace_path = os.path.join(out_dir, "trace.csv")
    written += [results_path, summary_path, topo_path]

    summary: dict = {"name": spec.name, "seed": spec.master_seed, "cells": []}
    topo_json = None
    trace_rows: list | None = [] if trace else None  # of the first run only

    with open(results_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(RESULTS_COLUMNS)
        axis = spec.axis
        records = _sweep_records(spec, axis)
        for sweep_idx, (param, value, cfg) in enumerate(axis):
            # every policy runs on each replication's one record; rows and
            # totals are buffered per policy, and written per sweep value, to
            # keep (value, policy, replication) order
            runs = [(p, [], []) for p in spec.policies]
            # zip takes the value's records, and no more, from the one iterator
            for rep, record in zip(range(spec.n_replications), records):
                if topo_json is None:
                    topo_json = network.topology_to_json(record.topo)
                for k, (policy, out, totals) in enumerate(runs):
                    first = sweep_idx == rep == k == 0
                    periods = [res.to_dict() for res in run_horizon(
                        record, make_policy(policy),
                        trace_rows=trace_rows if first else None)]
                    out += [[param, value, policy, rep] + [d[c] for c in RESULTS_COLUMNS[4:]]
                            for d in periods]
                    totals.append(replication_total(periods, rep))
            stats = mean_and_ci([totals for _, _, totals in runs])
            for (policy, out, totals), (mean, ci) in zip(runs, stats):
                writer.writerows(out)
                summary["cells"].append({
                    "sweep_parameter": param,
                    "sweep_value": value,
                    "policy": policy,
                    "replications": len(totals),
                    "mean_total_cost": mean,
                    "ci95_halfwidth": ci,
                })
            fh.flush()  # the file holds whole sweep values

    with open(summary_path, "w") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")
    with open(topo_path, "w") as fh:
        fh.write(topo_json)
        fh.write("\n")
    if trace_rows is not None:
        written.append(trace_path)
        with open(trace_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t", "sbs_id", "sigma", "E_j", "assoc_count", "rent_rate"])
            writer.writerows(trace_rows)
    return 0


def _run_cr_study(spec: ExperimentSpec, out_dir: str, written: list) -> int:
    summary_path = os.path.join(out_dir, "summary.json")
    written += [
        summary_path,
        os.path.join(out_dir, "ratios.csv"),
        os.path.join(out_dir, "ratios_summary.json"),
    ]
    report = analysis.empirical_cr_study(spec.base, spec.n_replications, out_dir=out_dir)
    with open(summary_path, "w") as fh:
        json.dump({
            "name": spec.name,
            "seed": spec.master_seed,
            "runs": int(report.ratios.size),
            "median_ratio": report.median,
            "worst_ratio": report.worst,
            "mean_ratio": report.mean,
            "ci95_halfwidth": report.ci_halfwidth,
        }, fh, indent=2)
        fh.write("\n")
    return 0


# ---------------------------------------------------------------------------
# Presets replicating the reference experiment setups.


def _preset_specs() -> dict[str, ExperimentSpec]:
    base = ScenarioConfig()
    fig4 = ExperimentSpec(
        name="fig4-energy-delay", kind="sweep",
        base=replace(base, n_ue=15, initial_energy=30.0, alpha_p=0.0001, seed=4),
        sweep_parameter="n_sbs", sweep_values=(4, 6, 8),
        policies=("roa", "doa", "fixed:7"), n_replications=200, master_seed=4,
    )
    fig5 = ExperimentSpec(
        name="fig5-cost-vs-sbs", kind="sweep", base=replace(base, seed=5),
        sweep_parameter="n_sbs", sweep_values=(2, 4, 6, 8),
        policies=("roa", "doa", "fixed:7"), n_replications=200, master_seed=5,
    )
    fig6 = ExperimentSpec(
        name="fig6-empirical-cr", kind="cr_study",
        base=replace(base, n_sbs=3, n_ue=15, dt=0.2, seed=6),
        sweep_parameter=None, sweep_values=(), policies=("roa",),
        n_replications=800, master_seed=6,
    )
    fig7 = ExperimentSpec(
        name="fig7-switching", kind="sweep", base=replace(base, seed=7),
        sweep_parameter=None, sweep_values=(),
        policies=("roa", "doa", "threshold:40", "threshold:50"),
        n_replications=200, master_seed=7,
    )
    fig8 = ExperimentSpec(
        name="fig8-unused-vs-txpower", kind="sweep", base=replace(base, seed=8),
        sweep_parameter="network.sbs_tx_power",
        sweep_values=tuple(dbm_to_watts(p) for p in (20.0, 23.0, 26.0, 29.0)),
        policies=("roa", "doa"), n_replications=200, master_seed=8,
    )
    fig9 = ExperimentSpec(
        name="fig9-ontime-vs-sbs-oppower", kind="sweep", base=replace(base, seed=9),
        sweep_parameter="network.sbs_op_power",
        sweep_values=(5.0, 10.0, 15.0, 20.0),
        policies=("roa", "doa"), n_replications=200, master_seed=9,
    )
    fig10 = ExperimentSpec(
        name="fig10-ontime-vs-mbs-oppower", kind="sweep", base=replace(base, seed=10),
        sweep_parameter="network.mbs_op_power",
        sweep_values=(10.0, 20.0, 30.0, 40.0),
        policies=("roa", "doa"), n_replications=200, master_seed=10,
    )
    fig11 = ExperimentSpec(
        name="fig11-ontime-vs-initial-energy", kind="sweep", base=replace(base, seed=11),
        sweep_parameter="energy.initial",
        sweep_values=(20.0, 40.0, 60.0, 80.0),
        policies=("roa", "doa"), n_replications=200, master_seed=11,
    )
    theorem_demo = ExperimentSpec(
        name="theorem-demo-decreasing-rent", kind="sweep",
        base=replace(
            base, n_sbs=1, n_ue=10, horizon_periods=1, seed=42,
            sbs_tx_schedule=tuple(
                (t, dbm_to_watts(p))
                for t, p in ((0.0, 23.0), (1.0, 25.0), (3.0, 27.0), (5.0, 29.0))
            ),
        ),
        sweep_parameter=None, sweep_values=(),
        policies=("adaptive", "roa", "doa"), n_replications=50, master_seed=42,
    )
    return {
        "fig4": fig4, "fig5": fig5, "fig6": fig6, "fig7": fig7, "fig8": fig8,
        "fig9": fig9, "fig10": fig10, "fig11": fig11,
        "theorem-demo": theorem_demo,
    }


PRESETS = _preset_specs()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="simulate",
        description="Run ON/OFF scheduling experiments for self-powered small cells.",
    )
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--config", help="path to a key=value experiment file")
    source.add_argument("--preset", choices=sorted(PRESETS),
                        help="run a built-in experiment preset")
    parser.add_argument("--seed", type=int, help="override the master seed")
    parser.add_argument("--runs", type=int, help="override the replication count")
    parser.add_argument("--algorithm",
                        help="run a single policy (doa|roa|adaptive|fixed:<t>|threshold:<K>)")
    parser.add_argument("--out-dir",
                        default=os.environ.get(ENV_OUT_DIR, "results"),
                        help="output directory (default: $%s or ./results)" % ENV_OUT_DIR)
    parser.add_argument("--trace", action="store_true",
                        help="write a per-step trace.csv for the first replication")
    args = parser.parse_args(argv)

    try:
        if args.config:
            spec = parse_config(args.config)
        else:
            spec = PRESETS[args.preset]
        if args.seed is not None:
            spec = replace(spec, master_seed=args.seed,
                           base=replace(spec.base, seed=args.seed))
        if args.runs is not None:
            spec = replace(spec, n_replications=args.runs)
        if args.algorithm is not None:
            spec = replace(spec, policies=(args.algorithm,))
    except (ConfigError, ValueError, OSError) as exc:
        parser.exit(2, f"error: {exc}\n")

    try:
        return run_experiment(spec, args.out_dir, trace=args.trace)
    except OSError as exc:
        print(f"error: I/O failure: {exc}", file=sys.stderr)
        return 1
    except DRAW_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
