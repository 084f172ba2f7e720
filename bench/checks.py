"""Output checks computed from the artifacts a `simulate` run writes.

Every check is a property the model must have, not a comparison with a
stored copy of earlier output. Each function returns a list of problems;
an empty list means the artifacts pass.
"""
from __future__ import annotations

import csv
import json
import math
import os
import statistics
from collections import defaultdict

REL = 1e-9  # tolerance for sums taken in a different order
EXACT = 1e-12  # slack for bounds that hold exactly up to rounding
HARVEST_Z = 5.0  # |z| bound on the mean harvested energy
SCHEDULED = ("roa", "doa", "fixed")  # policies that switch OFF at most once

_INT = ("replication", "period", "buy_count", "switch_count", "n_used",
        "depleted_count")
_FLOAT = ("total_cost", "rent_cost", "buy_cost", "on_time_mean",
          "energy_consumed", "energy_harvested", "delay_per_sbs",
          "unused_fraction")


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def read_results(path: str) -> list[dict]:
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    for row in rows:
        for key in _INT:
            row[key] = int(row[key])
        for key in _FLOAT:
            row[key] = float(row[key])
    return rows


def check_sweep(out_dir: str, scen: dict) -> list[str]:
    """Check results.csv and summary.json of a sweep.

    `scen` describes what was run: period, initial_energy, harvest_rate,
    harvest_quantum, n_sbs, horizon_periods, sweep_parameter (config key or
    None), sweep_values (as written in the CSV), policies, replications.
    """
    problems: list[str] = []
    rows = read_results(os.path.join(out_dir, "results.csv"))
    n_cells = len(scen["sweep_values"]) * len(scen["policies"])
    expected_rows = n_cells * scen["replications"] * scen["horizon_periods"]
    if len(rows) != expected_rows:
        problems.append(f"results.csv has {len(rows)} rows, expected {expected_rows}")
    period = scen["period"]

    def n_sbs(row: dict) -> int:
        if scen["sweep_parameter"] == "n_sbs":
            return int(row["sweep_value"])
        return scen["n_sbs"]

    per_rep: dict[tuple, list[float]] = defaultdict(lambda: [0.0, 0.0, 0.0])
    draws: dict[tuple, tuple[float, int]] = {}
    for i, row in enumerate(rows, start=2):
        where = f"results.csv line {i}"
        if not _close(row["total_cost"], row["rent_cost"] + row["buy_cost"], REL):
            problems.append(f"{where}: total_cost != rent_cost + buy_cost")
        if min(row["rent_cost"], row["buy_cost"]) < 0:
            problems.append(f"{where}: negative cost")
        for key in ("buy_count", "depleted_count"):
            if not 0 <= row[key] <= row["n_used"]:
                problems.append(f"{where}: {key} {row[key]} not in [0, n_used]")
        if not -EXACT <= row["on_time_mean"] <= period * (1 + EXACT):
            problems.append(f"{where}: on_time_mean outside [0, period]")
        kind = row["policy"].partition(":")[0]
        if kind in SCHEDULED and row["switch_count"] > row["n_used"]:
            problems.append(
                f"{where}: {row['policy']} switched {row['switch_count']} times "
                f"with {row['n_used']} served cells")
        rep = (row["sweep_value"], row["policy"], row["replication"])
        acc = per_rep[rep]
        acc[0] += row["energy_consumed"]
        acc[1] += row["energy_harvested"]
        acc[2] = n_sbs(row)
        draw = (row["sweep_value"], row["replication"], row["period"])
        if draw in draws and draws[draw][0] != row["energy_harvested"]:
            problems.append(f"{where}: policies saw different harvest draws")
        draws[draw] = (row["energy_harvested"], n_sbs(row))

    e0 = scen["initial_energy"]
    for rep, (consumed, harvested, n) in per_rep.items():
        budget = n * e0 + harvested
        if consumed > budget + REL * max(1.0, budget):
            problems.append(
                f"replication {rep}: consumed {consumed} > n_sbs*E0 + harvested {budget}")

    # Each draw is quantum * Poisson(rate * period * n_sbs).
    lam_t, quantum = scen["harvest_rate"] * period, scen["harvest_quantum"]
    total = sum(h for h, _ in draws.values())
    mean = sum(n * lam_t * quantum for _, n in draws.values())
    var = sum(n * lam_t * quantum ** 2 for _, n in draws.values())
    if var > 0:
        z = (total - mean) / math.sqrt(var)
        if abs(z) > HARVEST_Z:
            problems.append(f"harvest: z = {z:.2f} over {len(draws)} draws, "
                            f"bound {HARVEST_Z}")
    elif total != 0:
        problems.append("harvest: energy harvested with a zero harvest rate")

    problems += _check_sweep_summary(out_dir, rows, scen)
    return problems


def _check_sweep_summary(out_dir: str, rows: list[dict], scen: dict) -> list[str]:
    problems = []
    with open(os.path.join(out_dir, "summary.json")) as fh:
        summary = json.load(fh)
    totals: dict[tuple, dict[int, float]] = defaultdict(dict)
    for row in rows:
        cell = totals[(row["sweep_value"], row["policy"])]
        cell[row["replication"]] = cell.get(row["replication"], 0.0) + row["total_cost"]
    cells = summary.get("cells", [])
    if len(cells) != len(totals):
        problems.append(f"summary.json has {len(cells)} cells, results.csv {len(totals)}")
    for cell in cells:
        key = (str(cell["sweep_value"]), cell["policy"])
        reps = [v for _, v in sorted(totals.get(key, {}).items())]
        where = f"summary.json cell {key}"
        if cell["replications"] != len(reps) or len(reps) != scen["replications"]:
            problems.append(f"{where}: {cell['replications']} replications, "
                            f"results.csv {len(reps)}, requested {scen['replications']}")
            continue
        mean = math.fsum(reps) / len(reps)
        ci = (1.96 * statistics.stdev(reps) / math.sqrt(len(reps))
              if len(reps) > 1 else 0.0)
        if not _close(cell["mean_total_cost"], mean, REL):
            problems.append(f"{where}: mean_total_cost {cell['mean_total_cost']} != {mean}")
        if not _close(cell["ci95_halfwidth"], ci, 1e-6):
            problems.append(f"{where}: ci95_halfwidth {cell['ci95_halfwidth']} != {ci}")
    return problems


def check_study(out_dir: str, runs: int) -> list[str]:
    """Check ratios.csv, ratios_summary.json and summary.json of a study."""
    problems = []
    with open(os.path.join(out_dir, "ratios.csv"), newline="") as fh:
        ratios = [float(r["ratio"]) for r in csv.DictReader(fh)]
    if len(ratios) != runs:
        problems.append(f"ratios.csv has {len(ratios)} ratios, requested {runs}")
    bad = [r for r in ratios if not r >= 1.0 - EXACT]
    if bad:
        problems.append(f"{len(bad)} ratios below 1, lowest {min(bad)}")
    if not ratios:
        return problems + ["no ratios"]
    n = len(ratios)
    expect = {
        "median": statistics.median(ratios),
        "worst": max(ratios),
        "mean": math.fsum(ratios) / n,
        "ci95": (1.96 * statistics.stdev(ratios) / math.sqrt(n) if n >= 100
                 else (max(ratios) - min(ratios)) / 2.0),
    }
    with open(os.path.join(out_dir, "summary.json")) as fh:
        summary = json.load(fh)
    with open(os.path.join(out_dir, "ratios_summary.json")) as fh:
        rsummary = json.load(fh)
    if summary.get("runs") != runs or rsummary.get("n") != runs:
        problems.append(f"summary runs {summary.get('runs')} / n {rsummary.get('n')}, "
                        f"requested {runs}")
    for stat, skey, rkey in (("median", "median_ratio", "median"),
                             ("worst", "worst_ratio", "worst"),
                             ("mean", "mean_ratio", "mean"),
                             ("ci95", "ci95_halfwidth", "ci_halfwidth")):
        tol = 1e-6 if stat == "ci95" else REL
        for name, doc, key in (("summary.json", summary, skey),
                               ("ratios_summary.json", rsummary, rkey)):
            if not _close(doc.get(key, math.nan), expect[stat], tol):
                problems.append(f"{name}: {key} {doc.get(key)} != {expect[stat]}")
    return problems


ARTIFACTS = ("results.csv", "summary.json", "topology.json", "ratios.csv",
             "ratios_summary.json", "trace.csv")


def compare_artifacts(dir_a: str, dir_b: str) -> list[str]:
    """Problems unless both directories hold byte-identical artifacts."""
    problems = []
    for name in ARTIFACTS:
        pa, pb = os.path.join(dir_a, name), os.path.join(dir_b, name)
        if os.path.exists(pa) != os.path.exists(pb):
            problems.append(f"{name}: present in only one of {dir_a}, {dir_b}")
        elif os.path.exists(pa):
            with open(pa, "rb") as fa, open(pb, "rb") as fb:
                if fa.read() != fb.read():
                    problems.append(f"{name}: differs between {dir_a} and {dir_b}")
    return problems
