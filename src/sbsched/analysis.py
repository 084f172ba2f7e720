"""Competitive analysis: the empirical ratio study that replays one-period
`engine.Replication`s through both the randomized policy
(`schedulers.RoaPolicy`, on the frozen tags) and the offline oracle.
"""
from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass, replace

import numpy as np

from . import network, oracle
from .energy import harvest_trace
from .engine import ReplicationSeeds, ScenarioConfig, build_topology, epoch_tables
from .schedulers import RoaPolicy


class DegenerateStudyError(RuntimeError):
    """A ratio study drew too many attempts without a cell to schedule."""


@dataclass
class RatioReport:
    """Per-replication online/offline cost ratios with summary statistics."""

    ratios: np.ndarray
    median: float
    worst: float
    mean: float
    ci_halfwidth: float  # 95%; for n < 100 holds (max - min)/2 instead

    @classmethod
    def from_ratios(cls, ratios: np.ndarray) -> "RatioReport":
        ratios = np.asarray(ratios, dtype=float)
        if ratios.size == 0:
            raise ValueError("no ratios recorded")
        n = ratios.size
        if n >= 100:
            half = 1.96 * float(ratios.std(ddof=1)) / math.sqrt(n)
        else:
            half = (float(ratios.max()) - float(ratios.min())) / 2.0
        return cls(
            ratios=ratios,
            median=float(np.median(ratios)),
            worst=float(ratios.max()),
            mean=float(ratios.mean()),
            ci_halfwidth=half,
        )

    def save(self, out_dir: str) -> None:
        """Persist the raw ratios (`ratios.csv`, one row per replication) and a
        summary (`ratios_summary.json`)."""
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "ratios.csv"), "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["replication", "ratio"])
            for i, r in enumerate(self.ratios):
                writer.writerow([i, repr(float(r))])
        summary = {
            "n": int(self.ratios.size),
            "median": self.median,
            "worst": self.worst,
            "mean": self.mean,
            "ci_halfwidth": self.ci_halfwidth,
        }
        with open(os.path.join(out_dir, "ratios_summary.json"), "w") as fh:
            json.dump(summary, fh, indent=2)
            fh.write("\n")


def empirical_cr_study(
    cfg: ScenarioConfig,
    n_runs: int,
    budget: int = 1_000_000,
    out_dir: str | None = None,
) -> RatioReport:
    """Ratio of the randomized policy's realized cost to the offline optimum.

    Each attempt draws from (cfg.seed, attempt) what a one-period
    `engine.Replication.draw` would (`ReplicationSeeds`), but only what the
    study reads. An attempt whose all-ON association serves no SBS is
    skipped before any price, harvest or policy draw, once every UE's rate
    is checked. A served attempt builds its table on that association, snaps
    the randomized OFF times down to the slot grid and costs the policy and
    the exhaustive optimum with the same slot-level accounting on the same
    trace, in one `oracle.optimum_and_row` pass. Attempts whose optimum is
    zero are skipped too; more than ten attempts per run raise
    `DegenerateStudyError`.

    The optimum is the least cost over the grid of every served cell's OFF
    index in 1..n_steps: the closed form's minimum over that grid when no
    battery can run dry, and otherwise a walk over slot prefixes that drops
    each prefix whose rent plus buys so far already reach the best schedule
    found. That bound is exact: rents and buys are non-negative and rounded
    float addition is monotone, so the minimum has the grid's bits. The
    policy's realized cost is its one row of that grid: read from the closed
    form's grid, or walked along the row's own slots with the slot step the
    search takes; the same bits as `oracle.evaluate_schedules` gives it.

    Every SBS starts the period ON, so schedules — online and offline alike —
    keep a served SBS ON for at least one slot before a voluntary OFF can
    take effect. Because both sides search/act on the same restricted grid,
    realized/optimal >= 1 holds exactly. The oracle prices a single
    transmit-power epoch, so a `sbs_tx_schedule` is rejected.
    """
    if n_runs < 1:
        raise ValueError("need at least one run")
    if cfg.sbs_tx_schedule:
        raise ValueError("the ratio study prices one epoch; sbs_tx_schedule must be empty")
    n_steps, dt = cfg.n_steps, cfg.dt
    study_cfg = replace(cfg, horizon_periods=1)
    ratios = []
    run = 0
    attempts = 0
    while run < n_runs:
        attempts += 1
        if attempts > 10 * n_runs:
            raise DegenerateStudyError(
                f"too many degenerate replications: {attempts - 1} attempts "
                f"for {run} of {n_runs} runs (no served SBSs, or a zero optimum)")
        seeds = ReplicationSeeds.spawn(np.random.SeedSequence([cfg.seed, attempts]))
        topo = build_topology(study_cfg, np.random.default_rng(seeds.topo))
        state = network.associate(np.ones(topo.n_bs, dtype=bool), topo)
        if not state.counts[1:].any():
            # every UE is on the MBS: no cell to schedule
            network.all_bs_delays(state, topo, cfg.file_bits)  # raises on a zero rate
            continue
        (table,) = epoch_tables(study_cfg, topo)
        table.add(state)
        tables = oracle.build_tables(table)
        m = tables.used.size
        required = (n_steps + 1) ** m
        if required > budget:
            raise oracle.BudgetError(required, budget)
        trace = harvest_trace(cfg.harvest, dt, n_steps, cfg.n_sbs,
                              np.random.default_rng(seeds.harvest))
        # one study stream for every cell, so the draws follow the tags' order
        policy = RoaPolicy()
        policy.reset(table.tags, cfg.period,
                     [np.random.default_rng(seeds.policy)] * cfg.n_sbs)
        # each OFF time snapped down to the slot grid, whose study rows start at 1
        row = [max(min(int(math.floor(policy.off_times[tag.sbs] / dt + 1e-9)), n_steps), 1)
               for tag in table.tags]
        opt, realized = oracle.optimum_and_row(
            tables, trace[:, tables.used - 1], row,
            cfg.initial_energy, cfg.capacity, dt, n_steps)
        if opt <= 0.0:
            continue
        ratios.append(realized / opt)
        run += 1
    report = RatioReport.from_ratios(np.array(ratios))
    if out_dir is not None:
        report.save(out_dir)
    return report
