"""Competitive analysis: the empirical ratio study, which draws what
one-period `engine.Replication`s would, in stacked chunks of attempts, and
replays them through both the randomized policy (`schedulers.RoaPolicy`, on
the frozen tags) and the offline oracle. A chunk of attempts is the sweep's
chunk of records (`engine._Chunk`): its seed streams come from one hash pass
(`engine.SeedStack`), and each stream draws from a fresh generator of its
hashed words (`SeedStack.rng`).
"""
from __future__ import annotations

import csv
import json
import math
import os
from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np

from . import oracle
from .energy import harvest_trace
# build_topology is not called here: a chunk's topologies are placed by
# engine._Chunk. bench/test_bench.py checks that the tracer wraps it here.
from .engine import (  # noqa: F401
    ScenarioConfig, SeedStack, _Chunk, build_topology, chunk_size, replay_on_failure,
)
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
        # np.median's partition and mean, without the numpy.ma import of its NaN check
        k = n // 2
        part = np.partition(ratios, [k, -1] if n % 2 else [k - 1, k, -1])
        return cls(
            ratios=ratios,
            median=float(part[-1] if np.isnan(part[-1]) else part[k - 1 + n % 2:k + 1].mean()),
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

    Attempt a draws from (cfg.seed, a) what a one-period
    `engine.Replication.draw` would, from the same seed children (one per
    stream of `engine.STREAMS`, stacked per chunk as `SeedStack`), but only
    what the study reads. Attempts are taken in chunks of at most
    `engine.chunk_size`, never more than the runs still needed nor past the
    cap below, so a chunk holds no attempt that a loop over one attempt at a
    time would not reach. A chunk is the sweep's `engine._Chunk` of its
    attempts: it places each attempt's topology from its own topology child,
    and associates and prices the all-ON set of every topology in one
    stacked pass each, which checks that every UE has a positive rate, and
    freezes the served attempts' tags. An attempt whose all-ON association
    serves no SBS is skipped there, before any harvest or policy draw, and
    draws from no other stream. Every subset's prices take one more stacked
    pass, up to the first attempt over the budget, which raises once they
    are built; `oracle.build_tables` makes the tables and the plain-float
    rows the search reads once per served-cell count for the chunk. Then,
    one served attempt at a time, in attempt order: the budget check, the
    harvest (from the harvest child), the randomized OFF times snapped down
    to the slot grid, and the policy and the exhaustive optimum costed with
    the same slot-level accounting on the same trace, in one
    `oracle.optimum_and_row` pass. Attempts whose optimum is zero are
    skipped too; more than ten attempts per run raise
    `DegenerateStudyError`. A chunk in which anything fails is run again one
    attempt at a time (`engine.replay_on_failure`, as a sweep's chunk of
    records is), so the failure raised is the first in attempt order, as a
    loop over one attempt at a time raises it.

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
    study_cfg = replace(cfg, horizon_periods=1)
    size = chunk_size(study_cfg)
    ratios: list[float] = []
    attempts = 0
    while len(ratios) < n_runs:
        left = 10 * n_runs - attempts
        if not left:
            raise DegenerateStudyError(
                f"too many degenerate replications: {attempts} attempts "
                f"for {len(ratios)} of {n_runs} runs (no served SBSs, or a zero optimum)")
        chunk = range(attempts + 1, attempts + 1 + min(n_runs - len(ratios), left, size))
        ratios += replay_on_failure(lambda rows: _study_chunk(study_cfg, rows, budget), chunk)
        attempts = chunk[-1]
    report = RatioReport.from_ratios(np.array(ratios))
    if out_dir is not None:
        report.save(out_dir)
    return report


def _study_chunk(cfg: ScenarioConfig, attempts: Sequence[int], budget: int) -> list[float]:
    """The ratios of the accepted attempts of one chunk, in attempt order."""
    n_steps, dt = cfg.n_steps, cfg.dt
    chunk = _Chunk(cfg, SeedStack(cfg.seed, attempts), range(len(attempts)))
    tags = [chunk.tags[k] for k in chunk.served]
    # no attempt past the first over the budget, which raises once its tables are built
    over = [(n_steps + 1) ** len(t) > budget for t in tags] + [True]
    served = chunk.served[:over.index(True) + 1]
    ratios = []
    for k, t, tables in zip(served, tags,
                            oracle.build_tables(chunk.epochs[0].take(served), tags[:len(served)],
                                                cfg.weights, cfg.q, cfg.file_bits, dt)):
        required = (n_steps + 1) ** tables.used.size
        if required > budget:
            raise oracle.BudgetError(required, budget)
        trace = harvest_trace(cfg.harvest, dt, n_steps, cfg.n_sbs, chunk.seeds.rng(k, "harvest"))
        # one study stream for every cell, so the draws follow the tags' order
        policy = RoaPolicy()
        policy.reset(t, cfg.period, [chunk.seeds.rng(k, "policy")] * cfg.n_sbs)
        # each OFF time snapped down to the slot grid, whose study rows start at 1
        row = [max(min(int(math.floor(policy.off_times[tag.sbs] / dt + 1e-9)), n_steps), 1)
               for tag in t]
        opt, realized = oracle.optimum_and_row(
            tables, trace[:, tables.used - 1], row, cfg.initial_energy, cfg.capacity, dt,
            n_steps)
        if opt > 0.0:
            ratios.append(realized / opt)
    return ratios
