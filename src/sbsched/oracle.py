"""Offline exhaustive search over per-SBS OFF times on the slot grid.

Works on a recorded scenario (topology, frozen prices, full harvest trace) so
every policy and the oracle face the same randomness. Because the number of
SBSs that actually serve UEs is small in oracle experiments, the live rent
and power rates of every ON-subset are read once from a `pricing.OnSetTable`,
and all OFF-time combinations are evaluated in one vectorized pass.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import network, pricing
from .pricing import CostWeights, PriceTag


class BudgetError(RuntimeError):
    """Exhaustive search would exceed the evaluation budget."""

    def __init__(self, required: int, budget: int) -> None:
        super().__init__(
            f"exhaustive search needs {required} evaluations, budget is {budget}"
        )
        self.required = required
        self.budget = budget


@dataclass(frozen=True)
class RecordedScenario:
    """Everything the offline oracle needs, sampled at the search resolution."""

    topo: network.Topology
    weights: CostWeights
    q: float
    file_bits: float
    period: float
    dt: float
    trace: np.ndarray  # (n_steps, n_sbs) harvested joules per slot
    initial_energy: float
    capacity: float

    @property
    def n_steps(self) -> int:
        n = self.period / self.dt
        if abs(n - round(n)) > 1e-9:
            raise ValueError("dt must divide the period")
        return int(round(n))


@dataclass(frozen=True)
class SubsetTables:
    """Live rent/power rates for every subset of the used SBSs.

    Row index is the bitmask over `used` (bit i = used[i] is ON); entries for
    OFF SBSs are zero. `psi_max` is the worst-case power draw per used SBS
    over all subsets that contain it.
    """

    used: np.ndarray  # indices (into topo.bs) of SBSs with UEs at t=0
    rent: np.ndarray  # (2^m, m)
    psi: np.ndarray  # (2^m, m)
    rent_sum: np.ndarray  # (2^m,)
    buys: np.ndarray  # (m,)
    psi_max: np.ndarray  # (m,)


def build_tables(table: pricing.OnSetTable, tags: list[PriceTag]) -> SubsetTables:
    """Every subset's rates, read from `table` (the one `tags` were frozen from)."""
    topo = table.topo
    all_on = table[np.ones(topo.n_bs, dtype=bool)].state
    used = np.array(
        [j for j in range(1, topo.n_bs) if all_on.n_members(j) > 0], dtype=int
    )
    m = used.size
    rent = np.zeros((1 << m, m))
    psi = np.zeros((1 << m, m))
    for mask in range(1 << m):
        on = (mask >> np.arange(m)) & 1 == 1
        sigma = np.zeros(topo.n_bs, dtype=bool)
        sigma[0] = True
        sigma[used[on]] = True
        entry = table[sigma]
        rent[mask] = np.where(on, entry.rent[used], 0.0)
        psi[mask] = entry.psi[used - 1]
    buys = np.array([tags[j - 1].buy for j in used])
    psi_max = psi.max(axis=0) if m else np.zeros(0)
    return SubsetTables(
        used=used, rent=rent, psi=psi, rent_sum=rent.sum(axis=1),
        buys=buys, psi_max=psi_max,
    )


def _depletion_possible(
    tables: SubsetTables, trace_used: np.ndarray, e0: float, cap: float,
    dt: float, n_steps: int,
) -> bool:
    """Conservative check: can any schedule deplete any used SBS?

    Tracks a per-SBS lower bound on stored energy assuming worst-case (always
    ON at the maximum subset power) consumption; the cap clamp keeps the
    bound valid when harvesting outpaces consumption.
    """
    e_lb = np.full(tables.used.size, float(e0))
    worst = tables.psi_max * dt
    for k in range(n_steps):
        h = trace_used[k]
        if np.any(e_lb + h < worst):
            return True
        e_lb = np.minimum(e_lb + h - worst, cap)
    return False


def evaluate_schedules(
    tables: SubsetTables,
    trace_used: np.ndarray,
    off_idx: np.ndarray,
    e0: float,
    cap: float,
    dt: float,
    n_steps: int,
) -> np.ndarray:
    """Realized problem cost of each OFF-index combination.

    off_idx is (C, m) with entries in 0..n_steps; an SBS is ON for slots
    k < off_idx (index n_steps means never voluntarily OFF, so no buy charge).
    Depletion forces an SBS OFF without a buy charge; a voluntary OFF in the
    same slot wins and does charge the buy price.
    """
    off_idx = np.atleast_2d(np.asarray(off_idx, dtype=np.int64))
    m = tables.used.size
    if m == 0:
        return np.zeros(off_idx.shape[0])
    if not _depletion_possible(tables, trace_used, e0, cap, dt, n_steps):
        return _evaluate_no_depletion(tables, off_idx, dt, n_steps)
    return _evaluate_stepwise(tables, trace_used, off_idx, e0, cap, dt, n_steps)


def _evaluate_no_depletion(
    tables: SubsetTables, off_idx: np.ndarray, dt: float, n_steps: int
) -> np.ndarray:
    """Closed-form cost when no SBS can deplete: nested ON-subsets over time."""
    c, m = off_idx.shape
    order = np.argsort(off_idx, axis=1, kind="stable")
    sorted_idx = np.take_along_axis(off_idx, order, axis=1)
    mask = np.full(c, (1 << m) - 1, dtype=np.int64)
    rent_cost = np.zeros(c)
    prev = np.zeros(c, dtype=np.int64)
    for pos in range(m):
        upto = np.minimum(sorted_idx[:, pos], n_steps)
        rent_cost += tables.rent_sum[mask] * (upto - prev) * dt
        mask = mask & ~(1 << order[:, pos])
        prev = np.maximum(prev, upto)
    buy_cost = (tables.buys[None, :] * (off_idx < n_steps)).sum(axis=1)
    return rent_cost + buy_cost


def _evaluate_stepwise(
    tables: SubsetTables,
    trace_used: np.ndarray,
    off_idx: np.ndarray,
    e0: float,
    cap: float,
    dt: float,
    n_steps: int,
) -> np.ndarray:
    c, m = off_idx.shape
    bits = (1 << np.arange(m)).astype(np.int64)
    on = np.ones((c, m), dtype=bool)
    depleted = np.zeros((c, m), dtype=bool)
    bought = np.zeros((c, m), dtype=bool)
    e = np.full((c, m), float(e0))
    rent_cost = np.zeros(c)
    for k in range(n_steps):
        vol_off = on & (k >= off_idx)
        bought |= vol_off  # vol_off implies not depleted (depleted => not on)
        on &= ~vol_off
        h = trace_used[k]
        while True:
            sidx = on @ bits
            psi = tables.psi[sidx]
            dep_now = on & (e + h[None, :] < psi * dt)
            if not dep_now.any():
                break
            depleted |= dep_now
            on &= ~dep_now
        rent_cost += tables.rent[sidx].sum(axis=1) * dt
        e = np.minimum(e + h[None, :] - psi * dt * on, cap)
    buy_cost = (bought * tables.buys[None, :]).sum(axis=1)
    return rent_cost + buy_cost


def all_combinations(m: int, n_steps: int) -> np.ndarray:
    """All OFF-index vectors on the grid {0, .., n_steps}, lexicographic order."""
    grids = np.indices((n_steps + 1,) * m).reshape(m, -1).T
    return grids.astype(np.int64)


def offline_exhaustive(
    scenario: RecordedScenario,
    grid_dt: float,
    budget: int = 1_000_000,
    tags: list[PriceTag] | None = None,
) -> tuple[np.ndarray, float]:
    """Minimize the realized problem cost over all per-SBS OFF times.

    Returns the per-SBS OFF times (seconds, one per SBS in the topology;
    SBSs without UEs stay OFF and report 0) and the optimal total cost.
    Ties break toward the lexicographically smallest OFF-time vector.
    """
    if abs(grid_dt - scenario.dt) > 1e-12:
        raise ValueError("the search grid must match the recorded resolution")
    topo = scenario.topo
    table = pricing.OnSetTable(topo, scenario.weights, scenario.q, scenario.file_bits)
    if tags is None:
        tags = pricing.freeze_prices(table, scenario.period)
    tables = build_tables(table, tags)
    n_steps = scenario.n_steps
    m = tables.used.size
    off_times = np.zeros(topo.n_sbs)
    if m == 0:
        return off_times, 0.0
    required = (n_steps + 1) ** m
    if required > budget:
        raise BudgetError(required, budget)
    combos = all_combinations(m, n_steps)
    trace_used = scenario.trace[:, tables.used - 1]
    costs = evaluate_schedules(
        tables, trace_used, combos, scenario.initial_energy, scenario.capacity,
        scenario.dt, n_steps,
    )
    best = int(np.argmin(costs))
    for i, j in enumerate(tables.used):
        off_times[j - 1] = combos[best, i] * scenario.dt
    return off_times, float(costs[best])
