"""Time-stepped simulation of scheduling periods.

Each period: read the served cells and their frozen prices from the ON-set
table (`pricing.OnSetTable.tags`), let the policy pick OFF times from them,
then advance slot by slot -- voluntary OFF (buy charged once), depletion
check (forced OFF, no buy; re-association can raise the load on the surviving
cells, so it repeats to a fixed point), cost accrual, storage update.

The slot loop keeps plain Python floats, and only for the cells that serve
UEs at the period start. The others stay OFF all period, so their storage is
the running sum of arrivals clamped at the capacity; with no served cell, the
slot loop runs only to write trace rows. The storage step is the float
`min(e + h - c, cap)`, as in the oracle's walk. The policy is asked every
slot for each served cell that may still switch. Network state (association,
live rents, power draw, delays) is a function of the ON set and the SBS
transmit power only: it is read from a `pricing.OnSetTable`, one per
transmit-power epoch. An entry is looked up only when the ON set or the
epoch changes.

The `Replication` record of one seed holds the topology, its tables, the
harvest and the seed of the policies' draws. What no policy can change is
computed from it once, on first use, and shared by every policy run on it:
the slot grid and its epochs, the served cells, and per period their
arrivals as floats, the storage of the cells that stay OFF and the harvest
totals. A run then pays for its served cells' slots, and seeds a generator
for each served cell only.

Two accounting modes exist: "live" charges the instantaneous rent rate of the
current state (the original problem), "frozen" charges the period-start flat
rate and also freezes the power draw, which fully decouples the SBSs (the
approximated problem).
"""
from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import energy as energy_mod
from . import network, pricing
from .energy import EnergyState, HarvestParams
from .network import Topology, dbm_to_watts
from .pricing import CostWeights
from .schedulers import Policy, make_policy


@dataclass(frozen=True)
class ScenarioConfig:
    """One simulation scenario; defaults mirror the reference desk-scale setup."""

    period: float = 10.0
    dt: float = 0.1
    horizon_periods: int = 2
    n_sbs: int = 6
    n_ue: int = 30
    area: tuple[float, float] = (500.0, 500.0)
    mbs_tx_power: float = dbm_to_watts(33.0)
    sbs_tx_power: float = dbm_to_watts(23.0)
    mbs_op_power: float = 20.0
    sbs_op_power: float = 10.0
    mbs_bandwidth: float = 10e6
    sbs_bandwidth: float = 10e6
    mbs_max_users: int = 50
    sbs_max_users: int = 10
    noise_power: float = dbm_to_watts(-104.0)
    file_bits: float = 1e5
    harvest_rate: float = 20.0
    harvest_quantum: float = 0.2
    initial_energy: float = 60.0
    capacity: float = 100.0
    q: float = 0.9
    alpha_d: float = 0.05
    alpha_p: float = 0.05
    alpha_b: float = 0.05
    seed: int = 0
    policy: str = "roa"
    price_mode: str = "live"  # "live" (original problem) or "frozen" (approximated)
    # optional SBS transmit-power updates within each period: ((time, watts), ...)
    sbs_tx_schedule: tuple[tuple[float, float], ...] = ()
    harvest_trace_file: str | None = None

    def __post_init__(self) -> None:
        if not (0.0 < self.period < math.inf and 0.0 < self.dt < math.inf):
            raise ValueError("period and dt must be positive and finite")
        n = self.period / self.dt
        if abs(n - round(n)) > 1e-9:
            raise ValueError("dt must divide the period evenly")
        if self.horizon_periods < 1:
            raise ValueError("horizon must cover at least one period")
        if self.price_mode not in ("live", "frozen"):
            raise ValueError("price_mode must be 'live' or 'frozen'")
        if not (0.0 <= self.initial_energy <= self.capacity):
            raise ValueError("initial energy must lie in [0, capacity]")
        if not (0.0 <= self.q <= 1.0):
            raise ValueError("q must lie in [0, 1]")
        self.weights  # CostWeights validates the cost weights
        self.harvest  # HarvestParams validates the rate and the quantum
        if self.n_ue < 1 or self.n_sbs < 0:
            raise ValueError("need n_ue >= 1 and n_sbs >= 0")
        if self.sbs_max_users < 1 or self.mbs_max_users < 1:
            raise ValueError("sbs_max_users and mbs_max_users must be >= 1")
        if not all(0.0 < side < math.inf for side in self.area):
            raise ValueError("area width and height must be positive and finite")
        for kind, tx, op in (("mbs", self.mbs_tx_power, self.mbs_op_power),
                             ("sbs", self.sbs_tx_power, self.sbs_op_power)):
            if not 0.0 < tx <= op < math.inf:
                raise ValueError(f"{kind}_tx_power must lie in (0, {kind}_op_power], "
                                 f"and {kind}_op_power must be finite")
        for name in ("mbs_bandwidth", "sbs_bandwidth", "noise_power", "file_bits"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite")
        times = [when for when, _ in self.sbs_tx_schedule]
        if any(t1 <= t0 for t0, t1 in zip(times, times[1:])):
            raise ValueError("sbs_tx_schedule times must strictly increase")
        if not all(0.0 <= when < self.period for when in times):
            raise ValueError("sbs_tx_schedule times must lie in [0, period)")
        if not all(0.0 < watts <= self.sbs_op_power for _, watts in self.sbs_tx_schedule):
            raise ValueError("sbs_tx_schedule powers must lie in (0, sbs_op_power]")

    @property
    def n_steps(self) -> int:
        return int(round(self.period / self.dt))

    @property
    def weights(self) -> CostWeights:
        return CostWeights(self.alpha_d, self.alpha_p, self.alpha_b)

    @property
    def harvest(self) -> HarvestParams:
        return HarvestParams(self.harvest_rate, self.harvest_quantum)


@dataclass(eq=False)
class PeriodResult:
    """Per-period accounting and metrics; per-SBS arrays are indexed by SBS-1.
    `buy_price`, `energy_harvested` and `used` depend on the record and the
    period only: they are read-only, shared by the runs of a record."""

    period_index: int
    rent_cost: np.ndarray
    buy_price: np.ndarray
    buy_charged: np.ndarray  # bool, x_j
    on_time: np.ndarray
    depleted_at: np.ndarray  # seconds, NaN if never
    switch_count: np.ndarray
    energy_consumed: np.ndarray
    energy_harvested: np.ndarray
    used: np.ndarray  # bool, SBS had UEs at the period start
    total_cost: float
    delay_per_sbs: float
    unused_fraction: float

    @property
    def per_sbs_cost(self) -> np.ndarray:
        return self.rent_cost + self.buy_price * self.buy_charged

    def to_dict(self) -> dict:
        n_used = int(self.used.sum())
        return {
            "period": self.period_index,
            "total_cost": self.total_cost,
            "rent_cost": float(self.rent_cost.sum()),
            "buy_cost": float((self.buy_price * self.buy_charged).sum()),
            "buy_count": int(self.buy_charged.sum()),
            "on_time_mean": float(self.on_time[self.used].mean()) if n_used else 0.0,
            "switch_count": int(self.switch_count.sum()),
            "energy_consumed": float(self.energy_consumed.sum()),
            "energy_harvested": float(self.energy_harvested.sum()),
            "delay_per_sbs": self.delay_per_sbs,
            "unused_fraction": self.unused_fraction,
            "n_used": n_used,
            "depleted_count": int(np.sum(~np.isnan(self.depleted_at))),
        }


def build_topology(cfg: ScenarioConfig, rng: np.random.Generator) -> Topology:
    return network.place_nodes(
        cfg.area, cfg.n_sbs, cfg.n_ue, rng,
        mbs_tx_power=cfg.mbs_tx_power, mbs_op_power=cfg.mbs_op_power,
        mbs_bandwidth=cfg.mbs_bandwidth, mbs_max_users=cfg.mbs_max_users,
        sbs_tx_power=cfg.sbs_tx_power, sbs_op_power=cfg.sbs_op_power,
        sbs_bandwidth=cfg.sbs_bandwidth, sbs_max_users=cfg.sbs_max_users,
        noise_power=cfg.noise_power,
    )


def epoch_tables(cfg: ScenarioConfig, topo: Topology) -> list[pricing.OnSetTable]:
    """One ON-set table per transmit-power epoch of a period: the base
    topology, then one per `sbs_tx_schedule` change."""
    epoch_topos = [topo] + [topo.with_sbs_tx_power(p) for _, p in cfg.sbs_tx_schedule]
    return [pricing.OnSetTable(tp, cfg.weights, cfg.q, cfg.file_bits, cfg.period)
            for tp in epoch_topos]


class _PeriodPlan(NamedTuple):
    """What every period of one topology shares, whatever the policy."""

    grid: list[float]  # slot start times
    # the slots where the transmit-power epoch changes, mapped to the new
    # epoch: each slot's epoch is the latest scheduled change at or before
    # the slot start
    epoch_at: dict[int, int]
    tags: tuple[pricing.PriceTag, ...]  # the served cells', from slot 0's table
    ids: list[int]  # the served SBSs
    cells: list[int]  # and their 0-based indices
    buy: np.ndarray  # (n_sbs,) the tags' buy prices, 0 elsewhere, read-only
    used: np.ndarray  # (n_sbs,) bool, the served cells, read-only


def _per_sbs(n_sbs: int, cells: list[int], values: list, dtype=float) -> np.ndarray:
    """The served cells' values, zero for every other cell."""
    out = np.zeros(n_sbs, dtype=dtype)
    out[cells] = values
    return out


def _period_plan(cfg: ScenarioConfig, tables: Sequence[pricing.OnSetTable]) -> _PeriodPlan:
    grid = (np.arange(cfg.n_steps) * cfg.dt).tolist()
    slot_epoch = np.searchsorted(
        [when for when, _ in cfg.sbs_tx_schedule], np.array(grid) + 1e-12, side="right",
    ).tolist()
    epoch_at = {k: e for k, e in enumerate(slot_epoch) if k == 0 or e != slot_epoch[k - 1]}
    tags = tables[epoch_at[0]].tags
    ids = [tag.sbs for tag in tags]
    cells = [j - 1 for j in ids]
    n_sbs = tables[0].topo.n_sbs
    buy = _per_sbs(n_sbs, cells, [tag.buy for tag in tags])
    used = _per_sbs(n_sbs, cells, [True] * len(cells), bool)
    buy.flags.writeable = used.flags.writeable = False
    return _PeriodPlan(grid, epoch_at, tags, ids, cells, buy, used)


class _PeriodStart(NamedTuple):
    """What one period's harvest fixes, whatever the policy."""

    harvest: list[list[float]]  # per slot, the served cells' arrivals
    # (n_steps + 1, n_sbs) storage of a cell that stays OFF, read-only
    idle_stored: np.ndarray
    harvested: np.ndarray  # (n_sbs,) arrival totals, read-only


def _period_start(stored: np.ndarray, trace: np.ndarray, cells: list[int],
                  cap: float) -> _PeriodStart:
    """`stored` is the storage at the period start; only the columns of cells
    that stay OFF are read from the result's `idle_stored`."""
    if np.any(trace < 0):
        raise ValueError("energy quantities must be non-negative")
    # Cells without UEs stay OFF all period: their storage is the running sum
    # of arrivals clamped at the capacity (exact, since once clamped, harvest
    # >= 0 keeps it there), and the arrival total is a running sum too.
    idle_stored = np.minimum(np.cumsum(np.vstack((stored, trace)), axis=0), cap)
    harvested = np.cumsum(np.vstack((np.zeros(trace.shape[1]), trace)), axis=0)[-1]
    idle_stored.flags.writeable = harvested.flags.writeable = False
    return _PeriodStart(trace[:, cells].tolist(), idle_stored, harvested)


def run_period(
    cfg: ScenarioConfig,
    topo: Topology,
    energy: EnergyState,
    policy: Policy,
    policy_rngs: Sequence[np.random.Generator | None],
    trace: np.ndarray,
    period_index: int = 0,
    trace_rows: list | None = None,
    *,
    tables: Sequence[pricing.OnSetTable] | None = None,
    record: Replication | None = None,
) -> tuple[PeriodResult, EnergyState]:
    """Simulate one period of length T on the slot grid.

    `trace` is the (n_steps, n_sbs) harvest record for this period; `energy`
    is mutated in place and returned. `policy_rngs` holds a generator for each
    served cell, by 0-based SBS index. When `trace_rows` is a list, one row of
    (t, sbs_id, sigma, stored, assoc_count, rent_rate) is appended per slot
    and SBS. `tables` are `epoch_tables(cfg, topo)`; they are built here when
    not given.

    With a `record`, `topo` and `trace` must be its topology and its harvest
    of period `period_index`, and `energy` must carry its earlier periods as
    `run_horizon` chains them: the tables, the slot grid, the served cells
    and the storage of the cells that stay OFF are then read from the record,
    which computes them once for all the policies run on it.
    """
    n_bs, n_sbs, n_steps, dt = topo.n_bs, topo.n_sbs, cfg.n_steps, cfg.dt
    cap = energy.capacity
    if record is None:
        if tables is None:
            tables = epoch_tables(cfg, topo)
        plan = _period_plan(cfg, tables)
        start = _period_start(energy.stored, trace, plan.cells, cap)
    else:
        if topo is not record.topo or trace is not record.harvest[period_index]:
            raise ValueError("topo and trace must be the record's")
        tables, plan = record.tables, record.plan
        start = record.period_start(period_index)
    grid, epoch_at, tags, ids, cells, buy_prices, used = plan
    table = tables[epoch_at[0]]
    policy.reset(tags, cfg.period, policy_rngs)
    idle_stored = start.idle_stored

    # plain-float state of the served cells, by position in `cells`
    m = len(cells)
    depleted_at = np.full(n_sbs, np.nan)
    stored = [float(energy.stored[i]) for i in cells]
    if stored and min(min(stored), cap) < 0:
        raise ValueError("energy quantities must be non-negative")
    harvest = start.harvest
    on = [True] * m
    depleted = [False] * m
    bought = [False] * m
    switch = [0] * m
    rent_acc = [0.0] * m
    on_acc = [0.0] * m
    consumed_acc = [0.0] * m
    delay_acc = 0.0

    frozen_mode = cfg.price_mode == "frozen"
    if frozen_mode:
        all_on = table[np.ones(n_bs, dtype=bool)]
        frozen_psi = [all_on.psi_values[i] for i in cells]
        frozen_rent = [all_on.rent_values[j] for j in ids]
    back_on, needs_rent = policy.switches_back_on, policy.needs_rent
    sigma = np.zeros(n_bs, dtype=bool)
    sigma[0] = True
    sigma[ids] = True
    # table[sigma], looked up when the ON set or the epoch changes, and the
    # entries that `psi` and the accrual values were last read from
    entry = psi_entry = slot_entry = None

    for k in range(n_steps if m or trace_rows is not None else 0):
        t = grid[k]
        if k in epoch_at:
            table = tables[epoch_at[k]]
            entry = None
        h = harvest[k]

        # voluntary decisions: a switch OFF charges the buy price once
        changed = False
        if needs_rent:
            if entry is None:
                entry = table[sigma]
            rent_now = entry.rent_values
        for p, j in enumerate(ids):
            if depleted[p] or not (on[p] or back_on):
                continue
            want_on = policy.desired_on(
                j, t, stored[p], cap, rent_now[j] if needs_rent else None)
            if on[p] and not want_on:
                on[p] = sigma[j] = False
                bought[p] = True
            elif not on[p] and want_on:
                on[p] = sigma[j] = True
            else:
                continue
            switch[p] += 1
            changed = True
        if changed or entry is None:
            entry = table[sigma]

        # forced OFF, no buy charge; re-associating can raise the load on
        # surviving cells, so repeat to a fixed point
        while True:
            if entry is not psi_entry:
                psi_entry = entry
                psi = frozen_psi if frozen_mode else [entry.psi_values[j - 1] for j in ids]
                if min(psi, default=0.0) < 0:
                    raise ValueError("energy quantities must be non-negative")
            dep_now = [p for p in range(m) if on[p] and stored[p] + h[p] < psi[p] * dt]
            if not dep_now:
                break
            for p in dep_now:
                on[p] = sigma[ids[p]] = False
                depleted[p] = True
                depleted_at[cells[p]] = t
                switch[p] += 1
            entry = table[sigma]

        if entry is not slot_entry:
            slot_entry = entry
            rent = frozen_rent if frozen_mode else [entry.rent_values[j] for j in ids]
            delay = entry.on_delay / m if m else 0.0
        # storage step: credit the arrivals, charge the slot, clamp at cap
        for p in range(m):
            if on[p]:
                consumed = psi[p] * dt
                if consumed > stored[p] + h[p] + 1e-9:
                    raise RuntimeError(
                        "consumption exceeds available energy; depletion check was skipped")
                rent_acc[p] += rent[p] * dt
                on_acc[p] += dt
                consumed_acc[p] += consumed
                stored[p] = min(stored[p] + h[p] - consumed, cap)
            else:
                stored[p] = min(stored[p] + h[p], cap)
        delay_acc += delay

        if trace_rows is not None:
            row_stored = idle_stored[k + 1].tolist()
            row_rent = [0.0] * n_sbs
            for p, i in enumerate(cells):
                row_stored[i] = stored[p]
                row_rent[i] = rent[p] if on[p] else 0.0
            for j in range(1, n_bs):
                trace_rows.append((
                    round(period_index * cfg.period + t, 10), j, int(sigma[j]),
                    row_stored[j - 1], entry.state.n_members(j), row_rent[j - 1],
                ))

    energy.stored[:] = idle_stored[-1]
    energy.stored[cells] = stored

    def per_sbs(values: list, dtype=float) -> np.ndarray:
        return _per_sbs(n_sbs, cells, values, dtype)

    rent_cost, buy_charged = per_sbs(rent_acc), per_sbs(bought, bool)
    result = PeriodResult(
        period_index=period_index,
        rent_cost=rent_cost,
        buy_price=buy_prices,
        buy_charged=buy_charged,
        on_time=per_sbs(on_acc),
        depleted_at=depleted_at,
        switch_count=per_sbs(switch, int),
        energy_consumed=per_sbs(consumed_acc),
        energy_harvested=start.harvested,
        used=used,
        total_cost=float((rent_cost + buy_prices * buy_charged).sum()),
        delay_per_sbs=delay_acc / n_steps,
        unused_fraction=(n_sbs - m) / n_sbs if n_sbs else 0.0,
    )
    return result, energy


@dataclass(frozen=True, eq=False)
class Replication:
    """The randomness of one seed under one scenario, drawn once: the
    topology, its ON-set tables (`epoch_tables`), one read-only
    (n_steps, n_sbs) harvest trace per period, and the seed of the policies'
    draws. Policies run on one record face the same draws and share the
    tables' entries, and what no policy can change (the slot grid, the served
    cells, the storage of the cells that stay OFF) is computed on first use,
    once for the record."""

    cfg: ScenarioConfig
    topo: Topology
    tables: tuple[pricing.OnSetTable, ...]
    harvest: tuple[np.ndarray, ...]
    policy_ss: np.random.SeedSequence
    _starts: list[_PeriodStart] = field(default_factory=list, init=False, repr=False)

    @classmethod
    def draw(cls, cfg: ScenarioConfig, seed: int | np.random.SeedSequence) -> "Replication":
        ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
        topo_ss, harvest_ss, policy_ss = ss.spawn(3)
        topo = build_topology(cfg, np.random.default_rng(topo_ss))
        n_steps, n_periods = cfg.n_steps, cfg.horizon_periods
        if cfg.harvest_trace_file is not None:
            # the file covers the whole horizon; each period reads its own slots
            harvest = np.split(energy_mod.load_harvest_trace(
                cfg.harvest_trace_file, cfg.n_sbs, cfg.dt, n_steps * n_periods), n_periods)
        else:
            harvest_rng = np.random.default_rng(harvest_ss)
            harvest = [energy_mod.harvest_trace(cfg.harvest, cfg.dt, n_steps, cfg.n_sbs,
                                                harvest_rng) for _ in range(n_periods)]
        for trace in harvest:
            trace.flags.writeable = False
        return cls(cfg, topo, tuple(epoch_tables(cfg, topo)), tuple(harvest), policy_ss)

    @cached_property
    def plan(self) -> _PeriodPlan:
        return _period_plan(self.cfg, self.tables)

    def period_start(self, p: int) -> _PeriodStart:
        """Period `p`'s start; an OFF cell starts it where period p - 1 left it."""
        starts = self._starts
        while len(starts) <= p:
            stored = (starts[-1].idle_stored[-1] if starts else EnergyState.fresh(
                self.cfg.n_sbs, self.cfg.initial_energy, self.cfg.capacity).stored)
            starts.append(_period_start(stored, self.harvest[len(starts)], self.plan.cells,
                                        float(self.cfg.capacity)))
        return starts[p]

    def policy_rngs(self) -> list[np.random.Generator | None]:
        """Fresh generators for a run: the i-th child of `policy_ss` (as
        `spawn` would make it) for each served cell i, None elsewhere."""
        ss = self.policy_ss
        rngs: list[np.random.Generator | None] = [None] * self.cfg.n_sbs
        for i in self.plan.cells:
            rngs[i] = np.random.default_rng(np.random.SeedSequence(
                ss.entropy, spawn_key=ss.spawn_key + (i,), pool_size=ss.pool_size))
        return rngs


def run_horizon(
    cfg: ScenarioConfig,
    seed: int | np.random.SeedSequence | Replication | None = None,
    policy: Policy | None = None,
    trace_rows: list | None = None,
) -> list[PeriodResult]:
    """Chain `horizon_periods` periods, carrying stored energy across boundaries.

    All randomness comes from a `Replication`: the one given, which must be
    drawn for this scenario, or one drawn from the seed (`cfg.seed` when None).
    Identical (config, seed) gives identical results.
    """
    rep = seed if isinstance(seed, Replication) else Replication.draw(
        cfg, cfg.seed if seed is None else seed)
    if policy is None:
        policy = make_policy(cfg.policy)
    policy_rngs = rep.policy_rngs()
    energy = EnergyState.fresh(cfg.n_sbs, cfg.initial_energy, cfg.capacity)
    results = []
    for p, trace in enumerate(rep.harvest):
        res, energy = run_period(
            cfg, rep.topo, energy, policy, policy_rngs, trace,
            period_index=p, trace_rows=trace_rows, record=rep,
        )
        results.append(res)
    return results
