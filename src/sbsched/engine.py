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
`min(e + h - c, cap)`, written as the oracle's `_slot_step` writes it.

Policies enter the loop as data. A scheduled policy (DOA, ROA, fixed,
adaptive) becomes one OFF slot per served cell after its `reset`: the first
slot whose start is not before the cell's OFF time, where the cell switches
OFF and buys unless it is already OFF. Adaptive moves an ON cell's OFF slot
when `AdaptivePolicy.observe` sees its live rent fall; a rent changes only
with the table entry, so it is observed when a slot starts on a new one.
The storage threshold is a test made inline. Network state (association,
live rents, power draw, delays) is a function of the ON set and the SBS
transmit power only: it is read from a `pricing.OnSetTable`, one per
transmit-power epoch. An entry is looked up only when the ON set or the
epoch changes.

A run is a `Replication` record and a `Policy`: `run_horizon(rep, policy)`
reads its scenario, topology, tables and harvest from the record. What no
policy can change is computed from the record once, on first use, and shared
by every policy run on it: the slot grid and its epochs, the served cells,
and per period their arrivals as floats, the storage of the cells that stay
OFF and the harvest totals. A run then pays for its served cells' slots, and
seeds a generator for each served cell only, and only for a policy that
`draws`.

A run pays for no slot in which nothing can change. Once every served cell of
a scheduled policy is OFF, none comes back ON or runs dry, and the all-OFF
ON set's `on_delay` is 0: an untraced run leaves the slot loop, and the
served cells' storage becomes the clamped running sum of their remaining
arrivals, as for the cells that stay OFF. A record with no served cell gives
the same periods under every policy: `run_horizon` computes them once, with
read-only arrays, and returns them to every later run that asks for no trace.

Two accounting modes exist: "live" charges the instantaneous rent rate of the
current state (the original problem), "frozen" charges the period-start flat
rate and also freezes the power draw, which fully decouples the SBSs (the
approximated problem).
"""
from __future__ import annotations

import math
from bisect import bisect_left
from collections.abc import Sequence
from dataclasses import dataclass, field, fields
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import energy as energy_mod
from . import network, pricing
from .energy import POISSON_MEAN_MAX, EnergyState, HarvestParams
from .network import Topology, dbm_to_watts
from .pricing import CostWeights
from .schedulers import AdaptivePolicy, Policy, ThresholdPolicy


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
    price_mode: str = "live"  # "live" (original problem) or "frozen" (approximated)
    # optional SBS transmit-power updates within each period: ((time, watts), ...)
    sbs_tx_schedule: tuple[tuple[float, float], ...] = ()

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
        if self.harvest_rate * self.dt > POISSON_MEAN_MAX:
            raise ValueError(f"harvest_rate * dt must not exceed {POISSON_MEAN_MAX!r}")
        # a Poisson count is below 2**63: bound a period's arrivals, summed
        # over its slots and cells, so that they cannot overflow
        if not math.isfinite(self.harvest_quantum * 2**63 * self.n_steps * max(self.n_sbs, 1)):
            raise ValueError("harvest_quantum * 2**63 * n_steps * max(n_sbs, 1) must be finite")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if self.n_ue < 1 or self.n_sbs < 0:
            raise ValueError("need n_ue >= 1 and n_sbs >= 0")
        if self.sbs_max_users < 1 or self.mbs_max_users < 1:
            raise ValueError("sbs_max_users and mbs_max_users must be >= 1")
        if not all(0.0 < side < math.inf for side in self.area):
            raise ValueError("area width and height must be positive and finite")
        # no link is longer than the area's diagonal, nor has a smaller gain
        if not min(network.channel_gain(math.hypot(*self.area), kind)
                   for kind in network.PATH_LOSS) > 0.0:
            raise ValueError("area is too large: a channel gain across it is 0")
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


class CostOverflowError(ValueError):
    """A total of finite costs overflows a float."""


@dataclass(eq=False)
class PeriodResult:
    """Per-period accounting and metrics; per-SBS arrays are indexed by SBS-1.
    `buy_price`, `energy_harvested` and `used` depend on the record and the
    period only: they are read-only, shared by the runs of a record. A period
    with no served cell is shared whole, with every array read-only. A
    result is not changed once made, so `to_dict` computes its row once."""

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

    def to_dict(self) -> dict:
        return dict(self._row)  # a copy per caller of the row, computed once

    @cached_property
    def _row(self) -> dict:
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
    return network.place_nodes(cfg.area, cfg.n_sbs, cfg.n_ue, rng, **_node_params(cfg))


def build_topologies(cfg: ScenarioConfig,
                     rngs: Sequence[np.random.Generator]) -> network.TopologyStack:
    """`build_topology` with each generator of `rngs`, stacked."""
    return network.place_stack(cfg.area, cfg.n_sbs, cfg.n_ue, rngs, **_node_params(cfg))


def _node_params(cfg: ScenarioConfig) -> dict:
    return dict(
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
    record: Replication | None = None,
) -> tuple[PeriodResult, EnergyState]:
    """Simulate one period of length T on the slot grid.

    `trace` is the (n_steps, n_sbs) harvest record for this period; `energy`
    is mutated in place and returned. `policy_rngs` holds a generator for each
    served cell, by 0-based SBS index. When `trace_rows` is a list, one row of
    (t, sbs_id, sigma, stored, assoc_count, rent_rate) is appended per slot
    and SBS.

    With a `record`, `cfg`, `topo` and `trace` must be its own scenario,
    topology and harvest of period `period_index`, and `energy` must carry its
    earlier periods as `run_horizon` chains them: the tables, the slot grid,
    the served cells and the storage of the cells that stay OFF are then read
    from the record, which computes them once for all the policies run on it.
    Without one, they are computed here, for this call.
    """
    n_bs, n_sbs, n_steps, dt = topo.n_bs, topo.n_sbs, cfg.n_steps, cfg.dt
    cap = energy.capacity
    if record is None:
        tables = epoch_tables(cfg, topo)
        plan = _period_plan(cfg, tables)
        start = _period_start(energy.stored, trace, plan.cells, cap)
    else:
        if (cfg is not record.cfg or topo is not record.topo
                or trace is not record.harvest[period_index]):
            raise ValueError("cfg, topo and trace must be the record's")
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
    # the policy as data (see the module docstring). A cell's OFF slot is the
    # first k with `not grid[k] < off`, so a NaN OFF time gives slot 0 and one
    # past the last slot start gives none. A moved slot is never before the
    # current one, and the cell is skipped at its old one.
    k_percent = None
    adaptive = isinstance(policy, AdaptivePolicy)
    if isinstance(policy, ThresholdPolicy):
        k_percent = policy.k_percent
        if m and cap <= 0:
            raise ValueError("storage capacity must be positive")
    else:
        off_slot = [bisect_left(grid, policy.off_times[j]) for j in ids]
        off_at = {}
        for p, slot in enumerate(off_slot):
            off_at.setdefault(slot, []).append(p)
    sigma = np.zeros(n_bs, dtype=bool)
    sigma[0] = True
    sigma[ids] = True
    # table[sigma], looked up when the ON set or the epoch changes, and the
    # entries that `psi`, the accrual values and the observed rents were read from
    entry = psi_entry = slot_entry = rent_entry = None
    # an untraced scheduled run leaves the loop once every served cell is OFF
    # (see the module docstring)
    may_finish = k_percent is None and trace_rows is None
    finished = False

    for k in range(n_steps if m or trace_rows is not None else 0):
        t = grid[k]
        if k in epoch_at:
            table = tables[epoch_at[k]]
            entry = None
        h = harvest[k]

        # voluntary decisions: a switch OFF charges the buy price once
        changed = False
        if k_percent is None:
            if adaptive:
                if entry is None:
                    entry = table[sigma]
                if entry is not rent_entry:  # a rent changes only with the entry
                    rent_entry = entry
                    for p, j in enumerate(ids):
                        if on[p] and policy.observe(j, t, entry.rent_values[j]):
                            slot = max(bisect_left(grid, policy.off_times[j]), k)
                            off_slot[p] = slot
                            off_at.setdefault(slot, []).append(p)
            for p in off_at.get(k, ()):
                if on[p] and off_slot[p] == k:
                    on[p] = sigma[ids[p]] = False
                    bought[p] = True
                    switch[p] += 1
                    changed = True
        else:
            for p, j in enumerate(ids):
                if depleted[p]:
                    continue
                want_on = 100.0 * stored[p] / cap > k_percent
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
            finished = may_finish and not any(on)
        # storage step: credit the arrivals, charge the slot, clamp at cap
        # (`min(x, cap)` to the bit, without the builtin call)
        for p in range(m):
            if on[p]:
                consumed = psi[p] * dt
                if consumed > stored[p] + h[p] + 1e-9:
                    raise RuntimeError(
                        "consumption exceeds available energy; depletion check was skipped")
                rent_acc[p] += rent[p] * dt
                on_acc[p] += dt
                consumed_acc[p] += consumed
                x = stored[p] + h[p] - consumed
            else:
                x = stored[p] + h[p]
            stored[p] = cap if cap < x else x
        delay_acc += delay
        if finished:
            break

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

    if finished:  # the clamped running sum of the arrivals left, as for idle cells
        tail = np.cumsum(np.vstack((stored, trace[k + 1:, cells])), axis=0)[-1].tolist()
        stored = [cap if cap < x else x for x in tail]
    energy.stored[:] = idle_stored[-1]
    energy.stored[cells] = stored

    def per_sbs(values: list, dtype=float) -> np.ndarray:
        return _per_sbs(n_sbs, cells, values, dtype)

    rent_cost, buy_charged = per_sbs(rent_acc), per_sbs(bought, bool)
    with np.errstate(over="ignore"):  # an overflow raises below, without a warning
        total_cost = float((rent_cost + buy_prices * buy_charged).sum())
    if not math.isfinite(total_cost):
        raise CostOverflowError(
            f"period {period_index}: the total cost overflows ({total_cost!r})")
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
        total_cost=total_cost,
        delay_per_sbs=delay_acc / n_steps,
        unused_fraction=(n_sbs - m) / n_sbs if n_sbs else 0.0,
    )
    return result, energy


class ReplicationSeeds(NamedTuple):
    """The children of one replication's seed, one per draw, in the order
    they are spawned: the topology's, the harvest's and the policies'."""

    topo: np.random.SeedSequence
    harvest: np.random.SeedSequence
    policy: np.random.SeedSequence

    @classmethod
    def spawn(cls, seed: int | Sequence[int] | np.random.SeedSequence) -> "ReplicationSeeds":
        return cls(*(cls.child(seed, name) for name in cls._fields))

    @classmethod
    def child(cls, seed: int | Sequence[int] | np.random.SeedSequence,
              name: str) -> np.random.SeedSequence:
        """The child `name` of `seed`'s `SeedSequence`, equal to the one
        `spawn` would make, built alone and without the parent's."""
        return _child(seed, cls._fields.index(name))


def _child(seed: int | Sequence[int] | np.random.SeedSequence,
           i: int) -> np.random.SeedSequence:
    """The i-th child of `seed`'s `SeedSequence`, as its `spawn` makes it."""
    if isinstance(seed, np.random.SeedSequence):
        return np.random.SeedSequence(seed.entropy, spawn_key=seed.spawn_key + (i,),
                                      pool_size=seed.pool_size)
    return np.random.SeedSequence(seed, spawn_key=(i,))


@dataclass(frozen=True, eq=False)
class Replication:
    """The randomness of one seed under one scenario, drawn once: that
    scenario (`cfg`), the topology, its ON-set tables (`epoch_tables`), one
    read-only (n_steps, n_sbs) harvest trace per period, and the seed of the
    policies' draws. Policies run on one record face the same draws and share
    the tables' entries, and what no policy can change (the slot grid, the
    served cells, the storage of the cells that stay OFF) is computed on first
    use, once for the record."""

    cfg: ScenarioConfig
    topo: Topology
    tables: tuple[pricing.OnSetTable, ...]
    harvest: tuple[np.ndarray, ...]
    policy_ss: np.random.SeedSequence
    _starts: list[_PeriodStart] = field(default_factory=list, init=False, repr=False)
    # with no served cell, the periods of every policy: computed once
    _idle: list[PeriodResult] = field(default_factory=list, init=False, repr=False)

    @classmethod
    def draw(cls, cfg: ScenarioConfig, seed: int | np.random.SeedSequence) -> "Replication":
        seeds = ReplicationSeeds.spawn(seed)
        topo = build_topology(cfg, np.random.default_rng(seeds.topo))
        harvest_rng = np.random.default_rng(seeds.harvest)
        harvest = [energy_mod.harvest_trace(cfg.harvest, cfg.dt, cfg.n_steps, cfg.n_sbs,
                                            harvest_rng) for _ in range(cfg.horizon_periods)]
        for trace in harvest:
            trace.flags.writeable = False
        return cls(cfg, topo, tuple(epoch_tables(cfg, topo)), tuple(harvest), seeds.policy)

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
        rngs: list[np.random.Generator | None] = [None] * self.cfg.n_sbs
        for i in self.plan.cells:
            rngs[i] = np.random.default_rng(_child(self.policy_ss, i))
        return rngs


def run_horizon(rep: Replication, policy: Policy,
                trace_rows: list | None = None) -> list[PeriodResult]:
    """Run `policy` on the record `rep` under the record's own scenario:
    chain its `horizon_periods` periods, carrying stored energy across
    boundaries. All randomness comes from the record, so one record and a
    fresh policy of one kind give identical results.

    A record with no served cell gives the same periods under every policy:
    they are computed once, read-only, and returned to every later run that
    asks for no trace.
    """
    idle = not rep.plan.cells
    if idle and rep._idle and trace_rows is None:
        return list(rep._idle)
    cfg = rep.cfg
    policy_rngs = rep.policy_rngs() if policy.draws else [None] * cfg.n_sbs
    energy = EnergyState.fresh(cfg.n_sbs, cfg.initial_energy, cfg.capacity)
    results = []
    for p, trace in enumerate(rep.harvest):
        res, energy = run_period(
            cfg, rep.topo, energy, policy, policy_rngs, trace,
            period_index=p, trace_rows=trace_rows, record=rep,
        )
        results.append(res)
    if idle and not rep._idle:
        for res in results:
            for f in fields(res):
                value = getattr(res, f.name)
                if isinstance(value, np.ndarray):
                    value.flags.writeable = False
        rep._idle.extend(results)
    return results
