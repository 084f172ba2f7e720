"""Time-stepped simulation of scheduling periods.

Each period: read the served cells and their frozen prices from the ON-set
table (`pricing.OnSetTable.tags`), let the policy pick OFF times from them,
then advance over the slots -- voluntary OFF (buy charged once), depletion
check (forced OFF, no buy; re-association can raise the load on the surviving
cells, so it repeats to a fixed point), cost accrual, storage update.

The period keeps plain Python floats, and only for the cells that serve UEs
at the period start. The others stay OFF all period, so their storage is the
running sum of arrivals clamped at the capacity (exact: once clamped,
arrivals >= 0 keep it there). The storage step is the float
`min(e + h - c, cap)`, written as the oracle's `_slot_step` writes it.

Policies enter the period as data. A scheduled policy (DOA, ROA, fixed,
adaptive) becomes one OFF slot per served cell after its `reset`: the first
slot whose start is not before the cell's OFF time, where the cell switches
OFF and buys unless it is already OFF. Adaptive moves an ON cell's OFF slot
when `AdaptivePolicy.observe` sees its live rent fall; a rent changes only
with the table entry, so it is observed when a slot starts on a new one.
The storage threshold is a test made inline. Network state (association,
live rents, power draw, delays) is a function of the ON set and the SBS
transmit power only: it is read from a `pricing.OnSetTable`, one per
transmit-power epoch. A run switches only the served cells, so every table
of the record learns them (`OnSetTable.ids`), and prices the sets of them
that its runs reach in one stacked pass from their second miss on. An entry
is looked up only when the ON set or the epoch changes, and the served
cells' power draws and rents are read from it as lists (`OnSetEntry.served`),
made once per entry, however often a slot lands on it.

Between two events a served cell's storage and accruals follow one fixed
recurrence, so the period is stepped in spans: at an event slot the voluntary
decisions and the depletion fixed point run, then each served cell alone
advances over its own arrivals to the span's end. The events are the next
scheduled OFF slot, the next transmit-power epoch change, and the period end.
A cell that would run dry inside a span ends it at that slot, which then
takes the fixed point, so re-association is what a slot walk gives. A span
makes, per cell and slot, the float operations of one slot in the same order
(the arrivals' credit, the strict test against `psi * dt`, the clamp, and the
rent, ON-time and consumption sums), and the delay is added once per slot. A
threshold or an adaptive run may decide in any slot, and a traced run writes
every slot, so these step spans of one slot. An OFF cell steps through a
span's slots with the clamped storage step `min(e + h, cap)`, which has the
bits of the running sum clamped once: once clamped, arrivals >= 0 keep it
there.

A run is a `Replication` record and a `Policy`: `run_horizon(rep, policy)`
reads its scenario, topology, tables and harvest from the record. A drawn
record is a row view of its chunk (`Replication.draw_chunk`), whose shared
work is done once, in stacked passes, and only when a run needs it: one seed
hash per `SeedStack`, which a sweep fills with up to `CHUNK` records
across sweep values; per chunk of at most `chunk_size` of one value's rows
(`_Chunk`, which the ratio study also reads), one placement, its copy per
transmit-power epoch and one all-ON association and pricing
pass, and, on first use, each record's arrivals from its own harvest child,
booked in one pass (`_harvest_book`: the period totals from one `cumsum`,
the OFF cells' storage from one clamped running sum, each with the bits of
a record booked alone). A record's topologies, tables and served cells'
arrivals are made from its rows on its first use; a record with no served
cell makes none untraced, and shares its scenario's idle plan. A record
built from its fields, and a record-less `run_period`, are stacks of one.
A policy that `draws` gets a generator per served cell, from words its
chunk hashes once.

A record with no served cell gives the same periods under every policy.
Untraced, such a period is read from the bookkeeping alone (`_idle_period`),
with no slot walk and no policy reset; `run_horizon` computes a record's
once, with read-only arrays, and returns them to every later run that asks
for no trace.

A period sets its result's row itself: a served period sums its per-cell
rent, buy charged, ON time, consumption and their rent plus buy as the rows of
one array, in one reduction whose rows have the bits of each summed alone,
and an idle period reads its row from the bookkeeping.

Two accounting modes exist: "live" charges the instantaneous rent rate of the
current state (the original problem), "frozen" charges the period-start flat
rate and also freezes the power draw, which fully decouples the SBSs (the
approximated problem).
"""
from __future__ import annotations

import math
import operator
from bisect import bisect_left, bisect_right
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from . import energy as energy_mod
from . import network, pricing
from .energy import POISSON_MEAN_MAX, EnergyState, HarvestParams
from .network import Topology, dbm_to_watts
from .pricing import CostWeights
from .schedulers import AdaptivePolicy, Policy, ThresholdPolicy


# the most slot-cells (n_steps * periods * max(n_sbs, 1)) that one record of
# an experiment may draw, which `cli` checks when it parses one: a record's
# harvest is drawn at once, 8 bytes a slot-cell (128 MiB at the cap)
MAX_SLOT_CELLS = 1 << 24


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
        if self.n_steps < 1:
            raise ValueError("the period must hold at least one slot of length dt")
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

    @cached_property
    def slot_grid(self) -> tuple[tuple[float, ...], dict[int, int]]:
        """The slot start times, and the slots where the transmit-power epoch
        changes, mapped to the new epoch: each slot's epoch is the latest
        scheduled change at or before the slot start. Computed once per
        scenario and shared by its records; neither is changed."""
        grid = (np.arange(self.n_steps) * self.dt).tolist()
        slot_epoch = np.searchsorted(
            [when for when, _ in self.sbs_tx_schedule], np.array(grid) + 1e-12, side="right",
        ).tolist()
        epoch_at = {k: e for k, e in enumerate(slot_epoch) if k == 0 or e != slot_epoch[k - 1]}
        return tuple(grid), epoch_at

    @cached_property
    def _idle_plan(self) -> "_PeriodPlan":
        """The plan of every record of the scenario with no served cell: made
        once, read-only, and shared."""
        return _period_plan(self, ())

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
    """The topology `rng` places: row 0 of `build_topologies(cfg, [rng])`."""
    return build_topologies(cfg, [rng]).take(0)


def build_topologies(cfg: ScenarioConfig, rngs: Iterable[np.random.Generator]) -> Topology:
    """The stack of the topologies of `cfg` that the generators of `rngs`
    place, in their order (`network.place_stack`)."""
    return network.place_stack(cfg.area, cfg.n_sbs, cfg.n_ue, rngs, **_node_params(cfg))


def _node_params(cfg: ScenarioConfig) -> dict:
    return dict(
        mbs_tx_power=cfg.mbs_tx_power, mbs_op_power=cfg.mbs_op_power,
        mbs_bandwidth=cfg.mbs_bandwidth, mbs_max_users=cfg.mbs_max_users,
        sbs_tx_power=cfg.sbs_tx_power, sbs_op_power=cfg.sbs_op_power,
        sbs_bandwidth=cfg.sbs_bandwidth, sbs_max_users=cfg.sbs_max_users,
        noise_power=cfg.noise_power,
    )


def _epoch_topologies(cfg: ScenarioConfig, topo: Topology) -> list[Topology]:
    """The topology, or stack, of each transmit-power epoch of a period:
    `topo`, then one per `sbs_tx_schedule` change."""
    return [topo] + [topo.with_sbs_tx_power(p) for _, p in cfg.sbs_tx_schedule]


def epoch_tables(cfg: ScenarioConfig, topo: Topology) -> list[pricing.OnSetTable]:
    """One ON-set table per transmit-power epoch of a period of `topo`."""
    return [pricing.OnSetTable(tp, cfg.weights, cfg.q, cfg.file_bits, cfg.period)
            for tp in _epoch_topologies(cfg, topo)]


class _PeriodPlan(NamedTuple):
    """What every period of one record shares, whatever the policy."""

    grid: tuple[float, ...]  # slot start times, the scenario's `slot_grid`
    epoch_at: dict[int, int]  # the epoch changes, the scenario's `slot_grid`
    tags: tuple[pricing.PriceTag, ...]  # the served cells', frozen at slot 0's epoch
    ids: list[int]  # the served SBSs
    cells: list[int]  # and their 0-based indices
    buy: np.ndarray  # (n_sbs,) the tags' buy prices, 0 elsewhere, read-only
    used: np.ndarray  # (n_sbs,) bool, the served cells, read-only


def _per_sbs(n_sbs: int, cells: list[int], values: list, dtype=float) -> np.ndarray:
    """The served cells' values, zero for every other cell."""
    out = np.zeros(n_sbs, dtype=dtype)
    out[cells] = values
    return out


def _period_plan(cfg: ScenarioConfig, tags: Sequence[pricing.PriceTag]) -> _PeriodPlan:
    """The plan of a record whose served cells have the price tags `tags`."""
    grid, epoch_at = cfg.slot_grid
    ids = [tag.sbs for tag in tags]
    cells = [j - 1 for j in ids]
    buy = _per_sbs(cfg.n_sbs, cells, [tag.buy for tag in tags])
    used = _per_sbs(cfg.n_sbs, cells, [True] * len(cells), bool)
    buy.flags.writeable = used.flags.writeable = False
    return _PeriodPlan(grid, epoch_at, tuple(tags), ids, cells, buy, used)


class _Harvest(NamedTuple):
    """What the harvest of one record's consecutive periods fixes, whatever
    the policy: a row of its chunk's bookkeeping (`_Book.row`). Its slots
    are those of the periods in turn."""

    harvested: np.ndarray  # (periods, n_sbs) arrival totals, read-only
    sums: list[float]  # each period's arrival totals summed over its cells
    # (slots + 1, n_sbs) storage of a cell that stays OFF, read-only
    idle_stored: np.ndarray
    arrivals: list[list[float]]  # per served cell, its arrivals in every slot


class _Book(NamedTuple):
    """The bookkeeping of a stack of records' arrivals (`_harvest_book`),
    each array with the stack on its leading axis and read-only."""

    arrivals: np.ndarray  # (records, slots, n_sbs)
    harvested: np.ndarray  # (records, periods, n_sbs) arrival totals
    sums: list[list[float]]  # per record, each period's totals summed
    idle_stored: np.ndarray  # (records, slots + 1, n_sbs)

    def row(self, k: int, cells: list[int]) -> _Harvest:
        """Record k's bookkeeping, with the arrivals of its served `cells`
        as floats, cell-major."""
        return _Harvest(self.harvested[k], self.sums[k], self.idle_stored[k],
                        self.arrivals[k][:, cells].T.tolist())


def _harvest_book(stored: np.ndarray, arrivals: np.ndarray, periods: int,
                  cap: float) -> _Book:
    """The bookkeeping of a stack of records' (records, slots, n_sbs)
    arrivals over `periods` periods of equal length, each record from
    `stored` (n_sbs,) at its first period's start, in one pass over the
    stack; `arrivals` is made read-only.

    The totals come from one `cumsum` over each period's slots, their sums
    over each row's contiguous cells, and an OFF cell's storage from one
    running sum over the slots, clamped at the capacity: exact across period
    boundaries too, since once clamped, harvest >= 0 keeps it there. Each
    has the bits of a record booked alone."""
    if np.any(arrivals < 0):
        raise ValueError("energy quantities must be non-negative")
    n, slots, n_sbs = arrivals.shape
    idle_stored = np.empty((n, slots + 1, n_sbs))  # first the totals' cumsum, in place
    shape = (n, periods, slots // periods, n_sbs)
    sums = np.cumsum(arrivals.reshape(shape), axis=2, out=idle_stored[:, 1:].reshape(shape))
    # + 0.0 turns a column of -0.0 arrivals, which passes the check, into +0.0
    harvested = sums[:, :, -1] + 0.0
    idle_stored[:, 0] = stored
    idle_stored[:, 1:] = arrivals
    np.cumsum(idle_stored, axis=1, out=idle_stored)
    np.minimum(idle_stored, cap, out=idle_stored)
    for value in (arrivals, harvested, idle_stored):
        value.flags.writeable = False
    # each row summed over the contiguous last axis, with the bits of its sum alone
    return _Book(arrivals, harvested, harvested.sum(axis=2).tolist(), idle_stored)


@lru_cache(maxsize=None)
def _idle_arrays(n_sbs: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The read-only zeros (float, bool, int) and NaNs that every idle period
    of n_sbs cells shares."""
    arrays = (np.zeros(n_sbs), np.zeros(n_sbs, dtype=bool), np.zeros(n_sbs, int),
              np.full(n_sbs, np.nan))
    for value in arrays:
        value.flags.writeable = False
    return arrays


def _idle_period(period_index: int, plan: _PeriodPlan, book: _Harvest, p: int) -> PeriodResult:
    """An untraced period with no served cell, the p-th of `book`: every cell
    stays OFF and costs nothing, and its storage ends at the clamped total of
    its arrivals. Every array is read-only, and the row is set here, without
    `_row`'s reductions."""
    n_sbs = len(plan.used)
    zero, no_buy, no_switch, never = _idle_arrays(n_sbs)
    unused = 1.0 if n_sbs else 0.0
    result = PeriodResult(
        period_index=period_index, rent_cost=zero, buy_price=plan.buy, buy_charged=no_buy,
        on_time=zero, depleted_at=never, switch_count=no_switch, energy_consumed=zero,
        energy_harvested=book.harvested[p], used=plan.used, total_cost=0.0, delay_per_sbs=0.0,
        unused_fraction=unused,
    )
    result.__dict__["_row"] = {  # primes `_row`'s cache
        "period": period_index, "total_cost": 0.0, "rent_cost": 0.0, "buy_cost": 0.0,
        "buy_count": 0, "on_time_mean": 0.0, "switch_count": 0, "energy_consumed": 0.0,
        "energy_harvested": book.sums[p], "delay_per_sbs": 0.0,
        "unused_fraction": unused, "n_used": 0, "depleted_count": 0,
    }
    return result


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
    earlier periods as `run_horizon` chains them: the tables, the served
    cells and the bookkeeping of the harvest are then read from the record,
    which computes them once for all the policies run on it. Without one,
    they are computed here, for this call, the bookkeeping as a stack of
    one. With no served cell and no `trace_rows`, the period is
    `_idle_period`'s, read from the bookkeeping alone: the policy is not
    reset, and a record's tables are not built.
    """
    n_steps, dt = cfg.n_steps, cfg.dt
    cap = energy.capacity
    if record is None:
        tables = epoch_tables(cfg, topo)
        plan = _period_plan(cfg, tables[cfg.slot_grid[1][0]].tags)
        book = _harvest_book(energy.stored, trace[None], 1, cap).row(0, plan.cells)
        p_book = 0
    else:
        if (cfg is not record.cfg or topo is not record.topo
                or trace is not record.harvest[period_index]):
            raise ValueError("cfg, topo and trace must be the record's")
        plan, book, p_book = record.plan, record.book, period_index
    if not plan.cells and trace_rows is None:
        energy.stored[:] = book.idle_stored[(p_book + 1) * n_steps]
        return _idle_period(period_index, plan, book, p_book), energy
    if record is not None:
        tables = record.tables
    n_bs, n_sbs = topo.n_bs, topo.n_sbs
    grid, epoch_at, tags, ids, cells, buy_prices, used = plan
    for table in tables:  # the run switches the served cells only
        table.ids = ids
    table = tables[epoch_at[0]]
    policy.reset(tags, cfg.period, policy_rngs)
    # the period's slot k is the book's slot `first + k`
    first = p_book * n_steps
    idle_stored, arrivals = book.idle_stored, book.arrivals

    # plain-float state of the served cells, by position in `cells`
    m = len(cells)
    depleted_at = np.full(n_sbs, np.nan)
    stored = [float(energy.stored[i]) for i in cells]
    if stored and min(min(stored), cap) < 0:
        raise ValueError("energy quantities must be non-negative")
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
        frozen_psi, frozen_rent = table[np.ones(n_bs, dtype=bool)].served(ids)
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
    # where a span ends (see the module docstring): at the next epoch change
    # or scheduled OFF slot. A threshold or an adaptive run may decide in any
    # slot, and a traced run writes every slot: these step one slot at a time
    one_slot = k_percent is not None or adaptive or trace_rows is not None
    if not one_slot:
        events = sorted({*epoch_at, *off_at, n_steps})
    sigma = np.zeros(n_bs, dtype=bool)
    sigma[0] = True
    sigma[ids] = True
    # table[sigma], looked up when the ON set or the epoch changes, and the
    # entries that the slot's values (`psi`, `rent`, `delay`) and the observed
    # rents were read from; an ON set changes only with `on`
    entry = psi_entry = rent_entry = None

    k = 0
    while k < n_steps:
        t = grid[k]
        if k in epoch_at:
            table = tables[epoch_at[k]]
            entry = None
        lo = first + k

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
            for p in range(m):  # a cell that ran dry stays OFF
                want_on = 100.0 * stored[p] / cap > k_percent
                if want_on is on[p] or depleted[p]:
                    continue
                on[p] = sigma[ids[p]] = want_on
                if not want_on:
                    bought[p] = True
                switch[p] += 1
                changed = True
        if changed or entry is None:
            entry = table[sigma]

        # forced OFF, no buy charge; re-associating can raise the load on
        # surviving cells, so repeat to a fixed point
        while True:
            if entry is not psi_entry:
                psi_entry = entry
                psi, rent = (frozen_psi, frozen_rent) if frozen_mode else entry.served(ids)
                delay = entry.on_delay / m if m else 0.0
            dep_now = [p for p in range(m) if on[p] and stored[p] + arrivals[p][lo] < psi[p] * dt]
            if not dep_now:
                break
            for p in dep_now:
                on[p] = sigma[ids[p]] = False
                depleted[p] = True
                depleted_at[cells[p]] = t
                switch[p] += 1
            entry = table[sigma]

        if one_slot:
            end = k + 1
        else:
            end = events[bisect_right(events, k)]

        # storage step: each served cell alone, from slot k to the span's
        # end, credits its arrivals, charges its slot if ON and clamps at cap
        # (`min(x, cap)` to the bit, without the builtin call). The slot's
        # fixed point has tested slot k, so a draw it did not see is a
        # caller's bug; an ON cell that would run dry at a later slot ends
        # the span there, and every cell is stepped again to that end. The
        # span's later slots, none in a span of one slot:
        later = range(lo + 1, first + end) if end > k + 1 else ()
        if later:
            saved = stored[:], rent_acc[:], on_acc[:], consumed_acc[:]
        while True:
            cut = end
            for p in range(m):
                col = arrivals[p]
                a = stored[p] + col[lo]
                if on[p]:
                    c = psi[p] * dt
                    if c > a + 1e-9:
                        raise RuntimeError(
                            "consumption exceeds available energy; depletion check was skipped")
                    r = rent[p] * dt
                    e = a - c
                    e = cap if cap < e else e
                    rent_p, on_p, consumed_p = rent_acc[p] + r, on_acc[p] + dt, consumed_acc[p] + c
                    for i in later:
                        a = e + col[i]
                        if a < c:
                            cut = i - first
                            later = range(lo + 1, i)
                            break
                        e = a - c
                        e = cap if cap < e else e
                        rent_p += r
                        on_p += dt
                        consumed_p += c
                    rent_acc[p], on_acc[p], consumed_acc[p] = rent_p, on_p, consumed_p
                    stored[p] = e
                else:
                    e = cap if cap < a else a
                    for i in later:
                        e += col[i]
                        e = cap if cap < e else e
                    stored[p] = e
            if cut == end:
                break
            end = cut
            for now, then in zip((stored, rent_acc, on_acc, consumed_acc), saved):
                now[:] = then
        delay_acc += delay
        if later and delay:
            for _ in later:
                delay_acc += delay

        if trace_rows is not None:
            row_stored = idle_stored[lo + 1].tolist()
            row_rent = [0.0] * n_sbs
            for p, i in enumerate(cells):
                row_stored[i] = stored[p]
                row_rent[i] = rent[p] if on[p] else 0.0
            for j in range(1, n_bs):
                trace_rows.append((
                    round(period_index * cfg.period + t, 10), j, int(sigma[j]),
                    row_stored[j - 1], entry.state.n_members(j), row_rent[j - 1],
                ))
        k = end

    energy.stored[:] = idle_stored[first + n_steps]
    energy.stored[cells] = stored

    # per cell: rent, buy charged, ON time, consumption, and rent plus buy,
    # each row summed over the contiguous last axis, with the bits of
    # `_row`'s sum of that row alone
    acc = np.zeros((5, n_sbs))
    acc[:4, cells] = rent_acc, [tag.buy * x for tag, x in zip(tags, bought)], \
        on_acc, consumed_acc
    with np.errstate(over="ignore"):  # an overflow raises below, without a warning
        np.add(acc[0], acc[1], out=acc[4])
        rent_sum, buy_sum, _, consumed_sum, total_cost = np.add.reduce(acc, axis=1).tolist()
    if not math.isfinite(total_cost):
        raise CostOverflowError(
            f"period {period_index}: the total cost overflows ({total_cost!r})")
    result = PeriodResult(
        period_index=period_index,
        rent_cost=acc[0],
        buy_price=buy_prices,
        buy_charged=_per_sbs(n_sbs, cells, bought, bool),
        on_time=acc[2],
        depleted_at=depleted_at,
        switch_count=_per_sbs(n_sbs, cells, switch, int),
        energy_consumed=acc[3],
        energy_harvested=book.harvested[p_book],
        used=used,
        total_cost=total_cost,
        delay_per_sbs=delay_acc / n_steps,
        unused_fraction=(n_sbs - m) / n_sbs if n_sbs else 0.0,
    )
    result.__dict__["_row"] = {  # primes `_row`'s cache, from the sums above
        "period": period_index, "total_cost": total_cost, "rent_cost": rent_sum,
        "buy_cost": buy_sum, "buy_count": sum(bought),
        # the served cells alone: numpy groups a sum pairwise from 8 cells on
        "on_time_mean": float(np.add.reduce(on_acc)) / m if m else 0.0,
        "switch_count": sum(switch), "energy_consumed": consumed_sum,
        "energy_harvested": book.sums[p_book], "delay_per_sbs": result.delay_per_sbs,
        "unused_fraction": result.unused_fraction, "n_used": m, "depleted_count": sum(depleted),
    }
    return result, energy


# the streams of one replication's seed, one per draw, in the order its
# `SeedSequence` spawns their children: the topology's, the harvest's and
# the policies'
STREAMS = ("topo", "harvest", "policy")


def _child(seed: int | Sequence[int] | np.random.SeedSequence,
           i: int) -> np.random.SeedSequence:
    """The i-th child of `seed`'s `SeedSequence`, as its `spawn` makes it."""
    if isinstance(seed, np.random.SeedSequence):
        return np.random.SeedSequence(seed.entropy, spawn_key=seed.spawn_key + (i,),
                                      pool_size=seed.pool_size)
    return np.random.SeedSequence(seed, spawn_key=(i,))


# numpy's SeedSequence hash constants and PCG64's multiplier, as
# numpy/random/bit_generator.pyx and pcg64.h define them
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT, _MASK128 = 0x2360ED051FC65DA44385DF649FCCF645, (1 << 128) - 1


class SeedStack:
    """The seed streams (`STREAMS`) of a pass of rows: for each row a of
    `attempts` (an int or a sequence of ints), the PCG64 states that
    `default_rng` seeds from the children of `SeedSequence([*lead, *a])`,
    hashed in one pass, and one generator that `rng` sets to a child's
    state just before that stream's draws. A study's rows are attempts
    after its seed; a sweep's are (value index, replication) pairs after its
    master seed, so one pass spans sweep values."""

    def __init__(self, lead: int | Sequence[int], attempts: Sequence) -> None:
        self.lead = lead
        self.attempts = attempts
        lead_words = _seed_words(lead)
        # the rows' entropy, padded as a spawned child pads it, hashed per word count
        runs = [_pad(lead_words + _seed_words(a)) for a in attempts]
        self._groups: dict[int, list[int]] = {}
        for i, run in enumerate(runs):
            self._groups.setdefault(len(run), []).append(i)
        self._pools = np.empty((len(runs), len(STREAMS), 4), dtype=np.uint32)
        self._words: list = [None] * len(runs)
        for size, rows in self._groups.items():
            pool = _mix_pool(np.array([runs[i] for i in rows], dtype=np.uint32))
            self._pools[rows] = pools = _spawn_pools(pool, 4 * size, len(STREAMS))
            for i, words in zip(rows, _pcg64_words(pools)):
                self._words[i] = words
        self._rng = np.random.Generator(np.random.PCG64(0))

    def seed(self, i: int) -> list[int]:
        """Row i's seed, `[*lead, *a]`."""
        return [*_ints(self.lead), *_ints(self.attempts[i])]

    def rng(self, i: int, name: str) -> np.random.Generator:
        """The generator at the start of row i's child of stream `name`:
        PCG64's seeding step, in Python ints, from the child's hashed words."""
        s_hi, s_lo, i_hi, i_lo = self._words[i][STREAMS.index(name)]
        inc = ((i_hi << 64 | i_lo) << 1 | 1) & _MASK128
        state = ((inc + (s_hi << 64 | s_lo)) * _PCG_MULT + inc) & _MASK128
        self._rng.bit_generator.state = {"bit_generator": "PCG64",
                                         "state": {"state": state, "inc": inc},
                                         "has_uint32": 0, "uinteger": 0}
        return self._rng

    def child_words(self, rows: Sequence[int], name: str, n: int) -> dict[int, list[list[int]]]:
        """Per row of `rows`, the hashed words of the first n children of its
        child of stream `name`, in one pass per word count."""
        out = {}
        for size, group in self._groups.items():
            group = [i for i in group if i in rows]
            if group:
                pools = _spawn_pools(self._pools[group, STREAMS.index(name)], 4 * size + 4, n)
                out.update(zip(group, _pcg64_words(pools)))
        return out


class _HashedSeed:
    """Hashed PCG64 seed words (`SeedStack`), which PCG64 takes as numpy's
    `ISeedSequence` (registered on first use, so that importing the engine
    does not import `numpy.random`)."""

    __slots__ = ("words",)

    def __init__(self, words: list[int]) -> None:
        self.words = words

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError("a hashed seed holds the 4 uint64 words of a PCG64 seed")
        return np.array(self.words, dtype=np.uint64)


def _generator(words: list[int]) -> np.random.Generator:
    """A fresh generator seeded from hashed PCG64 words."""
    np.random.bit_generator.ISeedSequence.register(_HashedSeed)  # a no-op once done
    return np.random.Generator(np.random.PCG64(_HashedSeed(words)))


def _ints(seed: int | Sequence[int]) -> list[int]:
    return [seed] if isinstance(seed, (int, np.integer)) else list(seed)


def _pad(words: list[int]) -> list[int]:
    """Entropy words padded to the pool of 4, as a spawned child pads them
    ahead of its spawn key."""
    return words + [0] * (4 - len(words))


def _words(n: int) -> list[int]:
    """A non-negative int's uint32 words, least significant first."""
    n = operator.index(n)
    if n < 0:
        raise ValueError("expected non-negative integer")
    return [n >> s & 0xFFFFFFFF for s in range(0, max(n.bit_length(), 1), 32)]


def _seed_words(seed: int | Sequence[int] | np.random.SeedSequence) -> list[int]:
    """The uint32 words that `seed`'s `SeedSequence` hashes ahead of a
    child's index: an int's words, a sequence's in turn, and a spawned
    sequence's entropy padded to the pool of 4 and then its spawn key."""
    if isinstance(seed, np.random.SeedSequence):
        if seed.pool_size != 4:
            raise ValueError("a seed's SeedSequence must have a pool of 4 words")
        words = _seed_words(seed.entropy)
        if seed.spawn_key:
            words += [0] * (4 - len(words)) + _seed_words(seed.spawn_key)
        return words
    if isinstance(seed, (int, np.integer)):
        return _words(seed)
    return [w for part in seed for w in _seed_words(part)]


@lru_cache(maxsize=None)
def _powers(first: int, mult: int, n: int) -> np.ndarray:
    """first * mult**k mod 2**32 for k in 0..n, as read-only uint32."""
    out = [first]
    for _ in range(n):
        out.append(out[-1] * mult & 0xFFFFFFFF)
    powers = np.array(out, dtype=np.uint32)
    powers.flags.writeable = False
    return powers


def _hashmix(v: np.ndarray, at: int, n: int) -> np.ndarray:
    """numpy's hashmix of `v` with the n hash constants from `at` on:
    hashmix k xors constant k and multiplies by constant k + 1."""
    consts = _powers(_INIT_A, _MULT_A, at + n)
    v = (v ^ consts[at:at + n]) * consts[at + 1:at + n + 1]
    return v ^ v >> 16


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = x * np.uint32(_MIX_L) - y * np.uint32(_MIX_R)
    return r ^ r >> 16


def _mix_pool(entropy: np.ndarray) -> np.ndarray:
    """numpy's `mix_entropy` of each row of `entropy` (rows, words), uint32
    words padded to the pool of 4: the pool (rows, 4) after the last word.
    Of the hash constants, 4 fill the pool, 12 mix it, and 4 mix in each
    word past it, so a word mixed in next takes them from 4 * words on."""
    pool = _hashmix(entropy[:, :4], 0, 4)
    for src in range(4):  # each word into the others, in numpy's order
        dst = [d for d in range(4) if d != src]
        pool[:, dst] = _mix(pool[:, dst], _hashmix(pool[:, src, None], 4 + 3 * src, 3))
    for src in range(4, entropy.shape[1]):
        pool = _mix(pool, _hashmix(entropy[:, src, None], 4 * src, 4))
    return pool


def _spawn_pools(pool: np.ndarray, at: int, n_children: int) -> np.ndarray:
    """The pools (rows, n_children, 4) of the first `n_children` children of
    each pool of `pool` (rows, 4), whose next word takes the hash constants
    from `at` on: the child's index mixed in last. A child's own children
    take them from `at + 4` on."""
    children = np.arange(n_children, dtype=np.uint32)[:, None]
    return _mix(pool[:, None], _hashmix(children, at, 4))


def _pcg64_words(pools: np.ndarray) -> list:
    """Per pool of `pools` (..., 4), the words (state high, state low,
    increment high, low) that `default_rng` seeds PCG64 from: numpy's
    `generate_state(4, np.uint64)`, over every pool at once."""
    out_consts = _powers(_INIT_B, _MULT_B, 8)  # generate_state's, for 8 words
    words = (pools[..., [0, 1, 2, 3] * 2] ^ out_consts[:8]) * out_consts[1:]
    words ^= words >> 16
    return words.astype("<u4", order="C").view("<u8").tolist()


# records or study attempts stacked in one pass at most (and no more than
# network.STACK_LINKS links): bounds the stacked arrays
CHUNK = 64


def chunk_size(cfg: ScenarioConfig) -> int:
    """The most records or attempts of `cfg` stacked in one pass: `CHUNK`,
    and no more than `network.STACK_LINKS` UE-BS links nor
    `MAX_SLOT_CELLS` slot-cells (n_steps * horizon_periods * max(n_sbs, 1)
    a record), but at least one. A chunk holds its records' arrivals at
    once, so it holds no more than one record at the cap."""
    cells = cfg.n_steps * cfg.horizon_periods * max(cfg.n_sbs, 1)
    return min(CHUNK, max(1, min(network.STACK_LINKS // (cfg.n_ue * (cfg.n_sbs + 1)),
                                 MAX_SLOT_CELLS // cells)))


def replay_on_failure(run: Callable[[Sequence[int]], Iterable], rows: Sequence[int]) -> Iterable:
    """`run(rows)`, or, if that raises, `run([r])` for each row r in turn,
    each made when the iterator reaches it: the failure raised is then the
    first in row order, after the rows before it have been taken."""
    try:
        return run(rows)
    except Exception:
        return (item for r in rows for item in run([r]))


class _Chunk:
    """What a chunk of records of one scenario, rows of a `SeedStack`,
    computes once: a sweep's, and the ratio study's chunk of attempts. At
    once, raising here: the placement, its copy per transmit-power epoch,
    and in slot 0's epoch the all-ON association, its prices and tags, and
    the served rows (those with tags). On first use: the records' arrivals
    and their bookkeeping (`book`), and the served cells' policy seed
    words."""

    def __init__(self, cfg: ScenarioConfig, seeds: SeedStack, rows: Sequence[int]) -> None:
        self.cfg, self.seeds, self.rows = cfg, seeds, rows
        self.epochs = _epoch_topologies(
            cfg, build_topologies(cfg, (seeds.rng(i, "topo") for i in rows)))
        self.slot0 = cfg.slot_grid[1][0]  # the epoch of slot 0
        epoch, w, q, file_bits = self.epochs[self.slot0], cfg.weights, cfg.q, cfg.file_bits
        self.all_on = network.associate_stack(np.ones((len(rows), epoch.n_bs), dtype=bool), epoch)
        self.prices = pricing.price_on_sets(self.all_on, epoch, w, q, file_bits)
        self.tags = pricing.freeze_prices(self.all_on, self.prices.rent, epoch, w, q, file_bits,
                                          cfg.period)
        self.served = [k for k, tags in enumerate(self.tags) if tags]

    @cached_property
    def book(self) -> _Book:
        cfg = self.cfg
        slots, n_sbs = cfg.n_steps * cfg.horizon_periods, cfg.n_sbs
        draws = (energy_mod.harvest_trace(cfg.harvest, cfg.dt, slots, n_sbs,
                                          self.seeds.rng(i, "harvest")) for i in self.rows)
        if len(self.rows) == 1:
            arrivals = next(draws)[None]
        else:
            arrivals = np.empty((len(self.rows), slots, n_sbs))
            for k, draw in enumerate(draws):
                arrivals[k] = draw
        stored = EnergyState.fresh(n_sbs, cfg.initial_energy, cfg.capacity).stored
        return _harvest_book(stored, arrivals, cfg.horizon_periods, float(cfg.capacity))

    @cached_property
    def policy_words(self) -> dict[int, list[list[int]]]:
        """Per served record, its policy child's children's words, one per
        cell up to its last served one."""
        n = max((self.tags[k][-1].sbs for k in self.served), default=0)
        words = self.seeds.child_words({self.rows[k] for k in self.served}, "policy", n)
        return {k: words[self.rows[k]] for k in self.served}


class Replication:
    """The randomness of one seed under one scenario, drawn once: that
    scenario (`cfg`), the topology, its ON-set tables (`epoch_tables`, the
    one of slot 0's epoch made with its all-ON entry and tags), one
    read-only (n_steps, n_sbs) harvest view per period, and the seed they
    were drawn from, whose child seeds the policies' draws (`policy_ss`).

    A drawn record is a row view of its chunk (`draw_chunk`), and makes
    each of these from its rows on first use; one with no served cell makes
    no tables unless a traced run or a direct `run_period` call asks. One
    built from its five fields is a chunk of one. Policies run on one record
    face the same draws and share the tables' entries, the served cells and
    the bookkeeping of the harvest over the whole horizon (`book`)."""

    def __init__(self, cfg: ScenarioConfig, topo: Topology,
                 tables: Sequence[pricing.OnSetTable], harvest: Sequence[np.ndarray],
                 seed: int | Sequence[int] | np.random.SeedSequence) -> None:
        self.cfg, self.topo, self.tables, self.harvest = cfg, topo, tuple(tables), tuple(harvest)
        self.seed = seed
        self._chunk: _Chunk | None = None
        self._row = 0
        # with no served cell, the untraced periods of every policy: computed once
        self._idle: list[PeriodResult] = []

    @classmethod
    def draw(cls, cfg: ScenarioConfig,
             seed: int | Sequence[int] | np.random.SeedSequence) -> "Replication":
        """The record of `seed` (an int, a sequence of ints, or a
        `SeedSequence` with the default pool), from the children its
        `SeedSequence` spawns, one per stream (`STREAMS`): a chunk of one
        (`draw_chunk`) of the words that sequence hashes, which the record
        keeps as its seed."""
        words = _seed_words(seed)
        (record,) = cls.draw_chunk(cfg, SeedStack(words[:-1], words[-1:]))
        return record

    @classmethod
    def draw_chunk(cls, cfg: ScenarioConfig, seeds: SeedStack,
                   rows: Sequence[int] | None = None) -> Iterator["Replication"]:
        """The records of the rows `rows` of `seeds` (all of them by
        default), in order, as row views of one `_Chunk`, each made when the
        iterator reaches it, so that a caller that lets each go before
        taking the next holds one at a time. The chunk's shared work raises
        here; a record's rows have the bits they have alone."""
        chunk = _Chunk(cfg, seeds, range(len(seeds.attempts)) if rows is None else rows)

        def view(k: int) -> Replication:
            rep = cls.__new__(cls)
            rep.cfg, rep.seed = cfg, seeds.seed(chunk.rows[k])
            rep._chunk, rep._row, rep._idle = chunk, k, []
            return rep

        return map(view, range(len(chunk.rows)))

    @cached_property
    def topo(self) -> Topology:
        return self._chunk.epochs[0].take(self._row)

    @cached_property
    def tables(self) -> tuple[pricing.OnSetTable, ...]:
        chunk, k, cfg = self._chunk, self._row, self.cfg
        tables = [pricing.OnSetTable(self.topo if e == 0 else topo.take(k), cfg.weights, cfg.q,
                                     cfg.file_bits, cfg.period)
                  for e, topo in enumerate(chunk.epochs)]
        tables[chunk.slot0].add_all_on(chunk.all_on.take(k),
                                       pricing.OnSetPrices(*(a[k] for a in chunk.prices)),
                                       chunk.tags[k])
        return tuple(tables)

    @cached_property
    def harvest(self) -> tuple[np.ndarray, ...]:
        n_steps = self.cfg.n_steps
        arrivals = self._chunk.book.arrivals[self._row]
        return tuple(arrivals[p * n_steps:(p + 1) * n_steps]
                     for p in range(self.cfg.horizon_periods))

    @cached_property
    def policy_ss(self) -> np.random.SeedSequence:
        """The seed of the policies' draws, `seed`'s child as `spawn`
        makes it, built on first use."""
        return _child(self.seed, STREAMS.index("policy"))

    @cached_property
    def plan(self) -> _PeriodPlan:
        if self._chunk is None:
            tags = self.tables[self.cfg.slot_grid[1][0]].tags
        else:
            tags = self._chunk.tags[self._row]
        return _period_plan(self.cfg, tags) if tags else self.cfg._idle_plan

    @cached_property
    def book(self) -> _Harvest:
        """The bookkeeping of the record's harvest, over its whole horizon:
        its row of the chunk's, or a stack of one."""
        if self._chunk is not None:
            return self._chunk.book.row(self._row, self.plan.cells)
        cfg = self.cfg
        stored = EnergyState.fresh(cfg.n_sbs, cfg.initial_energy, cfg.capacity).stored
        return _harvest_book(stored, np.concatenate(self.harvest)[None], len(self.harvest),
                             float(cfg.capacity)).row(0, self.plan.cells)

    def policy_rngs(self) -> list[np.random.Generator | None]:
        """Fresh generators for a run: the i-th child of `policy_ss` (as
        `spawn` would make it) for each served cell i, None elsewhere."""
        rngs: list[np.random.Generator | None] = [None] * self.cfg.n_sbs
        cells = self.plan.cells
        if not cells:
            return rngs
        if self._chunk is not None:
            words = self._chunk.policy_words[self._row]
        else:
            seed = _seed_words(self.seed)
            words = SeedStack(seed[:-1], seed[-1:]).child_words({0}, "policy", cells[-1] + 1)[0]
        for i in cells:
            rngs[i] = _generator(words[i])
        return rngs


def run_horizon(rep: Replication, policy: Policy,
                trace_rows: list | None = None) -> list[PeriodResult]:
    """Run `policy` on the record `rep` under the record's own scenario:
    chain its `horizon_periods` periods, carrying stored energy across
    boundaries. All randomness comes from the record, so one record and a
    fresh policy of one kind give identical results.

    A record with no served cell gives the same periods under every policy:
    untraced, they are read from its bookkeeping alone (`_idle_period`) on
    the first run, read-only, and returned to every later run that asks for
    no trace; such a run builds no table, topology row or policy generator.
    """
    if not rep.plan.cells and trace_rows is None:
        if not rep._idle:
            book = rep.book
            rep._idle.extend(_idle_period(p, rep.plan, book, p) for p in range(len(book.sums)))
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
    return results
