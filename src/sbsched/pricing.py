"""Operational expenditure: per-second rent prices and one-time buy prices.

A cell's rent is priced in one place, `price_on_sets`, for one ON set or on a
leading stack axis of (topology, ON set) pairs, each with the bits it has
alone: the delay and power vectors of the set's association and the rent
that `all_rent_prices` weighs from them. `OnSetTable` holds, per ON set of
one topology, the entry priced from a stack of one, when the set is first
looked up. Prices for the approximated (per-period, flat-price) problem are
frozen from the all-ON set at the period start by `freeze_prices`, for the
served cells only, one stack of topologies at a time: `OnSetTable.tags` is a
stack of one. The live problem charges the rent of the current ON set's
entry instead.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import energy, network
from .network import MBS_ID, NetworkState, Topology, TopologyStack, _read_only, _stack_index


class NonFinitePriceError(ValueError):
    """A rent or buy price is inf or NaN: the weights overflow it, or a zero
    weight meets an infinite delay."""


@dataclass(frozen=True)
class CostWeights:
    """Monetary weights: per unit delay, per watt, and the buy-price fraction."""

    alpha_d: float = 0.05
    alpha_p: float = 0.05
    alpha_b: float = 0.05

    def __post_init__(self) -> None:
        if not all(a >= 0 for a in (self.alpha_d, self.alpha_p, self.alpha_b)):
            raise ValueError("cost weights must be non-negative")
        if self.alpha_b > 1.0:
            raise ValueError("alpha_b must lie in [0, 1]")


@dataclass(frozen=True)
class PriceTag:
    """Frozen per-period prices of one SBS."""

    sbs: int
    rent: float  # cost per second of staying ON
    buy: float  # one-time charge for handing UEs over to the MBS

    def __post_init__(self) -> None:
        if self.rent < 0 or self.buy < 0:
            raise ValueError("prices must be non-negative")


def all_rent_prices(delays: np.ndarray, power: np.ndarray, w: CostWeights) -> np.ndarray:
    """Rent price of every SBS: weighted delay plus power draw per second ON.

    `delays` is the per-BS total delay (`network.all_bs_delays`), `power` the
    (n_sbs,) draw of each SBS when ON with its members, both on the same
    leading stack axis, if any. Index 0 (the MBS) is unused and set to 0. A
    rent that is not finite raises `NonFinitePriceError`, for the first pair
    of a stack that has one.
    """
    rent = np.empty(delays.shape)
    rent[..., 0] = 0.0
    np.add(w.alpha_d * delays[..., 1:], w.alpha_p * power, out=rent[..., 1:])
    # every rent is >= 0 or NaN, so the largest is finite when all are
    if not math.isfinite(np.maximum.reduce(rent, axis=None, initial=0.0)):
        i = int(np.argmin(np.isfinite(rent).ravel()))
        raise NonFinitePriceError(
            f"SBS {i % rent.shape[-1]}: rent price is not finite ({float(rent.flat[i])!r})")
    return rent


def buy_price(phi, psi, w: CostWeights, period: float, sbs):
    """One-time handover charge of SBS `sbs`: a fraction of the worst-case MBS
    cost over T, elementwise over arrays of cells `phi`, `psi` and ids `sbs`.
    A price that is not finite raises `NonFinitePriceError`, naming the
    first such cell."""
    if period <= 0:
        raise ValueError("period must be positive")
    price = w.alpha_b * (w.alpha_d * phi + w.alpha_p * psi) * period
    # every price is >= 0 or NaN, so the largest is finite when all are
    if not math.isfinite(np.maximum.reduce(price, axis=None, initial=0.0)):
        i = int(np.argmin(np.isfinite(np.ravel(price))))
        raise NonFinitePriceError(f"SBS {np.ravel(sbs)[i]}: buy price is not finite "
                                  f"({float(np.ravel(price)[i])!r})")
    return price


class OnSetPrices(NamedTuple):
    """What `price_on_sets` prices of each (topology, ON set) pair."""

    delays: np.ndarray  # (..., n_bs) total delay of each BS
    power: np.ndarray  # (..., n_sbs) draw of each SBS when ON with its members
    psi: np.ndarray  # (..., n_sbs) the same, 0 for an OFF SBS
    rent: np.ndarray  # (..., n_bs) rent rate of each SBS (index 0 unused)


def price_on_sets(state: NetworkState, topo: Topology | TopologyStack, w: CostWeights,
                  q: float, file_bits: float,
                  by_count: np.ndarray | None = None) -> OnSetPrices:
    """The delays, power draws and rents of the association `state`: one ON
    set, or a stack of (topology, ON set) pairs with `topo`'s leading axis.

    The delays are `network.all_bs_delays`', the power is read from
    `by_count`, `power_by_count(topo, q)` (made here when not given), and
    the rent is `all_rent_prices`'. A pair that fails raises as it would
    priced alone (a zero rate before its rent), and a stack raises the first
    pair's failure: the pairs before one with a zero rate are priced first.
    """
    try:
        delays = network.all_bs_delays(state, topo, file_bits)
    except network.UnserviceableError as err:
        if err.pair:
            before = slice(err.pair)
            price_on_sets(state.take(before), topo.take(before), w, q, file_bits, by_count)
        raise
    counts = state.counts[..., 1:]
    if by_count is None:
        by_count = power_by_count(topo, q)
    try:
        power = by_count[topo.sbs_index, counts]
    except IndexError:  # a count above the table's: clamped, with a warning, where over capacity
        power = energy.power_draw(topo.sbs_op_power, topo.sbs_max_users, counts, q,
                                  range(1, delays.shape[-1]))
    # power is finite and >= 0, so an OFF SBS's psi is +0.0
    psi = power * state.sigma[..., 1:]
    return OnSetPrices(delays, power, psi, all_rent_prices(delays, power, w))


def power_by_count(topo: Topology | TopologyStack, q: float) -> np.ndarray:
    """(n_sbs, u + 1) `energy.power_draw` of each SBS with 0..u users
    attached, u the smallest SBS capacity (at most the UE count): the power
    of an ON set whose counts are all at most u is read here."""
    u = int(topo.sbs_max_users.min(initial=topo.n_ue))
    return energy.power_draw(topo.sbs_op_power[:, None], topo.sbs_max_users[:, None],
                             np.arange(u + 1), q, range(1, topo.n_bs))


def freeze_prices(state: NetworkState, rent: np.ndarray, topo: Topology | TopologyStack,
                  w: CostWeights, q: float, file_bits: float,
                  period: float) -> list[tuple[PriceTag, ...]]:
    """Price tags of each topology's served cells (those with UEs in its
    all-ON association `state`), in ascending SBS id, frozen at the start
    of a period of length `period`: one tuple per topology of a stack, or
    one for a `Topology`.

    The rent is the all-ON set's `rent`, so a frozen tag and the live rent
    of the all-ON set are one number. A cell without UEs has no tag: it
    stays OFF all period and is never priced. The buy price weighs what the
    cell's UEs would cost on the MBS: their delays there, with its bandwidth
    split over all UEs, summed per cell with the bits of numpy's pairwise
    sum over the cell's members alone, and the MBS power with the cell's UE
    count, all cells of the stack in one pass.
    """
    n_ue, n_bs = topo.n_ue, topo.n_bs
    mbs = topo.mbs
    counts = state.counts.reshape(-1, n_bs)
    owner, cell = np.nonzero(counts[:, 1:])  # in (topology, ascending id) order
    if not cell.size:  # no served cell, nothing to price
        return [()] * counts.shape[0]
    cell += 1
    k = cell.size
    mbs_delay = file_bits / (mbs.bandwidth / n_ue * np.log2(1.0 + topo.mbs_snr))
    n = counts[owner, cell]
    psi = energy.power_draw(np.full(k, mbs.op_power_max), np.full(k, mbs.max_users), n, q,
                            [MBS_ID] * k)
    serving = state.serving.reshape(-1, n_ue)
    phi = _member_sums(np.broadcast_to(mbs_delay, serving.shape), serving, counts,
                       owner * n_bs + cell)
    buy = buy_price(phi, psi, w, period, cell)
    tags = [[] for _ in range(counts.shape[0])]
    for s, j, r, b in zip(owner.tolist(), cell.tolist(),
                          rent.reshape(-1, n_bs)[owner, cell].tolist(), buy.tolist()):
        tags[s].append(PriceTag(sbs=j, rent=r, buy=b))
    return [tuple(t) for t in tags]


def _member_sums(values: np.ndarray, serving: np.ndarray, counts: np.ndarray,
                 cells: np.ndarray) -> np.ndarray:
    """Per cell of a stack (an index into its BSs laid end to end), the sum
    of `values` (S, n_ue) over the UEs that `serving` (S, n_ue) assigns it,
    `counts` (S, n_bs) of them, with the bits `np.sum` gives them alone: the
    members of the cells of one size are summed as the rows of one array."""
    order = np.argsort(_stack_index(serving, counts.shape[-1]).ravel(), kind="stable")
    counts = counts.ravel()
    grouped = values.ravel()[order]  # each cell's members in UE order, cells in turn
    start = (np.cumsum(counts) - counts)[cells]
    sizes = counts[cells]
    out = np.empty(cells.size)
    for size in set(sizes.tolist()):  # np.unique would import numpy.ma on first use
        rows = sizes == size
        out[rows] = grouped[start[rows, None] + np.arange(size)].sum(axis=1)
    return out


class OnSetTable:
    """Network state and per-SBS rates of one topology, per ON set, each
    entry made on the set's first lookup (or by `add`, from an association
    already made), and the frozen prices of a period of length `period`
    that starts all ON.

    Association, rents, power draw and delays depend on the ON set alone, so
    the engine's slots share one entry per ON set. Entries are keyed by the
    bytes of the (n_bs,) bool ON/OFF vector.
    """

    def __init__(self, topo: Topology, w: CostWeights, q: float, file_bits: float,
                 period: float) -> None:
        self.topo = topo
        self.w = w
        self.q = q
        self.file_bits = file_bits
        self.period = period
        self._entries: dict[bytes, OnSetEntry] = {}

    @cached_property
    def tags(self) -> tuple[PriceTag, ...]:
        """Price tags of the served cells, in ascending SBS id, frozen at the
        period start from the all-ON entry: `freeze_prices` of a stack of one."""
        all_on = self[np.ones(self.topo.n_bs, dtype=bool)]
        (tags,) = freeze_prices(all_on.state, all_on.rent, self.topo, self.w, self.q,
                                self.file_bits, self.period)
        return tags

    @cached_property
    def power_by_count(self) -> np.ndarray:
        """Read-only `power_by_count` of the table's topology, made on its
        first entry."""
        return _read_only(power_by_count(self.topo, self.q))

    def __getitem__(self, sigma: np.ndarray) -> "OnSetEntry":
        entry = self._entries.get(sigma.tobytes())
        if entry is None:
            entry = self.add(network.associate(sigma, self.topo))
        return entry

    def add(self, state: NetworkState) -> "OnSetEntry":
        """The entry of `state`'s ON set, made from that association."""
        entry = self._entries[state.sigma.tobytes()] = OnSetEntry(self, state)
        return entry


class OnSetEntry:
    """One ON set: its `NetworkState`, the set's association
    (`network.associate`, made once by the table or its caller), and the
    read-only values `price_on_sets` prices from it, all computed when the
    entry is made:

    - `delays`: (n_bs,) total delay of each BS.
    - `power`: (n_sbs,) draw of each SBS when ON with its members; `psi` is
      the same with 0 for an OFF SBS.
    - `rent`: (n_bs,) rent rate of each SBS (index 0 unused).
    - `rent_values`, `psi_values` and `on_delay`, the total delay of the ON
      SBSs, are Python scalars for the engine's per-slot loop.
    """

    __slots__ = ("state", "delays", "power", "psi", "rent", "rent_values",
                 "psi_values", "on_delay")

    def __init__(self, table: OnSetTable, state: NetworkState) -> None:
        self.state = state
        prices = price_on_sets(state, table.topo, table.w, table.q, table.file_bits,
                               table.power_by_count)
        for a in prices:
            a.setflags(write=False)
        self.delays, self.power, self.psi, self.rent = prices
        self.rent_values: tuple[float, ...] = tuple(prices.rent.tolist())
        self.psi_values: tuple[float, ...] = tuple(prices.psi.tolist())
        # summed once, in numpy's (pairwise) order, which a sequential sum
        # does not reproduce
        self.on_delay = float(np.add.reduce(prices.delays[1:][state.sigma[1:]]))
