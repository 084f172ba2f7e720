"""Operational expenditure: per-second rent prices and one-time buy prices.

A cell's rent is priced in one place, `_price`, one pass over an
association: each UE's rate, each BS's total delay, each SBS's power draw
and the rent that `all_rent_prices` weighs from them, for one ON set or on a
leading stack axis of (topology, ON set) pairs, whose topologies are rows of
one `network.Topology` stack, each pair with the bits it has alone.
`price_on_sets` is that pass with its rents checked. `OnSetTable` holds, per
ON set of one topology, the entry (`OnSetEntry`) made when the set is first
looked up: `network.associate`, the same pass, and the entry's read-only
arrays and Python views, whose rent list is checked. A table that knows the
SBSs its runs switch (`OnSetTable.ids`) prices the first of their sets to
miss that way, and at the second miss every one of their sets in one stacked
pass (`network.associate_subsets`, then `_price`), whose rows make the later
entries with the same bits; where the pass would be too large, or some set
would fail or warn, each set is priced alone, at its own lookup.

Prices for the approximated (per-period, flat-price) problem are frozen from
the all-ON set at the period start by `freeze_prices`, for the served cells
only, one stack of topologies at a time: a drawn record's tags and all-ON
entry are a row of its chunk's pass (`OnSetTable.add_all_on`), and
`OnSetTable.tags` alone is a stack of one. The live problem charges the rent
of the current ON set's entry instead.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import energy, network
from .network import (MBS_ID, NetworkState, Topology, _per_bs, _read_only, _stack_index,
                      _subsets)


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

    `delays` is the per-BS total delay, `power` the (n_sbs,) draw of each SBS
    when ON with its members, both on the same leading stack axis, if any.
    Index 0 (the MBS) is unused and set to 0. Unchecked: `price_on_sets` and
    `OnSetEntry` raise `NonFinitePriceError` for a rent that is not finite.
    """
    rent = np.zeros(delays.shape)
    np.add(w.alpha_d * delays[..., 1:], w.alpha_p * power, out=rent[..., 1:])
    return rent


def _rent_error(sbs: int, rent: float) -> NonFinitePriceError:
    return NonFinitePriceError(f"SBS {sbs}: rent price is not finite ({rent!r})")


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


def price_on_sets(state: NetworkState, topo: Topology, w: CostWeights,
                  q: float, file_bits: float) -> OnSetPrices:
    """The delays, power draws and rents of the association `state`: one ON
    set, or a stack of (topology, ON set) pairs with `topo`'s leading axis,
    as `_price` prices them. A rent that is not finite raises
    `NonFinitePriceError`. A pair that fails raises as it would priced alone
    (a zero rate before its rent), and a stack raises the first pair's
    failure: the pairs before one with a zero rate are priced first.
    """
    try:
        prices = _price(state, topo, w, q, file_bits)
    except network.UnserviceableError as err:
        if err.pair:
            before = slice(err.pair)
            price_on_sets(state.take(before), topo.take(before), w, q, file_bits)
        raise
    rent = prices.rent
    # every rent is >= 0 or NaN, so the largest is finite when all are
    if not math.isfinite(np.maximum.reduce(rent, axis=None, initial=0.0)):
        i = int(np.argmin(np.isfinite(rent).ravel()))
        raise _rent_error(i % rent.shape[-1], float(rent.flat[i]))
    return prices


def _price(state: NetworkState, topo: Topology, w: CostWeights, q: float,
           file_bits: float, by_count: np.ndarray | None = None) -> OnSetPrices:
    """The pricing arithmetic of one ON set and of a stack alike, with the
    rents unchecked.

    - Each UE's rate: its server's bandwidth split equally over the
      server's members, times log2(1 + its SINR). A zero rate raises
      `UnserviceableError`, naming the first pair of a stack that has one.
    - Each BS's total delay: `file_bits` over its members' rates, added in
      UE order.
    - Each SBS's power draw when ON with its members, read from `by_count`,
      `power_by_count(topo, q)` (made here when not given), and `psi`, the
      same with 0 for an OFF SBS.
    - Each SBS's rent, `all_rent_prices`.
    """
    serving, counts = state.serving, state.counts
    n_bs = counts.shape[-1]
    load = counts.take(_stack_index(serving, n_bs))
    rates = topo.bandwidths[serving] / load * np.log2(1.0 + state.sinr)
    if rates.size and rates.min() <= 0:
        zero = (rates <= 0).reshape(-1, rates.shape[-1]).any(axis=1)
        raise network.UnserviceableError(int(np.argmax(zero)))
    delays = _per_bs(serving, n_bs, file_bits / rates)
    if by_count is None:
        by_count = power_by_count(topo, q)
    try:
        power = by_count[topo.sbs_index, counts[..., 1:]]
    except IndexError:  # a count above the table's: clamped, with a warning, where over capacity
        power = energy.power_draw(topo.sbs_op_power, topo.sbs_max_users, counts[..., 1:], q,
                                  range(1, n_bs))
    # power is finite and >= 0, so an OFF SBS's psi is +0.0
    psi = power * state.sigma[..., 1:]
    return OnSetPrices(delays, power, psi, all_rent_prices(delays, power, w))


def power_by_count(topo: Topology, q: float) -> np.ndarray:
    """(n_sbs, u + 1) `energy.power_draw` of each SBS with 0..u users
    attached, u the smallest SBS capacity (at most the UE count): the power
    of an ON set whose counts are all at most u is read here."""
    u = int(topo.sbs_max_users.min(initial=topo.n_ue))
    return energy.power_draw(topo.sbs_op_power[:, None], topo.sbs_max_users[:, None],
                             np.arange(u + 1), q, range(1, topo.n_bs))


def freeze_prices(state: NetworkState, rent: np.ndarray, topo: Topology,
                  w: CostWeights, q: float, file_bits: float,
                  period: float) -> list[tuple[PriceTag, ...]]:
    """Price tags of each topology's served cells (those with UEs in its
    all-ON association `state`), in ascending SBS id, frozen at the start
    of a period of length `period`: one tuple per topology of a stack, or
    one for one topology.

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


class _SubsetPass(NamedTuple):
    """A table's pass over the sets of its `ids`: their association and
    prices, read-only, row s the set of bitmask s, and per row the Python
    values its entry holds from the start."""

    state: NetworkState
    prices: OnSetPrices
    ids: list[int]  # the table's `ids`, whose cells `psi` and `rent` list
    psi: list[list[float]]  # per row, the `psi` of the SBSs `ids`
    rent: list[list[float]]  # per row, their rent
    on_delay: list[float]  # per row, the total delay of its ON SBSs


def _on_delays(delays: np.ndarray) -> np.ndarray:
    """Per row s of `delays` (2^m, m), the m cells' delays in the set of
    bitmask s, the sum of those of its ON cells, with the bits an entry of
    that set priced alone gives it: the rows of one ON count are summed as
    the rows of one array, which numpy sums as it sums each row alone
    (pairwise from 8 cells on)."""
    on = _subsets(delays.shape[1])
    count = on.sum(axis=1)
    out = np.empty(delays.shape[0])
    for k in range(delays.shape[1] + 1):
        rows = np.flatnonzero(count == k)
        cols = np.nonzero(on[rows])[1].reshape(rows.size, k)
        out[rows] = np.add.reduce(delays[rows[:, None], cols], axis=1)
    return out


class OnSetTable:
    """Network state and per-SBS rates of one topology, per ON set, each
    entry made on the set's first lookup (or by `add`, from an association
    already made), and the frozen prices of a period of length `period`
    that starts all ON.

    Association, rents, power draw and delays depend on the ON set alone, so
    the engine's slots share one entry per ON set. Entries are keyed by the
    bytes of the (n_bs,) bool ON/OFF vector.

    The engine sets `ids`, its record's served SBSs: its runs reach only the
    sets in which no other SBS is ON. The first such set to miss is priced
    alone; on the second, every one of the 2^m sets is priced in one stacked
    pass (`network.associate_subsets`, then `_price`), which also lists each
    row's served-cell `psi` and `rent` and sums its `on_delay`, and this
    miss and the later ones make their entry from the pass's row
    (`OnSetEntry.row`), with the bits of the set priced alone. The pass is
    not run, and each set is priced alone as before, when m < 2 (the second
    miss is then the last), when an array of it would exceed
    `network.STACK_LINKS`, or when pricing some set would fail or warn: a
    zero rate, a rent that is not finite, a count above
    `power_by_count`'s, a negative draw, or any floating-point error. A
    set's error or warning then comes at its own lookup, or never.
    """

    def __init__(self, topo: Topology, w: CostWeights, q: float, file_bits: float,
                 period: float) -> None:
        self.topo = topo
        self.w = w
        self.q = q
        self.file_bits = file_bits
        self.period = period
        self.ids: list[int] | None = None  # the SBSs a run may switch
        self._entries: dict[bytes, OnSetEntry] = {}
        self._missed = False  # a set of `ids` has missed
        # the pass over `ids`' sets: None before the second miss, then the
        # pass, or False if it does not run
        self._subset_pass: _SubsetPass | bool | None = None

    @cached_property
    def tags(self) -> tuple[PriceTag, ...]:
        """Price tags of the served cells, in ascending SBS id, frozen at the
        period start from the all-ON entry: `freeze_prices` of a stack of
        one, unless `add_all_on` set them."""
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
        key = sigma.tobytes()
        entry = self._entries.get(key)
        if entry is None:
            entry = self._miss(sigma, key)
        return entry

    def _miss(self, sigma: np.ndarray, key: bytes) -> "OnSetEntry":
        """The entry of a set not yet in the table: a row of the pass over
        `ids`' sets from their second miss on, else priced alone."""
        s = self._subset(sigma, key)
        if s is not None:
            if self._subset_pass is None and self._missed:
                self._subset_pass = self._price_subsets() or False
            self._missed = True
            if self._subset_pass:
                entry = self._entries[key] = OnSetEntry.row(self._subset_pass, s)
                return entry
        return self.add(network.associate(sigma, self.topo))

    def _subset(self, sigma: np.ndarray, key: bytes) -> int | None:
        """The bitmask over `ids` (bit i: SBS `ids[i]` ON) of a bool ON set
        with the MBS ON and every other SBS OFF, or None for any other set."""
        ids = self.ids
        if ids is None or sigma.dtype != bool or sigma.shape != (self.topo.n_bs,) \
                or key[MBS_ID] != 1:
            return None
        s = 0
        for i, j in enumerate(ids):
            s |= key[j] << i
        return s if key.count(1) == 1 + s.bit_count() else None

    def _price_subsets(self) -> _SubsetPass | None:
        """The pass over every set of `ids`, or None where it is not to run
        (see the class docstring)."""
        ids = self.ids
        if len(ids) < 2:  # two sets at most: the second miss is the last
            return None
        by_count = self.power_by_count
        try:
            with np.errstate(all="raise"):
                state = network.associate_subsets(self.topo, ids)
                if state is None or state.counts[:, 1:].max(initial=0) >= by_count.shape[1]:
                    return None
                prices = _price(state, self.topo, self.w, self.q, self.file_bits, by_count)
                on_delay = _on_delays(prices.delays[:, ids])
        except (FloatingPointError, network.UnserviceableError):
            return None
        psi = prices.psi[:, [j - 1 for j in ids]]
        if not np.isfinite(prices.rent).all() or psi.min() < 0:
            return None
        for a in prices:
            a.setflags(False)  # write=False, passed positionally: the cheaper call
        return _SubsetPass(state, prices, ids, psi.tolist(), prices.rent[:, ids].tolist(),
                           on_delay.tolist())

    def add(self, state: NetworkState, prices: OnSetPrices | None = None) -> "OnSetEntry":
        """The entry of `state`'s ON set, made from that association and its
        `prices`, or from the table's pricing pass over it when none are
        given."""
        if prices is None:
            prices = _price(state, self.topo, self.w, self.q, self.file_bits,
                            self.power_by_count)
        entry = self._entries[state.sigma.tobytes()] = OnSetEntry(state, prices)
        return entry

    def add_all_on(self, state: NetworkState, prices: OnSetPrices,
                   tags: tuple[PriceTag, ...]) -> None:
        """Make the all-ON entry and set `tags` from one pair of a stacked
        all-ON `price_on_sets` and `freeze_prices` pass (`state` and `prices`
        are its rows), which gives them the bits they have alone."""
        self.add(state, prices)
        self.__dict__["tags"] = tags  # primes the cached property


class OnSetEntry:
    """One ON set: its `NetworkState`, the set's association
    (`network.associate`, made once by the table or its caller, or a row of
    the table's stacked pass), and the read-only values the pricing pass
    (`_price`) prices from it:

    - `delays`: (n_bs,) total delay of each BS.
    - `power`: (n_sbs,) draw of each SBS when ON with its members; `psi` is
      the same with 0 for an OFF SBS.
    - `rent`: (n_bs,) rent rate of each SBS (index 0 unused).
    - `rent_values`, `psi_values` and `on_delay`, the total delay of the ON
      SBSs, are Python scalars for the engine's storage step, and `served`
      gives the engine's per-cell lists.

    An entry priced alone makes all of these at once. A rent that is not
    finite raises `NonFinitePriceError`, checked on `rent_values`, as
    `price_on_sets` words it. An entry made from row s of a table's pass
    (`row`) holds only `on_delay` and the `served` lists of the table's
    `ids` from the start, the pass's Python values; its state, arrays,
    `rent_values` and `psi_values` are read from the pass's read-only arrays
    on first use, and kept.
    """

    def __init__(self, state: NetworkState, prices: OnSetPrices) -> None:
        self.state = state
        self.delays, self.power, self.psi, self.rent = prices
        self.rent_values: tuple[float, ...] = tuple(prices.rent.tolist())
        # every rent is >= 0 or NaN: a sum that is not finite has a rent
        # that is not, or overflows
        if not math.isfinite(sum(self.rent_values)):
            for j, r in enumerate(self.rent_values):
                if not math.isfinite(r):
                    raise _rent_error(j, r)
        for a in prices:
            a.setflags(False)  # write=False, passed positionally: the cheaper call
        self.psi_values: tuple[float, ...] = tuple(prices.psi.tolist())
        # summed once, in numpy's (pairwise) order, which a sequential sum
        # does not reproduce
        self.on_delay = float(np.add.reduce(prices.delays[state.sigma][1:]))
        self._served = None

    @classmethod
    def row(cls, rows: _SubsetPass, s: int) -> "OnSetEntry":
        """The entry of row s of a table's pass."""
        entry = cls.__new__(cls)
        entry._rows, entry._s = rows, s
        entry.on_delay = rows.on_delay[s]
        entry._served = (rows.ids, (rows.psi[s], rows.rent[s]))
        return entry

    @cached_property
    def state(self) -> NetworkState:
        return self._rows.state.take(self._s)

    @cached_property
    def delays(self) -> np.ndarray:
        return self._rows.prices.delays[self._s]

    @cached_property
    def power(self) -> np.ndarray:
        return self._rows.prices.power[self._s]

    @cached_property
    def psi(self) -> np.ndarray:
        return self._rows.prices.psi[self._s]

    @cached_property
    def rent(self) -> np.ndarray:
        return self._rows.prices.rent[self._s]

    @cached_property
    def rent_values(self) -> tuple[float, ...]:
        return tuple(self.rent.tolist())

    @cached_property
    def psi_values(self) -> tuple[float, ...]:
        return tuple(self.psi.tolist())

    def served(self, ids: list[int]) -> tuple[list[float], list[float]]:
        """The `psi` and `rent` of the SBSs `ids`, as lists, made on the first
        call: the engine passes its record's served cells, the same ids for
        every entry of the record's tables, whatever the policy. A negative
        `psi` raises `ValueError`."""
        served = self._served
        if served is None or served[0] is not ids:
            psi = [self.psi_values[j - 1] for j in ids]
            if min(psi, default=0.0) < 0:
                raise ValueError("energy quantities must be non-negative")
            served = self._served = (ids, (psi, [self.rent_values[j] for j in ids]))
        return served[1]
