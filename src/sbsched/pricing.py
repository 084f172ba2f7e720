"""Operational expenditure: per-second rent prices and one-time buy prices.

A cell's rent is priced in one place: `OnSetTable` holds, per ON set, the
network state and the delay and power vectors that `all_rent_prices` weighs.
An ON set's entry is computed in full when the set is first looked up.
Prices for the approximated (per-period, flat-price) problem are frozen once
per table, from its all-ON entry at the period start: `OnSetTable.tags`, for
the served cells only. The live problem charges the rent of the current ON
set's entry instead.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import energy, network
from .network import MBS_ID, Topology, _read_only


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
    (n_sbs,) draw of each SBS when ON with its members. Index 0 (the MBS) is
    unused and set to 0. A rent that is not finite raises
    `NonFinitePriceError`.
    """
    rent = np.empty(delays.size)
    rent[0] = 0.0
    np.add(w.alpha_d * delays[1:], w.alpha_p * power, out=rent[1:])
    if not np.isfinite(rent).all():
        j = int(np.flatnonzero(~np.isfinite(rent))[0])
        raise NonFinitePriceError(
            f"SBS {j}: rent price is not finite ({float(rent[j])!r})")
    return rent


def buy_price(phi: float, psi: float, w: CostWeights, period: float, sbs: int) -> float:
    """One-time handover charge of SBS `sbs`: a fraction of the worst-case MBS
    cost over T. A price that is not finite raises `NonFinitePriceError`."""
    if period <= 0:
        raise ValueError("period must be positive")
    price = w.alpha_b * (w.alpha_d * phi + w.alpha_p * psi) * period
    if not math.isfinite(price):
        raise NonFinitePriceError(f"SBS {sbs}: buy price is not finite ({price!r})")
    return price


class OnSetTable:
    """Network state and per-SBS rates of one topology, per ON set, each
    entry made on the set's first lookup (or by `add`, from an association
    already made), and the frozen prices of a period of length `period`
    that starts all ON.

    Association, rents, power draw and delays depend on the ON set alone, so
    the engine's slots and the oracle's subsets share one entry per ON set.
    Entries are keyed by the bytes of the (n_bs,) bool ON/OFF vector.
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
        """Price tags of the served cells (those with UEs in the all-ON
        association), in ascending SBS id, frozen at the period start.

        The rent is the all-ON entry's `rent`, so a frozen tag and the live
        rent of the all-ON set are one number. A cell without UEs has no tag:
        it stays OFF all period and is never priced. The buy price weighs
        what the cell's UEs would cost on the MBS: their delays there, with
        its bandwidth split over all UEs, summed per cell in numpy's
        (pairwise) order, and the MBS power with the cell's UE count.
        """
        topo = self.topo
        all_on = self[np.ones(topo.n_bs, dtype=bool)]
        state = all_on.state
        served = (np.flatnonzero(state.counts[1:]) + 1).tolist()
        mbs = topo.bs[MBS_ID]
        mbs_delay = self.file_bits / (mbs.bandwidth / topo.n_ue * np.log2(1.0 + topo.mbs_snr))
        k = len(served)
        mbs_power = energy.power_draw(np.full(k, mbs.op_power_max), np.full(k, mbs.max_users),
                                      state.counts[served], self.q, [MBS_ID] * k).tolist()
        tags = []
        for j, psi in zip(served, mbs_power):
            phi = float(np.sum(mbs_delay[state.serving == j]))
            tags.append(PriceTag(sbs=j, rent=all_on.rent_values[j],
                                 buy=buy_price(phi, psi, self.w, self.period, j)))
        return tuple(tags)

    @cached_property
    def power_by_count(self) -> np.ndarray:
        """(n_sbs, u + 1) read-only `energy.power_draw` of each SBS with 0..u
        users attached, u the smallest SBS capacity (at most the UE count):
        the power of an ON set whose counts are all at most u is read here."""
        topo = self.topo
        u = int(topo.sbs_max_users.min(initial=topo.n_ue))
        return _read_only(energy.power_draw(
            topo.sbs_op_power[:, None], topo.sbs_max_users[:, None], np.arange(u + 1),
            self.q, range(1, topo.n_bs)))

    def __getitem__(self, sigma: np.ndarray) -> "OnSetEntry":
        entry = self._entries.get(sigma.tobytes())
        if entry is None:
            entry = self.add(network.associate(sigma, self.topo))
        return entry

    def add(self, state: network.NetworkState) -> "OnSetEntry":
        """The entry of `state`'s ON set, made from that association."""
        entry = self._entries[state.sigma.tobytes()] = OnSetEntry(self, state)
        return entry


class OnSetEntry:
    """One ON set: its `NetworkState`, the set's association
    (`network.associate`, made once by the table or its caller), and the
    read-only values priced from it, all computed when the entry is made,
    in one pass over the topology's cached constants (`network.all_bs_delays`
    once); the power is read from the table's `power_by_count`.

    - `delays`: (n_bs,) total delay of each BS.
    - `power`: (n_sbs,) draw of each SBS when ON with its members; `psi` is
      the same with 0 for an OFF SBS.
    - `rent`: (n_bs,) rent rate of each SBS (index 0 unused).
    - `rent_values`, `psi_values` and `on_delay`, the total delay of the ON
      SBSs, are Python scalars for the engine's per-slot loop.
    """

    __slots__ = ("state", "delays", "power", "psi", "rent", "rent_values",
                 "psi_values", "on_delay")

    def __init__(self, table: OnSetTable, state: network.NetworkState) -> None:
        topo = table.topo
        self.state = state
        on = state.sigma[1:]
        self.delays = delays = _read_only(
            network.all_bs_delays(state, topo, table.file_bits))
        counts = state.counts[1:]
        by_count = table.power_by_count
        if max(counts.tolist(), default=0) < by_count.shape[1]:
            power = by_count[topo.sbs_index, counts]
        else:  # a count above the table's: clamped, with a warning, where over capacity
            power = energy.power_draw(topo.sbs_op_power, topo.sbs_max_users, counts,
                                      table.q, range(1, topo.n_bs))
        self.power = power = _read_only(power)
        # power is finite and >= 0, so an OFF SBS's psi is +0.0
        self.psi = psi = _read_only(power * on)
        self.rent = rent = _read_only(all_rent_prices(delays, power, table.w))
        self.rent_values: tuple[float, ...] = tuple(rent.tolist())
        self.psi_values: tuple[float, ...] = tuple(psi.tolist())
        # summed once, in numpy's (pairwise) order, which a sequential sum
        # does not reproduce
        self.on_delay = float(delays[1:][on].sum())
