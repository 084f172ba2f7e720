"""Operational expenditure: per-second rent prices, one-time buy prices,
and the offline-optimal rent-or-buy cost.

A cell's rent is priced in one place: `OnSetTable` holds, per ON set, the
network state and the delay and power vectors that `all_rent_prices` weighs.
An ON set's entry is computed in full when the set is first looked up.
Prices for the approximated (per-period, flat-price) problem are frozen once
per table, from its all-ON entry at the period start: `OnSetTable.tags`, for
the served cells only. The live problem charges the rent of the current ON
set's entry instead.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import energy, network
from .network import MBS_ID, Topology, _read_only


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
    unused and set to 0.
    """
    rent = np.zeros(delays.size)
    rent[1:] = w.alpha_d * delays[1:] + w.alpha_p * power
    return rent


def mbs_delay_share(
    members: np.ndarray, topo: Topology, file_bits: float, total_ue: int
) -> float:
    """Worst-case MBS delay for the UEs of one SBS: bandwidth split over all UEs."""
    members = np.asarray(members, dtype=int)
    if members.size == 0:
        return 0.0
    bm = topo.bs[MBS_ID].bandwidth
    per_ue_bw = bm / total_ue
    snr = topo.bs[MBS_ID].tx_power * topo.gain[members, MBS_ID] / topo.noise_power
    rates = per_ue_bw * np.log2(1.0 + snr)
    return float(np.sum(file_bits / rates))


def buy_price(phi: float, psi: float, w: CostWeights, period: float) -> float:
    """One-time handover charge: a fraction of the worst-case MBS cost over T."""
    if period <= 0:
        raise ValueError("period must be positive")
    return w.alpha_b * (w.alpha_d * phi + w.alpha_p * psi) * period


def offline_cost(rent: float, buy: float, u: float, period: float) -> float:
    """Offline optimum with known depletion time u: rent until u or buy at 0."""
    if not (0.0 <= u <= period):
        raise ValueError("depletion time must lie in [0, period]")
    return min(rent * u, buy)


class OnSetTable:
    """Network state and per-SBS rates of one topology, per ON set, each
    entry made on the set's first lookup, and the frozen prices of a period
    of length `period` that starts all ON.

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
        it stays OFF all period and is never priced.
        """
        topo = self.topo
        all_on = self[np.ones(topo.n_bs, dtype=bool)]
        tags = []
        for j in range(1, topo.n_bs):
            members = all_on.state.members(j)
            if members.size:
                phi = mbs_delay_share(members, topo, self.file_bits, topo.n_ue)
                psi = energy.bs_power(topo.bs[MBS_ID], members.size, self.q)
                tags.append(PriceTag(sbs=j, rent=all_on.rent_values[j],
                                     buy=buy_price(phi, psi, self.w, self.period)))
        return tuple(tags)

    def __getitem__(self, sigma: np.ndarray) -> "OnSetEntry":
        key = sigma.tobytes()
        entry = self._entries.get(key)
        if entry is None:
            entry = self._entries[key] = OnSetEntry(self, sigma)
        return entry


class OnSetEntry:
    """One ON set: its `NetworkState` and the read-only values priced from
    it, all computed when the entry is made, in one pass over the
    topology's cached constants (`network.associate` and
    `network.all_bs_delays` once each, then one power expression).

    - `delays`: (n_bs,) total delay of each BS.
    - `power`: (n_sbs,) draw of each SBS when ON with its members; `psi` is
      the same with 0 for an OFF SBS.
    - `rent`: (n_bs,) rent rate of each SBS (index 0 unused).
    - `rent_values`, `psi_values` and `on_delay`, the total delay of the ON
      SBSs, are Python scalars for the engine's per-slot loop.
    """

    __slots__ = ("state", "delays", "power", "psi", "rent", "rent_values",
                 "psi_values", "on_delay")

    def __init__(self, table: OnSetTable, sigma: np.ndarray) -> None:
        topo = table.topo
        self.state = state = network.associate(sigma, topo)
        on = state.sigma[1:]
        self.delays = delays = _read_only(
            network.all_bs_delays(state, topo, table.file_bits))
        self.power = power = _read_only(energy.power_draw(
            topo.sbs_op_power, topo.sbs_max_users, state.counts[1:], table.q,
            range(1, topo.n_bs)))
        self.psi = psi = _read_only(np.where(on, power, 0.0))
        self.rent = rent = _read_only(all_rent_prices(delays, power, table.w))
        self.rent_values: tuple[float, ...] = tuple(rent.tolist())
        self.psi_values: tuple[float, ...] = tuple(psi.tolist())
        # summed once, in numpy's (pairwise) order, which a sequential sum
        # does not reproduce
        self.on_delay = float(delays[1:][on].sum())
