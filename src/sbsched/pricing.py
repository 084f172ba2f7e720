"""Operational expenditure: per-second rent prices, one-time buy prices,
and the offline-optimal rent-or-buy cost.

Prices for the approximated (per-period, flat-price) problem are frozen from
the all-ON association at the period start; the live problem charges the rent
rate of the current ON set instead, read from an `OnSetTable`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import energy, network
from .network import MBS_ID, NetworkState, Topology, UnserviceableError


@dataclass(frozen=True)
class CostWeights:
    """Monetary weights: per unit delay, per watt, and the buy-price fraction."""

    alpha_d: float = 0.05
    alpha_p: float = 0.05
    alpha_b: float = 0.05

    def __post_init__(self) -> None:
        if min(self.alpha_d, self.alpha_p, self.alpha_b) < 0:
            raise ValueError("cost weights must be non-negative")
        if self.alpha_b > 1.0:
            raise ValueError("alpha_b must lie in [0, 1]")


@dataclass(frozen=True)
class PriceTag:
    """Frozen per-period prices of one SBS."""

    sbs: int
    rent: float  # cost per second of staying ON
    buy: float  # one-time charge for handing UEs over to the MBS
    frozen_at: float = 0.0

    def __post_init__(self) -> None:
        if self.rent < 0 or self.buy < 0:
            raise ValueError("prices must be non-negative")


def rent_price(
    bs: int,
    state: NetworkState,
    topo: Topology,
    w: CostWeights,
    q: float,
    file_bits: float,
) -> float:
    """Per-second cost of keeping SBS `bs` ON under the given state."""
    if bs < 1:
        raise ValueError("rent prices are defined for SBSs only")
    phi = network.bs_delay(bs, state, topo, file_bits)
    if math.isinf(phi):
        raise UnserviceableError(f"SBS {bs} serves a UE with zero rate")
    psi = energy.bs_power(topo.bs[bs], state.n_members(bs), q)
    return w.alpha_d * phi + w.alpha_p * psi


def all_rent_prices(
    state: NetworkState, topo: Topology, w: CostWeights, q: float, file_bits: float
) -> np.ndarray:
    """Rent prices of every SBS at once (index 0 unused, set to 0)."""
    delays = network.all_bs_delays(state, topo, file_bits)
    counts = np.bincount(state.serving, minlength=topo.n_bs)
    out = np.zeros(topo.n_bs)
    for j in range(1, topo.n_bs):
        psi = energy.bs_power(topo.bs[j], int(counts[j]), q)
        out[j] = w.alpha_d * delays[j] + w.alpha_p * psi
    return out


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


def mbs_power_share(n_members: int, mbs: network.BsParams, q: float) -> float:
    """Portion of MBS power consumption attributed to one SBS's UEs."""
    return energy.bs_power(mbs, n_members, q)


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


def freeze_prices(
    table: OnSetTable, period: float, frozen_at: float = 0.0
) -> list[PriceTag]:
    """Per-SBS price tags from the all-ON association at the period start.

    The all-ON state is read from `table`, so a caller that goes on to use
    the same table associates it only once. An SBS with no associated UEs
    keeps only the fixed-power rent term and gets a zero buy price (it will
    simply stay OFF).
    """
    topo, w, q, file_bits = table.topo, table.w, table.q, table.file_bits
    state = table[np.ones(topo.n_bs, dtype=bool)].state
    tags = []
    for j in range(1, topo.n_bs):
        rent = rent_price(j, state, topo, w, q, file_bits)
        members = state.members(j)
        if members.size == 0:
            buy = 0.0
        else:
            phi = mbs_delay_share(members, topo, file_bits, topo.n_ue)
            psi = mbs_power_share(members.size, topo.bs[MBS_ID], q)
            buy = buy_price(phi, psi, w, period)
        tags.append(PriceTag(sbs=j, rent=rent, buy=buy, frozen_at=frozen_at))
    return tags


class OnSetTable:
    """Network state and per-SBS rates of one topology, per ON set, on demand.

    Association, rents, power draw and delays depend on the ON set alone, so
    the engine's slots and the oracle's subsets share one entry per ON set.
    Entries are keyed by the bytes of the (n_bs,) bool ON/OFF vector.
    """

    def __init__(self, topo: Topology, w: CostWeights, q: float, file_bits: float) -> None:
        self.topo = topo
        self.w = w
        self.q = q
        self.file_bits = file_bits
        self._entries: dict[bytes, OnSetEntry] = {}

    def __getitem__(self, sigma: np.ndarray) -> "OnSetEntry":
        key = sigma.tobytes()
        entry = self._entries.get(key)
        if entry is None:
            entry = OnSetEntry(self, network.associate(sigma, self.topo))
            self._entries[key] = entry
        return entry


class OnSetEntry:
    """One ON set: its `NetworkState`, and read-only values computed on first
    use, so a caller that never reads one never pays for (or raises in) its
    computation. The `*_values` and `on_delay` fields are Python scalars for
    the engine's per-slot loop."""

    def __init__(self, table: OnSetTable, state: NetworkState) -> None:
        self._table = table
        self.state = state

    @cached_property
    def rent(self) -> np.ndarray:
        """Live rent rate of every SBS, as `all_rent_prices` (index 0 unused)."""
        t = self._table
        return _read_only(all_rent_prices(self.state, t.topo, t.w, t.q, t.file_bits))

    @cached_property
    def psi(self) -> np.ndarray:
        """(n_sbs,) power draw of each SBS, 0 for an OFF one."""
        t, state = self._table, self.state
        return _read_only(np.array([
            energy.bs_power(t.topo.bs[j], state.n_members(j), t.q) if state.sigma[j] else 0.0
            for j in range(1, t.topo.n_bs)
        ]))

    @cached_property
    def delays(self) -> np.ndarray:
        """Per-BS total delay, as `network.all_bs_delays`."""
        t = self._table
        return _read_only(network.all_bs_delays(self.state, t.topo, t.file_bits))

    @cached_property
    def rent_values(self) -> tuple[float, ...]:
        """`rent` as Python floats (index 0 unused)."""
        return tuple(self.rent.tolist())

    @cached_property
    def psi_values(self) -> tuple[float, ...]:
        """`psi` as Python floats."""
        return tuple(self.psi.tolist())

    @cached_property
    def on_delay(self) -> float:
        """Total delay of the ON SBSs. It is summed here once, in numpy's
        (pairwise) order, which a sequential sum does not reproduce."""
        return float(self.delays[1:][self.state.sigma[1:]].sum())


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a
