"""Network model: placement, channel gains, SINR/SNR, user association, rates, delay.

Link quality, rates and delays are computed for the whole network at once
(`sinr_matrix`, `ue_rates`, `all_bs_delays`), also over a leading stack
axis: a `NetworkState` and the ON/OFF vectors may stack (topology, ON set)
pairs, whose topologies a `TopologyStack` holds. Each pair's values have the bits
it has alone, so one ON set of one `Topology` is a stack of none.
`pricing.OnSetTable` caches them per ON set.

All radio quantities are stored linear (watts, dimensionless gains). Channel
gains follow from the distances by one fixed log-distance path-loss model per
link kind (`PATH_LOSS`). They are static per run (time-averaged); only the
ON/OFF vector changes the network state. What does not depend on it (the
received power, the MBS SNR, the bandwidths) is computed once per `Topology`,
on first use, and once per `TopologyStack`, when it is placed. The MBS
(index 0) is always ON and never interferes with the SBS tier.

OFF cells need no mask in the association: an OFF SBS's SINR column is
exactly 0.0 (its received power, finite, times 0.0), and the MBS column,
an SNR >= 0, comes first, so the first-maximum rule never picks an OFF cell.

`topology_to_json` writes a topology (positions, BS parameters and the
path-loss constants) as the CLI's `topology.json`; the package does not read
it back.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import repeat
from typing import Sequence

import numpy as np

MBS_ID = 0
# the most (UE, BS) links a stacked pass of the ratio study holds at once:
# bounds its arrays, and the lists of floats `_gains` makes
STACK_LINKS = 1 << 16


class UnserviceableError(RuntimeError):
    """A UE ended up with zero achievable rate (infinite delay). `pair` is
    the first pair of a stack in which one did."""

    def __init__(self, pair: int = 0) -> None:
        super().__init__("a UE has zero achievable rate")
        self.pair = pair


def dbm_to_watts(dbm: float) -> float:
    return 10.0 ** ((dbm - 30.0) / 10.0)


def watts_to_dbm(watts: float) -> float:
    if watts <= 0:
        raise ValueError("power must be positive to convert to dBm")
    return 10.0 * math.log10(watts) + 30.0


# Log-distance path loss in dB, `const + slope * log10(d / 1 km)`, one
# (const, slope) pair per link kind: the common 3GPP-style macro and pico
# models at ~2 GHz. Distances (meters) below MIN_DISTANCE are clamped up to it.
PATH_LOSS = {"MBS": (128.1, 37.6), "SBS": (140.7, 36.7)}
MIN_DISTANCE = 1.0


def channel_gain(d: float, link_kind: str) -> float:
    """Linear channel gain at distance d (meters) for an MBS or SBS link."""
    try:
        const, slope = PATH_LOSS[link_kind]
    except KeyError:
        raise ValueError(f"unknown link kind {link_kind!r}") from None
    return 10.0 ** (-(const + slope * math.log10(max(d, MIN_DISTANCE) / 1000.0)) / 10.0)


@dataclass(frozen=True)
class BsParams:
    """Static per-BS radio and power parameters."""

    id: int
    kind: str  # "MBS" or "SBS"
    x: float
    y: float
    tx_power: float  # watts
    op_power_max: float  # watts, P_op when fully utilized
    bandwidth: float  # Hz
    max_users: int

    def __post_init__(self) -> None:
        if self.kind not in ("MBS", "SBS"):
            raise ValueError(f"unknown BS kind {self.kind!r}")
        if (self.kind == "MBS") != (self.id == MBS_ID):
            raise ValueError("MBS kind and index 0 must coincide")
        if self.tx_power <= 0 or self.op_power_max <= 0:
            raise ValueError("powers must be positive")
        if self.max_users < 1:
            raise ValueError("max_users must be >= 1")
        if self.tx_power > self.op_power_max:
            raise ValueError("tx power must not exceed operational power")


@dataclass(frozen=True)
class Topology:
    """Immutable node placement plus the UE x BS channel-gain matrix.

    The arrays that do not depend on the ON set are read-only and computed
    on first use; a copy made with `with_sbs_tx_power` starts without them.
    """

    bs: tuple[BsParams, ...]
    ue: np.ndarray  # (n_ue, 2) positions in meters
    gain: np.ndarray  # (n_ue, n_bs) linear gains
    noise_power: float  # watts
    area: tuple[float, float]

    def __post_init__(self) -> None:
        if self.noise_power <= 0:
            raise ValueError("noise power must be positive")
        if self.gain.shape != (self.n_ue, self.n_bs):
            raise ValueError("gain matrix does not match node counts")
        _check_gains(self.gain)
        if self.bs[0].kind != "MBS":
            raise ValueError("BS 0 must be the MBS")

    @property
    def n_bs(self) -> int:
        return len(self.bs)

    @property
    def n_sbs(self) -> int:
        return len(self.bs) - 1

    @property
    def n_ue(self) -> int:
        return self.ue.shape[0]

    @property
    def mbs(self) -> BsParams:
        return self.bs[MBS_ID]

    @cached_property
    def received_power(self) -> np.ndarray:
        """(n_ue, n_bs) power each UE receives from each BS, in watts."""
        return _read_only(_received_power(self.gain, [b.tx_power for b in self.bs]))

    @cached_property
    def sbs_received_power(self) -> np.ndarray:
        """The SBS columns of `received_power`, as one contiguous block."""
        return _read_only(np.ascontiguousarray(self.received_power[:, 1:]))

    @cached_property
    def sbs_index(self) -> np.ndarray:
        """(n_sbs,) the 0-based SBS indices 0..n_sbs - 1."""
        return _read_only(np.arange(self.n_sbs))

    @cached_property
    def mbs_snr(self) -> np.ndarray:
        """(n_ue,) SNR of each UE to the MBS."""
        return _read_only(self.received_power[:, MBS_ID] / self.noise_power)

    @cached_property
    def bandwidths(self) -> np.ndarray:
        """(n_bs,) bandwidth of each BS in Hz."""
        return _read_only(np.array([b.bandwidth for b in self.bs]))

    @cached_property
    def sbs_op_power(self) -> np.ndarray:
        """(n_sbs,) full-load operational power of each SBS in watts."""
        return _read_only(np.array([b.op_power_max for b in self.bs[1:]]))

    @cached_property
    def sbs_max_users(self) -> np.ndarray:
        """(n_sbs,) user capacity of each SBS."""
        return _read_only(np.array([b.max_users for b in self.bs[1:]], dtype=int))

    def with_sbs_tx_power(self, tx_power: float) -> "Topology":
        """Copy of the topology with every SBS transmit power replaced."""
        new_bs = tuple(
            b if b.kind == "MBS" else replace(b, tx_power=tx_power) for b in self.bs
        )
        return replace(self, bs=new_bs)


@dataclass(frozen=True, eq=False)
class TopologyStack:
    """Topologies of one set of BS parameters on a leading stack axis: what
    the kernels of this module and of `pricing` read of a `Topology`, under
    the same names, with the arrays that depend on the positions stacked
    and the BS parameters shared. `of` stacks one `Topology` alone;
    `place_stack` places many without building a `Topology` each."""

    mbs: BsParams
    sbs_received_power: np.ndarray  # (S, n_ue, n_sbs), read-only
    mbs_snr: np.ndarray  # (S, n_ue), read-only
    noise_power: float
    bandwidths: np.ndarray  # (n_bs,)
    sbs_op_power: np.ndarray  # (n_sbs,)
    sbs_max_users: np.ndarray  # (n_sbs,)

    @classmethod
    def of(cls, topo: Topology) -> "TopologyStack":
        return cls(topo.mbs, topo.sbs_received_power[None], topo.mbs_snr[None],
                   topo.noise_power, topo.bandwidths, topo.sbs_op_power,
                   topo.sbs_max_users)

    @property
    def n_bs(self) -> int:
        return self.bandwidths.size

    @property
    def n_sbs(self) -> int:
        return self.bandwidths.size - 1

    @property
    def n_ue(self) -> int:
        return self.mbs_snr.shape[1]

    @cached_property
    def sbs_index(self) -> np.ndarray:
        """(n_sbs,) the 0-based SBS indices 0..n_sbs - 1."""
        return _read_only(np.arange(self.n_sbs))

    def take(self, index) -> "TopologyStack":
        """The topologies at `index` (a slice, or indices that may repeat),
        stacked in its order."""
        return replace(self, sbs_received_power=self.sbs_received_power[index],
                       mbs_snr=self.mbs_snr[index])


class NetworkState:
    """ON/OFF vectors, the resulting max-SINR user association, each UE's
    link quality to its server (SNR for the MBS, SINR for an SBS) and each
    BS's member count, for one ON set or on a leading stack axis of
    (topology, ON set) pairs. `counts` is counted from `serving` when not
    given, and is read-only. A state equals only itself."""

    __slots__ = ("sigma", "serving", "sinr", "counts")

    def __init__(self, sigma: np.ndarray, serving: np.ndarray, sinr: np.ndarray,
                 counts: np.ndarray | None = None) -> None:
        self.sigma = sigma  # (..., n_bs) bool
        self.serving = serving  # (..., n_ue) serving BS index per UE
        self.sinr = sinr  # (..., n_ue) link quality to the serving BS
        # (..., n_bs) UEs served by each BS
        self.counts = _read_only(_per_bs(serving, sigma.shape[-1]) if counts is None else counts)

    def take(self, index) -> "NetworkState":
        """The pairs at `index` of a stacked state."""
        return NetworkState(self.sigma[index], self.serving[index], self.sinr[index],
                            self.counts[index])

    def members(self, bs: int) -> np.ndarray:
        return np.flatnonzero(self.serving == bs)

    def n_members(self, bs: int) -> int:
        return int(self.counts[bs])


def _area(area: tuple[float, float], n_sbs: int, n_ue: int) -> tuple[float, float]:
    w, h = float(area[0]), float(area[1])
    if w <= 0 or h <= 0:
        raise ValueError("service area must have positive extent")
    if n_sbs < 0 or n_ue < 1:
        raise ValueError("need n_sbs >= 0 and n_ue >= 1")
    return w, h


def _stations(
    w: float, h: float, *,
    mbs_tx_power: float = dbm_to_watts(33.0),
    mbs_op_power: float = 20.0,
    mbs_bandwidth: float = 10e6,
    mbs_max_users: int = 50,
    sbs_tx_power: float = dbm_to_watts(23.0),
    sbs_op_power: float = 10.0,
    sbs_bandwidth: float = 10e6,
    sbs_max_users: int = 10,
) -> tuple[BsParams, BsParams]:
    """The MBS, at the center of a w x h area, and the SBSs' parameters, as
    SBS 1 at the origin."""
    mbs = BsParams(id=MBS_ID, kind="MBS", x=w / 2.0, y=h / 2.0, tx_power=mbs_tx_power,
                   op_power_max=mbs_op_power, bandwidth=mbs_bandwidth,
                   max_users=mbs_max_users)
    sbs = BsParams(id=1, kind="SBS", x=0.0, y=0.0, tx_power=sbs_tx_power,
                   op_power_max=sbs_op_power, bandwidth=sbs_bandwidth,
                   max_users=sbs_max_users)
    return mbs, sbs


def _positions(rng: np.random.Generator, n: int, w: float, h: float) -> np.ndarray:
    # rng.uniform([0, 0], [w, h], (n, 2)) to the bit, which computes 0.0 + w*U,
    # at a quarter of its cost
    return rng.random((n, 2)) * [w, h]


def place_nodes(area: tuple[float, float], n_sbs: int, n_ue: int,
                rng: np.random.Generator, *, noise_power: float = dbm_to_watts(-104.0),
                **params) -> Topology:
    """Drop the MBS at the area center and SBSs/UEs uniformly at random.

    `params` sets the BS parameters by keyword (defaults): `mbs_tx_power`
    (33 dBm), `mbs_op_power` (20 W), `mbs_bandwidth` (10 MHz),
    `mbs_max_users` (50), and the same four of every SBS: `sbs_tx_power`
    (23 dBm), `sbs_op_power` (10 W), `sbs_bandwidth` (10 MHz) and
    `sbs_max_users` (10). Deterministic for a fixed generator state, which
    draws the SBS positions and then the UE positions; gains follow from the
    positions by `channel_gain`.
    """
    w, h = _area(area, n_sbs, n_ue)
    mbs, sbs = _stations(w, h, **params)
    xy = _positions(rng, n_sbs + n_ue, w, h)
    bs = (mbs,) + tuple(BsParams(j + 1, "SBS", x, y, sbs.tx_power, sbs.op_power_max,
                                 sbs.bandwidth, sbs.max_users)
                        for j, (x, y) in enumerate(xy[:n_sbs].tolist()))
    gain = compute_gains(bs, xy[n_sbs:])
    return Topology(bs=bs, ue=xy[n_sbs:], gain=gain, noise_power=noise_power, area=(w, h))


def place_stack(area: tuple[float, float], n_sbs: int, n_ue: int,
                rngs: Sequence[np.random.Generator], *,
                noise_power: float = dbm_to_watts(-104.0), **params) -> TopologyStack:
    """`place_nodes` with each generator of `rngs`, stacked in their order:
    the same positions, gains and received powers, bit for bit, without a
    `Topology` for each."""
    w, h = _area(area, n_sbs, n_ue)
    mbs, sbs = _stations(w, h, **params)
    if noise_power <= 0:
        raise ValueError("noise power must be positive")
    xy = np.array([_positions(rng, n_sbs + n_ue, w, h) for rng in rngs])
    bs_xy = np.concatenate((np.broadcast_to([[mbs.x, mbs.y]], (len(rngs), 1, 2)),
                            xy[:, :n_sbs]), axis=1)
    gain = _gains([mbs.kind] + [sbs.kind] * n_sbs, bs_xy, xy[:, n_sbs:])
    _check_gains(gain)
    recv = _received_power(gain, [mbs.tx_power] + [sbs.tx_power] * n_sbs)
    return TopologyStack(
        mbs=mbs, sbs_received_power=_read_only(np.ascontiguousarray(recv[..., 1:])),
        mbs_snr=_read_only(recv[..., MBS_ID] / noise_power), noise_power=noise_power,
        bandwidths=_read_only(np.array([mbs.bandwidth] + [sbs.bandwidth] * n_sbs)),
        sbs_op_power=_read_only(np.full(n_sbs, sbs.op_power_max)),
        sbs_max_users=_read_only(np.full(n_sbs, sbs.max_users)),
    )


def compute_gains(bs: Sequence[BsParams], ue_xy: np.ndarray) -> np.ndarray:
    """(n_ue, n_bs) gains, each `channel_gain` of its distance bit for bit."""
    return _gains([b.kind for b in bs], np.array([[b.x, b.y] for b in bs]), ue_xy)


def _gains(kinds: Sequence[str], bs_xy: np.ndarray, ue_xy: np.ndarray) -> np.ndarray:
    """(..., n_ue, n_bs) gains from the UEs at `ue_xy` (..., n_ue, 2) to the
    BSs of link kinds `kinds` at `bs_xy` (..., n_bs, 2).

    The logarithm and the power are taken with `math`, because numpy's
    vectorized `log10` and `power` need not round as it does; the rest is
    elementwise IEEE arithmetic, which rounds the same either way.
    """
    d = np.hypot(ue_xy[..., :, None, 0] - bs_xy[..., None, :, 0],
                 ue_xy[..., :, None, 1] - bs_xy[..., None, :, 1])
    km = (np.maximum(d, MIN_DISTANCE) / 1000.0).ravel().tolist()
    log_km = np.fromiter(map(math.log10, km), float, d.size).reshape(d.shape)
    del km  # one list of floats alive at a time
    const, slope = np.array([PATH_LOSS[kind] for kind in kinds]).T
    exponent = (-(const + slope * log_km) / 10.0).ravel().tolist()
    return np.fromiter(map(math.pow, repeat(10.0), exponent), float, d.size).reshape(d.shape)


def _check_gains(gain: np.ndarray) -> None:
    if not np.all(np.isfinite(gain)) or np.any(gain <= 0):
        raise ValueError("channel gains must be positive and finite")


def _received_power(gain: np.ndarray, tx_power: Sequence[float]) -> np.ndarray:
    recv = gain * np.array(tx_power)
    if not np.isfinite(recv).all():
        raise ValueError("received power must be finite")
    return recv


def sinr_matrix(sigma: np.ndarray, topo: Topology | TopologyStack) -> np.ndarray:
    """Per-UE link quality: column 0 is SNR to the MBS, columns >= 1 are SINRs.

    `sigma` is one ON set (n_bs,) or a stack (P, n_bs) of them, each paired
    with `topo`'s topology at its index (or broadcast against a `Topology`);
    the result is (n_ue, n_bs) per pair. Interference sums over ON SBSs
    only, per pair as `recv @ on` sums it; the MBS never interferes. An OFF
    SBS's column is exactly 0.0.
    """
    recv = topo.sbs_received_power
    on = sigma[..., 1:].astype(float)
    own = recv * on[..., None, :]
    out = np.empty(own.shape[:-1] + sigma.shape[-1:])
    out[..., MBS_ID] = topo.mbs_snr
    if on.shape[-1]:
        noise_and_interference = np.matmul(recv, on[..., :, None]) - own
        noise_and_interference += topo.noise_power
        np.divide(own, noise_and_interference, out=out[..., 1:])
    return out


def associate(sigma: np.ndarray, topo: Topology | TopologyStack) -> NetworkState:
    """Assign each UE to the ON BS with the largest SINR (SNR for the MBS),
    for one ON set `sigma` (n_bs,): of one `Topology`, or of each topology of
    a `TopologyStack`, as `associate_stack` does. The state keeps a read-only
    copy of `sigma`, so the caller may go on mutating its own array, and
    states shared between callers cannot be altered. (A stack of ON sets
    goes to `associate_stack`: `bench/tracer.py` reads this function's first
    argument as one ON set.)"""
    sigma = np.array(sigma, dtype=bool)
    if not sigma[MBS_ID]:
        raise ValueError("the MBS is always ON")
    return _associate(sigma, topo)


def associate_stack(sigma: np.ndarray, topo: Topology | TopologyStack) -> NetworkState:
    """The association of every (topology, ON set) pair of `sigma` and
    `topo` (as `sinr_matrix` pairs them), each with the bits it has alone.

    Ties break toward the lowest BS index. OFF BSs are never chosen, without
    a mask: their SINR is 0.0 and the MBS's SNR, >= 0, comes first. The state
    keeps `sigma` and makes it read-only.
    """
    if not np.logical_and.reduce(sigma[..., MBS_ID], axis=None):
        raise ValueError("the MBS is always ON")
    return _associate(sigma, topo)


def _associate(sigma: np.ndarray, topo: Topology | TopologyStack) -> NetworkState:
    metric = sinr_matrix(sigma, topo)
    serving = metric.argmax(axis=-1)  # first max == lowest index
    # each UE's row of the metric starts n_bs after the previous one's
    sinr = metric.take(np.arange(0, metric.size, metric.shape[-1]).reshape(serving.shape)
                       + serving)
    if sigma.ndim < serving.ndim:  # one ON set of every topology of a stack
        sigma = np.broadcast_to(sigma, serving.shape[:-1] + sigma.shape[-1:])
    for a in (sigma, serving, sinr):
        a.setflags(write=False)
    return NetworkState(sigma, serving, sinr)


def _per_bs(serving: np.ndarray, n_bs: int, weights: np.ndarray | None = None) -> np.ndarray:
    """(..., n_bs) count of the UEs each BS serves, or the sum of their
    `weights`, added in UE order, for `serving` (..., n_ue): one `bincount`
    over the stack's BSs laid end to end."""
    if serving.ndim == 1:
        return np.bincount(serving, weights, n_bs)
    out = np.bincount(_stack_index(serving, n_bs).ravel(),
                      None if weights is None else weights.ravel(), serving.shape[0] * n_bs)
    return out.reshape(serving.shape[0], n_bs)


def _stack_index(serving: np.ndarray, n_bs: int) -> np.ndarray:
    """Each UE's server as an index into the stack's BSs laid end to end."""
    if serving.ndim == 1:
        return serving
    return serving + n_bs * np.arange(serving.shape[0])[:, None]


def ue_rates(state: NetworkState, topo: Topology | TopologyStack) -> np.ndarray:
    """Achievable rate of every UE: equal bandwidth split at its serving BS."""
    serving = state.serving
    load = state.counts.reshape(-1)[_stack_index(serving, topo.n_bs)]
    share = topo.bandwidths[serving] / load
    return share * np.log2(1.0 + state.sinr)


def all_bs_delays(state: NetworkState, topo: Topology | TopologyStack,
                  file_bits: float) -> np.ndarray:
    """Per-BS total delay, vectorized over the whole network (and stack).
    Each BS's UE delays are added in UE order. A zero rate raises
    `UnserviceableError`, naming the first pair of a stack that has one."""
    rates = ue_rates(state, topo)
    if np.fmin.reduce(rates, axis=None, initial=math.inf) <= 0:  # any rate <= 0
        zero = (rates <= 0).reshape(-1, rates.shape[-1]).any(axis=1)
        raise UnserviceableError(int(np.argmax(zero)))
    return _per_bs(state.serving, topo.n_bs, file_bits / rates)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


# ---------------------------------------------------------------------------
# topology.json: the placement and the path-loss constants; the gains follow
# from them by `channel_gain`

def topology_to_json(topo: Topology) -> str:
    doc = {
        "area": list(topo.area),
        "noise_power_dbm": watts_to_dbm(topo.noise_power),
        "path_loss": {
            "mbs_const": PATH_LOSS["MBS"][0], "mbs_slope": PATH_LOSS["MBS"][1],
            "sbs_const": PATH_LOSS["SBS"][0], "sbs_slope": PATH_LOSS["SBS"][1],
            "min_distance": MIN_DISTANCE,
        },
        "bs": [
            {
                "id": b.id, "kind": b.kind, "x": b.x, "y": b.y,
                "tx_power_dbm": watts_to_dbm(b.tx_power),
                "op_power_w": b.op_power_max,
                "bandwidth_hz": b.bandwidth,
                "max_users": b.max_users,
            }
            for b in topo.bs
        ],
        "ue": [[float(x), float(y)] for x, y in topo.ue],
    }
    return json.dumps(doc, indent=2)
