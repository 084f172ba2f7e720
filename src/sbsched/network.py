"""Network model: placement, channel gains, SINR/SNR and user association.

Link quality and the association are computed for the whole network at once
(`sinr_matrix`, `associate`), also over a leading stack axis: a
`NetworkState` and the ON/OFF vectors may stack (topology, ON set) pairs,
and a `Topology` may stack topologies. Each pair's values have the bits it
has alone, so one ON set of one topology is a stack of none: one set and a
stack run the same arithmetic, and only the index helpers differ with the
number of axes. `associate_subsets` associates every ON set of one topology
in which only given SBSs may be ON, in one pass that computes SINRs only for
the UEs one of those SBSs can win, each set with `associate`'s bits. Rates
and delays are priced from the association by `pricing`, whose `OnSetTable`
caches them per ON set.

All radio quantities are stored linear (watts, dimensionless gains). Channel
gains follow from the distances by one fixed log-distance path-loss model per
link kind (`PATH_LOSS`). They are static per run (time-averaged); only the
ON/OFF vector changes the network state. What does not depend on it (the
received power, the MBS SNR, the bandwidths) is computed once, when a
`Topology` is placed (`place_stack`, the only placement) or built from its
BSs (`Topology.from_bs`); a row of a stack (`Topology.take`) and a copy at
another SBS transmit power (`Topology.with_sbs_tx_power`) share or slice
those arrays. The MBS (index 0) is always ON and never interferes with the
SBS tier.

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
from functools import cached_property, lru_cache
from itertools import repeat
from typing import Iterable, Sequence

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


@dataclass(frozen=True, eq=False)
class Topology:
    """Node placement, channel gains and BS parameters of one topology, or of
    a stack of topologies on a leading axis.

    The arrays that depend on the positions (`xy`, `gain`,
    `sbs_received_power`, `mbs_snr`) carry the stack axis, if any; the BS
    parameters (the MBS's `BsParams`, and each SBS's transmit power, op power,
    bandwidth and user capacity) are shared by every row. `place_stack`
    places a stack, and `from_bs` builds one topology from its BSs, which may
    differ; each checks the gains and computes every array once, read-only.
    `take` and `with_sbs_tx_power` make rows and repriced copies from those
    arrays, without computing or checking them again.
    """

    mbs: BsParams
    sbs_tx_power: np.ndarray  # (n_sbs,) watts
    sbs_op_power: np.ndarray  # (n_sbs,) watts, P_op when fully utilized
    sbs_max_users: np.ndarray  # (n_sbs,) user capacity
    bandwidths: np.ndarray  # (n_bs,) Hz, the MBS's first
    noise_power: float  # watts
    area: tuple[float, float]
    xy: np.ndarray  # (..., n_sbs + n_ue, 2) SBS, then UE positions in meters
    gain: np.ndarray  # (..., n_ue, n_bs) linear gains
    sbs_received_power: np.ndarray  # (..., n_ue, n_sbs) watts, contiguous
    mbs_snr: np.ndarray  # (..., n_ue) SNR of each UE to the MBS

    @classmethod
    def from_bs(cls, bs: Sequence[BsParams], ue: np.ndarray, gain: np.ndarray,
                noise_power: float, area: tuple[float, float]) -> "Topology":
        """One topology of the BSs `bs`, the MBS first, and the UEs at `ue`
        (n_ue, 2), with the (n_ue, n_bs) gains `gain`."""
        if bs[0].kind != "MBS":
            raise ValueError("BS 0 must be the MBS")
        if gain.shape != (len(ue), len(bs)):
            raise ValueError("gain matrix does not match node counts")
        sbs = bs[1:]
        xy = np.concatenate((np.reshape([(b.x, b.y) for b in sbs], (-1, 2)), ue))
        return _topology(bs[0], [b.tx_power for b in sbs], [b.op_power_max for b in sbs],
                         [b.bandwidth for b in sbs], [b.max_users for b in sbs], xy, gain,
                         noise_power, area)

    @property
    def n_bs(self) -> int:
        return self.bandwidths.size

    @property
    def n_sbs(self) -> int:
        return self.sbs_tx_power.size

    @property
    def n_ue(self) -> int:
        return self.mbs_snr.shape[-1]

    @property
    def ue(self) -> np.ndarray:
        """(..., n_ue, 2) UE positions in meters."""
        return self.xy[..., self.n_sbs:, :]

    @property
    def bs(self) -> tuple[BsParams, ...]:
        """The MBS, then each SBS, as `BsParams`, of one topology."""
        sbs = zip(self.xy[:self.n_sbs].tolist(), self.sbs_tx_power.tolist(),
                  self.sbs_op_power.tolist(), self.bandwidths[1:].tolist(),
                  self.sbs_max_users.tolist())
        return (self.mbs,) + tuple(BsParams(j, "SBS", x, y, tx, op, bw, mu)
                                   for j, ((x, y), tx, op, bw, mu) in enumerate(sbs, 1))

    @cached_property
    def sbs_index(self) -> np.ndarray:
        """(n_sbs,) the 0-based SBS indices 0..n_sbs - 1."""
        return _read_only(np.arange(self.n_sbs))

    @cached_property
    def row_start(self) -> np.ndarray:
        """(n_ue,) where each UE's row of a flat (n_ue, n_bs) array starts, of
        one topology."""
        return _read_only(np.arange(0, self.n_ue * self.n_bs, self.n_bs))

    def take(self, index) -> "Topology":
        """The topologies at `index` of the stack axis, as numpy indexes it: an
        int gives one topology, a slice or indices (which may repeat) a stack
        in their order, and `np.newaxis` makes one topology a stack of one."""
        return replace(self, xy=self.xy[index], gain=self.gain[index],
                       sbs_received_power=self.sbs_received_power[index],
                       mbs_snr=self.mbs_snr[index])

    def with_sbs_tx_power(self, tx_power: float) -> "Topology":
        """The topology, or stack, with every SBS transmit power replaced."""
        return replace(self, sbs_tx_power=_read_only(np.full(self.n_sbs, tx_power)),
                       sbs_received_power=_read_only(
                           _received_power(self.gain[..., 1:], [tx_power] * self.n_sbs)))


def _topology(mbs: BsParams, sbs_tx_power: Sequence[float], sbs_op_power: Sequence[float],
              sbs_bandwidth: Sequence[float], sbs_max_users: Sequence[int], xy: np.ndarray,
              gain: np.ndarray, noise_power: float, area: tuple[float, float]) -> Topology:
    """The topology, or stack, of these BS parameters and positions, with
    the gains checked and the received power and MBS SNR computed."""
    if noise_power <= 0:
        raise ValueError("noise power must be positive")
    _check_gains(gain)
    recv = _received_power(gain, [mbs.tx_power, *sbs_tx_power])
    return Topology(
        mbs=mbs, sbs_tx_power=_read_only(np.array(sbs_tx_power)),
        sbs_op_power=_read_only(np.array(sbs_op_power)),
        sbs_max_users=_read_only(np.array(sbs_max_users, dtype=int)),
        bandwidths=_read_only(np.array([mbs.bandwidth, *sbs_bandwidth])),
        noise_power=noise_power, area=area, xy=xy, gain=gain,
        sbs_received_power=_read_only(np.ascontiguousarray(recv[..., 1:])),
        mbs_snr=_read_only(recv[..., MBS_ID] / noise_power))


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


def place_stack(area: tuple[float, float], n_sbs: int, n_ue: int,
                rngs: Iterable[np.random.Generator], *,
                noise_power: float = dbm_to_watts(-104.0), **params) -> Topology:
    """Drop the MBS at the area center and SBSs/UEs uniformly at random, once
    with each generator of `rngs`: a stack of the placements in their order,
    whose rows (`Topology.take`) are topologies.

    `params` sets the BS parameters by keyword (defaults): `mbs_tx_power`
    (33 dBm), `mbs_op_power` (20 W), `mbs_bandwidth` (10 MHz),
    `mbs_max_users` (50), and the same four of every SBS: `sbs_tx_power`
    (23 dBm), `sbs_op_power` (10 W), `sbs_bandwidth` (10 MHz) and
    `sbs_max_users` (10). Deterministic for fixed generator states: each
    generator draws the SBS positions and then the UE positions before the
    next is taken, so one generator may come back with a new state. Gains
    follow from the positions by `channel_gain`.
    """
    w, h = _area(area, n_sbs, n_ue)
    mbs, sbs = _stations(w, h, **params)
    xy = np.array([_positions(rng, n_sbs + n_ue, w, h) for rng in rngs])
    bs_xy = np.concatenate((np.broadcast_to([[mbs.x, mbs.y]], (len(xy), 1, 2)),
                            xy[:, :n_sbs]), axis=1)
    gain = _gains([mbs.kind] + [sbs.kind] * n_sbs, bs_xy, xy[:, n_sbs:])
    return _topology(mbs, [sbs.tx_power] * n_sbs, [sbs.op_power_max] * n_sbs,
                     [sbs.bandwidth] * n_sbs, [sbs.max_users] * n_sbs, xy, gain,
                     noise_power, (w, h))


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
    # a NaN gain makes the minimum NaN, which fails the test
    if not (0.0 < gain.min(initial=math.inf) and gain.max(initial=0.0) < math.inf):
        raise ValueError("channel gains must be positive and finite")


def _received_power(gain: np.ndarray, tx_power: Sequence[float]) -> np.ndarray:
    recv = gain * np.array(tx_power)
    if not np.isfinite(recv).all():
        raise ValueError("received power must be finite")
    return recv


def sinr_matrix(sigma: np.ndarray, topo: Topology) -> np.ndarray:
    """Per-UE link quality: column 0 is SNR to the MBS, columns >= 1 are SINRs.

    `sigma` is one ON set (n_bs,) or a stack (P, n_bs) of them, each paired
    with the row of the stack `topo` at its index (or broadcast against one
    topology); the result is (n_ue, n_bs) per pair. Interference sums over
    ON SBSs only, per pair as `recv @ on` sums it; the MBS never interferes.
    An OFF SBS's column is exactly 0.0.
    """
    recv = topo.sbs_received_power
    on = sigma[..., 1:].astype(float)
    own = recv * (on if on.ndim == 1 else on[..., None, :])
    sinr = np.matmul(recv, on[..., :, None]) - own
    sinr += topo.noise_power  # noise and interference
    np.divide(own, sinr, out=sinr)
    mbs = topo.mbs_snr[..., None]
    if mbs.ndim < own.ndim:  # one topology, a stack of ON sets
        mbs = np.broadcast_to(mbs, own.shape[:-1] + (1,))
    return np.concatenate((mbs, sinr), axis=-1)


def associate(sigma: np.ndarray, topo: Topology) -> NetworkState:
    """Assign each UE to the ON BS with the largest SINR (SNR for the MBS),
    for one ON set `sigma` (n_bs,): of one topology, or of each topology of
    a stack, as `associate_stack` does. The state keeps a read-only copy of
    `sigma`, so the caller may go on mutating its own array, and states
    shared between callers cannot be altered. (A stack of ON sets
    goes to `associate_stack`: `bench/tracer.py` reads this function's first
    argument as one ON set.)"""
    sigma = np.array(sigma, dtype=bool)
    if not sigma[MBS_ID]:
        raise ValueError("the MBS is always ON")
    return _associate(sigma, topo)


def associate_stack(sigma: np.ndarray, topo: Topology) -> NetworkState:
    """The association of every (topology, ON set) pair of `sigma` and
    `topo` (as `sinr_matrix` pairs them), each with the bits it has alone.

    Ties break toward the lowest BS index. OFF BSs are never chosen, without
    a mask: their SINR is 0.0 and the MBS's SNR, >= 0, comes first. The state
    keeps `sigma` and makes it read-only.
    """
    if not np.logical_and.reduce(sigma[..., MBS_ID], axis=None):
        raise ValueError("the MBS is always ON")
    return _associate(sigma, topo)


def _associate(sigma: np.ndarray, topo: Topology) -> NetworkState:
    metric = sinr_matrix(sigma, topo)
    n_bs = metric.shape[-1]
    serving = metric.argmax(axis=-1)  # first max == lowest index
    # each UE's row of the metric starts n_bs after the previous one's
    if serving.ndim == 1:  # one ON set of one topology
        sinr = metric.take(topo.row_start + serving)
    else:
        sinr = metric.take(np.arange(0, metric.size, n_bs).reshape(serving.shape) + serving)
        if sigma.ndim < serving.ndim:  # one ON set of every topology of a stack
            sigma = np.broadcast_to(sigma, serving.shape[:-1] + sigma.shape[-1:])
    counts = _per_bs(serving, n_bs)
    for a in (sigma, serving, sinr):
        a.setflags(False)  # write=False, passed positionally: the cheaper call
    return NetworkState(sigma, serving, sinr, counts)


def associate_subsets(topo: Topology, ids: Sequence[int]) -> NetworkState | None:
    """The association of every ON set of one topology in which the SBSs
    `ids` (ascending) may be ON and every other SBS is OFF, as a stack of
    2^m states, m = len(ids): row s has SBS `ids[i]` ON iff bit i of s is
    set (`_subsets`), with the bits `associate` gives that set alone. None
    when an array of the pass would hold more than `STACK_LINKS` elements:
    2^m times the UE or BS count.

    Most UEs cannot leave the MBS in any of these sets. In a set S, UE u's
    SINR to an ON cell j is `fl(r_uj / fl(fl(I_u - r_uj) + N))`, where the
    interference sum `I_u` of non-negative terms, r_uj among them, is at
    least r_uj; rounding is monotone, so that SINR is at most
    `fl(r_uj / N)`, and an OFF cell's is 0.0. A UE whose `fl(r_uj / N)` is
    at most its MBS SNR for every j of `ids` is therefore on the MBS (index
    0, which wins ties) in every set, with its MBS SNR. Only the other,
    contestable, UEs (c of them) get a per-set block of their MBS SNR and
    SINRs to the m cells, (2^m, c, m + 1), whose first maximum is their
    server; it is made in chunks of sets, each of at most `STACK_LINKS`
    elements (c <= 2^-m * STACK_LINKS and m + 1 <= 2^m, so a chunk holds at
    least one set), and every element is computed alone. `I` is
    `sinr_matrix`'s matmul over every UE, of which the contestable rows are
    taken: a matmul over those rows alone need not group its sums as the
    full one does.
    """
    m, n_ue, n_bs = len(ids), topo.n_ue, topo.n_bs
    n = 1 << m
    if n * max(n_ue, n_bs) > STACK_LINKS:
        return None
    recv, mbs = topo.sbs_received_power, topo.mbs_snr
    r = recv[:, [j - 1 for j in ids]]  # (n_ue, m) from the cells of `ids`
    contest = np.flatnonzero((r / topo.noise_power > mbs[:, None]).any(axis=1))
    c = contest.size
    on = _subsets(m)
    sigma = np.zeros((n, n_bs), dtype=bool)
    sigma[:, MBS_ID] = True
    sigma[:, ids] = on
    serving = np.zeros((n, n_ue), dtype=np.intp)
    sinr = np.empty((n, n_ue))
    sinr[:] = mbs
    if c:
        interference = np.matmul(recv, sigma[:, 1:].astype(float)[..., :, None])[:, contest]
        r, servers = r[contest], np.array([MBS_ID, *ids])
        rows = STACK_LINKS // (c * (m + 1))
        for lo in range(0, n, rows):
            part = slice(lo, lo + rows)
            own = r * on[part, None, :]  # r * 1.0 or r * 0.0, as `recv * on`
            block = np.empty(own.shape[:2] + (m + 1,))
            block[..., MBS_ID] = mbs[contest]
            link = np.subtract(interference[part], own, out=block[..., 1:])
            link += topo.noise_power
            np.divide(own, link, out=link)
            pick = block.argmax(axis=-1)  # first max == lowest index
            serving[part, contest] = servers[pick]
            # each (set, UE) row of the block starts m + 1 after the previous one's
            sinr[part, contest] = block.take(
                np.arange(0, block.size, m + 1).reshape(pick.shape) + pick)
    counts = _per_bs(serving, n_bs)
    for a in (sigma, serving, sinr):
        a.setflags(False)  # write=False, passed positionally: the cheaper call
    return NetworkState(sigma, serving, sinr, counts)


@lru_cache(maxsize=None)
def _subsets(m: int) -> np.ndarray:
    """(2^m, m) bool, read-only: row `mask` holds the cells ON in bitmask
    `mask` (bit i = cell i)."""
    on = (np.arange(1 << m)[:, None] >> np.arange(m)) & 1 == 1
    on.flags.writeable = False
    return on


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


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(False)  # write=False, passed positionally: the cheaper call
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
