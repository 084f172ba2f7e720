"""Network model: placement, channel gains, SINR/SNR, user association, rates, delay.

Link quality, rates and delays are computed for the whole network at once
(`sinr_matrix`, `ue_rates`, `all_bs_delays`); `pricing.OnSetTable` caches
them per ON set.

All radio quantities are stored linear (watts, dimensionless gains). Channel
gains are static per run (time-averaged); only the ON/OFF vector changes the
network state. What does not depend on it (the received power, the MBS SNR,
the bandwidths) is computed once per `Topology`, on first use. The MBS
(index 0) is always ON and never interferes with the SBS tier.

OFF cells need no mask in the association: an OFF SBS's SINR column is
exactly 0.0 (its received power, finite, times 0.0), and the MBS column,
an SNR >= 0, comes first, so the first-maximum rule never picks an OFF cell.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Sequence

import numpy as np

MBS_ID = 0


class UnserviceableError(RuntimeError):
    """A UE ended up with zero achievable rate (infinite delay)."""


def dbm_to_watts(dbm: float) -> float:
    return 10.0 ** ((dbm - 30.0) / 10.0)


def watts_to_dbm(watts: float) -> float:
    if watts <= 0:
        raise ValueError("power must be positive to convert to dBm")
    return 10.0 * math.log10(watts) + 30.0


@dataclass(frozen=True)
class PathLossModel:
    """Log-distance path loss in dB, separate constants per link kind.

    Defaults are the common 3GPP-style macro/pico models at ~2 GHz.
    """

    mbs_const: float = 128.1
    mbs_slope: float = 37.6
    sbs_const: float = 140.7
    sbs_slope: float = 36.7
    min_distance: float = 1.0

    def loss_db(self, d: float, link_kind: str) -> float:
        if link_kind == "MBS":
            const, slope = self.mbs_const, self.mbs_slope
        elif link_kind == "SBS":
            const, slope = self.sbs_const, self.sbs_slope
        else:
            raise ValueError(f"unknown link kind {link_kind!r}")
        return const + slope * math.log10(d / 1000.0)


DEFAULT_PATH_LOSS = PathLossModel()


def channel_gain(d: float, link_kind: str, model: PathLossModel = DEFAULT_PATH_LOSS) -> float:
    """Linear channel gain at distance d (meters) for an MBS or SBS link.

    Distances below the model's minimum distance are clamped up to it.
    """
    d = max(d, model.min_distance)
    if d <= 0:
        raise ValueError("distance must be positive")
    return 10.0 ** (-model.loss_db(d, link_kind) / 10.0)


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
        if not (0.0 < self.tx_fraction <= 1.0):
            raise ValueError("tx power must not exceed operational power")

    @property
    def tx_fraction(self) -> float:
        """Fraction of operational power spent on transmission."""
        return self.tx_power / self.op_power_max


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
    path_loss: PathLossModel = DEFAULT_PATH_LOSS

    def __post_init__(self) -> None:
        if self.noise_power <= 0:
            raise ValueError("noise power must be positive")
        if self.gain.shape != (self.n_ue, self.n_bs):
            raise ValueError("gain matrix does not match node counts")
        if not np.all(np.isfinite(self.gain)) or np.any(self.gain <= 0):
            raise ValueError("channel gains must be positive and finite")
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

    @cached_property
    def received_power(self) -> np.ndarray:
        """(n_ue, n_bs) power each UE receives from each BS, in watts."""
        recv = self.gain * np.array([b.tx_power for b in self.bs])[None, :]
        if not np.isfinite(recv).all():
            raise ValueError("received power must be finite")
        return _read_only(recv)

    @cached_property
    def sbs_received_power(self) -> np.ndarray:
        """The SBS columns of `received_power`, as one contiguous block."""
        return _read_only(np.ascontiguousarray(self.received_power[:, 1:]))

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
class NetworkState:
    """ON/OFF vector, the resulting max-SINR user association, and each UE's
    link quality to its server (SNR for the MBS, SINR for an SBS)."""

    sigma: np.ndarray  # (n_bs,) bool
    serving: np.ndarray  # (n_ue,) serving BS index per UE
    sinr: np.ndarray  # (n_ue,) link quality to the serving BS
    counts: np.ndarray = field(init=False)  # (n_bs,) UEs served by each BS, read-only

    def __post_init__(self) -> None:
        if not self.sigma[MBS_ID]:
            raise ValueError("the MBS is always ON")
        counts = np.bincount(self.serving, minlength=self.sigma.size)
        object.__setattr__(self, "counts", _read_only(counts))

    def members(self, bs: int) -> np.ndarray:
        return np.flatnonzero(self.serving == bs)

    def n_members(self, bs: int) -> int:
        return int(self.counts[bs])


def place_nodes(
    area: tuple[float, float],
    n_sbs: int,
    n_ue: int,
    rng: np.random.Generator,
    *,
    mbs_tx_power: float = dbm_to_watts(33.0),
    mbs_op_power: float = 20.0,
    mbs_bandwidth: float = 10e6,
    mbs_max_users: int = 50,
    sbs_tx_power: float = dbm_to_watts(23.0),
    sbs_op_power: float = 10.0,
    sbs_bandwidth: float = 10e6,
    sbs_max_users: int = 10,
    noise_power: float = dbm_to_watts(-104.0),
    path_loss: PathLossModel = DEFAULT_PATH_LOSS,
) -> Topology:
    """Drop the MBS at the area center and SBSs/UEs uniformly at random.

    Deterministic for a fixed generator state; gains are filled from the
    configured path-loss model.
    """
    w, h = float(area[0]), float(area[1])
    if w <= 0 or h <= 0:
        raise ValueError("service area must have positive extent")
    if n_sbs < 0 or n_ue < 1:
        raise ValueError("need n_sbs >= 0 and n_ue >= 1")

    center = (w / 2.0, h / 2.0)
    sbs_xy = rng.uniform([0.0, 0.0], [w, h], size=(n_sbs, 2))
    ue_xy = rng.uniform([0.0, 0.0], [w, h], size=(n_ue, 2))

    bs = [
        BsParams(
            id=0, kind="MBS", x=center[0], y=center[1],
            tx_power=mbs_tx_power, op_power_max=mbs_op_power,
            bandwidth=mbs_bandwidth, max_users=mbs_max_users,
        )
    ]
    for j in range(n_sbs):
        bs.append(
            BsParams(
                id=j + 1, kind="SBS", x=float(sbs_xy[j, 0]), y=float(sbs_xy[j, 1]),
                tx_power=sbs_tx_power, op_power_max=sbs_op_power,
                bandwidth=sbs_bandwidth, max_users=sbs_max_users,
            )
        )

    gain = compute_gains(tuple(bs), ue_xy, path_loss)
    return Topology(
        bs=tuple(bs), ue=ue_xy, gain=gain, noise_power=noise_power,
        area=(w, h), path_loss=path_loss,
    )


def compute_gains(bs: Sequence[BsParams], ue_xy: np.ndarray, model: PathLossModel) -> np.ndarray:
    gain = np.empty((ue_xy.shape[0], len(bs)))
    for j, b in enumerate(bs):
        d = np.hypot(ue_xy[:, 0] - b.x, ue_xy[:, 1] - b.y)
        gain[:, j] = [channel_gain(x, b.kind, model) for x in d.tolist()]
    return gain


def sinr_matrix(sigma: np.ndarray, topo: Topology) -> np.ndarray:
    """Per-UE link quality: column 0 is SNR to the MBS, columns >= 1 are SINRs.

    Interference sums over ON SBSs only; the MBS never interferes. An OFF
    SBS's column is exactly 0.0.
    """
    out = np.empty(topo.gain.shape)
    out[:, MBS_ID] = topo.mbs_snr
    if topo.n_sbs:
        recv = topo.sbs_received_power
        on = sigma[1:].astype(float)
        own = recv * on
        noise_and_interference = (recv @ on)[:, None] - own
        noise_and_interference += topo.noise_power
        np.divide(own, noise_and_interference, out=out[:, 1:])
    return out


def associate(sigma: np.ndarray, topo: Topology) -> NetworkState:
    """Assign each UE to the ON BS with the largest SINR (SNR for the MBS).

    Ties break toward the lowest BS index. OFF BSs are never chosen, without
    a mask: their SINR is 0.0 and the MBS's SNR, >= 0, comes first. The state
    keeps a read-only copy of `sigma`, so the caller may go on mutating its own
    array, and states shared between callers cannot be altered.
    """
    sigma = np.array(sigma, dtype=bool)
    if not sigma[MBS_ID]:
        raise ValueError("the MBS is always ON")
    metric = sinr_matrix(sigma, topo)
    serving = metric.argmax(axis=1)  # first max == lowest index
    sinr = metric[np.arange(serving.size), serving]
    for a in (sigma, serving, sinr):
        a.setflags(write=False)
    return NetworkState(sigma=sigma, serving=serving, sinr=sinr)


def ue_rates(state: NetworkState, topo: Topology) -> np.ndarray:
    """Achievable rate of every UE: equal bandwidth split at its serving BS."""
    serving = state.serving
    share = topo.bandwidths[serving] / state.counts[serving]
    return share * np.log2(1.0 + state.sinr)


def all_bs_delays(state: NetworkState, topo: Topology, file_bits: float) -> np.ndarray:
    """Per-BS total delay, vectorized over the whole network. Each BS's UE
    delays are added in UE order."""
    rates = ue_rates(state, topo)
    if (rates <= 0).any():
        raise UnserviceableError("a UE has zero achievable rate")
    return np.bincount(state.serving, weights=file_bits / rates, minlength=topo.n_bs)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


# ---------------------------------------------------------------------------
# Scenario-replay serialization (gains omitted, recomputed on load)

def topology_to_json(topo: Topology) -> str:
    doc = {
        "area": list(topo.area),
        "noise_power_dbm": watts_to_dbm(topo.noise_power),
        "path_loss": {
            "mbs_const": topo.path_loss.mbs_const,
            "mbs_slope": topo.path_loss.mbs_slope,
            "sbs_const": topo.path_loss.sbs_const,
            "sbs_slope": topo.path_loss.sbs_slope,
            "min_distance": topo.path_loss.min_distance,
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


def topology_from_json(text: str) -> Topology:
    doc = json.loads(text)
    model = PathLossModel(**doc["path_loss"])
    bs = tuple(
        BsParams(
            id=b["id"], kind=b["kind"], x=b["x"], y=b["y"],
            tx_power=dbm_to_watts(b["tx_power_dbm"]),
            op_power_max=b["op_power_w"],
            bandwidth=b["bandwidth_hz"],
            max_users=b["max_users"],
        )
        for b in doc["bs"]
    )
    ue = np.array(doc["ue"], dtype=float).reshape(-1, 2)
    gain = compute_gains(bs, ue, model)
    return Topology(
        bs=bs, ue=ue, gain=gain,
        noise_power=dbm_to_watts(doc["noise_power_dbm"]),
        area=tuple(doc["area"]), path_loss=model,
    )
