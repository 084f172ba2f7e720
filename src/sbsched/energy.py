"""Energy side: BS power model, Poisson harvesting, and the stored energy
that crosses a period boundary.

Harvesting happens every slot regardless of the ON/OFF state; consumption is
charged only while ON. The slot loops (`engine.run_period` and the oracle's
evaluator) make the storage step, `min(e + h - c, cap)`, and the depletion
test, which is strict: a cell whose stored plus freshly harvested energy
cannot fund the next slot is forced OFF.
"""
from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .network import BsParams


@dataclass(frozen=True)
class HarvestParams:
    """Poisson energy arrivals: `rate` arrivals/second of `quantum` joules."""

    rate: float = 20.0
    quantum: float = 0.2

    def __post_init__(self) -> None:
        if not (self.rate >= 0 and self.quantum >= 0):
            raise ValueError("harvest rate and quantum must be non-negative")


@dataclass
class EnergyState:
    """Per-SBS stored energy and the capacity: what crosses a period boundary."""

    stored: np.ndarray  # joules per SBS
    capacity: float

    def __post_init__(self) -> None:
        self.stored = np.asarray(self.stored, dtype=float)
        if np.any(self.stored < 0) or np.any(self.stored > self.capacity + 1e-12):
            raise ValueError("stored energy out of [0, capacity]")

    @classmethod
    def fresh(cls, n_sbs: int, initial: float, capacity: float) -> "EnergyState":
        """Every cell at `initial`. The bounds are checked once, on the
        scalar: the filled array is in range when it is, so the elementwise
        check of direct construction is skipped."""
        if not (0.0 <= initial <= capacity):
            raise ValueError("initial energy must lie in [0, capacity]")
        state = cls.__new__(cls)
        state.stored, state.capacity = np.full(n_sbs, float(initial)), float(capacity)
        return state


def bs_power(params: BsParams, n_users: int, q: float) -> float:
    """Instantaneous power draw of an ON BS with `n_users` attached (watts)."""
    if n_users < 0:
        raise ValueError("n_users must be non-negative")
    if n_users > params.max_users:
        warnings.warn(
            f"BS {params.id}: {n_users} users exceed max {params.max_users}; "
            "clamping the proportional term",
            stacklevel=2,
        )
        n_users = params.max_users
    p = params.op_power_max
    return (n_users / params.max_users) * (1.0 - q) * p + q * p


def harvest_trace(
    params: HarvestParams, dt: float, n_steps: int, n_sbs: int, rng: np.random.Generator
) -> np.ndarray:
    """Pre-sampled (n_steps, n_sbs) arrival trace for one period."""
    if params.rate == 0.0 or params.quantum == 0.0:
        return np.zeros((n_steps, n_sbs))
    return params.quantum * rng.poisson(params.rate * dt, size=(n_steps, n_sbs)).astype(float)


def load_harvest_trace(path: str, n_sbs: int, dt: float, n_steps: int) -> np.ndarray:
    """Read a recorded arrival trace (CSV: time, sbs_id, joules) onto the slot grid.

    Arrivals are credited to the slot containing their timestamp; SBS ids are
    1-based (matching BS indices). Rows beyond the horizon are ignored.
    """
    trace = np.zeros((n_steps, n_sbs))
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if [c.strip().lower() for c in header] != ["time", "sbs_id", "joules"]:
            raise ValueError(f"{path}: expected header 'time,sbs_id,joules'")
        for row in reader:
            if not row:
                continue
            t, sbs_id, joules = float(row[0]), int(row[1]), float(row[2])
            if not (1 <= sbs_id <= n_sbs):
                raise ValueError(f"{path}: sbs_id {sbs_id} out of range")
            k = int(math.floor(t / dt + 1e-9))
            if 0 <= k < n_steps:
                trace[k, sbs_id - 1] += joules
    return trace
