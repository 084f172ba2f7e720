"""Energy side: BS power model, Poisson harvesting, and the stored energy
that crosses a period boundary.

Arrivals are drawn per period by `harvest_trace`. A recorded trace enters a
run as the harvest arrays of an `engine.Replication` built by hand.

Harvesting happens every slot regardless of the ON/OFF state; consumption is
charged only while ON. The slot loops (`engine.run_period`, and the oracle's
`_slot_step`, shared by its row evaluator and its optimum search) make the
storage step, `min(e + h - c, cap)`, and the depletion test, which is strict:
a cell whose stored plus freshly harvested energy cannot fund the next slot is
forced OFF.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np


@dataclass(frozen=True)
class HarvestParams:
    """Poisson energy arrivals: `rate` arrivals/second of `quantum` joules."""

    rate: float = 20.0
    quantum: float = 0.2

    def __post_init__(self) -> None:
        if not (0.0 <= self.rate < math.inf and 0.0 <= self.quantum < math.inf):
            raise ValueError("harvest rate and quantum must be non-negative and finite")


@dataclass(eq=False)
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


def power_draw(op_power: np.ndarray, max_users: np.ndarray, n_users: np.ndarray,
               q: float, ids: Sequence[int]) -> np.ndarray:
    """Instantaneous power draw (watts) of ON BSs, elementwise: the BS of
    full-load power `op_power[i]` and capacity `max_users[i]` with
    `n_users[i]` attached draws `(n / max) * (1 - q) * op + q * op`.

    Counts are non-negative, on any leading stack axes. A count above the
    capacity is clamped to it, with a `UserWarning` that names the BS by its
    id, `ids[i]` for the last axis' index i.
    """
    over = n_users > max_users
    if np.logical_or.reduce(over, axis=None):
        n_b, max_b = np.broadcast_arrays(n_users, max_users)
        for i in np.flatnonzero(over).tolist():
            warnings.warn(
                f"BS {ids[i % over.shape[-1]]}: {n_b.flat[i]} users exceed max "
                f"{max_b.flat[i]}; clamping the proportional term",
                stacklevel=2,
            )
        n_users = np.minimum(n_users, max_users)
    return (n_users / max_users) * (1.0 - q) * op_power + q * op_power


# the largest mean numpy's Poisson sampler takes; a larger one raises mid-draw
POISSON_MEAN_MAX = float(np.iinfo(np.int64).max - 10 * np.sqrt(np.iinfo(np.int64).max))


def harvest_trace(
    params: HarvestParams, dt: float, n_steps: int, n_sbs: int, rng: np.random.Generator
) -> np.ndarray:
    """Pre-sampled (n_steps, n_sbs) arrival trace for one period."""
    if params.rate == 0.0 or params.quantum == 0.0:
        return np.zeros((n_steps, n_sbs))
    return params.quantum * rng.poisson(params.rate * dt, size=(n_steps, n_sbs)).astype(float)

