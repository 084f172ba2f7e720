"""OFF-time policies: deterministic (DOA), randomized (ROA), the adaptive
rule for piecewise-decreasing rent, and the fixed-time / storage-threshold
baselines. Pure decision functions live at module level; the Policy classes
state them as the data the engine's storage step reads: one OFF time per served
cell, which `adaptive` moves when it observes a lower rent, or a storage
threshold.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .pricing import PriceTag

E = math.e
# relative rent change the adaptive policy takes as a new, lower level
RENT_RTOL = 1e-9


def doa_off_time(rent: float, buy: float, period: float) -> float:
    """Deterministic OFF time b/r, clamped to the period.

    Zero rent degenerates to never switching OFF voluntarily.
    """
    if rent < 0 or buy < 0 or period <= 0:
        raise ValueError("prices must be non-negative and the period positive")
    if rent == 0.0:
        return period
    return min(max(buy / rent, 0.0), period)


def roa_off_time(rent: float, buy: float, mu: float) -> float:
    """Inverse-CDF draw of the randomized OFF time; always in [0, b/r]."""
    if rent <= 0:
        raise ValueError("rent must be positive")
    if buy < 0:
        raise ValueError("buy must be non-negative")
    if not (0.0 <= mu <= 1.0):
        raise ValueError("mu must lie in [0, 1]")
    if buy == 0.0:
        return 0.0
    return buy / rent * math.log1p(mu * (E - 1.0))


@dataclass(frozen=True)
class RentHistory:
    """Strictly decreasing rent levels with the times they took effect.

    steps[v] = (time, rent); the first time must be 0 and rents must strictly
    decrease, which is the regime the adaptive update rule is valid for.
    """

    steps: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        if not self.steps:
            raise ValueError("history must contain at least one rent level")
        if self.steps[0][0] != 0.0:
            raise ValueError("the first rent level must start at time 0")
        for (t0, r0), (t1, r1) in zip(self.steps, self.steps[1:]):
            if t1 <= t0:
                raise ValueError("rent-change times must strictly increase")
            if r1 >= r0:
                raise ValueError("rents must strictly decrease")
        if any(r <= 0 for _, r in self.steps):
            raise ValueError("rents must be positive")

    def extended(self, t: float, rent: float) -> "RentHistory":
        return RentHistory(self.steps + ((t, rent),))


def adaptive_off_time(history: RentHistory, buy: float) -> float:
    """Scheduled OFF time that keeps the accumulated rent equal to the buy price.

    With a single rent level this is b/r; each further (strictly lower) level
    pushes the OFF time strictly later.
    """
    if buy < 0:
        raise ValueError("buy must be non-negative")
    steps = history.steps
    r_last = steps[-1][1]
    correction = 0.0
    for v in range(1, len(steps)):
        t_change = steps[v][0]
        correction += t_change * (steps[v - 1][1] - steps[v][1])
    return buy / r_last - correction / r_last


# ---------------------------------------------------------------------------
# Policy objects, which the engine reads as data.


class Policy:
    """One scheduling policy instance, reset per period: either a
    `ScheduledPolicy` or the `ThresholdPolicy`.

    `draws` says whether `reset` reads its per-cell generators; a run seeds
    them for a policy that does, and passes None for every cell otherwise.
    """

    name = "policy"
    draws = False

    def reset(self, tags: list[PriceTag], period: float,
              rngs: list[np.random.Generator]) -> None:
        raise NotImplementedError


class ScheduledPolicy(Policy):
    """Common base: decide one OFF time per SBS at the period start.

    A cell is ON while the slot start is before its OFF time; the engine
    reads `off_times` after `reset`.
    """

    def __init__(self) -> None:
        self.off_times: dict[int, float] = {}


class DoaPolicy(ScheduledPolicy):
    name = "doa"

    def reset(self, tags, period, rngs):
        self.off_times = {tag.sbs: doa_off_time(tag.rent, tag.buy, period) for tag in tags}


class RoaPolicy(ScheduledPolicy):
    name = "roa"
    draws = True

    def reset(self, tags, period, rngs):
        self.off_times = {}
        for tag in tags:
            mu = float(rngs[tag.sbs - 1].uniform())
            if tag.rent == 0.0:
                self.off_times[tag.sbs] = period
            else:
                self.off_times[tag.sbs] = roa_off_time(tag.rent, tag.buy, mu)


class FixedPolicy(ScheduledPolicy):
    """One OFF time shared by all SBSs; a time past the period means never."""

    def __init__(self, t_fix: float) -> None:
        super().__init__()
        if not t_fix >= 0.0:
            raise ValueError(f"fixed OFF time must be non-negative, got {t_fix}")
        self.t_fix = t_fix
        self.name = f"fixed:{t_fix:g}"

    def reset(self, tags, period, rngs):
        self.off_times = {tag.sbs: min(self.t_fix, period) for tag in tags}


class ThresholdPolicy(Policy):
    """Storage-threshold baseline: a served cell is ON in a slot iff its
    storage is strictly above `k_percent` % of the capacity, which must be
    positive. The engine makes the test inline, in every slot."""

    def __init__(self, k_percent: float) -> None:
        if not 0.0 <= k_percent <= 100.0:
            raise ValueError(f"threshold must lie in [0, 100], got {k_percent}")
        self.k_percent = k_percent
        self.name = f"threshold:{k_percent:g}"

    def reset(self, tags, period, rngs):
        pass


class AdaptivePolicy(ScheduledPolicy):
    """Re-derives the OFF time whenever the observed rent strictly decreases.

    A rent increase is outside the rule's validity; the previous schedule is
    held.
    """

    name = "adaptive"

    def __init__(self) -> None:
        super().__init__()
        self.histories: dict[int, RentHistory] = {}
        self.buys: dict[int, float] = {}

    def reset(self, tags, period, rngs):
        self.period = period
        self.histories = {}
        self.buys = {tag.sbs: tag.buy for tag in tags}
        self.off_times = {}
        for tag in tags:
            if tag.rent > 0.0:
                self.histories[tag.sbs] = RentHistory(((0.0, tag.rent),))
                self.off_times[tag.sbs] = adaptive_off_time(
                    self.histories[tag.sbs], tag.buy)
            else:
                self.off_times[tag.sbs] = period

    def observe(self, j: int, t: float, rent: float) -> bool:
        """Take SBS `j`'s live rent at time `t`; return whether its OFF time
        moved. Observing the last rent seen again changes nothing."""
        history = self.histories.get(j)
        if history is None:
            return False
        last = history.steps[-1][1]
        if not last - rent > RENT_RTOL * last:
            return False
        if rent <= 0.0:
            # a zero rent adds nothing: a cell that has not paid the buy
            # price by now never will, and stays ON
            del self.histories[j]
            if t < self.off_times[j]:
                self.off_times[j] = self.period
                return True
            return False
        # a lower live rent at the start replaces the frozen tag's level
        self.histories[j] = (RentHistory(((0.0, rent),)) if t == 0.0
                             else history.extended(t, rent))
        self.off_times[j] = adaptive_off_time(self.histories[j], self.buys[j])
        return True


def make_policy(spec: str) -> Policy:
    """Parse a policy string: doa | roa | adaptive | fixed:<t> | threshold:<K>."""
    kind, _, arg = spec.partition(":")
    kind = kind.strip().lower()
    if kind == "doa":
        return DoaPolicy()
    if kind == "roa":
        return RoaPolicy()
    if kind == "adaptive":
        return AdaptivePolicy()
    if kind == "fixed":
        if not arg:
            raise ValueError("fixed policy needs a time, e.g. fixed:7")
        return FixedPolicy(float(arg))
    if kind == "threshold":
        if not arg:
            raise ValueError("threshold policy needs a percentage, e.g. threshold:50")
        return ThresholdPolicy(float(arg))
    raise ValueError(f"unknown policy {spec!r}")
