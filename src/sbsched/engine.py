"""Time-stepped simulation of scheduling periods.

Each period: freeze prices from the all-ON association, let the policy pick
OFF times, then advance slot by slot -- harvest, voluntary OFF (buy charged
once), depletion check (forced OFF, no buy), re-association, cost accrual,
storage update. Network state (association, live rents, power draw, delays)
is a function of the ON set and the SBS transmit power only, so every slot
reads it from a `pricing.OnSetTable`, one per transmit-power epoch of the
period, which computes each ON set once. Two accounting modes exist: "live"
charges the instantaneous rent rate of the current state (the original
problem), "frozen" charges the period-start flat rate and also freezes the
power draw, which fully decouples the SBSs (the approximated problem).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import energy as energy_mod
from . import network, pricing
from .energy import EnergyState, HarvestParams
from .network import Topology, dbm_to_watts
from .pricing import CostWeights
from .schedulers import Policy, make_policy


@dataclass(frozen=True)
class ScenarioConfig:
    """One simulation scenario; defaults mirror the reference desk-scale setup."""

    period: float = 10.0
    dt: float = 0.1
    horizon_periods: int = 2
    n_sbs: int = 6
    n_ue: int = 30
    area: tuple[float, float] = (500.0, 500.0)
    mbs_tx_power: float = dbm_to_watts(33.0)
    sbs_tx_power: float = dbm_to_watts(23.0)
    mbs_op_power: float = 20.0
    sbs_op_power: float = 10.0
    mbs_bandwidth: float = 10e6
    sbs_bandwidth: float = 10e6
    mbs_max_users: int = 50
    sbs_max_users: int = 10
    noise_power: float = dbm_to_watts(-104.0)
    file_bits: float = 1e5
    harvest_rate: float = 20.0
    harvest_quantum: float = 0.2
    initial_energy: float = 60.0
    capacity: float = 100.0
    q: float = 0.9
    alpha_d: float = 0.05
    alpha_p: float = 0.05
    alpha_b: float = 0.05
    seed: int = 0
    policy: str = "roa"
    price_mode: str = "live"  # "live" (original problem) or "frozen" (approximated)
    off_tie: str = "voluntary"  # who wins when voluntary and depletion OFF coincide
    # optional SBS transmit-power updates within each period: ((time, watts), ...)
    sbs_tx_schedule: tuple[tuple[float, float], ...] = ()
    harvest_trace_file: str | None = None

    def __post_init__(self) -> None:
        if self.period <= 0 or self.dt <= 0:
            raise ValueError("period and dt must be positive")
        n = self.period / self.dt
        if abs(n - round(n)) > 1e-9:
            raise ValueError("dt must divide the period evenly")
        if self.horizon_periods < 1:
            raise ValueError("horizon must cover at least one period")
        if self.price_mode not in ("live", "frozen"):
            raise ValueError("price_mode must be 'live' or 'frozen'")
        if self.off_tie not in ("voluntary", "depletion"):
            raise ValueError("off_tie must be 'voluntary' or 'depletion'")
        if not (0.0 <= self.initial_energy <= self.capacity):
            raise ValueError("initial energy must lie in [0, capacity]")
        times = [when for when, _ in self.sbs_tx_schedule]
        if any(t1 <= t0 for t0, t1 in zip(times, times[1:])):
            raise ValueError("sbs_tx_schedule times must strictly increase")
        if not all(0.0 <= when < self.period for when in times):
            raise ValueError("sbs_tx_schedule times must lie in [0, period)")
        if not all(0.0 < watts <= self.sbs_op_power for _, watts in self.sbs_tx_schedule):
            raise ValueError("sbs_tx_schedule powers must lie in (0, sbs_op_power]")

    @property
    def n_steps(self) -> int:
        return int(round(self.period / self.dt))

    @property
    def weights(self) -> CostWeights:
        return CostWeights(self.alpha_d, self.alpha_p, self.alpha_b)

    @property
    def harvest(self) -> HarvestParams:
        return HarvestParams(self.harvest_rate, self.harvest_quantum)


@dataclass
class PeriodResult:
    """Per-period accounting and metrics; per-SBS arrays are indexed by SBS-1."""

    period_index: int
    rent_cost: np.ndarray
    buy_price: np.ndarray
    buy_charged: np.ndarray  # bool, x_j
    on_time: np.ndarray
    depleted_at: np.ndarray  # seconds, NaN if never
    switch_count: np.ndarray
    energy_consumed: np.ndarray
    energy_harvested: np.ndarray
    used: np.ndarray  # bool, SBS had UEs at the period start
    total_cost: float
    delay_per_sbs: float
    unused_fraction: float

    @property
    def per_sbs_cost(self) -> np.ndarray:
        return self.rent_cost + self.buy_price * self.buy_charged

    def to_dict(self) -> dict:
        n_used = int(self.used.sum())
        return {
            "period": self.period_index,
            "total_cost": self.total_cost,
            "rent_cost": float(self.rent_cost.sum()),
            "buy_cost": float((self.buy_price * self.buy_charged).sum()),
            "buy_count": int(self.buy_charged.sum()),
            "on_time_mean": float(self.on_time[self.used].mean()) if n_used else 0.0,
            "switch_count": int(self.switch_count.sum()),
            "energy_consumed": float(self.energy_consumed.sum()),
            "energy_harvested": float(self.energy_harvested.sum()),
            "delay_per_sbs": self.delay_per_sbs,
            "unused_fraction": self.unused_fraction,
            "n_used": n_used,
            "depleted_count": int(np.sum(~np.isnan(self.depleted_at))),
        }


def build_topology(cfg: ScenarioConfig, rng: np.random.Generator) -> Topology:
    return network.place_nodes(
        cfg.area, cfg.n_sbs, cfg.n_ue, rng,
        mbs_tx_power=cfg.mbs_tx_power, mbs_op_power=cfg.mbs_op_power,
        mbs_bandwidth=cfg.mbs_bandwidth, mbs_max_users=cfg.mbs_max_users,
        sbs_tx_power=cfg.sbs_tx_power, sbs_op_power=cfg.sbs_op_power,
        sbs_bandwidth=cfg.sbs_bandwidth, sbs_max_users=cfg.sbs_max_users,
        noise_power=cfg.noise_power,
    )


def run_period(
    cfg: ScenarioConfig,
    topo: Topology,
    energy: EnergyState,
    policy: Policy,
    policy_rngs: list[np.random.Generator],
    trace: np.ndarray,
    period_index: int = 0,
    trace_rows: list | None = None,
) -> tuple[PeriodResult, EnergyState]:
    """Simulate one period of length T on the slot grid.

    `trace` is the (n_steps, n_sbs) harvest record for this period; `energy`
    is mutated in place and returned. When `trace_rows` is a list, one row of
    (t, sbs_id, sigma, stored, assoc_count, rent_rate) is appended per slot
    and SBS.
    """
    n_bs, n_sbs, n_steps, dt = topo.n_bs, topo.n_sbs, cfg.n_steps, cfg.dt
    w, q, file_bits = cfg.weights, cfg.q, cfg.file_bits

    # one ON-set table per transmit-power epoch, and each slot's epoch: the
    # latest scheduled change at or before the slot start
    epoch_topos = [topo] + [topo.with_sbs_tx_power(p) for _, p in cfg.sbs_tx_schedule]
    tables = [pricing.OnSetTable(tp, w, q, file_bits) for tp in epoch_topos]
    slot_epoch = np.searchsorted(
        [when for when, _ in cfg.sbs_tx_schedule], np.arange(n_steps) * dt + 1e-12,
        side="right",
    )

    table = tables[slot_epoch[0]]
    tags = pricing.freeze_prices(table.topo, w, q, file_bits, cfg.period)
    all_on = table[np.ones(n_bs, dtype=bool)]
    used = np.array([all_on.state.n_members(j) > 0 for j in range(1, n_bs)])
    buy_prices = np.array([t.buy for t in tags])
    frozen_rent = np.array([t.rent for t in tags])
    n_used = int(used.sum())

    policy.reset([t for t, u in zip(tags, used) if u], cfg.period, policy_rngs)
    energy.reset_depletion()

    sigma = np.zeros(n_bs, dtype=bool)
    sigma[0] = True
    sigma[1:] = used

    bought = np.zeros(n_sbs, dtype=bool)
    rent_cost = np.zeros(n_sbs)
    on_time = np.zeros(n_sbs)
    switch = np.zeros(n_sbs, dtype=int)
    consumed_total = np.zeros(n_sbs)
    harvested_total = np.zeros(n_sbs)
    delay_acc = 0.0
    frozen_mode = cfg.price_mode == "frozen"
    vol_first = cfg.off_tie == "voluntary"

    # the helpers read the slot's t, h, table, depleted and rent_now
    def apply_policy() -> None:
        for j in range(1, n_bs):
            i = j - 1
            if not used[i] or depleted[i]:
                continue
            if not sigma[j] and not policy.switches_back_on:
                continue
            want_on = policy.desired_on(
                j, t, energy.stored[i], energy.capacity,
                None if rent_now is None else float(rent_now[j]),
            )
            if sigma[j] and not want_on:
                sigma[j] = False
                switch[i] += 1
                if not bought[i]:
                    bought[i] = True
            elif not sigma[j] and want_on:
                sigma[j] = True
                switch[i] += 1

    def apply_depletion():
        # forced OFF, no buy charge; re-associating can raise the load on
        # surviving SBSs, so iterate to a fixed point
        entry = table[sigma]
        while True:
            if frozen_mode:
                psi = np.where(sigma[1:], all_on.psi, 0.0)
            else:
                psi = entry.psi
            dep_now = sigma[1:] & (energy.stored + h < psi * dt)
            if not dep_now.any():
                return entry, psi
            for i in np.flatnonzero(dep_now):
                sigma[i + 1] = False
                energy.depleted_at[i] = t
                switch[i] += 1
            entry = table[sigma]

    for k in range(n_steps):
        t = k * dt
        table = tables[slot_epoch[k]]
        h = trace[k]
        harvested_total += h
        depleted = ~np.isnan(energy.depleted_at)
        rent_now = table[sigma].rent if policy.needs_rent else None

        if vol_first:
            apply_policy()
            entry, psi = apply_depletion()
        else:
            entry, psi = apply_depletion()
            depleted = ~np.isnan(energy.depleted_at)
            apply_policy()
            entry = table[sigma]
            psi = np.where(sigma[1:], psi, 0.0)

        on = sigma[1:]
        rent_rate = np.where(on, frozen_rent if frozen_mode else entry.rent[1:], 0.0)
        rent_cost += rent_rate * on * dt
        on_time += on * dt
        slot_consumed = psi * on * dt
        consumed_total += slot_consumed
        for i in range(n_sbs):
            energy.stored[i] = energy_mod.update_storage(
                energy.stored[i], h[i], slot_consumed[i], energy.capacity
            )

        if n_used:
            delay_acc += float(entry.delays[1:][on].sum()) / n_used

        if trace_rows is not None:
            for j in range(1, n_bs):
                trace_rows.append((
                    round(period_index * cfg.period + t, 10), j, int(sigma[j]),
                    float(energy.stored[j - 1]), entry.state.n_members(j),
                    float(rent_rate[j - 1]),
                ))

    total_cost = float((rent_cost + buy_prices * bought).sum())
    result = PeriodResult(
        period_index=period_index,
        rent_cost=rent_cost,
        buy_price=buy_prices,
        buy_charged=bought,
        on_time=on_time,
        depleted_at=energy.depleted_at.copy(),
        switch_count=switch,
        energy_consumed=consumed_total,
        energy_harvested=harvested_total,
        used=used,
        total_cost=total_cost,
        delay_per_sbs=delay_acc / n_steps,
        unused_fraction=float((~used).sum()) / n_sbs if n_sbs else 0.0,
    )
    return result, energy


def run_horizon(
    cfg: ScenarioConfig,
    seed: int | np.random.SeedSequence | None = None,
    policy: Policy | None = None,
    trace_rows: list | None = None,
    return_topology: bool = False,
):
    """Chain `horizon_periods` periods, carrying stored energy across boundaries.

    All randomness derives from the seed: one stream for placement, one for
    harvesting, one per SBS for policy draws. Identical (config, seed) gives
    identical results.
    """
    if seed is None:
        seed = cfg.seed
    ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    topo_ss, harvest_ss, policy_ss = ss.spawn(3)
    topo = build_topology(cfg, np.random.default_rng(topo_ss))
    harvest_rng = np.random.default_rng(harvest_ss)
    policy_rngs = [np.random.default_rng(s) for s in policy_ss.spawn(max(cfg.n_sbs, 1))]
    if policy is None:
        policy = make_policy(cfg.policy)
    energy = EnergyState.fresh(cfg.n_sbs, cfg.initial_energy, cfg.capacity)

    results = []
    for p in range(cfg.horizon_periods):
        if cfg.harvest_trace_file is not None:
            trace = energy_mod.load_harvest_trace(
                cfg.harvest_trace_file, cfg.n_sbs, cfg.dt, cfg.n_steps
            )
        else:
            trace = energy_mod.harvest_trace(
                cfg.harvest, cfg.dt, cfg.n_steps, cfg.n_sbs, harvest_rng
            )
        res, energy = run_period(
            cfg, topo, energy, policy, policy_rngs, trace,
            period_index=p, trace_rows=trace_rows,
        )
        results.append(res)
    if return_topology:
        return results, topo
    return results

