"""Independent scalar reference for the offline oracle.

Builds a few small recorded scenarios from a seed (1 or 2 served cells, a
coarse slot grid, with and without depletion) and enumerates every OFF-slot
schedule with a plain scalar loop: association, rent, power draw, buy price,
the depletion fixed point and storage are all recomputed here from the
topology's gains and parameters, without the package's network, pricing,
energy or oracle code. The optimum must equal `oracle.offline_exhaustive`,
and `engine.run_period` under doa, roa and fixed on the same trace must never
cost less than it.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import replace

import numpy as np

PERIOD, DT = 2.0, 0.25  # 8 slots
N_SBS, N_UE, AREA = 2, 20, (1000.0, 1000.0)  # about 9% of draws serve 2 cells
# harvest of about 1 J per slot against 2.3-2.5 J drawn, so the same-slot
# harvest often decides whether a cell depletes; a buy price high enough
# (b/r above a slot) that riding a cell until it depletes can be optimal
HARVEST_RATE, QUANTUM = 20.0, 0.2
ALPHA_B = 0.3
# (initial energy, capacity): a cell ON for the whole period draws at most
# 10 W * 2 s = 20 J, so 100 J never depletes, while 6 J runs dry mid-period
ENERGY_CASES = {"depletion": (6.0, 100.0), "no-depletion": (100.0, 100.0)}
POLICIES = ("doa", "roa", "fixed:1")
REL = 1e-9
MAX_TOPOLOGY_DRAWS = 1000


class ScalarModel:
    """Network, power and price model of one topology, one ON set at a time."""

    def __init__(self, topo, cfg) -> None:
        self.bs = topo.bs
        self.gain = [[float(g) for g in row] for row in topo.gain]
        self.noise = float(topo.noise_power)
        self.n_ue = len(self.gain)
        self.cfg = cfg

    def power(self, j: int, n_users: int) -> float:
        b = self.bs[j]
        n = min(n_users, b.max_users)
        return (n / b.max_users) * (1.0 - self.cfg.q) * b.op_power_max \
            + self.cfg.q * b.op_power_max

    def state(self, on: set[int]) -> tuple[list[int], dict[int, float], dict[int, float]]:
        """Serving BS per UE, and rent and power per ON SBS, for the ON set."""
        serving, quality = [], []
        for u in range(self.n_ue):
            recv = {j: self.bs[j].tx_power * self.gain[u][j] for j in on}
            best_j = 0
            best = self.bs[0].tx_power * self.gain[u][0] / self.noise
            for j in sorted(on):
                interference = sum(p for k, p in recv.items() if k != j)
                s = recv[j] / (interference + self.noise)
                if s > best:
                    best_j, best = j, s
            serving.append(best_j)
            quality.append(best)
        members = {j: [u for u in range(self.n_ue) if serving[u] == j] for j in on}
        rent, psi = {}, {}
        for j in on:
            n = len(members[j])
            delay = sum(
                self.cfg.file_bits
                / (self.bs[j].bandwidth / n * math.log2(1.0 + quality[u]))
                for u in members[j])
            psi[j] = self.power(j, n)
            rent[j] = self.cfg.alpha_d * delay + self.cfg.alpha_p * psi[j]
        return serving, rent, psi

    def buy_price(self, members: list[int]) -> float:
        """Handover charge from the all-ON association at the period start."""
        if not members:
            return 0.0
        mbs = self.bs[0]
        share = mbs.bandwidth / self.n_ue
        phi = sum(
            self.cfg.file_bits
            / (share * math.log2(1.0 + mbs.tx_power * self.gain[u][0] / self.noise))
            for u in members)
        psi = self.power(0, len(members))
        c = self.cfg
        return c.alpha_b * (c.alpha_d * phi + c.alpha_p * psi) * c.period


def scalar_optimum(model: ScalarModel, trace: np.ndarray, e0: float,
                   cap: float) -> tuple[float, int, int]:
    """(optimal cost, served cells, schedules that saw a depletion)."""
    all_on = set(range(1, len(model.bs)))
    serving, _, _ = model.state(all_on)
    used = [j for j in sorted(all_on) if j in serving]
    buys = {j: model.buy_price([u for u, s in enumerate(serving) if s == j]) for j in used}
    n_steps = len(trace)
    best, depleting = math.inf, 0
    for off in itertools.product(range(n_steps + 1), repeat=len(used)):
        off_at = dict(zip(used, off))
        on, bought = set(used), set()
        stored = {j: e0 for j in used}
        cost, saw_depletion = 0.0, False
        for k in range(n_steps):
            for j in sorted(on):
                if k >= off_at[j]:
                    on.discard(j)
                    bought.add(j)
            while True:
                _, rent, psi = model.state(on)
                dead = [j for j in on if stored[j] + trace[k][j - 1] < psi[j] * DT]
                if not dead:
                    break
                saw_depletion = True
                on.difference_update(dead)
            cost += sum(rent.values()) * DT
            for j in used:
                drawn = psi[j] * DT if j in on else 0.0
                stored[j] = min(stored[j] + trace[k][j - 1] - drawn, cap)
        cost += sum(buys[j] for j in bought)
        depleting += saw_depletion
        best = min(best, cost)
    return (best if used else 0.0), len(used), depleting


def _close_or_above(value: float, floor: float) -> bool:
    return value >= floor - REL * max(1.0, abs(floor))


def run(seed: int) -> tuple[list[str], int]:
    """Problems found, and the number of schedules enumerated."""
    from sbsched import energy, engine, oracle
    from sbsched.schedulers import make_policy

    problems: list[str] = []
    enumerated = 0
    wanted = {1: None, 2: None}
    for draw in range(MAX_TOPOLOGY_DRAWS):
        if all(v is not None for v in wanted.values()):
            break
        cfg = engine.ScenarioConfig(
            period=PERIOD, dt=DT, horizon_periods=1, n_sbs=N_SBS, n_ue=N_UE,
            area=AREA, harvest_rate=HARVEST_RATE, harvest_quantum=QUANTUM,
            alpha_b=ALPHA_B)
        topo_ss, harvest_ss, policy_ss = np.random.SeedSequence([seed, draw]).spawn(3)
        topo = engine.build_topology(cfg, np.random.default_rng(topo_ss))
        model = ScalarModel(topo, cfg)
        serving, _, _ = model.state(set(range(1, N_SBS + 1)))
        m = len(set(serving) - {0})
        if m in wanted and wanted[m] is None:
            trace = energy.harvest_trace(cfg.harvest, DT, cfg.n_steps, N_SBS,
                                         np.random.default_rng(harvest_ss))
            wanted[m] = (cfg, topo, model, trace, policy_ss)
    for m, found in wanted.items():
        if found is None:
            problems.append(f"oracle reference: no topology with {m} served cells "
                            f"in {MAX_TOPOLOGY_DRAWS} draws")
    for m, found in wanted.items():
        if found is None:
            continue
        base_cfg, topo, model, trace, policy_ss = found
        for case, (e0, cap) in ENERGY_CASES.items():
            cfg = replace(base_cfg, initial_energy=e0, capacity=cap)
            where = f"oracle reference ({m} served, {case})"
            ref, served, depleting = scalar_optimum(model, trace, e0, cap)
            enumerated += (len(trace) + 1) ** served
            if (depleting > 0) != (case == "depletion"):
                problems.append(f"{where}: {depleting} schedules depleted")
            scenario = oracle.RecordedScenario(
                topo=topo, weights=cfg.weights, q=cfg.q, file_bits=cfg.file_bits,
                period=PERIOD, dt=DT, trace=trace, initial_energy=e0, capacity=cap)
            _, opt = oracle.offline_exhaustive(scenario, DT)
            if abs(opt - ref) > REL * max(1.0, abs(ref)):
                problems.append(f"{where}: offline_exhaustive {opt!r} != scalar {ref!r}")
            for name in POLICIES:
                rngs = [np.random.default_rng(s) for s in policy_ss.spawn(N_SBS)]
                state = energy.EnergyState.fresh(N_SBS, e0, cap)
                res, _ = engine.run_period(cfg, topo, state, make_policy(name),
                                           rngs, trace)
                if not _close_or_above(res.total_cost, ref):
                    problems.append(f"{where}: run_period({name}) cost "
                                    f"{res.total_cost!r} < optimum {ref!r}")
    return problems, enumerated
