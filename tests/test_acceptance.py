"""End-to-end acceptance checks.

Each test prints a single PASS/FAIL line naming the guarantee it verifies and
enforces its own wall-clock budget.
"""
import time

import numpy as np

from sbsched import network, pricing
from sbsched.analysis import empirical_cr_study
from sbsched.energy import EnergyState
from sbsched.engine import (
    Replication, ScenarioConfig, build_topology, run_horizon, run_period,
)
from sbsched.network import dbm_to_watts
from sbsched.oracle import RecordedScenario, offline_exhaustive
from sbsched.schedulers import (
    DoaPolicy,
    FixedPolicy,
    RoaPolicy,
    make_policy,
)


def _report(name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"{name}: {status}{suffix}")
    assert ok, f"{name} failed{suffix}"


def _single_cell_setup(seed):
    cfg = ScenarioConfig(
        n_sbs=1, n_ue=8, area=(300.0, 300.0),
        sbs_tx_power=dbm_to_watts(30.0), seed=seed, horizon_periods=1,
        dt=0.2, initial_energy=float(5.0 + 11.0 * (seed % 6)),
    )
    ss = np.random.SeedSequence(seed)
    topo_ss, harvest_ss, policy_ss = ss.spawn(3)
    topo = build_topology(cfg, np.random.default_rng(topo_ss))
    all_on = network.associate(np.ones(topo.n_bs, dtype=bool), topo)
    if all_on.n_members(1) == 0:
        return None
    trace = np.random.default_rng(harvest_ss).poisson(
        cfg.harvest_rate * cfg.dt, size=(cfg.n_steps, 1)
    ) * cfg.harvest_quantum
    rngs = [np.random.default_rng(s) for s in policy_ss.spawn(1)]
    return cfg, topo, all_on, trace, rngs


def test_offline_search_matches_hand_enumeration_and_lower_bounds_policies():
    """Single-cell optimum equals direct enumeration and bounds every policy."""
    t0 = time.perf_counter()
    checked = 0
    seed = 0
    exact_ok = True
    bound_ok = True
    while checked < 200:
        seed += 1
        setup = _single_cell_setup(seed)
        if setup is None:
            continue
        cfg, topo, all_on, trace, rngs = setup
        (tag,) = pricing.OnSetTable(
            topo, cfg.weights, cfg.q, cfg.file_bits, cfg.period).tags
        rent, buy = tag.rent, tag.buy
        cell = topo.bs[1]  # its power draw, the model's formula in plain floats
        psi = (all_on.n_members(1) / cell.max_users * (1.0 - cfg.q) * cell.op_power_max
               + cfg.q * cell.op_power_max)

        # hand enumeration: a prefix-ON single cell has a fixed depletion slot
        e = cfg.initial_energy
        u_slots = cfg.n_steps
        for k in range(cfg.n_steps):
            if e + trace[k, 0] < psi * cfg.dt:
                u_slots = k
                break
            e = min(e + trace[k, 0] - psi * cfg.dt, cfg.capacity)
        if u_slots == cfg.n_steps:
            # no depletion reachable: rent is a single product per schedule
            costs = [
                rent * k * cfg.dt + buy * (k < cfg.n_steps)
                for k in range(cfg.n_steps + 1)
            ]
        else:
            # slot-by-slot accumulation, same arithmetic as the simulator
            acc = [0.0]
            for _ in range(cfg.n_steps):
                acc.append(acc[-1] + rent * cfg.dt)
            costs = [
                acc[min(k, u_slots)]
                + buy * (k < cfg.n_steps and k <= u_slots)
                for k in range(cfg.n_steps + 1)
            ]
        hand_opt = min(costs)

        scenario = RecordedScenario(
            topo=topo, weights=cfg.weights, q=cfg.q, file_bits=cfg.file_bits,
            period=cfg.period, dt=cfg.dt, trace=trace,
            initial_energy=cfg.initial_energy, capacity=cfg.capacity,
        )
        _, opt = offline_exhaustive(scenario, cfg.dt)
        exact_ok &= opt == hand_opt

        for policy in (DoaPolicy(), RoaPolicy(), FixedPolicy(7.0)):
            energy = EnergyState.fresh(1, cfg.initial_energy, cfg.capacity)
            res, _ = run_period(cfg, topo, energy, policy, rngs, trace)
            bound_ok &= res.total_cost >= opt - 1e-12
        checked += 1
    elapsed = time.perf_counter() - t0
    _report(
        "offline optimum exact and never above any policy",
        exact_ok and bound_ok and elapsed < 30.0,
        f"200 traces over {seed} placements, {elapsed:.1f}s",
    )


def test_empirical_ratio_study_corridors():
    """800-run ratio study: sane median, bounded worst case, ratios >= 1."""
    t0 = time.perf_counter()
    cfg = ScenarioConfig(n_sbs=3, n_ue=15, dt=0.2, seed=6)
    report = empirical_cr_study(cfg, 800)
    elapsed = time.perf_counter() - t0
    median_ok = 1.15 <= report.median <= 1.60
    worst_ok = 1.5 <= report.worst <= 2.2
    floor_ok = bool(np.all(report.ratios >= 1.0 - 1e-12))
    _report(
        "empirical competitive-ratio corridors",
        median_ok and worst_ok and floor_ok and elapsed < 600.0,
        f"median = {report.median:.3f}, worst = {report.worst:.3f}, "
        f"{elapsed:.1f}s",
    )


def test_policy_cost_ordering_and_switching_discipline():
    """Randomized < deterministic < fixed cost; one-way policies switch once."""
    t0 = time.perf_counter()
    policies = ("roa", "doa", "fixed:7", "threshold:50")
    totals = {p: 0.0 for p in policies}
    switches = {p: 0 for p in policies}
    one_switch_ok = True
    cfg = ScenarioConfig(n_sbs=6, n_ue=30)
    for rep in range(200):
        record = Replication.draw(cfg, [7, rep])
        for name in policies:
            results = run_horizon(record, make_policy(name))
            for res in results:
                totals[name] += res.total_cost
                switches[name] += int(res.switch_count.sum())
                if name in ("roa", "doa"):
                    one_switch_ok &= bool(np.all(res.switch_count <= 1))
    order_ok = totals["roa"] < totals["doa"] < totals["fixed:7"]
    churn_ok = switches["threshold:50"] > max(switches["roa"], switches["doa"])
    elapsed = time.perf_counter() - t0
    means = {p: totals[p] / 200 for p in policies}
    _report(
        "policy cost ordering and switching discipline",
        order_ok and one_switch_ok and churn_ok and elapsed < 300.0,
        f"mean costs {means['roa']:.3f} < {means['doa']:.3f} < "
        f"{means['fixed:7']:.3f}, threshold switches {switches['threshold:50']}"
        f" vs {max(switches['roa'], switches['doa'])}, {elapsed:.1f}s",
    )


def test_simulation_invariants_over_random_configurations():
    """Association partition, storage bounds, coverage constraint,
    per-cell cost decomposition, determinism."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(808)
    ok = True
    for i in range(500):
        policy = ("roa", "doa", "fixed:4", "adaptive", "threshold:50")[i % 5]
        cfg = ScenarioConfig(
            n_sbs=int(rng.integers(1, 7)),
            n_ue=int(rng.integers(5, 31)),
            initial_energy=float(rng.uniform(5.0, 90.0)),
            q=float(rng.uniform(0.5, 1.0)),
            alpha_d=float(rng.uniform(0.01, 0.1)),
            alpha_p=float(rng.uniform(0.0001, 0.1)),
            alpha_b=float(rng.uniform(0.01, 0.5)),
            price_mode="frozen" if i % 2 == 0 else "live",
            seed=int(rng.integers(0, 2**31)),
            horizon_periods=1,
        )
        rows = []
        rep = Replication.draw(cfg, cfg.seed)
        topo = rep.topo
        results = run_horizon(rep, make_policy(policy), trace_rows=rows)

        # association is a partition with max-SINR selection
        sigma = np.ones(topo.n_bs, dtype=bool)
        sigma[1:] = rng.uniform(size=cfg.n_sbs) < 0.5
        state = network.associate(sigma, topo)
        sinr = network.sinr_matrix(sigma, topo)
        ok &= bool(np.all(state.serving >= 0))
        ok &= bool(np.all(sinr[np.arange(topo.n_ue), state.serving]
                          >= sinr.max(axis=1) - 1e-12))

        # battery stays within [0, capacity] at every step
        stored = np.array([r[3] for r in rows]) if rows else np.zeros(0)
        ok &= bool(np.all(stored >= -1e-12))
        ok &= bool(np.all(stored <= cfg.capacity + 1e-12))

        for res in results:
            # a served cell is covered at all times: ON all period, bought
            # out, or forced off by depletion
            for j in np.flatnonzero(res.used):
                covered = (res.buy_charged[j]
                           or res.on_time[j] >= cfg.period - 1e-12
                           or not np.isnan(res.depleted_at[j]))
                ok &= bool(covered)
            # with prices frozen the total cost separates per cell
            if cfg.price_mode == "frozen":
                rent = rep.tables[0][np.ones(topo.n_bs, dtype=bool)].rent
                ok &= [t.rent for t in rep.tables[0].tags] == [
                    rent[j] for j in np.flatnonzero(res.used) + 1]
                expected = sum(
                    rent[k + 1] * res.on_time[k]
                    + res.buy_price[k] * res.buy_charged[k]
                    for k in range(cfg.n_sbs)
                )
                ok &= abs(res.total_cost - expected) <= 1e-9

        # identical config and seed reproduce identical outputs
        if i % 25 == 0:
            rows2 = []
            results2 = run_horizon(Replication.draw(cfg, cfg.seed), make_policy(policy),
                                   trace_rows=rows2)
            ok &= rows == rows2
            ok &= all(a.to_dict() == b.to_dict()
                      for a, b in zip(results, results2))
    elapsed = time.perf_counter() - t0
    _report(
        "simulation invariants over 500 random configurations",
        ok and elapsed < 120.0,
        f"{elapsed:.1f}s",
    )


def test_adaptive_differs_from_doa_where_rents_fall():
    """With a delay-dominated rent, a neighbour's switch OFF lowers a cell's
    live rent before b/r, and the adaptive rule moves its OFF slot."""
    t0 = time.perf_counter()
    cfg = ScenarioConfig(n_sbs=6, n_ue=30, area=(2000.0, 2000.0),
                         sbs_tx_power=dbm_to_watts(33.0), sbs_op_power=20.0,
                         alpha_d=1.0, alpha_p=0.001, seed=13)
    served = differ = 0
    named_ok = True
    for rep in range(20):
        # drawn as `simulate` draws replication `rep` of this config
        record = Replication.draw(cfg, [cfg.seed, 0, rep])
        pairs = list(zip(run_horizon(record, make_policy("adaptive")),
                         run_horizon(record, make_policy("doa"))))
        rows = [(a.to_dict(), d.to_dict()) for a, d in pairs if a.used.any()]
        served += len(rows)
        differ += sum(a != d for a, d in rows)
        if rep in (4, 10, 12):
            named_ok &= len(rows) == 2 and all(a != d for a, d in rows)
    elapsed = time.perf_counter() - t0
    _report(
        "adaptive differs from doa where rents fall",
        named_ok and 4 * differ >= served > 0 and elapsed < 30.0,
        f"{differ} of {served} served rows differ, {elapsed:.2f}s",
    )
