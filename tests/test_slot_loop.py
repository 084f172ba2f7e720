"""The engine's scalar slot loop against the vectorized loop it replaced.

`reference_run_period` is the earlier `engine.run_period` body, kept here as a
test-only reference: numpy arrays over every cell, and one ON-set table per
period. It states each decision itself, in every slot: a scheduled cell is ON
while `t < off_times[j]`, a threshold cell while its charge percentage
exceeds K, and adaptive observes every ON cell's live rent in every slot,
where the engine observes only when the slot starts on a new table entry.
The property test requires every `PeriodResult` field, the energy state and
every trace row of the current engine to be exactly equal to it, traced and
untraced, and on a record of the example's periods, which reads the
bookkeeping of its whole horizon. An untraced scheduled run steps each served
cell, ON or OFF, from one event to the next; the test asserts that its
examples reach every way a span can end, an OFF cell clamped at the capacity
inside a span, and a period's tail once every served cell is OFF.
"""
import math
from bisect import bisect_left
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sbsched import pricing
from sbsched.energy import EnergyState
from sbsched.engine import (
    PeriodResult,
    Replication,
    ScenarioConfig,
    build_topology,
    epoch_tables,
    run_period,
)
from sbsched.network import dbm_to_watts
from sbsched.schedulers import AdaptivePolicy, ThresholdPolicy, make_policy


def update_storage(e: float, harvested: float, consumed: float, cap: float) -> float:
    """One storage step: credit the arrivals, charge the slot, clamp at cap."""
    if min(e, harvested, consumed, cap) < 0:
        raise ValueError("energy quantities must be non-negative")
    if consumed > e + harvested + 1e-9:
        raise RuntimeError(
            "consumption exceeds available energy; depletion check was skipped"
        )
    return min(e + harvested - consumed, cap)


def reference_run_period(cfg, topo, energy, policy, policy_rngs, trace,
                         period_index=0, trace_rows=None):
    n_bs, n_sbs, n_steps, dt = topo.n_bs, topo.n_sbs, cfg.n_steps, cfg.dt
    w, q, file_bits = cfg.weights, cfg.q, cfg.file_bits

    epoch_topos = [topo] + [topo.with_sbs_tx_power(p) for _, p in cfg.sbs_tx_schedule]
    tables = [pricing.OnSetTable(tp, w, q, file_bits, cfg.period) for tp in epoch_topos]
    slot_epoch = np.searchsorted(
        [when for when, _ in cfg.sbs_tx_schedule], np.arange(n_steps) * dt + 1e-12,
        side="right",
    )

    table = tables[slot_epoch[0]]
    all_on = table[np.ones(n_bs, dtype=bool)]
    used = np.array([all_on.state.n_members(j) > 0 for j in range(1, n_bs)])
    frozen_rent = all_on.rent[1:]
    # a served cell's buy price: a share of its UEs' worst-case MBS cost
    buy_prices = np.zeros(n_sbs)
    for i in np.flatnonzero(used):
        members = all_on.state.members(i + 1)
        mbs = topo.bs[0]
        snr = mbs.tx_power * topo.gain[members, 0] / topo.noise_power
        phi = float(np.sum(file_bits / (mbs.bandwidth / topo.n_ue * np.log2(1.0 + snr))))
        n = min(members.size, mbs.max_users)
        psi_mbs = n / mbs.max_users * (1.0 - q) * mbs.op_power_max + q * mbs.op_power_max
        buy_prices[i] = pricing.buy_price(phi, psi_mbs, w, cfg.period, sbs=i + 1)
    n_used = int(used.sum())

    policy.reset([pricing.PriceTag(sbs=i + 1, rent=float(frozen_rent[i]),
                                   buy=float(buy_prices[i]))
                  for i in np.flatnonzero(used)], cfg.period, policy_rngs)
    depleted_at = np.full(n_sbs, np.nan)

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
    threshold = isinstance(policy, ThresholdPolicy)
    adaptive = isinstance(policy, AdaptivePolicy)

    def apply_policy():
        for j in range(1, n_bs):
            i = j - 1
            if not used[i] or depleted[i]:
                continue
            if threshold:
                if energy.capacity <= 0:
                    raise ValueError("storage capacity must be positive")
                want_on = 100.0 * energy.stored[i] / energy.capacity > policy.k_percent
            elif not sigma[j]:
                continue  # a scheduled cell never switches back ON
            else:
                if adaptive:
                    policy.observe(j, t, float(rent_now[j]))
                want_on = t < policy.off_times[j]
            if sigma[j] and not want_on:
                sigma[j] = False
                switch[i] += 1
                if not bought[i]:
                    bought[i] = True
            elif not sigma[j] and want_on:
                sigma[j] = True
                switch[i] += 1

    def apply_depletion():
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
                depleted_at[i] = t
                switch[i] += 1
            entry = table[sigma]

    for k in range(n_steps):
        t = k * dt
        table = tables[slot_epoch[k]]
        h = trace[k]
        harvested_total += h
        depleted = ~np.isnan(depleted_at)
        rent_now = table[sigma].rent if adaptive else None

        apply_policy()
        entry, psi = apply_depletion()

        on = sigma[1:]
        rent_rate = np.where(on, frozen_rent if frozen_mode else entry.rent[1:], 0.0)
        rent_cost += rent_rate * on * dt
        on_time += on * dt
        slot_consumed = psi * on * dt
        consumed_total += slot_consumed
        for i in range(n_sbs):
            energy.stored[i] = update_storage(
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
        depleted_at=depleted_at,
        switch_count=switch,
        energy_consumed=consumed_total,
        energy_harvested=harvested_total,
        used=used,
        total_cost=total_cost,
        delay_per_sbs=delay_acc / n_steps,
        unused_fraction=float((~used).sum()) / n_sbs if n_sbs else 0.0,
    )
    return result, energy


def assert_identical(a, b):
    """Exact equality, field by field: same dtype, same bits (NaN == NaN)."""
    for f in fields(PeriodResult):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if isinstance(x, np.ndarray):
            assert x.dtype == y.dtype, f.name
            assert np.array_equal(x, y, equal_nan=x.dtype.kind == "f"), f.name
        else:
            assert type(x) is type(y) and (x == y or (x != x and y != y)), f.name


TX_SCHEDULE = ((0.0, dbm_to_watts(20.0)), (2.5, dbm_to_watts(26.0)),
               (6.0, dbm_to_watts(23.0)))
# a rent that is mostly delay, which falls when a neighbour switches OFF and
# stops interfering: adaptive moves its OFF times
FALLING_RENT = dict(alpha_d=1.0, alpha_p=0.001, sbs_tx_power=dbm_to_watts(33.0),
                    sbs_op_power=20.0)
POLICIES = st.sampled_from(["doa", "roa", "adaptive", "fixed", "threshold"]).flatmap(
    lambda kind: st.floats(0.0, 10.0).map(lambda t: f"fixed:{t!r}") if kind == "fixed"
    else st.floats(0.0, 100.0).map(lambda k: f"threshold:{k!r}") if kind == "threshold"
    else st.just(kind))


# the ways a period can go on once every served cell is OFF (see
# `tail_kinds`), each reached by some example; and the least share of the
# examples, explicit and generated, that reach such a tail at all (57 of 92 do)
TAIL_KINDS = {"slot 0", "last slot", "clamp", "epoch", "forced OFF", "adaptive"}
TAIL_SHARE = 0.5


# the ways a span of an untraced scheduled run ends early or crosses a
# boundary (see `span_kinds`), a served cell that is OFF reaching the
# capacity at a later slot of a span, and the storage edges that the
# record's bookkeeping of the whole horizon must keep: an OFF cell clamped at
# the capacity after the period boundary, and arrivals of -0.0
SPAN_KINDS = {"dry past the event", "dry at the span's end", "epoch", "OFF clamp",
              "clamp across periods", "-0.0"}


def span_kinds(spec, cfg, ref, ref_rows, off_times):
    """How the spans of an untraced engine run of this period end, and what
    their OFF cells reach, read from the reference's trace: a span of a
    scheduled policy runs from an event slot to the next epoch change or
    scheduled OFF slot, unless a cell runs dry first."""
    used = np.flatnonzero(ref.used)
    if spec.startswith(("threshold", "adaptive")) or not used.size:
        return set()
    grid, epoch_at = cfg.slot_grid
    shape = (cfg.n_steps, cfg.n_sbs)
    sigma = np.array([row[2] for row in ref_rows]).reshape(shape)[:, used]
    stored = np.array([row[3] for row in ref_rows]).reshape(shape)[:, used]
    ends = sorted({*epoch_at, cfg.n_steps, *(bisect_left(grid, off_times[i + 1]) for i in used)})
    dry = {grid.index(t) for t in ref.depleted_at[used] if not math.isnan(t)}
    kinds, k = set(), 0
    while k < cfg.n_steps:
        end = next(e for e in ends if e > k)
        cut = min((d for d in dry if k < d < end), default=None)
        # an OFF cell below the capacity after the span's first slot, and at
        # it after its last
        last = stored[(end if cut is None else cut) - 1]
        if np.any(~sigma[k] & (stored[k] < cfg.capacity) & (last == cfg.capacity)):
            kinds.add("OFF clamp")
        if cut is not None:
            kinds.add("dry past the event" if cut == k + 1 else
                      "dry at the span's end" if cut == end - 1 else "dry")
            k = cut
        else:
            if end in epoch_at:
                kinds.add("epoch")
            k = end
    return kinds


def tail_kinds(spec, cfg, ref, ref_rows):
    """How this period goes on once every served cell is OFF, read from the
    reference's trace: empty when some served cell is ON in the last slot."""
    used = np.flatnonzero(ref.used)
    shape = (cfg.n_steps, cfg.n_sbs)
    sigma = np.array([row[2] for row in ref_rows]).reshape(shape)[:, used]
    stored = np.array([row[3] for row in ref_rows]).reshape(shape)[:, used]
    if spec.startswith("threshold") or not used.size or sigma[-1].any():
        return set()
    # the slot in which the last served cell goes OFF
    k = int(np.flatnonzero(sigma.any(axis=1))[-1]) + 1 if sigma.any() else 0
    kinds = {"tail"}
    if k == 0:
        kinds.add("slot 0")
    if k == cfg.n_steps - 1:
        kinds.add("last slot")  # no arrivals left
    if np.any((stored[k] < cfg.capacity) & (stored[-1] == cfg.capacity)):
        kinds.add("clamp")
    if any(when > k * cfg.dt for when, _ in cfg.sbs_tx_schedule):
        kinds.add("epoch")
    if np.any(ref.depleted_at[used] == k * cfg.dt):
        kinds.add("forced OFF")
    if spec == "adaptive":
        kinds.add("adaptive")
    return kinds


@settings(max_examples=70, deadline=None, derandomize=True)
# found by direct search: 9 cells served and ON together, all of them going
# dry in the second period (a delay sum over 8 or more cells, which a
# sequential sum would not reproduce); roa cells going dry under a schedule;
# threshold cells switching back ON; adaptive cells going dry, then buying
@example(16, 80, 2000.0, 11, "fixed:10.0", "live", False, 100.0, 20.0, 0.05, False, False)
@example(8, 80, 2000.0, 0, "roa", "live", True, 8.0, 2.0, 0.3, False, False)
@example(8, 80, 2000.0, 0, "doa", "frozen", False, 8.0, 2.0, 0.3, False, False)
@example(6, 80, 1000.0, 0, "threshold:50.0", "frozen", True, 55.0, 10.0, 0.05, False, False)
@example(6, 80, 1000.0, 5, "adaptive", "live", True, 20.0, 2.0, 0.3, False, False)
@example(6, 80, 1000.0, 5, "adaptive", "live", True, 20.0, 2.0, 0.05, False, False)
# the edges of a scheduled OFF slot: an OFF time of 0, one equal to a slot
# start (grid[3] is 0.30000000000000004) and one just below it, and a zero buy
# price, whose DOA and ROA OFF time is 0; a threshold that keeps every cell ON
# while it stores anything, and one that switches every cell OFF
@example(8, 80, 2000.0, 0, "fixed:0.0", "live", False, 20.0, 20.0, 0.05, False, False)
@example(8, 80, 2000.0, 0, "fixed:0.30000000000000004", "frozen", True, 20.0, 20.0, 0.05,
         False, False)
@example(8, 80, 2000.0, 0, "fixed:0.3", "live", False, 20.0, 20.0, 0.05, False, False)
@example(8, 80, 2000.0, 0, "threshold:0.0", "live", True, 0.0, 2.0, 0.05, False, False)
@example(8, 80, 2000.0, 0, "threshold:100.0", "frozen", False, 100.0, 20.0, 0.05, False, False)
@example(8, 80, 2000.0, 0, "doa", "live", False, 20.0, 2.0, 0.0, False, False)
@example(8, 80, 2000.0, 0, "roa", "frozen", True, 20.0, 2.0, 0.0, False, False)
# adaptive cells whose falling rent moves their OFF slots, as neighbours go
# OFF or dry: the engine must move the slot, skip the stale one, and observe
# again at the start of the slot after one that changed the ON set
@example(5, 30, 2000.0, 391769539, "adaptive", "frozen", False, 99.8, 9.8, 0.05, True, False)
@example(7, 30, 1000.0, 2371834560, "adaptive", "live", False, 82.0, 12.7, 0.05, True, False)
# every served cell OFF before the period ends: from slot 0, from the last
# slot (no arrivals left), with storage
# clamped at the capacity in the tail, with transmit-power epochs in the tail,
# after a forced OFF, and under adaptive with a falling rent
@example(8, 80, 2000.0, 1, "fixed:0.0", "frozen", True, 50.0, 10.0, 0.05, False, False)
@example(6, 80, 1000.0, 3, "fixed:9.9", "live", False, 100.0, 20.0, 0.05, False, False)
@example(6, 80, 1000.0, 3, "fixed:0.5", "live", False, 99.9, 20.0, 0.05, False, False)
@example(6, 80, 1000.0, 3, "fixed:2.0", "live", True, 60.0, 10.0, 0.05, False, False)
@example(6, 80, 1000.0, 3, "fixed:10.0", "live", False, 8.0, 1.0, 0.05, False, False)
@example(6, 80, 1000.0, 3, "adaptive", "frozen", True, 90.0, 20.0, 0.05, True, False)
# found by direct search: spans cut by a cell running dry at the first slot
# past their event and at their last slot, and spans ended by an epoch
# change, with every zero arrival -0.0
@example(12, 80, 2000.0, 0, "fixed:10.0", "live", True, 40.0, 10.0, 0.05, False, True)
@given(
    n_sbs=st.integers(2, 16),
    n_ue=st.sampled_from([30, 80]),
    side=st.sampled_from([1000.0, 2000.0]),
    seed=st.integers(0, 2**32 - 1),
    spec=POLICIES,
    price_mode=st.sampled_from(["live", "frozen"]),
    scheduled=st.booleans(),
    e0=st.floats(0.0, 100.0),
    harvest_rate=st.floats(0.0, 20.0),
    alpha_b=st.sampled_from([0.0, 0.05, 0.3]),
    falling_rent=st.booleans(),
    negative_zero=st.booleans(),
)
def check_slot_loop(
        seen, n_sbs, n_ue, side, seed, spec, price_mode, scheduled, e0, harvest_rate,
        alpha_b, falling_rent, negative_zero):
    cfg = ScenarioConfig(
        n_sbs=n_sbs, n_ue=n_ue, area=(side, side), seed=seed,
        price_mode=price_mode, initial_energy=e0, harvest_rate=harvest_rate,
        alpha_b=alpha_b, sbs_tx_schedule=TX_SCHEDULE if scheduled else (),
        **(FALLING_RENT if falling_rent else {}),
    )
    rng = np.random.default_rng(seed)
    topo = build_topology(cfg, rng)
    traces = tuple(cfg.harvest_quantum * rng.poisson(
        harvest_rate * cfg.dt, size=(cfg.n_steps, n_sbs)) for _ in range(2))
    if negative_zero:  # every zero arrival is -0.0
        traces = tuple(np.where(trace == 0.0, -0.0, trace) for trace in traces)
    record = Replication(cfg, topo, tuple(epoch_tables(cfg, topo)), traces,
                         np.random.SeedSequence(seed))
    # the engine traced, the engine untraced (which may finish in closed
    # form), the engine untraced on the record, and the reference
    states = [EnergyState.fresh(n_sbs, e0, cfg.capacity) for _ in range(4)]
    policies = [make_policy(spec) for _ in range(4)]
    rngs = [[np.random.default_rng([seed, j]) for j in range(n_sbs)] for _ in range(4)]
    kinds = set()
    idle = np.flatnonzero(~record.plan.used)
    for period, trace in enumerate(traces):
        rows, ref_rows = [], []
        res, _ = run_period(cfg, topo, states[0], policies[0], rngs[0], trace,
                            period, rows)
        untraced, _ = run_period(cfg, topo, states[1], policies[1], rngs[1], trace, period)
        recorded, _ = run_period(cfg, topo, states[2], policies[2], rngs[2], trace, period,
                                 record=record)
        before = states[3].stored[idle].copy()
        ref, _ = reference_run_period(cfg, topo, states[3], policies[3], rngs[3],
                                      trace, period, ref_rows)
        for out, state in ((res, states[0]), (untraced, states[1]), (recorded, states[2])):
            assert_identical(out, ref)
            assert np.array_equal(state.stored, states[3].stored)
            assert [math.copysign(1.0, x) for x in state.stored] == \
                [math.copysign(1.0, x) for x in states[3].stored]
            assert out.to_dict() == ref.to_dict()
        assert rows == ref_rows
        assert [tuple(map(type, r)) for r in rows] == [tuple(map(type, r)) for r in ref_rows]
        assert math.isfinite(res.total_cost)
        kinds |= tail_kinds(spec, cfg, ref, ref_rows)
        kinds |= span_kinds(spec, cfg, ref, ref_rows, getattr(policies[3], "off_times", {}))
        if period and np.any((before < cfg.capacity) & (states[3].stored[idle] == cfg.capacity)):
            kinds.add("clamp across periods")
        if np.any((trace == 0.0) & np.signbit(trace)):
            kinds.add("-0.0")
    seen.append(kinds)


def test_slot_loop_matches_reference_exactly():
    seen = []
    check_slot_loop(seen)
    # the all-OFF tail is reached in every way the examples name, and in a
    # share of the examples that cannot silently fall to none; so is every
    # way a span can end early or cross a boundary
    assert set().union(*seen) >= TAIL_KINDS | SPAN_KINDS
    assert sum("tail" in kinds for kinds in seen) >= TAIL_SHARE * len(seen)


@pytest.mark.parametrize("traced", [False, True])
def test_period_without_served_cells_matches_reference(traced):
    # 3 UEs on 2000 m, all of them on the macro cell: every SBS idles, and
    # storage reaches the capacity within the first period. Then the same
    # periods of a record built by hand, whose first cell harvests -0.0 J in
    # every slot: its total is +0.0, as a running sum from 0.0 gives it
    for negative_zero in (False, True):
        cfg = ScenarioConfig(n_sbs=3, n_ue=3, area=(2000.0, 2000.0), seed=0,
                             initial_energy=90.0, harvest_rate=20.0)
        rng = np.random.default_rng(0)
        topo = build_topology(cfg, rng)
        traces = tuple(cfg.harvest_quantum * rng.poisson(
            cfg.harvest_rate * cfg.dt, size=(cfg.n_steps, cfg.n_sbs)) for _ in range(2))
        record = None
        if negative_zero:
            for trace in traces:
                trace[:, 0] = -0.0
            record = Replication(cfg, topo, tuple(epoch_tables(cfg, topo)), traces,
                                 np.random.SeedSequence(0))
        states = [EnergyState.fresh(cfg.n_sbs, 90.0, cfg.capacity) for _ in range(2)]
        rngs = [np.random.default_rng([0, j]) for j in range(cfg.n_sbs)]
        for period, trace in enumerate(traces):
            rows, ref_rows = ([], []) if traced else (None, None)
            res, _ = run_period(cfg, topo, states[0], make_policy("roa"), rngs, trace,
                                period, rows, record=record)
            ref, _ = reference_run_period(cfg, topo, states[1], make_policy("roa"), rngs,
                                          trace, period, ref_rows)
            assert not res.used.any()
            assert_identical(res, ref)
            assert res.energy_harvested.tobytes() == ref.energy_harvested.tobytes()
            assert (repr(res.to_dict()["energy_harvested"])
                    == repr(ref.to_dict()["energy_harvested"]))
            assert np.array_equal(states[0].stored, states[1].stored)
            assert rows == ref_rows
        full = states[0].stored == cfg.capacity
        assert full.tolist() == [not negative_zero, True, True]


def test_threshold_without_capacity_raises():
    # K is a share of the capacity: a zero capacity is rejected, not divided by
    cfg = ScenarioConfig(n_sbs=8, n_ue=80, area=(2000.0, 2000.0), seed=0,
                         initial_energy=0.0, capacity=0.0)
    rng = np.random.default_rng(0)
    topo = build_topology(cfg, rng)
    trace = np.zeros((cfg.n_steps, cfg.n_sbs))
    rngs = [None] * cfg.n_sbs
    for run in (run_period, reference_run_period):
        state = EnergyState.fresh(cfg.n_sbs, 0.0, 0.0)
        with pytest.raises(ValueError, match="storage capacity must be positive"):
            run(cfg, topo, state, make_policy("threshold:50"), rngs, trace)
