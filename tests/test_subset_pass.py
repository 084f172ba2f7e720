"""The stacked pass over the ON sets a record's runs reach: every set in
which only the record's served SBSs may be ON (`network.associate_subsets`,
priced by `OnSetTable` from its second miss on). Each row has the bits of
its set priced alone, and a table that makes its entries from the pass
raises and warns at the same lookups as one that prices each set alone.
A set has one entry: every lookup of it returns the same object."""
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sbsched import network, pricing
from sbsched.engine import Replication, ScenarioConfig, run_horizon
from sbsched.network import (STACK_LINKS, BsParams, Topology, associate, associate_subsets,
                             dbm_to_watts, place_stack)
from sbsched.pricing import CostWeights, OnSetTable
from sbsched.schedulers import make_policy

STATE = ("sigma", "serving", "sinr", "counts")
PRICES = ("delays", "power", "psi", "rent")


def contestable(topo, ids):
    """The UEs that some SBS of `ids` could win: those with a `fl(r_uj / N)`
    above their MBS SNR."""
    cells = [j - 1 for j in ids]
    snr = topo.sbs_received_power[:, cells] / topo.noise_power
    return (snr > topo.mbs_snr[:, None]).any(axis=1)


def over_bound(topo, ids):
    return (1 << len(ids)) * max(topo.n_ue, topo.n_bs) > STACK_LINKS


def chunked(topo, ids):
    """Whether the contestable UEs' block, (2^m, c, m + 1), holds more than
    `STACK_LINKS` elements, so that the pass makes it in several chunks."""
    m = len(ids)
    return (1 << m) * int(contestable(topo, ids).sum()) * (m + 1) > STACK_LINKS


def subset(n_bs, ids, s):
    """The ON set of bitmask s over `ids` (bit i: SBS ids[i] ON)."""
    sigma = np.zeros(n_bs, dtype=bool)
    sigma[0] = True
    sigma[[j for i, j in enumerate(ids) if s >> i & 1]] = True  # bits past len(ids) unused
    return sigma


def array_bits(a):
    return a.dtype.str, a.shape, a.tobytes()


@st.composite
def placements(draw):
    """One placed topology, 1-12 SBSs and 1-120 UEs on 100-4000 m, and the
    SBSs a run may switch, in ascending id."""
    n_sbs = draw(st.integers(1, 12))
    n_ue = draw(st.integers(1, 120))
    side = draw(st.floats(100.0, 4000.0))
    seed = draw(st.integers(0, 2**32 - 1))
    ids = sorted(draw(st.sets(st.integers(1, n_sbs), max_size=n_sbs)))
    return side, n_sbs, n_ue, seed, ids


def place(side, n_sbs, n_ue, seed, **params):
    return place_stack((side, side), n_sbs, n_ue, [np.random.default_rng(seed)],
                       **params).take(0)


# the nine served cells of a 16-cell, 80-UE record on 2000 m, as the
# churn-wide bench workload draws them: 512 sets of 80 UEs fit the bound, and
# the block of the 27 contestable UEs takes three chunks
NINE_CELLS = (2000.0, 16, 80, 11, [1, 2, 3, 4, 8, 9, 11, 14, 15])


@settings(max_examples=120, deadline=None, derandomize=True)
@example(placement=(500.0, 3, 40, 1, [1, 2, 3]))
@example(placement=(2000.0, 12, 8, 3, list(range(1, 13))))  # 4096 sets of 8 UEs
@example(placement=NINE_CELLS)
@given(placement=placements())
def test_each_row_is_its_set_associated_alone(placement):
    side, n_sbs, n_ue, seed, ids = placement
    topo = place(side, n_sbs, n_ue, seed)
    stack = associate_subsets(topo, ids)
    if stack is None:
        assert over_bound(topo, ids)
        return
    assert not over_bound(topo, ids)
    n = 1 << len(ids)
    for name in STATE:
        assert getattr(stack, name).shape[0] == n and not getattr(stack, name).flags.writeable
    fixed = ~contestable(topo, ids)
    for s in range(n):
        sigma = subset(topo.n_bs, ids, s)
        alone = associate(sigma, topo)
        row = stack.take(s)
        for name in STATE:
            assert array_bits(getattr(row, name)) == array_bits(getattr(alone, name)), (s, name)
        # the rule the pass rests on, against `associate` itself: a UE that
        # no SBS of `ids` can win is on the MBS, at its MBS SNR, in every set
        assert (alone.serving[fixed] == 0).all()
        assert alone.sinr[fixed].tobytes() == topo.mbs_snr[fixed].tobytes()


def test_a_nine_cell_table_runs_the_pass_in_chunks():
    # 2^m * max(n_ue, n_bs) <= STACK_LINKS < 2^m * c * (m + 1): the table
    # runs the pass, whose rows the test above checks against `associate`
    side, n_sbs, n_ue, seed, ids = NINE_CELLS
    topo = place(side, n_sbs, n_ue, seed)
    assert not over_bound(topo, ids) and chunked(topo, ids)
    table = OnSetTable(topo, CostWeights(), 0.9, 1e5, 10.0)
    table.ids = ids
    with mock.patch.object(network, "associate_subsets",
                           wraps=network.associate_subsets) as subsets:
        table[subset(topo.n_bs, ids, 511)]
        entry = table[subset(topo.n_bs, ids, 0)]
    assert subsets.call_count == 1 and table._subset_pass
    assert np.shares_memory(entry.rent, table._subset_pass.prices.rent)


def entry_bits(entry):
    """Every field of an entry, with each array's dtype, shape, bytes and
    whether it is read-only."""
    arrays = [getattr(entry.state, name) for name in STATE] + [getattr(entry, name)
                                                               for name in PRICES]
    return ([array_bits(a) + (a.flags.writeable,) for a in arrays],
            entry.rent_values, entry.psi_values, entry.on_delay)


def lookups(table, sets):
    """Per lookup of `sets` in turn: the entry's bits, or the type and
    message of its error, and the warnings it raised."""
    out = []
    for sigma in sets:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                got = entry_bits(table[sigma])
            except Exception as exc:
                got = (type(exc), str(exc))
        out.append((got, [(w.category, str(w.message)) for w in caught]))
    return out


# a placement's BS parameters, weights and file size: ordinary, a zero rate
# on the MBS (a UE it serves has log2(1 + SNR) == 0), and rents that overflow
# in the sets whose cells' delays are long, or in every set
CASES = {
    "ordinary": ({}, CostWeights(), 1e5),
    "zero-rate": ({"mbs_tx_power": 1e-30}, CostWeights(), 1e5),
    "some-rents-overflow": ({}, CostWeights(alpha_d=1e308), 1e8),
    "rents-overflow": ({}, CostWeights(alpha_p=1e308), 1e5),
}


@settings(max_examples=200, deadline=None, derandomize=True)
@example(placement=(500.0, 4, 60, 2, [1, 2, 3, 4]), max_users=10, case="ordinary",
         masks=[15, 3, 1, 0, 3, 2, -1, 12, 15])
@example(placement=(300.0, 3, 40, 4, [1, 2, 3]), max_users=2, case="ordinary",
         masks=[7, 1, 6, 0, 5, 1])  # SBS 1 serves 5 UEs where SBS 2 is OFF
@example(placement=(2000.0, 12, 100, 3, list(range(1, 13))), max_users=10, case="ordinary",
         masks=[4095, 1, 2, 3, 2])  # over the bound
@given(placement=placements(), max_users=st.integers(1, 10), case=st.sampled_from(sorted(CASES)),
       masks=st.lists(st.integers(-1, 4095), max_size=12))
def test_a_table_serves_each_set_as_priced_alone(placement, max_users, case, masks):
    side, n_sbs, n_ue, seed, ids = placement
    params, w, file_bits = CASES[case]
    topo = place(side, n_sbs, n_ue, seed, sbs_max_users=max_users, **params)
    # sets of `ids` by bitmask, and -1 for the all-ON set, which lies outside
    # them unless `ids` holds every SBS
    sets = [np.ones(topo.n_bs, dtype=bool) if s < 0 else subset(topo.n_bs, ids, s)
            for s in masks]
    alone = OnSetTable(topo, w, 0.9, file_bits, 10.0)  # knows no ids: each set alone
    table = OnSetTable(topo, w, 0.9, file_bits, 10.0)
    table.ids = ids
    stacked = []
    real_price = pricing._price

    def price(state, *args):
        if state.serving.ndim == 2:
            stacked.append(state)
        return real_price(state, *args)

    with mock.patch.object(pricing, "_price", price):
        with mock.patch.object(network, "associate", wraps=network.associate) as assoc:
            want = lookups(alone, sets)
        assert not stacked
        alone_calls = assoc.call_count
        with mock.patch.object(network, "associate", wraps=network.associate) as assoc:
            got = lookups(table, sets)
    assert got == want
    # the first set of `ids` to miss is priced alone, and the pass runs once
    # at most, at a later miss
    priced_alone = [c.args[0].tobytes() for c in assoc.call_args_list]
    family = {s.tobytes() for s, mask in zip(sets, masks) if mask >= 0 or len(ids) == n_sbs}
    first = [s.tobytes() for s, mask in zip(sets, masks) if s.tobytes() in family]
    assert [k for k in priced_alone if k in family][:1] == first[:1]
    assert len(stacked) <= 1
    # a table over the bound (2^m sets of max(n_ue, n_bs) links each), or of
    # one cell, never runs the pass
    if over_bound(topo, ids) or len(ids) < 2:
        assert not stacked and not table._subset_pass
        assert assoc.call_count == alone_calls
    if table._subset_pass:
        # every entry not priced alone is a read-only view of the pass's rows
        rows = table._subset_pass
        assert len(stacked) == 1 and stacked[0] is rows.state
        assert len(set(first)) >= 2
        for entry in table._entries.values():
            assert np.shares_memory(entry.rent, rows.prices.rent) \
                != (entry.state.sigma.tobytes() in priced_alone)


def test_a_record_like_table_prices_its_sets_in_one_pass():
    # 80 UEs and 16 SBSs on 2000 m, as the churn-wide bench workload draws them
    rng = np.random.default_rng(7)
    topo = place_stack((2000.0, 2000.0), 16, 80, [rng]).take(0)
    ids = np.flatnonzero(associate(np.ones(17, dtype=bool), topo).counts[1:]).tolist()
    ids = [j + 1 for j in ids][:6]
    assert len(ids) == 6
    table = OnSetTable(topo, CostWeights(), 0.9, 1e7, 10.0)
    table.ids = ids
    order = [63, 62, 60, 61, 0, 63, 1, 62]
    with mock.patch.object(network, "associate", wraps=network.associate) as assoc, \
            mock.patch.object(network, "associate_subsets",
                              wraps=network.associate_subsets) as subsets:
        entries = [table[subset(17, ids, s)] for s in order]
    # one set priced alone, then one pass, whose rows make the later entries
    assert assoc.call_count == 1 and subsets.call_count == 1
    assert entries[0] is entries[5] and entries[1] is entries[7]
    c = int(contestable(topo, ids).sum())
    assert 0 < c < topo.n_ue
    rows = table._subset_pass
    assert rows.state.serving.shape == (64, 80)
    for s, entry in zip(order, entries):
        assert np.shares_memory(entry.rent, rows.prices.rent) is (entry is not entries[0])
        alone = OnSetTable(topo, CostWeights(), 0.9, 1e7, 10.0)[subset(17, ids, s)]
        assert entry_bits(entry) == entry_bits(alone)


def test_a_table_whose_runs_reach_one_set_pays_no_pass():
    rng = np.random.default_rng(7)
    topo = place_stack((2000.0, 2000.0), 16, 80, [rng]).take(0)
    table = OnSetTable(topo, CostWeights(), 0.9, 1e7, 10.0)
    table.ids = [1, 2, 3]
    sigma = subset(17, table.ids, 7)
    with mock.patch.object(network, "associate_subsets") as subsets:
        for _ in range(3):
            table[sigma]
        # a set outside `ids`' sets is priced alone, and is no second miss
        table[np.ones(17, dtype=bool)]
    assert not subsets.called and table._subset_pass is None


def float_bits(values):
    return [v.hex() for v in values]


def random_gains_topology(n_sbs, n_ue, seed):
    """One topology of `n_sbs` SBSs and `n_ue` UEs with drawn gains: each UE
    has a home SBS, in turn, whose gain is 1e-10 to 1e-8, gains of 1e-14 to
    1e-11 to the others and of 1e-16 to 1e-14 to the MBS (an SNR of 0.5 at
    most). An ON SBS wins its home UEs, so
    the ON cells of a set have delays of many sizes. Capacities of 2 * n_ue
    leave no count above `power_by_count`'s."""
    rng = np.random.default_rng(seed)
    bs = [BsParams(id=0, kind="MBS", x=0.0, y=0.0, tx_power=dbm_to_watts(33.0),
                   op_power_max=20.0, bandwidth=10e6, max_users=50)]
    bs += [BsParams(id=j, kind="SBS", x=0.0, y=0.0, tx_power=dbm_to_watts(23.0),
                    op_power_max=10.0, bandwidth=10e6, max_users=2 * n_ue)
           for j in range(1, n_sbs + 1)]
    gain = 10.0 ** rng.uniform(-14.0, -11.0, (n_ue, n_sbs + 1))
    gain[np.arange(n_ue), np.arange(n_ue) % n_sbs + 1] = 10.0 ** rng.uniform(-10.0, -8.0, n_ue)
    gain[:, 0] = 10.0 ** rng.uniform(-16.0, -14.0, n_ue)
    return Topology.from_bs(bs, np.zeros((n_ue, 2)), gain, dbm_to_watts(-104.0),
                            (500.0, 500.0))


@pytest.mark.parametrize("m", range(2, 13))
def test_every_row_entry_is_its_set_priced_alone(m):
    # 12 SBSs and 16 UEs: 4096 sets fit the bound. The table's `ids` are m
    # of them; every entry its pass makes equals the entry of its set priced
    # alone, bit for bit and with the same read-only flags, also where 8 or
    # more cells are ON and numpy sums their delays pairwise
    topo = random_gains_topology(12, 16, seed=m)
    ids = sorted(np.random.default_rng(100 + m).permutation(range(1, 13))[:m].tolist())
    table = OnSetTable(topo, CostWeights(), 0.9, 1e5, 10.0)
    table.ids = ids
    alone = OnSetTable(topo, CostWeights(), 0.9, 1e5, 10.0)
    table[subset(topo.n_bs, ids, 0)]
    table[subset(topo.n_bs, ids, 1)]  # the second miss runs the pass
    rows = table._subset_pass
    assert rows and rows.state.serving.shape == (1 << m, 16)
    nonzero = 0
    for s in range(2, 1 << m):
        entry = table[subset(topo.n_bs, ids, s)]
        want = alone[subset(topo.n_bs, ids, s)]
        assert np.shares_memory(entry.rent, rows.prices.rent)
        got_psi, got_rent = entry.served(ids)
        want_psi, want_rent = want.served(ids)
        assert float_bits(got_psi) == float_bits(want_psi)
        assert float_bits(got_rent) == float_bits(want_rent)
        assert entry_bits(entry) == entry_bits(want), s
        assert entry.on_delay.hex() == want.on_delay.hex()
        if s.bit_count() >= 8:
            nonzero = max(nonzero, int((entry.delays[ids] > 0).sum()))
    if m >= 8:  # sets of 8 or more ON cells, each with a delay of its own
        assert nonzero >= 8


def all_served_record(mode):
    """A drawn record whose every SBS serves UEs at the period start."""
    cfg = ScenarioConfig(n_sbs=3, n_ue=40, area=(300.0, 300.0), initial_energy=15.0,
                         price_mode=mode, seed=0)
    for seed in range(100):
        rep = Replication.draw(cfg, seed)
        if len(rep.plan.ids) == cfg.n_sbs:
            return rep
    raise AssertionError("no record of 3 served cells")


@pytest.mark.parametrize("mode", ["live", "frozen"])
def test_a_set_has_one_entry(mode):
    # every SBS is served, so the all-ON set is a set of `ids`: the entry the
    # record's chunk made for it, its tags, the pass's row entries and every
    # lookup the engine makes are one entry per set, under every policy,
    # traced or not
    rep = all_served_record(mode)
    ids, n_bs = rep.plan.ids, rep.topo.n_bs
    table = rep.tables[0]
    all_on = table[np.ones(n_bs, dtype=bool)]
    tags = table.tags
    found = []
    lookup = OnSetTable.__getitem__

    def record_lookup(self, sigma):
        entry = lookup(self, sigma)
        found.append((sigma.tobytes(), entry))
        return entry

    with mock.patch.object(OnSetTable, "__getitem__", record_lookup):
        for policy in ("roa", "doa", "threshold:30", "adaptive"):
            for trace in (None, []):
                run_horizon(rep, make_policy(policy), trace_rows=trace)
    assert table.ids is ids and table.tags is tags and table._subset_pass
    assert table[np.ones(n_bs, dtype=bool)] is all_on
    assert len(table._entries) > 2 and len(found) > len(table._entries)
    assert all(table._entries[key] is entry for key, entry in found)
    for s in range(1 << len(ids)):
        sigma = subset(n_bs, ids, s)
        assert table[sigma] is table[sigma.copy()] is table._entries[sigma.tobytes()]
    assert len({id(e) for e in table._entries.values()}) == len(table._entries)


def test_an_entry_made_before_the_ids_is_found_after():
    topo = random_gains_topology(3, 20, seed=1)
    table = OnSetTable(topo, CostWeights(), 0.9, 1e5, 10.0)
    made = [table[np.ones(4, dtype=bool)], table[subset(4, [1, 3], 3)],
            table[subset(4, [2], 1)]]
    table.ids = [1, 2, 3]
    with mock.patch.object(network, "associate") as assoc, \
            mock.patch.object(network, "associate_subsets") as subsets:
        found = [table[subset(4, table.ids, s)] for s in (7, 5, 2)]
    assert all(a is b for a, b in zip(found, made))
    assert not assoc.called and not subsets.called
