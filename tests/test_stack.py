"""The stack axis: (topology, ON set) pairs priced in one pass have the bits
each pair has priced alone."""
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sbsched import network, pricing
from sbsched.network import Topology, place_stack, topology_to_json
from sbsched.oracle import build_tables
from sbsched.pricing import CostWeights, OnSetTable

FIELDS = ("used", "rent", "psi", "rent_sum", "buys", "psi_max")
# what the kernels read of a topology, and its positions and gains
ARRAYS = ("xy", "gain", "sbs_received_power", "mbs_snr", "bandwidths", "sbs_tx_power",
          "sbs_op_power", "sbs_max_users", "sbs_index")


@st.composite
def stacks(draw):
    """Topologies of one parameter set and pairs of them with ON sets,
    among which the all-OFF and the all-ON sets of the first topology."""
    n_sbs = draw(st.integers(0, 16))
    n_ue = draw(st.integers(1, 80))
    side = draw(st.sampled_from([300.0, 1000.0, 2000.0]))
    seeds = draw(st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=4))
    owner = draw(st.lists(st.integers(0, len(seeds) - 1), min_size=0, max_size=10))
    sigma = [draw(st.lists(st.booleans(), min_size=n_sbs, max_size=n_sbs)) for _ in owner]
    sigma = np.array([[True] * (n_sbs + 1), [True] + [False] * n_sbs]
                     + [[True] + s for s in sigma], dtype=bool)
    params = dict(sbs_max_users=draw(st.integers(1, 12)), q=draw(st.floats(0.0, 1.0)),
                  file_bits=draw(st.floats(1e4, 1e6)),
                  w=CostWeights(*draw(st.tuples(*[st.floats(0.0, 0.5)] * 3))))
    return (side, n_sbs, n_ue, seeds, np.array([0, 0] + owner), sigma, params)


def alone(side, n_sbs, n_ue, seed, max_users):
    return place_stack((side, side), n_sbs, n_ue, [np.random.default_rng(seed)],
                       sbs_max_users=max_users).take(0)


def assert_same_topology(got, want):
    for name in ARRAYS:
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
    assert (got.mbs, got.noise_power, got.area) == (want.mbs, want.noise_power, want.area)


@settings(max_examples=60, deadline=None, derandomize=True)
@example(case=(2000.0, 16, 80, [1, 2], np.array([0, 0, 1]),
               np.array([[True] * 17, [True] + [False] * 16, [True, False] * 8 + [True]]),
               dict(sbs_max_users=2, q=0.9, file_bits=1e5, w=CostWeights())))
@given(case=stacks())
def test_a_stack_prices_each_pair_as_alone(case):
    side, n_sbs, n_ue, seeds, owner, sigma, p = case
    w, q, file_bits = p["w"], p["q"], p["file_bits"]
    stack = place_stack((side, side), n_sbs, n_ue,
                        [np.random.default_rng(s) for s in seeds],
                        sbs_max_users=p["sbs_max_users"])
    topos = [alone(side, n_sbs, n_ue, s, p["sbs_max_users"]) for s in seeds]
    tx = 10.0 ** (np.random.default_rng(seeds[0]).uniform(-1.0, 0.0))
    repriced = stack.with_sbs_tx_power(tx)
    for i, topo in enumerate(topos):
        # a row of the stack is the placement alone, and so is the topology
        # rebuilt from the row's BSs, positions and gains, or from its
        # topology.json; a row repriced is the repriced stack's row
        row = stack.take(i)
        assert_same_topology(row, topo)
        assert_same_topology(topo.take(np.newaxis).take(0), topo)
        assert_same_topology(Topology.from_bs(row.bs, row.ue, row.gain, row.noise_power,
                                              row.area), topo)
        assert topology_to_json(row) == topology_to_json(topo)
        assert_same_topology(row.with_sbs_tx_power(tx), repriced.take(i))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # overloaded cells
        pairs = stack.take(owner)
        state = network.associate_stack(sigma, pairs)
        prices = pricing.price_on_sets(state, pairs, w, q, file_bits)
        tables = [OnSetTable(topo, w, q, file_bits, 10.0) for topo in topos]
        for k, (i, s) in enumerate(zip(owner.tolist(), sigma)):
            one = network.associate(s, topos[i])
            one_prices = pricing.price_on_sets(one, topos[i], w, q, file_bits)
            entry = tables[i][s]
            for got, want in ((state.serving, one.serving), (state.sinr, one.sinr),
                              (state.counts, one.counts), (state.counts, entry.state.counts),
                              (prices.delays, one_prices.delays), (prices.delays, entry.delays),
                              (prices.power, entry.power), (prices.psi, entry.psi),
                              (prices.rent, one_prices.rent), (prices.rent, entry.rent)):
                assert got[k].tobytes() == want.tobytes()

        # the tags of every topology's all-ON set, and the subset tables of
        # up to four of its served cells, as a stack and alone
        all_on = network.associate(np.ones(n_sbs + 1, dtype=bool), stack)
        tags = pricing.freeze_prices(all_on, pricing.price_on_sets(all_on, stack, w, q,
                                                                   file_bits).rent,
                                     stack, w, q, file_bits, 10.0)
        assert tags == [table.tags for table in tables]
        tags = [t[:4] for t in tags]
        stacked = build_tables(stack, tags, w, q, file_bits, 0.1)
        links = network.STACK_LINKS
        try:  # one pair a pass
            network.STACK_LINKS = 1
            in_passes = build_tables(stack, tags, w, q, file_bits, 0.1)
        finally:
            network.STACK_LINKS = links
        for got, want in zip(in_passes, stacked, strict=True):
            for name in FIELDS:
                assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
        for topo, t, got in zip(topos, tags, stacked, strict=True):
            (want,) = build_tables(topo.take(np.newaxis), [t], w, q, file_bits, 0.1)
            for name in FIELDS:
                assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name


def record_warnings(fn, *args):
    """`fn(*args)` and the messages of the warnings it issued, in order."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = fn(*args)
    return result, [str(w.message) for w in caught]


# all ON, then SBS 1 alone serves 5 UEs over a capacity of 2
OVER_CAPACITY = dict(side=2000.0, n_sbs=3, n_ue=30, max_users=2, seed=4,
                     sets=[[True] * 6, [True, False, True, False, False, False],
                           [True] * 6])


@settings(max_examples=60, deadline=None, derandomize=True)
@example(**OVER_CAPACITY)
@given(side=st.sampled_from([300.0, 2000.0]), n_sbs=st.integers(1, 6),
       n_ue=st.integers(1, 30), max_users=st.integers(1, 3), seed=st.integers(0, 2**32 - 1),
       sets=st.lists(st.lists(st.booleans(), min_size=6, max_size=6), min_size=1,
                     max_size=8))
def test_an_entry_is_its_sets_row_of_a_stacked_pass(side, n_sbs, n_ue, max_users, seed,
                                                    sets):
    # a table's one-set pass and one stacked pass over every drawn ON set
    # (a set may repeat) give each set the same bits, the same read-only
    # arrays and the same over-capacity warnings
    topo = alone(side, n_sbs, n_ue, seed, max_users)
    w, q, file_bits = CostWeights(), 0.9, 1e5
    sigma = np.array([[True] + s[:n_sbs] for s in sets], dtype=bool)
    pairs = topo.take(np.newaxis).take(np.zeros(len(sigma), dtype=int))
    state = network.associate_stack(sigma, pairs)
    prices, stack_warnings = record_warnings(pricing.price_on_sets, state, pairs, w, q,
                                             file_bits)
    table = OnSetTable(topo, w, q, file_bits, 10.0)
    table_warnings = []
    for k, s in enumerate(sigma):
        entry, caught = record_warnings(table.__getitem__, s)
        table_warnings += caught
        want = {"serving": state.serving[k], "sinr": state.sinr[k],
                "counts": state.counts[k], "delays": prices.delays[k],
                "power": prices.power[k], "psi": prices.psi[k], "rent": prices.rent[k]}
        got = {"serving": entry.state.serving, "sinr": entry.state.sinr,
               "counts": entry.state.counts, "delays": entry.delays, "power": entry.power,
               "psi": entry.psi, "rent": entry.rent}
        for name, value in want.items():
            assert got[name].tobytes() == value.tobytes(), name
            assert not got[name].flags.writeable, name
        assert not entry.state.sigma.flags.writeable
        assert entry.state.sigma.tobytes() == s.tobytes()
        assert entry.rent_values == tuple(prices.rent[k].tolist())
        assert entry.psi_values == tuple(prices.psi[k].tolist())
        assert entry.on_delay == float(np.sum(prices.delays[k][1:][s[1:]]))
    # the stack warns for every pair, the table for each set once
    firsts = [k for k, s in enumerate(sigma.tolist()) if sigma.tolist().index(s) == k]
    want = []
    for k in firsts:
        _, caught = record_warnings(pricing.price_on_sets, state.take(slice(k, k + 1)),
                                    pairs.take(slice(k, k + 1)), w, q, file_bits)
        want += caught
    assert table_warnings == want
    assert sorted(set(table_warnings)) == sorted(set(stack_warnings))
    if dict(side=side, n_sbs=n_sbs, n_ue=n_ue, max_users=max_users, seed=seed,
            sets=sets) == OVER_CAPACITY:
        assert len(table_warnings) == 2 and len(stack_warnings) == 3


def test_an_entry_fails_as_its_stacked_row_fails():
    # one SBS and one UE set by hand: a UE that receives nothing has a zero
    # rate, and a UE served at 10 s a file has a rent that overflows
    mbs = network.BsParams(id=0, kind="MBS", x=0.0, y=0.0, tx_power=1.0, op_power_max=20.0,
                           bandwidth=10e6, max_users=50)
    w = CostWeights(alpha_d=1e308)
    cases = {"rate": ([[0.0]], [0.0], network.UnserviceableError, "zero achievable rate"),
             "rent": ([[1e-10]], [1.0], pricing.NonFinitePriceError,
                      r"^SBS 1: rent price is not finite \(inf\)$")}
    for recv, snr, error, match in cases.values():
        topo = Topology(
            mbs=mbs, sbs_tx_power=np.array([1.0]), sbs_op_power=np.array([10.0]),
            sbs_max_users=np.array([10]), bandwidths=np.array([10e6, 10e6]),
            noise_power=1e-13, area=(1.0, 1.0), xy=np.zeros((2, 2)), gain=np.zeros((1, 2)),
            sbs_received_power=np.array(recv), mbs_snr=np.array(snr))
        all_on = np.ones(2, dtype=bool)
        with np.errstate(over="ignore"):
            with pytest.raises(error, match=match):
                OnSetTable(topo, w, 0.9, 1e9, 10.0)[all_on]
            stack = topo.take(np.newaxis)
            state = network.associate_stack(all_on[None], stack)
            with pytest.raises(error, match=match):
                pricing.price_on_sets(state, stack, w, 0.9, 1e9)
