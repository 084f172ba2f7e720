"""The stack axis: (topology, ON set) pairs priced in one pass have the bits
each pair has priced alone."""
import warnings

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sbsched import network, pricing
from sbsched.network import TopologyStack, place_nodes, place_stack
from sbsched.oracle import build_tables
from sbsched.pricing import CostWeights, OnSetTable

FIELDS = ("used", "rent", "psi", "rent_sum", "buys", "psi_max")


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
    return place_nodes((side, side), n_sbs, n_ue, np.random.default_rng(seed),
                       sbs_max_users=max_users)


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
    for i, topo in enumerate(topos):
        one = TopologyStack.of(topo)
        for name in ("sbs_received_power", "mbs_snr"):
            assert getattr(stack, name)[i].tobytes() == getattr(one, name)[0].tobytes()
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
        stacked = build_tables(stack, tags, w, q, file_bits)
        links = network.STACK_LINKS
        try:  # one pair a pass
            network.STACK_LINKS = 1
            in_passes = build_tables(stack, tags, w, q, file_bits)
        finally:
            network.STACK_LINKS = links
        for got, want in zip(in_passes, stacked, strict=True):
            for name in FIELDS:
                assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
        for topo, t, got in zip(topos, tags, stacked, strict=True):
            (want,) = build_tables(TopologyStack.of(topo), [t], w, q, file_bits)
            for name in FIELDS:
                assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
