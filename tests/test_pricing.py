import numpy as np
import pytest

from sbsched import network
from sbsched.energy import bs_power
from sbsched.network import BsParams, Topology, dbm_to_watts, place_nodes
from sbsched.pricing import (
    CostWeights,
    OnSetTable,
    PriceTag,
    all_rent_prices,
    buy_price,
    mbs_delay_share,
    offline_cost,
)


def served_topology(seed=1, n_sbs=6, n_ue=30):
    """A placement where at least one SBS serves a UE at the all-ON start."""
    rng = np.random.default_rng(seed)
    while True:
        topo = place_nodes((500.0, 500.0), n_sbs, n_ue, rng)
        state = network.associate(np.ones(topo.n_bs, dtype=bool), topo)
        if any(state.n_members(j) > 0 for j in range(1, topo.n_bs)):
            return topo, state


def all_on_rent(topo, w, q=0.9, file_bits=1e5):
    """The table's rent of every SBS in the all-ON set (index 0 unused)."""
    return OnSetTable(topo, w, q, file_bits, 10.0)[np.ones(topo.n_bs, dtype=bool)].rent


def crowded_cell(seed, n_ue=10):
    """One SBS that serves all `n_ue` UEs, with random SBS gains."""
    gains = 10 ** np.random.default_rng(seed).uniform(-11, -9, size=n_ue)
    bs = (
        BsParams(id=0, kind="MBS", x=250.0, y=250.0, tx_power=dbm_to_watts(33.0),
                 op_power_max=20.0, bandwidth=10e6, max_users=50),
        BsParams(id=1, kind="SBS", x=100.0, y=100.0, tx_power=dbm_to_watts(23.0),
                 op_power_max=10.0, bandwidth=10e6, max_users=n_ue),
    )
    return Topology(bs=bs, ue=np.full((n_ue, 2), 100.0),
                    gain=np.column_stack([np.full(n_ue, 1e-13), gains]),
                    noise_power=dbm_to_watts(-104.0), area=(500.0, 500.0))


class TestCostWeights:
    def test_defaults(self):
        w = CostWeights()
        assert (w.alpha_d, w.alpha_p, w.alpha_b) == (0.05, 0.05, 0.05)

    def test_validation(self):
        with pytest.raises(ValueError):
            CostWeights(alpha_b=1.5)
        with pytest.raises(ValueError):
            CostWeights(alpha_d=-0.1)

    def test_price_tag_validation(self):
        with pytest.raises(ValueError):
            PriceTag(sbs=1, rent=-1.0, buy=0.0)


class TestRentPrice:
    def test_zero_weights(self):
        topo, _ = served_topology()
        assert np.all(all_on_rent(topo, CostWeights(0.0, 0.0, 0.0)) == 0.0)

    def test_weighted_sum_example(self):
        # phi = 0.02 s, psi = 9.5 W, alpha_d = 0.05, alpha_p = 1e-4 -> 0.00195
        assert 0.05 * 0.02 + 1e-4 * 9.5 == pytest.approx(0.00195)
        topo, state = served_topology()
        j = next(j for j in range(1, topo.n_bs) if state.n_members(j) > 0)
        w = CostWeights(0.05, 1e-4, 0.05)
        phi = network.all_bs_delays(state, topo, 1e5)[j]
        psi = bs_power(topo.bs[j], state.n_members(j), 0.9)
        assert all_on_rent(topo, w)[j] == pytest.approx(0.05 * phi + 1e-4 * psi, rel=1e-12)

    def test_empty_cell_pays_fixed_power_only(self):
        topo, state = served_topology()
        j = next((j for j in range(1, topo.n_bs) if state.n_members(j) == 0), None)
        assert j is not None
        w = CostWeights(0.05, 0.05, 0.05)
        expected = 0.05 * 0.9 * topo.bs[j].op_power_max
        assert all_on_rent(topo, w)[j] == pytest.approx(expected)

    def test_vectorized_matches_scalar(self):
        # every SBS's rent against a per-cell sum over its members' rates
        topo, state = served_topology(seed=3)
        w = CostWeights()
        rents = all_on_rent(topo, w)
        rates = network.ue_rates(state, topo)
        assert rents[0] == 0.0
        for j in range(1, topo.n_bs):
            phi = sum(1e5 / rates[i] for i in state.members(j))
            psi = bs_power(topo.bs[j], state.n_members(j), 0.9)
            assert rents[j] == pytest.approx(
                w.alpha_d * phi + w.alpha_p * psi, rel=1e-12
            )
        assert np.array_equal(
            all_rent_prices(np.array([0.0, 2.0, 0.0]), np.array([9.5, 9.0]), w),
            [0.0, 0.05 * 2.0 + 0.05 * 9.5, 0.05 * 9.0],
        )


class TestMacroShares:
    def test_delay_share_uses_total_ue_split(self):
        topo, state = served_topology(seed=5)
        j = next(j for j in range(1, topo.n_bs) if state.n_members(j) > 0)
        members = state.members(j)
        per_ue_bw = topo.bs[0].bandwidth / topo.n_ue
        snr = network.sinr_matrix(state.sigma, topo)[:, 0]
        expected = sum(1e5 / (per_ue_bw * np.log2(1 + snr[i])) for i in members)
        got = mbs_delay_share(members, topo, 1e5, topo.n_ue)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_empty_member_set(self):
        topo, _ = served_topology()
        assert mbs_delay_share(np.array([], dtype=int), topo, 1e5, 30) == 0.0

    def test_power_share_example(self):
        topo, _ = served_topology()
        assert bs_power(topo.bs[0], 5, 0.9) == pytest.approx(18.2)


class TestBuyPrice:
    def test_zero_fraction(self):
        assert buy_price(2.0, 18.2, CostWeights(0.05, 1e-4, 0.0), 10.0) == 0.0

    def test_worked_example(self):
        w = CostWeights(0.05, 1e-4, 0.05)
        assert buy_price(2.0, 18.2, w, 10.0) == pytest.approx(0.050910, abs=1e-9)

    def test_linear_in_period(self):
        w = CostWeights()
        assert buy_price(2.0, 18.2, w, 20.0) == pytest.approx(
            2 * buy_price(2.0, 18.2, w, 10.0), rel=1e-12
        )

    def test_linear_in_each_weight(self):
        base = buy_price(2.0, 18.2, CostWeights(0.05, 0.05, 0.05), 10.0)
        assert buy_price(2.0, 18.2, CostWeights(0.10, 0.05, 0.05), 10.0) > base
        assert buy_price(2.0, 18.2, CostWeights(0.05, 0.05, 0.025), 10.0) == (
            pytest.approx(base / 2, rel=1e-12)
        )


class TestOfflineCost:
    def test_rent_branch(self):
        assert offline_cost(1.0, 4.0, 2.0, 10.0) == 2.0

    def test_buy_branch(self):
        assert offline_cost(1.0, 4.0, 6.0, 10.0) == 4.0

    def test_boundary(self):
        assert offline_cost(1.0, 4.0, 4.0, 10.0) == 4.0

    def test_min_identity_random(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            r, b = rng.uniform(0.01, 5.0, size=2)
            u = rng.uniform(0.0, 10.0)
            assert offline_cost(r, b, u, 10.0) == pytest.approx(min(r * u, b))

    def test_concave_nondecreasing_in_u(self):
        us = np.linspace(0.0, 10.0, 101)
        vals = np.array([offline_cost(0.7, 3.0, u, 10.0) for u in us])
        assert np.all(np.diff(vals) >= -1e-12)
        # piecewise-linear concavity: increments never increase
        assert np.all(np.diff(vals, 2) <= 1e-12)

    def test_u_out_of_range(self):
        with pytest.raises(ValueError):
            offline_cost(1.0, 4.0, 11.0, 10.0)


class TestFreezePrices:
    def test_tags_are_the_served_cells_in_ascending_id(self):
        topo, state = served_topology()
        tags = OnSetTable(topo, CostWeights(), 0.9, 1e5, 10.0).tags
        served = [j for j in range(1, topo.n_bs) if state.n_members(j) > 0]
        assert 0 < len(served) < topo.n_sbs  # some cell is left out
        assert [tag.sbs for tag in tags] == served
        for tag in tags:
            assert tag.rent >= 0 and tag.buy > 0.0

    def test_no_served_cell_gives_no_tags(self):
        # 2 UEs on 2000 m, both on the macro cell
        topo = place_nodes((2000.0, 2000.0), 3, 2, np.random.default_rng(0))
        table = OnSetTable(topo, CostWeights(), 0.9, 1e5, 10.0)
        assert not table[np.ones(topo.n_bs, dtype=bool)].state.serving.any()
        assert table.tags == ()

    def test_frozen_rent_matches_all_on_state(self):
        # bit for bit, also for cells of >= 8 UEs, where a per-cell sum of
        # the delays in another order than the table's changes the last bit
        cases = [(served_topology(seed=s)[0], CostWeights()) for s in (3, 9)]
        cases += [(crowded_cell(s), CostWeights(0.05, 1e-4, 0.05)) for s in range(8)]
        for topo, w in cases:
            table = OnSetTable(topo, w, 0.9, 1e5, 10.0)
            all_on = table[np.ones(topo.n_bs, dtype=bool)]
            assert table.tags
            for tag in table.tags:
                assert tag.rent == all_on.rent[tag.sbs]

    def test_prices_read_the_tables_delays_once(self, monkeypatch):
        calls = {"all_bs_delays": 0, "ue_rates": 0}
        for name in calls:
            real = getattr(network, name)

            def counting(*args, _real=real, _name=name):
                calls[_name] += 1
                return _real(*args)

            monkeypatch.setattr(network, name, counting)
        topo, _ = served_topology(seed=9)
        table = OnSetTable(topo, CostWeights(), 0.9, 1e5, 10.0)
        sigmas = [np.ones(topo.n_bs, dtype=bool), np.eye(topo.n_bs, dtype=bool)[0]]
        for sigma in sigmas:
            table[sigma].rent, table[sigma].delays
        assert calls["all_bs_delays"] <= len(sigmas)
        before = dict(calls)
        tags = table.tags
        assert calls == before
        assert table.tags is tags  # frozen once per table

    def test_buy_composition(self):
        topo, state = served_topology(seed=9)
        w = CostWeights()
        tags = OnSetTable(topo, w, 0.9, 1e5, 10.0).tags
        assert tags
        for tag in tags:
            members = state.members(tag.sbs)
            assert members.size > 0
            phi = mbs_delay_share(members, topo, 1e5, topo.n_ue)
            psi = bs_power(topo.bs[0], members.size, 0.9)
            assert tag.buy == pytest.approx(buy_price(phi, psi, w, 10.0), rel=1e-12)
