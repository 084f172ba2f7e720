import numpy as np
import pytest

from sbsched import network, pricing
from sbsched.network import dbm_to_watts, place_nodes
from sbsched.pricing import (
    CostWeights,
    OnSetTable,
    PriceTag,
    all_rent_prices,
    buy_price,
    freeze_prices,
    mbs_delay_share,
    mbs_power_share,
    offline_cost,
    rent_price,
)


def served_topology(seed=1, n_sbs=6, n_ue=30):
    """A placement where at least one SBS serves a UE at the all-ON start."""
    rng = np.random.default_rng(seed)
    while True:
        topo = place_nodes((500.0, 500.0), n_sbs, n_ue, rng)
        state = network.associate(np.ones(topo.n_bs, dtype=bool), topo)
        if any(state.n_members(j) > 0 for j in range(1, topo.n_bs)):
            return topo, state


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
        topo, state = served_topology()
        w = CostWeights(0.0, 0.0, 0.0)
        for j in range(1, topo.n_bs):
            assert rent_price(j, state, topo, w, 0.9, 1e5) == 0.0

    def test_weighted_sum_example(self):
        # phi = 0.02 s, psi = 9.5 W, alpha_d = 0.05, alpha_p = 1e-4 -> 0.00195
        assert 0.05 * 0.02 + 1e-4 * 9.5 == pytest.approx(0.00195)
        topo, state = served_topology()
        j = next(j for j in range(1, topo.n_bs) if state.n_members(j) > 0)
        w = CostWeights(0.05, 1e-4, 0.05)
        phi = network.bs_delay(j, state, topo, 1e5)
        from sbsched.energy import bs_power
        psi = bs_power(topo.bs[j], state.n_members(j), 0.9)
        assert rent_price(j, state, topo, w, 0.9, 1e5) == pytest.approx(
            0.05 * phi + 1e-4 * psi, rel=1e-12
        )

    def test_empty_cell_pays_fixed_power_only(self):
        topo, state = served_topology()
        j = next((j for j in range(1, topo.n_bs) if state.n_members(j) == 0), None)
        assert j is not None
        w = CostWeights(0.05, 0.05, 0.05)
        expected = 0.05 * 0.9 * topo.bs[j].op_power_max
        assert rent_price(j, state, topo, w, 0.9, 1e5) == pytest.approx(expected)

    def test_vectorized_matches_scalar(self):
        topo, state = served_topology(seed=3)
        w = CostWeights()
        rents = all_rent_prices(state, topo, w, 0.9, 1e5)
        assert rents[0] == 0.0
        for j in range(1, topo.n_bs):
            assert rents[j] == pytest.approx(
                rent_price(j, state, topo, w, 0.9, 1e5), rel=1e-12
            )

    def test_requires_small_cell_index(self):
        topo, state = served_topology()
        with pytest.raises(ValueError):
            rent_price(0, state, topo, CostWeights(), 0.9, 1e5)


class TestMacroShares:
    def test_delay_share_uses_total_ue_split(self):
        topo, state = served_topology(seed=5)
        j = next(j for j in range(1, topo.n_bs) if state.n_members(j) > 0)
        members = state.members(j)
        per_ue_bw = topo.bs[0].bandwidth / topo.n_ue
        expected = sum(
            1e5 / (per_ue_bw * np.log2(1 + network.snr_mbs(int(i), topo)))
            for i in members
        )
        got = mbs_delay_share(members, topo, 1e5, topo.n_ue)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_empty_member_set(self):
        topo, _ = served_topology()
        assert mbs_delay_share(np.array([], dtype=int), topo, 1e5, 30) == 0.0

    def test_power_share_example(self):
        topo, _ = served_topology()
        assert mbs_power_share(5, topo.bs[0], 0.9) == pytest.approx(18.2)


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
    def test_unserved_cell_has_zero_buy(self):
        topo, state = served_topology()
        tags = freeze_prices(OnSetTable(topo, CostWeights(), 0.9, 1e5), 10.0)
        assert len(tags) == topo.n_sbs
        for tag in tags:
            assert tag.sbs >= 1 and tag.rent >= 0 and tag.buy >= 0
            if state.n_members(tag.sbs) == 0:
                assert tag.buy == 0.0
            else:
                assert tag.buy > 0.0

    def test_frozen_rent_matches_all_on_state(self):
        topo, state = served_topology(seed=9)
        w = CostWeights()
        tags = freeze_prices(OnSetTable(topo, w, 0.9, 1e5), 10.0)
        for tag in tags:
            assert tag.rent == pytest.approx(
                rent_price(tag.sbs, state, topo, w, 0.9, 1e5), rel=1e-12
            )

    def test_buy_composition(self):
        topo, state = served_topology(seed=9)
        w = CostWeights()
        tags = freeze_prices(OnSetTable(topo, w, 0.9, 1e5), 10.0)
        for tag in tags:
            members = state.members(tag.sbs)
            if members.size == 0:
                continue
            phi = mbs_delay_share(members, topo, 1e5, topo.n_ue)
            psi = mbs_power_share(members.size, topo.bs[0], 0.9)
            assert tag.buy == pytest.approx(buy_price(phi, psi, w, 10.0), rel=1e-12)
