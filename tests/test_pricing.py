import warnings

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


def reference_entry(table, sigma):
    """Each field of `table[sigma]` from the public model functions, with the
    association masked explicitly and the delays added with `np.add.at`."""
    topo = table.topo
    metric = network.sinr_matrix(sigma, topo)
    serving = np.where(sigma, metric, -np.inf).argmax(axis=1)
    sinr = metric[np.arange(topo.n_ue), serving]
    state = network.associate(sigma, topo)
    rates = network.ue_rates(state, topo)
    delays = np.zeros(topo.n_bs)
    np.add.at(delays, serving, table.file_bits / rates)
    power = np.array([bs_power(topo.bs[j], int(np.count_nonzero(serving == j)), table.q)
                      for j in range(1, topo.n_bs)])
    return {
        "serving": serving, "sinr": sinr, "delays": delays,
        "all_bs_delays": network.all_bs_delays(state, topo, table.file_bits),
        "power": power,
        "rent": all_rent_prices(delays, power, table.w),
        "psi": np.where(sigma[1:], power, 0.0),
        "on_delay": float(delays[1:][sigma[1:]].sum()),
    }


def assert_entry_is_reference(table, sigma):
    entry = table[sigma]
    want = reference_entry(table, sigma)
    got = {
        "serving": entry.state.serving, "sinr": entry.state.sinr,
        "delays": entry.delays, "all_bs_delays": entry.delays, "power": entry.power,
        "rent": entry.rent, "psi": entry.psi, "on_delay": entry.on_delay,
    }
    for name, value in want.items():
        assert np.asarray(got[name]).tobytes() == np.asarray(value).tobytes(), name
    assert entry.rent_values == tuple(want["rent"].tolist())
    assert entry.psi_values == tuple(want["psi"].tolist())
    assert all(type(v) is float for v in entry.rent_values + entry.psi_values)
    assert type(entry.on_delay) is float
    for a in (entry.delays, entry.power, entry.rent, entry.psi):
        assert not a.flags.writeable
    return entry


class TestOnSetEntry:
    def random_on_sets(self, n_bs, rng, n=12):
        sigmas = [np.ones(n_bs, dtype=bool), np.eye(n_bs, dtype=bool)[0]]
        for _ in range(n):
            sigma = rng.random(n_bs) < rng.uniform(0.2, 0.8)
            sigma[0] = True
            sigmas.append(sigma)
        return sigmas

    @pytest.mark.parametrize("seed", range(6))
    def test_entry_is_the_model_functions_bit_for_bit(self, seed):
        rng = np.random.default_rng(seed)
        n_sbs = int(rng.integers(2, 17))
        topo = place_nodes((float(rng.choice([300.0, 1000.0, 2000.0])),) * 2, n_sbs,
                           int(rng.integers(5, 100)), rng)
        w = CostWeights(*rng.uniform(0.0, 0.5, size=3))
        q, file_bits = float(rng.uniform()), float(rng.uniform(1e4, 1e6))
        # the base topology and two transmit-power epochs, each a fresh cache
        for tp in (topo, topo.with_sbs_tx_power(dbm_to_watts(30.0)),
                   topo.with_sbs_tx_power(dbm_to_watts(15.0))):
            assert "received_power" not in vars(tp)
            table = OnSetTable(tp, w, q, file_bits, 10.0)
            for sigma in self.random_on_sets(tp.n_bs, rng):
                assert_entry_is_reference(table, sigma)

    def test_macro_only_set_serves_everyone_from_the_macro_cell(self):
        topo, _ = served_topology(seed=3)
        table = OnSetTable(topo, CostWeights(), 0.9, 1e5, 10.0)
        entry = assert_entry_is_reference(table, np.eye(topo.n_bs, dtype=bool)[0])
        assert not entry.state.serving.any()
        assert entry.psi_values == (0.0,) * topo.n_sbs
        assert entry.on_delay == 0.0
        assert entry.power.tolist() == [0.9 * 10.0] * topo.n_sbs

    def test_overloaded_cells_are_clamped_with_a_warning_each(self):
        # all ON, BS 7 serves 4 UEs
        topo = place_nodes((2000.0, 2000.0), 8, 80, np.random.default_rng(0),
                           sbs_max_users=2)
        n_over = 0
        for sigma in self.random_on_sets(topo.n_bs, np.random.default_rng(1), n=30):
            table = OnSetTable(topo, CostWeights(), 0.9, 1e5, 10.0)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                state = network.associate(sigma, topo)
                over = [j for j in range(1, topo.n_bs) if state.n_members(j) > 2]
                entry = table[sigma]
            messages = [str(w.message) for w in caught]
            assert messages == [
                f"BS {j}: {state.n_members(j)} users exceed max 2; "
                "clamping the proportional term" for j in over]
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                assert_entry_is_reference(table, sigma)
            for j in over:
                assert entry.power[j - 1] == bs_power(topo.bs[j], 2, 0.9) == 10.0
            n_over += len(over)
        assert n_over > 1
        all_on = np.ones(topo.n_bs, dtype=bool)
        with pytest.warns(UserWarning, match="users exceed max 2"):
            OnSetTable(topo, CostWeights(), 0.9, 1e5, 10.0)[all_on]
