import math
import warnings

import numpy as np
import pytest

from sbsched import network, pricing
from sbsched.network import BsParams, Topology, dbm_to_watts, place_stack
from sbsched.pricing import (
    CostWeights,
    NonFinitePriceError,
    OnSetEntry,
    OnSetPrices,
    OnSetTable,
    PriceTag,
    all_rent_prices,
    buy_price,
    price_on_sets,
)

from helpers import ue_rates


def served_topology(seed=1, n_sbs=6, n_ue=30):
    """A placement where at least one SBS serves a UE at the all-ON start."""
    rng = np.random.default_rng(seed)
    while True:
        topo = place_stack((500.0, 500.0), n_sbs, n_ue, [rng]).take(0)
        state = network.associate(np.ones(topo.n_bs, dtype=bool), topo)
        if any(state.n_members(j) > 0 for j in range(1, topo.n_bs)):
            return topo, state


def cell_power(cell, n_users, q):
    """The power model's draw of one BS, in plain floats, clamped at its
    capacity."""
    n = min(n_users, cell.max_users)
    return n / cell.max_users * (1.0 - q) * cell.op_power_max + q * cell.op_power_max


def mbs_delay_share(members, topo, file_bits):
    """The MBS delay of a cell's members with the MBS bandwidth split over
    all UEs, summed by numpy over the members alone."""
    mbs = topo.bs[0]
    snr = mbs.tx_power * topo.gain[members, 0] / topo.noise_power
    return float(np.sum(file_bits / (mbs.bandwidth / topo.n_ue * np.log2(1.0 + snr))))


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
    return Topology.from_bs(bs, np.full((n_ue, 2), 100.0),
                            np.column_stack([np.full(n_ue, 1e-13), gains]),
                            dbm_to_watts(-104.0), (500.0, 500.0))


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
        phi = price_on_sets(state, topo, w, 0.9, 1e5).delays[j]
        psi = cell_power(topo.bs[j], state.n_members(j), 0.9)
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
        rates = ue_rates(state, topo)
        assert rents[0] == 0.0
        for j in range(1, topo.n_bs):
            phi = sum(1e5 / rates[i] for i in np.flatnonzero(state.serving == j))
            psi = cell_power(topo.bs[j], state.n_members(j), 0.9)
            assert rents[j] == pytest.approx(
                w.alpha_d * phi + w.alpha_p * psi, rel=1e-12
            )
        assert np.array_equal(
            all_rent_prices(np.array([0.0, 2.0, 0.0]), np.array([9.5, 9.0]), w),
            [0.0, 0.05 * 2.0 + 0.05 * 9.5, 0.05 * 9.0],
        )


class TestMacroShares:
    def test_delay_share_uses_total_ue_split(self):
        # the tags weigh each UE's MBS delay once per table; a cell's buy
        # has the bits of its members' delays summed alone, on placements
        # with 1 to 60 members per cell (60 clamps the MBS's share at 50; a
        # sequential sum of 30 differs from numpy's pairwise one)
        topos = [served_topology(seed=seed, n_sbs=n_sbs, n_ue=n_ue)[0]
                 for seed, n_sbs, n_ue in ((5, 6, 30), (7, 12, 90), (11, 3, 200))]
        w = CostWeights()
        sizes = set()
        for topo in topos + [crowded_cell(1, n_ue=30), crowded_cell(1, n_ue=60)]:
            state = network.associate(np.ones(topo.n_bs, dtype=bool), topo)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                tags = OnSetTable(topo, w, 0.9, 1e5, 10.0).tags
            for tag in tags:
                members = np.flatnonzero(state.serving == tag.sbs)
                sizes.add(members.size)
                phi = mbs_delay_share(members, topo, 1e5)
                per_ue_bw = topo.bs[0].bandwidth / topo.n_ue
                snr = network.sinr_matrix(state.sigma, topo)[:, 0]
                assert phi == pytest.approx(
                    sum(1e5 / (per_ue_bw * np.log2(1 + snr[i])) for i in members),
                    rel=1e-12)
                psi = cell_power(topo.bs[0], members.size, 0.9)
                assert tag.buy == buy_price(phi, psi, w, 10.0, sbs=tag.sbs)
        assert min(sizes) == 1 and max(sizes) == 60

    def test_power_share_example(self):
        # one cell serves 5 UEs: its buy prices the MBS's draw with 5 more,
        # 0.1 * 0.1 * 20 + 0.9 * 20 = 18.2 W, alone when alpha_d = 0
        w = CostWeights(0.0, 0.05, 0.05)
        (tag,) = OnSetTable(crowded_cell(0, n_ue=5), w, 0.9, 1e5, 10.0).tags
        assert tag.buy / (w.alpha_b * w.alpha_p * 10.0) == pytest.approx(18.2)


class TestBuyPrice:
    def test_zero_fraction(self):
        assert buy_price(2.0, 18.2, CostWeights(0.05, 1e-4, 0.0), 10.0, sbs=1) == 0.0

    def test_worked_example(self):
        w = CostWeights(0.05, 1e-4, 0.05)
        assert buy_price(2.0, 18.2, w, 10.0, sbs=1) == pytest.approx(0.050910, abs=1e-9)

    def test_linear_in_period(self):
        w = CostWeights()
        assert buy_price(2.0, 18.2, w, 20.0, sbs=1) == pytest.approx(
            2 * buy_price(2.0, 18.2, w, 10.0, sbs=1), rel=1e-12
        )

    def test_linear_in_each_weight(self):
        base = buy_price(2.0, 18.2, CostWeights(0.05, 0.05, 0.05), 10.0, sbs=1)
        assert buy_price(2.0, 18.2, CostWeights(0.10, 0.05, 0.05), 10.0, sbs=1) > base
        assert buy_price(2.0, 18.2, CostWeights(0.05, 0.05, 0.025), 10.0, sbs=1) == (
            pytest.approx(base / 2, rel=1e-12)
        )


class TestNonFinitePrices:
    def test_overflowing_rent_names_the_cell(self):
        topo = crowded_cell(seed=4)
        state = network.associate(np.ones(2, dtype=bool), topo)
        # 1e308 x 2 s is inf
        assert price_on_sets(state, topo, CostWeights(), 0.9, 1e7).delays[1] > 2.0
        table = OnSetTable(topo, CostWeights(alpha_d=1e308), 0.9, 1e7, 10.0)
        with np.errstate(over="ignore"):
            with pytest.raises(NonFinitePriceError, match=r"SBS 1: rent price is not finite \(inf\)"):
                table[np.ones(2, dtype=bool)]
            with pytest.raises(NonFinitePriceError, match="SBS 1: rent price"):
                table.tags

    def test_nan_rent_names_the_cell(self):
        # a zero weight times an infinite delay: the rent formula leaves it
        # unchecked, and an entry with it names the cell
        delays, power = np.array([0.0, 1.0, np.inf]), np.array([9.5, 9.0])
        with np.errstate(invalid="ignore"):
            rent = all_rent_prices(delays, power, CostWeights(alpha_d=0.0))
        assert math.isnan(rent[2])
        state = network.NetworkState(np.ones(3, dtype=bool), np.array([1]), np.array([1.0]))
        with pytest.raises(NonFinitePriceError,
                           match=r"SBS 2: rent price is not finite \(nan\)"):
            OnSetEntry(state, OnSetPrices(delays, power, power, rent))

    def test_buy_price_names_the_cell(self):
        with pytest.raises(NonFinitePriceError, match=r"SBS 3: buy price is not finite \(inf\)"):
            buy_price(2.5, 18.2, CostWeights(alpha_d=1e308), 10.0, sbs=3)
        with pytest.raises(NonFinitePriceError, match=r"SBS 2: buy price is not finite \(nan\)"):
            buy_price(np.inf, 18.2, CostWeights(alpha_d=0.0), 10.0, sbs=2)


    def test_a_stack_raises_its_first_pairs_failure(self):
        # pair "rent" serves its UE at 10 s a file, whose rent overflows;
        # pair "rate" receives nothing, so its UE's rate is 0: a stack
        # raises the failure of its first failing pair, as priced alone
        mbs = BsParams(id=0, kind="MBS", x=0.0, y=0.0, tx_power=1.0, op_power_max=20.0,
                       bandwidth=10e6, max_users=50)
        pairs = {"rent": ([[1e-10]], [1.0]), "rate": ([[0.0]], [0.0])}
        w = CostWeights(alpha_d=1e308)
        errors = {"rent": (NonFinitePriceError, r"SBS 1: rent price is not finite \(inf\)"),
                  "rate": (network.UnserviceableError, "zero achievable rate")}
        for order in (["rent", "rate"], ["rate", "rent"], ["rent"], ["rate"]):
            # the received power and SNR set directly; no kernel reads xy or gain
            stack = Topology(
                mbs=mbs, sbs_tx_power=np.array([1.0]), sbs_op_power=np.array([10.0]),
                sbs_max_users=np.array([10]), bandwidths=np.array([10e6, 10e6]),
                noise_power=1e-13, area=(1.0, 1.0), xy=np.zeros((len(order), 2, 2)),
                gain=np.zeros((len(order), 1, 2)),
                sbs_received_power=np.array([pairs[k][0] for k in order]),
                mbs_snr=np.array([pairs[k][1] for k in order]))
            state = network.associate_stack(np.ones((len(order), 2), dtype=bool), stack)
            error, match = errors[order[0]]
            with np.errstate(over="ignore"), pytest.raises(error, match=match):
                price_on_sets(state, stack, w, 0.9, 1e9)


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
        topo = place_stack((2000.0, 2000.0), 3, 2, [np.random.default_rng(0)]).take(0)
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
        # one pricing pass per ON set of a table; the tags read the all-ON
        # entry's, and are frozen once
        calls = []
        real = pricing._price

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(pricing, "_price", counting)
        topo, _ = served_topology(seed=9)
        table = OnSetTable(topo, CostWeights(), 0.9, 1e5, 10.0)
        sigmas = [np.ones(topo.n_bs, dtype=bool), np.eye(topo.n_bs, dtype=bool)[0]]
        for sigma in sigmas:
            table[sigma].rent, table[sigma].delays
        assert len(calls) == len(sigmas)
        tags = table.tags
        assert len(calls) == len(sigmas)
        assert table.tags is tags  # frozen once per table

    def test_buy_composition(self):
        topo, state = served_topology(seed=9)
        w = CostWeights()
        tags = OnSetTable(topo, w, 0.9, 1e5, 10.0).tags
        assert tags
        for tag in tags:
            members = np.flatnonzero(state.serving == tag.sbs)
            assert members.size > 0
            phi = mbs_delay_share(members, topo, 1e5)
            psi = cell_power(topo.bs[0], members.size, 0.9)
            assert tag.buy == pytest.approx(buy_price(phi, psi, w, 10.0, sbs=tag.sbs),
                                            rel=1e-12)


def reference_entry(table, sigma):
    """Each field of `table[sigma]` from the public model functions and the
    rate reference, with the association masked explicitly and the delays
    added with `np.add.at`."""
    topo = table.topo
    metric = network.sinr_matrix(sigma, topo)
    serving = np.where(sigma, metric, -np.inf).argmax(axis=1)
    sinr = metric[np.arange(topo.n_ue), serving]
    state = network.associate(sigma, topo)
    rates = ue_rates(state, topo)
    delays = np.zeros(topo.n_bs)
    np.add.at(delays, serving, table.file_bits / rates)
    power = np.array([cell_power(topo.bs[j], int(np.count_nonzero(serving == j)), table.q)
                      for j in range(1, topo.n_bs)])
    return {
        "serving": serving, "sinr": sinr, "delays": delays,
        "price_on_sets": price_on_sets(state, topo, table.w, table.q, table.file_bits).delays,
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
        "delays": entry.delays, "price_on_sets": entry.delays, "power": entry.power,
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
        topo = place_stack((float(rng.choice([300.0, 1000.0, 2000.0])),) * 2, n_sbs,
                           int(rng.integers(5, 100)), [rng]).take(0)
        w = CostWeights(*rng.uniform(0.0, 0.5, size=3))
        q, file_bits = float(rng.uniform()), float(rng.uniform(1e4, 1e6))
        # the base topology and two transmit-power epochs
        for tp in (topo, topo.with_sbs_tx_power(dbm_to_watts(30.0)),
                   topo.with_sbs_tx_power(dbm_to_watts(15.0))):
            table = OnSetTable(tp, w, q, file_bits, 10.0)
            for sigma in self.random_on_sets(tp.n_bs, rng):
                assert_entry_is_reference(table, sigma)

    def test_add_makes_the_entry_from_the_given_association(self, monkeypatch):
        topo, state = served_topology(seed=3)
        table = OnSetTable(topo, CostWeights(), 0.9, 1e5, 10.0)
        entry = table.add(state)
        assert entry.state is state

        def no_association(*args):
            raise AssertionError("the ON set was associated again")

        monkeypatch.setattr(network, "associate", no_association)
        assert table[state.sigma.copy()] is entry
        monkeypatch.undo()
        assert_entry_is_reference(table, state.sigma.copy())

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
        topo = place_stack((2000.0, 2000.0), 8, 80, [np.random.default_rng(0)],
                           sbs_max_users=2).take(0)
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
                assert entry.power[j - 1] == cell_power(topo.bs[j], 2, 0.9) == 10.0
            n_over += len(over)
        assert n_over > 1
        all_on = np.ones(topo.n_bs, dtype=bool)
        with pytest.warns(UserWarning, match="users exceed max 2"):
            OnSetTable(topo, CostWeights(), 0.9, 1e5, 10.0)[all_on]
