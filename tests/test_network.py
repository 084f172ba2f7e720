import math

import numpy as np
import pytest

from sbsched import network
from sbsched.network import (
    BsParams,
    NetworkState,
    PathLossModel,
    Topology,
    UnserviceableError,
    all_bs_delays,
    associate,
    channel_gain,
    compute_gains,
    dbm_to_watts,
    place_nodes,
    sinr_matrix,
    topology_from_json,
    topology_to_json,
    ue_rates,
    watts_to_dbm,
)
from sbsched.pricing import CostWeights, OnSetTable

NOISE = dbm_to_watts(-104.0)


def make_topology(bs_specs, ue_xy, gains=None, noise=NOISE):
    """Hand-built topology; bs_specs = [(kind, x, y, tx_w, op_w, bw, max_users)]."""
    bs = tuple(
        BsParams(id=i, kind=k, x=x, y=y, tx_power=tx, op_power_max=op,
                 bandwidth=bw, max_users=mu)
        for i, (k, x, y, tx, op, bw, mu) in enumerate(bs_specs)
    )
    ue = np.asarray(ue_xy, dtype=float)
    if gains is None:
        gains = compute_gains(bs, ue, PathLossModel())
    return Topology(bs=bs, ue=ue, gain=np.asarray(gains, dtype=float),
                    noise_power=noise, area=(500.0, 500.0))


MBS_SPEC = ("MBS", 250.0, 250.0, dbm_to_watts(33.0), 20.0, 10e6, 50)


def sbs_spec(x, y, tx_dbm=23.0):
    return ("SBS", x, y, dbm_to_watts(tx_dbm), 10.0, 10e6, 10)


class TestUnitConversions:
    def test_dbm_to_watts(self):
        assert dbm_to_watts(30.0) == pytest.approx(1.0)
        assert dbm_to_watts(23.0) == pytest.approx(0.1995262, rel=1e-6)
        assert dbm_to_watts(-104.0) == pytest.approx(3.9810717e-14, rel=1e-6)

    def test_round_trip(self):
        for dbm in (-104.0, 0.0, 23.0, 33.0):
            assert watts_to_dbm(dbm_to_watts(dbm)) == pytest.approx(dbm)

    def test_nonpositive_watts_rejected(self):
        with pytest.raises(ValueError):
            watts_to_dbm(0.0)


class TestChannelGain:
    def test_macro_link_at_1km(self):
        assert channel_gain(1000.0, "MBS") == pytest.approx(10 ** -12.81, rel=1e-12)

    def test_clamp_below_minimum_distance(self):
        assert channel_gain(0.01, "SBS") == channel_gain(1.0, "SBS")

    def test_doubling_distance_small_cell(self):
        ratio = channel_gain(200.0, "SBS") / channel_gain(100.0, "SBS")
        assert ratio == pytest.approx(10 ** (-36.7 * math.log10(2) / 10), rel=1e-9)
        assert ratio == pytest.approx(0.0785, abs=5e-4)

    def test_unknown_link_kind(self):
        with pytest.raises(ValueError):
            channel_gain(10.0, "relay")

    def test_gain_matrix_is_channel_gain_bit_for_bit(self):
        # both link kinds, and UEs closer than min_distance to either BS
        rng = np.random.default_rng(3)
        ue = np.vstack((rng.uniform(0.0, 500.0, size=(200, 2)),
                        [[250.0, 250.0], [250.3, 249.8], [100.0, 100.0], [100.5, 100.0]]))
        bs = (
            BsParams(id=0, kind="MBS", x=250.0, y=250.0, tx_power=2.0,
                     op_power_max=20.0, bandwidth=10e6, max_users=50),
            BsParams(id=1, kind="SBS", x=100.0, y=100.0, tx_power=0.2,
                     op_power_max=10.0, bandwidth=10e6, max_users=10),
        )
        model = PathLossModel(min_distance=1.0)
        want = np.array([
            [channel_gain(math.hypot(x - b.x, y - b.y), b.kind, model) for b in bs]
            for x, y in ue.tolist()
        ])
        assert compute_gains(bs, ue, model).tobytes() == want.tobytes()


class TestPlaceNodes:
    def test_macro_only_degenerate(self):
        topo = place_nodes((500.0, 500.0), 0, 1, np.random.default_rng(0))
        assert topo.n_bs == 1 and topo.n_ue == 1
        state = associate(np.array([True]), topo)
        assert state.serving[0] == 0

    def test_deterministic_for_fixed_seed(self):
        a = place_nodes((500.0, 500.0), 5, 10, np.random.default_rng(42))
        b = place_nodes((500.0, 500.0), 5, 10, np.random.default_rng(42))
        assert np.array_equal(a.ue, b.ue)
        assert np.array_equal(a.gain, b.gain)
        assert all(x.x == y.x and x.y == y.y for x, y in zip(a.bs, b.bs))

    def test_snapshot_scale_counts(self):
        topo = place_nodes((500.0, 500.0), 15, 30, np.random.default_rng(3))
        assert topo.n_bs == 16 and topo.n_sbs == 15 and topo.n_ue == 30

    def test_nodes_inside_area(self):
        topo = place_nodes((500.0, 500.0), 20, 40, np.random.default_rng(7))
        assert np.all(topo.ue >= 0) and np.all(topo.ue <= 500)
        assert all(0 <= b.x <= 500 and 0 <= b.y <= 500 for b in topo.bs)
        assert topo.bs[0].x == 250.0 and topo.bs[0].y == 250.0

    def test_invalid_inputs(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            place_nodes((0.0, 500.0), 1, 1, rng)
        with pytest.raises(ValueError):
            place_nodes((500.0, 500.0), -1, 1, rng)
        with pytest.raises(ValueError):
            place_nodes((500.0, 500.0), 1, 0, rng)


class TestTopologyConstants:
    NAMES = ("received_power", "sbs_received_power", "mbs_snr", "bandwidths",
             "sbs_op_power", "sbs_max_users")

    def test_constants_match_the_fields_and_are_cached_read_only(self):
        topo = place_nodes((500.0, 500.0), 4, 12, np.random.default_rng(2),
                           sbs_max_users=3)
        tx = np.array([b.tx_power for b in topo.bs])
        recv = topo.gain * tx[None, :]
        assert topo.received_power.tobytes() == recv.tobytes()
        assert topo.sbs_received_power.flags.c_contiguous
        assert topo.sbs_received_power.tobytes() == np.ascontiguousarray(recv[:, 1:]).tobytes()
        assert topo.mbs_snr.tobytes() == (recv[:, 0] / topo.noise_power).tobytes()
        assert topo.bandwidths.tolist() == [b.bandwidth for b in topo.bs]
        assert topo.sbs_op_power.tolist() == [b.op_power_max for b in topo.bs[1:]]
        assert topo.sbs_max_users.tolist() == [3] * 4
        for name in self.NAMES:
            value = getattr(topo, name)
            assert getattr(topo, name) is value
            assert not value.flags.writeable

    def test_tx_power_copy_starts_with_an_empty_cache(self):
        topo = place_nodes((500.0, 500.0), 3, 10, np.random.default_rng(4))
        for name in self.NAMES:
            getattr(topo, name)
        louder = topo.with_sbs_tx_power(dbm_to_watts(30.0))
        assert not set(self.NAMES) & set(vars(louder))
        assert louder.received_power[:, 0].tobytes() == topo.received_power[:, 0].tobytes()
        assert louder.sbs_received_power.tobytes() == (
            topo.gain[:, 1:] * dbm_to_watts(30.0)).tobytes()
        assert np.all(louder.sbs_received_power > topo.sbs_received_power)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_overflowing_received_power_rejected(self):
        spec = ("SBS", 100.0, 100.0, 1e10, 1e10, 10e6, 10)
        topo = make_topology([MBS_SPEC, spec], [[100.0, 100.0]], gains=[[1e-13, 1e300]])
        with pytest.raises(ValueError, match="received power"):
            associate(np.array([True, False]), topo)


class TestSinrSnr:
    def test_single_small_cell_value(self):
        # one ON SBS, gain 1e-10, 23 dBm, noise -104 dBm => ~501.2
        topo = make_topology(
            [MBS_SPEC, sbs_spec(100.0, 100.0)],
            [[100.0, 100.0]],
            gains=[[1e-12, 1e-10]],
        )
        value = sinr_matrix(np.array([True, True]), topo)[0, 1]
        assert value == pytest.approx(dbm_to_watts(23.0) * 1e-10 / NOISE, rel=1e-12)
        assert value == pytest.approx(501.2, rel=1e-3)

    def test_serving_cell_off_gives_zero(self):
        topo = make_topology(
            [MBS_SPEC, sbs_spec(100.0, 100.0)],
            [[100.0, 100.0]],
            gains=[[1e-12, 1e-10]],
        )
        assert sinr_matrix(np.array([True, False]), topo)[0, 1] == 0.0

    def test_two_equal_cells_symmetric(self):
        # equal gains, negligible noise -> SINR ~ 1 for both
        topo = make_topology(
            [MBS_SPEC, sbs_spec(100.0, 100.0), sbs_spec(400.0, 400.0)],
            [[250.0, 250.0]],
            gains=[[1e-12, 1e-8, 1e-8]],
            noise=1e-20,
        )
        metric = sinr_matrix(np.array([True, True, True]), topo)
        assert metric[0, 1] == pytest.approx(1.0, rel=1e-9)
        assert metric[0, 2] == pytest.approx(1.0, rel=1e-9)

    def test_macro_snr_value_and_invariance(self):
        topo = make_topology(
            [MBS_SPEC, sbs_spec(10.0, 10.0), sbs_spec(490.0, 490.0)],
            [[250.0, 250.0]],
            gains=[[1e-12, 1e-11, 1e-11]],
        )
        expected = dbm_to_watts(33.0) * 1e-12 / NOISE
        assert expected == pytest.approx(50.12, rel=1e-3)
        # macro SNR ignores every small-cell toggle
        for sigma in ([True, True, True], [True, False, True], [True, False, False]):
            assert sinr_matrix(np.array(sigma), topo)[0, 0] == pytest.approx(
                expected, rel=1e-12)

    def test_matrix_is_the_strided_formula_bit_for_bit(self):
        # the interference sum is a matmul over the SBS columns of the
        # (n_ue, n_bs) received power: a contiguous copy of that block must
        # give the same bits as the strided view
        rng = np.random.default_rng(12)
        for n_sbs, n_ue in ((2, 7), (9, 40), (16, 80)):
            topo = place_nodes((1500.0, 1500.0), n_sbs, n_ue, rng)
            recv = topo.gain * np.array([b.tx_power for b in topo.bs])[None, :]
            for _ in range(10):
                sigma = np.concatenate(([True], rng.random(n_sbs) < 0.5))
                on = sigma[1:].astype(float)
                own = recv[:, 1:] * on[None, :]
                want = np.empty_like(recv)
                want[:, 0] = recv[:, 0] / topo.noise_power
                want[:, 1:] = own / ((recv[:, 1:] @ on)[:, None] - own + topo.noise_power)
                assert sinr_matrix(sigma, topo).tobytes() == want.tobytes()

    def test_interference_monotonicity(self):
        topo = make_topology(
            [MBS_SPEC, sbs_spec(100.0, 100.0), sbs_spec(200.0, 200.0)],
            [[120.0, 120.0]],
        )
        alone = sinr_matrix(np.array([True, True, False]), topo)[0, 1]
        both = sinr_matrix(np.array([True, True, True]), topo)[0, 1]
        assert both < alone


class TestAssociation:
    def test_all_small_cells_off(self):
        topo = place_nodes((500.0, 500.0), 4, 12, np.random.default_rng(5))
        sigma = np.array([True, False, False, False, False])
        state = associate(sigma, topo)
        assert np.all(state.serving == 0)

    def test_prefers_stronger_small_cell(self):
        topo = make_topology(
            [MBS_SPEC, sbs_spec(100.0, 100.0)],
            [[100.0, 100.0]],
            gains=[[1e-12, 1e-10]],  # SNR ~50, SINR ~501
        )
        state = associate(np.array([True, True]), topo)
        assert state.serving[0] == 1

    def test_tie_breaks_to_lowest_index(self):
        topo = make_topology(
            [MBS_SPEC, sbs_spec(100.0, 100.0), sbs_spec(400.0, 400.0)],
            [[250.0, 250.0]],
            gains=[[1e-14, 1e-9, 1e-9]],
        )
        state = associate(np.array([True, True, True]), topo)
        assert state.serving[0] == 1

    def test_partition_property(self):
        topo = place_nodes((500.0, 500.0), 6, 30, np.random.default_rng(11))
        rng = np.random.default_rng(0)
        for _ in range(20):
            sigma = np.concatenate(([True], rng.uniform(size=6) < 0.5))
            state = associate(sigma, topo)
            seen = np.zeros(topo.n_ue, dtype=int)
            for j in range(topo.n_bs):
                members = state.members(j)
                if members.size:
                    assert sigma[j]
                seen[members] += 1
            assert np.all(seen == 1)

    def test_turned_off_cell_loses_all_members(self):
        topo = place_nodes((500.0, 500.0), 6, 30, np.random.default_rng(13))
        sigma = np.ones(7, dtype=bool)
        for j in range(1, 7):
            s = sigma.copy()
            s[j] = False
            state = associate(s, topo)
            assert state.n_members(j) == 0
            # everyone is still served by an ON BS
            assert all(s[b] for b in state.serving)

    def test_macro_load_monotone_without_interference(self):
        # with a single SBS there is no interference coupling, so switching it
        # OFF can only push UEs toward the MBS
        topo = place_nodes((500.0, 500.0), 1, 30, np.random.default_rng(13))
        before = associate(np.array([True, True]), topo).n_members(0)
        after = associate(np.array([True, False]), topo).n_members(0)
        assert after >= before

    def test_macro_must_stay_on(self):
        topo = place_nodes((500.0, 500.0), 1, 2, np.random.default_rng(0))
        with pytest.raises(ValueError):
            associate(np.array([False, True]), topo)

    def test_state_does_not_alias_the_callers_array(self):
        topo = place_nodes((500.0, 500.0), 2, 10, np.random.default_rng(0))
        s = np.ones(3, dtype=bool)
        state = associate(s, topo)
        s[1] = False
        assert state.sigma[1]
        with pytest.raises(ValueError):
            state.sigma[1] = False

    def test_off_cells_lose_to_the_macro_without_a_mask(self):
        # every SBS column of an OFF cell is exactly 0.0; the UE whose
        # received powers underflow to 0.0 ties at 0.0 and goes to the MBS
        topo = make_topology(
            [("MBS", 250.0, 250.0, 0.4, 20.0, 10e6, 50), sbs_spec(100.0, 100.0),
             sbs_spec(400.0, 400.0)],
            [[100.0, 100.0], [400.0, 400.0], [250.0, 250.0]],
            gains=[[1e-14, 1e-9, 1e-12], [1e-14, 1e-12, 1e-9], [5e-324, 5e-324, 5e-324]],
        )
        assert not topo.received_power[2].any()
        for sigma in [np.array(s, dtype=bool) for s in
                      ([1, 0, 0], [1, 1, 0], [1, 0, 1], [1, 1, 1])]:
            metric = sinr_matrix(sigma, topo)
            assert np.all(metric[:, ~sigma] == 0.0)
            masked = np.where(sigma, metric, -np.inf)
            state = associate(sigma, topo)
            assert state.serving.tolist() == masked.argmax(axis=1).tolist()
            assert all(sigma[state.serving])
            assert state.serving[2] == 0 and state.sinr[2] == 0.0
            assert state.counts.tolist() == np.bincount(state.serving, minlength=3).tolist()
            assert not state.counts.flags.writeable

    def test_state_holds_each_ues_link_quality_to_its_server(self):
        topo = place_nodes((500.0, 500.0), 4, 30, np.random.default_rng(3))
        sigma = np.array([True, True, False, True, True])
        state = associate(sigma, topo)
        metric = sinr_matrix(sigma, topo)
        assert state.sinr.tobytes() == metric[np.arange(30), state.serving].tobytes()
        with pytest.raises(ValueError):
            state.sinr[0] = 0.0


class TestRateDelay:
    def _two_ue_topology(self):
        # both UEs forced onto SBS 1 with identical geometry
        return make_topology(
            [MBS_SPEC, sbs_spec(100.0, 100.0)],
            [[100.0, 100.0], [100.0, 100.0]],
            gains=[[1e-13, 1e-10], [1e-13, 1e-10]],
        )

    def test_equal_split_rate(self):
        topo = self._two_ue_topology()
        state = associate(np.array([True, True]), topo)
        assert state.n_members(1) == 2
        gamma = sinr_matrix(state.sigma, topo)[0, 1]
        expected = 10e6 / 2 * math.log2(1 + gamma)
        assert ue_rates(state, topo)[0] == pytest.approx(expected, rel=1e-12)

    def test_rate_halves_when_members_double(self):
        topo_two = self._two_ue_topology()
        state_two = associate(np.array([True, True]), topo_two)
        topo_one = make_topology(
            [MBS_SPEC, sbs_spec(100.0, 100.0)],
            [[100.0, 100.0]],
            gains=[[1e-13, 1e-10]],
        )
        state_one = associate(np.array([True, True]), topo_one)
        assert ue_rates(state_two, topo_two)[0] == pytest.approx(
            ue_rates(state_one, topo_one)[0] / 2, rel=1e-12
        )

    def test_delay_example(self):
        # two UEs each at 1e7 bits/s, K = 1e5 bits -> 0.02 s total
        topo = self._two_ue_topology()
        state = associate(np.array([True, True]), topo)
        r = ue_rates(state, topo)[0]
        expected = 2 * 1e5 / r
        assert all_bs_delays(state, topo, 1e5)[1] == pytest.approx(expected, rel=1e-12)

    def test_empty_cell_has_zero_delay(self):
        topo = self._two_ue_topology()
        sigma = np.array([True, True])
        state = NetworkState(sigma=sigma, serving=np.array([0, 0]),
                             sinr=sinr_matrix(sigma, topo)[:, 0])
        assert all_bs_delays(state, topo, 1e5)[1] == 0.0

    def test_rates_reuse_the_states_sinr(self, monkeypatch):
        topo = self._two_ue_topology()
        state = associate(np.array([True, True]), topo)
        expected = ue_rates(state, topo)

        def fail(*args):
            raise AssertionError("ue_rates recomputed the SINR matrix")

        monkeypatch.setattr(network, "sinr_matrix", fail)
        assert ue_rates(state, topo).tobytes() == expected.tobytes()
        assert all_bs_delays(state, topo, 1e5)[1] > 0.0

    def test_single_ue_unit_ratio(self):
        topo = make_topology(
            [MBS_SPEC, sbs_spec(100.0, 100.0)],
            [[100.0, 100.0]],
            gains=[[1e-13, 1e-10]],
        )
        state = associate(np.array([True, True]), topo)
        r = ue_rates(state, topo)[0]
        assert all_bs_delays(state, topo, r)[1] == pytest.approx(1.0, rel=1e-12)


    @pytest.mark.parametrize("gains, mbs_tx", [
        # the received power underflows to 0.0
        ([[1e-13, 1e-10], [5e-324, 5e-324]], 0.4),
        # an SNR too small to move log2(1 + SNR) off 0.0
        ([[1e-13, 1e-10], [1e-30, 1e-31]], dbm_to_watts(33.0)),
    ])
    def test_zero_rate_ue_is_unserviceable(self, gains, mbs_tx):
        topo = make_topology(
            [("MBS", 250.0, 250.0, mbs_tx, 20.0, 10e6, 50), sbs_spec(100.0, 100.0)],
            [[100.0, 100.0], [400.0, 400.0]], gains=gains,
        )
        table = OnSetTable(topo, CostWeights(), 0.9, 1e5, 10.0)
        for sigma in (np.array([True, True]), np.array([True, False])):
            state = associate(sigma, topo)
            assert ue_rates(state, topo)[1] == 0.0
            with pytest.raises(UnserviceableError, match="zero achievable rate"):
                all_bs_delays(state, topo, 1e5)
            with pytest.raises(UnserviceableError, match="zero achievable rate"):
                table[sigma]
        with pytest.raises(UnserviceableError):
            table.tags

    def test_delays_add_each_cells_ues_in_ue_order(self):
        topo = place_nodes((500.0, 500.0), 3, 60, np.random.default_rng(8))
        for sigma in (np.ones(4, dtype=bool), np.array([True, False, True, True])):
            state = associate(sigma, topo)
            want = np.zeros(topo.n_bs)
            np.add.at(want, state.serving, 1e5 / ue_rates(state, topo))
            assert all_bs_delays(state, topo, 1e5).tobytes() == want.tobytes()


class TestSerialization:
    def test_round_trip_reproduces_gains(self):
        topo = place_nodes((500.0, 500.0), 5, 12, np.random.default_rng(21))
        text = topology_to_json(topo)
        clone = topology_from_json(text)
        assert np.allclose(clone.gain, topo.gain, rtol=1e-12)
        assert np.allclose(clone.ue, topo.ue)
        assert clone.noise_power == pytest.approx(topo.noise_power, rel=1e-12)
        for a, b in zip(topo.bs, clone.bs):
            assert a.kind == b.kind and a.max_users == b.max_users
            assert a.tx_power == pytest.approx(b.tx_power, rel=1e-12)

    def test_association_survives_round_trip(self):
        topo = place_nodes((500.0, 500.0), 5, 12, np.random.default_rng(22))
        clone = topology_from_json(topology_to_json(topo))
        sigma = np.ones(6, dtype=bool)
        assert np.array_equal(
            associate(sigma, topo).serving, associate(sigma, clone).serving
        )
