"""A sweep value's records are drawn in chunks: one seed hash, one placement
and one all-ON pricing pass per chunk. Each record of a chunk must equal the
record drawn the long way, alone, and a sweep must run, fail and free its
records as one record at a time does."""
import csv
import gc
import io
import weakref
from dataclasses import replace

import numpy as np
import pytest

from sbsched import analysis, cli, engine, network
from sbsched.energy import harvest_trace
from sbsched.engine import CostOverflowError, Replication, ScenarioConfig, SeedStack, run_horizon
from sbsched.network import BsParams, Topology, dbm_to_watts
from sbsched.schedulers import make_policy

from helpers import compute_gains

POLICIES = ("roa", "doa", "adaptive", "threshold:50")
# slot 0 is not the base epoch when the schedule changes the power at t = 0
AT_ZERO = ((0.0, dbm_to_watts(26.0)), (4.0, dbm_to_watts(20.0)))

CONFIGS = {
    "live": ScenarioConfig(),
    "frozen": ScenarioConfig(price_mode="frozen"),
    "schedule-at-zero": ScenarioConfig(sbs_tx_schedule=AT_ZERO, horizon_periods=3),
    "schedule-frozen": ScenarioConfig(sbs_tx_schedule=((2.5, dbm_to_watts(29.0)),),
                                      price_mode="frozen"),
    "no-sbs": ScenarioConfig(n_sbs=0, horizon_periods=1),
}
# more UE-BS links than a stacked pass holds: a chunk of one record
WIDE = ScenarioConfig(n_sbs=16, n_ue=4000, area=(2000.0, 2000.0), horizon_periods=1,
                      sbs_max_users=4000, mbs_max_users=4000)


def reference_record(cfg, seed):
    """The record of `seed` drawn the long way: numpy's seed children, the
    positions from `uniform`, the gains from `compute_gains`, tables whose
    entries and tags are priced alone, and one harvest trace per period."""
    ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    topo_ss, harvest_ss, _ = ss.spawn(3)
    rng = np.random.default_rng(topo_ss)
    w, h = cfg.area
    sbs_xy = rng.uniform([0.0, 0.0], [w, h], size=(cfg.n_sbs, 2))
    ue = rng.uniform([0.0, 0.0], [w, h], size=(cfg.n_ue, 2))
    bs = (BsParams(0, "MBS", w / 2.0, h / 2.0, cfg.mbs_tx_power, cfg.mbs_op_power,
                   cfg.mbs_bandwidth, cfg.mbs_max_users),) + tuple(
        BsParams(j + 1, "SBS", x, y, cfg.sbs_tx_power, cfg.sbs_op_power, cfg.sbs_bandwidth,
                 cfg.sbs_max_users) for j, (x, y) in enumerate(sbs_xy.tolist()))
    topo = Topology.from_bs(bs, ue, compute_gains(bs, ue), cfg.noise_power, (w, h))
    rng = np.random.default_rng(harvest_ss)
    harvest = tuple(harvest_trace(cfg.harvest, cfg.dt, cfg.n_steps, cfg.n_sbs, rng)
                    for _ in range(cfg.horizon_periods))
    return Replication(cfg, topo, tuple(engine.epoch_tables(cfg, topo)), harvest, seed)


def rows(record, policies=POLICIES):
    return [[res.to_dict() for res in run_horizon(record, make_policy(p))] for p in policies]


def assert_same_record(got, want):
    """Gains, received power, harvest, the slot-0 all-ON entry, tags, plan
    and every policy's rows, bit for bit."""
    slot0 = got.cfg.slot_grid[1][0]
    assert got.topo.gain.tobytes() == want.topo.gain.tobytes()
    assert got.topo.ue.tobytes() == want.topo.ue.tobytes()
    assert got.topo.bs == want.topo.bs
    for g, w in zip(got.tables, want.tables, strict=True):
        assert g.topo.bs == w.topo.bs
        for name in ("sbs_received_power", "mbs_snr"):
            assert getattr(g.topo, name).tobytes() == getattr(w.topo, name).tobytes(), name
    assert len(got.harvest) == len(want.harvest) == got.cfg.horizon_periods
    for g, w in zip(got.harvest, want.harvest):
        assert g.shape == w.shape and g.tobytes() == w.tobytes()
        assert not g.flags.writeable
    all_on = np.ones(got.topo.n_bs, dtype=bool)
    g, w = got.tables[slot0][all_on], want.tables[slot0][all_on]
    for name in ("serving", "sinr", "counts"):
        assert getattr(g.state, name).tobytes() == getattr(w.state, name).tobytes(), name
    for name in ("delays", "power", "psi", "rent"):
        assert getattr(g, name).tobytes() == getattr(w, name).tobytes(), name
    assert (g.rent_values, g.psi_values, g.on_delay) == (w.rent_values, w.psi_values,
                                                         w.on_delay)
    assert got.tables[slot0].tags == want.tables[slot0].tags
    gp, wp = got.plan, want.plan
    assert (gp.ids, gp.cells, gp.tags) == (wp.ids, wp.cells, wp.tags)
    assert gp.buy.tobytes() == wp.buy.tobytes() and gp.used.tobytes() == wp.used.tobytes()
    assert rows(got) == rows(want)


class TestChunk:
    @pytest.mark.parametrize("name", CONFIGS)
    @pytest.mark.parametrize("size", [1, 3])
    def test_a_chunk_draws_each_record_as_alone(self, name, size):
        cfg = CONFIGS[name]
        lead = [7, 2]
        records = list(Replication.draw_chunk(cfg, lead, range(5, 5 + size)))
        assert len(records) == size
        for rep, record in zip(range(5, 5 + size), records):
            assert record.seed == [*lead, rep]
            assert_same_record(record, reference_record(cfg, [*lead, rep]))

    def test_a_full_chunk_draws_each_record_as_alone(self):
        # 64 records of fig5's scenario at 4 cells: served and idle ones
        cfg = replace(cli.PRESETS["fig5"].base, n_sbs=4)
        assert analysis.chunk_size(cfg) == analysis.CHUNK == 64
        served = 0
        for rep, record in enumerate(Replication.draw_chunk(cfg, [5, 1], range(64))):
            assert_same_record(record, reference_record(cfg, [5, 1, rep]))
            served += bool(record.plan.cells)
        assert 0 < served < 64

    def test_a_drawn_record_is_a_chunk_of_one(self):
        cfg = CONFIGS["schedule-at-zero"]
        for seed in (3, [3], np.random.SeedSequence(3), [3, 2**32 + 1, 4],
                     np.random.SeedSequence(3).spawn(2)[1]):
            assert_same_record(Replication.draw(cfg, seed), reference_record(cfg, seed))

    def test_a_record_over_the_link_cap_is_a_chunk_of_one(self):
        cfg = WIDE
        assert cfg.n_ue * (cfg.n_sbs + 1) > network.STACK_LINKS
        assert analysis.chunk_size(cfg) == 1
        (record,) = Replication.draw_chunk(cfg, [1, 0], [0])
        want = reference_record(cfg, [1, 0, 0])
        assert record.tables[0].tags == want.tables[0].tags
        assert rows(record, ("doa",)) == rows(want, ("doa",))


def results_text(spec):
    """results.csv as a loop over one reference record at a time writes it."""
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(cli.RESULTS_COLUMNS)
    for sweep_idx, (param, value, cfg) in enumerate(cli._sweep_axis(spec)):
        per_policy = {p: [] for p in spec.policies}
        for rep in range(spec.n_replications):
            record = reference_record(cfg, [spec.master_seed, sweep_idx, rep])
            for p, periods in zip(spec.policies, rows(record, spec.policies)):
                per_policy[p] += [[param, value, p, rep] + [d[c] for c in cli.RESULTS_COLUMNS[4:]]
                                  for d in periods]
        for p in spec.policies:
            writer.writerows(per_policy[p])
    return out.getvalue()


class TestSweep:
    def test_a_sweep_value_of_65_records_spans_two_chunks(self, tmp_path, monkeypatch):
        spec = cli.ExperimentSpec(
            name="two-chunks", base=ScenarioConfig(n_sbs=3, n_ue=15, horizon_periods=1),
            sweep_parameter="price_mode", sweep_values=("live", "frozen"),
            policies=("roa", "doa"), n_replications=65, master_seed=3)
        chunks = []
        real = Replication.draw_chunk.__func__

        def draw_chunk(cls, cfg, lead, reps):
            chunks.append((cfg.price_mode, list(reps)))
            return real(cls, cfg, lead, reps)

        monkeypatch.setattr(Replication, "draw_chunk", classmethod(draw_chunk))
        cli.run_experiment(spec, str(tmp_path))
        assert chunks == [(mode, reps) for mode in ("live", "frozen")
                          for reps in (list(range(64)), [64])]
        with open(tmp_path / "results.csv", newline="") as fh:
            assert fh.read() == results_text(spec)

    def test_a_sweep_over_the_link_cap_draws_one_record_per_chunk(self, tmp_path):
        spec = cli.ExperimentSpec(
            name="wide", base=WIDE,
            sweep_parameter=None, sweep_values=(), policies=("doa",), n_replications=2,
            master_seed=1)
        cli.run_experiment(spec, str(tmp_path))
        with open(tmp_path / "results.csv", newline="") as fh:
            assert fh.read() == results_text(spec)

    def test_each_record_is_freed_before_the_next_runs(self, tmp_path, monkeypatch):
        # no reference cycle keeps a record: with the collector off, each
        # record and its tables are gone when the next record first runs
        monkeypatch.setattr(analysis, "CHUNK", 3)
        seen = []
        real = cli.run_horizon

        def run(record, policy, trace_rows=None):
            if not seen or seen[-1][0]() is not record:
                for rec, tables in seen:
                    assert rec() is None and all(t() is None for t in tables)
                seen.append((weakref.ref(record), [weakref.ref(t) for t in record.tables]))
            return real(record, policy, trace_rows)

        monkeypatch.setattr(cli, "run_horizon", run)
        spec = cli.ExperimentSpec(
            name="freed", base=ScenarioConfig(sbs_tx_schedule=((2.5, dbm_to_watts(29.0)),)),
            sweep_parameter="n_sbs", sweep_values=(2, 6), policies=("roa", "threshold:50"),
            n_replications=7, master_seed=4)
        gc.disable()
        try:
            cli.run_experiment(spec, str(tmp_path), trace=True)
        finally:
            gc.enable()
        assert len(seen) == 14


class Failures:
    """Inject failures by (price mode, replication): a zero rate in a record's
    draw, and a cost overflow in a record's run. Records every run made."""

    def __init__(self, monkeypatch, zero_rates=(), fail_runs=()):
        self.ran = []
        topo_reps = []
        real_rng, real_place, real_run = SeedStack.rng, engine.build_topologies, cli.run_horizon

        def rng(seeds, i, name):
            if name == "topo":
                topo_reps.append(seeds.attempts[i])
            return real_rng(seeds, i, name)

        def place(cfg, rngs):
            stack = real_place(cfg, rngs)
            size = stack.mbs_snr.shape[0]
            dead = [i for i, rep in enumerate(topo_reps[-size:])
                    if (cfg.price_mode, rep) in zero_rates]
            if dead:  # every UE of these records receives nothing
                recv, snr = stack.sbs_received_power.copy(), stack.mbs_snr.copy()
                recv[dead], snr[dead] = 0.0, 0.0
                stack = replace(stack, sbs_received_power=recv, mbs_snr=snr)
            return stack

        def run(record, policy, trace_rows=None):
            key = (record.cfg.price_mode, record.seed[-1])
            self.ran.append(key)
            if key in fail_runs:
                raise CostOverflowError(f"replication {key[1]}: injected")
            return real_run(record, policy, trace_rows)

        monkeypatch.setattr(SeedStack, "rng", rng)
        monkeypatch.setattr(engine, "build_topologies", place)
        monkeypatch.setattr(cli, "run_horizon", run)


FAILING = """name = failing
seed = 8
replications = 70
policies = roa, doa
n_sbs = 3
n_ue = 15
horizon_periods = 1
sweep.parameter = price_mode
sweep.values = live, frozen
"""


def runs_before(key, policies=2):
    """The runs of every record before `key`, in (value, replication) order."""
    order = [(mode, rep) for mode in ("live", "frozen") for rep in range(70)]
    return [k for k in order[:order.index(key)] for _ in range(policies)]


class TestFailures:
    def run_main(self, tmp_path, capsys):
        cfg = tmp_path / "failing.cfg"
        cfg.write_text(FAILING)
        out = tmp_path / "new" / "out"
        assert cli.main(["--config", str(cfg), "--out-dir", str(out)]) == 3
        assert not (tmp_path / "new").exists()  # partial outputs and directories removed
        return capsys.readouterr().err

    @pytest.mark.parametrize("first", [("live", 2), ("frozen", 66), ("frozen", 64)])
    def test_a_later_records_draw_fails_first_in_order(self, tmp_path, capsys, monkeypatch,
                                                       first):
        # a second failing record later in the same chunk, and one in a later chunk
        mode, rep = first
        later = [(mode, rep + 2), ("frozen", 69)]
        failures = Failures(monkeypatch, zero_rates=[first] + later)
        assert self.run_main(tmp_path, capsys) == "error: a UE has zero achievable rate\n"
        assert failures.ran == runs_before(first)

    @pytest.mark.parametrize("first", [("live", 1), ("frozen", 65)])
    def test_an_earlier_records_run_fails_before_a_later_draw(self, tmp_path, capsys,
                                                              monkeypatch, first):
        mode, rep = first
        failures = Failures(monkeypatch, zero_rates=[(mode, rep + 2)], fail_runs=[first])
        assert self.run_main(tmp_path, capsys) == f"error: replication {rep}: injected\n"
        assert failures.ran == runs_before(first) + [first]
