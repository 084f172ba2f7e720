"""A sweep's records are row views of chunks: one seed hash per pass of
records across sweep values, and one placement, one all-ON pricing pass and
one harvest-and-bookkeeping pass per chunk. Each record of a chunk must equal
the record drawn the long way, alone, and a sweep must run, fail and free its
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
    topo_ss, harvest_ss, _ = np.random.SeedSequence(seed).spawn(3)
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
        records = list(Replication.draw_chunk(cfg, SeedStack(lead, range(5, 5 + size))))
        assert len(records) == size
        for rep, record in zip(range(5, 5 + size), records):
            assert record.seed == [*lead, rep]
            assert_same_record(record, reference_record(cfg, [*lead, rep]))

    def test_a_full_chunk_draws_each_record_as_alone(self):
        # 64 records of fig5's scenario at 4 cells: served and idle ones
        cfg = replace(cli.PRESETS["fig5"].base, n_sbs=4)
        assert engine.chunk_size(cfg) == engine.CHUNK == 64
        served = 0
        for rep, record in enumerate(Replication.draw_chunk(cfg, SeedStack([5, 1], range(64)))):
            assert_same_record(record, reference_record(cfg, [5, 1, rep]))
            served += bool(record.plan.cells)
        assert 0 < served < 64

    def test_a_drawn_record_is_a_chunk_of_one(self):
        cfg = CONFIGS["schedule-at-zero"]
        for seed in (3, [3], [3, 2**32 + 1, 4]):
            assert_same_record(Replication.draw(cfg, seed), reference_record(cfg, seed))

    def test_a_record_at_the_slot_cell_cap_is_a_chunk_of_one(self, tmp_path):
        # parsed and sized only: a chunk holds its records' arrivals at once,
        # so it holds no more slot-cells than one record at the cap
        for periods, n_sbs, size in ((1, 1, 1), (1, 2, 1), (4, 2, 2), (64, 4, 64),
                                     (128, 4, 32), (3, 1, 5)):
            cells = engine.MAX_SLOT_CELLS // size
            text = (f"replications = 70\nperiod = {cells // (periods * n_sbs)}\ndt = 1\n"
                    f"horizon_periods = {periods}\nn_sbs = {n_sbs}\nn_ue = 5\n")
            path = tmp_path / "cap.cfg"
            path.write_text(text)
            cfg = cli.parse_config(str(path)).base
            record_cells = cfg.n_steps * cfg.horizon_periods * cfg.n_sbs
            assert record_cells <= engine.MAX_SLOT_CELLS
            assert engine.chunk_size(cfg) == min(size, engine.CHUNK)
            assert engine.chunk_size(cfg) * record_cells <= engine.MAX_SLOT_CELLS

    def test_a_record_over_the_link_cap_is_a_chunk_of_one(self):
        cfg = WIDE
        assert cfg.n_ue * (cfg.n_sbs + 1) > network.STACK_LINKS
        assert engine.chunk_size(cfg) == 1
        (record,) = Replication.draw_chunk(cfg, SeedStack([1, 0], [0]))
        want = reference_record(cfg, [1, 0, 0])
        assert record.tables[0].tags == want.tables[0].tags
        assert rows(record, ("doa",)) == rows(want, ("doa",))


class TestPolicyStreams:
    # 16 cells with strong SBSs and a weak MBS: from 1 to 200 UEs, the
    # records of these chunks serve every count of cells from 0 to 16
    CFG = ScenarioConfig(n_sbs=16, area=(1000.0, 1000.0), horizon_periods=1,
                         sbs_max_users=100, mbs_max_users=1000, sbs_tx_power=10.0,
                         mbs_tx_power=0.01)

    def test_each_cells_generator_is_its_spawned_child(self):
        served = set()
        for n_ue in (1, 4, 10, 20, 40, 80, 200):
            cfg = replace(self.CFG, n_ue=n_ue)
            for record in Replication.draw_chunk(cfg, SeedStack([1, n_ue], range(8))):
                cells = record.plan.cells
                served.add(len(cells))
                # a chunk's row, and the same record built from its fields
                alone = Replication(cfg, record.topo, record.tables, record.harvest,
                                    record.seed)
                children = np.random.SeedSequence(record.seed).spawn(3)[2].spawn(cfg.n_sbs)
                for rngs in (record.policy_rngs(), alone.policy_rngs()):
                    assert [i for i, g in enumerate(rngs) if g is not None] == cells
                    for i in cells:
                        want = np.random.default_rng(children[i])
                        got = rngs[i]
                        assert got.bit_generator.state == want.bit_generator.state
                        for draw in (lambda g: [g.uniform()], lambda g: g.random(3).tolist(),
                                     lambda g: g.poisson(3.0, 2).tolist()):
                            assert draw(got) == draw(want)
        assert served == set(range(17))

    def test_a_run_seeds_fresh_generators(self):
        # a second roa run on a record draws what the first drew
        cfg = replace(self.CFG, n_ue=20)
        (record,) = Replication.draw_chunk(cfg, SeedStack([1, 20], [0]))
        assert record.plan.cells
        assert rows(record, ("roa", "roa")) == rows(record, ("roa",)) * 2


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


class Passes:
    """Count seed passes and chunks, and each chunk's bookkeeping passes."""

    def __init__(self, monkeypatch):
        self.passes, self.chunks, self.books = [], [], []
        real_stack, real_chunk = cli.SeedStack, Replication.draw_chunk.__func__
        real_book = engine._harvest_book

        def stack(lead, attempts):
            self.passes.append(list(attempts))
            return real_stack(lead, attempts)

        def draw_chunk(cls, cfg, seeds, rows=None):
            self.chunks.append((cfg, [seeds.attempts[k] for k in rows]))
            return real_chunk(cls, cfg, seeds, rows)

        def book(stored, arrivals, periods, cap):
            self.books.append(arrivals.shape[0])
            return real_book(stored, arrivals, periods, cap)

        monkeypatch.setattr(cli, "SeedStack", stack)
        monkeypatch.setattr(Replication, "draw_chunk", classmethod(draw_chunk))
        monkeypatch.setattr(engine, "_harvest_book", book)


class TestSweep:
    def test_a_sweep_value_of_65_records_spans_two_chunks(self, tmp_path, monkeypatch):
        # seeds are hashed in passes of 64 records across the two values:
        # live's 65th record is a chunk of its own, and frozen's records are
        # split where the passes split
        spec = cli.ExperimentSpec(
            name="two-chunks", base=ScenarioConfig(n_sbs=3, n_ue=15, horizon_periods=1),
            sweep_parameter="price_mode", sweep_values=("live", "frozen"),
            policies=("roa", "doa"), n_replications=65, master_seed=3)
        counts = Passes(monkeypatch)
        cli.run_experiment(spec, str(tmp_path))
        keys = [(v, rep) for v in (0, 1) for rep in range(65)]
        assert counts.passes == [keys[:64], keys[64:128], keys[128:]]
        assert [(cfg.price_mode, [rep for _, rep in rows]) for cfg, rows in counts.chunks] == [
            ("live", list(range(64))), ("live", [64]), ("frozen", list(range(63))),
            ("frozen", [63, 64])]
        # each chunk books its records' arrivals once
        assert counts.books == [64, 1, 63, 2]
        with open(tmp_path / "results.csv", newline="") as fh:
            assert fh.read() == results_text(spec)

    def test_fig5s_records_hash_their_seeds_in_one_pass(self, tmp_path, monkeypatch):
        # 4 values of 4 records: one pass, one chunk per value, each booked
        # once, on first use by its first record
        spec = replace(cli.PRESETS["fig5"], n_replications=4)
        counts = Passes(monkeypatch)
        cli.run_experiment(spec, str(tmp_path))
        assert counts.passes == [[(v, rep) for v in range(4) for rep in range(4)]]
        assert [rows for _, rows in counts.chunks] == [[(v, rep) for rep in range(4)]
                                                       for v in range(4)]
        assert counts.books == [4] * 4
        with open(tmp_path / "results.csv", newline="") as fh:
            assert fh.read() == results_text(spec)

    def test_chunks_of_uneven_size_across_values(self, tmp_path, monkeypatch):
        # the link cap gives 1,000 UEs on 9 BSs chunks of 7, and 20 UEs 64
        spec = cli.ExperimentSpec(
            name="uneven", base=ScenarioConfig(n_sbs=8, horizon_periods=1, sbs_max_users=200),
            sweep_parameter="n_ue", sweep_values=(20, 1000), policies=("roa", "doa"),
            n_replications=9, master_seed=2)
        assert [engine.chunk_size(cfg) for *_, cfg in cli._sweep_axis(spec)] == [64, 7]
        counts = Passes(monkeypatch)
        cli.run_experiment(spec, str(tmp_path))
        assert [len(rows) for _, rows in counts.chunks] == [9, 7, 2] == counts.books
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
        monkeypatch.setattr(engine, "CHUNK", 3)
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
            if name == "topo":  # the row's seed ends with its replication
                topo_reps.append(seeds.seed(i)[-1])
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
