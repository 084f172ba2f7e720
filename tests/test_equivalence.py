"""Equivalences over generated configs, not only over the presets: on every
sweep config that `configs.config_texts` draws, a fast path of the engine
gives the rows of the slow one.

An untraced run steps each served cell from one event to the next, and reads
a period with no served cell from its arrival totals alone; a traced run
steps one slot at a time and takes neither path.

A sweep draws its records as row views of chunks, from seed passes across
sweep values, and replays a chunk whose draw fails one record at a time; each
record drawn alone (`Replication.draw`) and run by `run_horizon` must give
the sweep's rows, or the sweep's first error. A ratio study reads the same
chunks of its attempts and replays them the same way: with chunks of one
attempt it must write the same ratios, or raise the same first error.
"""
import csv
import io
import math
import tempfile
import warnings
from bisect import bisect_left
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings

from sbsched import cli, engine
from sbsched.cli import ConfigError, _sweep_axis, parse_config
from sbsched.engine import MAX_SLOT_CELLS, Replication, run_horizon
from sbsched.oracle import _slot_step, _walk_row, build_tables, optimum_and_row
from sbsched.schedulers import make_policy

from configs import config_texts


def rows(record, policy, traced):
    """The rows of one run of `policy` on `record`, as text that tells every
    float bit apart, or the type and message of the error it raises."""
    try:
        results = run_horizon(record, make_policy(policy), trace_rows=[] if traced else None)
    except Exception as exc:
        return type(exc), str(exc)
    return [repr(res.to_dict()) for res in results]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(text=config_texts(sweeps=True))
def test_untraced_rows_equal_traced_rows(text):
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path = Path(tmp) / "fuzz.cfg"
        cfg_path.write_text(text)
        try:
            spec = parse_config(str(cfg_path))
        except ConfigError:
            return
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("ignore")
        for sweep_idx, (_, _, cfg) in enumerate(_sweep_axis(spec)):
            for rep in range(spec.n_replications):
                try:
                    record = Replication.draw(cfg, [spec.master_seed, sweep_idx, rep])
                except Exception:
                    continue  # a draw that fails fails the same for every run
                # every policy on the one record, as a sweep runs them, each
                # untraced and then traced
                for policy in spec.policies:
                    assert rows(record, policy, False) == rows(record, policy, True), \
                        (text, sweep_idx, rep, policy)


def parse(text):
    """The spec of a config's text, or None if it is rejected."""
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path = Path(tmp) / "fuzz.cfg"
        cfg_path.write_text(text)
        try:
            return parse_config(str(cfg_path))
        except ConfigError:
            return None


def sweep_results(spec):
    """The sweep's results.csv, or the type and message of its error."""
    with tempfile.TemporaryDirectory() as tmp:
        try:
            cli.run_experiment(spec, tmp)
        except Exception as exc:
            return type(exc), str(exc)
        with open(Path(tmp) / "results.csv", newline="") as fh:
            return fh.read()


def records_alone(spec, served):
    """results.csv as each record drawn alone and run by `run_horizon`
    writes it, or the type and message of the first error in (value,
    replication, policy) order; `served` counts idle and served records."""
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(cli.RESULTS_COLUMNS)
    try:
        for sweep_idx, (param, value, cfg) in enumerate(_sweep_axis(spec)):
            per_policy = {p: [] for p in spec.policies}
            for rep in range(spec.n_replications):
                record = Replication.draw(cfg, [spec.master_seed, sweep_idx, rep])
                served[bool(record.plan.cells)] += 1
                for policy in spec.policies:
                    periods = [res.to_dict()
                               for res in run_horizon(record, make_policy(policy))]
                    per_policy[policy] += [[param, value, policy, rep]
                                           + [d[c] for c in cli.RESULTS_COLUMNS[4:]]
                                           for d in periods]
                    cli.replication_total(periods, rep)  # raises where the sweep would
            for policy in spec.policies:
                writer.writerows(per_policy[policy])
    except Exception as exc:
        return type(exc), str(exc)
    return out.getvalue()


# two values of two records, in one seed pass across the values; 5 UEs on
# 2000 m leave some records idle and serve others
MIXED = """period = 1
dt = 0.25
n_sbs = 3
n_ue = 5
area.width = 2000
area.height = 2000
seed = 3
replications = 2
policies = roa, doa
sweep.parameter = price_mode
sweep.values = live, frozen
"""


@settings(max_examples=100, deadline=None, derandomize=True)
@example(text=MIXED)
@example(text=MIXED.replace("n_ue = 5", "n_ue = 5\nnetwork.sbs_tx_schedule = 0:30 dBm, 0.5:0 dBm"))
@given(text=config_texts(sweeps=True))
def test_sweep_rows_equal_records_drawn_alone(text):
    spec = parse(text)
    if spec is None:
        return
    served = [0, 0]
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("ignore")
        assert sweep_results(spec) == records_alone(spec, served), text
    if text.startswith(MIXED[:30]):  # the examples reach what they are for
        assert served[0] and served[1] and len(spec.sweep_values) == 2


def study_ratios(spec):
    """The study's ratios.csv, or the type and message of its error."""
    with tempfile.TemporaryDirectory() as tmp:
        try:
            cli.run_experiment(spec, tmp)
        except Exception as exc:
            return type(exc), str(exc)
        return (Path(tmp) / "ratios.csv").read_text()


# oracle-depletion's scenario: 20 runs in one chunk of 20 attempts or more
DEPLETION_STUDY = """kind = cr_study
runs = 20
period = 10
dt = 0.2
n_sbs = 2
n_ue = 40
area.width = 1000
area.height = 1000
energy.initial = 30
seed = 3
"""


@settings(max_examples=200, deadline=None, derandomize=True)
@example(text=DEPLETION_STUDY)
# over the budget at 101 slots: in one chunk, accepted attempts, then one
# with four served cells, then later ones with three, whose error message
# differs, so only the first failure in attempt order gives the message
@example(text=DEPLETION_STUDY.replace("runs = 20", "runs = 30").replace("dt = 0.2", "dt = 0.1")
         .replace("n_sbs = 2\nn_ue = 40", "n_sbs = 4\nn_ue = 60").replace("1000", "700")
         .replace("seed = 3", "seed = 4"))
@given(text=config_texts(studies=True))
def test_study_ratios_equal_attempts_run_one_at_a_time(text):
    if f"period = {MAX_SLOT_CELLS}\n" in text:
        return  # at the slot-cell cap: parsed, and never run
    spec = parse(text)
    if spec is None:
        return
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("ignore")
        chunked = study_ratios(spec)
        with pytest.MonkeyPatch.context() as m:
            m.setattr(engine, "CHUNK", 1)
            alone = study_ratios(spec)
    assert chunked == alone, text


# three served cells on 1 J batteries: cells run dry, so the runs reach
# several ON sets each, made by the tables' pass (20 UEs) or, where a cell's
# load passes its capacity in some set, each priced alone (60 UEs)
THREE_CELLS = """period = 2
dt = 0.1
n_sbs = 3
n_ue = 20
area.width = 2000
area.height = 2000
seed = 0
replications = 2
network.sbs_tx_power = 33 dBm
network.mbs_tx_power = 20 dBm
energy.initial = 1
"""


@settings(max_examples=150, deadline=None, derandomize=True)
@example(text=THREE_CELLS)
@example(text=THREE_CELLS.replace("n_ue = 20", "n_ue = 60").replace("2000", "1000"))
@given(text=config_texts(sweeps=True))
def test_engine_runs_cost_the_oracles_walk_of_their_off_slots(text):
    # each drawn scenario cut to one period, live prices and one epoch; on a
    # record with 1-3 served cells, each doa and fixed run costs what the
    # oracle's slot step gives its OFF slots (the two add rents in different
    # orders), and no run in the oracle's grid costs less than its optimum
    spec = parse(text)
    if spec is None:
        return
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("ignore")
        for sweep_idx, (_, _, cfg) in enumerate(spec.axis):
            cfg = replace(cfg, horizon_periods=1, price_mode="live", sbs_tx_schedule=())
            for rep in range(spec.n_replications):
                try:
                    record = Replication.draw(cfg, [spec.master_seed, sweep_idx, rep])
                except Exception:
                    continue
                if 1 <= len(record.plan.ids) <= 3:
                    check_against_oracle(cfg, record)


def check_against_oracle(cfg, record):
    ids, dt, n_steps = record.plan.ids, cfg.dt, cfg.n_steps
    e0, cap = float(cfg.initial_energy), float(cfg.capacity)
    try:
        (tables,) = build_tables(record.topo.take(np.newaxis), [record.plan.tags], cfg.weights,
                                 cfg.q, cfg.file_bits, dt)
    except Exception:
        return  # a set that cannot be priced: the engine raises where it reaches one
    harvest = record.harvest[0][:, record.plan.cells]
    step = _slot_step(tables, harvest, cap, dt, n_steps)
    buy_of = tables.rows(dt).buy_of
    best = None
    for name in ("doa", "fixed:0", "fixed:0.5", "fixed:1e9"):
        policy = make_policy(name)
        try:
            (res,) = run_horizon(record, policy)
        except Exception:
            continue
        row = [bisect_left(cfg.slot_grid[0], policy.off_times[j]) for j in ids]
        rent, bought = _walk_row(step, row, e0, n_steps)
        assert math.isclose(res.total_cost, rent + buy_of[bought], rel_tol=1e-12), (name, row)
        if all(1 <= i <= n_steps for i in row):
            if best is None:
                best, _ = optimum_and_row(tables, harvest, row, e0, cap, dt, n_steps)
            assert res.total_cost >= best * (1 - 1e-12), (name, row)
    # every set of the served cells, its entry made by the table's pass or
    # priced alone (after the runs, so that they make theirs as they would),
    # has the oracle's rent and draw for each cell
    table = record.tables[0]
    for s in range(1 << len(ids)):
        sigma = np.zeros(record.topo.n_bs, dtype=bool)
        sigma[0] = True
        sigma[[j for i, j in enumerate(ids) if s >> i & 1]] = True
        entry = table[sigma]
        on = [i for i in range(len(ids)) if s >> i & 1]
        assert [entry.rent_values[ids[i]] for i in on] == tables.rent[s, on].tolist()
        assert [entry.psi_values[j - 1] for j in ids] == tables.psi[s].tolist()
