"""Equivalences over generated configs, not only over the presets: on every
sweep config that `configs.config_texts` draws, a fast path of the engine
gives the rows of the slow one.

An untraced run steps each served cell from one event to the next, reads a
period with no served cell from its arrival totals alone, and adds up the
arrivals of a cell that is OFF for good at the period end; a traced run steps
one slot at a time and takes none of these paths.

A sweep draws its records as row views of chunks, from seed passes across
sweep values, and replays a chunk whose draw fails one record at a time; each
record drawn alone (`Replication.draw`) and run by `run_horizon` must give
the sweep's rows, or the sweep's first error.
"""
import csv
import io
import tempfile
import warnings
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings

from sbsched import cli
from sbsched.cli import ConfigError, _sweep_axis, parse_config
from sbsched.engine import Replication, run_horizon
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
