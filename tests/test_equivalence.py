"""Equivalences over generated configs, not only over the presets: on every
sweep config that `configs.config_texts` draws, a fast path of the engine
gives the rows of the slow one.

An untraced run steps each served cell from one event to the next, reads a
period with no served cell from its arrival totals alone, and adds up the
arrivals of a cell that is OFF for good at the period end; a traced run steps
one slot at a time and takes none of these paths.
"""
import tempfile
import warnings
from pathlib import Path

import numpy as np
from hypothesis import given, settings

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
