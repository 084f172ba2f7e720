"""One `simulate` run in its own process, timed from the inside.

Usage: child.py --src DIR --record FILE [--trace] -- <simulate arguments>
       child.py --src DIR --import-only

Imports `sbsched` from DIR (never from an installed copy), marks the moment
the first replication begins, runs `sbsched.cli.main`, and writes FILE as
JSON: monotonic timestamps, replications completed and, with
--trace, the per-layer trace. CLOCK_MONOTONIC is system-wide on Linux, so
the parent subtracts its own spawn timestamp to get the set-up time.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time


def _replication_hook(func, marks: dict, counts_reps):
    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        marks.setdefault("t_first", time.monotonic())
        result = func(*args, **kwargs)
        marks["reps"] += counts_reps(result)
        return result

    return wrapper


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--src", required=True)
    ap.add_argument("--record")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--import-only", action="store_true")
    ap.add_argument("simulate_args", nargs=argparse.REMAINDER)
    args = ap.parse_args(argv)
    src = os.path.abspath(args.src)
    sys.path.insert(0, src)
    import sbsched.analysis
    import sbsched.cli as cli
    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        print(f"error: sbsched imported from {cli.__file__}, not {src}", file=sys.stderr)
        return 3
    if args.import_only:
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer  # bench/ is sys.path[0]
        tracer = Tracer()
        tracer.install()
    # A sweep replication is one run_horizon call; a study's replications are
    # its accepted runs. The hooks sit on top of the tracer's wrappers.
    marks = {"reps": 0}
    hooks = [
        (cli, "run_horizon", lambda result: 1),
        (sbsched.analysis, "empirical_cr_study", lambda report: len(report.ratios)),
    ]
    originals = [(mod, name, getattr(mod, name)) for mod, name, _ in hooks]
    for mod, name, counts in hooks:
        setattr(mod, name, _replication_hook(getattr(mod, name), marks, counts))
    try:
        sim_args = args.simulate_args
        if sim_args[:1] == ["--"]:
            sim_args = sim_args[1:]
        rc = cli.main(sim_args)
        t_done = time.monotonic()
    finally:
        for mod, name, original in originals:
            setattr(mod, name, original)
        if tracer is not None:
            tracer.restore()
    record = {
        "t_first": marks.get("t_first"),
        "t_done": t_done,
        "reps": marks["reps"],
        "trace": tracer.report() if tracer is not None else None,
    }
    with open(args.record, "w") as fh:
        json.dump(record, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
