"""End-to-end and per-layer benchmark of the sbsched `simulate` command.

Usage (from the repository root):

    python3 bench/run.py --workload sweep-fig5 --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --trace 1      # every workload, human table

A run repeats rounds for --seconds (at least MIN_ROUNDS). Round r runs
INPUTS_PER_ROUND new inputs, with simulate seeds
1000*seed + INPUTS_PER_ROUND*r + i, each as a fresh single-threaded process
(bench/child.py), one process at a time. End-to-end metrics are per-round
means, reported as the median over rounds.

The machine is shared, and its speed drifts by up to half within minutes. So
before every `simulate` run a fixed calibration program (bench/calibrate.py)
is timed the same way, and the end-to-end times are scaled by
CAL_REF_S / (median calibration time of the run): they read as seconds on a
machine that runs the calibration in CAL_REF_S.

With --trace 1 one more run of the first input is traced (bench/tracer.py)
and the per-layer metrics are printed in the JSON line instead; the
difference to the untraced run of that input is the tracing overhead.

Every artifact is checked against model properties (bench/checks.py), and
the traced run's artifacts byte for byte against the untraced ones.
The oracle workload also runs the scalar reference (bench/oracle_ref.py)
outside the timed region. The last line of standard output is one JSON
object: correct, attempted, failed, metrics. The exit code is 0 only when
every check passed.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, replace

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(BENCH_DIR, "child.py")
CALIBRATE = os.path.join(BENCH_DIR, "calibrate.py")
RUNS_DIR = os.path.join(ROOT, ".bench_build", "runs")

DEFAULT_SECONDS = 30
INPUTS_PER_ROUND = 4
MIN_ROUNDS = 3
ROUND_CUTOFF_S = 110  # start no round after this, so one workload ends within 180 s
INVOCATION_TIMEOUT_S = 60
CAL_REF_S = 0.3  # a typical calibration time on the 2-core reference machine
TRACE_SLACK_S = 1e-3  # wrapper bookkeeping outside its own clock
SINGLE_THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                     "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

# (name, unit, better, bound): bound is the share of the parent's median by
# which a metric may get worse before a change counts as a regression.
END_TO_END = (
    ("wall_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("reps_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mib", "MiB", "lower", 0.1),
)

_CALLS_SELF = ("network.sinr_matrix", "network.associate", "network.all_bs_delays",
               "network.ue_rates", "energy.bs_power", "energy.update_storage",
               "pricing.all_rent_prices", "pricing.freeze_prices",
               "schedulers.desired_on", "engine.run_period", "oracle.build_tables")
_SELF_ONLY = ("network.place_nodes", "energy.harvest_trace", "schedulers.reset",
              "analysis.empirical_cr_study", "cli.run_experiment")
LAYER_NAMES = ("network", "energy", "pricing", "schedulers", "engine", "oracle",
               "analysis", "cli")
STEPWISE, CLOSED_FORM = "oracle._evaluate_stepwise", "oracle._evaluate_no_depletion"

PER_LAYER = tuple(
    [m for f in _CALLS_SELF
     for m in ((f"{f}.calls", "count", "lower"), (f"{f}.self_s", "s", "lower"))]
    + [(f"{f}.self_s", "s", "lower") for f in _SELF_ONLY]
    + [
        ("network.on_sets.distinct", "count", "lower"),
        ("network.on_sets.repeat_share", "fraction", "higher"),
        ("engine.slots", "count", "lower"),
        ("engine.slot_us", "us", "lower"),
        ("engine.run_horizon.calls", "count", "lower"),
        ("engine.run_horizon.ms_p50", "ms", "lower"),
        ("engine.run_horizon.ms_p95", "ms", "lower"),
        ("engine.depletions", "count", "lower"),
        ("engine.switches", "count", "lower"),
        ("oracle.evaluate_schedules.calls", "count", "lower"),
        ("oracle.evaluate_schedules.incl_s", "s", "lower"),
        ("oracle.stepwise.calls", "count", "lower"),
        ("oracle.stepwise.self_s", "s", "lower"),
        ("oracle.closed_form.calls", "count", "lower"),
        ("oracle.closed_form.self_s", "s", "lower"),
        ("oracle.stepwise.share", "fraction", "lower"),
        ("oracle.combination_slots", "count", "lower"),
        ("oracle.ns_per_combination_slot", "ns", "lower"),
        ("analysis.attempts", "count", "lower"),
        ("analysis.accepted_share", "fraction", "higher"),
        ("cli.output_bytes", "bytes", "lower"),
    ]
    + [(f"{layer}.self_s", "s", "lower") for layer in LAYER_NAMES]
    + [
        ("trace.wall_s", "s", "lower"),
        ("trace.setup_s", "s", "lower"),
        ("trace.self_sum_s", "s", "lower"),
        ("trace.unwrapped_s", "s", "lower"),
        ("trace.overhead_share", "fraction", "lower"),
    ]
)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    preset: str | None = None  # run a preset with --runs RUNS ...
    runs: int = 0
    config: str | None = None  # ... or this config text, formatted with the seed

    def argv(self, seed: int, run_dir: str) -> list[str]:
        """simulate arguments for one input; writes its config file if any."""
        if self.preset is not None:
            return ["--preset", self.preset, "--runs", str(self.runs),
                    "--seed", str(seed)]
        path = os.path.join(run_dir, f"input-{seed}.cfg")
        with open(path, "w") as fh:
            fh.write(self.config.format(seed=seed))
        return ["--config", path]

    def spec(self, cli, argv: list[str]):
        """The ExperimentSpec these arguments resolve to."""
        if self.preset is not None:
            seed = int(argv[argv.index("--seed") + 1])
            spec = cli.PRESETS[self.preset]
            return replace(spec, master_seed=seed, n_replications=self.runs,
                           base=replace(spec.base, seed=seed))
        return cli.parse_config(argv[1])


WORKLOADS = {w.name: w for w in (
    Workload(
        "sweep-fig5",
        "default 500 m scenario, 2-8 cells, roa/doa/fixed:7, live prices: few served "
        "cells, repeated ON sets, per-slot network rebuild dominates, oracle idle",
        preset="fig5", runs=4,
    ),
    Workload(
        "churn-wide",
        "16 cells on 2000 m with 20 J batteries: many served cells, forced OFFs and "
        "threshold re-switching churn the ON set; half the sweep uses frozen prices",
        config="""\
name = churn-wide
seed = {seed}
replications = 4
policies = roa, doa, threshold:30
n_sbs = 16
n_ue = 80
area.width = 2000
area.height = 2000
energy.initial = 20
cost.alpha_b = 0.3
sweep.parameter = price_mode
sweep.values = live, frozen
""",
    ),
    Workload(
        "oracle-depletion",
        "competitive-ratio study whose served replications take the oracle's "
        "stepwise depletion path over every OFF-slot schedule; engine idle",
        config="""\
name = oracle-depletion
kind = cr_study
seed = {seed}
runs = 150
n_sbs = 2
n_ue = 40
area.width = 1000
area.height = 1000
dt = 0.2
energy.initial = 30
""",
    ),
)}


def expected_reps(spec) -> int:
    if spec.kind == "cr_study":
        return spec.n_replications
    return max(len(spec.sweep_values), 1) * len(spec.policies) * spec.n_replications


def scenario(spec) -> dict:
    """What checks.check_sweep needs to know about a sweep."""
    b = spec.base
    return {
        "period": b.period, "initial_energy": b.initial_energy,
        "harvest_rate": b.harvest_rate, "harvest_quantum": b.harvest_quantum,
        "n_sbs": b.n_sbs, "horizon_periods": b.horizon_periods,
        "sweep_parameter": spec.sweep_parameter,
        "sweep_values": ([str(v) for v in spec.sweep_values]
                         if spec.sweep_parameter else [""]),
        "policies": list(spec.policies), "replications": spec.n_replications,
    }


def check_artifacts(spec, out_dir: str) -> list[str]:
    import checks
    if spec.kind == "cr_study":
        return checks.check_study(out_dir, spec.n_replications)
    return checks.check_sweep(out_dir, scenario(spec))


def child_env() -> dict:
    env = dict(os.environ)
    env.update({v: "1" for v in SINGLE_THREAD_ENV})
    env.pop("PYTHONPATH", None)
    return env


def spawn(cmd: list[str]) -> tuple[int, float, os.struct_rusage, float]:
    """Run a command to its end: exit code, wall seconds from spawn to exit,
    the process's resource usage, and the monotonic spawn time."""
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=sys.stderr)
    # a blocking wait4 times the exit exactly (Popen.wait with a timeout polls
    # in steps of up to 50 ms) and gives the child's own peak RSS
    watchdog = threading.Timer(INVOCATION_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        watchdog.cancel()
    wall = time.monotonic() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage, t0


def calibrate() -> float | None:
    rc, wall, _, _ = spawn([sys.executable, CALIBRATE])
    return wall if rc == 0 else None


def invoke(argv: list[str], out_dir: str, traced: bool = False, src: str = SRC) -> dict:
    """Run one `simulate` in a fresh process; timings measured around it."""
    record = out_dir + ".json"
    cmd = [sys.executable, CHILD, "--src", src, "--record", record]
    if traced:
        cmd.append("--trace")
    rc, wall, usage, t0 = spawn(cmd + ["--", *argv, "--out-dir", out_dir])
    if rc != 0 or not os.path.exists(record):
        return {"error": f"exit code {rc}: {argv}"}
    with open(record) as fh:
        rec = json.load(fh)
    if rec["t_first"] is None:
        return {"error": f"no replication ran: {argv}"}
    return {
        "wall_s": wall,
        "setup_s": rec["t_first"] - t0,
        "busy_s": rec["t_done"] - rec["t_first"],
        "reps": rec["reps"],
        "rss_mib": usage.ru_maxrss / 1024.0,
        "trace": rec["trace"],
    }


def round_metrics(results: list[dict]) -> dict:
    n = len(results)
    return {
        "wall_s": sum(r["wall_s"] for r in results) / n,
        "setup_s": sum(r["setup_s"] for r in results) / n,
        "reps_per_s": sum(r["reps"] for r in results) / sum(r["busy_s"] for r in results),
        "peak_rss_mib": sum(r["rss_mib"] for r in results) / n,
    }


def end_to_end_metrics(rounds: list[list[dict]], calibrations: list[float]
                       ) -> tuple[dict, dict]:
    """(metrics scaled to the reference machine speed, raw metrics)."""
    per_round = [round_metrics(r) for r in rounds]
    raw = {name: statistics.median(m[name] for m in per_round)
           for name, _, _, _ in END_TO_END}
    speed = CAL_REF_S / statistics.median(calibrations)
    scaled = dict(raw, wall_s=raw["wall_s"] * speed, setup_s=raw["setup_s"] * speed,
                  reps_per_s=raw["reps_per_s"] / speed)
    return scaled, dict(raw, calibration_s=statistics.median(calibrations))


def _nearest_rank(sorted_values: list[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    return sorted_values[max(math.ceil(q * len(sorted_values)) - 1, 0)]


def per_layer_metrics(trace: dict, traced_wall: float, traced_setup: float,
                      untraced_wall: float, accepted_runs: int,
                      output_bytes: int) -> dict:
    fns, counters = trace["functions"], trace["counters"]

    def stat(name: str, key: str) -> int:
        return fns.get(name, {}).get(key, 0)

    m: dict[str, float] = {}
    for f in _CALLS_SELF:
        m[f"{f}.calls"] = stat(f, "calls")
        m[f"{f}.self_s"] = stat(f, "self_ns") / 1e9
    for f in _SELF_ONLY:
        m[f"{f}.self_s"] = stat(f, "self_ns") / 1e9
    assoc, distinct = counters["associate_calls"], counters["on_sets_distinct"]
    m["network.on_sets.distinct"] = distinct
    m["network.on_sets.repeat_share"] = 1.0 - distinct / assoc if assoc else 0.0
    slots = counters["slots"]
    m["engine.slots"] = slots
    m["engine.slot_us"] = stat("engine.run_period", "incl_ns") / 1e3 / slots if slots else 0.0
    horizons = sorted(trace["horizon_ms"])
    m["engine.run_horizon.calls"] = len(horizons)
    m["engine.run_horizon.ms_p50"] = statistics.median(horizons) if horizons else 0.0
    m["engine.run_horizon.ms_p95"] = _nearest_rank(horizons, 0.95)
    m["engine.depletions"] = counters["depletions"]
    m["engine.switches"] = counters["switches"]
    evals = stat("oracle.evaluate_schedules", "calls")
    m["oracle.evaluate_schedules.calls"] = evals
    m["oracle.evaluate_schedules.incl_s"] = stat("oracle.evaluate_schedules", "incl_ns") / 1e9
    for key, f in (("stepwise", STEPWISE), ("closed_form", CLOSED_FORM)):
        m[f"oracle.{key}.calls"] = stat(f, "calls")
        m[f"oracle.{key}.self_s"] = stat(f, "self_ns") / 1e9
    m["oracle.stepwise.share"] = stat(STEPWISE, "calls") / evals if evals else 0.0
    combos = counters["combination_slots"]
    m["oracle.combination_slots"] = combos
    m["oracle.ns_per_combination_slot"] = (
        stat("oracle.evaluate_schedules", "incl_ns") / combos if combos else 0.0)
    attempts = sum(n for caller, callee, n in trace["edges"]
                   if caller == "analysis.empirical_cr_study"
                   and callee == "engine.build_topology")
    m["analysis.attempts"] = attempts
    m["analysis.accepted_share"] = accepted_runs / attempts if attempts else 0.0
    m["cli.output_bytes"] = output_bytes
    for layer in LAYER_NAMES:
        m[f"{layer}.self_s"] = sum(
            v["self_ns"] for k, v in fns.items() if k.startswith(layer + ".")) / 1e9
    self_sum = sum(v["self_ns"] for v in fns.values()) / 1e9
    m["trace.wall_s"] = traced_wall
    m["trace.setup_s"] = traced_setup
    m["trace.self_sum_s"] = self_sum
    m["trace.unwrapped_s"] = traced_wall - self_sum
    m["trace.overhead_share"] = traced_wall / untraced_wall - 1.0
    return m


def trace_accounting_problems(trace: dict, busy_s: float) -> list[str]:
    """Everything after set-up must run inside wrapped code: `cli.main` is
    wrapped, so the time inside top-level wrapped calls must cover the span
    from the first replication to the end of `simulate` (busy_s)."""
    covered = trace["counters"]["top_level_ns"] / 1e9
    if covered < busy_s - TRACE_SLACK_S:
        return [f"trace: wrapped calls cover {covered:.6f} s of the "
                f"{busy_s:.6f} s after set-up"]
    return []


def _dir_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(path, f)) for f in os.listdir(path))


def run_workload(wl: Workload, seed: int, seconds: float, trace: bool) -> dict:
    import checks
    import sbsched.cli as cli

    run_dir = os.path.join(RUNS_DIR, f"{wl.name}-s{seed}-p{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    # compile bytecode and warm the file cache once; users do not pay this per run
    warm = subprocess.run([sys.executable, CHILD, "--src", SRC, "--import-only"],
                          cwd=ROOT, env=child_env(), stdout=sys.stderr, timeout=60)
    problems = [] if warm.returncode == 0 else [f"import failed ({warm.returncode})"]
    attempted = failed = 0
    rounds: list[list[dict]] = []
    calibrations: list[float] = []
    t_start = time.monotonic()
    while not problems:
        elapsed = time.monotonic() - t_start
        if (len(rounds) >= MIN_ROUNDS and elapsed >= seconds) or elapsed >= ROUND_CUTOFF_S:
            break
        r = len(rounds)
        results = []
        for i in range(INPUTS_PER_ROUND):
            # every round draws new inputs, so a run averages over many topologies
            argv = wl.argv(1000 * seed + INPUTS_PER_ROUND * r + i, run_dir)
            spec = wl.spec(cli, argv)
            reps = expected_reps(spec)
            out = os.path.join(run_dir, f"r{r}-i{i}")
            cal = calibrate()
            if cal is None:
                problems.append("the calibration program failed")
                break
            calibrations.append(cal)
            res = invoke(argv, out)
            attempted += reps
            if "error" in res:
                failed += reps
                problems.append(res["error"])
                break
            if res["reps"] != reps:
                problems.append(f"{argv}: {res['reps']} replications, expected {reps}")
            problems += [f"input {r}.{i}: {p}" for p in check_artifacts(spec, out)]
            if (r, i) == (0, 0):
                first = argv, spec, reps, res["wall_s"]
            else:
                shutil.rmtree(out)
            results.append(res)
        rounds.append(results)

    end_to_end, raw, per_layer = {}, {}, {}
    if not problems:
        end_to_end, raw = end_to_end_metrics(rounds, calibrations)
    if trace and not problems:
        out = os.path.join(run_dir, "traced-i0")
        argv, spec, reps, untraced = first
        res = invoke(argv, out, traced=True)
        attempted += reps
        if "error" in res:
            failed += reps
            problems.append(res["error"])
        else:
            problems += checks.compare_artifacts(os.path.join(run_dir, "r0-i0"), out)
            problems += trace_accounting_problems(res["trace"], res["busy_s"])
            per_layer = per_layer_metrics(
                res["trace"], res["wall_s"], res["setup_s"], untraced,
                spec.n_replications if spec.kind == "cr_study" else 0,
                _dir_bytes(out))
    if wl.name == "oracle-depletion" and not problems:
        import oracle_ref
        ref_problems, _ = oracle_ref.run(seed)
        problems += ref_problems
    if not problems:
        shutil.rmtree(run_dir)
    else:
        print(f"{wl.name}: artifacts kept in {run_dir}", file=sys.stderr)
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "end_to_end": end_to_end, "raw": raw, "per_layer": per_layer,
            "metrics": per_layer if trace else end_to_end,
            "problems": problems, "rounds": len(rounds)}


def units() -> dict[str, str]:
    return {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "sbsched", "__init__.py")):
        print(f"error: no sbsched package under {SRC}", file=sys.stderr)
        return 2
    for var in SINGLE_THREAD_ENV:
        os.environ[var] = "1"
    sys.path[:0] = [SRC, BENCH_DIR]

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    unit = units()
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        res = run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        for p in res["problems"]:
            print(f"{name}: CHECK FAILED: {p}", file=sys.stderr)
        print(f"# {name}: seed {args.seed}, {res['rounds']} rounds of "
              f"{INPUTS_PER_ROUND} inputs, {res['attempted']} replications, "
              f"{res['failed']} failed, checks {'passed' if res['correct'] else 'FAILED'}")
        if res["raw"]:
            print(f"# {name}: unscaled " + ", ".join(
                f"{k} {v:.6g}" for k, v in res["raw"].items()))
        for metric, value in {**res["end_to_end"], **res["per_layer"]}.items():
            print(f"{name:<17} {metric:<40} {value:>16.6g} {unit[metric]}")
        summary["correct"] &= res["correct"]
        summary["attempted"] += res["attempted"]
        summary["failed"] += res["failed"]
        prefix = "" if len(names) == 1 else f"{name}."
        summary["metrics"].update({
            prefix + metric: {"value": value, "unit": unit[metric]}
            for metric, value in res["metrics"].items()})
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
