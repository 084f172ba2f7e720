"""Per-layer tracing of sbsched from outside the package.

`Tracer` wraps every public module-level function of each sbsched layer, the
oracle's two evaluation paths, and the policy objects' `reset`/`desired_on`
methods. Each wrapper is installed in every module namespace that binds the
function, so calls across modules (``cli.run_horizon``,
``analysis.harvest_trace``) and calls within a module (``associate`` ->
``sinr_matrix``) are all seen. A private helper that is not wrapped counts
as part of its caller.

Per wrapped function it records calls, inclusive time and self time
(inclusive time minus the time spent in wrapped callees), plus caller->callee
call counts and a few counters that need a call's arguments or result. The
package's own code is not edited; `restore()` puts every original back.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import math
import time

LAYERS = ("network", "energy", "pricing", "schedulers", "engine", "oracle",
          "analysis", "cli")
# private helpers that are layers of their own for the benchmark
PRIVATE_WRAPPED = {"oracle": ("_evaluate_stepwise", "_evaluate_no_depletion")}
POLICY_METHODS = ("reset", "desired_on")


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


class Tracer:
    """Install with `install()` (or `with Tracer(): ...`), read `report()`."""

    def __init__(self) -> None:
        self.modules = {
            name: importlib.import_module(f"sbsched.{name}") for name in LAYERS
        }
        self.stats: dict[str, list[int]] = {}  # name -> [calls, incl_ns, self_ns]
        self.edges: dict[tuple, int] = {}  # (caller or None, callee) -> calls
        self.counters = {
            "associate_calls": 0, "slots": 0, "depletions": 0, "switches": 0,
            "combination_slots": 0,
        }
        self.horizon_ms: list[float] = []
        self._on_sets: set[tuple[int, bytes]] = set()
        self._topos: dict[int, tuple[int, object]] = {}
        self._stack: list[list] = []
        self._top = [0]  # inclusive time of calls made from outside any wrapper
        self._patches: list[tuple[object, str, object]] = []
        self._pre = {"network.associate": self._on_associate}
        self._post = {
            "engine.run_period": self._after_run_period,
            "engine.run_horizon": self._after_run_horizon,
            "oracle.evaluate_schedules": self._after_evaluate,
        }

    # -- installation -------------------------------------------------------

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        originals: dict[int, tuple[object, str]] = {}
        for layer, mod in self.modules.items():
            keep = PRIVATE_WRAPPED.get(layer, ())
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and (not attr.startswith("_") or attr in keep)):
                    originals[id(obj)] = (obj, f"{layer}.{attr}")
        wrappers = {fid: self._wrap(f, name) for fid, (f, name) in originals.items()}
        for mod in self.modules.values():
            for attr, obj in list(vars(mod).items()):
                entry = originals.get(id(obj))
                if entry is not None and entry[0] is obj:
                    self._patch(mod, attr, wrappers[id(obj)])
        sched = self.modules["schedulers"]
        base = getattr(sched, "Policy", None)
        for cls in list(vars(sched).values()):
            if not (inspect.isclass(cls) and base is not None and issubclass(cls, base)):
                continue
            for meth in POLICY_METHODS:
                f = cls.__dict__.get(meth)
                if inspect.isfunction(f):
                    self._patch(cls, meth, self._wrap(f, f"schedulers.{meth}"))

    def _patch(self, owner: object, attr: str, new: object) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _wrap(self, func, name: str):
        stats = self.stats.setdefault(name, [0, 0, 0])
        stack, edges, top = self._stack, self.edges, self._top
        pre, post = self._pre.get(name), self._post.get(name)
        clock = time.perf_counter_ns

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            key = (stack[-1][0] if stack else None, name)
            edges[key] = edges.get(key, 0) + 1
            if pre is not None:
                pre(args, kwargs)
            frame = [name, 0]
            stack.append(frame)
            t0 = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                stats[0] += 1
                stats[1] += dt
                stats[2] += dt - frame[1]
                if stack:
                    stack[-1][1] += dt
                else:
                    top[0] += dt
            if post is not None:
                post(args, kwargs, result, dt)
            return result

        return wrapper

    # -- counters that need arguments or results ----------------------------

    def _on_associate(self, args, kwargs) -> None:
        sigma = _arg(args, kwargs, 0, "sigma")
        topo = _arg(args, kwargs, 1, "topo")
        entry = self._topos.get(id(topo))
        if entry is None or entry[1] is not topo:
            # keep the topology alive so its id is never reused by another one
            entry = (len(self._topos), topo)
            self._topos[id(topo)] = entry
        self.counters["associate_calls"] += 1
        self._on_sets.add((entry[0], bytes(bool(s) for s in sigma)))

    def _after_run_period(self, args, kwargs, result, dt) -> None:
        cfg, res = _arg(args, kwargs, 0, "cfg"), result[0]
        self.counters["slots"] += int(cfg.n_steps)
        self.counters["depletions"] += sum(
            1 for d in res.depleted_at if not math.isnan(d))
        self.counters["switches"] += int(sum(res.switch_count))

    def _after_run_horizon(self, args, kwargs, result, dt) -> None:
        self.horizon_ms.append(dt / 1e6)

    def _after_evaluate(self, args, kwargs, result, dt) -> None:
        off_idx = _arg(args, kwargs, 2, "off_idx")
        n_steps = _arg(args, kwargs, 6, "n_steps")
        rows = len(off_idx) if getattr(off_idx, "ndim", 2) > 1 else 1
        self.counters["combination_slots"] += rows * int(n_steps)

    # -- results ------------------------------------------------------------

    def report(self) -> dict:
        """JSON-ready snapshot: per-function stats, call edges, counters."""
        return {
            "functions": {
                name: {"calls": c, "incl_ns": i, "self_ns": s}
                for name, (c, i, s) in sorted(self.stats.items()) if c
            },
            "edges": [[a, b, n] for (a, b), n in sorted(
                self.edges.items(), key=lambda kv: (kv[0][0] or "", kv[0][1]))],
            "counters": dict(self.counters, on_sets_distinct=len(self._on_sets),
                             top_level_ns=self._top[0]),
            "horizon_ms": self.horizon_ms,
        }
