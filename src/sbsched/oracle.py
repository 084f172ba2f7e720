"""Offline exhaustive search over per-SBS OFF times on the slot grid.

Works on a recorded scenario (topology, frozen prices, full harvest trace) so
every policy and the oracle face the same randomness. Because the number of
SBSs that actually serve UEs is small in oracle experiments, the live rent
and power rates of every ON-subset are read once from a `pricing.OnSetTable`.
When no schedule can deplete a battery, all OFF-time combinations are costed
in closed form, vectorized over the combinations. Otherwise the slot loop
walks the tree of distinct slot prefixes in plain floats: schedules that agree
up to a slot share its state, so the full grid costs about one slot step per
combination instead of one per combination and slot. Where one cell is left
ON, its subtree is one tight loop over its remaining slots, and the grid
points where it goes OFF are written as one strided run.

The ratio study needs only the least cost, which `optimal_cost` finds without
costing the grid: a depth-first walk over the same slot prefixes, with the
same float operations, that drops a prefix once its rent plus the buys made
so far reach the best schedule found. Rents and buys are non-negative and
rounded float addition is monotone, so no schedule below a dropped prefix
costs less, and the minimum is the grid's to the bit.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import network, pricing
from .pricing import CostWeights


class BudgetError(RuntimeError):
    """Exhaustive search would exceed the evaluation budget."""

    def __init__(self, required: int, budget: int) -> None:
        super().__init__(
            f"exhaustive search needs {required} evaluations, budget is {budget}"
        )
        self.required = required
        self.budget = budget


@dataclass(frozen=True)
class RecordedScenario:
    """Everything the offline oracle needs, sampled at the search resolution."""

    topo: network.Topology
    weights: CostWeights
    q: float
    file_bits: float
    period: float
    dt: float
    trace: np.ndarray  # (n_steps, n_sbs) harvested joules per slot
    initial_energy: float
    capacity: float

    def __post_init__(self) -> None:
        # the closed form never reads the trace and the walk reads it only
        # until every cell is OFF, so a wrong one would pass unseen or fail
        # in the middle of the walk
        shape = (self.n_steps, self.topo.n_sbs)
        if np.shape(self.trace) != shape:
            raise ValueError(f"trace has shape {np.shape(self.trace)}, "
                             f"expected (n_steps, n_sbs) = {shape}")
        if not np.all(np.asarray(self.trace) >= 0.0):
            raise ValueError("trace must hold non-negative joules, and no NaN")

    @property
    def n_steps(self) -> int:
        n = self.period / self.dt
        if abs(n - round(n)) > 1e-9:
            raise ValueError("dt must divide the period")
        return int(round(n))


@dataclass(frozen=True)
class SubsetTables:
    """Live rent/power rates for every subset of the used SBSs.

    Row index is the bitmask over `used` (bit i = used[i] is ON); entries for
    OFF SBSs are zero. `psi_max` is the worst-case power draw per used SBS
    over all subsets that contain it.
    """

    used: np.ndarray  # indices (into topo.bs) of SBSs with UEs at t=0
    rent: np.ndarray  # (2^m, m)
    psi: np.ndarray  # (2^m, m)
    rent_sum: np.ndarray  # (2^m,)
    buys: np.ndarray  # (m,)
    psi_max: np.ndarray  # (m,)


def build_tables(table: pricing.OnSetTable) -> SubsetTables:
    """Every subset's rates over the served cells of `table.tags`, read from
    `table`, with the buy prices frozen in the tags."""
    topo = table.topo
    used = np.array([tag.sbs for tag in table.tags], dtype=int)
    m = used.size
    rent = np.zeros((1 << m, m))
    psi = np.zeros((1 << m, m))
    # mask 0 (every served cell OFF) keeps its zero rows: it has no entry to read
    for mask in range(1, 1 << m):
        on = (mask >> np.arange(m)) & 1 == 1
        sigma = np.zeros(topo.n_bs, dtype=bool)
        sigma[0] = True
        sigma[used[on]] = True
        entry = table[sigma]
        rent[mask] = np.where(on, entry.rent[used], 0.0)
        psi[mask] = entry.psi[used - 1]
    buys = np.array([tag.buy for tag in table.tags])
    psi_max = psi.max(axis=0) if m else np.zeros(0)
    return SubsetTables(
        used=used, rent=rent, psi=psi, rent_sum=rent.sum(axis=1),
        buys=buys, psi_max=psi_max,
    )


def _depletion_possible(
    tables: SubsetTables, trace_used: np.ndarray, e0: float, cap: float,
    dt: float, n_steps: int,
) -> bool:
    """Conservative check: can any schedule deplete any used SBS?

    Tracks a per-SBS lower bound on stored energy assuming worst-case (always
    ON at the maximum subset power) consumption; the cap clamp keeps the
    bound valid when harvesting outpaces consumption. The cells are
    independent, so each is followed over the whole period in plain floats.
    """
    for i, worst in enumerate((tables.psi_max * dt).tolist()):
        e_lb = float(e0)
        for h in trace_used[:n_steps, i].tolist():
            if e_lb + h < worst:
                return True
            e_lb = min(e_lb + h - worst, cap)
    return False


def evaluate_schedules(
    tables: SubsetTables,
    trace_used: np.ndarray,
    off_idx: np.ndarray,
    e0: float,
    cap: float,
    dt: float,
    n_steps: int,
) -> np.ndarray:
    """Realized problem cost of each OFF-index combination.

    off_idx is (C, m) with entries in 0..n_steps; an SBS is ON for slots
    k < off_idx (index n_steps means never voluntarily OFF, so no buy charge).
    Depletion forces an SBS OFF without a buy charge; a voluntary OFF in the
    same slot wins and does charge the buy price.
    """
    off_idx = np.atleast_2d(np.asarray(off_idx, dtype=np.int64))
    m = tables.used.size
    if m == 0:
        return np.zeros(off_idx.shape[0])
    if not _depletion_possible(tables, trace_used, e0, cap, dt, n_steps):
        return _evaluate_no_depletion(tables, off_idx, dt, n_steps)
    return _evaluate_stepwise(tables, trace_used, off_idx, e0, cap, dt, n_steps)


def _evaluate_no_depletion(
    tables: SubsetTables, off_idx: np.ndarray, dt: float, n_steps: int
) -> np.ndarray:
    """Closed-form cost when no SBS can deplete: nested ON-subsets over time."""
    c, m = off_idx.shape
    order = np.argsort(off_idx, axis=1, kind="stable")
    sorted_idx = np.take_along_axis(off_idx, order, axis=1)
    mask = np.full(c, (1 << m) - 1, dtype=np.int64)
    rent_cost = np.zeros(c)
    prev = np.zeros(c, dtype=np.int64)
    for pos in range(m):
        upto = np.minimum(sorted_idx[:, pos], n_steps)
        rent_cost += tables.rent_sum[mask] * (upto - prev) * dt
        mask = mask & ~(1 << order[:, pos])
        prev = np.maximum(prev, upto)
    # added in cell order, as numpy sums the rows of the column-major grid of
    # `all_combinations`: a row alone, which numpy would sum pairwise from 8
    # cells on, then costs the same bits as in the grid
    buy_cost = np.zeros(c)
    for i, buy in enumerate(tables.buys.tolist()):
        buy_cost += buy * (off_idx[:, i] < n_steps)
    return rent_cost + buy_cost


def _evaluate_stepwise(
    tables: SubsetTables,
    trace_used: np.ndarray,
    off_idx: np.ndarray,
    e0: float,
    cap: float,
    dt: float,
    n_steps: int,
) -> np.ndarray:
    """Slot-by-slot cost of each row, walking every distinct slot prefix once.

    The state after slot k depends on each cell's OFF index only through
    min(off, k + 1), so schedules that agree so far share one state. The walk
    covers the grid of each cell's requested OFF indices (clamped to
    0..n_steps) and branches at slot k only over the cells still ON that may
    go OFF there; a cell whose last requested index has come must go OFF. A
    cell that runs dry stops branching: all its later OFF indices cost the
    same, so the leaf fills a box of the grid. The full grid thus costs
    O((n_steps+1)^m) slot steps, and one row a single path. Most of them are
    taken with one cell left ON; that cell's subtree is one plain-float loop
    with no frame, branch list or depletion fixed point per slot, and its
    OFF points, one per requested index, are one strided write of the grid.
    """
    c, m = off_idx.shape
    if c == 0:
        return np.zeros(0)
    clamped = np.clip(off_idx, 0, n_steps)
    vals = [np.unique(clamped[:, i]) for i in range(m)]
    shape = tuple(v.size for v in vals)
    rows = np.ravel_multi_index(
        [np.searchsorted(v, clamped[:, i]) for i, v in enumerate(vals)], shape
    )
    rent_grid = np.empty(shape)
    bought_grid = np.empty(shape, dtype=np.int64)  # bit i: cell i bought
    rent_flat, bought_flat = rent_grid.reshape(-1), bought_grid.reshape(-1)
    strides = [s // rent_grid.itemsize for s in rent_grid.strides]

    vals = [v.tolist() for v in vals]
    last = [n - 1 for n in shape]
    bits = [1 << i for i in range(m)]
    solo = {b: i for i, b in enumerate(bits)}  # the one-cell masks
    cells = [[i for i in range(m) if mask >> i & 1] for mask in range(1 << m)]
    # the per-row loop's float operations, in its order, so the costs are the
    # same bits: e + h < psi*dt, min((e + h) - psi*dt, cap), rent += rent_sum*dt
    psi_dt = (tables.psi * dt).tolist()
    rent_dt = (tables.rent_sum * dt).tolist()
    harvest = trace_used[:n_steps].T.tolist()  # per cell, then per slot

    def leaf(pos, flat, dry, bought, rent):
        if dry:
            box = tuple(
                slice(p, n if dry & b else p + 1)
                for p, n, b in zip(pos, shape, bits)
            )
            rent_grid[box] = rent
            bought_grid[box] = bought
        else:
            rent_flat[flat] = rent
            bought_flat[flat] = bought

    def lone(k, i, e, pos, flat, dry, bought, rent):
        """Walk on from slot k, whose OFF decisions are made, with cell i the
        only one ON and `e` its stored energy. The points where it goes OFF at
        a later requested index lie on one line of the grid: unless a sibling
        is dry (then each is a box), their rents are written as one strided
        run."""
        bit, stride, v, p, end = bits[i], strides[i], vals[i], pos[i], last[i]
        psi, r, col = psi_dt[bit][i], rent_dt[bit], harvest[i]
        start, run = flat, []
        while k < n_steps:
            h = col[k]
            if e + h < psi:
                dry |= bit
                break
            rent += r
            e = min(e + h - psi, cap)
            k += 1
            if v[p] == k < n_steps:
                if p == end:  # the last requested index: OFF here
                    bought |= bit
                    break
                if dry:
                    pos[i] = p
                    leaf(pos, flat, dry, bought | bit, rent)
                else:
                    run.append(rent)
                p += 1
                flat += stride
        if run:
            rent_flat[start:flat:stride] = run
            bought_flat[start:flat:stride] = bought | bit
        pos[i] = p
        leaf(pos, flat, dry, bought, rent)

    def walk(k, mask, e, pos, flat, dry, bought, rent, go_off):
        """Walk on from slot k; `go_off` (None: decide here) is the set of
        optional cells this branch sends OFF at k."""
        while mask and k < n_steps:
            due = [i for i in cells[mask] if vals[i][pos[i]] == k]
            if due:
                forced = optional = 0
                for i in due:
                    if pos[i] == last[i]:
                        forced |= bits[i]
                    else:
                        optional |= bits[i]
                if go_off is None:
                    sub = optional
                    while sub:
                        rest = mask & ~(forced | sub)
                        if not rest:  # all OFF from slot k on
                            leaf(pos, flat, dry, bought | mask, rent)
                        elif rest in solo:  # one cell stays ON: no walk frame
                            j = solo[rest]
                            moved, step = pos[:], 0
                            if rest & optional:
                                moved[j] += 1
                                step = strides[j]
                            lone(k, j, e[j], moved, flat + step, dry,
                                 bought | forced | sub, rent)
                        else:
                            walk(k, mask, e[:], pos[:], flat, dry, bought, rent, sub)
                        sub = (sub - 1) & optional
                    go_off = 0
                off = forced | go_off
                for i in due:
                    if not off & bits[i]:
                        pos[i] += 1
                        flat += strides[i]
                mask &= ~off
                bought |= off
            go_off = None
            if mask in solo:  # m = 1, or the others went OFF or ran dry
                i = solo[mask]
                return lone(k, i, e[i], pos, flat, dry, bought, rent)
            while True:
                psi = psi_dt[mask]
                out = 0
                for i in cells[mask]:
                    if e[i] + harvest[i][k] < psi[i]:
                        out |= bits[i]
                if not out:
                    break
                mask &= ~out
                dry |= out
            rent += rent_dt[mask]
            for i in cells[mask]:
                e[i] = min(e[i] + harvest[i][k] - psi[i], cap)
            k += 1
        leaf(pos, flat, dry, bought, rent)

    walk(0, (1 << m) - 1, [float(e0)] * m, [0] * m, 0, 0, 0, 0.0, None)
    bought = (bought_flat[rows, None] >> np.arange(m)) & 1 == 1
    buy_cost = (bought * tables.buys[None, :]).sum(axis=1)
    return rent_flat[rows] + buy_cost


def all_combinations(m: int, n_steps: int) -> np.ndarray:
    """All OFF-index vectors on the grid {0, .., n_steps}, lexicographic order."""
    grids = np.indices((n_steps + 1,) * m).reshape(m, -1).T
    return grids.astype(np.int64)


def optimal_cost(
    tables: SubsetTables,
    trace_used: np.ndarray,
    e0: float,
    cap: float,
    dt: float,
    n_steps: int,
) -> float:
    """Least cost over the grid where every cell's OFF index lies in
    1..n_steps, the same bits as `evaluate_schedules` on that grid's `.min()`.

    Without possible depletion this is that closed-form grid's minimum.
    Otherwise a depth-first walk over slot prefixes takes the grid walk's
    float operations per slot (the voluntary OFFs, then the depletion fixed
    point, `rent += rent_dt[mask]` and `e = min(e + h - psi, cap)`) and
    charges a leaf `rent + buy_of[bought]`, where `buy_of` is the walk's own
    buy sum, `(bought * buys).sum(axis=1)` over C-ordered rows, tabulated per
    bought mask. Rents and buys are >= 0 and rounded float addition is
    monotone, so no leaf below a prefix costs less than its
    `rent + buy_of[bought]`: a prefix whose bound reaches the best leaf is
    dropped, and the minimum keeps its bits. At each slot the walk tries the
    all-OFF set first, then its subsets in decreasing bitmask order, so the
    first leaf (all OFF at slot 1) already bounds the rest, and a prefix ends
    about b/r/dt slots in, not at n_steps.
    """
    m = tables.used.size
    if m == 0:
        return 0.0
    if not _depletion_possible(tables, trace_used, e0, cap, dt, n_steps):
        grid = np.maximum(all_combinations(m, n_steps), 1)
        return float(evaluate_schedules(
            tables, trace_used, grid, e0, cap, dt, n_steps).min())

    bought_rows = (np.arange(1 << m)[:, None] >> np.arange(m)) & 1 == 1
    buy_of = (bought_rows * tables.buys[None, :]).sum(axis=1).tolist()
    bits = [1 << i for i in range(m)]
    cells = [[i for i in range(m) if mask >> i & 1] for mask in range(1 << m)]
    psi_dt = (tables.psi * dt).tolist()
    rent_dt = (tables.rent_sum * dt).tolist()
    harvest = trace_used[:n_steps].T.tolist()  # per cell, then per slot
    best = float("inf")

    def walk(k, mask, e, bought, rent):
        """Walk on from slot k, whose voluntary OFFs are made, with `mask`
        the cells still ON and `e` their stored energy."""
        nonlocal best
        while True:
            while True:
                psi = psi_dt[mask]
                out = 0
                for i in cells[mask]:
                    if e[i] + harvest[i][k] < psi[i]:
                        out |= bits[i]
                if not out:
                    break
                mask &= ~out
            rent += rent_dt[mask]
            for i in cells[mask]:
                e[i] = min(e[i] + harvest[i][k] - psi[i], cap)
            k += 1
            cost = rent + buy_of[bought]
            if cost >= best:
                return
            if not mask or k == n_steps:  # no cell left ON, or the period ends
                best = cost
                return
            sub = mask
            while sub:  # OFF at slot k; none OFF goes on in this loop
                cost = rent + buy_of[bought | sub]
                if cost < best:
                    if sub == mask:
                        best = cost
                    else:
                        walk(k, mask & ~sub, e[:], bought | sub, rent)
                sub = (sub - 1) & mask

    walk(0, (1 << m) - 1, [float(e0)] * m, 0, 0.0)
    return best


def offline_exhaustive(
    scenario: RecordedScenario,
    grid_dt: float,
    budget: int = 1_000_000,
) -> tuple[np.ndarray, float]:
    """Minimize the realized problem cost over all per-SBS OFF times.

    Returns the per-SBS OFF times (seconds, one per SBS in the topology;
    SBSs without UEs stay OFF and report 0) and the optimal total cost.
    Ties break toward the lexicographically smallest OFF-time vector.
    """
    if abs(grid_dt - scenario.dt) > 1e-12:
        raise ValueError("the search grid must match the recorded resolution")
    topo = scenario.topo
    tables = build_tables(pricing.OnSetTable(
        topo, scenario.weights, scenario.q, scenario.file_bits, scenario.period))
    n_steps = scenario.n_steps
    m = tables.used.size
    off_times = np.zeros(topo.n_sbs)
    if m == 0:
        return off_times, 0.0
    required = (n_steps + 1) ** m
    if required > budget:
        raise BudgetError(required, budget)
    combos = all_combinations(m, n_steps)
    trace_used = scenario.trace[:, tables.used - 1]
    costs = evaluate_schedules(
        tables, trace_used, combos, scenario.initial_energy, scenario.capacity,
        scenario.dt, n_steps,
    )
    best = int(np.argmin(costs))
    for i, j in enumerate(tables.used):
        off_times[j - 1] = combos[best, i] * scenario.dt
    return off_times, float(costs[best])
