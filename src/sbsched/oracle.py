"""Offline exhaustive search over per-SBS OFF times on the slot grid.

Works on a recorded scenario (topology, frozen prices, full harvest trace) so
every policy and the oracle face the same randomness. Because the number of
SBSs that actually serve UEs is small in oracle experiments, the live rent
and power rates of every ON-subset are priced once, by `build_tables`, for a
whole stack of topologies in one pass.
When no schedule can deplete a battery, all OFF-time combinations are costed
in closed form, vectorized over the combinations. Otherwise each schedule is
costed along its own slots in plain floats, one `_slot_step` per slot: the
depletion fixed point, the rent and the storage step.

The ratio study needs only the least cost and the cost of the policy's own
schedule, which `optimum_and_row` finds in one pass without costing the grid
where a battery can run dry: a depth-first walk over slot prefixes, taking the
same slot step, that drops a prefix once its rent plus the buys made so far
reach the best schedule found, then the policy's row walked with that step.
Rents and buys are non-negative and rounded float addition is monotone, so no
schedule below a dropped prefix costs less, and the minimum is the grid's to
the bit.
"""
from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from . import network, pricing
from .network import MBS_ID
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
        # the closed form never reads the trace and the slot loop reads it
        # only until every cell is OFF, so a wrong one would pass unseen or
        # fail in the middle of the search
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


def build_tables(topo: network.TopologyStack, tags: Sequence[tuple[pricing.PriceTag, ...]],
                 w: CostWeights, q: float, file_bits: float) -> list[SubsetTables]:
    """Every subset's rates over the served cells of each topology of the
    stack `topo`, those of its tags (`tags[s]`, with the buy prices frozen
    in them), in stacked passes: one (topology, ON set) pair per non-empty
    subset, in (topology, bitmask) order, associated by
    `network.associate_stack` and priced by `pricing.price_on_sets`, so that
    a failure is the first pair's, with at most `network.STACK_LINKS` links
    in a pass. The all-OFF rows are zero."""
    used = [np.array([tag.sbs for tag in t], dtype=int) for t in tags]
    on = {m: (np.arange(1, 1 << m)[:, None] >> np.arange(m)) & 1 == 1
          for m in {u.size for u in used}}  # subset bitmask -> ON cells
    n_pairs = [(1 << u.size) - 1 for u in used]
    sigma = np.zeros((sum(n_pairs), topo.n_bs), dtype=bool)
    sigma[:, MBS_ID] = True
    start = 0
    for u, n in zip(used, n_pairs):
        sigma[start:start + n, u] = on[u.size]
        start += n
    owner = np.repeat(np.arange(len(used)), n_pairs)
    rents, psis = np.empty(sigma.shape), np.empty((sigma.shape[0], topo.n_sbs))
    step = max(1, network.STACK_LINKS // (topo.n_ue * topo.n_bs))
    for start in range(0, owner.size, step):
        block = slice(start, start + step)
        pairs = topo.take(owner[block])
        prices = pricing.price_on_sets(network.associate_stack(sigma[block], pairs), pairs,
                                       w, q, file_bits)
        rents[block], psis[block] = prices.rent, prices.psi
    tables = []
    start = 0
    for u, n, t in zip(used, n_pairs, tags):
        m = u.size
        rent = np.zeros((n + 1, m))
        psi = np.zeros((n + 1, m))
        # mask 0 (every served cell OFF) keeps its zero rows: it has no pair
        rent[1:] = np.where(on[m], rents[start:start + n, u], 0.0)
        psi[1:] = psis[start:start + n, u - 1]
        start += n
        tables.append(SubsetTables(
            used=u, rent=rent, psi=psi, rent_sum=rent.sum(axis=1),
            buys=np.array([tag.buy for tag in t]),
            psi_max=psi.max(axis=0) if m else np.zeros(0)))
    return tables


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


def _slot_step(
    tables: SubsetTables, trace_used: np.ndarray, cap: float, dt: float,
    n_steps: int,
) -> Callable[[int, int, list[float], float], tuple[int, float]]:
    """The oracle's slot k, after its voluntary OFFs, in plain floats:
    `step(k, mask, e, rent)` takes the depletion fixed point (forced OFFs,
    no buy), adds the rent of the ON set left and stores each ON cell's
    energy in `e` as `min(e + h - psi, cap)`; it returns the mask and rent."""
    m = tables.used.size
    bits = [1 << i for i in range(m)]
    cells = [[i for i in range(m) if mask >> i & 1] for mask in range(1 << m)]
    psi_dt = (tables.psi * dt).tolist()
    rent_dt = (tables.rent_sum * dt).tolist()
    harvest = trace_used[:n_steps].tolist()  # per slot, then per cell

    def step(k, mask, e, rent):
        h = harvest[k]
        while True:
            psi = psi_dt[mask]
            out = 0
            for i in cells[mask]:
                if e[i] + h[i] < psi[i]:
                    out |= bits[i]
            if not out:
                break
            mask &= ~out
        for i in cells[mask]:
            x = e[i] + h[i] - psi[i]
            e[i] = cap if cap < x else x  # min(x, cap), without the call
        return mask, rent + rent_dt[mask]

    return step


def _walk_row(step: Callable[[int, int, list[float], float], tuple[int, float]],
              row: list[int], e0: float, n_steps: int) -> tuple[float, int]:
    """Walk one row along its own slots: at slot k an ON cell whose OFF
    index has come (k >= index) goes OFF and is bought, then `step` runs the
    slot, until no cell is ON. Returns the rent and the bought mask."""
    m = len(row)
    mask, bought, rent, e = (1 << m) - 1, 0, 0.0, [float(e0)] * m
    for k in range(n_steps):
        off = 0
        for i, idx in enumerate(row):
            if k >= idx:
                off |= 1 << i
        off &= mask
        mask &= ~off
        bought |= off
        if not mask:
            break
        mask, rent = step(k, mask, e, rent)
    return rent, bought


def _evaluate_stepwise(
    tables: SubsetTables,
    trace_used: np.ndarray,
    off_idx: np.ndarray,
    e0: float,
    cap: float,
    dt: float,
    n_steps: int,
) -> np.ndarray:
    """Slot-by-slot cost of each row, `_walk_row` with the `_slot_step`.
    The buys are summed as `(bought * buys).sum(axis=1)` over C-ordered rows,
    so a row costs the same bits alone as in a batch."""
    m = off_idx.shape[1]
    step = _slot_step(tables, trace_used, cap, dt, n_steps)
    rents, boughts = [], []
    for row in off_idx.tolist():
        rent, bought = _walk_row(step, row, e0, n_steps)
        rents.append(rent)
        boughts.append(bought)
    bought = (np.array(boughts, dtype=np.int64)[:, None] >> np.arange(m)) & 1 == 1
    buy_cost = (bought * tables.buys[None, :]).sum(axis=1)
    return np.array(rents, dtype=float) + buy_cost


def all_combinations(m: int, n_steps: int) -> np.ndarray:
    """All OFF-index vectors on the grid {0, .., n_steps}, lexicographic order."""
    grids = np.indices((n_steps + 1,) * m).reshape(m, -1).T
    return grids.astype(np.int64)


def optimum_and_row(
    tables: SubsetTables,
    trace_used: np.ndarray,
    row: Sequence[int],
    e0: float,
    cap: float,
    dt: float,
    n_steps: int,
) -> tuple[float, float]:
    """The least cost over the study's grid, where every cell's OFF index
    lies in 1..n_steps, and the cost of `row`, one schedule of that grid, in
    one pass with one depletion check and one slot step: the bits that
    `evaluate_schedules` gives that grid's `.min()` and that row.

    Without possible depletion both are read from the closed form's grid:
    its minimum, and its entry at the row's lexicographic index. Otherwise a
    depth-first walk over slot prefixes makes the voluntary OFFs of each
    slot, then takes the row evaluator's `_slot_step`, and charges a leaf
    `rent + buy_of[bought]`, where `buy_of` is the evaluator's own buy sum,
    `(bought * buys).sum(axis=1)` over C-ordered rows, tabulated per bought
    mask. Rents and buys are >= 0 and rounded float addition is monotone, so
    no leaf below a prefix costs less than its `rent + buy_of[bought]`: a
    prefix whose bound reaches the best leaf is dropped, and the minimum
    keeps its bits. At each slot the walk tries the all-OFF set first, then
    its subsets in decreasing bitmask order, so the first leaf (all OFF at
    slot 1) already bounds the rest, and a prefix ends about b/r/dt slots
    in, not at n_steps. The row is then walked with the same step, as
    `_evaluate_stepwise` walks it, and charged `rent + buy_of[bought]`.
    """
    m = tables.used.size
    row = [int(i) for i in row]
    if len(row) != m or not all(1 <= i <= n_steps for i in row):
        raise ValueError(f"the row must hold {m} OFF indices in 1..{n_steps}")
    if m == 0:
        return 0.0, 0.0
    if not _depletion_possible(tables, trace_used, e0, cap, dt, n_steps):
        costs = _evaluate_no_depletion(tables, all_combinations(m, n_steps - 1) + 1,
                                       dt, n_steps)
        at = np.ravel_multi_index([i - 1 for i in row], (n_steps,) * m)
        return float(costs.min()), float(costs[at])

    bought_rows = (np.arange(1 << m)[:, None] >> np.arange(m)) & 1 == 1
    buy_of = (bought_rows * tables.buys[None, :]).sum(axis=1).tolist()
    step = _slot_step(tables, trace_used, cap, dt, n_steps)
    best = float("inf")

    def walk(k, mask, e, bought, rent):
        """Walk on from slot k, whose voluntary OFFs are made, with `mask`
        the cells still ON and `e` their stored energy."""
        nonlocal best
        while True:
            mask, rent = step(k, mask, e, rent)
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
    rent, bought = _walk_row(step, row, e0, n_steps)
    return best, rent + buy_of[bought]


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
    table = pricing.OnSetTable(topo, scenario.weights, scenario.q, scenario.file_bits,
                               scenario.period)
    (tables,) = build_tables(network.TopologyStack.of(topo), [table.tags], scenario.weights,
                             scenario.q, scenario.file_bits)
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
