"""Geometric decomposition into bounded subproblems.

The LP completion times place every job on the time axis; breakpoints
t_i = e^(a(i-3)+b) with a = 3/eps then split the jobs into groups
J_i = {j : t_i <= C_j < t_{i+1}}. Each group becomes an independent
subproblem whose jobs may not start before 3 t_i, which makes it bounded
with L = 3 t_i and beta = e^(3/eps): its release times are at least L by
construction, and any tight schedule for it finishes by 3 t_{i+1} =
beta L. That containment (asserted on every run) means the subproblem
schedules never overlap, so the final schedule is simply their union.

The offset b is drawn uniformly from [0, a], or derandomized: the
partition as a function of b only changes where some breakpoint crosses
some C_j, so trying one b per constancy interval covers every reachable
partition exactly.

Growth rate e^a must be at least 3 (epsilon at most 3/ln 3), otherwise a
group's schedule could outgrow its interval and the union argument
breaks. The grid constructor enforces this.

Offsets are pruned by a lower bound on their cost that needs no LP: the
preemptive WSPT value of each of the offset's blocks (M. X. Goemans,
"Improved approximation algorithms for scheduling with release dates",
SODA 1997), on the block's releases lifted as partition_jobs lifts them.
Preemptive WSPT minimizes sum w_j M_j, M_j the mean busy time, over all
preemptive schedules with those releases, and a nonpreemptive schedule
has C_j = M_j + p_j/2, so sum_j w_j (M_j + p_j/2) bounds the block's
cost. It ignores precedence, so it holds in every bounded mode. The union
may bend the lifted releases and the machine by the parent's tolerance
tol: the containment and feasibility checks assert only that each job
starts at or after its lifted release less tol, and at or after the
completion of the job before it less tol (list_schedule, for one, starts
a job up to its block's tol before its release). Delaying the k-th job in
start order (k = 1..n) by k tol removes both slacks and adds at most
delta = n tol to any completion time, so the cost is at least the sum of
the block values less delta sum_j w_j.

Offsets are evaluated in (bound, index) order, and one whose bound
exceeds the best cost so far by more than the relative margin SKIP_REL is
skipped: its cost is then strictly above that best cost, so it cannot win
by (cost, index). A skipped offset's blocks are not solved, so none of
their guesses run. The bound is also partial: after each block solved,
the tightened costs of the blocks solved plus the values of the others,
less the same slack, bound the offset's cost, as each unsolved block's
cost is at least its value less its share of the slack. An offset is
abandoned, its other blocks left unsolved, as soon as that partial bound
exceeds the best cost by more than SKIP_REL. Its blocks are solved in
descending value, ties by index, so the partial bound grows fastest. The
union's cost is the sum of its blocks' costs up to float reassociation,
which SKIP_REL covers with the rounding of the bounds. So the schedule,
cost, offset, grid and block outcomes are exactly those of evaluating
every offset in full. A single offset, as in random mode, is never
skipped or abandoned, so no bound is computed for it.
"""

from __future__ import annotations

import logging
import math
import random
import sys
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .bounded import _check_arguments, solve_bounded
from .errors import InvariantViolationError
from .instance import Instance, Job, Schedule, feasibility_violations, schedule_cost, tighten
from .lp import LpSolution, solve_lp, wspt_value
from .util import decimal_str

EPS_MAX = 3.0 / math.log(3.0)
TAU_B_REL = 1e-9
# an offset is skipped only when its bound exceeds the best cost so far by
# this relative margin, which covers float rounding in the bounds and the
# costs; the tolerance schedules are checked to is subtracted in the bounds
SKIP_REL = 1e-6

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class IntervalGrid:
    """Breakpoints t_i = e^(a(i-3)+b), i = 1..q, with Cmax <= t_q."""

    a: float
    b: float
    breakpoints: tuple[float, ...]

    @property
    def q(self) -> int:
        return len(self.breakpoints)

    def t(self, i: int) -> float:
        """t_i by formula, valid beyond the stored range (e.g. t_{q+1})."""
        return math.exp(self.a * (i - 3) + self.b)

    def floor(self, i: int) -> float:
        """3 t_i: block i's release floor and block i - 1's ceiling."""
        return 3.0 * self.t(i)

    def index_of(self, c: float) -> int:
        """The i with t_i <= c < t_{i+1}, by bisection, for c in [t_1, t_q].

        Every LP completion time lies in that range: C_j >= 1/2 > 1/3 >=
        e^(-a) >= t_1, and C_j <= Cmax <= t_q.
        """
        if not (self.breakpoints and self.breakpoints[0] <= c <= self.breakpoints[-1]):
            raise ValueError(f"{c} lies outside the grid's range [t_1, t_q]")
        return bisect_right(self.breakpoints, c)


def _scale_of(epsilon) -> float:
    """Growth scale a = 3/epsilon; rejects epsilon outside (0, 3/ln 3]."""
    eps = float(Fraction(epsilon))
    if not 0 < eps <= EPS_MAX + 1e-12:
        raise ValueError(
            f"epsilon must lie in (0, 3/ln 3 ~= {EPS_MAX:.4f}], got {eps}: "
            "interval growth e^(3/epsilon) must be at least 3 for block "
            "containment to hold"
        )
    return 3.0 / eps


def build_grid(epsilon, b: float, cmax: float) -> IntervalGrid:
    """The grid of scale a = 3/epsilon and offset b up to cmax.

    q is minimal with cmax <= t_q. epsilon must lie in (0, 3/ln 3]: the
    breakpoint ratio e^(3/epsilon) must be at least 3 so that a bounded
    block starting at 3 t_i can finish by 3 t_{i+1}. b must lie in
    [0, a], cmax must be positive, and epsilon large enough that the top
    ceiling 3 t_{q+1} < 3 e^(2a) cmax is a float.
    """
    a = _scale_of(epsilon)
    if not 0 <= b <= a:
        raise ValueError(f"offset b must lie in [0, {a}], got {b}")
    if cmax <= 0:
        raise ValueError("cmax must be positive")
    a_max = (math.log(sys.float_info.max) - math.log(3.0 * cmax)) / 2
    if a >= a_max:  # a = 3/epsilon, so this bounds epsilon from below
        raise ValueError(f"epsilon must exceed {3.0 / a_max:.4g} at Cmax {cmax:g}, or t_i overflow")
    t = []  # t_i for i = len(t) + 1, the expression IntervalGrid.t evaluates
    while not t or t[-1] < cmax:
        t.append(math.exp(a * (len(t) - 2) + b))
    return IntervalGrid(a, b, tuple(t))


@dataclass(frozen=True)
class SubInstance:
    """One bounded subproblem: parent jobs `jobs` in grid interval `index`,
    whose bounds L = grid.floor(index) = 3 t_i and beta = e^a the grid
    holds. `warm` holds the subsets of the parent LP's cuts, restricted to
    the block and renumbered to block ids, for warm-starting its LPs: only
    those of two or more jobs, as solve_lp starts from every singleton.
    """

    jobs: tuple[int, ...]
    index: int
    instance: Instance
    warm: tuple[tuple[int, ...], ...] = ()


def partition_jobs(instance: Instance, lp: LpSolution, grid: IntervalGrid) -> list[SubInstance]:
    """Split jobs by which grid interval their LP completion falls in.

    Every job lands in exactly one group; empty groups are dropped. Each
    group's release times are lifted to its floor 3 t_i, as floats, and
    keeps the pairs of prec inside it. Every pair points forward because
    the LP orders C along precedence; violated means a bug upstream. One
    pass over the pairs both checks and restricts them, exactly: a path of
    pairs between two jobs of a group never leaves it, as it never goes
    back a group, so the group's pairs generate the order on it, and are
    its cover when prec is the parent's, as on a normalized instance.

    Each group also carries the parent LP's cut subsets restricted to it,
    renumbered to block ids, deduplicated and sorted, keeping those of two
    or more jobs: every subset inequality holds for every schedule, so they
    are valid cuts for the block's LPs once make_cut recomputes their rhs,
    and solve_lp adds every singleton cut itself.
    """
    block = [grid.index_of(c) for c in lp.completion]
    groups: dict[int, list[int]] = {}
    for j, i in enumerate(block):
        groups.setdefault(i, []).append(j)
    back = {j: pos for ids in groups.values() for pos, j in enumerate(ids)}  # id in its block
    prec: dict[int, set] = {i: set() for i in groups}
    for j, k in instance.prec:
        if block[j] > block[k]:
            raise InvariantViolationError(
                f"precedence ({j}, {k}) crosses intervals backwards ({block[j]} > {block[k]})"
            )
        if block[j] == block[k]:
            prec[block[j]].add((back[j], back[k]))
    subs = []
    for i in sorted(groups):
        ids = tuple(groups[i])
        floor = grid.floor(i)
        jobs = tuple(
            Job(instance.jobs[j].p, float(max(instance.jobs[j].r, floor)), instance.jobs[j].w)
            for j in ids
        )
        restricted = {tuple(back[j] for j in cut.jobs if block[j] == i) for cut in lp.cuts}
        warm = tuple(sorted(subset for subset in restricted if len(subset) > 1))
        subs.append(SubInstance(ids, i, Instance(jobs, frozenset(prec[i])), warm))
    return subs


def derandomize_b(lp: LpSolution, a: float) -> tuple[float, ...]:
    """Offsets b covering every partition reachable over b in [0, a].

    The partition changes exactly when a breakpoint crosses some C_j,
    i.e. at b = ln C_j (mod a). Each such event value, nudged into the
    interior of the constancy interval just above it, plus b = 0, hits
    every piece. The nudge is relative (1e-9 a) and wraps modulo a.
    """
    tau = TAU_B_REL * a
    cands = {0.0}
    for c in lp.completion:
        cands.add(((math.log(c) % a) + tau) % a)
    return tuple(sorted(cands))


def block_bounds(instance: Instance, lp: LpSolution, grids) -> tuple[dict[int, float], ...]:
    """Per grid, the preemptive WSPT value of each block on its lifted
    releases max(r_j, 3 t_i), keyed by interval index. No LP is solved,
    and precedence is not looked at. A block's value less the slack
    n tol sum_j w_j bounds its cost (see the module docstring).
    """
    p = [float(job.p) for job in instance.jobs]
    r = [float(job.r) for job in instance.jobs]
    w = [float(job.w) for job in instance.jobs]
    out = []
    for grid in grids:
        blocks: dict[int, list[int]] = {}
        for j, c in enumerate(lp.completion):
            blocks.setdefault(grid.index_of(c), []).append(j)
        values = {}
        for i, ids in blocks.items():
            floor = grid.floor(i)
            lifted = [max(r[j], floor) for j in ids]
            values[i] = wspt_value([p[j] for j in ids], lifted, [w[j] for j in ids])
        out.append(values)
    return tuple(out)


@dataclass(frozen=True)
class IntervalOutcome:
    """Diagnostics for the block of grid interval `index`, which spans
    [grid.floor(index), grid.floor(index + 1)]."""

    index: int
    jobs: tuple[int, ...]
    cost: float
    guesses_tried: int


@dataclass(frozen=True)
class DecomposeResult:
    """The winning offset's schedule and diagnostics.

    The winning offset is grid.b, and the grid bounds each block. `bounds`
    holds one lower bound per entry of `candidates`: its block bound
    (block_bounds) when there are several candidates, and -inf when there
    is one, which is never skipped. `evaluated` holds the candidate
    indices with at least one block solved, in the order they were; the
    others were skipped. An evaluated offset other than the winner may
    have been abandoned part-way, its partial bound already above the
    best cost. Neither enters to_dict.
    """

    schedule: Schedule
    cost: float
    grid: IntervalGrid
    candidates: tuple[float, ...]
    intervals: tuple[IntervalOutcome, ...]
    lp: LpSolution
    bounds: tuple[float, ...]
    evaluated: tuple[int, ...]

    def to_dict(self, instance: Instance) -> dict:
        doc = self.schedule.to_dict(instance)
        doc["b"] = self.grid.b
        doc["t"] = [decimal_str(t) for t in self.grid.breakpoints]
        doc["intervals"] = [
            {
                "jobs": list(iv.jobs),
                "cost": decimal_str(iv.cost),
                "floor": decimal_str(self.grid.floor(iv.index)),
                "guesses_tried": iv.guesses_tried,
            }
            for iv in self.intervals
        ]
        return doc


def _solve_partition(
    instance: Instance,
    grid: IntervalGrid,
    subs: list[SubInstance],
    epsilon,
    bounded_mode: str,
    budget: Optional[int],
    values: Optional[dict[int, float]] = None,
    limit: float = math.inf,
) -> tuple[Optional[Schedule], float, tuple[IntervalOutcome, ...]]:
    """Solve one partition's blocks and unite their schedules: the union,
    its cost and the block outcomes in interval order.

    `values` maps each block's interval index to a lower bound on its cost
    (0 for each if not given). The blocks are solved in descending value,
    ties by index. As soon as the costs of the blocks solved plus the
    values of the others exceed `limit`, the others are left unsolved:
    the union is then None, its cost that sum, and the outcomes those of
    the blocks solved.
    """
    values = values or dict.fromkeys((sub.index for sub in subs), 0.0)
    tol = instance.tol()
    start = [0.0] * instance.n
    outcomes = {}
    spent = 0.0
    for sub in sorted(subs, key=lambda sub: (-values[sub.index], sub.index)):
        floor, ceiling = grid.floor(sub.index), grid.floor(sub.index + 1)
        res = solve_bounded(
            sub.instance,
            epsilon,
            L=floor,
            beta=math.exp(grid.a),
            mode=bounded_mode,
            budget=budget,
            warm=sub.warm,
        )
        tight = tighten(res.schedule, sub.instance)
        lo = min(tight.start)
        hi = max(s + job.p for s, job in zip(tight.start, sub.instance.jobs))
        if lo < floor - tol or hi > ceiling + tol:
            raise InvariantViolationError(
                f"block {sub.index} escaped its interval: spans [{lo}, {hi}] "
                f"vs [{floor}, {ceiling}]"
            )
        for pos, j in enumerate(sub.jobs):
            start[j] = tight.start[pos]
        cost = schedule_cost(tight, sub.instance)
        outcomes[sub.index] = IntervalOutcome(sub.index, sub.jobs, cost, res.guesses_tried)
        spent += cost
        rest = [v for i, v in values.items() if i not in outcomes]
        if rest and spent + sum(rest) > limit:
            return None, spent + sum(rest), tuple(outcomes[i] for i in sorted(outcomes))
    union = Schedule(tuple(start))
    violations = feasibility_violations(union, instance)
    if violations:
        raise InvariantViolationError(
            f"union of block schedules infeasible for the parent: {violations[0]}"
        )
    return union, schedule_cost(union, instance), tuple(outcomes[i] for i in sorted(outcomes))


def decompose_and_solve(
    instance: Instance,
    epsilon,
    mode: str = "derandomized",
    seed: Optional[int] = None,
    bounded_mode: str = "exhaustive",
    budget: Optional[int] = None,
) -> DecomposeResult:
    """Full pipeline: LP once, partition per offset, solve blocks, unite.

    Parameters
    ----------
    instance : Instance
        Validated and release-normalized.
    epsilon : rational
        In (0, 3/ln 3]; drives both the interval growth and the guess
        grid of the block solver.
    mode : {"derandomized", "random"}
        derandomized tries one offset per reachable partition and keeps
        the cheapest result, skipping offsets whose block bound shows
        they cannot win and abandoning those whose partial bound shows it
        part-way; random draws a single offset from `seed`.
    bounded_mode, budget :
        Passed through to solve_bounded for each block.

    Returns
    -------
    DecomposeResult
        Schedule plus offset, grid, per-block diagnostics, the LP, and
        each offset's bound and the evaluation order.
    """
    # reject bad arguments before the parent LP, the costliest step here
    a = _scale_of(epsilon)
    if mode not in ("derandomized", "random"):
        raise ValueError(f"unknown mode {mode!r}")
    eps = _check_arguments(epsilon, mode=bounded_mode, budget=budget)
    lp = solve_lp(instance)
    if instance.n == 0:
        return DecomposeResult(
            Schedule(()), 0.0, IntervalGrid(a, 0.0, ()), (0.0,), (), lp, (-math.inf,), (0,)
        )
    cmax = max(lp.completion)
    if mode == "random":
        rng = random.Random(seed)
        candidates = (rng.uniform(0.0, a),)
    else:
        candidates = derandomize_b(lp, a)
    grids = [build_grid(eps, b, cmax) for b in candidates]
    slack = instance.n * instance.tol() * sum(float(job.w) for job in instance.jobs)
    if len(grids) > 1:
        values = block_bounds(instance, lp, grids)
        bounds = tuple(sum(v.values()) - slack for v in values)
    else:  # one offset is never skipped or abandoned, so it goes without a bound
        values, bounds = (None,), (-math.inf,)

    best = None  # (cost, index, union, outcomes)
    evaluated = []
    for i in sorted(range(len(candidates)), key=lambda i: (bounds[i], i)):
        if best is not None and bounds[i] > best[0] * (1.0 + SKIP_REL):
            log.debug(
                "offset %d (b = %r) skipped: block bound %r, best cost %r",
                i, candidates[i], bounds[i], best[0],
            )
            continue
        evaluated.append(i)
        subs = partition_jobs(instance, lp, grids[i])
        limit = math.inf if best is None else best[0] * (1.0 + SKIP_REL) + slack
        union, cost, outcomes = _solve_partition(
            instance, grids[i], subs, eps, bounded_mode, budget, values[i], limit
        )
        if union is None:
            log.debug(
                "offset %d (b = %r) abandoned after %d of %d blocks: bound %r, best cost %r",
                i, candidates[i], len(outcomes), len(subs), cost - slack, best[0],
            )
        elif best is None or (cost, i) < best[:2]:
            best = cost, i, union, outcomes
    cost, i, union, outcomes = best
    log.debug(
        "evaluated %d of %d offsets; offset %d (b = %r) won at cost %r",
        len(evaluated), len(candidates), i, candidates[i], cost,
    )
    return DecomposeResult(
        union, cost, grids[i], tuple(candidates), outcomes, lp, bounds, tuple(evaluated)
    )
