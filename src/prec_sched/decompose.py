"""Geometric decomposition into bounded subproblems.

The LP completion times place every job on the time axis; breakpoints
t_i = e^(a(i-3)+b) with a = 3/eps then split the jobs into groups
J_i = {j : t_i <= C_j < t_{i+1}}. Each group becomes an independent
subproblem whose jobs may not start before 3 t_i, which makes it bounded
with L = 3 t_i and beta = e^(3/eps): its release times are at least L by
construction, and any tight schedule for it finishes by 3 t_{i+1} =
beta L. That containment (asserted on every run) means the subproblem
schedules never overlap, so their union is a schedule of the instance.

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
SODA 1997), on the block's releases lifted as SubInstance.instance lifts
them: SubInstance.value, computed once per block. Preemptive WSPT
minimizes sum w_j M_j, M_j the mean busy time, over all preemptive
schedules with those releases, and a nonpreemptive schedule has C_j =
M_j + p_j/2, so sum_j w_j (M_j + p_j/2) bounds the block's cost. It
ignores precedence, so it holds in every bounded mode. The union may
bend the lifted releases and the machine by the parent's tolerance tol:
the containment and feasibility checks assert only that each job starts
at or after its lifted release less tol, and at or after the completion
of the job before it less tol (list_schedule, for one, starts a job up
to its block's tol before its release). Delaying the k-th job in start
order (k = 1..n) by k tol removes both slacks and adds at most delta = n
tol to any completion time, so the cost is at least the sum of the block
values less delta sum_j w_j: the offset's block bound.

Each offset also has a floor bound, read from its partition: the sum
over its blocks and their jobs of w_j (max(r_j, floor) + p_j), less the
same slack. In the preemptive WSPT schedule M_j >= r'_j + p_j/2, r'_j =
max(r_j, floor) the lifted release, so in exact arithmetic the floor
bound is at most the block bound, and so at most the cost. It needs no
WSPT sweep, and every run checks it: an offset solved in full that costs
less than its floor bound raises.

Offsets are tried in one pass in (floor bound, index) order, each one's
blocks in descending value, ties by index. Before each block, the costs
of the blocks solved, as solve_bounded returns them, plus the values of
the others, less the slack, bound the offset's cost, as each unsolved
block's cost is at least its value less its share of the slack. Once
that bound exceeds the best cost so far by more than the relative margin
SKIP_REL, the offset cannot win by (cost, index), and it is abandoned,
its other blocks unsolved; one abandoned before its first block is
skipped. The pass stops at the first offset whose floor bound exceeds
the same limit: every later offset's floor bound is at least as high,
and the best cost never rises. The union's cost is the sum of its
blocks' costs up to float reassociation, which SKIP_REL covers with the
rounding of the bounds, so the schedule, cost, offset, grid and block
outcomes are exactly those of evaluating every offset in full. Random
mode runs the same pass on its one offset, which is never abandoned, as
no best cost precedes it: its blocks are solved in index order, and no
value is computed.

The winning union is then tightened once on the parent instance, whose
releases are the original ones, not the lifted floors: each job moves
left as far as its release, its predecessors and the jobs already
placed allow (see tighten), so a job need no longer wait for its block's
floor where the machine is idle before it. tighten never moves a job
right, so no completion time rises and the tightened cost is at most the
union's, which the paper's 2(1+eps)^2 bound covers; every run checks
that the tightened schedule is feasible for the parent and costs no
more than the union. Everything above reads the union as united: the
containment and feasibility checks, the floor-bound check, the search
by union cost and its stop rule, none of which holds for a schedule
whose jobs sit before their blocks' floors.
"""

from __future__ import annotations

import logging
import math
import random
import sys
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Optional

from .bounded import _check_arguments, solve_bounded
from .errors import InvariantViolationError
from .instance import Instance, Job, Schedule, feasibility_violations, schedule_cost, tighten
from .lp import Cut, LpSolution, solve_lp, wspt_value
from .util import decimal_str

EPS_MAX = 3.0 / math.log(3.0)
TAU_B_REL = 1e-9
# an offset is abandoned only when its bound exceeds the best cost so far
# by this relative margin, which covers float rounding in the bounds and the
# costs; the tolerance schedules are checked to is subtracted in the bounds
SKIP_REL = 1e-6

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class IntervalGrid:
    """Breakpoints t_i = e^(a(i-3)+b), i = 1..q = len(breakpoints), Cmax <= t_q."""

    a: float
    b: float
    breakpoints: tuple[float, ...]

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
    [0, a], cmax positive and finite, and epsilon large enough that the
    top ceiling 3 t_{q+1} < 3 e^(2a) cmax is a float.
    """
    a = _scale_of(epsilon)
    if not 0 <= b <= a:
        raise ValueError(f"offset b must lie in [0, {a}], got {b}")
    if not 0 < cmax < math.inf:
        raise ValueError(f"cmax must be positive and finite, got {cmax}")
    a_max = (math.log(sys.float_info.max) - math.log(3.0 * cmax)) / 2
    if a >= a_max:  # a = 3/epsilon, so this bounds epsilon from below
        raise ValueError(f"epsilon must exceed {3.0 / a_max:.4g} at Cmax {cmax:g}, or t_i overflow")
    t = []  # t_i for i = len(t) + 1, the expression IntervalGrid.t evaluates
    while not t or t[-1] < cmax:
        t.append(math.exp(a * (len(t) - 2) + b))
    return IntervalGrid(a, b, tuple(t))


@dataclass(eq=False)
class SubInstance:
    """One bounded subproblem: parent jobs `jobs` whose LP completions fall
    in grid interval `index`, with bounds L = floor = 3 t_i and beta = e^a
    the grid holds. Its instance and warm cuts are built from `parent` and
    `cuts` when it is solved, and the block solver runs on that instance,
    in every mode; a block never solved costs its membership, and its
    value if its offset is tried.
    """

    jobs: tuple[int, ...]
    index: int
    floor: float
    parent: Instance = field(repr=False)
    cuts: tuple[Cut, ...] = field(repr=False)

    @cached_property
    def instance(self) -> Instance:
        """The jobs with releases lifted to floor, as floats, and the pairs
        of the parent's prec inside the block, renumbered. As every pair
        points forward (partition_jobs checks it), no path of pairs leaves
        the block and comes back, so these pairs generate the order on it,
        and are its cover when prec is the parent's, as when normalized. A
        block of every job has the parent's order, and takes it, with the
        parent's closure, through with_jobs."""
        jobs = [self.parent.jobs[j] for j in self.jobs]
        lifted = tuple(Job(job.p, float(max(job.r, self.floor)), job.w) for job in jobs)
        if len(jobs) == self.parent.n:  # partition_jobs lists each block's ids in order
            return self.parent.with_jobs(lifted)
        ids = {j: pos for pos, j in enumerate(self.jobs)}
        prec = frozenset((ids[j], ids[k]) for j, k in self.parent.prec if j in ids and k in ids)
        return Instance(lifted, prec)

    @cached_property
    def value(self) -> float:
        """The preemptive WSPT value of the jobs on releases lifted to
        max(r_j, floor), precedence ignored: wspt_value(*instance.floats)
        with no instance built. Less the slack n tol sum_j w_j, it bounds
        the block's cost (see the module docstring)."""
        p, r, w = self.parent.floats
        lifted = [max(r[j], self.floor) for j in self.jobs]
        return wspt_value([p[j] for j in self.jobs], lifted, [w[j] for j in self.jobs])

    @cached_property
    def warm(self) -> tuple[tuple[int, ...], ...]:
        """The parent LP's cut subsets restricted to the block, renumbered,
        deduplicated and sorted, of two or more jobs: valid cuts for the
        block's LPs once make_cut recomputes their rhs, as every subset
        inequality holds for every schedule; solve_lp bounds each column by
        its singleton cut. The parent's n singleton cuts, first in its
        cuts, restrict to no such subset and are skipped."""
        ids = {j: pos for pos, j in enumerate(self.jobs)}
        cuts = self.cuts[self.parent.n:]
        restricted = {tuple(ids[j] for j in cut.jobs if j in ids) for cut in cuts}
        return tuple(sorted(subset for subset in restricted if len(subset) > 1))


def partition_jobs(instance: Instance, lp: LpSolution, grid: IntervalGrid) -> list[SubInstance]:
    """The one membership pass of an offset: the jobs split by which grid
    interval their LP completion falls in, in interval order, empty groups
    dropped. Every pair of prec must point forward, as the LP orders C
    along precedence; one that does not is a bug upstream. A block's
    instance and warm cuts are built only when it is solved (SubInstance).
    """
    block = [grid.index_of(c) for c in lp.completion]
    for j, k in instance.prec:
        if block[j] > block[k]:
            raise InvariantViolationError(
                f"precedence ({j}, {k}) crosses intervals backwards ({block[j]} > {block[k]})"
            )
    groups: dict[int, list[int]] = {}
    for j, i in enumerate(block):
        groups.setdefault(i, []).append(j)
    return [
        SubInstance(tuple(groups[i]), i, grid.floor(i), instance, lp.cuts) for i in sorted(groups)
    ]


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


def _floor_bound(instance: Instance, subs: list[SubInstance]) -> float:
    """The sum over the blocks and their jobs of w_j (max(r_j, floor) +
    p_j): in exact arithmetic at most the sum of the blocks' values (see
    the module docstring), with no WSPT sweep."""
    p, r, w = instance.floats
    return sum(w[j] * (max(r[j], sub.floor) + p[j]) for sub in subs for j in sub.jobs)


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

    `union` is the winning offset's union of block schedules, each block
    inside its interval; `schedule` is that union tightened on the
    instance, and `cost` its cost, at most the union's. The intervals'
    costs are block costs and sum to the union's cost, not to `cost`.
    The winning offset is grid.b, and the grid bounds each block. `bounds`
    holds each candidate's floor bound, in the order of `candidates` (see
    the module docstring), and (0.0,) for the empty instance. `evaluated`
    holds the candidate indices with at least one block solved, in the
    order they were, a subsequence of (floor bound, index) order; the
    others were abandoned before their first block or never tried. An
    evaluated offset other than the winner may have been abandoned
    part-way. Neither enters to_dict.
    """

    schedule: Schedule
    cost: float
    union: Schedule
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
    limit: float = math.inf,
) -> tuple[Optional[Schedule], float, tuple[IntervalOutcome, ...]]:
    """Unite one partition's blocks as solve_bounded returns them: the
    union, its cost and the block outcomes in interval order.

    With a finite `limit`, the blocks are solved in descending value
    (SubInstance.value), ties by index. Before each, if the costs of the
    blocks solved plus the values of the others exceed `limit`, the others
    are left unsolved: the union is then None, its cost that sum, and the
    outcomes those of the blocks solved, possibly none. With none, every
    block is solved, in index order, and no value is computed.
    """
    tol = instance.tol()
    start = [0.0] * instance.n
    outcomes = {}
    spent = 0.0
    bounded = limit < math.inf
    for sub in sorted(subs, key=lambda sub: (-sub.value, sub.index)) if bounded else subs:
        if bounded:
            rest = sum(other.value for other in subs if other.index not in outcomes)
            if spent + rest > limit:
                return None, spent + rest, tuple(outcomes[i] for i in sorted(outcomes))
        floor, ceiling = sub.floor, grid.floor(sub.index + 1)
        res = solve_bounded(
            sub.instance,
            epsilon,
            L=floor,
            beta=math.exp(grid.a),
            mode=bounded_mode,
            budget=budget,
            warm=sub.warm,
        )
        lo = min(res.schedule.start)
        hi = max(s + job.p for s, job in zip(res.schedule.start, sub.instance.jobs))
        if lo < floor - tol or hi > ceiling + tol:
            raise InvariantViolationError(
                f"block {sub.index} escaped its interval: spans [{lo}, {hi}] "
                f"vs [{floor}, {ceiling}]"
            )
        for pos, j in enumerate(sub.jobs):
            start[j] = res.schedule.start[pos]
        outcomes[sub.index] = IntervalOutcome(sub.index, sub.jobs, res.cost, res.guesses_tried)
        spent += res.cost
    union = Schedule(tuple(start))
    violations = feasibility_violations(union, instance)
    if violations:
        raise InvariantViolationError(
            f"union of block schedules infeasible for the parent: {violations[0]}"
        )
    return union, schedule_cost(union, instance), tuple(outcomes[i] for i in sorted(outcomes))


def _tighten_union(instance: Instance, union: Schedule, cost: float) -> tuple[Schedule, float]:
    """The union, of cost `cost`, tightened on the instance's own
    releases, and its cost; raises if that schedule is infeasible or
    costs more than the union."""
    tight = tighten(union, instance)
    violations = feasibility_violations(tight, instance)
    if violations:
        raise InvariantViolationError(f"tightened union infeasible: {violations[0]}")
    tight_cost = schedule_cost(tight, instance)
    if tight_cost > cost + instance.tol() * sum(instance.floats[2]):
        raise InvariantViolationError(
            f"tightened union costs {tight_cost!r}, more than the union's {cost!r}"
        )
    return tight, tight_cost


def decompose_and_solve(
    instance: Instance,
    epsilon,
    mode: str = "derandomized",
    seed: Optional[int] = None,
    bounded_mode: str = "exhaustive",
    budget: Optional[int] = None,
) -> DecomposeResult:
    """Full pipeline: LP once, partition per offset, solve blocks, unite, tighten.

    Parameters
    ----------
    instance : Instance
        Validated and release-normalized.
    epsilon : rational
        In (0, 3/ln 3]; drives both the interval growth and the guess
        grid of the block solver.
    mode : {"derandomized", "random"}
        derandomized tries one offset per reachable partition and keeps
        the cheapest result, abandoning an offset, before its first block
        or part-way, once its bound shows it cannot win, and stopping at
        the first whose floor bound shows none left can; random draws a
        single offset from `seed`.
    bounded_mode, budget :
        Passed through to solve_bounded for each block.

    Returns
    -------
    DecomposeResult
        The winning union tightened on the instance and its cost, plus
        the union itself, offset, grid, per-block diagnostics, the LP,
        each offset's floor bound and the evaluation order.
    """
    # reject bad arguments before the parent LP, the costliest step here
    a = _scale_of(epsilon)
    if mode not in ("derandomized", "random"):
        raise ValueError(f"unknown mode {mode!r}")
    eps = _check_arguments(epsilon, mode=bounded_mode, budget=budget)
    lp = solve_lp(instance)
    if instance.n == 0:
        return DecomposeResult(
            Schedule(()), 0.0, Schedule(()), IntervalGrid(a, 0.0, ()), (0.0,), (), lp, (0.0,), (0,)
        )
    cmax = max(lp.completion)
    if mode == "random":
        candidates = (random.Random(seed).uniform(0.0, a),)
    else:
        candidates = derandomize_b(lp, a)
    grids = [build_grid(eps, b, cmax) for b in candidates]
    partitions = [partition_jobs(instance, lp, grid) for grid in grids]
    slack = instance.n * instance.tol() * sum(instance.floats[2])
    bounds = tuple(_floor_bound(instance, subs) - slack for subs in partitions)

    best = None  # (cost, index, union, outcomes)
    evaluated = []
    for rank, i in enumerate(sorted(range(len(candidates)), key=lambda i: (bounds[i], i))):
        limit = math.inf if best is None else best[0] * (1.0 + SKIP_REL)
        if bounds[i] > limit:  # every later offset's floor bound is at least this one's
            log.debug(
                "offset %d (b = %r) ends the search: floor bound %r, best cost %r, "
                "%d of %d offsets never tried",
                i, candidates[i], bounds[i], best[0], len(candidates) - rank, len(candidates),
            )
            break
        union, cost, outcomes = _solve_partition(
            instance, grids[i], partitions[i], eps, bounded_mode, budget, limit + slack
        )
        if outcomes:
            evaluated.append(i)
        if union is None:
            log.debug(
                "offset %d (b = %r) abandoned after %d of %d blocks: bound %r, best cost %r",
                i, candidates[i], len(outcomes), len(partitions[i]), cost - slack, best[0],
            )
        elif cost < bounds[i]:
            raise InvariantViolationError(
                f"offset {i}: cost {cost!r} below its floor bound {bounds[i]!r}"
            )
        elif best is None or (cost, i) < best[:2]:
            best = cost, i, union, outcomes
    cost, i, union, outcomes = best
    log.debug(
        "evaluated %d of %d offsets; offset %d (b = %r) won at cost %r",
        len(evaluated), len(candidates), i, candidates[i], cost,
    )
    schedule, tight_cost = _tighten_union(instance, union, cost)
    return DecomposeResult(
        schedule, tight_cost, union, grids[i], tuple(candidates), outcomes, lp, bounds,
        tuple(evaluated),
    )
