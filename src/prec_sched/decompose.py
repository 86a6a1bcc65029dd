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
breaks. The grid constructor enforces this; grid_from_scale bypasses the
epsilon check for callers reasoning directly in terms of a.

Offsets are pruned by a bound from the parent LP's dual y (clamped to
y <= 0, one entry per precedence row and per cut row of the final round).
In the parent LP, min w.C subject to A C <= b and C >= 0, only the cut
right-hand sides rhs_c = r_min(U_c) p(U_c) + p(U_c)^2/2 depend on
release times; A and w do not. An offset's union schedule starts every
job j at or after its lifted release max(r_j, 3 t_i(j)), so its
completion times C satisfy A C <= b' for the lifted right-hand sides b'.
With s = w - A^T y, w.C = y.(A C) + s.C >= y.b' + s.C, because y <= 0,
so weak duality gives

    cost >= sum_c (-y_c) rhs_c(lifted releases) - sum_j max(0, -s_j) H

where H bounds every completion time. A^T y includes the precedence
rows, +1 at j and -1 at k. The residual term makes the bound hold for a
dual that is only feasible up to float noise; H is the top ceiling
3 t_{q+1} plus the tolerance, which block containment asserts on every
run. Offsets are evaluated in (bound, index) order, and one whose bound
exceeds the best cost so far by more than the relative margin SKIP_REL
is skipped: its cost is then strictly above that best cost, so it cannot
win by (cost, index), and the schedule, cost, offset, grid and block
outcomes are exactly those of evaluating every offset. A skipped
offset's blocks are not solved, so the trace hook never sees their
guesses.
"""

from __future__ import annotations

import logging
import math
import random
import sys
from dataclasses import dataclass
from itertools import chain
from typing import Optional

import numpy as np

from .bounded import _check_arguments, solve_bounded, to_fraction
from .errors import InvariantViolationError
from .instance import Instance, Job, Schedule, feasibility_violations, schedule_cost, tighten
from .lp import LpSolution, solve_lp
from .util import decimal_str

EPS_MAX = 3.0 / math.log(3.0)
TAU_B_REL = 1e-9
# an offset is skipped only when its dual bound exceeds the best cost so
# far by this relative margin, which covers float rounding in the bound
# and the costs and the 1e-9 relative tolerance schedules are checked to
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

    def index_of(self, c: float) -> int:
        """The i with t_i <= c < t_{i+1}."""
        i = int(math.floor((math.log(c) - self.b) / self.a)) + 3
        # float guard: move across a boundary if the formula says so
        while self.t(i + 1) <= c:
            i += 1
        while self.t(i) > c:
            i -= 1
        return i


def grid_from_scale(a: float, b: float, cmax: float) -> IntervalGrid:
    """Build a grid directly from the growth scale a (no epsilon check).

    q is minimal with cmax <= t_q. cmax must be positive, and a small
    enough that the top ceiling 3 t_{q+1} < 3 e^(2a) cmax is a float.
    """
    if a <= 0:
        raise ValueError("scale a must be positive")
    if not 0 <= b <= a:
        raise ValueError(f"offset b must lie in [0, {a}], got {b}")
    if cmax <= 0:
        raise ValueError("cmax must be positive")
    a_max = (math.log(sys.float_info.max) - math.log(3.0 * cmax)) / 2
    if a >= a_max:  # a = 3/epsilon, so this bounds epsilon from below
        raise ValueError(f"epsilon must exceed {3.0 / a_max:.4g} at Cmax {cmax:g}, or t_i overflow")
    breakpoints = []
    i = 1
    while True:
        t_i = math.exp(a * (i - 3) + b)
        breakpoints.append(t_i)
        if cmax <= t_i:
            return IntervalGrid(a, b, tuple(breakpoints))
        i += 1


def _scale_of(epsilon) -> float:
    """Growth scale a = 3/epsilon; rejects epsilon outside (0, 3/ln 3]."""
    eps = float(to_fraction(epsilon))
    if not 0 < eps <= EPS_MAX + 1e-12:
        raise ValueError(
            f"epsilon must lie in (0, 3/ln 3 ~= {EPS_MAX:.4f}], got {eps}: "
            "interval growth e^(3/epsilon) must be at least 3 for block "
            "containment to hold"
        )
    return 3.0 / eps


def build_grid(epsilon, b: float, cmax: float) -> IntervalGrid:
    """Grid for a given epsilon; rejects epsilon outside (0, 3/ln 3].

    The upper limit is what makes each subproblem fit its interval: the
    breakpoint ratio e^(3/epsilon) must be at least 3 so that a bounded
    block starting at 3 t_i can finish by 3 t_{i+1}.
    """
    return grid_from_scale(_scale_of(epsilon), b, cmax)


@dataclass(frozen=True)
class SubInstance:
    """One bounded subproblem: parent jobs `jobs`, floor L = 3 t_i.

    `warm` holds the subsets of the parent LP's cuts, restricted to the
    block and renumbered to block ids, for warm-starting the block's LPs.
    """

    jobs: tuple[int, ...]
    index: int
    floor: float
    beta: float
    instance: Instance
    warm: tuple[tuple[int, ...], ...] = ()


def partition_jobs(instance: Instance, lp: LpSolution, grid: IntervalGrid) -> list[SubInstance]:
    """Split jobs by which grid interval their LP completion falls in.

    Every job lands in exactly one group; empty groups are dropped. Each
    group's release times are lifted to its floor 3 t_i, and precedence
    is restricted to the group (restriction of a transitive relation is
    transitive). Precedence across groups always points forward because
    the LP orders C along precedence; violated means a bug upstream. One
    pass over the precedence pairs both checks and restricts them.

    Each group also carries the parent LP's cut subsets restricted to it,
    renumbered to block ids, nonempty, deduplicated and sorted: every
    subset inequality holds for every schedule, so they are valid cuts
    for the block's LPs once make_cut recomputes their rhs.
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
    beta = math.exp(grid.a)
    for i in sorted(groups):
        ids = tuple(groups[i])
        floor = 3.0 * grid.t(i)
        jobs = tuple(
            Job(instance.jobs[j].p, max(instance.jobs[j].r, floor), instance.jobs[j].w)
            for j in ids
        )
        warm = {tuple(back[j] for j in cut.jobs if block[j] == i) for cut in lp.cuts}
        warm.discard(())
        block_instance = Instance(jobs, frozenset(prec[i]))
        subs.append(SubInstance(ids, i, floor, beta, block_instance, tuple(sorted(warm))))
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


def offset_bounds(instance: Instance, lp: LpSolution, grids) -> tuple[float, ...]:
    """Lower bound on the union cost of each grid's partition.

    Evaluates the parent LP's dual at the releases lifted to each job's
    block floor 3 t_i(j), minus the dual-residual term (see the module
    docstring). No LP is solved.
    """
    n = instance.n
    n_prec = len(instance.prec)
    p = np.array([float(job.p) for job in instance.jobs])
    r = np.array([float(job.r) for job in instance.jobs])
    y = np.minimum(np.asarray(lp.duals, dtype=float), 0.0)
    member = np.zeros((len(lp.cuts), n), dtype=bool)
    for c, cut in enumerate(lp.cuts):
        member[c, list(cut.jobs)] = True
    y_prec, y_cut = y[:n_prec], -y[n_prec:]
    p_cut = member @ p
    # A^T y: cut row c is -p_j on its jobs, precedence row (j, k) is +1 at
    # j and -1 at k; the rows come in sorted pair order, which is j
    # ascending and then each j's successors in order
    heads = np.repeat(np.arange(n), [len(succ) for succ in instance.successors])
    tails = np.fromiter(chain.from_iterable(instance.successors), dtype=np.intp, count=n_prec)
    aty = (
        p * (y_cut @ member)
        + np.bincount(heads, y_prec, minlength=n)
        - np.bincount(tails, y_prec, minlength=n)
    )
    w = np.array([float(job.w) for job in instance.jobs])
    deficit = float(np.maximum(aty - w, 0.0).sum())
    tol = instance.tol()
    bounds = []
    for grid in grids:
        floor = np.array([3.0 * grid.t(grid.index_of(c)) for c in lp.completion])
        r_min = np.where(member, np.maximum(r, floor), np.inf).min(axis=1)
        top = 3.0 * grid.t(grid.q + 1) + tol
        rhs = r_min * p_cut + 0.5 * p_cut * p_cut
        bounds.append(float(y_cut @ rhs) - deficit * top)
    return tuple(bounds)


@dataclass(frozen=True)
class IntervalOutcome:
    """Diagnostics for one solved subproblem."""

    index: int
    jobs: tuple[int, ...]
    floor: float
    ceiling: float
    cost: float
    guesses_tried: int


@dataclass(frozen=True)
class DecomposeResult:
    """The winning offset's schedule and diagnostics.

    `bounds` holds one dual lower bound per entry of `candidates`, and
    `evaluated` the candidate indices whose blocks were solved, in the
    order they were; the others were skipped. Neither enters to_dict.
    """

    schedule: Schedule
    cost: float
    b: float
    grid: IntervalGrid
    candidates: tuple[float, ...]
    intervals: tuple[IntervalOutcome, ...]
    lp: LpSolution
    bounds: tuple[float, ...]
    evaluated: tuple[int, ...]

    def to_dict(self, instance: Instance) -> dict:
        doc = self.schedule.to_dict(instance)
        doc["b"] = self.b
        doc["t"] = [decimal_str(t) for t in self.grid.breakpoints]
        doc["intervals"] = [
            {
                "jobs": list(iv.jobs),
                "cost": decimal_str(iv.cost),
                "floor": decimal_str(iv.floor),
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
    trace_hook,
) -> tuple[Schedule, float, tuple[IntervalOutcome, ...]]:
    tol = instance.tol()
    start = [0.0] * instance.n
    outcomes = []
    for sub in subs:
        res = solve_bounded(
            sub.instance,
            epsilon,
            L=sub.floor,
            beta=sub.beta,
            mode=bounded_mode,
            budget=budget,
            trace_hook=trace_hook,
            warm=sub.warm,
        )
        tight = tighten(res.schedule, sub.instance)
        lo = min(tight.start)
        hi = max(s + job.p for s, job in zip(tight.start, sub.instance.jobs))
        ceiling = 3.0 * grid.t(sub.index + 1)
        if lo < sub.floor - tol or hi > ceiling + tol:
            raise InvariantViolationError(
                f"block {sub.index} escaped its interval: spans [{lo}, {hi}] "
                f"vs [{sub.floor}, {ceiling}]"
            )
        for pos, j in enumerate(sub.jobs):
            start[j] = tight.start[pos]
        outcomes.append(
            IntervalOutcome(
                sub.index,
                sub.jobs,
                sub.floor,
                ceiling,
                schedule_cost(tight, sub.instance),
                res.guesses_tried,
            )
        )
    union = Schedule(tuple(start))
    violations = feasibility_violations(union, instance)
    if violations:
        raise InvariantViolationError(
            f"union of block schedules infeasible for the parent: {violations[0]}"
        )
    return union, schedule_cost(union, instance), tuple(outcomes)


def decompose_and_solve(
    instance: Instance,
    epsilon,
    mode: str = "derandomized",
    seed: Optional[int] = None,
    bounded_mode: str = "exhaustive",
    budget: Optional[int] = None,
    trace_hook=None,
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
        the cheapest result, skipping offsets whose dual bound shows they
        cannot win; random draws a single offset from `seed`.
    bounded_mode, budget :
        Passed through to solve_bounded for each block.
    trace_hook : callable, optional
        Forwarded to solve_bounded (receives per-guess traces).

    Returns
    -------
    DecomposeResult
        Schedule plus offset, grid, per-block diagnostics, the LP, and
        each offset's bound and the evaluation order.
    """
    # reject bad arguments before the parent LP, the costliest step here
    eps = to_fraction(epsilon)
    a = _scale_of(eps)
    if mode not in ("derandomized", "random"):
        raise ValueError(f"unknown mode {mode!r}")
    _check_arguments(bounded_mode, budget)
    lp = solve_lp(instance)
    if instance.n == 0:
        return DecomposeResult(
            Schedule(()), 0.0, 0.0, IntervalGrid(1.0, 0.0, ()), (0.0,), (), lp, (0.0,), (0,)
        )
    cmax = max(lp.completion)
    if mode == "random":
        rng = random.Random(seed)
        candidates = (rng.uniform(0.0, a),)
    else:
        candidates = derandomize_b(lp, a)
    grids = [build_grid(eps, b, cmax) for b in candidates]
    bounds = offset_bounds(instance, lp, grids)

    best = None  # (cost, index, union, outcomes)
    evaluated = []
    for i in sorted(range(len(candidates)), key=lambda i: (bounds[i], i)):
        if best is not None and bounds[i] > best[0] * (1.0 + SKIP_REL):
            log.debug(
                "offset %d (b = %r) skipped: bound %r above best cost %r",
                i, candidates[i], bounds[i], best[0],
            )
            continue
        evaluated.append(i)
        subs = partition_jobs(instance, lp, grids[i])
        union, cost, outcomes = _solve_partition(
            instance, grids[i], subs, eps, bounded_mode, budget, trace_hook
        )
        if best is None or (cost, i) < best[:2]:
            best = cost, i, union, outcomes
    cost, i, union, outcomes = best
    return DecomposeResult(
        union, cost, candidates[i], grids[i], tuple(candidates), outcomes, lp,
        bounds, tuple(evaluated),
    )
