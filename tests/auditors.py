"""Auditors of the guarantees the solver's analysis rests on.

Unlike the oracles, these do not recompute an answer: they check a
property of one the package produced. List-scheduling traces are audited
for the no-idle-while-available property and the three busy-interval
inequalities, LP solutions for the subset lemmas, and exact optima for
the grid shift and the per-block accounting behind the decomposition.
`feasibility_violations_pairwise` checks every pair of jobs for overlap,
the reference the package's start-order sweep is tested against, and
`guess_traces` records the block solver's per-guess runs for auditing.
"""

from __future__ import annotations

import math
import random
from contextlib import contextmanager
from fractions import Fraction

import prec_sched.bounded
import prec_sched.listsched
from prec_sched.decompose import IntervalGrid, partition_jobs
from prec_sched.exact import exact_opt
from prec_sched.instance import Instance, Schedule
from prec_sched.listsched import LpLsRun
from prec_sched.lp import TAU_LP, LpSolution, solve_lp
from .oracles import closure_by_squaring


def feasibility_violations_pairwise(schedule: Schedule, instance: Instance) -> list[str]:
    """feasibility_violations with the overlap check over all pairs."""
    tol = instance.tol()
    out: list[str] = []
    start = schedule.start
    comp = schedule.completion(instance)
    for j, job in enumerate(instance.jobs):
        if start[j] < job.r - tol:
            out.append(f"job {j} starts at {start[j]} before release {job.r}")
    for j in range(instance.n):
        for k in range(j + 1, instance.n):
            if start[j] < comp[k] - tol and start[k] < comp[j] - tol:
                out.append(f"jobs {j} and {k} overlap")
    for j, k in sorted(closure_by_squaring(instance.prec, instance.n)):
        if start[k] < comp[j] - tol:
            out.append(f"job {k} starts at {start[k]} before predecessor {j} completes at {comp[j]}")
    return out


def check_ls_property(trace: Schedule, instance: Instance, order) -> tuple[str, ...]:
    """Check the no-idle-while-available property of a list-scheduling trace.

    At every event time t at which the machine is available and some job
    j is released but starts strictly later, a job with priority at
    least j's must start exactly at t, up to the instance's tolerance.
    Violations are reported; a trace from list_schedule on a
    release-consistent instance yields none.
    """
    tol = instance.tol()
    n = instance.n
    pos = [0] * n
    for i, j in enumerate(order):
        pos[j] = i
    start = trace.start
    comp = trace.completion(instance)
    events = sorted({0.0} | {float(instance.jobs[j].r) for j in range(n)} | set(start) | set(comp))
    findings = []
    for t in events:
        busy = any(start[h] < t - tol and t < comp[h] - tol for h in range(n))
        if busy:
            continue
        waiting = [
            j
            for j in range(n)
            if instance.jobs[j].r <= t + tol and start[j] > t + tol
        ]
        if not waiting:
            continue
        best = min(pos[j] for j in waiting)
        starts_now = [h for h in range(n) if abs(start[h] - t) <= tol]
        if not any(pos[h] <= best for h in starts_now):
            j = min(waiting, key=lambda x: pos[x])
            findings.append(
                f"machine free at t = {t} with job {j} released and unstarted, "
                "but no job of its priority or higher starts then"
            )
    return tuple(findings)


def check_busy_interval_bounds(
    trace: Schedule,
    instance: Instance,
    order,
    lp_completion,
    tau: float = 1e-6,
) -> tuple[str, ...]:
    """Check the three busy-interval inequalities on every job of a trace.

    For each job j, let t be the smallest time such that [t, C_j^sigma]
    contains no idle time and only jobs of priority at most j's, and let
    U be the jobs processed in that window. The trace must satisfy

        C_j^sigma <= t + 2 C_j - 2 r_min(U)

    and additionally, if no job completes at t, C_j^sigma <= 2 C_j;
    if some job k (necessarily of lower priority) completes at t, then
    r_min(U) > start of k.

    lp_completion must be the LP values for the same instance the trace
    was produced on (the adjusted one when release times were lifted).
    """
    tol = instance.tol()
    n = instance.n
    pos = [0] * n
    for i, j in enumerate(order):
        pos[j] = i
    start = trace.start
    comp = trace.completion(instance)
    segs = sorted((start[j], comp[j], j) for j in range(n))
    at = {j: idx for idx, (_, _, j) in enumerate(segs)}
    findings = []
    for j in range(n):
        idx = at[j]
        first = idx
        while first > 0:
            ps, pc, ph = segs[first - 1]
            if pc < segs[first][0] - tol:
                break  # idle gap
            if pos[ph] > pos[j]:
                break  # lower-priority job would enter the window
            first -= 1
        t = segs[first][0]
        U = [segs[i][2] for i in range(first, idx + 1)]
        r_min = min(float(instance.jobs[h].r) for h in U)
        c_sigma = comp[j]
        c_lp = float(lp_completion[j])
        if c_sigma > t + 2.0 * c_lp - 2.0 * r_min + tau:
            findings.append(
                f"job {j}: completion {c_sigma} exceeds t + 2C - 2rmin = "
                f"{t + 2.0 * c_lp - 2.0 * r_min}"
            )
        closer = [h for h in range(n) if abs(comp[h] - t) <= tol]
        if not closer:
            if c_sigma > 2.0 * c_lp + tau:
                findings.append(
                    f"job {j}: window opens at idle time {t} yet completion "
                    f"{c_sigma} exceeds twice the LP value {c_lp}"
                )
        else:
            k = closer[0]
            if r_min <= start[k] - tol:
                findings.append(
                    f"job {j}: window opens at completion of job {k} but "
                    f"r_min(U) = {r_min} does not exceed its start {start[k]}"
                )
    return tuple(findings)


def check_lp_lemmas(
    solution: LpSolution,
    instance: Instance,
    tau: float = TAU_LP,
    subset_samples: int = 2000,
) -> tuple[str, ...]:
    """Verify the two subset-family consequences on a converged solution.

    Checks, up to tau: the per-job lower bound C_j >= r_j + p_j/2
    (singleton cuts) and p(U) <= 2 C_max(U) - 2 r_min(U) for a family of
    subsets U (every nonempty subset when n <= 12, otherwise a seeded
    sample of `subset_samples` subsets). Findings name each violation.
    """
    findings = []
    C = solution.completion
    for j, job in enumerate(instance.jobs):
        lb = float(job.r) + float(job.p) / 2.0
        if C[j] < lb - tau:
            findings.append(
                f"job {j}: C = {C[j]} below release-plus-half-processing bound {lb}"
            )

    n = instance.n
    if n <= 12:
        masks = range(1, 1 << n)
    else:
        rng = random.Random(0x5E9A + n)
        masks = (rng.randrange(1, 1 << n) for _ in range(subset_samples))
    p = [float(job.p) for job in instance.jobs]
    r = [float(job.r) for job in instance.jobs]
    for mask in masks:
        ps = 0.0
        rm = math.inf
        cm = -math.inf
        m = mask
        while m:
            low = m & -m
            j = low.bit_length() - 1
            m ^= low
            ps += p[j]
            if r[j] < rm:
                rm = r[j]
            if C[j] > cm:
                cm = C[j]
        if ps > 2.0 * cm - 2.0 * rm + tau:
            jobs = tuple(j for j in range(n) if mask >> j & 1)
            findings.append(
                f"subset {jobs}: total processing {ps} exceeds 2*Cmax - 2*rmin = {2 * cm - 2 * rm}"
            )
    return tuple(findings)


def grid_shift(schedule: Schedule, instance: Instance, epsilon) -> Schedule:
    """Move each start up to the next multiple of eps * p_j, in completion
    order, pushing later jobs right as needed.

    This is the transformation that relates an arbitrary tight optimum to
    the gridded near-optimum the guesses describe; tests verify on exact
    optimal schedules that it stretches no completion by more than a
    factor (1 + eps).
    """
    eps = Fraction(epsilon)
    n = instance.n
    order = sorted(range(n), key=lambda j: (schedule.start[j] + instance.jobs[j].p, j))
    new_start = [Fraction(0)] * n
    prev_end = Fraction(0)
    for j in order:
        step = eps * instance.jobs[j].p
        lb = max(Fraction(schedule.start[j]), prev_end)
        m = -(-lb // step)  # ceil division on Fractions
        new_start[j] = m * step
        prev_end = new_start[j] + instance.jobs[j].p
    return Schedule(tuple(new_start))


def subproblem_optimum_sum(
    instance: Instance, lp: LpSolution, grid: IntervalGrid, cap: int = 12
) -> float:
    """Sum over blocks of the exact optimum of each block instance.

    The quantity whose expectation over a uniform offset stays within
    (1 + eps) of the parent optimum; tests average it over many draws.
    """
    subs = partition_jobs(instance, lp, grid)
    return float(sum(exact_opt(sub.instance, cap)[0] for sub in subs))


def grid_floor_values(lp: LpSolution, grid: IntervalGrid) -> tuple[float, ...]:
    """Per job, the breakpoint t_i of the interval holding its C_j."""
    return tuple(grid.t(grid.index_of(c)) for c in lp.completion)


def exact_contribution(instance: Instance, optimal: Schedule, subset) -> float:
    """Weighted completion mass of `subset` inside the given schedule."""
    comp = optimal.completion(instance)
    return sum(instance.jobs[j].w * comp[j] for j in subset)


@contextmanager
def guess_traces():
    """Record (guess, lifted instance, LpLsRun) for every guess the block
    solver runs to a schedule, inside the `with` block.

    Wraps the module-level names prec_sched.bounded looks its two lifts
    and lp_ls up by on each call, and prec_sched.listsched.list_schedule,
    by which the solver schedules a chain without an LP. The list goes to
    the `with` target. A record pairs a lift with the lp_ls call made on
    its very result; a guess whose LP fails leaves none. On a chain it
    pairs the lift with the list_schedule call on its result, and the
    record's LP is solved here, so that a chain's schedule is audited
    against the LP value too.
    """
    module = prec_sched.bounded
    saved = {
        name: getattr(module, name)
        for name in ("adjust_release_times", "adjust_release_times_typed", "lp_ls")
    }
    saved_list_schedule = prec_sched.listsched.list_schedule
    traces = []
    last = []  # the latest (guess, lifted instance), until it is scheduled

    def lift(name):
        def wrapper(instance, guess, *args):
            adjusted = saved[name](instance, guess, *args)
            last[:] = [(guess, adjusted)]
            return adjusted

        return wrapper

    def lp_ls(instance, *args, **kwargs):
        # taken first: lp_ls schedules through the list_schedule wrapper below
        lifted = last.pop() if last and last[0][1] is instance else None
        run = saved["lp_ls"](instance, *args, **kwargs)
        if lifted:
            traces.append((*lifted, run))
        return run

    def list_schedule(instance, order):
        schedule = saved_list_schedule(instance, order)
        if last and last[0][1] is instance:
            traces.append((*last.pop(), LpLsRun(schedule, tuple(order), solve_lp(instance))))
        return schedule

    module.adjust_release_times = lift("adjust_release_times")
    module.adjust_release_times_typed = lift("adjust_release_times_typed")
    module.lp_ls = lp_ls
    prec_sched.listsched.list_schedule = list_schedule
    try:
        yield traces
    finally:
        for name, fn in saved.items():
            setattr(module, name, fn)
        prec_sched.listsched.list_schedule = saved_list_schedule
