"""List scheduling driven by LP completion times.

The scheduler here is the available-job variant: whenever the machine is
free, start the highest-priority job among those that are released,
unscheduled, and have all predecessors complete. The pipeline never uses
the strict variant (process the list in order, idling if the next listed
job is not yet released); it stays as the documented baseline of
`lpls --ls-variant strict` and `run_pipeline(baselines=True)`, because
it shows what the available-job variant gives up. On the paper's two-job
family at M = 10 it idles until the short weighted job is released and
reaches the optimum 20, where available-job list scheduling starts the
long zero-weight job at time 0 and pays 110.

Priorities come from sorting jobs by LP completion time. Two trace
checkers live here as well: the no-idle-while-available property that
the available-job variant guarantees on release-consistent instances,
and the three per-job busy-interval inequalities that the approximation
analysis rests on.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterable

from .instance import Instance, Schedule, ValidationReport
from .lp import LpSolution, solve_lp

JobOrder = tuple


def list_schedule(instance: Instance, order) -> Schedule:
    """Run the available-job list scheduler.

    Parameters
    ----------
    instance : Instance
        Release times must already be consistent with precedence
        (r_j <= r_k for j preceding k); the no-idle property below is
        only guaranteed then.
    order : sequence of job ids
        Priority list, highest first. Must be a permutation of all jobs
        and should order j before k whenever j precedes k.

    Returns
    -------
    Schedule
        Feasible and tight: at every moment the machine is free, the
        best available job starts immediately.

    Two heaps drive it: `pending` holds the jobs whose predecessors are
    all scheduled, keyed by (release, id), and `ready` those of them
    released by the current time, keyed by priority. Each job enters and
    leaves each heap once, so a run costs O(n log n + |prec|). An idle
    machine jumps to the smallest pending release; jobs on a cycle never
    unlock, which raises ValueError.
    """
    n = instance.n
    if sorted(order) != list(range(n)):
        raise ValueError("order must be a permutation of all job ids")
    tol = instance.tol()
    jobs = instance.jobs
    pos = [0] * n
    for i, j in enumerate(order):
        pos[j] = i
    indeg = [len(instance.predecessors[j]) for j in range(n)]
    pending = [(jobs[j].r, j) for j in range(n) if indeg[j] == 0]
    heapq.heapify(pending)
    ready = []
    start = [0.0] * n
    t = 0.0
    while pending or ready:
        while pending and pending[0][0] <= t + tol:
            _, j = heapq.heappop(pending)
            heapq.heappush(ready, (pos[j], j))
        if not ready:
            # machine idle: the next start can only come from a release
            t = max(t, pending[0][0])
            continue
        _, j = heapq.heappop(ready)
        start[j] = t
        t = t + jobs[j].p
        for k in instance.successors[j]:
            indeg[k] -= 1
            if indeg[k] == 0:
                heapq.heappush(pending, (jobs[k].r, k))
    if any(indeg):
        raise ValueError("precedence relation is not acyclic")
    return Schedule(tuple(start))


def list_schedule_strict(instance: Instance, order) -> Schedule:
    """Schedule jobs in exact list order, idling until each is startable."""
    n = instance.n
    if sorted(order) != list(range(n)):
        raise ValueError("order must be a permutation of all job ids")
    start = [0.0] * n
    t = 0.0
    for j in order:
        t = max(t, float(instance.jobs[j].r))
        start[j] = t
        t += instance.jobs[j].p
    return Schedule(tuple(start))


def order_from_lp(solution: LpSolution, instance: Instance) -> tuple[int, ...]:
    """Topological order sorted by LP completion time.

    A heap-based topological sort keyed on (C_j, j): among jobs whose
    predecessors are all placed, the smallest completion time goes next,
    ties by id. When the LP order constraints hold this reproduces plain
    C-ascending order; precedence wins if float noise inverts a pair.
    """
    n = instance.n
    C = solution.completion
    indeg = [len(instance.predecessors[j]) for j in range(n)]
    heap = [(C[j], j) for j in range(n) if indeg[j] == 0]
    heapq.heapify(heap)
    out = []
    while heap:
        _, j = heapq.heappop(heap)
        out.append(j)
        for k in instance.successors[j]:
            indeg[k] -= 1
            if indeg[k] == 0:
                heapq.heappush(heap, (C[k], k))
    if len(out) != n:
        raise ValueError("precedence relation is not acyclic")
    return tuple(out)


@dataclass(frozen=True)
class LpLsRun:
    """Everything produced by one LP-then-list-schedule pass."""

    schedule: Schedule
    order: tuple[int, ...]
    lp: LpSolution


def lp_ls(instance: Instance, warm: Iterable[Iterable[int]] = ()) -> LpLsRun:
    """Solve the LP, order jobs by completion time, list-schedule.

    The instance must be validated and release-normalized. `warm` is
    passed to solve_lp as its warm-start cut subsets. Returns the
    schedule together with the order and the LP solution it came from.
    """
    lp = solve_lp(instance, warm=warm)
    order = order_from_lp(lp, instance)
    schedule = list_schedule(instance, order)
    return LpLsRun(schedule, order, lp)


def check_ls_property(trace: Schedule, instance: Instance, order) -> ValidationReport:
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
    return ValidationReport(tuple(findings))


def check_busy_interval_bounds(
    trace: Schedule,
    instance: Instance,
    order,
    lp_completion,
    tau: float = 1e-6,
) -> ValidationReport:
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
    return ValidationReport(tuple(findings))
