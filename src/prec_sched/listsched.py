"""List scheduling driven by LP completion times.

The scheduler here is the available-job variant: whenever the machine is
free, start the highest-priority job among those that are released,
unscheduled, and have all predecessors complete. The pipeline never uses
the strict variant (process the list in order, idling if the next listed
job is not yet released); it stays only as the baseline behind
`lpls --ls-variant strict`, because it shows what the available-job
variant gives up. On the paper's two-job family at M = 10 it idles until
the short weighted job is released and reaches the optimum 20, where
available-job list scheduling starts the long zero-weight job at time 0
and pays 110.

Priorities come from sorting jobs by LP completion time.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterable

from .instance import Instance, Schedule, successor_lists
from .lp import LpSolution, solve_lp


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
    leaves each heap once, so a run costs O(n log n + |prec|). A job
    unlocks with its predecessors in prec, which hold its cover
    predecessors. An idle machine jumps to the smallest pending release;
    jobs on a cycle never unlock, which raises ValueError.
    """
    n = instance.n
    if sorted(order) != list(range(n)):
        raise ValueError("order must be a permutation of all job ids")
    tol = instance.tol()
    jobs = instance.jobs
    pos = [0] * n
    for i, j in enumerate(order):
        pos[j] = i
    succs, indeg = successor_lists(instance)
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
        for k in succs[j]:
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
    succs, indeg = successor_lists(instance)
    heap = [(C[j], j) for j in range(n) if indeg[j] == 0]
    heapq.heapify(heap)
    out = []
    while heap:
        _, j = heapq.heappop(heap)
        out.append(j)
        for k in succs[j]:
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
