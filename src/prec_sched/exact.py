"""Exact optimum for small instances, used as ground truth in tests.

Dynamic program over subsets of completed jobs. A state is the set of
jobs already placed; since cost depends on when the set finishes, each
subset keeps a Pareto frontier of (makespan, cost) pairs instead of a
single value. Appending job j to a state with makespan m starts it at
max(m, r_j), which per fixed order is optimal (delaying any start only
raises completion times), so scanning all orders via subsets is exact.

Inputs with integer times stay in exact integer arithmetic throughout,
which lets tests compare against brute force with ==.
"""

from __future__ import annotations

from .instance import Instance, Schedule

EXACT_CAP = 12
# no cap admits more jobs: 2^n frontiers (n = 18, an antichain: 9 s, 150 MB)
EXACT_MAX = 18


class _Entry:
    """One Pareto point: finish at `makespan` having paid `cost`."""

    __slots__ = ("makespan", "cost", "parent", "job", "start")

    def __init__(self, makespan, cost, parent, job, start):
        self.makespan = makespan
        self.cost = cost
        self.parent = parent
        self.job = job
        self.start = start


def _insert(frontier: list, e: _Entry) -> None:
    # frontier kept sorted by makespan ascending, cost strictly descending
    for f in frontier:
        if f.makespan <= e.makespan and f.cost <= e.cost:
            return
    frontier[:] = [f for f in frontier if not (e.makespan <= f.makespan and e.cost <= f.cost)]
    frontier.append(e)
    frontier.sort(key=lambda f: f.makespan)


def exact_opt(instance: Instance, cap: int = EXACT_CAP):
    """Minimum weighted completion time and one optimal schedule.

    Parameters
    ----------
    instance : Instance
        Validated; n must not exceed cap (state count is 2^n).
    cap : int
        Job-count limit for the subset dynamic program, at least 0;
        limits above EXACT_MAX count as EXACT_MAX.

    Returns
    -------
    (cost, Schedule)
    """
    n = instance.n
    if cap < 0:
        raise ValueError(f"exact solver cap must be at least 0, got {cap}")
    cap = min(cap, EXACT_MAX)
    if n > cap:
        raise ValueError(f"exact solver is capped at n = {cap} (got {n})")
    if n == 0:
        return 0, Schedule(())
    preds_mask = instance.masks
    p = [job.p for job in instance.jobs]
    r = [job.r for job in instance.jobs]
    w = [job.w for job in instance.jobs]

    frontiers: list[list[_Entry]] = [[] for _ in range(1 << n)]
    frontiers[0].append(_Entry(0, 0, None, None, None))
    full = (1 << n) - 1
    # ascending masks: every subset is final before any superset reads it
    for mask in range(full):
        fr = frontiers[mask]
        if not fr:
            continue
        free = [j for j in range(n) if not mask >> j & 1 and preds_mask[j] & mask == preds_mask[j]]
        for e in fr:
            for j in free:
                s = e.makespan if e.makespan > r[j] else r[j]
                done = s + p[j]
                _insert(frontiers[mask | 1 << j], _Entry(done, e.cost + w[j] * done, e, j, s))

    best = min(frontiers[full], key=lambda f: f.cost)
    start = [0] * n
    e = best
    while e.job is not None:
        start[e.job] = e.start
        e = e.parent
    return best.cost, Schedule(tuple(start))
