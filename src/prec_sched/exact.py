"""Exact optimum for small instances, used as ground truth in tests.

Dynamic program over ideals, the job sets that hold the predecessors of
each of their jobs: the only sets of placed jobs a feasible order reaches.
Since cost depends on when the set finishes, each ideal keeps a Pareto
frontier of (makespan, cost) pairs instead of a single value. Appending
job j at makespan m starts it at max(m, r_j), which per fixed order is
optimal (delaying any start only raises completion times), so scanning
all orders via ideals is exact. A dense order has few ideals.

Inputs with integer times stay in exact integer arithmetic throughout,
which lets tests compare against brute force with ==.
"""

from __future__ import annotations

from collections import defaultdict

from .instance import Instance, Schedule

EXACT_CAP = 12
# no cap admits more jobs: an antichain has all 2^n ideals (n = 18: 4-8 s, 65 MB)
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
        Validated; n must not exceed cap (up to 2^n ideals, for an antichain).
    cap : int
        Job-count limit for the ideal dynamic program, at least 0;
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
    preds_mask = instance.masks
    p = [job.p for job in instance.jobs]
    r = [job.r for job in instance.jobs]
    w = [job.w for job in instance.jobs]

    # layer: the ideals of k jobs, each with its frontier. An ideal feeds a
    # frontier of the next layer through one job only, so in ascending mask
    # order every frontier is fed as by an ascending scan of all 2^n
    # subsets, and _insert keeps the same entries
    layer = {0: [_Entry(0, 0, None, None, None)]}
    for _ in range(n):
        nxt: dict[int, list[_Entry]] = defaultdict(list)
        for mask in sorted(layer):
            for j in range(n):
                if not mask >> j & 1 and preds_mask[j] & mask == preds_mask[j]:
                    to = nxt[mask | 1 << j]
                    for e in layer[mask]:
                        s = e.makespan if e.makespan > r[j] else r[j]
                        done = s + p[j]
                        _insert(to, _Entry(done, e.cost + w[j] * done, e, j, s))
        layer = nxt

    best = min(layer[(1 << n) - 1], key=lambda f: f.cost)
    start = [0] * n
    e = best
    while e.job is not None:
        start[e.job] = e.start
        e = e.parent
    return best.cost, Schedule(tuple(start))
