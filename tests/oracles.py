"""Independent reference implementations used to derive expected values.

Everything here is written against the problem statements directly, in a
deliberately different style from the package (matrix powering instead
of DFS, permutation enumeration instead of a subset DP, one-rule-at-a-
time fixpoint loops instead of staged passes), so agreement between the
two sides is a meaningful check rather than the same code run twice.
The eager offset search is the exception: it runs the package's own
block solver, and differs only in the order of its work.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import random
from fractions import Fraction

from prec_sched.decompose import (
    SKIP_REL,
    DecomposeResult,
    _solve_partition,
    _tighten_union,
    build_grid,
    derandomize_b,
    partition_jobs,
)
from prec_sched.lp import solve_lp


def frac(x) -> Fraction:
    return Fraction(*x.as_integer_ratio()) if isinstance(x, float) else Fraction(x)


def closure_by_squaring(pairs, n: int) -> set:
    """Transitive closure by squaring the boolean adjacency matrix."""
    reach = [[False] * n for _ in range(n)]
    for j, k in pairs:
        reach[j][k] = True
    while True:
        nxt = [row[:] for row in reach]
        for i in range(n):
            for k in range(n):
                if reach[i][k]:
                    for j in range(n):
                        if reach[k][j]:
                            nxt[i][j] = True
        if nxt == reach:
            return {(i, j) for i in range(n) for j in range(n) if reach[i][j]}
        reach = nxt


def transitive_reduction_ref(pairs, n: int) -> set:
    """The pairs of a DAG that do not follow from the others: each pair is
    dropped in turn and kept only if re-closing the rest does not bring it
    back."""
    pairs = set(pairs)
    return {e for e in pairs if e not in closure_by_squaring(pairs - {e}, n)}


def predecessors_ref(instance) -> list:
    """Each job's set of predecessors in the closure of the instance's pairs."""
    preds = [set() for _ in range(instance.n)]
    for j, k in closure_by_squaring(instance.prec, instance.n):
        preds[k].add(j)
    return preds


def precedence_findings_ref(pairs, n: int) -> list:
    """validate's precedence findings, derived from the full closure.

    Out-of-range and reflexive pairs in sorted order; failing those, the
    bare "precedence cycle" if the closure relates some job to itself
    (which cycle to name is the implementation's choice), else none.
    """
    pairs = set(pairs)
    findings = []
    for j, k in sorted(pairs):
        if not (0 <= j < n and 0 <= k < n):
            findings.append(f"precedence pair ({j}, {k}) out of range")
        elif j == k:
            findings.append(f"precedence pair ({j}, {j}) is reflexive")
    if findings:
        return findings
    if any(j == k for j, k in closure_by_squaring(pairs, n)):
        return ["precedence cycle"]
    return []


def brute_force_opt(instance):
    """Minimum cost over every precedence-feasible order, greedy timing.

    Integer instances stay in integer arithmetic, so the result can be
    compared with == against the subset dynamic program.
    """
    n = instance.n
    prec = sorted(instance.prec)
    best = None
    best_start = None
    for perm in itertools.permutations(range(n)):
        pos = [0] * n
        for i, j in enumerate(perm):
            pos[j] = i
        if any(pos[j] > pos[k] for j, k in prec):
            continue
        t = 0
        cost = 0
        start = [0] * n
        for j in perm:
            job = instance.jobs[j]
            s = t if t > job.r else job.r
            start[j] = s
            t = s + job.p
            cost += job.w * t
        if best is None or cost < best:
            best = cost
            best_start = tuple(start)
    return best, best_start


@dataclasses.dataclass
class _SubsetEntry:
    makespan: object
    cost: object
    parent: object
    job: object
    start: object


def _pareto_insert(frontier: list, e: _SubsetEntry) -> None:
    # sorted by makespan ascending; a point no better in both is dropped
    if any(f.makespan <= e.makespan and f.cost <= e.cost for f in frontier):
        return
    frontier[:] = [f for f in frontier if not (e.makespan <= f.makespan and e.cost <= f.cost)]
    frontier.append(e)
    frontier.sort(key=lambda f: f.makespan)


def exact_opt_subsets(instance):
    """The exact dynamic program as a scan of all 2^n job subsets in
    ascending mask order, every subset keeping a Pareto frontier of
    (makespan, cost) points; returns (cost, start tuple).

    The order in which a frontier receives its points fixes which of
    several optimal schedules comes back, so this pins exact_opt's
    schedule, not only its cost.
    """
    n = instance.n
    preds = instance.masks
    frontiers = [[] for _ in range(1 << n)]
    frontiers[0].append(_SubsetEntry(0, 0, None, None, None))
    for mask in range((1 << n) - 1):
        free = [j for j in range(n) if not mask >> j & 1 and preds[j] & mask == preds[j]]
        for e in frontiers[mask]:
            for j in free:
                job = instance.jobs[j]
                s = e.makespan if e.makespan > job.r else job.r
                done = s + job.p
                _pareto_insert(frontiers[mask | 1 << j], _SubsetEntry(done, e.cost + job.w * done, e, j, s))
    best = min(frontiers[-1], key=lambda f: f.cost)
    start = [0] * n
    e = best
    while e.job is not None:
        start[e.job] = e.start
        e = e.parent
    return best.cost, tuple(start)


def reference_list_schedule(instance, order):
    """Second implementation of the available-job scheduler.

    Advances time release by release while nothing can run, instead of
    jumping straight to the next feasible release.
    """
    rank = {j: i for i, j in enumerate(order)}
    n = instance.n
    preds = predecessors_ref(instance)
    unscheduled = set(range(n))
    done = {}
    start = [0.0] * n
    t = 0.0
    while unscheduled:
        can_run = [
            j
            for j in unscheduled
            if instance.jobs[j].r <= t
            and all(h in done and done[h] <= t for h in preds[j])
        ]
        if can_run:
            j = min(can_run, key=rank.__getitem__)
            start[j] = t
            done[j] = t + instance.jobs[j].p
            t = done[j]
            unscheduled.remove(j)
        else:
            future = sorted(
                float(instance.jobs[j].r) for j in unscheduled if instance.jobs[j].r > t
            )
            t = future[0]
    return tuple(start)


def naive_adjust(instance, floors, intervals):
    """Least fixpoint of the release-lift rules, one fix per sweep.

    floors: per-job lower bound on the adjusted release (the per-guess
    rule already folded in). intervals: open spans no adjusted release
    may fall strictly inside; offenders move to the right endpoint. Each
    sweep collects every violated rule application and applies only the
    last one found, so the iteration order differs on purpose from the
    package's staged passes; the least fixpoint is the same.
    """
    n = instance.n
    r = [frac(instance.jobs[j].r) for j in range(n)]
    for _ in range(100_000):
        fixes = []
        for j in range(n):
            if r[j] < floors[j]:
                fixes.append((j, floors[j]))
        for j, k in sorted(instance.prec):
            if r[k] < r[j]:
                fixes.append((k, r[j]))
        for j in range(n):
            for lo, hi in intervals:
                if lo < r[j] < hi:
                    fixes.append((j, hi))
        if not fixes:
            return r
        j, value = fixes[-1]
        r[j] = value
    raise AssertionError("reference fixpoint failed to stabilize")


def log2_ceil(x: Fraction) -> int:
    """Smallest integer e with 2**e >= x, for x >= 1, in exact arithmetic."""
    e = 0
    v = Fraction(1)
    while v < x:
        v *= 2
        e += 1
    return e


def enumerate_guesses_ref(instance, epsilon, beta):
    """Every admissible early-set guess, by recursion over job ids.

    Returns canonical forms: tuples of (job, start) pairs sorted by job.
    Admissible means: each start is a multiple of eps * p_j, below p_j,
    at or above the job's release; open processing spans are pairwise
    disjoint; guessed starts respect precedence within the set; the set
    has at most ceil(log2((1 + eps) * beta)) jobs.
    """
    eps = frac(epsilon)
    bound = log2_ceil((1 + eps) * frac(beta))
    n = instance.n
    prec = closure_by_squaring(instance.prec, n)

    def grid(j):
        p = instance.jobs[j].p
        out = []
        s = Fraction(0)
        while s < p:
            if s >= instance.jobs[j].r:
                out.append(s)
            s += eps * frac(p)
        return out

    def admissible(chosen):
        for (j, sj), (k, sk) in itertools.combinations(chosen, 2):
            ej = sj + instance.jobs[j].p
            ek = sk + instance.jobs[k].p
            if sj < ek and sk < ej:
                return False
            if (j, k) in prec and ej > sk:
                return False
            if (k, j) in prec and ek > sj:
                return False
        return True

    out = set()

    def descend(next_id, room, chosen):
        if admissible(chosen):
            out.add(chosen)
        if room == 0:
            return
        for j in range(next_id, n):
            for s in grid(j):
                descend(j + 1, room - 1, chosen + ((j, s),))

    descend(0, min(bound, n), ())
    return out


def job_types(instance, epsilon) -> tuple:
    """Size class of each job: the exponent i with (1 + eps)**i >= p_j
    minimal, by repeated multiplication in exact arithmetic. On an instance
    rounded with the same epsilon, p_j equals its class's power."""
    base = 1 + frac(epsilon)
    types = []
    for job in instance.jobs:
        i, v = 0, Fraction(1)
        while v < frac(job.p):
            v *= base
            i += 1
        types.append(i)
    return tuple(types)


def round_processing(instance, epsilon):
    """The instance with each processing time rounded up to its class's
    power (1 + eps)**i, i from job_types, as an exact rational; releases,
    weights and precedence unchanged. The typed lift is checked against
    this rounding."""
    base = 1 + frac(epsilon)
    types = job_types(instance, epsilon)
    return instance.with_jobs(
        tuple(dataclasses.replace(job, p=base**i) for i, job in zip(types, instance.jobs))
    )


def enumerate_type_guesses_ref(instance, epsilon, L, beta):
    """Admissible class-level guesses of a rounded instance, recursively.

    Returns canonical forms: tuples of (type, start) pairs sorted by
    type. A class is its exponent i with (1 + eps)**i the smallest power
    at or above the job's processing time; only classes present in the
    instance with L < (1 + eps)**i < (1 + eps)**2 * beta * L may carry an
    early job, at most ceil(log2((1 + eps) * beta)) of them at once.
    """
    eps = frac(epsilon)
    base = 1 + eps
    Lf = frac(L)
    hi = base * base * frac(beta) * Lf
    bound = log2_ceil((1 + eps) * frac(beta))
    types = job_types(instance, eps)
    eligible = sorted(i for i in set(types) if Lf < base**i < hi)

    def grid(i):
        size = base**i
        r_min = min(
            frac(instance.jobs[j].r) for j in range(instance.n) if types[j] == i
        )
        out = []
        s = Fraction(0)
        while s < size:
            if s >= r_min:
                out.append(s)
            s += eps * size
        return out

    def admissible(chosen):
        for (i, si), (k, sk) in itertools.combinations(chosen, 2):
            ei = si + base**i
            ek = sk + base**k
            if si < ek and sk < ei:
                return False
        return True

    out = set()

    def descend(next_pos, room, chosen):
        if admissible(chosen):
            out.add(chosen)
        if room == 0:
            return
        for pos in range(next_pos, len(eligible)):
            i = eligible[pos]
            for s in grid(i):
                descend(pos + 1, room - 1, chosen + ((i, s),))

    descend(0, min(bound, len(eligible)), ())
    return out


def subset_rhs_ref(instance, jobs) -> Fraction:
    """The subset inequality's right-hand side r_min(U) p(U) + p(U)^2/2
    for U = set(jobs), in exact rational arithmetic."""
    members = set(jobs)
    load = sum((frac(instance.jobs[j].p) for j in members), Fraction(0))
    earliest = min(frac(instance.jobs[j].r) for j in members)
    return earliest * load + load * load / 2


def separate_exhaustive_ref(C, instance, tau):
    """Most violated subset constraint by scanning itertools.combinations.

    Returns (subset, violation) or None. Ties resolved by the scan order
    (size ascending, lexicographic), which may differ from the package's
    lowest-mask rule; compare violations, not identities.
    """
    n = instance.n
    best = None
    for size in range(1, n + 1):
        for subset in itertools.combinations(range(n), size):
            p_total = sum(instance.jobs[j].p for j in subset)
            r_min = min(instance.jobs[j].r for j in subset)
            lhs = sum(instance.jobs[j].p * C[j] for j in subset)
            v = r_min * p_total + p_total * p_total / 2.0 - lhs
            if v > tau and (best is None or v > best[1]):
                best = (subset, v)
    return best


def tighten_ref(instance, start):
    """Left-shift jobs to a fixpoint, jumping over blocking jobs directly.

    Jobs are visited leftmost start first, like the package does: single
    shifts do not commute (a job can hop into a gap ahead of another), so
    the sweep order is part of the operation's definition. The per-job
    minimal-start computation is what differs here.
    """
    n = instance.n
    preds = predecessors_ref(instance)
    start = list(start)
    moved = True
    while moved:
        moved = False
        for j in sorted(range(n), key=lambda i: (start[i], i)):
            lb = instance.jobs[j].r
            for h in preds[j]:
                lb = max(lb, start[h] + instance.jobs[h].p)
            while True:
                clash = [
                    k
                    for k in range(n)
                    if k != j
                    and lb < start[k] + instance.jobs[k].p
                    and start[k] < lb + instance.jobs[j].p
                ]
                if not clash:
                    break
                lb = max(start[k] + instance.jobs[k].p for k in clash)
            if lb < start[j]:
                start[j] = lb
                moved = True
    return tuple(start)


def partition_signature(C, a, b):
    """Interval index i of each completion value, t_i <= c < t_{i+1} with
    t_i = e^(a(i-3)+b): the log formula, then moved across a boundary
    where the rounded log put c on the wrong side of a breakpoint."""

    def t(i):
        return math.exp(a * (i - 3) + b)

    def index(c):
        i = int(math.floor((math.log(c) - b) / a)) + 3
        while t(i + 1) <= c:
            i += 1
        while t(i) > c:
            i -= 1
        return i

    return tuple(index(c) for c in C)


def decompose_eager(instance, epsilon, mode="derandomized", seed=None, bounded_mode="exhaustive"):
    """decompose_and_solve on a nonempty instance with every candidate
    offset partitioned and given its block bound before any block is
    solved, then evaluated in (bound, index) order, abandoning an offset
    once it cannot win and stopping at the first abandoned before its
    first block. Its `bounds` holds every candidate's block bound."""
    eps = Fraction(epsilon)
    a = 3.0 / float(eps)
    lp = solve_lp(instance)
    cmax = max(lp.completion)
    if mode == "random":
        candidates = (random.Random(seed).uniform(0.0, a),)
    else:
        candidates = derandomize_b(lp, a)
    grids = [build_grid(eps, b, cmax) for b in candidates]
    partitions = [partition_jobs(instance, lp, grid) for grid in grids]
    slack = instance.n * instance.tol() * sum(instance.floats[2])
    bounds = [sum(sub.value for sub in subs) - slack for subs in partitions]
    best = None  # (cost, index, union, outcomes)
    evaluated = []
    for i in sorted(range(len(candidates)), key=lambda i: (bounds[i], i)):
        limit = math.inf if best is None else best[0] * (1.0 + SKIP_REL) + slack
        union, cost, outcomes = _solve_partition(
            instance, grids[i], partitions[i], eps, bounded_mode, None, limit
        )
        if outcomes:
            evaluated.append(i)
        if union is None:
            if not outcomes:
                break
        elif best is None or (cost, i) < best[:2]:
            best = cost, i, union, outcomes
    cost, i, union, outcomes = best
    schedule, tight_cost = _tighten_union(instance, union, cost)
    return DecomposeResult(
        schedule, tight_cost, union, grids[i], candidates, outcomes, lp, tuple(bounds),
        tuple(evaluated),
    )
