"""Guess-and-solve algorithm for bounded instances.

A bounded instance has every release time at least L > 0 and every tight
schedule finishing by beta * L. On such instances the LP-then-list-
schedule pass loses its guarantee only because of jobs that start before
their own processing time ("early" jobs). There are few of them: any
early job more than doubles its start by completing, so at most
ceil(log2((1+eps) beta)) fit between L and (1+eps) beta L.

The algorithm therefore enumerates guesses: which jobs are early and, on
a grid of multiples of eps * p_j below p_j, where each starts. For every
guess the release times are lifted so that the LP and the list scheduler
are steered to respect it:

    (b) guessed-early jobs get r'_j >= guessed start
    (c) every other job gets r'_j >= p_j
    (d) r'_j <= r'_k whenever j precedes k
    (e) no r'_j may fall strictly inside a guessed early-processing
        interval ]S'_j, S'_j + p_j[; offenders move to its right end

Rules (d) and (e) can re-trigger each other, so they run to a least
fixpoint. Lifting never loses feasible schedules of the guessed optimum,
and candidates are scored against the original release times, so wrong
guesses only produce worse candidates, never unsound ones.

Grid start times are exact rationals: guess identity must not depend on
float rounding. A fast mode rounds processing times up to powers of
(1+eps) first and guesses per rounded-size class instead of per job.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, islice, product
from typing import Callable, Iterable, Iterator, Optional

from .errors import InvariantViolationError, SchedulingError, ValidationError
from .instance import Instance, Job, Schedule, is_feasible, schedule_cost
from .listsched import LpLsRun, lp_ls

log = logging.getLogger(__name__)

N_GUESS = 10


def to_fraction(x) -> Fraction:
    """Exact rational from int, str ("1/2", "0.25"), Fraction, or float."""
    if isinstance(x, float):
        return Fraction(*x.as_integer_ratio())
    return Fraction(x)


def early_bound(epsilon, beta) -> int:
    """Largest possible number of early jobs: ceil(log2((1+eps) beta))."""
    eps = to_fraction(epsilon)
    return math.ceil(math.log2(float((1 + eps) * to_fraction(beta))) - 1e-12)


@dataclass(frozen=True)
class Guess:
    """Hypothesis: exactly `jobs` are early, job jobs[i] starting at starts[i]."""

    jobs: tuple[int, ...]
    starts: tuple[Fraction, ...]

    def to_dict(self) -> dict:
        return {
            "jobs": list(self.jobs),
            "starts": [str(s) for s in self.starts],
        }


@dataclass(frozen=True)
class TypeGuess:
    """Hypothesis per processing-size class: classes in `types` have an
    early job, the smallest start among class i's jobs being starts[i]."""

    types: tuple[int, ...]
    starts: tuple[Fraction, ...]

    def to_dict(self) -> dict:
        return {
            "types": list(self.types),
            "starts": [str(s) for s in self.starts],
        }


EMPTY_GUESS = Guess((), ())


def _start_grid(p, eps: Fraction) -> list[Fraction]:
    # multiples m * eps * p with m * eps < 1, i.e. candidate starts below p
    out = []
    m = 0
    while m * eps < 1:
        out.append(m * eps * to_fraction(p))
        m += 1
    return out


def _check_budget(budget: Optional[int]) -> None:
    if budget is not None and budget < 0:
        raise ValueError(f"guess budget must be nonnegative, got {budget}")


def enumerate_guesses(
    instance: Instance,
    epsilon,
    beta,
    budget: Optional[int] = None,
    stats: Optional[dict] = None,
) -> Iterator[Guess]:
    """Yield every admissible guess, empty guess first, deterministically.

    A guess assigns each chosen job a start that is a multiple of
    eps * p_j below p_j. Guesses that cannot describe any feasible
    schedule are skipped and counted in `stats`: a start below the job's
    release time, two early processing intervals overlapping, or ordered
    jobs j preceding k with S'_j + p_j > S'_k. The set size is capped by
    early_bound(epsilon, beta). `budget` (nonnegative) truncates the
    stream after that many yields; `stats` then counts only up to the
    last guess yielded.
    """
    eps = to_fraction(epsilon)
    if eps <= 0:
        raise ValueError("epsilon must be positive")
    _check_budget(budget)
    if stats is None:
        stats = {}
    stats.update(yielded=0, pruned_release=0, pruned_overlap=0, pruned_prec=0)
    yield from islice(_guesses(instance, eps, beta, stats), budget)


def _guesses(instance: Instance, eps: Fraction, beta, stats: dict) -> Iterator[Guess]:
    n = instance.n
    cap = min(early_bound(eps, beta), n)
    stats["yielded"] += 1
    yield EMPTY_GUESS

    options: list[list[Fraction]] = []
    for j in range(n):
        grid = _start_grid(instance.jobs[j].p, eps)
        keep = [s for s in grid if s >= instance.jobs[j].r]
        stats["pruned_release"] += len(grid) - len(keep)
        options.append(keep)

    prec = instance.prec
    for size in range(1, cap + 1):
        for subset in combinations(range(n), size):
            if any(not options[j] for j in subset):
                continue
            for starts in product(*(options[j] for j in subset)):
                span = sorted(
                    (starts[i], starts[i] + instance.jobs[j].p)
                    for i, j in enumerate(subset)
                )
                if any(span[i][1] > span[i + 1][0] for i in range(len(span) - 1)):
                    stats["pruned_overlap"] += 1
                    continue
                at = dict(zip(subset, starts))
                if any(
                    (j, k) in prec and at[j] + instance.jobs[j].p > at[k]
                    for j in subset
                    for k in subset
                    if j != k
                ):
                    stats["pruned_prec"] += 1
                    continue
                stats["yielded"] += 1
                yield Guess(subset, starts)


def _fixpoint_dc(instance: Instance, floor, intervals):
    """Lift releases to `floor`, then iterate order-consistency and the
    interval-avoidance push to a least fixpoint. Returns new releases."""
    n = instance.n
    r = [max(instance.jobs[j].r, floor[j]) for j in range(n)]
    pairs = sorted(instance.prec)
    for _ in range(2 + n * n * max(1, len(intervals))):
        changed = False
        for j, k in pairs:
            if r[k] < r[j]:
                r[k] = r[j]
                changed = True
        for j in range(n):
            for s, e in intervals:
                if s < r[j] < e:
                    r[j] = e
                    changed = True
        if not changed:
            return r
    raise InvariantViolationError(
        "release-time adjustment did not reach a fixpoint within its round cap"
    )


def _assert_adjusted(instance: Instance, r, floor, intervals) -> None:
    for j in range(instance.n):
        if r[j] < instance.jobs[j].r or r[j] < floor[j]:
            raise InvariantViolationError(f"adjusted release of job {j} below its floor")
        if any(s < r[j] < e for s, e in intervals):
            raise InvariantViolationError(f"adjusted release of job {j} inside an early interval")
    for j, k in instance.prec:
        if r[j] > r[k]:
            raise InvariantViolationError(
                f"adjusted releases violate order consistency on ({j}, {k})"
            )


def adjust_release_times(instance: Instance, guess: Guess) -> Instance:
    """Minimal release lift realizing rules (b)-(e) for this guess.

    Rule floors: guessed start for guessed-early jobs, own processing
    time for the rest; then order consistency and the push out of early
    intervals run alternately until stable. Raises if the round cap is
    hit or the result violates any rule (both would be bugs).
    """
    n = instance.n
    early = dict(zip(guess.jobs, guess.starts))
    floor = [
        early[j] if j in early else Fraction(instance.jobs[j].p) for j in range(n)
    ]
    intervals = [
        (s, s + instance.jobs[j].p) for j, s in zip(guess.jobs, guess.starts)
    ]
    r = _fixpoint_dc(instance, floor, intervals)
    _assert_adjusted(instance, r, floor, intervals)
    jobs = tuple(Job(job.p, rj, job.w) for job, rj in zip(instance.jobs, r))
    return Instance(jobs, instance.prec)


def round_processing(instance: Instance, epsilon) -> Instance:
    """Round every processing time up to the next power of (1 + eps)."""
    eps = to_fraction(epsilon)
    jobs = tuple(
        Job(_pow_ceil(job.p, eps)[1], job.r, job.w) for job in instance.jobs
    )
    return Instance(jobs, instance.prec)


def _pow_ceil(p, eps: Fraction) -> tuple[int, Fraction]:
    """Smallest (i, (1+eps)^i) with (1+eps)^i >= p. Exact arithmetic."""
    base = 1 + eps
    i = 0
    v = Fraction(1)
    target = to_fraction(p)
    while v < target:
        v *= base
        i += 1
    return i, v


def job_types(instance: Instance, epsilon) -> tuple[int, ...]:
    """Size class of each job: the exponent i with (1+eps)^i >= p_j minimal.

    On an instance already rounded with the same epsilon this is exact
    (p_j equals its class's power).
    """
    eps = to_fraction(epsilon)
    return tuple(_pow_ceil(job.p, eps)[0] for job in instance.jobs)


def enumerate_type_guesses(
    instance: Instance,
    epsilon,
    L,
    beta,
    budget: Optional[int] = None,
    stats: Optional[dict] = None,
) -> Iterator[TypeGuess]:
    """Yield guesses over processing-size classes of a rounded instance.

    Only classes present in the instance whose rounded size lies strictly
    between L and (1+eps)^2 * beta * L can have an early job. For each
    chosen class i, the candidate smallest start runs over multiples of
    eps * (1+eps)^i below (1+eps)^i, pruned below the class's smallest
    release time. Early processing intervals must not overlap. `budget`
    truncates the stream as in enumerate_guesses.
    """
    eps = to_fraction(epsilon)
    if eps <= 0:
        raise ValueError("epsilon must be positive")
    _check_budget(budget)
    if stats is None:
        stats = {}
    stats.update(yielded=0, pruned_release=0, pruned_overlap=0)
    yield from islice(_type_guesses(instance, eps, L, beta, stats), budget)


def _type_guesses(
    instance: Instance, eps: Fraction, L, beta, stats: dict
) -> Iterator[TypeGuess]:
    types = job_types(instance, eps)
    base = 1 + eps
    Lf = to_fraction(L)
    hi = base * base * to_fraction(beta) * Lf
    present = sorted(set(types))
    eligible = []
    for i in present:
        size = base**i
        if Lf < size < hi:
            eligible.append(i)
    cap = min(early_bound(eps, beta), len(eligible))
    stats["yielded"] += 1
    yield TypeGuess((), ())

    options: dict[int, list[Fraction]] = {}
    for i in eligible:
        size = base**i
        r_min = min(
            to_fraction(instance.jobs[j].r) for j in range(instance.n) if types[j] == i
        )
        grid = _start_grid(size, eps)
        keep = [s for s in grid if s >= r_min]
        stats["pruned_release"] += len(grid) - len(keep)
        options[i] = keep

    for size_count in range(1, cap + 1):
        for chosen in combinations(eligible, size_count):
            if any(not options[i] for i in chosen):
                continue
            for starts in product(*(options[i] for i in chosen)):
                span = sorted(
                    (starts[k], starts[k] + base**i) for k, i in enumerate(chosen)
                )
                if any(span[k][1] > span[k + 1][0] for k in range(len(span) - 1)):
                    stats["pruned_overlap"] += 1
                    continue
                stats["yielded"] += 1
                yield TypeGuess(chosen, starts)


def adjust_release_times_typed(instance: Instance, guess: TypeGuess, epsilon) -> Instance:
    """Release lift for a class-level guess on a rounded instance.

    Jobs of a guessed class get the class's guessed smallest start as a
    release floor; jobs of other classes get their (rounded) processing
    time, mirroring rules (b) and (c) per class. Consistency and the
    interval push then run to a fixpoint as in adjust_release_times.
    """
    eps = to_fraction(epsilon)
    base = 1 + eps
    types = job_types(instance, eps)
    early = dict(zip(guess.types, guess.starts))
    floor = []
    for j in range(instance.n):
        i = types[j]
        floor.append(early[i] if i in early else Fraction(instance.jobs[j].p))
    intervals = [(s, s + base**i) for i, s in zip(guess.types, guess.starts)]
    r = _fixpoint_dc(instance, floor, intervals)
    _assert_adjusted(instance, r, floor, intervals)
    jobs = tuple(Job(job.p, rj, job.w) for job, rj in zip(instance.jobs, r))
    return Instance(jobs, instance.prec)


@dataclass(frozen=True)
class BoundedResult:
    schedule: Schedule
    cost: float
    guesses_tried: int
    guesses_failed: int
    best_guess: object
    mode: str


def solve_bounded(
    instance: Instance,
    epsilon,
    L,
    beta,
    mode: str = "exhaustive",
    budget: Optional[int] = None,
    trace_hook: Optional[Callable] = None,
    warm: Iterable[Iterable[int]] = (),
) -> BoundedResult:
    """Best LP-then-list-schedule result over a stream of guesses.

    Parameters
    ----------
    instance : Instance
        Bounded: every release time at least L (checked). Validated and
        release-normalized.
    epsilon : rational
        Grid resolution for guessed starts.
    L, beta : rational
        Bounding parameters of the instance.
    mode : {"exhaustive", "typed", "empty-guess"}
        exhaustive enumerates per-job guesses (n capped at N_GUESS
        unless a budget is given); typed rounds processing times up to
        powers of (1+eps) and guesses per size class; empty-guess runs
        the single all-late guess.
    budget : int, optional
        Truncate the guess stream after this many guesses; nonnegative.
    trace_hook : callable, optional
        Called with (guess, adjusted_instance, LpLsRun) for every guess
        that produced a schedule; used by tests to audit traces.
    warm : iterable of job subsets
        Warm-start cut subsets passed to every guess's LP (see solve_lp).
        Every guess gets the same set, so results do not depend on the
        order guesses run in.

    Returns
    -------
    BoundedResult
        Cost is measured against the original release times; ties keep
        the earliest guess in stream order. Guesses whose LP fails are
        logged and skipped; if every guess fails, SchedulingError.
    """
    eps = to_fraction(epsilon)
    _check_budget(budget)
    tol = instance.tol()
    low = min((job.r for job in instance.jobs), default=L)
    if low < L - tol:
        raise ValidationError(
            [f"instance is not bounded by L = {L}: smallest release time is {low}"]
        )
    if mode == "exhaustive":
        if instance.n > N_GUESS and budget is None:
            raise ValueError(
                f"exhaustive guessing is capped at n = {N_GUESS} jobs; "
                "use typed mode or set a budget"
            )
        work = [(g, None) for g in enumerate_guesses(instance, eps, beta, budget)]
    elif mode == "empty-guess":
        work = [(EMPTY_GUESS, None)]
    elif mode == "typed":
        rounded = round_processing(instance, eps)
        work = [
            (g, rounded) for g in enumerate_type_guesses(rounded, eps, L, beta, budget)
        ]
    else:
        raise ValueError(f"unknown mode {mode!r}")
    warm = tuple(warm)
    best = None
    failed = 0
    for g, rounded in work:
        try:
            if rounded is None:
                adjusted = adjust_release_times(instance, g)
            else:
                adjusted = adjust_release_times_typed(rounded, g, eps)
            run = lp_ls(adjusted, warm=warm)
        except InvariantViolationError:
            raise
        except SchedulingError as exc:
            log.warning("guess %s failed: %s", g, exc)
            failed += 1
            continue
        if trace_hook is not None:
            trace_hook(g, adjusted, run)
        sched = run.schedule
        if not is_feasible(sched, instance):
            raise InvariantViolationError(
                "schedule from lifted releases is infeasible for the original instance"
            )
        cost = schedule_cost(sched, instance)
        if best is None or cost < best[0]:
            best = cost, sched, g
    if best is None:
        raise SchedulingError(f"all {len(work)} guesses failed to produce a schedule")
    return BoundedResult(best[1], best[0], len(work), failed, best[2], mode)


def grid_shift(schedule: Schedule, instance: Instance, epsilon) -> Schedule:
    """Move each start up to the next multiple of eps * p_j, in completion
    order, pushing later jobs right as needed.

    This is the transformation that relates an arbitrary tight optimum to
    the gridded near-optimum the guesses describe; tests verify on exact
    optimal schedules that it stretches no completion by more than a
    factor (1 + eps).
    """
    eps = to_fraction(epsilon)
    n = instance.n
    order = sorted(range(n), key=lambda j: (schedule.start[j] + instance.jobs[j].p, j))
    new_start = [Fraction(0)] * n
    prev_end = Fraction(0)
    for j in order:
        step = eps * instance.jobs[j].p
        lb = max(to_fraction(schedule.start[j]), prev_end)
        m = -(-lb // step)  # ceil division on Fractions
        new_start[j] = m * step
        prev_end = new_start[j] + instance.jobs[j].p
    return Schedule(tuple(new_start))
