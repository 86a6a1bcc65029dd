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

Rules (d) and (e) can re-trigger each other, yet one pass over the jobs
in topological order reaches their least fixpoint: once a job's
predecessors hold their least releases, its own is the first value at
or above its floor and theirs outside every guessed interval, and no
later job can move it. Lifting never loses feasible schedules of the
guessed optimum, and candidates are scored against the original release
times, so wrong guesses only produce worse candidates, never unsound
ones.

Grid start times are exact rationals: guess identity must not depend on
float rounding. A fast mode rounds processing times up to powers of
(1+eps) first and guesses per rounded-size class instead of per job.

Both modes run one guess stream and one lift and differ only in their
items, keys with a size and a smallest release: jobs (p_j, r_j) in the
exhaustive mode, which also checks precedence, and the eligible size
classes ((1+eps)^i, the class's smallest release) in the typed mode,
where a job's key is its class.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, islice, product
from typing import Callable, Iterable, Iterator, Optional

from .errors import InvariantViolationError, SchedulingError, ValidationError
from .instance import Instance, Job, Schedule, is_feasible, lift_releases, schedule_cost
from .listsched import lp_ls

log = logging.getLogger(__name__)

N_GUESS = 10
MODES = ("exhaustive", "typed", "empty-guess")


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
    return [m * eps * to_fraction(p) for m in range(math.ceil(1 / eps))]


def _positive(epsilon) -> Fraction:
    eps = to_fraction(epsilon)
    if eps <= 0:
        raise ValueError("epsilon must be positive")
    return eps


def _check_budget(budget: Optional[int]) -> None:
    if budget is not None and budget < 0:
        raise ValueError(f"guess budget must be nonnegative, got {budget}")


def _check_arguments(mode: str, budget: Optional[int]) -> None:
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; choose from {MODES}")
    _check_budget(budget)


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
    eps = _positive(epsilon)
    items = {j: (job.p, job.r) for j, job in enumerate(instance.jobs)}
    yield from _stream(Guess, items, instance.prec, eps, beta, budget, stats)


def _stream(make, items: dict, prec, eps: Fraction, beta, budget, stats) -> Iterator:
    """Both modes' guess stream: make(keys, starts) over `items`, which maps
    each key to (size, smallest release). Resets `stats`; `budget` truncates."""
    _check_budget(budget)
    if stats is None:
        stats = {}
    stats.update(yielded=0, pruned_release=0, pruned_overlap=0, pruned_prec=0)
    yield from islice(_guesses(make, items, prec, eps, beta, stats), budget)


def _guesses(make, items: dict, prec, eps: Fraction, beta, stats: dict) -> Iterator:
    cap = min(early_bound(eps, beta), len(items))
    stats["yielded"] += 1
    yield make((), ())

    options = {}
    for key, (size, r_min) in items.items():
        grid = _start_grid(size, eps)
        keep = [s for s in grid if s >= r_min]
        stats["pruned_release"] += len(grid) - len(keep)
        options[key] = keep

    for count in range(1, cap + 1):
        for chosen in combinations(items, count):
            if any(not options[k] for k in chosen):
                continue
            for starts in product(*(options[k] for k in chosen)):
                span = sorted((s, s + items[k][0]) for k, s in zip(chosen, starts))
                if any(span[i][1] > span[i + 1][0] for i in range(len(span) - 1)):
                    stats["pruned_overlap"] += 1
                    continue
                at = dict(zip(chosen, starts))
                if any(
                    (j, k) in prec and at[j] + items[j][0] > at[k]
                    for j in chosen
                    for k in chosen
                    if j != k
                ):
                    stats["pruned_prec"] += 1
                    continue
                stats["yielded"] += 1
                yield make(chosen, starts)


def _lift(instance: Instance, key_of, size, keys, starts) -> Instance:
    """Both modes' lift: guessed key k starts at its start s and occupies
    [s, s + size[k]]; job j has key key_of[j]. Raises on a bug (see
    adjust_release_times)."""
    early = dict(zip(keys, starts))
    floor = [max(job.r, early.get(k, Fraction(job.p))) for k, job in zip(key_of, instance.jobs)]
    intervals = [(s, s + size[k]) for k, s in zip(keys, starts)]
    lifted = lift_releases(instance, floor, intervals)
    r = [job.r for job in lifted.jobs]
    for j in range(instance.n):
        if r[j] < floor[j]:
            raise InvariantViolationError(f"adjusted release of job {j} below its floor")
        if any(s < r[j] < e for s, e in intervals):
            raise InvariantViolationError(f"adjusted release of job {j} inside an early interval")
    for j, k in instance.prec:
        if r[j] > r[k]:
            raise InvariantViolationError(
                f"adjusted releases violate order consistency on ({j}, {k})"
            )
    return lifted


def adjust_release_times(instance: Instance, guess: Guess) -> Instance:
    """Minimal release lift realizing rules (b)-(e) for this guess.

    Rule floors: guessed start for guessed-early jobs, own processing
    time for the rest; lift_releases then applies order consistency and
    the push out of early intervals in one topological pass. Raises if
    the result violates any rule (a bug).
    """
    sizes = [job.p for job in instance.jobs]
    return _lift(instance, range(instance.n), sizes, guess.jobs, guess.starts)


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
    eps = _positive(epsilon)
    base = 1 + eps
    types = job_types(instance, eps)
    Lf = to_fraction(L)
    hi = base * base * to_fraction(beta) * Lf
    items = {
        i: (base**i, min(to_fraction(job.r) for t, job in zip(types, instance.jobs) if t == i))
        for i in sorted(set(types))
        if Lf < base**i < hi
    }
    yield from _stream(TypeGuess, items, frozenset(), eps, beta, budget, stats)


def adjust_release_times_typed(instance: Instance, guess: TypeGuess, epsilon) -> Instance:
    """Release lift for a class-level guess on a rounded instance.

    Jobs of a guessed class get the class's guessed smallest start as a
    release floor; jobs of other classes get their (rounded) processing
    time, mirroring rules (b) and (c) per class. Consistency and the
    interval push then follow as in adjust_release_times.
    """
    base = 1 + to_fraction(epsilon)
    sizes = {i: base**i for i in guess.types}
    return _lift(instance, job_types(instance, epsilon), sizes, guess.types, guess.starts)


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
    eps = _positive(epsilon)
    _check_arguments(mode, budget)
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
        guesses = list(enumerate_guesses(instance, eps, beta, budget))
    elif mode == "empty-guess":
        guesses = [EMPTY_GUESS]
    else:
        rounded = round_processing(instance, eps)
        guesses = list(enumerate_type_guesses(rounded, eps, L, beta, budget))
    warm = tuple(warm)
    best = None
    failed = 0
    for g in guesses:
        try:
            if mode == "typed":
                adjusted = adjust_release_times_typed(rounded, g, eps)
            else:
                adjusted = adjust_release_times(instance, g)
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
        raise SchedulingError(f"all {len(guesses)} guesses failed to produce a schedule")
    return BoundedResult(best[1], best[0], len(guesses), failed, best[2], mode)
