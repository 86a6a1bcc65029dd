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

A fast mode rounds processing times up to powers of (1+eps) first and
guesses per rounded-size class instead of per job. Guesses are exact
rationals (grid starts, rounded sizes, their classes): guess identity
must not depend on float rounding, and a float (1+eps)^i can put a job
in class i+1. The lift converts each exact floor and guessed interval
to float once; the lifted instance, and every schedule and cost after
it, is float.

Both modes run one guess stream and one lift. A mode is its items (keys
with a size and a smallest release) plus each job's key: the jobs
(p_j, r_j) keyed by id in the exhaustive mode, whose stream also checks
precedence; the eligible size classes ((1+eps)^i, the class's smallest
release) in the typed mode, where a job's key is its rounded size.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations, product
from typing import Iterable, Iterator, Optional

from .errors import InvariantViolationError, SchedulingError, ValidationError
from .instance import Instance, Job, Schedule, is_feasible, lift_releases, schedule_cost
from .listsched import lp_ls

log = logging.getLogger(__name__)

N_GUESS = 10
MODES = ("exhaustive", "typed", "empty-guess")
# the guess grid has ceil(1/eps) starts per job; solve's own floor, set by
# float range, is never below about 1/118, so this one moves none of its outputs
EPS_MIN = Fraction(1, 128)


def early_bound(epsilon, beta) -> int:
    """Largest possible number of early jobs: ceil(log2((1+eps) beta))."""
    eps = Fraction(epsilon)
    return math.ceil(math.log2(float((1 + eps) * Fraction(beta))) - 1e-12)


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


def _check_arguments(epsilon, beta=1, mode=MODES[0], budget=None, L=1) -> Fraction:
    """epsilon as a Fraction, once the block solver's arguments are checked:
    epsilon above EPS_MIN, beta and L positive and finite, a known mode
    and a nonnegative budget."""
    eps = Fraction(epsilon)
    if eps <= 0:
        raise ValueError("epsilon must be positive")
    if eps <= EPS_MIN:
        raise ValueError(f"epsilon must exceed {float(EPS_MIN)} ({EPS_MIN}): "
                         "the guess grid has ceil(1/epsilon) starts per job")
    for name, value in (("beta", beta), ("L", L)):
        try:
            number = float(Fraction(value))
        except (OverflowError, ValueError):  # beyond the float range, or not a number
            number = math.nan
        if not 0 < number < math.inf:
            raise ValueError(f"{name} must be positive and finite, got {value}")
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; choose from {MODES}")
    if budget is not None and budget < 0:
        raise ValueError(f"guess budget must be nonnegative, got {budget}")
    return eps


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
    stream after that many yields; the overlap and precedence counts in
    `stats` then stop at the last guess yielded.
    """
    eps = _check_arguments(epsilon, beta, budget=budget)
    items = {j: (job.p, job.r) for j, job in enumerate(instance.jobs)}
    yield from _guesses(Guess, items, instance.prec, eps, beta, budget, stats)


def _guesses(make, items: dict, prec, eps: Fraction, beta, budget, stats) -> Iterator:
    """Both modes' guess stream: make(keys, starts) over `items`, which maps
    each key to (size, smallest release). Resets `stats`; `budget` truncates."""
    stats = {} if stats is None else stats
    stats.update(yielded=0, pruned_release=0, pruned_overlap=0, pruned_prec=0)
    if budget == 0:
        return
    options = {}
    for key, (size, r_min) in items.items():
        # multiples m * eps * size with m * eps < 1: candidate starts below size
        grid = [m * eps * Fraction(size) for m in range(math.ceil(1 / eps))]
        options[key] = [s for s in grid if s >= r_min]
        stats["pruned_release"] += len(grid) - len(options[key])

    # count 0 is the empty guess
    for count in range(max(0, min(early_bound(eps, beta), len(items))) + 1):
        for chosen in combinations(items, count):
            for starts in product(*(options[k] for k in chosen)):
                span = sorted((s, s + items[k][0]) for k, s in zip(chosen, starts))
                if any(span[i][1] > span[i + 1][0] for i in range(len(span) - 1)):
                    stats["pruned_overlap"] += 1
                    continue
                at = dict(zip(chosen, starts))
                pairs = permutations(chosen, 2)
                if any((j, k) in prec and at[j] + items[j][0] > at[k] for j, k in pairs):
                    stats["pruned_prec"] += 1
                    continue
                stats["yielded"] += 1
                yield make(chosen, starts)
                if stats["yielded"] == budget:
                    return


def _lift(instance: Instance, key_of, keys, sizes, starts) -> Instance:
    """Both modes' lift, and the hand-over to floats: guessed key keys[i]
    starts at starts[i] and occupies [starts[i], starts[i] + sizes[i]]; job
    j has key key_of[j]. Raises on a bug (see adjust_release_times)."""
    early = dict(zip(keys, starts))
    floor = [float(max(job.r, early.get(k, job.p))) for k, job in zip(key_of, instance.jobs)]
    intervals = [(float(s), float(s + size)) for s, size in zip(starts, sizes)]
    r = lift_releases(instance, floor, intervals)
    for j in range(instance.n):
        if r[j] < floor[j]:
            raise InvariantViolationError(f"adjusted release of job {j} below its floor")
        if any(s < r[j] < e for s, e in intervals):
            raise InvariantViolationError(f"adjusted release of job {j} inside an early interval")
    # the cover pairs imply every other pair, as <= is transitive
    for j, k in instance.cover:
        if r[j] > r[k]:
            raise InvariantViolationError(
                f"adjusted releases violate order consistency on ({j}, {k})"
            )
    jobs = tuple(Job(float(job.p), rj, job.w) for job, rj in zip(instance.jobs, r))
    return instance.with_jobs(jobs)


def adjust_release_times(instance: Instance, guess: Guess) -> Instance:
    """Minimal release lift realizing rules (b)-(e) for this guess.

    Rule floors: guessed start for guessed-early jobs, own processing
    time for the rest; lift_releases then applies order consistency and
    the push out of early intervals in one topological pass. Raises if
    the result violates any rule (a bug).
    """
    sizes = [instance.jobs[j].p for j in guess.jobs]
    return _lift(instance, range(instance.n), guess.jobs, sizes, guess.starts)


def round_processing(instance: Instance, epsilon) -> Instance:
    """Round every processing time up to the next power of (1 + eps)."""
    eps = Fraction(epsilon)
    power = {p: _pow_ceil(p, eps)[1] for p in {job.p for job in instance.jobs}}
    return instance.with_jobs(tuple(Job(power[job.p], job.r, job.w) for job in instance.jobs))


def _pow_ceil(p, eps: Fraction) -> tuple[int, Fraction]:
    """Smallest (i, (1+eps)^i) with (1+eps)^i >= p. Exact arithmetic."""
    i = 0
    v = Fraction(1)
    target = Fraction(p)
    while v < target:
        v *= 1 + eps
        i += 1
    return i, v


def enumerate_type_guesses(
    instance: Instance,
    epsilon,
    L,
    beta,
    budget: Optional[int] = None,
    stats: Optional[dict] = None,
) -> Iterator[TypeGuess]:
    """Yield guesses over processing-size classes of a rounded instance.

    Each rounded size (1+eps)^i is class i. Only classes present in the
    instance whose size lies strictly between L and (1+eps)^2 * beta * L
    can have an early job. For each chosen class i, the candidate
    smallest start runs over multiples of eps * (1+eps)^i below
    (1+eps)^i, pruned below the class's smallest release time. Early
    processing intervals must not overlap. `budget` truncates the stream
    as in enumerate_guesses.
    """
    eps = _check_arguments(epsilon, beta, budget=budget, L=L)
    r_min: dict = {}  # rounded size -> smallest release
    for job in instance.jobs:
        r_min[job.p] = min(r_min.get(job.p, job.r), job.r)
    Lf = Fraction(L)
    hi = (1 + eps) ** 2 * Fraction(beta) * Lf
    items = {}
    for size in sorted(r_min):
        i, power = _pow_ceil(size, eps)
        if Lf < power < hi:
            items[i] = (power, Fraction(r_min[size]))
    yield from _guesses(TypeGuess, items, frozenset(), eps, beta, budget, stats)


def adjust_release_times_typed(instance: Instance, guess: TypeGuess, epsilon) -> Instance:
    """Release lift for a class-level guess on a rounded instance.

    Jobs of a guessed class get the class's guessed smallest start as a
    release floor; jobs of other classes get their (rounded) processing
    time, mirroring rules (b) and (c) per class. Consistency and the
    interval push then follow as in adjust_release_times. A job's key is
    its rounded size, the size of its class.
    """
    base = 1 + Fraction(epsilon)
    sizes = [base**i for i in guess.types]
    return _lift(instance, [job.p for job in instance.jobs], sizes, sizes, guess.starts)


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
        Bounding parameters of the instance, positive and finite.
    mode : {"exhaustive", "typed", "empty-guess"}
        exhaustive enumerates per-job guesses (n capped at N_GUESS
        unless a budget is given); typed rounds processing times up to
        powers of (1+eps) and guesses per size class; empty-guess runs
        the single all-late guess.
    budget : int, optional
        Truncate the guess stream after this many guesses, in every
        mode; nonnegative.
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
    eps = _check_arguments(epsilon, beta, mode, budget, L)
    low = min((job.r for job in instance.jobs), default=L)
    if low < L - instance.tol():
        raise ValidationError(
            [f"instance is not bounded by L = {L}: smallest release time is {low}"]
        )
    if mode == "exhaustive" and instance.n > N_GUESS and budget is None:
        raise ValueError(
            f"exhaustive guessing is capped at n = {N_GUESS} jobs; "
            "use typed mode or set a budget"
        )
    # the lift is picked once; it looks its function up by name on each call
    if mode == "typed":
        rounded = round_processing(instance, eps)
        guesses = list(enumerate_type_guesses(rounded, eps, L, beta, budget))
        lift = lambda g: adjust_release_times_typed(rounded, g, eps)
    else:
        # empty-guess mode streams no items: the empty guess, under the budget
        guesses = list(enumerate_guesses(instance, eps, beta, budget) if mode == "exhaustive"
                       else _guesses(Guess, {}, (), eps, beta, budget, None))
        lift = lambda g: adjust_release_times(instance, g)
    warm = tuple(warm)
    best = None
    failed = 0
    for g in guesses:
        try:
            run = lp_ls(lift(g), warm=warm)
        except InvariantViolationError:
            raise
        except SchedulingError as exc:
            log.warning("guess %s failed: %s", g, exc)
            failed += 1
            continue
        if not is_feasible(run.schedule, instance):
            raise InvariantViolationError(
                "schedule from lifted releases is infeasible for the original instance"
            )
        cost = schedule_cost(run.schedule, instance)
        if best is None or cost < best[0]:
            best = cost, run.schedule, g
    if best is None:
        raise SchedulingError(f"all {len(guesses)} guesses failed to produce a schedule")
    return BoundedResult(best[1], best[0], len(guesses), failed, best[2], mode)
