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

A fast mode rounds processing times up to powers of (1+eps) and guesses
per rounded-size class instead of per job. Guesses are exact rationals
(grid starts, rounded sizes, their classes): guess identity must not
depend on float rounding, and a float (1+eps)^i can put a job in class
i+1. The lift converts each exact start to float, and takes each size as
a float, before they meet a float release; the lifted instance, and every
schedule and cost after it, is float.

Both modes run one guess stream and one lift over one guess type, whose
keys are job ids in the exhaustive mode and size classes i in the typed
mode. A mode is its items (keys with a size and a smallest release) plus
each job's key: the jobs (p_j, r_j) keyed by id in the exhaustive mode,
whose stream also checks precedence; the eligible size classes
((1+eps)^i, the class's smallest release) in the typed mode, where a
job's key is its class index i, an int. Rounding keeps every job in its
class, so no rounded instance is built: the typed stream and lift each
read one size table of the instance they are given, the block's own,
mapping each distinct size to its class i, the exact power (1+eps)^i and
that power's float (_pow_ceil caches them across blocks). The typed lift
applies the rounding: each lifted job's size, and its floor unless
guessed early, is its class's float power. A guessed class's interval
takes the exact (1+eps)^i, as a guess may name a class no job has.
"""

from __future__ import annotations

import logging
import math
import sys
from dataclasses import dataclass
from functools import lru_cache
from fractions import Fraction
from itertools import combinations, islice, permutations, product
from typing import Iterable, Iterator, Optional

from . import listsched
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
    """Largest possible number of early jobs: ceil(log2((1+eps) beta)),
    computed exactly, or 0 where that is negative (eps and beta positive)."""
    x = (1 + Fraction(epsilon)) * Fraction(beta)
    # 2^(k-1) < x <= 2^k exactly when 2^(k-1) <= ceil(x) - 1 < 2^k
    return (math.ceil(x) - 1).bit_length()


@dataclass(frozen=True)
class Guess:
    """Hypothesis: exactly the keys in `keys` have an early job, key keys[i]
    starting at starts[i]. A key is a job id, or in the typed mode a size
    class, and then starts[i] is the smallest start among its jobs."""

    keys: tuple[int, ...]
    starts: tuple[Fraction, ...]


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
    stats: Optional[dict] = None,
) -> Iterator[Guess]:
    """Yield every admissible guess, empty guess first, deterministically.

    A guess assigns each chosen job a start that is a multiple of
    eps * p_j below p_j. Guesses that cannot describe any feasible
    schedule are skipped and counted in `stats`: a start below the job's
    release time, two early processing intervals overlapping, or ordered
    jobs j preceding k with S'_j + p_j > S'_k. The set size is capped by
    early_bound(epsilon, beta). The counts in `stats` cover the guesses
    drawn so far.
    """
    eps = _check_arguments(epsilon, beta)
    items = {j: (job.p, job.r) for j, job in enumerate(instance.jobs)}
    yield from _guesses(items, instance.masks, eps, beta, stats)


def _guesses(items: dict, masks, eps: Fraction, beta, stats) -> Iterator[Guess]:
    """Both modes' guess stream: Guess(keys, starts) over `items`, which maps
    each key to (size, smallest release), key j preceding key k iff masks[k]
    has bit j. Resets `stats`."""
    stats = {} if stats is None else stats
    stats.update(yielded=0, pruned_release=0, pruned_overlap=0, pruned_prec=0)
    options = {}
    for key, (size, r_min) in items.items():
        # multiples m * eps * size with m * eps < 1: candidate starts below size
        grid = [m * eps * Fraction(size) for m in range(math.ceil(1 / eps))]
        options[key] = [s for s in grid if s >= r_min]
        stats["pruned_release"] += len(grid) - len(options[key])

    # count 0 is the empty guess
    for count in range(min(early_bound(eps, beta), len(items)) + 1):
        for chosen in combinations(items, count):
            for starts in product(*(options[k] for k in chosen)):
                span = sorted((s, s + items[k][0]) for k, s in zip(chosen, starts))
                if any(span[i][1] > span[i + 1][0] for i in range(len(span) - 1)):
                    stats["pruned_overlap"] += 1
                    continue
                at = dict(zip(chosen, starts))
                pairs = permutations(chosen, 2)
                if any(masks[k] >> j & 1 and at[j] + items[j][0] > at[k] for j, k in pairs):
                    stats["pruned_prec"] += 1
                    continue
                stats["yielded"] += 1
                yield Guess(chosen, starts)


def _lift(instance: Instance, key_of, guess: Guess, sizes, p) -> Instance:
    """Both modes' lift, and the hand-over to floats: job j has key
    key_of[j] and lifted size p[j], a float; guessed key guess.keys[i]
    starts at guess.starts[i] and occupies [starts[i], starts[i] +
    sizes[i]]. Raises on a bug (see adjust_release_times)."""
    # each exact start rounded once; rounding to float is monotone, so
    # every floor is the exact floor, rounded
    early = {k: float(s) for k, s in zip(guess.keys, guess.starts)}
    floor = [max(float(job.r), early.get(k, pj)) for k, pj, job in zip(key_of, p, instance.jobs)]
    intervals = [(float(s), float(s + size)) for s, size in zip(guess.starts, sizes)]
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
    jobs = tuple(Job(pj, rj, job.w) for job, pj, rj in zip(instance.jobs, p, r))
    return instance.with_jobs(jobs)


def adjust_release_times(instance: Instance, guess: Guess) -> Instance:
    """Minimal release lift realizing rules (b)-(e) for this guess.

    Rule floors: guessed start for guessed-early jobs, own processing
    time for the rest; lift_releases then applies order consistency and
    the push out of early intervals in one topological pass. Raises if
    the result violates any rule (a bug).
    """
    sizes = [instance.jobs[j].p for j in guess.keys]
    return _lift(instance, range(instance.n), guess, sizes, instance.floats[0])


@lru_cache(maxsize=1024)
def _pow_ceil(p, eps: Fraction) -> tuple[int, Fraction, float]:
    """Smallest (i, (1+eps)^i) with (1+eps)^i >= p, in exact arithmetic,
    and that power as a float. Cached by (p, eps), so that blocks share
    the powers; the cache holds at most 1024 sizes."""
    i = 0
    v = Fraction(1)
    target = Fraction(p)
    while v < target:
        v *= 1 + eps
        i += 1
    return i, v, float(v)


def _size_table(instance: Instance, eps: Fraction) -> dict:
    """Each distinct size p of the instance -> _pow_ceil(p, eps): its class
    i, the exact power (1+eps)^i and that power's float."""
    return {p: _pow_ceil(p, eps) for p in {job.p for job in instance.jobs}}


def enumerate_type_guesses(
    instance: Instance,
    epsilon,
    L,
    beta,
    stats: Optional[dict] = None,
) -> Iterator[Guess]:
    """Yield guesses over the processing-size classes of an instance.

    A job of size p is in class i, with (1+eps)^i the smallest power at
    or above p, so an instance and its rounding give the same stream.
    Only classes present in the instance whose size lies strictly between
    L and (1+eps)^2 * beta * L can have an early job. For each chosen
    class i, the candidate smallest start runs over multiples of
    eps * (1+eps)^i below (1+eps)^i, pruned below the class's smallest
    release time. Early processing intervals must not overlap. `stats` as
    in enumerate_guesses.
    """
    eps = _check_arguments(epsilon, beta, L=L)
    table = _size_table(instance, eps)
    classes: dict = {}  # class -> (power, smallest release)
    for job in instance.jobs:
        i, power, _ = table[job.p]
        r_min = classes[i][1] if i in classes else job.r
        classes[i] = power, min(r_min, job.r)
    Lf = Fraction(L)
    hi = (1 + eps) ** 2 * Fraction(beta) * Lf
    items = {i: (v, Fraction(r)) for i, (v, r) in sorted(classes.items()) if Lf < v < hi}
    yield from _guesses(items, dict.fromkeys(items, 0), eps, beta, stats)


def adjust_release_times_typed(instance: Instance, guess: Guess, epsilon) -> Instance:
    """Release lift for a class-level guess, with processing times rounded.

    Each job's size is rounded up to its class's power (1+eps)^i, as a
    float. Jobs of a guessed class get the class's guessed smallest start
    as a release floor; jobs of other classes get their rounded size,
    mirroring rules (b) and (c) per class. Consistency and the interval
    push then follow as in adjust_release_times. A job's key is its size
    class i. An instance and its rounding give the same lifted instance.
    """
    eps = _check_arguments(epsilon)
    table = _size_table(instance, eps)
    key_of = [table[job.p][0] for job in instance.jobs]
    p = [table[job.p][2] for job in instance.jobs]
    # exact, not read from the table: a guess may name a class no job has
    sizes = [(1 + eps) ** i for i in guess.keys]
    return _lift(instance, key_of, guess, sizes, p)


@dataclass(frozen=True)
class BoundedResult:
    """Best schedule, its cost on the original releases, guesses run and
    failed, and the winning guess, whose keys are job ids or size classes
    by the mode the caller chose."""

    schedule: Schedule
    cost: float
    guesses_tried: int
    guesses_failed: int
    best_guess: Guess


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
        unless a budget is given); typed guesses per size class and
        lifts with processing times rounded up to powers of (1+eps);
        empty-guess runs the single all-late guess.
    budget : int, optional
        Run only the first this many guesses of the mode's stream;
        nonnegative. The one place a guess stream is truncated.
    warm : iterable of job subsets
        Warm-start cut subsets passed to every guess's LP (see solve_lp),
        iterated once; a chain solves no LP and ignores them. Every guess
        gets the same set, so results do not depend on the order guesses
        run in.

    Returns
    -------
    BoundedResult
        Cost is measured against the original release times; ties keep
        the earliest guess in stream order, and `best_guess` is that
        Guess, keyed by size class in the typed mode and by job id
        otherwise. Guesses whose LP fails are logged and skipped; if
        every guess fails, SchedulingError. On a chain no guess fails in
        the LP, as none is solved (see below).

    On a chain, an instance whose order is total (one job included), each
    lifted guess is list-scheduled in chain order without an LP: only one
    job is ever available, so that is the schedule lp_ls would give.
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
        stream = enumerate_type_guesses(instance, eps, L, beta)
        lift = lambda g: adjust_release_times_typed(instance, g, eps)
    else:
        stream = enumerate_guesses(instance, eps, beta) if mode == "exhaustive" else [Guess((), ())]
        lift = lambda g: adjust_release_times(instance, g)
    # islice takes no stop past sys.maxsize, and no stream is that long
    guesses = list(islice(stream, None if budget is None else min(budget, sys.maxsize)))
    warm = tuple(warm)
    # a total order has closed predecessor counts 0..n-1, and they sort it
    counts = [mask.bit_count() for mask in instance.masks]
    chain = None
    if sorted(counts) == list(range(instance.n)):
        chain = sorted(range(instance.n), key=counts.__getitem__)
    best = None
    failed = 0
    for g in guesses:
        try:
            lifted = lift(g)
            if chain is None:
                schedule = lp_ls(lifted, warm=warm).schedule
            else:  # looked up on its module, where lp_ls looks it up too
                schedule = listsched.list_schedule(lifted, chain)
        except InvariantViolationError:
            raise
        except SchedulingError as exc:
            log.warning("guess %s failed: %s", g, exc)
            failed += 1
            continue
        if not is_feasible(schedule, instance):
            raise InvariantViolationError(
                "schedule from lifted releases is infeasible for the original instance"
            )
        cost = schedule_cost(schedule, instance)
        if best is None or cost < best[0]:
            best = cost, schedule, g
    if best is None:
        raise SchedulingError(f"all {len(guesses)} guesses failed to produce a schedule")
    return BoundedResult(best[1], best[0], len(guesses), failed, best[2])
