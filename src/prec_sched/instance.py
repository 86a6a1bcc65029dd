"""Problem instances and schedules for 1|r_j,prec|sum w_j C_j.

An instance is a set of jobs, each with an integer processing time p >= 1,
a release time r >= 0, and a weight w >= 0, plus pairs (j, k), j preceding
k, whose transitive closure, held only as bitmasks (Instance.masks), is
the precedence order. A schedule assigns a start time to every job; its
cost is the weighted sum of completion times.

Each layer uses one numeric type: input instances are integral (the
exact oracle relies on it), the releases of the blocks they are split
into float, the block solver's guesses and the typed mode's class powers
exact rationals (see bounded), and its lifted instances, with every
schedule and cost computed from them, float. The LP layer and the block
bounds, float throughout, read p, r and w from Instance.floats, and the
block solver's lift reads its float p there, or in the typed mode takes
the float of each job's class power. Every derived instance holds its
order as its cover (see Instance.with_jobs and SubInstance.instance).

Magnitudes are bounded: the horizon max_j r_j + sum_j p_j may not exceed
MAX_HORIZON and no weight may exceed MAX_WEIGHT. The LP's subset cuts
have right-hand sides up to about half the horizon squared, and the
cutting-plane loop certifies them to an absolute 1e-7 in double
precision; at a horizon of 10^4 the largest rhs (5e7) is still spaced
7.5e-9 apart, while from about 3 * 10^4, or from weights of about 10^8,
the loop measurably stops converging.
"""

from __future__ import annotations

import graphlib
import json
import math
from bisect import bisect_left, insort
from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from .errors import CycleError, ValidationError
from .util import decimal_str

REL_TOL = 1e-9
MAX_HORIZON = 10**4
MAX_WEIGHT = 10**6


@dataclass(frozen=True)
class Job:
    p: float
    r: float
    w: int


@dataclass(frozen=True)
class Instance:
    jobs: tuple[Job, ...]
    prec: frozenset[tuple[int, int]]

    @property
    def n(self) -> int:
        return len(self.jobs)

    @cached_property
    def masks(self) -> tuple[int, ...]:
        """Closed predecessor bitmasks, of any width: bit j of masks[k] is
        set iff j precedes k. The one place the closure is computed, by a
        Kahn pass over prec: a job taken passes its mask and its own bit
        on to each successor. A job never taken raises CycleError with the
        cycle graphlib finds, jobs in order. Needs every pair in range."""
        succs, waiting = successor_lists(self)  # waiting: predecessors not yet taken
        masks = [0] * self.n
        taken = [k for k in range(self.n) if not waiting[k]]
        for j in taken:  # the list grows as jobs are taken
            for k in succs[j]:
                masks[k] |= masks[j] | 1 << j
                waiting[k] -= 1
                if not waiting[k]:
                    taken.append(k)
        if len(taken) < self.n:
            preds: dict[int, set[int]] = defaultdict(set)
            for j, k in self.prec:
                preds[k].add(j)
            try:
                graphlib.TopologicalSorter({k: preds[k] for k in sorted(preds)}).prepare()
            except graphlib.CycleError as exc:
                raise CycleError(exc.args[1]) from None
        return tuple(masks)

    @cached_property
    def cover(self) -> tuple[tuple[int, int], ...]:
        """The cover pairs of the order, sorted: j precedes k with no job
        between them. Order constraints on this transitive reduction imply
        all the others. Pairs that generate an order hold its cover: (j, k)
        in prec is one unless j precedes another predecessor of k in prec."""
        masks = self.masks
        implied = [0] * self.n  # jobs that precede some predecessor of k in prec
        for j, k in self.prec:
            implied[k] |= masks[j]
        return tuple(sorted((j, k) for j, k in self.prec if not implied[k] >> j & 1))

    @cached_property
    def floats(self) -> tuple[tuple[float, ...], tuple[float, ...], tuple[float, ...]]:
        """The jobs' p, r and w as float tuples by job id; not shared by with_jobs."""
        return tuple(tuple(float(getattr(job, key)) for job in self.jobs) for key in "prw")

    @cached_property
    def time_scale(self) -> float:
        horizon = max((job.r for job in self.jobs), default=0.0)
        return float(horizon + sum(job.p for job in self.jobs))

    def tol(self) -> float:
        """Comparison tolerance for this instance's time magnitudes."""
        return REL_TOL * max(1.0, self.time_scale)

    def with_jobs(self, jobs: tuple[Job, ...]) -> Instance:
        """This order on `jobs`, which replace the jobs one for one: the
        result holds the cover as prec and shares this instance's masks
        and cover, computed first if needed (CycleError if cyclic)."""
        out = Instance(jobs, frozenset(self.cover))
        out.__dict__.update(masks=self.masks, cover=self.cover)  # as cached_property stores them
        return out

    def to_dict(self) -> dict:
        return {
            "jobs": [{"p": j.p, "r": j.r, "w": j.w} for j in self.jobs],
            "prec": [list(pair) for pair in _closed_pairs(self)],
        }


def make_instance(jobs: Sequence[tuple], prec: Iterable[tuple[int, int]] = ()) -> Instance:
    """Build an Instance from (p, r, w) triples and precedence pairs, kept
    as given. Raises CycleError on a cyclic relation whose pairs are all in
    range; does not otherwise validate (see validate, which reports pairs
    out of range before it looks for cycles).
    """
    pairs = frozenset((int(j), int(k)) for j, k in prec)
    instance = Instance(tuple(Job(p, r, w) for p, r, w in jobs), pairs)
    n = instance.n
    if all(0 <= j < n and 0 <= k < n for j, k in pairs):
        instance.masks  # raises on a cycle
    return instance


def successor_lists(instance: Instance) -> tuple[list[list[int]], list[int]]:
    """Each job's successors in prec, and its number of predecessors there."""
    succs: list[list[int]] = [[] for _ in range(instance.n)]
    indeg = [0] * instance.n
    for j, k in instance.prec:
        succs[j].append(k)
        indeg[k] += 1
    return succs, indeg


def _closed_pairs(instance: Instance) -> list[tuple[int, int]]:
    """Every pair (j, k) of the order, j preceding k, sorted."""
    pairs = []
    for k, mask in enumerate(instance.masks):
        pairs.extend((j, k) for j, bit in enumerate(reversed(bin(mask))) if bit == "1")
    return sorted(pairs)


def validate(instance: Instance) -> tuple[str, ...]:
    """The findings of every violated structural invariant; empty iff
    well-formed. A caller that must stop raises on them.

    Checked: field ranges (p >= 1, r >= 0, 0 <= w <= MAX_WEIGHT), the
    horizon max r + sum p against MAX_HORIZON (in exact arithmetic, so an
    integer beyond the float range is reported, not converted), precedence
    indices in range, irreflexivity, and acyclicity (with witness), which
    the closure in masks checks in O(n + |prec| n / 64).
    """
    findings: list[str] = []
    n = instance.n
    for i, job in enumerate(instance.jobs):
        if job.p < 1:
            findings.append(
                f"job {i}: processing time {job.p} < 1; remove or merge "
                "zero-length jobs before solving"
            )
        if job.r < 0:
            findings.append(f"job {i}: negative release time {job.r}")
        if job.w < 0:
            findings.append(f"job {i}: negative weight {job.w}")
        elif job.w > MAX_WEIGHT:
            findings.append(f"job {i}: weight {job.w} exceeds {MAX_WEIGHT}; scale the weights down")
    horizon = max((job.r for job in instance.jobs), default=0) + sum(job.p for job in instance.jobs)
    if horizon > MAX_HORIZON:
        shown = f"{horizon:g}" if horizon < 1e300 else f"about 1e+{math.floor(math.log10(horizon))}"
        findings.append(
            f"horizon max r + sum p = {shown} exceeds {MAX_HORIZON}; use a coarser time unit"
        )

    bad = sorted((j, k) for j, k in instance.prec if not (0 <= j < n and 0 <= k < n and j != k))
    for j, k in bad:
        kind = "is reflexive" if j == k and 0 <= j < n else "out of range"
        findings.append(f"precedence pair ({j}, {k}) {kind}")

    if not bad:
        try:
            instance.masks
        except CycleError as exc:
            findings.extend(exc.findings)
    return tuple(findings)


def lift_releases(instance: Instance, floor: Sequence, intervals: Iterable[tuple] = ()) -> list:
    """The least releases r, a list by job id, such that r_j >= floor[j],
    r_j <= r_k whenever j precedes k, and no r_j lies inside an open
    interval ]s, e[ of `intervals`. One pass by predecessor count, a
    topological order: each job takes the largest of its floor and its
    cover predecessors' releases, which bound the others' (the first on
    ties), then the end of each interval it falls inside, in start order.
    """
    masks = instance.masks
    preds: list[list[int]] = [[] for _ in range(instance.n)]
    for j, k in instance.cover:
        preds[k].append(j)
    spans = sorted(intervals)
    r = list(floor)
    for k in sorted(range(instance.n), key=lambda k: masks[k].bit_count()):
        x = max([r[k], *(r[j] for j in preds[k])])
        for s, e in spans:
            x = e if s < x < e else x
        r[k] = x
    return r


def normalize_release_times(instance: Instance) -> Instance:
    """Lift release times so that r_j <= r_k whenever j precedes k.

    Any feasible schedule already satisfies S_k >= C_j >= r_j for j
    preceding k, so the set of feasible schedules (and the optimum) is
    unchanged. Idempotent; the least such lift (see lift_releases). The
    result comes from with_jobs, so it holds the cover as prec, and one
    order given two ways loads as equal instances.
    """
    r = lift_releases(instance, [job.r for job in instance.jobs])
    return instance.with_jobs(tuple(Job(job.p, rj, job.w) for job, rj in zip(instance.jobs, r)))


@dataclass(frozen=True)
class Schedule:
    start: tuple[float, ...]

    def completion(self, instance: Instance) -> tuple[float, ...]:
        return tuple(s + job.p for s, job in zip(self.start, instance.jobs))

    def to_dict(self, instance: Instance) -> dict:
        return {
            "start": [decimal_str(s) for s in self.start],
            "cost": decimal_str(schedule_cost(self, instance)),
        }


def feasibility_violations(schedule: Schedule, instance: Instance) -> list[str]:
    """List constraint violations of a schedule, in a deterministic order,
    up to the instance's tolerance."""
    tol = instance.tol()
    out: list[str] = []
    start = schedule.start
    comp = schedule.completion(instance)
    for j, job in enumerate(instance.jobs):
        if start[j] < job.r - tol:
            out.append(f"job {j} starts at {start[j]} before release {job.r}")
    # sweep in start order: once a later job starts at or after j's
    # completion (less tol), so does every job after it
    order = sorted(range(instance.n), key=lambda i: (start[i], i))
    pairs = []
    for pos, j in enumerate(order):
        at = pos + 1
        while at < len(order) and start[order[at]] < comp[j] - tol:
            k = order[at]
            if start[j] < comp[k] - tol:
                pairs.append((min(j, k), max(j, k)))
            at += 1
    out.extend(f"jobs {j} and {k} overlap" for j, k in sorted(pairs))
    # when every cover pair holds, every implied pair (j, k) holds with
    # margin p_m - tol > 0 for a job m between them (p_m >= 1, and tol < 1
    # below a time scale of 1e9), so every pair of the order is listed
    # only to word the findings of a violated cover pair
    if any(start[k] < comp[j] - tol for j, k in instance.cover):
        for j, k in _closed_pairs(instance):
            if start[k] < comp[j] - tol:
                out.append(
                    f"job {k} starts at {start[k]} before predecessor {j} completes at {comp[j]}"
                )
    return out


def is_feasible(schedule: Schedule, instance: Instance) -> bool:
    return not feasibility_violations(schedule, instance)


def schedule_cost(schedule: Schedule, instance: Instance) -> float:
    """Weighted sum of completion times, a float; checks no constraint."""
    return sum((job.w * (s + job.p) for s, job in zip(schedule.start, instance.jobs)), 0.0)


def tighten(schedule: Schedule, instance: Instance) -> Schedule:
    """Shift jobs left, one at a time, until no single job can start earlier.

    The schedule must be feasible. One sweep in (start, id) order; each
    job moves to the earliest start after its release and predecessors
    that fits between the others, which stay fixed. The predecessors
    looked at are the cover predecessors: on a feasible schedule each
    other predecessor completes before one of them. The sweep ends at a
    fixpoint: a job visited later only fills space left of its own old
    start, which lies at or after the completion of every job visited
    earlier, and a predecessor always starts before its successor, so no
    job visited earlier can move again. Starts and cost never increase;
    idempotent. By the same argument a job not yet visited never blocks
    the one being placed, so the sorted list the scan bisects holds only
    the jobs placed. A moved start is a float, even at an integer release.
    """
    tol = instance.tol()
    start = list(schedule.start)
    p = [job.p for job in instance.jobs]
    preds: list[list[int]] = [[] for _ in range(instance.n)]
    for h, k in instance.cover:
        preds[k].append(h)
    placed: list[tuple[float, float]] = []  # (start, end) of each job visited
    for j in sorted(range(instance.n), key=lambda i: (start[i], i)):
        lb = instance.jobs[j].r
        for h in preds[j]:
            lb = max(lb, start[h] + p[h])
        # placed jobs overlap by at most tol < 1 <= p, so of those that start
        # before lb only the last can reach past it
        first = max(bisect_left(placed, (lb,)) - 1, 0)
        for s_k, c_k in placed[first:]:  # jump over every job the candidate overlaps
            if lb + p[j] <= s_k + tol:
                break
            if lb < c_k - tol:
                lb = c_k
        if lb < start[j]:
            start[j] = float(lb)
        insort(placed, (start[j], start[j] + p[j]))
    return Schedule(tuple(start))


def load_instance(source) -> Instance:
    """Parse the instance JSON format and return the validated,
    release-normalized instance (see normalize_release_times), as
    generate does.

    source may be a path, a file object, or an already-parsed document. Job
    ids are array positions; "prec" may hold any pairs that generate the order.
    A document that is not an object with a "jobs" array of objects with
    integer fields p, r, w, and an optional "prec" array of integer pairs,
    raises ValidationError, as do non-UTF-8 text, an integer too long to
    parse, arrays nested past the recursion limit and any finding of
    validate; malformed JSON, json.JSONDecodeError.
    """
    try:
        if isinstance(source, (dict, list)):
            doc = source
        elif hasattr(source, "read"):
            doc = json.load(source)
        else:
            with open(source, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
    except json.JSONDecodeError:
        raise
    except (ValueError, RecursionError) as exc:  # bad UTF-8, a long integer, deep nesting
        raise ValidationError([f"unreadable instance: {exc}"]) from None

    if not isinstance(doc, dict):
        raise ValidationError([f"instance must be a JSON object, got {_json_type(doc)}"])
    if "jobs" not in doc:
        raise ValidationError(["instance has no 'jobs' array"])
    records = doc["jobs"]
    if not isinstance(records, (list, tuple)):
        raise ValidationError([f"'jobs' must be an array, got {_json_type(records)}"])
    pairs = doc.get("prec", [])
    if not isinstance(pairs, (list, tuple)):
        raise ValidationError([f"'prec' must be an array of pairs, got {_json_type(pairs)}"])

    findings = []
    jobs = []
    for i, rec in enumerate(records):
        if not isinstance(rec, dict):
            findings.append(f"job {i}: must be an object with fields p, r, w, got {_shown(rec)}")
            continue
        trip = []
        for field in ("p", "r", "w"):
            v = rec.get(field)
            if not _is_int(v):
                findings.append(f"job {i}: field '{field}' must be an integer, got {v!r}")
                v = 0
            trip.append(v)
        jobs.append(Job(*trip))
    for i, pair in enumerate(pairs):
        if not (isinstance(pair, (list, tuple)) and len(pair) == 2 and all(map(_is_int, pair))):
            findings.append(
                f"precedence entry {i}: must be a pair of integer job ids, got {_shown(pair)}"
            )
    if findings:
        raise ValidationError(findings)

    # no eager cycle check as in make_instance: validate reports every finding
    instance = Instance(tuple(jobs), frozenset(map(tuple, pairs)))
    findings = validate(instance)
    if findings:
        raise ValidationError(findings)
    return normalize_release_times(instance)


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _shown(v) -> str:
    return json.dumps(v, default=repr)


_JSON_TYPES = (
    (bool, "a boolean"),
    ((int, float), "a number"),
    (str, "a string"),
    ((list, tuple), "an array"),
    (dict, "an object"),
)


def _json_type(v) -> str:
    """The JSON name of a parsed value's type."""
    for kind, name in _JSON_TYPES:
        if isinstance(v, kind):
            return name
    return "null" if v is None else type(v).__name__
