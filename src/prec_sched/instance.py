"""Problem instances and schedules for 1|r_j,prec|sum w_j C_j.

An instance is a set of jobs, each with an integer processing time p >= 1,
a release time r >= 0, and a weight w >= 0, plus a precedence DAG that is
kept transitively closed. A schedule assigns a start time to every job;
its cost is the weighted sum of completion times.

Each layer uses one numeric type: input instances are integral (the
exact oracle relies on it), the block solver's guesses exact rationals
(see bounded), and its lifted instances, with every schedule and cost
computed from them, float.

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

from .errors import CycleError, InfeasibleScheduleError, ValidationError
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
    def predecessors(self) -> tuple[tuple[int, ...], ...]:
        preds: list[list[int]] = [[] for _ in range(self.n)]
        for j, k in self.prec:
            preds[k].append(j)
        return tuple(tuple(sorted(ps)) for ps in preds)

    @cached_property
    def successors(self) -> tuple[tuple[int, ...], ...]:
        succs: list[list[int]] = [[] for _ in range(self.n)]
        for j, k in self.prec:
            succs[j].append(k)
        return tuple(tuple(sorted(ss)) for ss in succs)

    @cached_property
    def time_scale(self) -> float:
        horizon = max((job.r for job in self.jobs), default=0.0)
        return float(horizon + sum(job.p for job in self.jobs))

    def tol(self) -> float:
        """Comparison tolerance for this instance's time magnitudes."""
        return REL_TOL * max(1.0, self.time_scale)

    def to_dict(self) -> dict:
        return {
            "jobs": [{"p": j.p, "r": j.r, "w": j.w} for j in self.jobs],
            "prec": sorted([j, k] for j, k in self.prec),
        }


def make_instance(jobs: Sequence[tuple], prec: Iterable[tuple[int, int]] = ()) -> Instance:
    """Build an Instance from (p, r, w) triples and precedence pairs.

    Closes the relation transitively; raises CycleError on a cyclic
    relation. Does not otherwise validate (see validate / require_valid).
    """
    pairs = transitive_closure(frozenset((int(j), int(k)) for j, k in prec))
    return Instance(tuple(Job(p, r, w) for p, r, w in jobs), pairs)


def transitive_closure(pairs: Iterable[tuple[int, int]]) -> frozenset[tuple[int, int]]:
    """Transitive closure of a precedence relation given as ordered pairs.

    Idempotent. Raises CycleError naming a witness cycle if the relation
    is not acyclic (a pair (j, j) counts as a self-cycle). Ancestor sets
    are united in graphlib's topological order.
    """
    preds: dict[int, set[int]] = defaultdict(set)
    for j, k in pairs:
        preds[k].add(j)
    try:
        order = list(graphlib.TopologicalSorter({k: preds[k] for k in sorted(preds)}).static_order())
    except graphlib.CycleError as exc:
        raise CycleError(exc.args[1]) from None
    ancestors: dict[int, set[int]] = {}
    for k in order:
        ancestors[k] = preds[k].union(*(ancestors[j] for j in preds[k]))
    return frozenset((j, k) for k in order for j in ancestors[k])


@dataclass(frozen=True)
class ValidationReport:
    findings: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.findings


def validate(instance: Instance) -> ValidationReport:
    """Report every violated structural invariant; empty report iff well-formed.

    Checked: field ranges (p >= 1, r >= 0, 0 <= w <= MAX_WEIGHT), the
    horizon max r + sum p against MAX_HORIZON (in exact arithmetic, so an
    integer beyond the float range is reported, not converted), precedence
    indices in range, irreflexivity, acyclicity (with witness), and
    transitive closure. The relation is closed iff pred(j) lies within
    pred(k) for every pair (j, k), and then, being irreflexive, acyclic;
    the closure is computed only to word a finding.
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

    in_range = True
    for j, k in sorted(instance.prec):
        if not (0 <= j < n and 0 <= k < n):
            findings.append(f"precedence pair ({j}, {k}) out of range")
            in_range = False
        elif j == k:
            findings.append(f"precedence pair ({j}, {j}) is reflexive")
            in_range = False

    if in_range:
        preds = [set(ps) for ps in instance.predecessors]
        if not all(preds[j] <= preds[k] for j, k in instance.prec):
            try:
                missing = sorted(transitive_closure(instance.prec) - instance.prec)
            except CycleError as exc:
                findings.extend(exc.findings)
            else:
                findings.extend(f"missing transitive edge {e}" for e in missing)
    return ValidationReport(tuple(findings))


def require_valid(instance: Instance) -> Instance:
    report = validate(instance)
    if not report.ok:
        raise ValidationError(report.findings)
    return instance


def lift_releases(instance: Instance, floor: Sequence, intervals: Iterable[tuple] = ()) -> list:
    """The least releases r, a list by job id, such that r_j >= floor[j],
    r_j <= r_k whenever j precedes k, and no r_j lies inside an open
    interval ]s, e[ of `intervals`. One pass by predecessor count, an order
    that is topological as the relation is closed: each job takes the
    largest of its floor and its predecessors' releases (the first on
    ties), then the end of each interval it falls inside, in start order.
    """
    preds = instance.predecessors
    spans = sorted(intervals)
    r = list(floor)
    for k in sorted(range(instance.n), key=lambda k: len(preds[k])):
        x = max([r[k], *(r[j] for j in preds[k])])
        for s, e in spans:
            x = e if s < x < e else x
        r[k] = x
    return r


def normalize_release_times(instance: Instance) -> Instance:
    """Lift release times so that r_j <= r_k whenever j precedes k.

    Any feasible schedule already satisfies S_k >= C_j >= r_j for j
    preceding k, so the set of feasible schedules (and the optimum) is
    unchanged. Idempotent; the least such lift (see lift_releases).
    """
    r = lift_releases(instance, [job.r for job in instance.jobs])
    jobs = tuple(Job(job.p, rj, job.w) for job, rj in zip(instance.jobs, r))
    return Instance(jobs, instance.prec)


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
    for j, k in sorted(instance.prec):
        if start[k] < comp[j] - tol:
            out.append(f"job {k} starts at {start[k]} before predecessor {j} completes at {comp[j]}")
    return out


def is_feasible(schedule: Schedule, instance: Instance) -> bool:
    return not feasibility_violations(schedule, instance)


def schedule_cost(schedule: Schedule, instance: Instance, check: bool = False) -> float:
    """Weighted sum of completion times, a float; optionally verifies feasibility first."""
    if check:
        violations = feasibility_violations(schedule, instance)
        if violations:
            raise InfeasibleScheduleError(violations[0])
    return sum((job.w * (s + job.p) for s, job in zip(schedule.start, instance.jobs)), 0.0)


def tighten(schedule: Schedule, instance: Instance) -> Schedule:
    """Shift jobs left, one at a time, until no single job can start earlier.

    One sweep in (start, id) order; each job moves to the earliest start
    after its release and predecessors that fits between the others,
    which stay fixed. On a feasible schedule that is a fixpoint: a job
    visited later only fills space left of its own old start, which lies
    at or after the completion of every job visited earlier, and a
    predecessor always starts before its successor, so no job visited
    earlier can move again. Starts and cost never increase; idempotent.
    The jobs' intervals stay in one sorted list that a moved job leaves
    and re-enters by bisection, so no job sorts the others.
    """
    tol = instance.tol()
    start = list(schedule.start)
    p = [job.p for job in instance.jobs]
    # every job's (start, end, id), kept sorted as jobs move
    intervals = sorted((start[k], start[k] + p[k], k) for k in range(instance.n))
    for j in sorted(range(instance.n), key=lambda i: (start[i], i)):
        lb = float(instance.jobs[j].r)
        for h in instance.predecessors[j]:
            lb = max(lb, start[h] + p[h])
        del intervals[bisect_left(intervals, (start[j], start[j] + p[j], j))]
        for s_k, c_k, _ in intervals:  # jump over every job the candidate overlaps
            if lb + p[j] <= s_k + tol:
                break
            if lb < c_k - tol:
                lb = c_k
        if lb < start[j] - tol:
            start[j] = lb
        insort(intervals, (start[j], start[j] + p[j], j))
    return Schedule(tuple(start))


def load_instance(source, normalize: bool = False) -> Instance:
    """Parse the instance JSON format, close the precedence relation, validate.

    source may be a path, a file object, or an already-parsed document. Job
    ids are array positions; "prec" pairs need not be transitively closed.
    A document that is not an object with a "jobs" array of objects with
    integer fields p, r, w, and an optional "prec" array of integer pairs,
    raises ValidationError, as do non-UTF-8 text, an integer too long to
    parse and any finding of validate; malformed JSON, json.JSONDecodeError.
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
    except ValueError as exc:  # text that is not UTF-8, or an integer past the digit limit
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
        jobs.append(tuple(trip))
    for i, pair in enumerate(pairs):
        if not (isinstance(pair, (list, tuple)) and len(pair) == 2 and all(map(_is_int, pair))):
            findings.append(
                f"precedence entry {i}: must be a pair of integer job ids, got {_shown(pair)}"
            )
    if findings:
        raise ValidationError(findings)

    instance = make_instance(jobs, [tuple(e) for e in pairs])
    require_valid(instance)
    if normalize:
        instance = normalize_release_times(instance)
    return instance


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
