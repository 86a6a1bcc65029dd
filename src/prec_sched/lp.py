"""Completion-time LP relaxation solved by a cutting-plane loop.

Variables are fractional completion times C_j. Two constraint families:

    C_j <= C_k                                     whenever k covers j
    sum_{j in U} p_j C_j >= r_min(U) p(U) + p(U)^2/2   for every subset U

k covers j when j precedes k with no job in between (Instance.cover, the
transitive reduction); those rows imply C_j <= C_k for every other pair
of the closed relation. The subset family is exponential, so we start
from all singletons (each the bound C_j >= r_j + p_j/2, which its column
holds), plus any warm-start subsets the caller passes, and add violated
subsets found by a separation oracle until none is violated by more than
`tau`. The layer is float throughout: each rhs and bound is computed in
double precision from Instance.floats, built once per instance, which is
exact on integer instances within MAX_HORIZON (see instance.py).

The solver separates over prefixes: for each release threshold rho, the
prefixes in C-order of the jobs released at or above rho. That family is
complete. Fix rho, let P be the jobs with r_j >= rho, and let
h(U) = p(U)^2/2 - sum_U p_j (C_j - rho). Take a maximizer U of h with
h(U) > 0. Removing a member j must not help, so C_j - rho <= p(U) - p_j/2;
adding a non-member k must not help, so C_k - rho >= p(U) + p_k/2. Every
member therefore has a strictly smaller C than every non-member: U is a
prefix of P in C-order (Queyranne's sorting argument, "Structure of a
simple scheduling polyhedron", Math. Prog. 1993). Taking rho = r_min of
the most violated subset shows that the prefix family contains a subset
at least as violated. An exhaustive 2^n oracle is kept as the reference
the tests cross-check against.

Each LP lives in one HiGHS model, reached through the binding that scipy
ships and that scipy.optimize.linprog itself calls
(scipy.optimize._highspy._core). The package loads only that binding's
file, unregistered (see _load_binding), so importing it does not run
scipy.optimize; where the file cannot be found or loaded, it imports the
binding through scipy.optimize. numpy still loads at the first LP, as
the binding's array arguments need it. HiGHS gets only the settings that
differ from its defaults: feasibility tightened to 1e-9, so residual
noise on already-added rows stays far below tau, presolve off, no
output, and one thread: the dual simplex these LPs take, HiGHS's default
strategy, is serial, and with the default (0), which derives a thread
count from the machine's cores, each run costs more (about 3 to 8 us
more on a two-column model on 2 cores).
Each thread keeps one HiGHS solver, given those settings once, and each
LP clears its model. The model starts as its n columns (bounded
below by the singleton cuts, the weights as costs); every row then goes
in through addRows: the first batch holds the precedence rows and the
other starting cuts, and each separated cut is a batch of one. The first
run has no basis yet, so it is a solve from scratch, bit-identical to
public linprog on the same rows and bounds with presolve off
(tests/test_lp.py pins that). Each later round runs again after its
cut's row: the previous optimal basis, with the new row's slack basic,
is still dual feasible, so HiGHS hot-starts the dual simplex from it. A
later round reaches the same optimal value as a from-scratch solve of
its rows, up to the solver's tolerance, but where the optimum is
degenerate it may land on another optimal vertex. At most 10 n^2 rounds
are run.
"""

from __future__ import annotations

import heapq
import importlib.machinery
import importlib.util
import math
import os
import sys
import threading
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .errors import LpIterationLimitError, SchedulingError
from .instance import Instance

_BINDING = "scipy.optimize._highspy._core"


def _load_binding():
    """scipy's HiGHS binding, loaded from its own file without running
    scipy.optimize/__init__ (0.6 s of imports), and left out of sys.modules
    (a single-phase binding puts itself there as it loads): there, without
    its parent packages, it would hide the attribute path from a later
    import of scipy.optimize. That import reuses the loaded extension, so
    pybind11 registers no type twice: CPython keeps a single-phase module
    by file and name, pybind11 3 keeps a multi-phase one. The plain import
    is taken instead when sys.modules already has an entry (a module, which
    it reuses, or None, which makes it fail), or when the file is missing
    or does not load (say, for want of a DLL directory that only
    scipy/__init__ adds)."""
    spec = importlib.util.find_spec("scipy")
    if _BINDING not in sys.modules and spec is not None:
        folder = os.path.join(os.path.dirname(spec.origin), "optimize", "_highspy")
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(folder, "_core" + suffix)
            if os.path.isfile(path):
                file_spec = importlib.util.spec_from_file_location(_BINDING, path)
                try:
                    module = importlib.util.module_from_spec(file_spec)
                    file_spec.loader.exec_module(module)
                except ImportError:
                    break
                finally:
                    sys.modules.pop(_BINDING, None)
                return module
    return importlib.import_module(_BINDING)


try:
    _core = _load_binding()
except ImportError as exc:
    raise ImportError(
        "prec_sched needs scipy >= 1.15: the LP rounds call the HiGHS binding "
        "scipy.optimize._highspy._core, which older scipy releases do not ship"
    ) from exc
HighsModelStatus = _core.HighsModelStatus
HighsOptions = _core.HighsOptions
HighsStatus = _core.HighsStatus
_Highs = _core._Highs
kHighsInf = _core.kHighsInf

TAU_LP = 1e-7
N_EXHAUSTIVE = 18

# only the settings that change a solve, each away from HiGHS's default.
# Presolve is off: a hot-started round skips it anyway, and on the first
# round of these small LPs it costs more than it saves. One thread: see the
# module docstring. No output: the solver logs nothing, to any stream.
# Feasibility is tightened: inner-solve residuals must stay two orders below
# TAU_LP, otherwise a cut the solver considers satisfied can look violated
# to the separation oracle and get re-added forever
_HIGHS_OPTIONS = {
    "presolve": "off",
    "threads": 1,
    "output_flag": False,
    "primal_feasibility_tolerance": 1e-9,
    "dual_feasibility_tolerance": 1e-9,
}
# for the same reason, no tau below the inner solver's tolerance can be certified
TAU_MIN = _HIGHS_OPTIONS["primal_feasibility_tolerance"]

_OPTIONS = HighsOptions()
for _name, _value in _HIGHS_OPTIONS.items():
    setattr(_OPTIONS, _name, _value)
_solvers = threading.local()  # .highs: this thread's HiGHS solver


@dataclass(frozen=True)
class Cut:
    """One subset constraint: sum_{j in jobs} p_j C_j >= rhs, with the
    float rhs r_min p(U) + p(U)^2/2."""

    jobs: tuple[int, ...]
    rhs: float


def make_cut(instance: Instance, jobs) -> Cut:
    """The subset cut on the job set `jobs`, repeated ids counted once, its
    rhs computed from Instance.floats. Every cut solve_lp adds beyond the
    singletons is built here. Raises ValueError on an empty subset or an
    id outside the instance."""
    jobs = tuple(sorted(set(jobs)))
    if not jobs:
        raise ValueError("cut subset must be nonempty")
    p, r, _ = instance.floats
    if not 0 <= jobs[0] <= jobs[-1] < len(p):
        raise ValueError(f"cut subset {jobs} names a job outside 0..{len(p) - 1}")
    p_total = sum(p[j] for j in jobs)
    r_min = min(r[j] for j in jobs)
    return Cut(jobs, r_min * p_total + p_total * p_total / 2)


def _round_cap(n: int) -> int:
    return 10 * n * n  # the most LP solves solve_lp makes on n jobs


@dataclass(frozen=True)
class LpSolution:
    completion: tuple[float, ...]
    value: float
    cuts: tuple[Cut, ...]
    iterations: int
    z_history: tuple[float, ...]


def separate_exhaustive(C, instance: Instance, tau: float = TAU_LP) -> Optional[Cut]:
    """Most violated subset cut over all 2^n - 1 subsets, or None.

    Subset aggregates (total processing, sum p_j C_j, min release) are
    built incrementally from each mask's lowest set bit, so the scan is
    O(2^n) with O(2^n) memory. n is capped at N_EXHAUSTIVE because of
    exactly that cost.

    Parameters
    ----------
    C : sequence of float
        Candidate completion times, indexed by job id.
    instance : Instance
    tau : float
        Violation threshold; subsets violated by at most tau are ignored.

    Returns
    -------
    Cut or None
        The subset maximizing rhs - sum p_j C_j if that maximum exceeds
        tau; None otherwise. Ties keep the lowest mask.
    """
    n = instance.n
    if n > N_EXHAUSTIVE:
        raise ValueError(
            f"exhaustive separation is capped at n = {N_EXHAUSTIVE} (got {n}); "
            "use separate_fast"
        )
    p, r, _ = instance.floats
    Cf = [float(c) for c in C]
    size = 1 << n
    psum = [0.0] * size
    pcsum = [0.0] * size
    rmin = [math.inf] * size
    best_v = tau
    best_mask = 0
    for mask in range(1, size):
        low = mask & -mask
        j = low.bit_length() - 1
        rest = mask ^ low
        ps = psum[rest] + p[j]
        pc = pcsum[rest] + p[j] * Cf[j]
        rm = r[j] if r[j] < rmin[rest] else rmin[rest]
        psum[mask] = ps
        pcsum[mask] = pc
        rmin[mask] = rm
        v = rm * ps + 0.5 * ps * ps - pc
        if v > best_v:
            best_v = v
            best_mask = mask
    if not best_mask:
        return None
    return make_cut(instance, (j for j in range(n) if best_mask >> j & 1))


def separate_fast(C, instance: Instance, tau: float = TAU_LP) -> Optional[Cut]:
    """Most violated subset cut among the prefix candidates, or None.

    For each distinct release value rho, the candidate family consists of
    the prefixes, in C-order, of the jobs with r_j >= rho. Each prefix is
    scored by the true constraint formula (with the prefix's own minimum
    release, not rho), so any cut returned is genuinely violated. The
    family is also complete (see the module docstring): the best prefix
    is as violated as the best of all 2^n - 1 subsets, so None certifies
    that no subset is violated by more than tau.

    Jobs are sorted by (C_j, j) once, a stable sort by C_j; each threshold
    scans that order, skipping the jobs released before it. Ties keep the
    first maximum found, scanning thresholds in ascending order and then
    prefixes from the shortest.
    """
    p, r, _ = instance.floats
    Cf = [float(c) for c in C]
    order = sorted(range(instance.n), key=Cf.__getitem__)
    scan = [(r[j], p[j], p[j] * Cf[j], j) for j in order]
    best_v = tau
    best = None  # (rho, last job) of the best prefix
    for rho in sorted(set(r)):
        ps = pc = 0.0
        rm = math.inf
        for rj, pj, pcj, j in scan:
            if rj < rho:
                continue
            ps += pj
            pc += pcj
            if rj < rm:
                rm = rj
            v = rm * ps + 0.5 * ps * ps - pc
            if v > best_v:
                best_v = v
                best = rho, j
    if best is None:
        return None
    rho, last = best
    prefix = [j for rj, _, _, j in scan if rj >= rho]
    return make_cut(instance, prefix[: prefix.index(last) + 1])


def _accept(status: HighsStatus, what: str) -> None:
    # a warning still changes the model; only an error leaves it as it was
    if status == HighsStatus.kError:
        raise SchedulingError(f"HiGHS rejected {what}")


def _new_highs(cost: Sequence[float], lower: list[float]) -> _Highs:
    """This thread's HiGHS solver, set up with _HIGHS_OPTIONS when the
    thread first asks for it, with its model cleared to min cost.C over
    C >= lower and no rows."""
    highs = getattr(_solvers, "highs", None)
    if highs is None:
        # a run refuses a thread count other than its thread's scheduler's,
        # and scipy.optimize.linprog, run first, may have started one of
        # several threads: it is stopped, and the next run starts a new one
        _Highs.resetGlobalScheduler(True)
        highs = _Highs()
        _accept(highs.passOptions(_OPTIONS), "the inner solver options")
        _solvers.highs = highs
    _accept(highs.clearModel(), "clearing the LP model")
    n = len(cost)
    _accept(highs.addVars(n, lower, [kHighsInf] * n), "the LP columns")
    _accept(highs.changeColsCost(n, range(n), cost), "the LP costs")
    return highs


def _add_rows(highs: _Highs, p: Sequence[float], cuts, pairs=()) -> None:
    """Append to the model, in one addRows, the row C_j - C_k <= 0 of each
    pair (j, k), then the row -sum_{j in U} p_j C_j <= -rhs of each cut."""
    rows = [((j, k), (1.0, -1.0), 0.0) for j, k in pairs]
    rows += [(cut.jobs, [-p[j] for j in cut.jobs], -cut.rhs) for cut in cuts]
    start, index, value, upper = [], [], [], []
    for columns, coefficients, bound in rows:
        start.append(len(index))
        index.extend(columns)
        value.extend(coefficients)
        upper.append(bound)
    m = len(upper)
    _accept(highs.addRows(m, [-kHighsInf] * m, upper, len(index), start, index, value), "LP rows")


def linprog(highs: _Highs) -> tuple[list[float], float]:
    """Solve the model that `highs` holds, from its current state.

    The first run on a model is a solve from scratch, bit-identical to
    scipy.optimize.linprog(method="highs") with the same bounds,
    tolerances and presolve off (as x and fun); a run after rows were
    added is a dual simplex hot-started from the previous optimal basis.
    Returns the solution and the objective value.

    solve_lp calls this function once per round by its module-level name:
    the benchmark's tracer (perfbench/spans.py) and the tests wrap
    prec_sched.lp.linprog to count and time the inner solves.
    """
    highs.run()
    status = highs.getModelStatus()
    if status != HighsModelStatus.kOptimal:
        raise SchedulingError(f"inner LP solve failed: {highs.modelStatusToString(status)}")
    return highs.getSolution().col_value, highs.getObjectiveValue()


def solve_lp(
    instance: Instance,
    tau: float = TAU_LP,
    warm: Iterable[Iterable[int]] = (),
) -> LpSolution:
    """Minimize sum w_j C_j over the completion-time polytope via cutting planes.

    Starts from the precedence rows plus all singleton subset cuts and the
    `warm` cuts, then alternates LP solves with the prefix oracle
    `separate_fast` until no subset constraint is violated by more than
    tau. The precedence rows are those of the cover pairs only. The model,
    on this thread's HiGHS solver cleared for it, starts as its columns,
    each bounded below by its singleton cut C_j >= r_j + p_j/2, takes the
    other starting rows in one addRows and is solved from scratch; each
    later round appends the new cut's row to the live model and re-solves
    it from the previous optimal basis (see the module docstring), for at
    most 10 n^2 rounds.

    Parameters
    ----------
    instance : Instance
        Validated instance with release times already lifted along the
        precedence order.
    tau : float
        Separation tolerance, finite and at least TAU_MIN (1e-9). The
        prefix oracle is complete, so termination certifies that no
        subset at all is violated beyond tau.
    warm : iterable of job subsets
        Subsets whose cuts enter the model from the start, for example the
        cuts that bound a parent LP, renumbered to this instance. Each
        float rhs is computed from this instance's p and r, as make_cut
        computes it, so any subset gives a valid cut and the optimum does
        not change; only the number of rounds does. Duplicates (of each
        other or of the singletons) are dropped. Warm cuts appear in
        `LpSolution.cuts`, after the n singletons and before the cuts
        separated.

    Returns
    -------
    LpSolution

    Raises
    ------
    ValueError
        If tau is below TAU_MIN or not finite.
    LpIterationLimitError
        If 10 n^2 rounds end with a cut still violated, or a cut already
        in the model (a singleton's bound too) is reported violated again
        (numerical trouble); carries that cut.
    """
    # a nan or infinite tau would accept every point as converged
    if not (math.isfinite(tau) and tau >= TAU_MIN):
        raise ValueError(f"LP tolerance tau must be finite and at least {TAU_MIN:g}, got {tau}")
    n = instance.n
    if n == 0:
        return LpSolution((), 0.0, (), 0, ())

    p, r, w = instance.floats
    # by job subset: the singletons, then warm in the order of their rows
    cuts = {(j,): Cut((j,), r[j] * p[j] + p[j] * p[j] / 2) for j in range(n)}
    for subset in warm:
        cut = make_cut(instance, subset)
        cuts.setdefault(cut.jobs, cut)
    highs = _new_highs(w, [r[j] + p[j] / 2 for j in range(n)])
    _add_rows(highs, p, list(cuts.values())[n:], instance.cover)
    z_history = []
    cap = _round_cap(n)
    for rounds in range(1, cap + 1):
        x, z = linprog(highs)
        C = tuple(x)
        z_history.append(z)
        cut = separate_fast(C, instance, tau)
        if cut is None:
            return LpSolution(C, z, tuple(cuts.values()), rounds, tuple(z_history))
        if cut.jobs in cuts:
            raise LpIterationLimitError(
                f"cut on jobs {cut.jobs} still violated by {cut_violation_of(cut, C, instance):.3e} "
                "after being added; the inner solver tolerance cannot support tau",
                cut,
            )
        cuts[cut.jobs] = cut
        _add_rows(highs, p, [cut])
    raise LpIterationLimitError(f"cutting-plane loop exceeded {cap} rounds", cut)


def wspt_value(p, r, w) -> float:
    """sum_j w_j (M_j + p_j/2) over the preemptive WSPT schedule of jobs
    with processing times p, releases r and weights w, in O(n log n).

    The schedule always runs the released job of largest w_j / p_j, and
    M_j is job j's mean busy time in it. It minimizes sum w_j M_j over all
    preemptive schedules with these releases (Goemans, SODA 1997), so the
    value is a lower bound on the cost of every nonpreemptive schedule,
    where C_j = M_j + p_j/2. The subset inequalities of solve_lp are the
    mean-busy-time inequalities with C_j for M_j, so without precedence
    the LP's optimum is this value less sum_j w_j p_j / 2. Ties in w_j / p_j
    leave the value as it is. A piece of job j run over [a, b] adds
    (w_j / p_j) (b - a) (a + b) / 2. A job that runs to completion leaves
    the heap at once, so float remainders never stall the sweep.
    """
    ready: list[tuple[float, int]] = []  # (-w_j / p_j, j) of released, unfinished jobs
    rem = list(p)
    t = -math.inf
    twice = 0.0  # twice sum_j w_j M_j so far
    # each release first runs the jobs already released up to it; a last
    # release at infinity runs them all to completion
    for release, j in sorted(zip(r, range(len(p)))) + [(math.inf, -1)]:
        while ready and t < release:
            neg_ratio, k = ready[0]
            end = t + rem[k]
            if end <= release:
                heapq.heappop(ready)
            else:
                end = release
                rem[k] -= end - t
            twice -= neg_ratio * (end - t) * (t + end)
            t = end
        if j >= 0:
            t = max(t, release)
            heapq.heappush(ready, (-w[j] / p[j], j))
    return (twice + sum(wj * pj for wj, pj in zip(w, p))) / 2


def cut_violation_of(cut: Cut, C, instance: Instance) -> float:
    """rhs minus sum p_j C_j for this cut; positive means violated."""
    p = instance.floats[0]
    return cut.rhs - sum(p[j] * float(C[j]) for j in cut.jobs)
