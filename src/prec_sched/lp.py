"""Completion-time LP relaxation solved by a cutting-plane loop.

Variables are fractional completion times C_j. Two constraint families:

    C_j <= C_k                                     whenever k covers j
    sum_{j in U} p_j C_j >= r_min(U) p(U) + p(U)^2/2   for every subset U

k covers j when j precedes k with no job in between (Instance.cover, the
transitive reduction); those rows imply C_j <= C_k for every other pair
of the closed relation. The subset family is exponential, so we start
from all singletons (which already force C_j >= r_j + p_j/2), plus any
warm-start subsets the caller passes, and add violated subsets found by
a separation oracle until none is violated by more than `tau`.

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
(scipy.optimize._highspy._core), with linprog's options for
method="highs" and feasibility tightened to 1e-9, so residual noise on
already-added rows stays far below tau. The model starts as its n
columns (C >= 0 with the weights as costs); every row then goes in
through addRows: the first batch holds the precedence rows and the
starting cuts, and each separated cut is a batch of one. The first run
has no basis yet, so it is a solve from scratch, bit-identical to public
linprog on the same rows (tests/test_lp.py pins that). Each later round
runs again after its cut's row: the previous optimal basis, with the new
row's slack basic, is still dual feasible, so HiGHS skips presolve and
hot-starts the dual simplex. A later round reaches the same optimal
value as a from-scratch solve of its rows, up to the solver's tolerance,
but where the optimum is degenerate it may land on another optimal
vertex. At most 10 n^2 rounds are run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Iterable, Optional

# the public package first: imported only as the parent of the private
# module below, scipy.optimize took about 0.25 s longer to import in the
# benchmark's set-up (perfbench/run.py --setup-only, 2-core VM)
import scipy.optimize  # noqa: F401

try:
    from scipy.optimize._highspy._core import (
        HighsDebugLevel,
        HighsModelStatus,
        HighsOptions,
        HighsStatus,
        _Highs,
        kHighsInf,
        simplex_constants,
    )
except ImportError as exc:
    raise ImportError(
        "prec_sched needs scipy >= 1.15: the LP rounds call the HiGHS binding "
        "scipy.optimize._highspy._core, which older scipy releases do not ship"
    ) from exc

from .errors import LpIterationLimitError, SchedulingError
from .instance import Instance

TAU_LP = 1e-7
N_EXHAUSTIVE = 18

# the options scipy.optimize.linprog(method="highs") sets, with feasibility
# tightened: inner-solve residuals must stay two orders below TAU_LP,
# otherwise a cut the solver considers satisfied can look violated to the
# separation oracle and get re-added forever
_HIGHS_OPTIONS = {
    "presolve": "on",
    "simplex_strategy": simplex_constants.SimplexStrategy.kSimplexStrategyDual,
    "highs_debug_level": HighsDebugLevel.kHighsDebugLevelNone,
    "output_flag": False,
    "log_to_console": False,
    "primal_feasibility_tolerance": 1e-9,
    "dual_feasibility_tolerance": 1e-9,
}
# for the same reason, no tau below the inner solver's tolerance can be certified
TAU_MIN = _HIGHS_OPTIONS["primal_feasibility_tolerance"]


@dataclass(frozen=True)
class Cut:
    """One subset constraint: sum_{j in jobs} p_j C_j >= rhs."""

    jobs: tuple[int, ...]
    rhs: Fraction


def make_cut(instance: Instance, jobs) -> Cut:
    """Build the subset cut for the job set `jobs` with rhs computed in
    exact arithmetic. Repeated ids count once."""
    jobs = tuple(sorted(set(jobs)))
    if not jobs:
        raise ValueError("cut subset must be nonempty")
    if not 0 <= jobs[0] <= jobs[-1] < instance.n:
        raise ValueError(f"cut subset {jobs} names a job outside 0..{instance.n - 1}")
    # int times on input, float once lifted (p summed in float): exact as Fractions
    p_total = Fraction(sum(instance.jobs[j].p for j in jobs))
    r_min = Fraction(min(instance.jobs[j].r for j in jobs))
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
    duals: tuple[float, ...] = ()


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
        tau, with exact rhs; None otherwise. Ties keep the lowest mask.
    """
    n = instance.n
    if n > N_EXHAUSTIVE:
        raise ValueError(
            f"exhaustive separation is capped at n = {N_EXHAUSTIVE} (got {n}); "
            "use separate_fast"
        )
    p = [float(job.p) for job in instance.jobs]
    r = [float(job.r) for job in instance.jobs]
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
    jobs = tuple(j for j in range(n) if best_mask >> j & 1)
    return make_cut(instance, jobs)


def separate_fast(C, instance: Instance, tau: float = TAU_LP) -> Optional[Cut]:
    """Most violated subset cut among the prefix candidates, or None.

    For each distinct release value rho, the candidate family consists of
    the prefixes, in C-order, of the jobs with r_j >= rho. Each prefix is
    scored by the true constraint formula (with the prefix's own minimum
    release, not rho), so any cut returned is genuinely violated. The
    family is also complete (see the module docstring): the best prefix
    is as violated as the best of all 2^n - 1 subsets, so None certifies
    that no subset is violated by more than tau.

    Jobs are sorted by (C_j, j) once; each threshold filters that order.
    Ties keep the first maximum found, scanning thresholds in ascending
    order and then prefixes from the shortest.
    """
    jobs = instance.jobs
    p = [float(job.p) for job in jobs]
    r = [float(job.r) for job in jobs]
    Cf = [float(c) for c in C]
    order = sorted(range(instance.n), key=lambda j: (Cf[j], j))
    best_v = tau
    best: Optional[list[int]] = None
    for rho in sorted({job.r for job in jobs}):
        pool = [j for j in order if jobs[j].r >= rho]
        ps = 0.0
        pc = 0.0
        rm = math.inf
        for length, j in enumerate(pool, start=1):
            ps += p[j]
            pc += p[j] * Cf[j]
            if r[j] < rm:
                rm = r[j]
            v = rm * ps + 0.5 * ps * ps - pc
            if v > best_v:
                best_v = v
                best = pool[:length]
    if best is None:
        return None
    return make_cut(instance, best)


def _accept(status: HighsStatus, what: str) -> None:
    # a warning still changes the model; only an error leaves it as it was
    if status == HighsStatus.kError:
        raise SchedulingError(f"HiGHS rejected {what}")


def _new_highs(cost: list[float]) -> _Highs:
    """A HiGHS solver set up with _HIGHS_OPTIONS, holding min cost.C over
    C >= 0 and no rows yet."""
    options = HighsOptions()
    for name, value in _HIGHS_OPTIONS.items():
        setattr(options, name, value)
    highs = _Highs()
    _accept(highs.passOptions(options), "the inner solver options")
    n = len(cost)
    _accept(highs.addVars(n, [0.0] * n, [kHighsInf] * n), "the LP columns")
    _accept(highs.changeColsCost(n, range(n), cost), "the LP costs")
    return highs


def _add_rows(highs: _Highs, p: list[float], cuts, pairs=()) -> None:
    """Append to the model, in one addRows, the row C_j - C_k <= 0 of each
    pair (j, k), then the row -sum_{j in U} p_j C_j <= -rhs of each cut."""
    rows = [((j, k), (1.0, -1.0), 0.0) for j, k in pairs]
    rows += [(cut.jobs, [-p[j] for j in cut.jobs], -float(cut.rhs)) for cut in cuts]
    start, index, value, upper = [], [], [], []
    for columns, coefficients, bound in rows:
        start.append(len(index))
        index.extend(columns)
        value.extend(coefficients)
        upper.append(bound)
    m = len(upper)
    _accept(highs.addRows(m, [-kHighsInf] * m, upper, len(index), start, index, value), "LP rows")


def linprog(highs: _Highs) -> tuple[list[float], float, list[float]]:
    """Solve the model that `highs` holds, from its current state.

    The first run on a model is a solve from scratch, bit-identical to
    scipy.optimize.linprog(method="highs") with the same tolerances (as x,
    fun and ineqlin.marginals); a run after rows were added is a dual
    simplex hot-started from the previous optimal basis. Returns the
    solution, the objective value and one dual per row.

    solve_lp calls this function once per round by its module-level name:
    the benchmark's tracer (perfbench/spans.py) and the tests wrap
    prec_sched.lp.linprog to count and time the inner solves.
    """
    highs.run()
    status = highs.getModelStatus()
    if status != HighsModelStatus.kOptimal:
        raise SchedulingError(f"inner LP solve failed: {highs.modelStatusToString(status)}")
    solution = highs.getSolution()
    return solution.col_value, highs.getInfo().objective_function_value, solution.row_dual


def solve_lp(
    instance: Instance,
    tau: float = TAU_LP,
    warm: Iterable[Iterable[int]] = (),
) -> LpSolution:
    """Minimize sum w_j C_j over the completion-time polytope via cutting planes.

    Starts from the precedence rows plus all singleton subset cuts and the
    `warm` cuts, then alternates LP solves with the prefix oracle
    `separate_fast` until no subset constraint is violated by more than
    tau. The precedence rows are those of the cover pairs only. The model
    starts as its columns, takes the starting rows in one addRows and is
    solved from scratch; each later round appends the new cut's row to
    the live model and re-solves it from the previous optimal basis (see
    the module docstring), for at most 10 n^2 rounds.

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
        rhs is computed from this instance's releases by make_cut, so any
        subset gives a valid cut and the optimum does not change; only the
        number of rounds does. Duplicates (of each other or of the
        singletons) are dropped. Warm cuts appear in `LpSolution.cuts`.

    Returns
    -------
    LpSolution
        `duals` holds the final round's HiGHS row duals (the values
        scipy's `linprog` reports as `ineqlin.marginals`, each at most 0
        up to solver noise), one per constraint row of the model as it is
        posed: first one per cover pair (j, k) of `instance.cover`, in
        that order, for the row C_j - C_k <= 0, then one per entry of
        `cuts`, in that order, for the row -sum_{j in U} p_j C_j <= -rhs.

    Raises
    ------
    ValueError
        If tau is below TAU_MIN or not finite.
    LpIterationLimitError
        If 10 n^2 rounds end with a cut still violated, or a cut already
        in the model is reported violated again (numerical trouble);
        carries that cut.
    """
    # a nan or infinite tau would accept every point as converged
    if not (math.isfinite(tau) and tau >= TAU_MIN):
        raise ValueError(f"LP tolerance tau must be finite and at least {TAU_MIN:g}, got {tau}")
    n = instance.n
    if n == 0:
        return LpSolution((), 0.0, (), 0, ())

    cuts = {}  # by job subset, in the order of their rows
    for subset in chain(((j,) for j in range(n)), warm):
        cut = make_cut(instance, subset)
        cuts.setdefault(cut.jobs, cut)
    p = [float(job.p) for job in instance.jobs]
    w = [float(job.w) for job in instance.jobs]
    highs = _new_highs(w)
    _add_rows(highs, p, cuts.values(), instance.cover)
    z_history = []
    cap = _round_cap(n)
    for rounds in range(1, cap + 1):
        x, z, duals = linprog(highs)
        C = tuple(x)
        z_history.append(z)
        cut = separate_fast(C, instance, tau)
        if cut is None:
            return LpSolution(C, z, tuple(cuts.values()), rounds, tuple(z_history), tuple(duals))
        if cut.jobs in cuts:
            raise LpIterationLimitError(
                f"cut on jobs {cut.jobs} still violated by {cut_violation_of(cut, C, instance):.3e} "
                "after being added; the inner solver tolerance cannot support tau",
                cut,
            )
        cuts[cut.jobs] = cut
        _add_rows(highs, p, [cut])
    raise LpIterationLimitError(f"cutting-plane loop exceeded {cap} rounds", cut)


def cut_violation_of(cut: Cut, C, instance: Instance) -> float:
    """rhs minus sum p_j C_j for this cut; positive means violated."""
    lhs = sum(float(instance.jobs[j].p) * float(C[j]) for j in cut.jobs)
    return float(cut.rhs) - lhs
