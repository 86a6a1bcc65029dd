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
already-added rows stays far below tau. The model is passed once and its
first round is solved from scratch, bit-identical to public linprog on
the same rows (tests/test_lp.py pins that). Each later round appends the
new cut's row with addRow and runs again: the previous optimal basis,
with the new row's slack basic, is still dual feasible, so HiGHS skips
presolve and hot-starts the dual simplex. A later round reaches the same
optimal value as a from-scratch solve of its rows, up to the solver's
tolerance, but where the optimum is degenerate it may land on another
optimal vertex.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
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
        HighsLp,
        HighsModelStatus,
        HighsOptions,
        HighsStatus,
        MatrixFormat,
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


@dataclass
class _Rows:
    """Constraint rows sum_i value[i] C_index[i] <= upper[r], stored
    row-wise as HiGHS takes them: row r's entries are start[r]:start[r + 1]."""

    start: list[int] = field(default_factory=lambda: [0])
    index: list[int] = field(default_factory=list)
    value: list[float] = field(default_factory=list)
    upper: list[float] = field(default_factory=list)

    def add(self, columns, coefficients, bound: float) -> None:
        self.index.extend(columns)
        self.value.extend(coefficients)
        self.start.append(len(self.index))
        self.upper.append(bound)

    def model(self, cost: list[float]) -> HighsLp:
        """The LP min cost.C subject to these rows and C >= 0."""
        n, m = len(cost), len(self.upper)
        lp = HighsLp()
        lp.num_col_ = n
        lp.num_row_ = m
        lp.col_cost_ = cost
        lp.col_lower_ = [0.0] * n
        lp.col_upper_ = [kHighsInf] * n
        lp.row_lower_ = [-kHighsInf] * m
        lp.row_upper_ = self.upper
        matrix = lp.a_matrix_
        matrix.format_ = MatrixFormat.kRowwise
        matrix.num_col_ = n
        matrix.num_row_ = m
        matrix.start_ = self.start
        matrix.index_ = self.index
        matrix.value_ = self.value
        return lp


def _cut_row(p: list[float], cut: Cut) -> tuple[tuple[int, ...], list[float], float]:
    """The cut as an upper-bound row -sum_{j in U} p_j C_j <= -rhs: its
    columns, coefficients and bound."""
    return cut.jobs, [-p[j] for j in cut.jobs], -float(cut.rhs)


def _new_highs() -> _Highs:
    """A HiGHS solver set up with _HIGHS_OPTIONS."""
    options = HighsOptions()
    for name, value in _HIGHS_OPTIONS.items():
        setattr(options, name, value)
    highs = _Highs()
    if highs.passOptions(options) != HighsStatus.kOk:
        raise SchedulingError("HiGHS rejected the inner solver options")
    return highs


def linprog(highs: _Highs) -> tuple[list[float], float, list[float]]:
    """Solve the model that `highs` holds, from its current state.

    Right after passModel that is a solve from scratch, bit-identical to
    scipy.optimize.linprog(method="highs") with the same tolerances (as x,
    fun and ineqlin.marginals); after addRow, a dual simplex hot-started
    from the previous optimal basis. Returns the solution, the objective
    value and one dual per row.

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
    max_rounds: Optional[int] = None,
    warm: Iterable[Iterable[int]] = (),
) -> LpSolution:
    """Minimize sum w_j C_j over the completion-time polytope via cutting planes.

    Starts from the precedence rows plus all singleton subset cuts and the
    `warm` cuts, then alternates LP solves with the prefix oracle
    `separate_fast` until no subset constraint is violated by more than
    tau. The precedence rows are those of the cover pairs only. The model
    is passed to HiGHS once and solved from scratch; each later round
    appends the new cut's row to the live model and re-solves it from the
    previous optimal basis (see the module docstring).

    Parameters
    ----------
    instance : Instance
        Validated instance with release times already lifted along the
        precedence order.
    tau : float
        Separation tolerance, finite and at least TAU_MIN (1e-9). The
        prefix oracle is complete, so termination certifies that no
        subset at all is violated beyond tau.
    max_rounds : int, optional
        Cap on LP solves; default 10 n^2.
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
        If the cap is reached, or a cut already in the model is reported
        violated again (numerical trouble); carries the offending cut.
    """
    # a nan or infinite tau would accept every point as converged
    if not (math.isfinite(tau) and tau >= TAU_MIN):
        raise ValueError(f"LP tolerance tau must be finite and at least {TAU_MIN:g}, got {tau}")
    n = instance.n
    if n == 0:
        return LpSolution((), 0.0, (), 0, ())
    if max_rounds is None:
        max_rounds = 10 * n * n

    cuts = []
    seen = set()
    for subset in chain(((j,) for j in range(n)), warm):
        cut = make_cut(instance, subset)
        if cut.jobs not in seen:
            seen.add(cut.jobs)
            cuts.append(cut)
    p = [float(job.p) for job in instance.jobs]
    w = [float(job.w) for job in instance.jobs]
    rows = _Rows()
    for j, k in instance.cover:
        rows.add((j, k), (1.0, -1.0), 0.0)
    for cut in cuts:
        rows.add(*_cut_row(p, cut))

    highs = _new_highs()
    if highs.passModel(rows.model(w)) == HighsStatus.kError:
        raise SchedulingError("HiGHS rejected the LP model")
    z_history = []
    C, z = (), 0.0
    for rounds in range(1, max_rounds + 1):
        x, z, duals = linprog(highs)
        C = tuple(x)
        z_history.append(z)
        cut = separate_fast(C, instance, tau)
        if cut is None:
            return LpSolution(C, z, tuple(cuts), rounds, tuple(z_history), tuple(duals))
        if cut.jobs in seen:
            raise LpIterationLimitError(
                f"cut on jobs {cut.jobs} still violated by {cut_violation_of(cut, C, instance):.3e} "
                "after being added; the inner solver tolerance cannot support tau",
                cut,
            )
        cuts.append(cut)
        seen.add(cut.jobs)
        columns, coefficients, bound = _cut_row(p, cut)
        status = highs.addRow(-kHighsInf, bound, len(columns), columns, coefficients)
        if status == HighsStatus.kError:
            raise SchedulingError(f"HiGHS rejected the cut on jobs {cut.jobs}")
    # one last separation to name the most violated leftover
    leftover = separate_fast(C, instance, tau)
    raise LpIterationLimitError(
        f"cutting-plane loop exceeded {max_rounds} rounds", leftover
    )


def cut_violation_of(cut: Cut, C, instance: Instance) -> float:
    """rhs minus sum p_j C_j for this cut; positive means violated."""
    lhs = sum(float(instance.jobs[j].p) * float(C[j]) for j in cut.jobs)
    return float(cut.rhs) - lhs
