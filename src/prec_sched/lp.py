"""Completion-time LP relaxation solved by a cutting-plane loop.

Variables are fractional completion times C_j. Two constraint families:

    C_j <= C_k                                     whenever j precedes k
    sum_{j in U} p_j C_j >= r_min(U) p(U) + p(U)^2/2   for every subset U

The subset family is exponential, so we start from all singletons (which
already force C_j >= r_j + p_j/2), plus any warm-start subsets the caller
passes, and add violated subsets found by a separation oracle until none
is violated by more than `tau`.

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

The inner solves delegate to scipy's HiGHS backend, tightened to 1e-9
feasibility so residual noise on already-added rows stays far below tau.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Iterable, Optional

import numpy as np
from scipy.optimize import linprog

from .errors import LpIterationLimitError, SchedulingError
from .instance import Instance

TAU_LP = 1e-7
N_EXHAUSTIVE = 18

# keep inner-solve residuals two orders below TAU_LP, otherwise a cut the
# solver considers satisfied can look violated to the separation oracle
# and get re-added forever
_HIGHS_OPTIONS = {
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
    # int, float and Fraction compare exactly, so only the minimum is converted
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


def _precedence_rows(instance: Instance) -> np.ndarray:
    """One row C_j - C_k <= 0 per precedence pair, in sorted pair order."""
    pairs = np.array(sorted(instance.prec), dtype=np.intp).reshape(-1, 2)
    rows = np.zeros((len(pairs), instance.n))
    at = np.arange(len(pairs))
    rows[at, pairs[:, 0]] = 1.0
    rows[at, pairs[:, 1]] = -1.0
    return rows


def _cut_row(p: np.ndarray, cut: Cut) -> np.ndarray:
    """The cut as an upper-bound row: -sum_{j in U} p_j C_j <= -rhs."""
    row = np.zeros(len(p))
    idx = list(cut.jobs)
    row[idx] = -p[idx]
    return row


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
    tau. The constraint rows are built once; each round appends the new
    cut's row.

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
        `duals` holds the final round's dual values (`linprog`'s
        `ineqlin.marginals`, each at most 0 up to solver noise), one per
        constraint row of the model as it is posed: first one per
        precedence pair C_j - C_k <= 0 in sorted pair order, then one per
        entry of `cuts`, in that order, for the row
        -sum_{j in U} p_j C_j <= -rhs.

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
    p = np.array([float(job.p) for job in instance.jobs])
    w = np.array([float(job.w) for job in instance.jobs])
    A = np.vstack([_precedence_rows(instance)] + [_cut_row(p, cut) for cut in cuts])
    b = np.concatenate((np.zeros(len(instance.prec)), [-float(cut.rhs) for cut in cuts]))

    z_history = []
    C, z = (), 0.0
    for rounds in range(1, max_rounds + 1):
        res = linprog(w, A_ub=A, b_ub=b, method="highs", options=dict(_HIGHS_OPTIONS))
        if not res.success:
            raise SchedulingError(f"inner LP solve failed: {res.message}")
        C, z = tuple(res.x.tolist()), float(res.fun)
        z_history.append(z)
        cut = separate_fast(C, instance, tau)
        if cut is None:
            duals = tuple(res.ineqlin.marginals.tolist())
            return LpSolution(C, z, tuple(cuts), rounds, tuple(z_history), duals)
        if cut.jobs in seen:
            raise LpIterationLimitError(
                f"cut on jobs {cut.jobs} still violated by {cut_violation_of(cut, C, instance):.3e} "
                "after being added; the inner solver tolerance cannot support tau",
                cut,
            )
        cuts.append(cut)
        seen.add(cut.jobs)
        A = np.vstack((A, _cut_row(p, cut)))
        b = np.append(b, -float(cut.rhs))
    # one last separation to name the most violated leftover
    leftover = separate_fast(C, instance, tau)
    raise LpIterationLimitError(
        f"cutting-plane loop exceeded {max_rounds} rounds", leftover
    )


def cut_violation_of(cut: Cut, C, instance: Instance) -> float:
    """rhs minus sum p_j C_j for this cut; positive means violated."""
    lhs = sum(float(instance.jobs[j].p) * float(C[j]) for j in cut.jobs)
    return float(cut.rhs) - lhs
