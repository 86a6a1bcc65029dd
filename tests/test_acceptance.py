"""End-to-end acceptance checks for the full solver stack.

Each test prints exactly one verdict line of the form

    ACCEPTANCE <k>: PASS/FAIL — <description>

before asserting, so a plain ``pytest tests/test_acceptance.py -s`` shows
the complete scorecard. The checks run the shipped pipeline at desk scale
against independent oracles: the LP lower bound, the factor-2 list
scheduling guarantee, the bounded-instance solver, the interval
decomposition, and the randomized-offset analysis behind it.
"""

from __future__ import annotations

import math
import random
import statistics
from itertools import chain
from types import SimpleNamespace

import pytest

from prec_sched import (
    GeneratorConfig,
    InvariantViolationError,
    build_grid,
    decompose_and_solve,
    early_bound,
    enumerate_guesses,
    exact_opt,
    generate,
    lp_ls,
    make_instance,
    schedule_cost,
    separate_exhaustive,
    separate_fast,
    solve_bounded,
    solve_lp,
)
from prec_sched.harness import FAMILIES
from prec_sched.lp import cut_violation_of

from .auditors import (
    check_busy_interval_bounds,
    check_ls_property,
    grid_floor_values,
    grid_shift,
    guess_traces,
    subproblem_optimum_sum,
)
from .conftest import random_bounded_instance, random_instance
from .oracles import brute_force_opt

E3 = math.e**3
PREC_FAMILIES = ("uniform", "p_le_r", "chains", "antichain")


def verdict(k: int, ok: bool, description: str) -> None:
    print(f"ACCEPTANCE {k}: {'PASS' if ok else 'FAIL'} — {description}")


# ---------------------------------------------------------------------------
# shared corpora (built once per session)


@pytest.fixture(scope="session")
def corpus_500():
    """500 seeded instances, n <= 8, cycling through every family."""
    out = []
    for s in range(500):
        cfg = GeneratorConfig(
            n=2 + s % 7,
            seed=s,
            family=FAMILIES[s % 5],
            m=2 + (s // 5) % 9,
        )
        out.append(generate(cfg))
    return out


@pytest.fixture(scope="session")
def ls_runs_200():
    """LP+LS runs on 200 p_le_r instances (the certified regime)."""
    runs = []
    for i in range(200):
        inst = generate(GeneratorConfig(n=2 + i % 7, seed=1000 + i, family="p_le_r"))
        runs.append((inst, lp_ls(inst)))
    return runs


@pytest.fixture(scope="session")
def bounded_runs_100():
    """Bounded solver at eps = 1, beta = e^3 on 100 instances with n <= 6,
    together with per-guess traces and the exact optimum."""
    entries = []
    for s in range(100):
        n = 2 + s % 5
        L = 2 + s % 4
        inst = random_bounded_instance(2000 + s, n, L)
        result, error = None, None
        with guess_traces() as traces:
            try:
                result = solve_bounded(inst, 1, L, E3)
            except InvariantViolationError as exc:
                error = exc
        opt_cost, opt_schedule = exact_opt(inst)
        entries.append(
            SimpleNamespace(
                instance=inst,
                L=L,
                result=result,
                error=error,
                opt=opt_cost,
                opt_schedule=opt_schedule,
                traces=traces,
            )
        )
    return entries


@pytest.fixture(scope="session")
def pipeline_runs_100():
    """Derandomized decomposition pipeline at eps = 1 on 100 instances with
    n <= 7, with per-guess traces and the exact optimum."""
    entries = []
    for s in range(100):
        cfg = GeneratorConfig(
            n=2 + s % 6, seed=3000 + s, family=PREC_FAMILIES[s % 4]
        )
        inst = generate(cfg)
        result, error = None, None
        with guess_traces() as traces:
            try:
                result = decompose_and_solve(inst, 1)
            except InvariantViolationError as exc:
                error = exc
        opt_cost, _ = exact_opt(inst)
        entries.append(
            SimpleNamespace(
                instance=inst,
                result=result,
                error=error,
                opt=opt_cost,
                traces=traces,
            )
        )
    return entries


@pytest.fixture(scope="session")
def offset_study_instances():
    """20 fixed instances with n <= 6 and a positive optimum, for the
    randomized-offset averages."""
    chosen = []
    seed = 5000
    while len(chosen) < 20:
        inst = random_instance(seed, 2 + len(chosen) % 5, density=0.3)
        opt, _ = exact_opt(inst)
        if opt > 0:
            chosen.append((inst, opt))
        seed += 1
    return chosen


def all_traces(*entry_lists):
    return chain.from_iterable(e.traces for e in chain.from_iterable(entry_lists))


# ---------------------------------------------------------------------------
# criteria


def test_lp_lower_bounds_optimum(corpus_500):
    bad = []
    for pos, inst in enumerate(corpus_500):
        z = solve_lp(inst).value
        opt, _ = exact_opt(inst)
        if z > opt + 1e-6 * opt:
            bad.append((pos, z, opt))
    ok = not bad
    verdict(1, ok, "LP relaxation value lower-bounds the exact optimum on 500 instances")
    assert ok, f"LP exceeded the optimum on {len(bad)} of 500 instances: {bad[:3]}"


def test_list_schedule_within_two_of_lp(ls_runs_200):
    bad = []
    for pos, (inst, run) in enumerate(ls_runs_200):
        cost = schedule_cost(run.schedule, inst)
        if cost > 2.0 * run.lp.value + 1e-6:
            bad.append((pos, cost, run.lp.value))
    ok = not bad
    verdict(2, ok, "LP-order list schedule within factor 2 of the LP value on 200 instances")
    assert ok, f"factor-2 guarantee broken on {len(bad)} of 200 runs: {bad[:3]}"


def test_bounded_solver_within_two_one_plus_eps(bounded_runs_100):
    bad = []
    for pos, e in enumerate(bounded_runs_100):
        if e.error is not None:
            bad.append((pos, str(e.error)))
        elif e.result.cost > 2.0 * 2.0 * e.opt + 1e-6:
            bad.append((pos, e.result.cost, e.opt))
    ok = not bad
    verdict(3, ok, "bounded solver within 2(1+eps) of optimum on 100 instances")
    assert ok, f"2(1+eps) guarantee broken on {len(bad)} of 100 instances: {bad[:3]}"


def test_pipeline_within_two_one_plus_eps_squared(pipeline_runs_100):
    bad = []
    for pos, e in enumerate(pipeline_runs_100):
        if e.error is not None:
            bad.append((pos, 1, str(e.error)))
        elif e.result.cost > 2.0 * 4.0 * e.opt + 1e-6:
            bad.append((pos, 1, e.result.cost, e.opt))
    # second pinned resolution: a coarser grid still meets its own bound
    for pos, e in enumerate(pipeline_runs_100[:10]):
        res = decompose_and_solve(e.instance, 2)
        if res.cost > 2.0 * 9.0 * e.opt + 1e-6:
            bad.append((pos, 2, res.cost, e.opt))
    ok = not bad
    verdict(4, ok, "decomposition pipeline within 2(1+eps)^2 of optimum at eps in {1, 2}")
    assert ok, f"2(1+eps)^2 guarantee broken on {len(bad)} runs: {bad[:3]}"


def test_blocks_contained_in_their_intervals(pipeline_runs_100):
    violations = []
    checked = 0
    for pos, e in enumerate(pipeline_runs_100):
        if e.error is not None:
            violations.append((pos, str(e.error)))
            continue
        res, inst = e.result, e.instance
        tol = inst.tol()
        for iv in res.intervals:
            floor, ceiling = res.grid.floor(iv.index), res.grid.floor(iv.index + 1)
            for j in iv.jobs:
                checked += 1
                s = res.union.start[j]
                if s < floor - tol or s + inst.jobs[j].p > ceiling + tol:
                    violations.append((pos, iv.index, j, s))
        # the reported schedule is the union tightened: no job moves right
        for j, (s, u) in enumerate(zip(res.schedule.start, res.union.start)):
            if s > u:
                violations.append((pos, "moved right", j, s, u))
    ok = not violations and checked > 0
    verdict(5, ok, "every solved block stays inside its assigned interval")
    assert ok, (
        f"{len(violations)} containment violations over {checked} scheduled jobs: "
        f"{violations[:3]}"
    )


def test_offset_averaged_block_optima_match_predictions(offset_study_instances):
    draws = 2000
    a = 3.0
    factor = (1.0 - math.exp(-a)) / a
    bad = []
    for idx, (inst, opt) in enumerate(offset_study_instances):
        lp = solve_lp(inst)
        cmax = max(lp.completion)
        rng = random.Random(9000 + idx)
        ratios = []
        floor_sums = [0.0] * inst.n
        for k in range(draws):
            # stratified uniform draw over [0, a): one point per strip
            b = a * (k + rng.random()) / draws
            grid = build_grid(1, b, cmax)
            ratios.append(subproblem_optimum_sum(inst, lp, grid) / opt)
            for j, t in enumerate(grid_floor_values(lp, grid)):
                floor_sums[j] += t
        mean_ratio = statistics.fmean(ratios)
        sigma = statistics.stdev(ratios)
        if mean_ratio > 2.0 * (1.0 + 3.0 * sigma / math.sqrt(draws)):
            bad.append((idx, "mean", mean_ratio, sigma))
        for j, c in enumerate(lp.completion):
            target = c * factor
            if abs(floor_sums[j] / draws - target) > 0.02 * target:
                bad.append((idx, "floor", j, floor_sums[j] / draws, target))
    ok = not bad
    verdict(6, ok, "offset-averaged block optima and breakpoints match predicted means")
    assert ok, f"randomized-offset averages off on {len(bad)} checks: {bad[:3]}"


def test_no_idle_time_while_work_is_available(
    ls_runs_200, bounded_runs_100, pipeline_runs_100
):
    findings = []
    checked = 0
    for inst, run in ls_runs_200:
        findings += check_ls_property(run.schedule, inst, run.order)
        checked += 1
    for _, adjusted, run in all_traces(bounded_runs_100, pipeline_runs_100):
        findings += check_ls_property(run.schedule, adjusted, run.order)
        checked += 1
    ok = not findings and checked >= 300
    verdict(7, ok, "no list schedule idles while an available job waits")
    assert ok, f"{len(findings)} idle-time findings over {checked} traces: {findings[:3]}"


def test_busy_interval_bounds_hold_on_all_traces(bounded_runs_100, pipeline_runs_100):
    findings = []
    checked = 0
    for _, adjusted, run in all_traces(bounded_runs_100, pipeline_runs_100):
        report = check_busy_interval_bounds(
            run.schedule, adjusted, run.order, run.lp.completion, tau=1e-6
        )
        findings += report
        checked += adjusted.n
    ok = not findings and checked > 0
    verdict(8, ok, "busy-interval completion bounds hold on every adjusted-instance trace")
    assert ok, f"{len(findings)} bound violations over {checked} jobs: {findings[:3]}"


def test_fast_separation_catches_every_violation():
    misses = []
    hits = 0
    for s in range(1000):
        n = 2 + s % 11
        inst = random_instance(7000 + s, n, density=0.3)
        rng = random.Random(7500 + s)
        horizon = float(max(j.r for j in inst.jobs) + sum(j.p for j in inst.jobs))
        point = [rng.uniform(0.0, horizon) for _ in range(inst.n)]
        cut = separate_exhaustive(point, inst, 1e-6)
        if cut is None or cut_violation_of(cut, point, inst) <= 1e-6:
            continue
        hits += 1
        fast = separate_fast(point, inst, 1e-6)
        if fast is None or cut_violation_of(fast, point, inst) <= 1e-6:
            misses.append(s)
    ok = not misses and hits >= 100
    verdict(9, ok, "fast separation finds a violated cut whenever exhaustive search does")
    assert ok, f"fast separation missed {len(misses)} of {hits} violated points: {misses[:5]}"


def test_exact_solver_matches_brute_force():
    bad = []
    for s in range(200):
        n = 2 + s % 7
        inst = random_instance(8000 + s, n)
        cost, _ = exact_opt(inst)
        ref_cost, _ = brute_force_opt(inst)
        if cost != ref_cost:
            bad.append((s, cost, ref_cost))
    ok = not bad
    verdict(10, ok, "exact solver matches brute-force enumeration on 200 instances")
    assert ok, f"exact solver disagreed with brute force on {len(bad)} instances: {bad[:3]}"


def test_reference_family_gap_and_recovery():
    inst = make_instance([(1, 1, 10), (10, 0, 0)])
    run = lp_ls(inst)
    ls_cost = schedule_cost(run.schedule, inst)
    opt, _ = exact_opt(inst)
    res = decompose_and_solve(inst, 1)
    ok = (
        abs(ls_cost - 110.0) <= 1e-9
        and opt == 20
        and abs(ls_cost / opt - 5.5) <= 1e-12
        and res.cost <= 2.0 * 4.0 * opt + 1e-6
    )
    verdict(11, ok, "reference family shows the 5.5 LP+LS gap and the pipeline closes it")
    assert ok, f"ls_cost={ls_cost}, opt={opt}, pipeline={res.cost}"


def test_guess_stream_and_early_count_bounds(bounded_runs_100):
    # worst admissible stream: six jobs all released at zero
    free = make_instance(
        [(1, 0, 1), (2, 0, 2), (3, 0, 1), (5, 0, 3), (8, 0, 2), (13, 0, 1)]
    )
    stats = {}
    stream = sum(1 for _ in enumerate_guesses(free, 1, E3, stats=stats))
    bound = early_bound(1, E3)
    over = []
    for pos, e in enumerate(bounded_runs_100):
        shifted = grid_shift(e.opt_schedule, e.instance, 1)
        early = sum(
            shifted.start[j] < e.instance.jobs[j].p for j in range(e.instance.n)
        )
        if early > bound:
            over.append((pos, early))
    ok = stream < 10**6 and bound == 6 == math.ceil(math.log2(2.0 * E3)) and not over
    verdict(12, ok, "guess stream stays finite and the early-job bound is never exceeded")
    assert ok, (
        f"stream={stream}, bound={bound}, over-bound shifts={over[:3]}, "
        f"enumeration stats={stats}"
    )
