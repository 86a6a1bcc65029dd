"""Available-job list scheduling, the LP-order pipeline stage, and the
trace checkers for the no-idle and busy-interval properties."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from prec_sched import (
    Instance,
    Job,
    LpSolution,
    Schedule,
    adjust_release_times,
    adjust_release_times_typed,
    enumerate_guesses,
    enumerate_type_guesses,
    exact_opt,
    is_feasible,
    list_schedule,
    list_schedule_strict,
    lp_ls,
    make_instance,
    order_from_lp,
    round_processing,
    schedule_cost,
    solve_lp,
    tighten,
)
from prec_sched.decompose import build_grid, partition_jobs
from .auditors import check_busy_interval_bounds, check_ls_property
from .conftest import random_instance
from .oracles import reference_list_schedule

TOL = 1e-6


def consistent_order(rng, instance):
    """Random priority order that puts j before k whenever j precedes k."""
    n = instance.n
    remaining = set(range(n))
    order = []
    while remaining:
        ready = [
            j
            for j in remaining
            if all(h not in remaining for h in instance.predecessors[j])
        ]
        order.append(rng.choice(ready))
        remaining.discard(order[-1])
    return tuple(order)


def lifted_blocks():
    """Block instances of the pipeline with lifted releases: partition_jobs
    blocks run through both release lifts, so releases mix Fraction and
    float values."""
    eps = Fraction(1, 2)
    out = []
    for seed in range(12):
        parent = random_instance(300 + seed, 9, p_max=8, r_max=4, density=0.3)
        lp = solve_lp(parent)
        grid = build_grid(eps, 1.0, max(lp.completion))
        for sub in partition_jobs(parent, lp, grid):
            for guess in enumerate_guesses(sub.instance, eps, sub.beta, budget=4):
                out.append(adjust_release_times(sub.instance, guess))
            rounded = round_processing(sub.instance, eps)
            for guess in enumerate_type_guesses(rounded, eps, sub.floor, sub.beta, budget=4):
                out.append(adjust_release_times_typed(rounded, guess, eps))
    return out


class TestListSchedule:
    def test_heavy_job_grabs_the_machine(self, two_job_reference):
        # priority order favors the heavy job; at time 0 it is the only
        # available one, so the light job waits ten units
        schedule = list_schedule(two_job_reference, (1, 0))
        assert schedule.start == (10.0, 0.0)
        assert schedule_cost(schedule, two_job_reference) == 110

    def test_single_job_starts_at_release(self):
        instance = make_instance([(2, 7, 1)])
        assert list_schedule(instance, (0,)).start == (7.0,)

    def test_feasible_tight_and_matches_reference(self):
        rng = random.Random(0)
        instances = [random_instance(seed, 7, density=0.4) for seed in range(100)]
        instances += lifted_blocks()
        for instance in instances:
            order = consistent_order(rng, instance)
            schedule = list_schedule(instance, order)
            assert is_feasible(schedule, instance)
            assert tighten(schedule, instance).start == pytest.approx(schedule.start)
            assert schedule.start == pytest.approx(
                reference_list_schedule(instance, order)
            )

    def test_release_ties_across_number_types(self):
        instance = make_instance([(2, Fraction(3), 1), (1, 3.0, 1), (1, 3, 2)])
        schedule = list_schedule(instance, (2, 1, 0))
        assert schedule.start == (5, 4, 3)
        assert schedule.start == pytest.approx(reference_list_schedule(instance, (2, 1, 0)))

    def test_empty_instance(self):
        assert list_schedule(make_instance([]), ()) == Schedule(())

    def test_cyclic_relation_rejected(self):
        two = Instance((Job(1, 0, 1),) * 2, frozenset({(0, 1), (1, 0)}))
        three = Instance((Job(1, 0, 1),) * 3, frozenset({(1, 2), (2, 1)}))
        for instance in (two, three):
            with pytest.raises(ValueError, match="not acyclic"):
                list_schedule(instance, tuple(range(instance.n)))

    def test_rejects_non_permutation(self):
        instance = make_instance([(1, 0, 1), (1, 0, 1)])
        with pytest.raises(ValueError, match="permutation"):
            list_schedule(instance, (0, 0))

    def test_strict_variant_idles_for_the_listed_job(self):
        instance = make_instance([(2, 0, 1), (1, 5, 1)])
        schedule = list_schedule_strict(instance, (1, 0))
        assert schedule.start == (6.0, 5.0)

    def test_strict_variant_matches_available_on_released_jobs(self):
        instance = make_instance([(2, 0, 1), (3, 0, 1)])
        order = (1, 0)
        assert list_schedule_strict(instance, order).start == list_schedule(
            instance, order
        ).start


class TestOrderFromLp:
    def test_sorts_by_completion_with_id_ties(self):
        instance = make_instance([(1, 0, 1)] * 3)
        sol = LpSolution((2.0, 1.0, 2.0), 5.0, (), 1, (5.0,))
        assert order_from_lp(sol, instance) == (1, 0, 2)

    def test_precedence_beats_float_noise(self):
        instance = make_instance([(1, 0, 1), (1, 0, 1)], [(0, 1)])
        sol = LpSolution((1.0, 1.0 - 1e-12), 2.0, (), 1, (2.0,))
        assert order_from_lp(sol, instance) == (0, 1)


class TestLpLs:
    def test_reference_example_costs_110(self, two_job_reference):
        run = lp_ls(two_job_reference)
        assert schedule_cost(run.schedule, two_job_reference) == 110
        opt, _ = exact_opt(two_job_reference)
        assert opt == 20

    def test_single_job(self):
        instance = make_instance([(3, 4, 2)])
        run = lp_ls(instance)
        assert run.schedule.start == (4.0,)
        assert schedule_cost(run.schedule, instance) == 14

    def test_two_approximation_when_processing_below_release(self):
        for seed in range(50):
            rng = random.Random(seed)
            n = 2 + seed % 7
            jobs = []
            for _ in range(n):
                p = rng.randint(1, 8)
                jobs.append((p, rng.randint(p, p + 16), rng.randint(0, 6)))
            prec = [
                (i, j)
                for i in range(n)
                for j in range(i + 1, n)
                if rng.random() < 0.3
            ]
            from prec_sched import normalize_release_times

            instance = normalize_release_times(make_instance(jobs, prec))
            run = lp_ls(instance)
            assert schedule_cost(run.schedule, instance) <= 2.0 * run.lp.value + TOL

    def test_run_is_coherent(self):
        instance = random_instance(9, 6)
        run = lp_ls(instance)
        assert run.schedule == list_schedule(instance, run.order)
        assert run.lp.value == pytest.approx(solve_lp(instance).value, abs=TOL)


class TestCheckLsProperty:
    def test_ls_traces_are_clean(self):
        rng = random.Random(2)
        for seed in range(500):
            instance = random_instance(seed, 6, density=0.35)
            order = consistent_order(rng, instance)
            schedule = list_schedule(instance, order)
            assert check_ls_property(schedule, instance, order).ok

    def test_idle_gap_before_available_job_flagged(self):
        instance = make_instance([(1, 0, 1)])
        report = check_ls_property(Schedule((5.0,)), instance, (0,))
        assert not report.ok
        assert "free at t = 0" in report.findings[0]

    def test_lower_priority_start_does_not_excuse_idleness(self):
        # job 1 (lower priority) starts at 0 while job 0 is released and
        # waits; the property demands a start of priority at least 0's
        instance = make_instance([(2, 0, 1), (2, 0, 1)])
        trace = Schedule((2.0, 0.0))
        report = check_ls_property(trace, instance, (0, 1))
        assert not report.ok


class TestCheckBusyIntervalBounds:
    def test_pipeline_traces_are_clean(self):
        for seed in range(100):
            instance = random_instance(seed + 3000, 6, density=0.35)
            run = lp_ls(instance)
            report = check_busy_interval_bounds(
                run.schedule, instance, run.order, run.lp.completion
            )
            assert report.ok, report.findings

    def test_doubling_bound_violation_flagged(self):
        # completion 2 against a pretended LP value of 0.9 with the
        # window opening at idle time 0 breaks the doubling bound
        instance = make_instance([(2, 0, 1)])
        report = check_busy_interval_bounds(
            Schedule((0.0,)), instance, (0,), (0.9,)
        )
        assert any("twice" in f for f in report.findings)

    def test_window_bound_violation_flagged(self):
        # t = 0, r_min = 0, LP value 0.9: t + 2C - 2 r_min = 1.8 < 2
        instance = make_instance([(2, 0, 1)])
        report = check_busy_interval_bounds(
            Schedule((0.0,)), instance, (0,), (0.9,)
        )
        assert any("exceeds t + 2C" in f for f in report.findings)
