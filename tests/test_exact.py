"""Exact small-instance solver: agreement with brute force, optimal
timing within a fixed order, contribution accounting, and the job cap."""

from __future__ import annotations

import random
import tracemalloc

import pytest

from prec_sched import (
    GeneratorConfig,
    Schedule,
    exact_opt,
    feasibility_violations,
    generate,
    make_instance,
    schedule_cost,
)
from prec_sched.exact import EXACT_CAP, EXACT_MAX
from prec_sched.harness import FAMILIES
from .auditors import exact_contribution
from .conftest import random_instance
from .oracles import brute_force_opt, exact_opt_subsets


def unit_chain(n):
    return make_instance([(1, 0, 1)] * n, prec=[(i, i + 1) for i in range(n - 1)])


class TestExactOpt:
    def test_reference_two_job_instance(self, two_job_reference):
        cost, schedule = exact_opt(two_job_reference)
        assert cost == 20
        assert schedule.start == (1, 2)

    def test_single_job_pays_release_plus_processing(self):
        for p, r, w in [(1, 0, 1), (4, 7, 3), (2, 3, 5)]:
            cost, schedule = exact_opt(make_instance([(p, r, w)]))
            assert cost == w * (r + p)
            assert schedule.start == (r,)

    def test_empty_instance(self):
        cost, schedule = exact_opt(make_instance([]))
        assert cost == 0
        assert schedule.start == ()

    def test_swapping_order_beats_greedy_first_release(self):
        # running the early heavy-weight job second costs 1110, first 212
        instance = make_instance([(10, 0, 1), (1, 1, 100)])
        cost, schedule = exact_opt(instance)
        assert cost == 212
        assert schedule.start == (2, 1)

    def test_precedence_overrides_weight_preference(self):
        # same shape, but an edge forces the cheap job to go first
        instance = make_instance([(10, 0, 1), (1, 1, 100)], prec=[(0, 1)])
        cost, schedule = exact_opt(instance)
        assert cost == 10 + 100 * 11
        assert schedule.start == (0, 10)

    def test_matches_brute_force_exactly(self):
        for seed in range(30):
            n = 2 + seed % 7
            instance = random_instance(seed, n, density=0.4)
            cost, schedule = exact_opt(instance)
            ref_cost, _ = brute_force_opt(instance)
            # integer inputs keep both solvers in integer arithmetic
            assert cost == ref_cost
            assert isinstance(cost, int)
            assert not feasibility_violations(schedule, instance)
            assert schedule_cost(schedule, instance) == cost

    def test_integer_starts_on_integer_input(self):
        for seed in range(10):
            instance = random_instance(100 + seed, 5)
            _, schedule = exact_opt(instance)
            assert all(isinstance(s, int) for s in schedule.start)

    def test_cap_rejects_large_instances(self):
        instance = make_instance([(1, 0, 1)] * (EXACT_CAP + 1))
        with pytest.raises(ValueError, match="capped at n = 12"):
            exact_opt(instance)

    def test_no_cap_admits_more_than_the_ceiling(self):
        # refused before any frontier is built, for an antichain of 21 jobs
        # would have 2^21 ideals; the benchmark's exact check needs n = 14
        assert 14 <= EXACT_MAX < 21
        instance = make_instance([(1, 0, 1)] * 21)
        with pytest.raises(ValueError, match=f"capped at n = {EXACT_MAX} \\(got 21\\)"):
            exact_opt(instance, cap=64)

    def test_cap_parameter_is_honored(self):
        instance = make_instance([(1, 0, 1)] * 5)
        with pytest.raises(ValueError, match="capped at n = 4"):
            exact_opt(instance, cap=4)
        cost, _ = exact_opt(instance, cap=5)
        assert cost == 1 + 2 + 3 + 4 + 5

    def test_negative_cap_rejected(self):
        # not reported as a cap the instance exceeds, even when it is empty
        for instance in (make_instance([(1, 0, 1)] * 3), make_instance([])):
            with pytest.raises(ValueError, match="cap must be at least 0, got -3"):
                exact_opt(instance, cap=-3)


class TestIdealWalk:
    """The walk over ideals returns the cost and the schedule of a scan of
    every subset, and holds only the ideals it reaches."""

    @pytest.mark.parametrize("family", FAMILIES)
    def test_same_cost_and_starts_as_the_subset_scan(self, family):
        for n in range(1, 13 if family == "antichain" else 15):
            for seed in range(8):
                instance = generate(GeneratorConfig(n=n, seed=seed, family=family))
                cost, schedule = exact_opt(instance, cap=14)
                assert (cost, schedule.start) == exact_opt_subsets(instance), (n, seed)

    def test_same_cost_and_starts_on_an_18_job_chain(self):
        instance = unit_chain(18)
        cost, schedule = exact_opt(instance, cap=18)
        assert (cost, schedule.start) == exact_opt_subsets(instance)
        assert schedule.start == tuple(range(18))

    @pytest.mark.parametrize(
        "instance",
        [unit_chain(18), generate(GeneratorConfig(n=18, seed=0, prec_density=0.9, r_max=72))],
        ids=["unit chain", "dense uniform"],
    )
    def test_dense_order_allocates_little(self, instance):
        # the chain has 19 ideals of 2^18 subsets; a frontier for every
        # subset would take about 17 MB
        tracemalloc.start()
        try:
            exact_opt(instance, cap=18)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestExactContribution:
    def test_full_subset_is_total_cost(self):
        for seed in range(10):
            instance = random_instance(200 + seed, 6)
            cost, schedule = exact_opt(instance)
            assert exact_contribution(instance, schedule, range(6)) == cost

    def test_empty_subset_is_zero(self):
        instance = random_instance(0, 4)
        _, schedule = exact_opt(instance)
        assert exact_contribution(instance, schedule, ()) == 0

    def test_disjoint_subsets_add_up(self):
        for seed in range(10):
            instance = random_instance(300 + seed, 6)
            cost, schedule = exact_opt(instance)
            left = exact_contribution(instance, schedule, (0, 1, 2))
            right = exact_contribution(instance, schedule, (3, 4, 5))
            assert left + right == cost

    def test_works_on_any_schedule(self):
        instance = make_instance([(1, 1, 10), (10, 0, 0)])
        schedule = Schedule((10.0, 0.0))
        assert exact_contribution(instance, schedule, (0,)) == 110.0
