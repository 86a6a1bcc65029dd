"""Geometric decomposition: grid construction, interval assignment,
offset derandomization, block solving, and recombination."""

from __future__ import annotations

import logging
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prec_sched import (
    GeneratorConfig,
    InvariantViolationError,
    LpSolution,
    Schedule,
    build_grid,
    decompose_and_solve,
    derandomize_b,
    enumerate_guesses,
    enumerate_type_guesses,
    exact_opt,
    generate,
    is_feasible,
    make_instance,
    partition_jobs,
    round_processing,
    schedule_cost,
    solve_bounded,
    solve_lp,
    tighten,
)
from prec_sched.bounded import MODES
from prec_sched.decompose import EPS_MAX, _solve_partition, grid_from_scale
from prec_sched.harness import FAMILIES
from .auditors import exact_contribution, grid_floor_values, subproblem_optimum_sum
from .conftest import random_bounded_instance, random_instance
from .oracles import partition_signature


def fake_lp(completion):
    """LP stand-in carrying only completion times, for partition tests."""
    c = tuple(float(x) for x in completion)
    return LpSolution(c, sum(c), (), 0, ())


class TestGrids:
    def test_unit_scale_breakpoints(self):
        grid = grid_from_scale(1.0, 0.0, 1.0)
        assert grid.q == 3
        assert grid.breakpoints == pytest.approx(
            (math.exp(-2), math.exp(-1), 1.0)
        )
        assert grid.t(4) == pytest.approx(math.e)

    def test_offset_shifts_and_shrinks(self):
        grid = grid_from_scale(1.0, 1.0, 1.0)
        assert grid.q == 2
        assert grid.breakpoints == pytest.approx((math.exp(-1), 1.0))

    def test_scale_arguments_validated(self):
        with pytest.raises(ValueError, match="scale"):
            grid_from_scale(0.0, 0.0, 1.0)
        with pytest.raises(ValueError, match="offset"):
            grid_from_scale(1.0, -0.1, 1.0)
        with pytest.raises(ValueError, match="offset"):
            grid_from_scale(1.0, 1.5, 1.0)
        with pytest.raises(ValueError, match="cmax"):
            grid_from_scale(1.0, 0.0, 0.0)

    def test_epsilon_range_enforced(self):
        for bad in (4, 3, 0, -1):
            with pytest.raises(ValueError, match="epsilon must lie"):
                build_grid(bad, 0.0, 10.0)
        grid = build_grid(1, 0.0, 10.0)
        ratio = grid.breakpoints[1] / grid.breakpoints[0]
        assert ratio == pytest.approx(math.exp(3))
        # at the upper limit consecutive breakpoints grow by exactly 3
        grid = build_grid(EPS_MAX, 0.0, 10.0)
        assert grid.breakpoints[1] / grid.breakpoints[0] == pytest.approx(3.0)

    def test_scale_too_large_for_floats_rejected(self):
        # a = 3/epsilon: t_{q+1} can reach e^(2a) cmax, and e^709.8 is the float limit
        with pytest.raises(ValueError, match="epsilon must exceed"):
            grid_from_scale(450.0, 0.0, 10.0)
        assert grid_from_scale(300.0, 300.0, 1e4).t(4) < math.inf

    def test_index_of_brackets_and_matches_formula(self):
        grid = grid_from_scale(0.7, 0.3, 60.0)
        rng = random.Random(11)
        for _ in range(300):
            c = math.exp(rng.uniform(math.log(0.02), math.log(50.0)))
            i = grid.index_of(c)
            assert grid.t(i) <= c < grid.t(i + 1)
            assert i == partition_signature((c,), 0.7, 0.3)[0]

    def test_index_of_on_breakpoints(self):
        grid = grid_from_scale(0.7, 0.3, 60.0)
        for i in range(1, 7):
            assert grid.index_of(grid.t(i)) == i


class TestPartitionJobs:
    def test_two_groups_with_lifted_releases(self):
        grid = grid_from_scale(1.0, math.log(0.5) + 1.0, 5.0)
        assert grid.t(2) == pytest.approx(0.5)
        instance = make_instance([(1, 0, 1), (2, 1, 1)])
        subs = partition_jobs(instance, fake_lp((0.6, 5.0)), grid)
        assert [sub.jobs for sub in subs] == [(0,), (1,)]
        assert subs[0].index == 2
        assert subs[0].floor == pytest.approx(1.5)
        assert subs[0].instance.jobs[0].r == pytest.approx(1.5)
        assert subs[1].index == 4
        assert subs[1].floor == pytest.approx(1.5 * math.exp(2))
        assert subs[1].instance.jobs[0].r == pytest.approx(1.5 * math.exp(2))
        assert all(sub.beta == pytest.approx(math.e) for sub in subs)

    def test_partition_properties_on_lp_solutions(self):
        for seed in range(8):
            instance = random_instance(seed, 8, density=0.3)
            lp = solve_lp(instance)
            b = (seed * 0.37) % 3.0
            grid = build_grid(1, b, max(lp.completion))
            subs = partition_jobs(instance, lp, grid)
            covered = [j for sub in subs for j in sub.jobs]
            assert sorted(covered) == list(range(instance.n))
            for sub in subs:
                assert sub.floor == pytest.approx(3.0 * grid.t(sub.index))
                assert sub.beta == pytest.approx(math.exp(3))
                for pos, j in enumerate(sub.jobs):
                    assert grid.index_of(lp.completion[j]) == sub.index
                    job, sjob = instance.jobs[j], sub.instance.jobs[pos]
                    assert sjob.p == job.p and sjob.w == job.w
                    assert sjob.r == max(job.r, sub.floor)
                back = {j: pos for pos, j in enumerate(sub.jobs)}
                inside = {
                    (back[j], back[k])
                    for j, k in instance.prec
                    if j in back and k in back
                }
                assert sub.instance.prec == frozenset(inside)

    def test_backward_cross_interval_precedence_rejected(self):
        instance = make_instance([(1, 0, 1), (1, 0, 1)], prec=[(0, 1)])
        grid = build_grid(1, 0.0, 5.0)
        with pytest.raises(InvariantViolationError, match="crosses intervals backwards"):
            partition_jobs(instance, fake_lp((5.0, 0.6)), grid)


class TestDerandomizeB:
    @staticmethod
    def sweep_signatures(completion, a, samples=2000):
        return {
            partition_signature(completion, a, k * a / samples)
            for k in range(samples + 1)
        }

    def test_single_job_covered(self):
        lp = fake_lp((7.3,))
        cands = derandomize_b(lp, 3.0)
        assert 0.0 in cands
        got = {partition_signature(lp.completion, 3.0, b) for b in cands}
        assert self.sweep_signatures(lp.completion, 3.0) <= got

    def test_two_jobs_midpoint_events(self):
        a = 3.0
        lp = fake_lp((1.0, math.exp(a / 2)))
        cands = derandomize_b(lp, a)
        assert len(cands) == 3  # 0, the wrap of ln 1, and a/2 (each nudged)
        got = {partition_signature(lp.completion, a, b) for b in cands}
        assert self.sweep_signatures(lp.completion, a) <= got

    def test_random_completions_covered(self):
        rng = random.Random(5)
        for a in (1.0, 3.0):
            for _ in range(10):
                n = rng.randint(1, 6)
                completion = tuple(
                    math.exp(rng.uniform(-2.0, 3.5)) for _ in range(n)
                )
                cands = derandomize_b(fake_lp(completion), a)
                assert all(0.0 <= b <= a for b in cands)
                got = {partition_signature(completion, a, b) for b in cands}
                assert self.sweep_signatures(completion, a) <= got


class TestDecomposeAndSolve:
    def test_single_job_best_offset_recovers_optimum(self):
        instance = make_instance([(2, 3, 1)])
        result = decompose_and_solve(instance, 1)
        assert result.cost == pytest.approx(5.0)
        assert result.b in result.candidates
        assert is_feasible(result.schedule, instance)

    def test_reference_two_jobs_within_guarantee(self, two_job_reference):
        result = decompose_and_solve(two_job_reference, 1)
        opt, _ = exact_opt(two_job_reference)
        assert opt == 20
        assert result.cost <= 2 * (1 + 1) ** 2 * opt + 1e-6
        assert is_feasible(result.schedule, two_job_reference)

    def test_cost_is_sum_of_block_costs_and_reproducible(self):
        for seed in range(5):
            instance = random_instance(seed, 6, density=0.3)
            result = decompose_and_solve(instance, 1)
            assert result.cost == pytest.approx(
                sum(iv.cost for iv in result.intervals)
            )
            subs = partition_jobs(instance, result.lp, result.grid)
            assert [sub.index for sub in subs] == [iv.index for iv in result.intervals]
            for sub, iv in zip(subs, result.intervals):
                res = solve_bounded(sub.instance, 1, sub.floor, sub.beta)
                tight = tighten(res.schedule, sub.instance)
                redo = schedule_cost(tight, sub.instance)
                assert redo == pytest.approx(iv.cost)
                assert iv.jobs == sub.jobs
                assert iv.guesses_tried == res.guesses_tried

    def test_random_mode_is_seeded(self):
        instance = random_instance(3, 5)
        one = decompose_and_solve(instance, 1, mode="random", seed=42)
        two = decompose_and_solve(instance, 1, mode="random", seed=42)
        assert one.b == two.b
        assert one.cost == two.cost
        assert 0.0 <= one.b <= 3.0
        assert len(one.candidates) == 1
        other = decompose_and_solve(instance, 1, mode="random", seed=43)
        assert other.b != one.b

    def test_epsilon_validated_before_solving(self):
        instance = make_instance([(1, 0, 1)])
        for bad in (4, 0, -1):
            with pytest.raises(ValueError, match="epsilon must lie"):
                decompose_and_solve(instance, bad)

    def test_small_epsilon_fails_with_the_limit(self):
        instance = random_instance(1, 5)
        for mode in ("derandomized", "random"):
            with pytest.raises(ValueError, match="epsilon must exceed 0.00"):
                decompose_and_solve(instance, Fraction(1, 150), mode=mode, seed=2,
                                    bounded_mode="empty-guess")
        result = decompose_and_solve(instance, Fraction(1, 100), bounded_mode="empty-guess")
        assert is_feasible(result.schedule, instance)

    def test_bad_arguments_rejected_before_the_lp(self, monkeypatch):
        def no_lp(*args, **kwargs):
            raise AssertionError("the parent LP was solved before the arguments were checked")

        monkeypatch.setattr("prec_sched.decompose.solve_lp", no_lp)
        instance = make_instance([(1, 0, 1)])
        with pytest.raises(ValueError, match="epsilon must lie"):
            decompose_and_solve(instance, 4)
        with pytest.raises(ValueError, match="budget must be nonnegative, got -1"):
            decompose_and_solve(instance, 1, budget=-1)
        with pytest.raises(ValueError, match="unknown mode 'oracle'"):
            decompose_and_solve(instance, 1, mode="oracle")
        with pytest.raises(ValueError, match="unknown mode 'nope'"):
            decompose_and_solve(instance, 1, bounded_mode="nope")
        # the empty instance returns right after the LP, so it is checked too
        with pytest.raises(ValueError, match="unknown mode 'nope'"):
            decompose_and_solve(make_instance([]), 1, bounded_mode="nope")

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown mode"):
            decompose_and_solve(make_instance([(1, 0, 1)]), 1, mode="oracle")

    def test_empty_instance(self):
        result = decompose_and_solve(make_instance([]), 1)
        assert result.cost == 0.0
        assert result.schedule.start == ()
        assert result.intervals == ()

    def test_result_coherent_on_random_instances(self):
        for seed in range(8):
            instance = random_instance(100 + seed, 7, density=0.3)
            result = decompose_and_solve(instance, 1)
            assert is_feasible(result.schedule, instance)
            assert result.cost == pytest.approx(
                schedule_cost(result.schedule, instance)
            )
            assert result.b in result.candidates
            assert result.grid.b == result.b
            assert result.grid.a == pytest.approx(3.0)

    def test_trace_hook_reaches_block_solver(self):
        seen = []
        instance = random_instance(4, 5)
        decompose_and_solve(
            instance, 1, trace_hook=lambda g, adj, run: seen.append(g)
        )
        assert seen

    def test_to_dict_shape(self):
        instance = make_instance([(2, 3, 1)])
        result = decompose_and_solve(instance, 1)
        doc = result.to_dict(instance)
        assert set(doc) == {"start", "cost", "b", "t", "intervals"}
        assert doc["start"] == ["3.0"]
        assert doc["cost"] == "5.0"
        assert [set(iv) for iv in doc["intervals"]] == [
            {"jobs", "cost", "floor", "guesses_tried"}
        ]


class TestBlockOptima:
    def test_block_optimum_below_shifted_contribution(self):
        # restricting the parent optimum to a block and delaying it by the
        # block floor stays feasible, so each block optimum is at most the
        # block's share of the parent cost plus floor * total block weight
        for seed in range(6):
            instance = random_instance(seed, 7, density=0.3)
            opt_cost, opt_sched = exact_opt(instance)
            lp = solve_lp(instance)
            grid = build_grid(1, (seed * 0.61) % 3.0, max(lp.completion))
            for sub in partition_jobs(instance, lp, grid):
                block_opt, _ = exact_opt(sub.instance)
                share = exact_contribution(instance, opt_sched, sub.jobs)
                weight = sum(instance.jobs[j].w for j in sub.jobs)
                assert block_opt <= share + sub.floor * weight + 1e-9

    def test_subproblem_optimum_sum_matches_manual(self):
        instance = random_instance(9, 6, density=0.3)
        lp = solve_lp(instance)
        grid = build_grid(1, 0.8, max(lp.completion))
        manual = sum(
            exact_opt(sub.instance)[0]
            for sub in partition_jobs(instance, lp, grid)
        )
        assert subproblem_optimum_sum(instance, lp, grid) == pytest.approx(manual)

    def test_grid_floor_values_bracket_completions(self):
        instance = random_instance(10, 6)
        lp = solve_lp(instance)
        grid = build_grid(1, 1.2, max(lp.completion))
        floors = grid_floor_values(lp, grid)
        for c, f in zip(lp.completion, floors):
            assert f == pytest.approx(grid.t(grid.index_of(c)))
            assert f <= c < f * math.exp(3.0) * (1 + 1e-12)


class TestOffsetPruning:
    @pytest.mark.parametrize("epsilon", [Fraction(1), Fraction(1, 2)])
    @pytest.mark.parametrize("family", FAMILIES)
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 10), mode=st.sampled_from(MODES))
    def test_bounds_hold_and_the_winner_is_unchanged(self, family, epsilon, seed, n, mode):
        instance = generate(GeneratorConfig(n=n, seed=seed, family=family))
        result = decompose_and_solve(instance, epsilon, bounded_mode=mode)
        cmax = max(result.lp.completion)
        runs = []
        for i, b in enumerate(result.candidates):
            grid = build_grid(epsilon, b, cmax)
            subs = partition_jobs(instance, result.lp, grid)
            union, cost, outcomes = _solve_partition(
                instance, grid, subs, epsilon, mode, None, None
            )
            assert result.bounds[i] <= cost
            runs.append((cost, i, union.start, outcomes))
        cost, i, start, outcomes = min(runs, key=lambda run: run[:2])
        assert (result.cost, result.b, result.schedule.start, result.intervals) == (
            cost, result.candidates[i], start, outcomes
        )
        assert i in result.evaluated
        assert len(set(result.evaluated)) == len(result.evaluated)
        assert set(result.evaluated) <= set(range(len(result.candidates)))

    def test_offsets_skipped_on_chains(self, caplog):
        instance = generate(GeneratorConfig(n=14, seed=3, p_max=8, r_max=56, family="chains"))
        with caplog.at_level(logging.DEBUG, logger="prec_sched.decompose"):
            result = decompose_and_solve(instance, 1, bounded_mode="empty-guess")
        skipped = len(result.candidates) - len(result.evaluated)
        assert skipped >= 1
        assert len(result.bounds) == len(result.candidates)
        order = [(result.bounds[i], i) for i in result.evaluated]
        assert order == sorted(order)
        lines = [rec.getMessage() for rec in caplog.records if "skipped" in rec.getMessage()]
        assert len(lines) == skipped

    def test_random_mode_evaluates_its_one_offset(self):
        result = decompose_and_solve(random_instance(3, 6), 1, mode="random", seed=5)
        assert result.evaluated == (0,)
        assert len(result.bounds) == 1
        assert result.bounds[0] <= result.cost


class TestNumericTypes:
    """Guesses stay exact rationals; every schedule and cost after the
    lift is float."""

    @pytest.mark.parametrize("epsilon", [Fraction(1), Fraction(1, 2), Fraction(1, 3)])
    @pytest.mark.parametrize("mode", MODES)
    def test_pipeline_returns_floats(self, epsilon, mode):
        for seed in range(3):
            instance = random_instance(seed, 7)
            result = decompose_and_solve(instance, epsilon, bounded_mode=mode)
            assert all(type(s) is float for s in result.schedule.start)
            assert type(result.cost) is float
            assert all(type(iv.cost) is float for iv in result.intervals)

    @pytest.mark.parametrize("mode", MODES)
    def test_bounded_returns_floats_and_exact_guesses(self, mode):
        eps = Fraction(1, 3)
        assert type(solve_bounded(make_instance([]), eps, 4, math.e**3, mode=mode).cost) is float
        for seed in range(5):
            instance = random_bounded_instance(seed, 5, 4)
            result = solve_bounded(instance, eps, 4, math.e**3, mode=mode)
            assert all(type(s) is float for s in result.schedule.start)
            assert type(result.cost) is float
            assert all(type(s) is Fraction for s in result.best_guess.starts)
            rounded = round_processing(instance, eps)
            assert all(type(job.p) is Fraction for job in rounded.jobs)
            guesses = [
                *enumerate_guesses(instance, eps, math.e**3),
                *enumerate_type_guesses(rounded, eps, 4, math.e**3),
            ]
            assert all(type(s) is Fraction for g in guesses for s in g.starts)
