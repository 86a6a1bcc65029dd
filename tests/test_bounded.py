"""Bounded-instance solver: guess enumeration, release lifting, rounding,
class-level guessing, the solve loop, and the grid-shift transformation."""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import islice

import pytest

from prec_sched import (
    GeneratorConfig,
    Guess,
    Instance,
    Job,
    SchedulingError,
    ValidationError,
    adjust_release_times,
    adjust_release_times_typed,
    decompose_and_solve,
    early_bound,
    enumerate_guesses,
    enumerate_type_guesses,
    exact_opt,
    generate,
    is_feasible,
    lp_ls,
    make_instance,
    normalize_release_times,
    schedule_cost,
    solve_bounded,
    tighten,
)
from prec_sched.bounded import MODES, _pow_ceil
from .auditors import grid_shift, guess_traces
from .conftest import dag_variants, random_bounded_instance, random_instance
from .oracles import (
    enumerate_guesses_ref,
    enumerate_type_guesses_ref,
    frac,
    job_types,
    log2_ceil,
    naive_adjust,
    round_processing,
)

E3 = math.e**3
EMPTY_GUESS = Guess((), ())


def canon(guess):
    """Order-free identity of a guess, for set comparison with the oracle."""
    return tuple(sorted(zip(guess.keys, guess.starts)))


class TestEarlyBound:
    def test_value_for_unit_epsilon(self):
        assert early_bound(1, E3) == 6

    def test_exact_powers_of_two(self):
        assert early_bound(1, 16) == 5
        assert early_bound(1, 8) == 4

    def test_matches_exact_reference_on_rationals(self):
        cases = [
            (1, 8),
            (Fraction(1, 2), 4),
            (Fraction(1, 4), 20),
            (3, 2),
            (Fraction(2, 3), Fraction(15, 2)),
            (1, 4 + Fraction(1, 2**40)),
            (1, 4 - Fraction(1, 2**45)),
        ]
        for eps, beta in cases:
            expected = log2_ceil((1 + frac(eps)) * frac(beta))
            assert early_bound(eps, beta) == expected


class TestEnumerateGuesses:
    def test_only_empty_when_grid_below_releases(self):
        # every candidate start is below p <= r, so nothing survives
        instance = make_instance([(2, 5, 1), (3, 7, 2)])
        stats = {}
        out = list(enumerate_guesses(instance, Fraction(1, 2), E3, stats=stats))
        assert out == [EMPTY_GUESS]
        assert stats["yielded"] == 1
        assert stats["pruned_release"] == 4  # {0,1} and {0,3/2} all below r

    def test_single_job_half_grid(self):
        instance = make_instance([(8, 2, 1)])
        out = list(enumerate_guesses(instance, Fraction(1, 2), E3))
        assert out == [EMPTY_GUESS, Guess((0,), (Fraction(4),))]

    def test_matches_recursive_reference(self):
        for seed in range(6):
            eps = Fraction(1, 2) if seed % 2 == 0 else Fraction(1, 4)
            instance = random_instance(seed, 5, p_max=8, r_max=3, density=0.4)
            got = {canon(g) for g in enumerate_guesses(instance, eps, 4)}
            assert got == enumerate_guesses_ref(instance, eps, 4)

    def test_empty_guess_first_and_stream_deterministic(self):
        instance = random_instance(7, 5, p_max=8, r_max=3)
        first = list(enumerate_guesses(instance, Fraction(1, 4), 4))
        second = list(enumerate_guesses(instance, Fraction(1, 4), 4))
        assert first == second
        assert first[0] == EMPTY_GUESS

    def test_pruning_counts_overlap_and_precedence(self):
        # grids {0, 4} and {0, 1}: both pairs starting job 0 at 0 overlap,
        # and the two starting it at 4 end it after job 1 starts
        instance = make_instance([(8, 0, 1), (2, 0, 1)], [(0, 1)])
        stats = {}
        out = list(enumerate_guesses(instance, Fraction(1, 2), 2, stats=stats))
        assert len(out) == stats["yielded"] == 5
        assert all(len(g.keys) <= 1 for g in out)
        assert (stats["pruned_overlap"], stats["pruned_prec"]) == (2, 2)

    def test_rejects_nonpositive_epsilon(self):
        instance = make_instance([(1, 0, 1)])
        with pytest.raises(ValueError, match="epsilon"):
            list(enumerate_guesses(instance, 0, E3))


class TestAdjustReleaseTimes:
    def test_empty_guess_lifts_to_processing_time_along_chain(self):
        instance = make_instance([(5, 1, 1), (1, 1, 1)], prec=[(0, 1)])
        adjusted = adjust_release_times(instance, EMPTY_GUESS)
        assert [job.r for job in adjusted.jobs] == [5, 5]

    def test_release_pushed_past_guessed_interval(self):
        # the second job's floor lands inside ]2, 6[ and moves to 6
        instance = make_instance([(4, 1, 1), (5, 4, 1)])
        guess = Guess((0,), (Fraction(2),))
        adjusted = adjust_release_times(instance, guess)
        assert [job.r for job in adjusted.jobs] == [2, 6]

    def test_keeps_processing_weight_and_precedence(self):
        instance = random_instance(3, 5, r_max=4, density=0.5)
        adjusted = adjust_release_times(instance, EMPTY_GUESS)
        assert [j.p for j in adjusted.jobs] == [j.p for j in instance.jobs]
        assert [j.w for j in adjusted.jobs] == [j.w for j in instance.jobs]
        assert adjusted.prec == instance.prec

    def test_agrees_with_reference_fixpoint(self):
        checked = 0
        for instance in (
            inst for seed in range(20) for inst in dag_variants(seed, 6, r_max=2, density=0.4)
        ):
            for guess in islice(enumerate_guesses(instance, Fraction(1, 4), 4), 15):
                early = dict(zip(guess.keys, guess.starts))
                floors = [
                    early.get(j, Fraction(instance.jobs[j].p))
                    for j in range(instance.n)
                ]
                intervals = [
                    (s, s + instance.jobs[j].p)
                    for j, s in zip(guess.keys, guess.starts)
                ]
                expected = naive_adjust(instance, floors, intervals)
                adjusted = adjust_release_times(instance, guess)
                got = [frac(job.r) for job in adjusted.jobs]
                assert got == expected
                checked += 1
        assert checked >= 600


class TestRoundProcessing:
    def test_examples(self):
        instance = make_instance([(1, 0, 1), (5, 0, 1)])
        rounded = round_processing(instance, 1)
        assert [job.p for job in rounded.jobs] == [1, 8]

    def test_rounded_value_brackets_original(self):
        for seed in range(10):
            instance = random_instance(seed, 6)
            for eps in (1, Fraction(1, 2), Fraction(1, 3)):
                rounded = round_processing(instance, eps)
                for job, rjob in zip(instance.jobs, rounded.jobs):
                    assert job.p <= rjob.p < (1 + frac(eps)) * job.p

    def test_types_are_exact_on_rounded_instances(self):
        for seed in range(5):
            instance = random_instance(40 + seed, 6)
            for eps in (1, Fraction(1, 2)):
                rounded = round_processing(instance, eps)
                base = 1 + frac(eps)
                for i, job in zip(job_types(rounded, eps), rounded.jobs):
                    assert base**i == job.p


class TestEnumerateTypeGuesses:
    def test_no_class_eligible_gives_only_empty(self):
        instance = make_instance([(2, 100, 1), (4, 100, 1)])
        out = list(enumerate_type_guesses(instance, 1, 100, E3))
        assert out == [Guess((), ())]

    def test_eligible_class_fully_pruned_by_release(self):
        instance = make_instance([(8, 7, 1)])
        stats = {}
        out = list(enumerate_type_guesses(instance, 1, 2, E3, stats=stats))
        assert out == [Guess((), ())]
        assert stats["pruned_release"] == 1

    def test_stats_carry_a_zero_precedence_count(self):
        # size classes have no precedence between them, so the stream both
        # modes share never prunes a class guess on it
        eps = Fraction(1, 2)
        rounded = round_processing(random_instance(61, 5, p_max=8, r_max=3, density=0.4), eps)
        stats = {}
        out = list(enumerate_type_guesses(rounded, eps, 1, 4, stats=stats))
        assert rounded.prec and len(out) > 1
        assert stats["yielded"] == len(out)
        assert stats["pruned_prec"] == 0

    def test_single_class_half_grid(self):
        rounded = round_processing(make_instance([(8, 2, 1)]), Fraction(1, 2))
        assert rounded.jobs[0].p == Fraction(729, 64)
        out = list(enumerate_type_guesses(rounded, Fraction(1, 2), 2, E3))
        assert out == [Guess((), ()), Guess((6,), (Fraction(729, 128),))]

    def test_matches_recursive_reference(self):
        for seed in range(6):
            eps = Fraction(1, 2)
            raw = random_instance(60 + seed, 5, p_max=8, r_max=3, density=0.4)
            rounded = round_processing(raw, eps)
            got = {canon(g) for g in enumerate_type_guesses(rounded, eps, 1, 4)}
            assert got == enumerate_type_guesses_ref(rounded, eps, 1, 4)


class TestSharedPrecedence:
    def test_lifted_instance_reuses_the_block_precedence(self):
        block = random_instance(3, 6, r_max=4, density=0.5)
        lifted = adjust_release_times(block, EMPTY_GUESS)
        assert lifted.cover is block.cover
        assert lifted.masks is block.masks

    def test_rounded_and_typed_lift_reuse_it_too(self):
        block = random_instance(4, 6, r_max=4, density=0.5)
        rounded = round_processing(block, 1)
        assert rounded.cover is block.cover
        assert adjust_release_times_typed(rounded, Guess((), ()), 1).cover is block.cover

    def test_an_untouched_block_shares_its_one_closure_with_the_rounding(self):
        jobs = tuple(Job(p, 2, 1) for p in (3, 5, 2))
        block = Instance(jobs, frozenset({(0, 1), (1, 2), (0, 2)}))
        assert "masks" not in block.__dict__
        rounded = round_processing(block, 1)
        assert rounded.masks is block.masks and rounded.cover is block.cover
        assert rounded.prec == {(0, 1), (1, 2)}

    def test_size_classes_computed_once_per_distinct_size(self, monkeypatch):
        instance = make_instance([(8, 2, 1), (6, 2, 1), (8, 3, 2), (4, 2, 1), (7, 2, 3), (6, 5, 1)])
        eps = Fraction(1, 2)
        sizes = {job.p for job in instance.jobs}
        calls = []

        def counted(p, eps):
            calls.append(p)
            return _pow_ceil(p, eps)

        monkeypatch.setattr("prec_sched.bounded._pow_ceil", counted)
        result = solve_bounded(instance, eps, 2, E3, mode="typed")
        assert result.guesses_tried == 4
        # the block's own integer sizes are classified, never a rounded
        # Fraction: once per size by enumerate_type_guesses, and once per
        # size by each lift
        assert all(type(p) is int for p in calls)
        assert sorted(calls) == sorted(list(sizes) * (1 + result.guesses_tried))


class TestAdjustReleaseTimesTyped:
    def test_empty_guess_floor_propagates_along_chain(self):
        rounded = round_processing(
            make_instance([(5, 1, 1), (1, 1, 1)], prec=[(0, 1)]), 1
        )
        adjusted = adjust_release_times_typed(rounded, Guess((), ()), 1)
        assert [job.r for job in adjusted.jobs] == [8, 8]

    def test_agrees_with_reference_fixpoint(self):
        checked = 0
        eps = Fraction(1, 2)
        base = 1 + eps
        for raw in (
            raw for seed in range(20) for raw in dag_variants(80 + seed, 5, p_max=3, r_max=1)
        ):
            rounded = round_processing(raw, eps)
            types = job_types(rounded, eps)
            for guess in islice(
                enumerate_type_guesses(rounded, eps, Fraction(1, 2), 4), 10
            ):
                early = dict(zip(guess.keys, guess.starts))
                floors = [
                    early.get(types[j], Fraction(rounded.jobs[j].p))
                    for j in range(rounded.n)
                ]
                intervals = [
                    (s, s + base**i) for i, s in zip(guess.keys, guess.starts)
                ]
                expected = naive_adjust(rounded, floors, intervals)
                adjusted = adjust_release_times_typed(rounded, guess, eps)
                got = [frac(job.r) for job in adjusted.jobs]
                assert got == expected
                checked += 1
        assert checked >= 300

    def test_two_sizes_in_one_class(self):
        # at eps 1/2, 6 and 7 both round up to (3/2)^5 = 243/32, class 5,
        # and 4 to (3/2)^4 = 81/16, class 4; on the instance rounded or not,
        # the lift floors and sizes every job by its class's power
        eps = Fraction(1, 2)
        base = 1 + eps
        raw = make_instance([(6, 2, 1), (7, 4, 2), (4, 2, 1), (6, 9, 1)], prec=[(2, 1)])
        rounded = round_processing(raw, eps)
        assert [job.p for job in rounded.jobs] == [base**5, base**5, base**4, base**5]
        for instance in (rounded, raw):
            types = job_types(instance, eps)
            assert types == (5, 5, 4, 5)
            guesses = list(enumerate_type_guesses(instance, eps, 2, 4))
            assert {canon(g) for g in guesses} == enumerate_type_guesses_ref(instance, eps, 2, 4)
            # class 5's smallest release is job 0's, 2, below its grid start
            # 243/64, though job 1's, 4, is above it
            assert Guess((5,), (Fraction(243, 64),)) in guesses
            for guess in guesses:
                early = dict(zip(guess.keys, guess.starts))
                floors = [early.get(i, base**i) for i in types]
                intervals = [(s, s + base**i) for i, s in zip(guess.keys, guess.starts)]
                adjusted = adjust_release_times_typed(instance, guess, eps)
                assert [frac(job.r) for job in adjusted.jobs] == naive_adjust(
                    instance, floors, intervals
                )
                assert [job.p for job in adjusted.jobs] == [float(base**i) for i in types]


    def test_guess_of_a_class_no_job_has(self):
        # at eps 1 the jobs are in classes 3 and 0; class 5's guessed
        # interval [3, 3 + 2^5] still pushes job 0's floor 8 to its right
        # end, 35, and the guessed start floors no job
        instance = make_instance([(8, 2, 1), (1, 50, 1), (1, 40, 2)])
        guess = Guess((5,), (Fraction(3),))
        adjusted = adjust_release_times_typed(instance, guess, 1)
        floors = [Fraction(8), Fraction(50), Fraction(40)]
        assert naive_adjust(instance, floors, [(3, 35)]) == [35, 50, 40]
        assert [job.r for job in adjusted.jobs] == [35, 50, 40]
        assert [job.p for job in adjusted.jobs] == [8.0, 1.0, 1.0]


def unrounded_corpus():
    """Seeded instances of four generator families, each with its
    precedence and without."""
    for family in ("uniform", "chains", "antichain", "p_le_r"):
        for seed in range(3):
            instance = generate(GeneratorConfig(n=8, seed=seed, r_max=4, family=family))
            yield instance
            yield make_instance([(job.p, job.r, job.w) for job in instance.jobs])


class TestTypedModeNeedsNoRounding:
    @pytest.mark.parametrize("eps", [1, Fraction(1, 2), Fraction(1, 4)])
    def test_stream_and_lift_match_the_rounded_instance(self, eps):
        # rounding keeps every job in its class, and the lift rounds
        nonempty = 0
        for raw in unrounded_corpus():
            rounded = round_processing(raw, eps)
            guesses = list(enumerate_type_guesses(raw, eps, 1, E3))
            assert guesses == list(enumerate_type_guesses(rounded, eps, 1, E3))
            for guess in guesses[:10]:
                lifted = adjust_release_times_typed(raw, guess, eps)
                assert lifted.jobs == adjust_release_times_typed(rounded, guess, eps).jobs
            nonempty += len(guesses) > 1
        assert nonempty

    def test_solvers_never_round_an_instance(self):
        for raw in unrounded_corpus():
            bounded = make_instance([(job.p, job.r + 1, job.w) for job in raw.jobs], raw.prec)
            for eps in (1, Fraction(1, 2), Fraction(1, 4)):
                result = solve_bounded(bounded, eps, 1, E3, mode="typed")
                assert is_feasible(result.schedule, bounded)
                result = decompose_and_solve(raw, eps, bounded_mode="typed")
                assert is_feasible(result.schedule, raw)


class TestSolveBounded:
    def test_single_job_release_dominated(self):
        # every grid start is pruned, the empty guess is already optimal
        instance = make_instance([(3, 5, 2)])
        result = solve_bounded(instance, Fraction(1, 2), 5, E3)
        assert result.cost == 16.0
        assert result.best_guess == EMPTY_GUESS
        assert result.guesses_tried == 1
        assert result.guesses_failed == 0

    # two jobs on which only a guessed early start reaches the optimum 211,
    # even once each guess's schedule is tightened: the empty guess lifts
    # job 0 to its size 11, so job 1 goes first, and tightened that costs 215
    TWO_JOBS = make_instance([(11, 8, 4), (8, 11, 5)])

    def test_two_job_grid_start_recovers_optimum(self):
        # the guessed start 33/4 keeps job 0 first, and tighten moves it to
        # its release 8
        result = solve_bounded(self.TWO_JOBS, Fraction(1, 4), 6, 21)
        assert result.cost == 211.0 == exact_opt(self.TWO_JOBS)[0]
        assert result.schedule.start == (8.0, 19.0)
        assert result.best_guess == Guess((0,), (Fraction(33, 4),))
        empty = solve_bounded(self.TWO_JOBS, Fraction(1, 4), 6, 21, mode="empty-guess")
        assert empty.cost == 215.0

    def test_typed_guess_is_scored_after_tighten(self):
        # the class guess's list schedule costs more than the empty guess's
        # (220.25...); only tightened does it win, at the optimum
        result = solve_bounded(self.TWO_JOBS, Fraction(1, 4), 6, 21, mode="typed")
        assert result.cost == 211.0
        assert result.schedule.start == (8.0, 19.0)
        assert result.best_guess == Guess((11,), (Fraction(146484375, 16777216),))

    def test_tie_keeps_earliest_guess_in_stream_order(self):
        # every guess tightens to starts 2 and 6, so the empty guess, first
        # in the stream, wins the three-way tie
        instance = make_instance([(4, 2, 1), (4, 2, 1)])
        result = solve_bounded(instance, Fraction(1, 2), 2, E3)
        assert result.cost == 16.0
        assert result.guesses_tried == 3  # empty, {0}@2, {1}@2
        assert result.best_guess == EMPTY_GUESS

    def test_empty_guess_mode_two_approximates_lp(self):
        # with p <= r no job can be early, so one LP pass suffices; on a
        # chain the solver solves no LP, and guess_traces solves it instead
        chains = 0
        for seed in range(12):
            import random as _random

            rng = _random.Random(seed)
            n = 2 + seed % 4
            jobs = []
            for _ in range(n):
                p = rng.randint(1, 4)
                r = max(p, 2) + rng.randint(0, 6)
                jobs.append((p, r, rng.randint(0, 6)))
            prec = [
                (j, k) for j in range(n) for k in range(j + 1, n) if rng.random() < 0.3
            ]
            instance = normalize_release_times(make_instance(jobs, prec))
            chains += sorted(mask.bit_count() for mask in instance.masks) == list(range(n))
            with guess_traces() as traces:
                result = solve_bounded(instance, 1, 2, E3, mode="empty-guess")
            assert result.guesses_tried == 1
            ((_, _, run),) = traces
            assert result.cost <= 2 * run.lp.value + 1e-6
        assert chains == 2

    def test_guarantee_against_exact_optimum(self):
        for seed in range(20):
            n = 2 + seed % 4
            L = 2 + seed % 4
            eps = (1, Fraction(1, 2), Fraction(1, 4))[seed % 3]
            instance = random_bounded_instance(seed, n, L)
            result = solve_bounded(instance, eps, L, E3)
            opt, _ = exact_opt(instance)
            assert result.cost <= 2 * (1 + float(frac(eps))) * opt + 1e-6
            assert is_feasible(result.schedule, instance)

    def test_typed_mode_on_single_job(self):
        # the empty guess starts the job at its rounded size 729/64 and the
        # class guess at 729/128; tighten moves either to the release 2, so
        # both reach the optimum and the empty guess, first, wins the tie
        instance = make_instance([(8, 2, 1)])
        result = solve_bounded(instance, Fraction(1, 2), 2, E3, mode="typed")
        assert result.guesses_tried == 2
        assert is_feasible(result.schedule, instance)
        assert result.schedule.start == (2.0,)
        assert result.cost == 10.0 == exact_opt(instance)[0]
        assert result.best_guess == EMPTY_GUESS

    def test_release_below_l_rejected(self):
        instance = make_instance([(2, 1, 1)])
        with pytest.raises(ValidationError, match="not bounded by L = 2"):
            solve_bounded(instance, 1, 2, E3)

    def test_too_many_jobs_without_budget_rejected(self):
        instance = make_instance([(1, 2, 1)] * 11)
        with pytest.raises(ValueError, match="capped at n = 10"):
            solve_bounded(instance, 1, 2, E3)

    def test_budget_lifts_the_job_cap(self):
        instance = make_instance([(1, 2, 1)] * 11)
        result = solve_bounded(instance, 1, 2, E3, budget=5)
        assert result.cost == 88.0  # back-to-back from t = 2

    def test_budget_truncates_stream(self):
        # every mode runs the first k guesses of its full stream
        eps = Fraction(1, 2)
        instance = normalize_release_times(
            make_instance([(8, 2, 1), (6, 3, 2), (5, 2, 1)], [(0, 2)])
        )
        streams = {
            "exhaustive": list(enumerate_guesses(instance, eps, E3)),
            "typed": list(enumerate_type_guesses(round_processing(instance, eps), eps, 2, E3)),
            "empty-guess": [EMPTY_GUESS],
        }
        assert len(streams["exhaustive"]) > 3 and len(streams["typed"]) > 3
        for mode, full in streams.items():
            for k in (0, 1, 3):
                with guess_traces() as traces:
                    if k:
                        result = solve_bounded(instance, eps, 2, E3, mode=mode, budget=k)
                        assert result.guesses_failed == 0
                    else:
                        with pytest.raises(SchedulingError, match="all 0 guesses failed"):
                            solve_bounded(instance, eps, 2, E3, mode=mode, budget=k)
                assert [g for g, _, _ in traces] == full[:k]

    def test_negative_budget_rejected(self):
        instance = make_instance([(1, 2, 1)])
        for mode in MODES:
            with pytest.raises(ValueError, match="budget must be nonnegative, got -1"):
                solve_bounded(instance, 1, 2, E3, mode=mode, budget=-1)

    def test_budget_zero_fails_loudly(self):
        # in every mode: empty-guess mode used to ignore the budget
        instance = make_instance([(1, 2, 1)])
        for mode in MODES:
            with pytest.raises(SchedulingError, match="all 0 guesses failed"):
                solve_bounded(instance, 1, 2, E3, mode=mode, budget=0)
            assert solve_bounded(instance, 1, 2, E3, mode=mode, budget=1).guesses_tried == 1

    def test_unknown_mode_rejected(self):
        instance = make_instance([(1, 2, 1)])
        with pytest.raises(ValueError, match="unknown mode"):
            solve_bounded(instance, 1, 2, E3, mode="guesswork")

    def test_nonpositive_epsilon_rejected_in_every_mode(self, monkeypatch):
        # typed mode used to classify with base 1 + eps <= 1, which never ends
        def no_classes(*args):
            raise AssertionError("sizes classified with a nonpositive epsilon")

        monkeypatch.setattr("prec_sched.bounded._pow_ceil", no_classes)
        instance = make_instance([(8, 6, 2)])
        for mode in ("exhaustive", "typed", "empty-guess"):
            for eps in (0, -1):
                with pytest.raises(ValueError, match="epsilon must be positive"):
                    solve_bounded(instance, eps, 6, 21, mode=mode)

    @pytest.mark.parametrize("eps", [0, Fraction(-1, 2), -1])
    def test_rounding_and_typed_lift_reject_nonpositive_epsilon(self, eps):
        # classifying by powers of 1 + eps <= 1 never reached the size
        instance = make_instance([(8, 6, 2)])
        with pytest.raises(ValueError, match="epsilon must be positive"):
            list(enumerate_type_guesses(instance, eps, 6, 21))
        rounded = round_processing(instance, 1)
        for given in (rounded, instance):
            with pytest.raises(ValueError, match="epsilon must be positive"):
                adjust_release_times_typed(given, EMPTY_GUESS, eps)

    @pytest.mark.parametrize("beta", [0, -1, math.inf, Fraction(10**400)])
    def test_beta_must_be_positive_and_finite(self, beta):
        instance = make_instance([(8, 6, 2)])
        for mode in MODES:
            with pytest.raises(ValueError, match="beta must be positive and finite"):
                solve_bounded(instance, 1, 6, beta, mode=mode)
        with pytest.raises(ValueError, match="beta must be positive and finite"):
            list(enumerate_guesses(instance, 1, beta))
        with pytest.raises(ValueError, match="beta must be positive and finite"):
            list(enumerate_type_guesses(instance, 1, 6, beta))

    @pytest.mark.parametrize("L", [0, -5, math.inf, Fraction(10**400)])
    def test_L_must_be_positive_and_finite(self, L):
        instance = make_instance([(8, 6, 2)])
        for mode in MODES:
            with pytest.raises(ValueError, match="L must be positive and finite"):
                solve_bounded(instance, 1, L, 21, mode=mode)
        with pytest.raises(ValueError, match="L must be positive and finite"):
            list(enumerate_type_guesses(instance, 1, L, 21))

    def test_epsilon_floor_in_every_entry_point(self):
        instance = make_instance([(8, 6, 2)])
        floor = "epsilon must exceed 0.0078125 \\(1/128\\)"
        for eps in (Fraction(1, 128), Fraction(1, 10**400)):
            for mode in MODES:
                with pytest.raises(ValueError, match=floor):
                    solve_bounded(instance, eps, 6, 21, mode=mode)
            with pytest.raises(ValueError, match=floor):
                list(enumerate_guesses(instance, eps, 21))
            with pytest.raises(ValueError, match=floor):
                list(enumerate_type_guesses(instance, eps, 6, 21))
            with pytest.raises(ValueError, match=floor):
                adjust_release_times_typed(instance, EMPTY_GUESS, eps)
        result = solve_bounded(instance, Fraction(1, 127), 6, 21)
        assert result.guesses_tried > 1

    def test_guess_traces_see_every_guess(self):
        instance = random_bounded_instance(5, 4, 2)
        for mode in MODES:
            with guess_traces() as traces:
                result = solve_bounded(instance, Fraction(1, 2), 2, E3, mode=mode)
            assert len(traces) == result.guesses_tried
            assert traces[0][0] == EMPTY_GUESS
            for _, adjusted, run in traces:
                assert len(run.schedule.start) == adjusted.n == instance.n


class TestChainBlocks:
    """A chain, one job or a total order, is list-scheduled without an LP."""

    CHAINS = {
        "one job": make_instance([(8, 6, 2)]),
        # the order is 2, 0, 3, 1: the chain is sorted by predecessor count
        "four jobs": normalize_release_times(
            make_instance(
                [(8, 6, 1), (10, 6, 4), (9, 7, 2), (12, 6, 3)], [(2, 0), (0, 3), (3, 1)]
            )
        ),
    }
    NOT_CHAINS = {
        "antichain": make_instance([(3, 6, 1), (5, 6, 4)]),
        "fork": make_instance([(3, 6, 1), (5, 6, 4), (2, 7, 2)], [(0, 1), (0, 2)]),
        "join": make_instance([(3, 6, 1), (5, 6, 4), (2, 7, 2)], [(0, 2), (1, 2)]),
    }

    @pytest.mark.parametrize("name", CHAINS)
    @pytest.mark.parametrize("mode", MODES)
    def test_chain_makes_no_lp_call(self, monkeypatch, name, mode):
        def refuse(*args, **kwargs):
            raise AssertionError("a chain block needs no LP")

        instance = self.CHAINS[name]
        monkeypatch.setattr("prec_sched.bounded.lp_ls", refuse)
        with guess_traces() as traces:
            result = solve_bounded(instance, Fraction(1, 4), 6, E3, mode=mode)
        monkeypatch.undo()
        assert len(traces) == result.guesses_tried
        assert result.guesses_failed == 0
        # each guess gets the schedule the LP path gives it, so the best does
        # too, once tightened
        for _, adjusted, run in traces:
            assert run.schedule == lp_ls(adjusted).schedule
        tight = [tighten(run.schedule, instance) for _, _, run in traces]
        assert result.schedule == min(tight, key=lambda s: schedule_cost(s, instance))

    def test_chains_try_a_nonempty_guess(self):
        for instance in self.CHAINS.values():
            for mode in ("exhaustive", "typed"):
                assert solve_bounded(instance, Fraction(1, 4), 6, E3, mode=mode).guesses_tried > 1

    @pytest.mark.parametrize("name", NOT_CHAINS)
    @pytest.mark.parametrize("mode", MODES)
    def test_other_blocks_make_one_lp_call_per_guess(self, monkeypatch, name, mode):
        calls = []

        def counted(instance, **kwargs):
            calls.append(instance)
            return lp_ls(instance, **kwargs)

        monkeypatch.setattr("prec_sched.bounded.lp_ls", counted)
        result = solve_bounded(self.NOT_CHAINS[name], Fraction(1, 4), 6, E3, mode=mode)
        assert len(calls) == result.guesses_tried


class TestGridShift:
    def test_shift_properties_on_exact_optima(self):
        for seed in range(12):
            n = 2 + seed % 5
            L = 2 + seed % 3
            instance = random_bounded_instance(seed, n, L)
            _, optimal = exact_opt(instance)
            comp_old = [s + job.p for s, job in zip(optimal.start, instance.jobs)]
            for eps in (1, Fraction(1, 2), Fraction(1, 4)):
                shifted = grid_shift(optimal, instance, eps)
                epsf = frac(eps)
                for j, job in enumerate(instance.jobs):
                    s = shifted.start[j]
                    # on the grid, never earlier, stretched at most 1 + eps
                    assert (s / (epsf * job.p)).denominator == 1
                    assert s >= optimal.start[j]
                    assert s + job.p <= (1 + epsf) * comp_old[j]
                key_old = sorted(range(n), key=lambda j: (comp_old[j], j))
                comp_new = [
                    shifted.start[j] + instance.jobs[j].p for j in range(n)
                ]
                key_new = sorted(range(n), key=lambda j: (comp_new[j], j))
                assert key_old == key_new
                by_start = sorted(range(n), key=lambda j: shifted.start[j])
                for a, b in zip(by_start, by_start[1:]):
                    assert shifted.start[a] + instance.jobs[a].p <= shifted.start[b]
                assert is_feasible(shifted, instance)

    def test_early_job_count_stays_below_bound(self):
        for seed in range(10):
            n = 2 + seed % 5
            instance = random_bounded_instance(seed, n, 2)
            _, optimal = exact_opt(instance)
            for eps in (Fraction(1, 2), Fraction(1, 4)):
                shifted = grid_shift(optimal, instance, eps)
                early = sum(
                    shifted.start[j] < instance.jobs[j].p for j in range(n)
                )
                assert early <= early_bound(eps, E3)

    def test_single_job_at_origin_stays_put(self):
        instance = make_instance([(4, 0, 1)])
        shifted = grid_shift(exact_opt(instance)[1], instance, Fraction(1, 2))
        assert shifted.start == (Fraction(0),)
