"""Cutting-plane LP: solver convergence, separation oracles, and the
per-job / subset lower-bound consequences of the subset constraints."""

from __future__ import annotations

import math
import os
import random
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog
from scipy.optimize._highspy._core import MatrixFormat, kHighsInf

import prec_sched.decompose
import prec_sched.listsched
import prec_sched.lp
from prec_sched import (
    GeneratorConfig,
    Instance,
    Job,
    LpIterationLimitError,
    LpSolution,
    build_grid,
    decompose_and_solve,
    exact_opt,
    generate,
    make_cut,
    make_instance,
    normalize_release_times,
    partition_jobs,
    separate_exhaustive,
    separate_fast,
    solve_lp,
)
from prec_sched.harness import FAMILIES
from prec_sched.instance import MAX_HORIZON, MAX_WEIGHT, validate
from prec_sched.lp import TAU_LP, cut_violation_of, wspt_value
from .auditors import check_lp_lemmas
from .conftest import random_instance, run_python
from .oracles import closure_by_squaring, separate_exhaustive_ref, subset_rhs_ref

TOL = 1e-6


def count_rows(monkeypatch) -> list[int]:
    """Wrap prec_sched.lp.linprog to record the live model's row count at
    each round; returns the list it appends to."""
    rows = []
    real = prec_sched.lp.linprog

    def counting(highs):
        rows.append(highs.getLp().num_row_)
        return real(highs)

    monkeypatch.setattr(prec_sched.lp, "linprog", counting)
    return rows


def random_completion_vector(rng, instance):
    horizon = sum(job.p for job in instance.jobs) + max(job.r for job in instance.jobs)
    return [rng.uniform(0.0, float(horizon)) for _ in range(instance.n)]


class TestSolveLp:
    def test_single_job_binds_its_own_cut(self):
        # the singleton constraint p C >= r p + p^2/2 forces C >= r + p/2
        sol = solve_lp(make_instance([(2, 3, 1)]))
        assert sol.completion[0] == pytest.approx(4.0, abs=TOL)
        assert sol.value == pytest.approx(4.0, abs=TOL)

    def test_two_identical_jobs(self):
        # pair cut: C_0 + C_1 >= 2; singletons: C_j >= 0.5
        sol = solve_lp(make_instance([(1, 0, 1), (1, 0, 1)]))
        assert sol.value == pytest.approx(2.0, abs=TOL)
        assert sum(sol.completion) == pytest.approx(2.0, abs=TOL)
        assert min(sol.completion) >= 0.5 - TOL

    def test_two_job_reference_value(self, two_job_reference):
        # the light job's singleton cut forces C_0 >= 1.5, so Z = 15,
        # a lower bound on the optimal cost 20
        sol = solve_lp(two_job_reference)
        assert sol.value == pytest.approx(15.0, abs=TOL)
        assert sol.completion[0] == pytest.approx(1.5, abs=TOL)
        opt, _ = exact_opt(two_job_reference)
        assert sol.value <= opt + TOL

    def test_lower_bounds_optimum_on_random_instances(self):
        for seed in range(40):
            instance = random_instance(seed, 2 + seed % 7)
            sol = solve_lp(instance)
            opt, _ = exact_opt(instance)
            assert sol.value <= opt + TOL * max(1.0, float(opt))

    def test_objective_monotone_over_rounds(self):
        for seed in range(20):
            sol = solve_lp(random_instance(seed, 6))
            assert all(
                a <= b + 1e-9 for a, b in zip(sol.z_history, sol.z_history[1:])
            )

    def test_precedence_rows_respected(self):
        instance = random_instance(5, 7, density=0.5)
        sol = solve_lp(instance)
        for j, k in closure_by_squaring(instance.prec, instance.n):
            assert sol.completion[j] <= sol.completion[k] + 1e-9

    def test_one_row_per_cover_pair(self, monkeypatch):
        rows = count_rows(monkeypatch)
        for seed in range(10):
            instance = random_instance(seed + 300, 7, density=0.4)
            sol = solve_lp(instance)
            # one row per cover pair, not per pair of the closed relation
            assert len(instance.cover) < len(closure_by_squaring(instance.prec, instance.n))
            # and one per cut of two or more jobs: singletons are column bounds
            assert rows[-1] == len(instance.cover) + sum(len(cut.jobs) > 1 for cut in sol.cuts)

    def test_no_cut_left_violated(self):
        for seed in range(20):
            instance = random_instance(seed + 100, 6)
            sol = solve_lp(instance)
            assert separate_exhaustive(sol.completion, instance, TAU_LP) is None

    def test_block_relation_keeps_the_order_of_a_path_outside_it(self, monkeypatch):
        # a -> m -> b with m outside the block {a, b}: the parent's cover
        # restricted to the block would lose (a, b), so a block given the
        # parent's order restricted to it keeps (a, b) as its own cover
        # (partition_jobs forms no such block: its blocks are convex)
        parent = make_instance([(4, 0, 1), (1, 0, 1), (1, 0, 5)], [(0, 1), (1, 2)])
        assert parent.cover == ((0, 1), (1, 2))
        jobs = (parent.jobs[0], parent.jobs[2])
        block = Instance(jobs, frozenset({(0, 1)}))
        assert block.cover == ((0, 1),)
        # b is short and heavy, so only the order row keeps it after a
        unordered = solve_lp(Instance(jobs, frozenset()))
        assert unordered.completion[1] < unordered.completion[0] - 1.0
        rows = count_rows(monkeypatch)
        sol = solve_lp(block)
        assert sol.completion[0] <= sol.completion[1] + 1e-9
        assert rows[-1] == 1 + sum(len(cut.jobs) > 1 for cut in sol.cuts)

    def test_round_cap_raises_with_cut(self, monkeypatch):
        instance = random_instance(2, 6)
        assert prec_sched.lp._round_cap(instance.n) == 10 * 6 * 6
        points = []
        real = prec_sched.lp.linprog

        def recording(highs):
            x, z = real(highs)
            points.append(tuple(x))
            return x, z

        monkeypatch.setattr(prec_sched.lp, "linprog", recording)
        monkeypatch.setattr(prec_sched.lp, "_round_cap", lambda n: 1)
        with pytest.raises(LpIterationLimitError, match="exceeded 1 rounds") as info:
            solve_lp(instance)
        # the error names the cut that the one solved point still violates
        assert len(points) == 1
        assert info.value.cut is not None
        assert info.value.cut == separate_fast(points[0], instance, TAU_LP)

    def test_empty_instance(self):
        sol = solve_lp(make_instance([]))
        assert sol.value == 0.0
        assert sol.completion == ()

    def test_zero_weights_still_feasible(self):
        instance = make_instance([(2, 1, 0), (3, 0, 0)])
        sol = solve_lp(instance)
        assert sol.value == pytest.approx(0.0, abs=TOL)
        assert separate_exhaustive(sol.completion, instance) is None

    def test_float_view_built_once_per_instance(self, monkeypatch):
        prop = Instance.__dict__["floats"]
        builds = []

        def counted(self, func=prop.func):
            builds.append(self)
            return func(self)

        monkeypatch.setattr(prop, "func", counted)
        instance = random_instance(4, 12)
        sol = solve_lp(instance)
        # every round's separation and every warm or separated cut reads it
        assert sol.iterations >= 3
        assert builds == [instance]
        # with_jobs shares the order's caches, never the jobs' floats
        jobs = tuple(Job(job.p + 1, job.r, job.w + 2) for job in instance.jobs)
        moved = instance.with_jobs(jobs)
        assert moved.floats == (
            tuple(float(job.p) for job in jobs),
            tuple(float(job.r) for job in jobs),
            tuple(float(job.w) for job in jobs),
        )
        assert moved.floats != instance.floats
        assert builds == [instance, moved]


class TestSingletonBounds:
    """Each singleton cut p_j C_j >= r_j p_j + p_j^2/2 enters the model as
    the column bound C_j >= r_j + p_j/2, which is exact in float on integer
    instances within MAX_HORIZON; only the cover pairs and the cuts of two
    or more jobs are rows."""

    def test_bounds_hold_exactly_at_the_magnitude_limits(self, monkeypatch):
        separated = []
        real = prec_sched.lp.separate_fast

        def recording(C, instance, tau=TAU_LP):
            cut = real(C, instance, tau)
            separated.append(cut)
            return cut

        monkeypatch.setattr(prec_sched.lp, "separate_fast", recording)
        solved = 0
        for seed in range(3000):
            n = 2 + seed % 11
            density = (0.0, 0.2, 0.6)[seed // 11 % 3]
            instance = random_instance(
                seed, n, p_max=9000 // n, r_max=3000, w_max=MAX_WEIGHT, density=density
            )
            if validate(instance):
                continue  # its horizon lies past MAX_HORIZON
            sol = solve_lp(instance)
            solved += 1
            for job, c in zip(instance.jobs, sol.completion):
                assert c >= job.r + job.p / 2
        assert solved >= 2900
        # a separated singleton would be a bound the solve left violated
        assert all(cut is None or len(cut.jobs) > 1 for cut in separated)
        assert any(cut is not None for cut in separated)

    def test_model_holds_singletons_as_bounds(self, monkeypatch):
        instance = random_instance(8, 7, density=0.3)
        n = instance.n
        models = []
        real = prec_sched.lp.linprog

        def recording(highs):
            models.append(highs.getLp())
            return real(highs)

        monkeypatch.setattr(prec_sched.lp, "linprog", recording)
        # a warm singleton and a repeated pair collapse into the cuts kept
        sol = solve_lp(instance, warm=[(3,), (1, 2), (2, 1)])
        lower = [float(job.r) + float(job.p) / 2 for job in instance.jobs]
        for model in models:
            assert model.col_lower_ == lower
            assert all(np.count_nonzero(row) >= 2 for row in dense_rows(model))
        assert sol.cuts[:n] == tuple(make_cut(instance, (j,)) for j in range(n))
        assert sol.cuts[n] == make_cut(instance, (1, 2))
        assert all(len(cut.jobs) > 1 for cut in sol.cuts[n:])
        assert models[-1].num_row_ == len(instance.cover) + len(sol.cuts) - n

    def test_separated_singleton_is_already_in_the_model(self, monkeypatch):
        instance = random_instance(3, 5)
        cut = make_cut(instance, (2,))
        monkeypatch.setattr(prec_sched.lp, "separate_fast", lambda C, instance, tau: cut)
        with pytest.raises(LpIterationLimitError, match="after being added") as info:
            solve_lp(instance)
        assert info.value.cut == cut


def wspt_lp_value(instance):
    """wspt_value less sum w p / 2: the LP's optimum without precedence."""
    p = [float(job.p) for job in instance.jobs]
    r = [float(job.r) for job in instance.jobs]
    w = [float(job.w) for job in instance.jobs]
    return wspt_value(p, r, w) - sum(wj * pj for wj, pj in zip(w, p)) / 2


class TestWsptValue:
    """Without precedence the LP's optimum has a closed form, the mean busy
    times of the preemptive WSPT schedule, which checks solve_lp at sizes
    the exhaustive oracle (n <= 18) cannot reach."""

    @pytest.mark.parametrize("n", range(1, 101))
    def test_matches_solve_lp_on_antichains(self, n):
        instance = generate(GeneratorConfig(n=n, seed=n, family="antichain"))
        assert not instance.prec
        assert wspt_lp_value(instance) == pytest.approx(solve_lp(instance).value, rel=1e-9)

    @pytest.mark.parametrize(
        "jobs",
        [
            [(3, 0, 0), (2, 1, 0), (1, 0, 2)],  # zero weights
            [(2, 0, 4), (1, 0, 2), (3, 1, 6), (4, 2, 8)],  # w / p ties
            [(4, 5, 1), (2, 5, 3), (1, 5, 1)],  # equal releases
            [(2, 0.5, 1), (3, 1.25, 2), (1, 2.75, 5), (2, 0.1, 3)],  # float releases
            [(10, 0, 1), (1, 1, 10)],  # one preemption
        ],
    )
    def test_matches_solve_lp_on_hand_cases(self, jobs):
        instance = make_instance(jobs)
        assert wspt_lp_value(instance) == pytest.approx(solve_lp(instance).value, rel=1e-9)

    def test_preemption_by_hand(self):
        # job 0 runs [0, 1] and [2, 11], so M_0 = (1 * 0.5 + 9 * 6.5) / 10 =
        # 5.9, and job 1 runs [1, 2], so M_1 = 1.5: sum w M = 20.9, plus
        # sum w p / 2 = 10
        assert wspt_value([10.0, 1.0], [0.0, 1.0], [1.0, 10.0]) == pytest.approx(30.9, abs=1e-12)

    def test_sweep_ends_on_float_remainders(self):
        # every release a tenth after the last preempts the job running,
        # leaving remainders such as 1 - 0.1 that floats do not hold exactly
        n = 40
        p = [1.0] * n
        r = [0.1 * j for j in range(n)]
        w = [1.0 + j for j in range(n)]
        value = wspt_value(p, r, w)
        assert math.isfinite(value)
        assert value >= sum(wj * (rj + 1.0) for wj, rj in zip(w, r))

    def test_no_jobs(self):
        assert wspt_value([], [], []) == 0.0


class TestSeparateExhaustive:
    def test_satisfied_point_returns_none(self):
        instance = make_instance([(2, 3, 1)])
        assert separate_exhaustive([10.0], instance) is None

    def test_violated_singleton(self):
        instance = make_instance([(2, 3, 1)])
        cut = separate_exhaustive([3.0], instance)
        assert cut.jobs == (0,)
        assert cut_violation_of(cut, [3.0], instance) == pytest.approx(2.0)

    def test_matches_reference_enumeration(self):
        rng = random.Random(0)
        for seed in range(200):
            instance = random_instance(seed, 4)
            C = random_completion_vector(rng, instance)
            ours = separate_exhaustive(C, instance, TAU_LP)
            ref = separate_exhaustive_ref(C, instance, TAU_LP)
            if ref is None:
                assert ours is None
            else:
                assert ours is not None
                assert cut_violation_of(ours, C, instance) == pytest.approx(
                    ref[1], abs=1e-9
                )

    def test_rhs_is_exact(self):
        instance = make_instance([(3, 2, 1), (5, 1, 1)])
        cut = make_cut(instance, (0, 1))
        assert cut.rhs == 1 * 8 + 8 * 8 / 2

    def test_cap_enforced(self):
        instance = random_instance(0, 19)
        with pytest.raises(ValueError, match="separate_fast"):
            separate_exhaustive([0.0] * 19, instance)


class TestSeparateFast:
    def test_violated_singleton_found(self):
        instance = make_instance([(2, 3, 1), (1, 0, 1)])
        cut = separate_fast([3.0, 10.0], instance)
        assert cut is not None
        assert cut_violation_of(cut, [3.0, 10.0], instance) > TAU_LP

    def test_converged_point_returns_none(self):
        for seed in range(10):
            instance = random_instance(seed, 6)
            sol = solve_lp(instance)
            assert separate_fast(sol.completion, instance, TAU_LP) is None

    def test_every_returned_cut_is_genuinely_violated(self):
        rng = random.Random(1)
        hits = 0
        for seed in range(300):
            instance = random_instance(seed, 2 + seed % 9)
            C = random_completion_vector(rng, instance)
            cut = separate_fast(C, instance, TAU_LP)
            if cut is not None:
                hits += 1
                assert cut_violation_of(cut, C, instance) > TAU_LP * 0.999
        assert hits > 50  # the sweep actually exercised the oracle


@st.composite
def separation_points(draw):
    """An instance with n <= 12 and a point on a quarter-unit grid, so that
    every violation is computed exactly and C values often tie. Releases
    are drawn from a small range that includes 0, so they tie too."""
    n = draw(st.integers(1, 12))
    jobs = [
        (draw(st.integers(1, 6)), draw(st.integers(0, 5)), draw(st.integers(0, 4)))
        for _ in range(n)
    ]
    instance = normalize_release_times(make_instance(jobs))
    horizon = 4 * (max(j.r for j in instance.jobs) + sum(j.p for j in instance.jobs))
    point = [draw(st.integers(0, horizon)) / 4 for _ in range(n)]
    return instance, point


class TestPrefixSeparationIsComplete:
    @settings(max_examples=400, deadline=None)
    @given(separation_points())
    def test_prefix_oracle_finds_the_maximum_violation(self, case):
        instance, point = case
        fast = separate_fast(point, instance, TAU_LP)
        exhaustive = separate_exhaustive(point, instance, TAU_LP)
        assert (fast is None) == (exhaustive is None)
        if fast is not None:
            assert cut_violation_of(fast, point, instance) == cut_violation_of(
                exhaustive, point, instance
            )

def chains_block(seed):
    """The largest block, with its parent, of a 14-job chains instance
    split at offset 0 with epsilon 1."""
    parent = generate(GeneratorConfig(n=14, seed=seed, r_max=56, family="chains"))
    lp = solve_lp(parent)
    grid = build_grid(1, 0.0, max(lp.completion))
    subs = partition_jobs(parent, lp, grid)
    return parent, lp, max(subs, key=lambda sub: len(sub.jobs))


class TestWarmStart:
    def test_same_value_as_cold_on_blocks(self):
        checked = 0
        for seed in range(8):
            parent = random_instance(seed, 12, r_max=48)
            lp = solve_lp(parent)
            for b in (0.0, 1.0, 2.0):
                grid = build_grid(1, b, max(lp.completion))
                for sub in partition_jobs(parent, lp, grid):
                    cold = solve_lp(sub.instance)
                    warm = solve_lp(sub.instance, warm=sub.warm)
                    assert warm.value == pytest.approx(cold.value, abs=1e-6)
                    assert separate_exhaustive(warm.completion, sub.instance) is None
                    checked += bool(sub.warm)
        assert checked > 20

    def test_block_subsets_come_from_parent_cuts(self):
        parent, lp, sub = chains_block(1)
        back = {j: pos for pos, j in enumerate(sub.jobs)}
        restricted = {tuple(back[j] for j in cut.jobs if j in back) for cut in lp.cuts}
        expected = {subset for subset in restricted if len(subset) > 1}
        assert sub.warm == tuple(sorted(expected))

    def test_warm_cuts_kept_with_the_blocks_own_rhs(self):
        parent, lp, sub = chains_block(1)
        sol = solve_lp(sub.instance, warm=sub.warm)
        by_jobs = {cut.jobs: cut for cut in sol.cuts}
        assert set(sub.warm) <= set(by_jobs)
        assert len(by_jobs) == len(sol.cuts)  # no duplicates
        lifted = 0
        for subset in sub.warm:
            cut = by_jobs[subset]
            assert cut == make_cut(sub.instance, subset)
            parent_ids = tuple(sub.jobs[pos] for pos in subset)
            lifted += cut.rhs != make_cut(parent, parent_ids).rhs
        assert lifted > 0  # the block's floor lifted some releases

    def test_warm_block_lp_makes_fewer_highs_calls(self, monkeypatch):
        _, _, sub = chains_block(1)
        calls = []
        real = prec_sched.lp.linprog

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(prec_sched.lp, "linprog", counting)
        cold = solve_lp(sub.instance)
        cold_calls = len(calls)
        calls.clear()
        warm = solve_lp(sub.instance, warm=sub.warm)
        assert len(calls) == warm.iterations
        assert len(calls) < cold_calls
        assert warm.value == pytest.approx(cold.value, abs=1e-6)

    def test_duplicate_and_repeated_ids_collapse(self):
        instance = make_instance([(2, 0, 1), (3, 1, 1), (1, 4, 2)])
        sol = solve_lp(instance, warm=[(0,), (1, 0), (0, 1), (2, 2, 1)])
        jobs = [cut.jobs for cut in sol.cuts]
        assert jobs[:5] == [(0,), (1,), (2,), (0, 1), (1, 2)]
        assert len(set(jobs)) == len(jobs)
        assert make_cut(instance, (2, 2, 1)).rhs == make_cut(instance, (1, 2)).rhs

    @pytest.mark.parametrize(
        "subset, message",
        [((0, 1), "names a job outside"), ((-1,), "names a job outside"), ((), "must be nonempty")],
        ids=["too large", "negative", "empty"],
    )
    def test_subset_outside_the_instance_rejected(self, subset, message):
        instance = make_instance([(1, 0, 1)])
        with pytest.raises(ValueError, match=message):
            make_cut(instance, subset)
        with pytest.raises(ValueError, match=message):
            solve_lp(instance, warm=[subset])


class TestCutRhs:
    def test_every_cut_rhs_is_a_float(self):
        parent, lp, sub = chains_block(1)
        sols = [lp, solve_lp(sub.instance, warm=sub.warm)]
        sols += [solve_lp(random_instance(seed, 9, density=0.2)) for seed in range(5)]
        assert all(type(cut.rhs) is float for sol in sols for cut in sol.cuts)

    def test_starting_and_separated_cuts_equal_make_cut(self):
        # offset 0.37 puts block floors, and so lifted releases, off the integers
        parent, lp, _ = chains_block(1)
        solved = [(parent, lp)]
        for b in (0.0, 0.37):
            for sub in partition_jobs(parent, lp, build_grid(1, b, max(lp.completion))):
                solved.append((sub.instance, solve_lp(sub.instance, warm=sub.warm)))
        assert any(job.r != int(job.r) for instance, _ in solved for job in instance.jobs)
        for instance, sol in solved:
            for cut in sol.cuts:
                assert cut.rhs.hex() == make_cut(instance, cut.jobs).rhs.hex()

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_float_rhs_is_exact_on_integer_instances(self, data):
        n = data.draw(st.integers(1, 12))
        p = data.draw(st.lists(st.integers(1, MAX_HORIZON // n), min_size=n, max_size=n))
        room = MAX_HORIZON - sum(p)
        r = data.draw(st.lists(st.integers(0, room), min_size=n, max_size=n))
        instance = make_instance(list(zip(p, r, [1] * n)))
        assert not validate(instance)
        subset = data.draw(st.sets(st.integers(0, n - 1), min_size=1))
        assert make_cut(instance, subset).rhs == subset_rhs_ref(instance, subset)

    def test_float_rhs_is_exact_at_the_horizon_bound(self):
        # p(U) = MAX_HORIZON gives the largest rhs, H^2/2; an odd p(U)
        # gives p(U)^2/2 a fractional half
        half = MAX_HORIZON // 2
        for jobs in ([(MAX_HORIZON - 1, 0, 1), (1, 0, 1)], [(half - 1, half, 1), (1, half - 1, 1)]):
            instance = make_instance(jobs)
            assert not validate(instance)
            for subset in ((0,), (1,), (0, 1)):
                assert make_cut(instance, subset).rhs == subset_rhs_ref(instance, subset)


class TestReusedSolver:
    """Every LP on a thread runs on that thread's one HiGHS solver, cleared
    for it; nothing of one LP may reach the next."""

    def test_nothing_leaks_between_lps(self):
        a = random_instance(3, 7, density=0.3)
        b = random_instance(4, 11, density=0.5)
        first = solve_lp(a)
        solve_lp(b)
        assert solve_lp(a) == first

    def test_lp_after_an_iteration_limit_solves_as_if_fresh(self, monkeypatch):
        instance = random_instance(5, 9, density=0.2)
        fresh = []
        thread = threading.Thread(target=lambda: fresh.append(solve_lp(instance)))
        thread.start()
        thread.join(timeout=60)
        assert not thread.is_alive()
        with monkeypatch.context() as patch:
            patch.setattr(prec_sched.lp, "_round_cap", lambda n: 1)
            with pytest.raises(LpIterationLimitError):
                solve_lp(random_instance(6, 12))
        assert solve_lp(instance) == fresh[0]

    def test_two_threads_match_a_serial_run(self):
        instances = [random_instance(seed, 4 + seed % 6, density=0.3) for seed in range(12)]
        serial = [solve_lp(instance) for instance in instances]
        results, solvers = {}, {}

        def run(name, order):
            results[name] = {i: solve_lp(instances[i]) for i in order}
            solvers[name] = prec_sched.lp._solvers.highs

        threads = [
            threading.Thread(target=run, args=("forward", range(12))),
            threading.Thread(target=run, args=("backward", range(11, -1, -1))),
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often, mid-LP
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert solvers["forward"] is not solvers["backward"]
        for name in ("forward", "backward"):
            assert [results[name][i] for i in range(12)] == serial

    def test_solver_runs_on_one_thread(self):
        assert prec_sched.lp._HIGHS_OPTIONS["threads"] == 1

    def test_options_are_only_those_away_from_the_defaults(self):
        # HiGHS is given only what changes a solve; the dual simplex and no
        # debugging are the binding's defaults, on every HiGHS tested
        defaults = prec_sched.lp.HighsOptions()
        for name, value in prec_sched.lp._HIGHS_OPTIONS.items():
            assert getattr(defaults, name) != value, name
        core = prec_sched.lp._core
        assert defaults.simplex_strategy == core.simplex_constants.SimplexStrategy.kSimplexStrategyDual
        assert defaults.highs_debug_level == core.HighsDebugLevel.kHighsDebugLevelNone

    @pytest.mark.parametrize("first", ["linprog", "two-thread run"])
    def test_lp_after_another_highs_run_on_its_thread(self, first):
        # HiGHS keeps one scheduler per thread, and a run refuses a thread
        # count other than that scheduler's. Public linprog starts one of
        # the default size, which grows with the core count; the two-thread
        # run leaves, on any machine, what it leaves on a larger one
        instance = random_instance(7, 9, density=0.3)
        expected = solve_lp(instance)
        results = []

        def run():
            if first == "linprog":
                linprog([1, 2], A_ub=[[-1, -1]], b_ub=[-1], method="highs")
            else:
                highs, options = prec_sched.lp._Highs(), prec_sched.lp.HighsOptions()
                options.output_flag = False
                options.threads = 2
                highs.passOptions(options)
                highs.addVars(1, [0.0], [kHighsInf])
                highs.run()
            results.append(solve_lp(instance))
            linprog([1, 2], A_ub=[[-1, -1]], b_ub=[-1], method="highs")
            results.append(solve_lp(instance))

        thread = threading.Thread(target=run)
        thread.start()
        thread.join(timeout=60)
        assert not thread.is_alive()
        assert results == [expected, expected]


def dense_rows(model):
    """The constraint matrix of a HiGHS model, stored row- or column-wise,
    as a dense array."""
    matrix = model.a_matrix_
    start, index, value = matrix.start_, matrix.index_, matrix.value_
    rowwise = matrix.format_ == MatrixFormat.kRowwise
    rows = np.zeros((model.num_row_, model.num_col_))
    for line in range(model.num_row_ if rowwise else model.num_col_):
        for at in range(start[line], start[line + 1]):
            if rowwise:
                rows[line, index[at]] = value[at]
            else:
                rows[index[at], line] = value[at]
    return rows


class TestInnerSolve:
    """The inner solve calls scipy's private HiGHS binding; public linprog
    is the reference that catches drift in that binding."""

    @pytest.mark.parametrize(
        "config, bounded_mode",
        [(GeneratorConfig(n=8, seed=seed, family=family), "exhaustive")
         for family in FAMILIES for seed in (1, 2)]
        + [
            # the benchmark's two shapes
            (GeneratorConfig(n=14, seed=1, r_max=56, family="chains"), "empty-guess"),
            (GeneratorConfig(n=40, seed=1, r_max=160, prec_density=0.9), "typed"),
        ],
        ids=lambda v: f"{v.family}-n{v.n}-s{v.seed}" if isinstance(v, GeneratorConfig) else v,
    )
    def test_bit_identical_to_public_linprog(self, monkeypatch, config, bounded_mode):
        """Each LP's first round, solved from scratch, is bit-identical to
        public linprog on the same rows and column bounds, presolve off as
        in the package; every later round, hot-started after a row was
        added, reaches linprog's objective on the live model to a relative
        1e-9. The column bounds are the singleton cuts, C_j >= r_j + p_j/2."""
        real = prec_sched.lp.linprog
        real_solve_lp = prec_sched.lp.solve_lp
        checked = {"first": 0, "later": 0}
        current = {}  # "instance": the one the LP being solved is of

        def recording(instance, *args, **kwargs):
            current["instance"] = instance
            return real_solve_lp(instance, *args, **kwargs)

        def compared(highs):
            # every LP runs on its thread's one solver, cleared for it, so
            # a round without a basis yet is its LP's first
            first = not highs.getBasis().valid
            x, z = real(highs)
            model = highs.getLp()
            n, m = model.num_col_, model.num_row_
            jobs = current["instance"].jobs
            assert model.col_lower_ == [float(job.r) + float(job.p) / 2 for job in jobs]
            assert model.col_upper_ == [kHighsInf] * n
            assert model.row_lower_ == [-kHighsInf] * m
            assert len(x) == n
            ref = linprog(
                model.col_cost_, A_ub=dense_rows(model), b_ub=model.row_upper_,
                bounds=[(lower, None) for lower in model.col_lower_], method="highs",
                options={
                    "presolve": False,
                    "primal_feasibility_tolerance": 1e-9,
                    "dual_feasibility_tolerance": 1e-9,
                },
            )
            assert ref.success
            if first:
                assert x == ref.x.tolist()
                assert z == ref.fun
            else:
                assert z == pytest.approx(ref.fun, rel=1e-9)
            checked["first" if first else "later"] += 1
            return x, z

        monkeypatch.setattr(prec_sched.lp, "linprog", compared)
        # the two callers of solve_lp, each by its own imported name
        monkeypatch.setattr(prec_sched.decompose, "solve_lp", recording)
        monkeypatch.setattr(prec_sched.listsched, "solve_lp", recording)
        decompose_and_solve(generate(config), 1, bounded_mode=bounded_mode)
        # the parent LP and at least one block LP, and rounds after a cut
        assert checked["first"] >= 2
        assert checked["later"] >= 1

    def test_missing_binding_names_the_scipy_floor(self):
        # as on a scipy release older than 1.15, which has no such module
        code = (
            "import sys, scipy.optimize; sys.modules['scipy.optimize._highspy._core'] = None; "
            "import prec_sched"
        )
        src = str(Path(prec_sched.lp.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
        )
        assert proc.returncode == 1
        assert "ImportError: prec_sched needs scipy >= 1.15" in proc.stderr


class TestBindingLoad:
    """lp.py loads the HiGHS binding from its file, without scipy.optimize."""

    def test_import_leaves_scipy_optimize_out(self):
        code = "import sys, prec_sched; print('scipy.optimize' in sys.modules)"
        assert run_python(code).split() == ["False"]

    def test_scipy_optimize_imported_first_gives_its_module(self):
        code = (
            "import scipy.optimize, prec_sched; "
            "print(prec_sched.lp._Highs is scipy.optimize._highspy._core._Highs)"
        )
        assert run_python(code).split() == ["True"]

    def test_scipy_optimize_imported_after_shares_the_binding(self):
        # the binding is not registered, so scipy.optimize imported later
        # binds its own attribute path, to the extension already loaded; the
        # module object may be a copy on some Pythons, its types may not
        code = (
            "import prec_sched, scipy.optimize; "
            "print(scipy.optimize._highspy._core._Highs is prec_sched.lp._Highs); "
            "print(scipy.optimize.linprog([1, 2], A_ub=[[-1, -1]], b_ub=[-1]).fun)"
        )
        assert run_python(code).split() == ["True", "1.0"]

    def test_an_entry_the_load_leaves_is_dropped(self):
        # a single-phase binding (pybind11 2) puts itself in sys.modules as
        # it loads; the wrapped loader does the same with any binding, so
        # this holds whichever phase the installed one uses
        code = (
            "import importlib.machinery as m, sys; create = m.ExtensionFileLoader.create_module; "
            "m.ExtensionFileLoader.create_module = "
            "lambda self, spec: sys.modules.setdefault(spec.name, create(self, spec)); "
            "import prec_sched; print('scipy.optimize._highspy._core' in sys.modules); "
            "import scipy.optimize; "
            "print(scipy.optimize._highspy._core._Highs is prec_sched.lp._Highs)"
        )
        assert run_python(code).split() == ["False", "True"]

    def test_plain_import_when_the_file_is_not_found(self):
        # no extension file name can match, so lp.py takes the plain import;
        # solve_lp gives the value it gives in this process
        jobs, prec = [(3, 0, 2), (1, 2, 5), (2, 1, 1), (2, 0, 3)], [(0, 2), (1, 3)]
        code = (
            "import importlib.machinery, sys; importlib.machinery.EXTENSION_SUFFIXES.clear(); "
            "from prec_sched import make_instance, normalize_release_times, solve_lp; "
            f"instance = normalize_release_times(make_instance({jobs!r}, {prec!r})); "
            "print('scipy.optimize' in sys.modules, repr(solve_lp(instance).value))"
        )
        value = solve_lp(normalize_release_times(make_instance(jobs, prec))).value
        assert run_python(code).split() == ["True", repr(value)]


class TestCheckLpLemmas:
    def test_converged_solutions_are_clean(self):
        for seed in range(15):
            instance = random_instance(seed, 5)
            sol = solve_lp(instance)
            assert not check_lp_lemmas(sol, instance)

    def test_below_halfway_bound_flagged(self):
        instance = make_instance([(2, 3, 1)])
        fake = LpSolution((3.5,), 3.5, (), 1, (3.5,))
        report = check_lp_lemmas(fake, instance)
        assert any("below" in f for f in report)

    def test_all_subsets_clean_at_n8(self):
        instance = random_instance(42, 8)
        sol = solve_lp(instance)
        assert not check_lp_lemmas(sol, instance)

    def test_subset_bound_violation_flagged(self):
        # total processing 4 but completions below 2 break the subset bound
        instance = make_instance([(2, 0, 1), (2, 0, 1)])
        fake = LpSolution((1.4, 1.6), 3.0, (), 1, (3.0,))
        report = check_lp_lemmas(fake, instance)
        assert any("exceeds" in f for f in report)
