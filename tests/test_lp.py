"""Cutting-plane LP: solver convergence, separation oracles, and the
per-job / subset lower-bound consequences of the subset constraints."""

from __future__ import annotations

import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog
from scipy.optimize._highspy._core import MatrixFormat, kHighsInf

import prec_sched.lp
from prec_sched import (
    GeneratorConfig,
    Instance,
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
from prec_sched.lp import TAU_LP, cut_violation_of
from .auditors import check_lp_lemmas
from .conftest import random_instance
from .oracles import separate_exhaustive_ref

TOL = 1e-6


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
        for j, k in instance.prec:
            assert sol.completion[j] <= sol.completion[k] + 1e-9

    def test_no_cut_left_violated(self):
        for seed in range(20):
            instance = random_instance(seed + 100, 6)
            sol = solve_lp(instance)
            assert separate_exhaustive(sol.completion, instance, TAU_LP) is None

    def test_duals_one_per_row_and_price_the_cuts(self):
        for seed in range(10):
            instance = random_instance(seed + 300, 7, density=0.4)
            sol = solve_lp(instance)
            # one row per cover pair, not per pair of the closed relation
            assert len(instance.cover) < len(instance.prec)
            assert len(sol.duals) == len(instance.cover) + len(sol.cuts)
            assert max(sol.duals) <= 1e-9
            # precedence rows have rhs 0, so the cut rows carry the dual value
            cut_duals = sol.duals[len(instance.cover):]
            dual_value = sum(-y * float(cut.rhs) for y, cut in zip(cut_duals, sol.cuts))
            assert dual_value == pytest.approx(sol.value, rel=1e-7)

    def test_block_relation_keeps_the_order_of_a_path_outside_it(self):
        # a -> m -> b with m outside the block {a, b}: the block's relation
        # is the parent's closure restricted to it, as partition_jobs
        # builds it, and its own cover keeps (a, b), which the parent's
        # cover restricted to the block would lose
        parent = make_instance([(4, 0, 1), (1, 0, 1), (1, 0, 5)], [(0, 1), (1, 2)])
        assert parent.cover == ((0, 1), (1, 2))
        jobs = (parent.jobs[0], parent.jobs[2])
        block = Instance(jobs, frozenset({(0, 1)}))
        assert block.cover == ((0, 1),)
        # b is short and heavy, so only the order row keeps it after a
        unordered = solve_lp(Instance(jobs, frozenset()))
        assert unordered.completion[1] < unordered.completion[0] - 1.0
        sol = solve_lp(block)
        assert sol.completion[0] <= sol.completion[1] + 1e-9
        assert len(sol.duals) == 1 + len(sol.cuts)

    def test_round_cap_raises_with_cut(self, monkeypatch):
        instance = random_instance(2, 6)
        assert prec_sched.lp._round_cap(instance.n) == 10 * 6 * 6
        points = []
        real = prec_sched.lp.linprog

        def recording(highs):
            x, z, duals = real(highs)
            points.append(tuple(x))
            return x, z, duals

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
        expected = {
            tuple(back[j] for j in cut.jobs if j in back) for cut in lp.cuts
        } - {()}
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

    def test_subset_outside_the_instance_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            solve_lp(make_instance([(1, 0, 1)]), warm=[(0, 1)])


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
        public linprog on the same rows; every later round, hot-started
        after a row was added, reaches linprog's objective on the live
        rows to a relative 1e-9."""
        real = prec_sched.lp.linprog
        solvers = []  # each LP's HiGHS model, kept alive so that none is mistaken for another
        checked = {"first": 0, "later": 0}

        def compared(highs):
            first = all(highs is not seen for seen in solvers)
            x, z, duals = real(highs)
            model = highs.getLp()
            n, m = model.num_col_, model.num_row_
            assert model.col_lower_ == [0.0] * n and model.col_upper_ == [kHighsInf] * n
            assert model.row_lower_ == [-kHighsInf] * m
            assert len(x) == n and len(duals) == m
            ref = linprog(
                model.col_cost_, A_ub=dense_rows(model), b_ub=model.row_upper_, method="highs",
                options={"primal_feasibility_tolerance": 1e-9, "dual_feasibility_tolerance": 1e-9},
            )
            assert ref.success
            if first:
                solvers.append(highs)
                assert x == ref.x.tolist()
                assert z == ref.fun
                assert duals == ref.ineqlin.marginals.tolist()
            else:
                assert z == pytest.approx(ref.fun, rel=1e-9)
            checked["first" if first else "later"] += 1
            return x, z, duals

        monkeypatch.setattr(prec_sched.lp, "linprog", compared)
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


class TestCheckLpLemmas:
    def test_converged_solutions_are_clean(self):
        for seed in range(15):
            instance = random_instance(seed, 5)
            sol = solve_lp(instance)
            assert check_lp_lemmas(sol, instance).ok

    def test_below_halfway_bound_flagged(self):
        instance = make_instance([(2, 3, 1)])
        fake = LpSolution((3.5,), 3.5, (), 1, (3.5,))
        report = check_lp_lemmas(fake, instance)
        assert any("below" in f for f in report.findings)

    def test_all_subsets_clean_at_n8(self):
        instance = random_instance(42, 8)
        sol = solve_lp(instance)
        report = check_lp_lemmas(sol, instance)
        assert report.ok

    def test_subset_bound_violation_flagged(self):
        # total processing 4 but completions below 2 break the subset bound
        instance = make_instance([(2, 0, 1), (2, 0, 1)])
        fake = LpSolution((1.4, 1.6), 3.0, (), 1, (3.0,))
        report = check_lp_lemmas(fake, instance)
        assert any("exceeds" in f for f in report.findings)
