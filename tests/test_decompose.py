"""Geometric decomposition: grid construction, interval assignment,
offset derandomization, block solving, and recombination."""

from __future__ import annotations

import logging
import math
import random
import statistics
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prec_sched import (
    GeneratorConfig,
    Instance,
    InvariantViolationError,
    LpSolution,
    Schedule,
    SubInstance,
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
    schedule_cost,
    solve_bounded,
    solve_lp,
    tighten,
)
from prec_sched.bounded import MODES
from prec_sched.decompose import (
    EPS_MAX,
    SKIP_REL,
    IntervalGrid,
    _floor_bound,
    _solve_partition,
)
from prec_sched.harness import FAMILIES
from prec_sched.lp import wspt_value
from .auditors import exact_contribution, grid_floor_values, guess_traces, subproblem_optimum_sum
from .conftest import random_bounded_instance, random_instance
from .oracles import decompose_eager, partition_signature, round_processing


def fake_lp(completion):
    """LP stand-in carrying only completion times, for partition tests."""
    c = tuple(float(x) for x in completion)
    return LpSolution(c, sum(c), (), 0, ())


class TestGrids:
    def test_unit_scale_breakpoints(self):
        grid = build_grid(1, 0.0, 1.0)
        assert len(grid.breakpoints) == 3
        assert grid.breakpoints == pytest.approx(
            (math.exp(-6), math.exp(-3), 1.0)
        )
        assert grid.t(4) == pytest.approx(math.exp(3))

    def test_offset_shifts_and_shrinks(self):
        grid = build_grid(1, 3.0, 1.0)
        assert len(grid.breakpoints) == 2
        assert grid.breakpoints == pytest.approx((math.exp(-3), 1.0))

    def test_scale_arguments_validated(self):
        with pytest.raises(ValueError, match="offset"):
            build_grid(1, -0.1, 1.0)
        with pytest.raises(ValueError, match="offset"):
            build_grid(1, 3.5, 1.0)
        # nan would give a grid below its own Cmax, inf an overflow message
        for cmax in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="cmax must be positive and finite"):
                build_grid(1, 0.0, cmax)

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
            build_grid(Fraction(1, 150), 0.0, 10.0)
        assert build_grid(Fraction(1, 100), 300.0, 1e4).t(4) < math.inf

    def test_index_of_brackets_and_matches_formula(self):
        rng = random.Random(11)
        for epsilon in (Fraction(1), Fraction(1, 2), EPS_MAX):
            for _ in range(20):
                grid = build_grid(epsilon, rng.uniform(0.0, 3.0 / float(epsilon)), 60.0)
                lo, hi = grid.breakpoints[0], grid.breakpoints[-1]
                for _ in range(50):
                    c = math.exp(rng.uniform(math.log(lo), math.log(hi)))
                    i = grid.index_of(c)
                    assert grid.t(i) <= c < grid.t(i + 1)
                    assert i == partition_signature((c,), grid.a, grid.b)[0]

    def test_index_of_on_breakpoints(self):
        for epsilon in (Fraction(1), Fraction(1, 2), EPS_MAX):
            a = 3.0 / float(epsilon)
            for b in (0.0, 0.3, 0.6 * a, a):
                grid = build_grid(epsilon, b, 60.0)
                lo, hi = grid.breakpoints[0], grid.breakpoints[-1]
                for i, t_i in enumerate(grid.breakpoints, start=1):
                    assert grid.index_of(t_i) == i
                    for c in (math.nextafter(t_i, 0.0), t_i, math.nextafter(t_i, math.inf)):
                        if lo <= c <= hi:
                            assert grid.index_of(c) == partition_signature((c,), a, b)[0]

    def test_index_of_outside_the_range_rejected(self):
        grid = build_grid(1, 0.3, 60.0)
        lo, hi, q = grid.breakpoints[0], grid.breakpoints[-1], len(grid.breakpoints)
        assert (grid.index_of(lo), grid.index_of(hi)) == (1, q)
        for c in (0.0, math.nextafter(lo, 0.0), math.nextafter(hi, math.inf), grid.t(q + 1)):
            with pytest.raises(ValueError, match="outside the grid"):
                grid.index_of(c)

    def test_floor_is_three_breakpoints(self):
        grid = build_grid(Fraction(1, 2), 1.1, 60.0)
        for i in range(1, len(grid.breakpoints) + 2):
            assert grid.floor(i) == 3.0 * grid.t(i)


class TestPartitionJobs:
    def test_two_groups_with_lifted_releases(self):
        # scale a = 1, which no epsilon in (0, 3/ln 3] gives
        b = math.log(0.5) + 1.0
        grid = IntervalGrid(1.0, b, tuple(math.exp(i - 3 + b) for i in range(1, 6)))
        assert grid.t(2) == pytest.approx(0.5)
        instance = make_instance([(1, 0, 1), (2, 1, 1)])
        subs = partition_jobs(instance, fake_lp((0.6, 5.0)), grid)
        assert [sub.jobs for sub in subs] == [(0,), (1,)]
        assert subs[0].index == 2
        assert grid.floor(subs[0].index) == pytest.approx(1.5)
        assert subs[0].instance.jobs[0].r == pytest.approx(1.5)
        assert subs[1].index == 4
        assert grid.floor(subs[1].index) == pytest.approx(1.5 * math.exp(2))
        assert subs[1].instance.jobs[0].r == pytest.approx(1.5 * math.exp(2))

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
                floor = grid.floor(sub.index)
                assert floor == pytest.approx(3.0 * grid.t(sub.index))
                for pos, j in enumerate(sub.jobs):
                    assert grid.index_of(lp.completion[j]) == sub.index
                    job, sjob = instance.jobs[j], sub.instance.jobs[pos]
                    assert sjob.p == job.p and sjob.w == job.w
                    assert sjob.r == max(job.r, floor)
                back = {j: pos for pos, j in enumerate(sub.jobs)}
                inside = {
                    (back[j], back[k])
                    for j, k in instance.prec
                    if j in back and k in back
                }
                assert sub.instance.prec == frozenset(inside)
                # the block is convex, so its pairs give the parent's order on it
                for b, k in enumerate(sub.jobs):
                    for a, j in enumerate(sub.jobs):
                        assert sub.instance.masks[b] >> a & 1 == instance.masks[k] >> j & 1

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
        assert result.grid.b in result.candidates
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
            # the block costs sum to the union's; tightening only lowers it
            union_cost = schedule_cost(result.union, instance)
            assert union_cost == pytest.approx(sum(iv.cost for iv in result.intervals))
            assert result.cost <= union_cost
            grid = result.grid
            subs = partition_jobs(instance, result.lp, grid)
            assert [sub.index for sub in subs] == [iv.index for iv in result.intervals]
            for sub, iv in zip(subs, result.intervals):
                res = solve_bounded(sub.instance, 1, grid.floor(sub.index), math.exp(grid.a))
                assert res.cost == iv.cost
                assert iv.jobs == sub.jobs
                assert iv.guesses_tried == res.guesses_tried

    def test_random_mode_is_seeded(self):
        instance = random_instance(3, 5)
        one = decompose_and_solve(instance, 1, mode="random", seed=42)
        two = decompose_and_solve(instance, 1, mode="random", seed=42)
        assert one.grid.b == two.grid.b
        assert one.cost == two.cost
        assert 0.0 <= one.grid.b <= 3.0
        assert len(one.candidates) == 1
        other = decompose_and_solve(instance, 1, mode="random", seed=43)
        assert other.grid.b != one.grid.b

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
        with pytest.raises(ValueError, match="epsilon must exceed 0.0078125"):
            decompose_and_solve(instance, Fraction(1, 128))
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
        empty = make_instance([])
        for epsilon, a in [(1, 3.0), (Fraction(1, 2), 6.0)]:
            result = decompose_and_solve(empty, epsilon)
            assert result.cost == 0.0
            assert result.schedule.start == ()
            assert result.intervals == ()
            # the shape every other result has, a = 3/epsilon: one offset,
            # whose floor bound is that of no block
            assert result.grid == IntervalGrid(a, 0.0, ())
            assert result.candidates == (0.0,) and result.bounds == (0.0,)
            doc = {"start": [], "cost": "0.0", "b": 0.0, "t": [], "intervals": []}
            assert result.to_dict(empty) == doc

    def test_result_coherent_on_random_instances(self):
        for seed in range(8):
            instance = random_instance(100 + seed, 7, density=0.3)
            result = decompose_and_solve(instance, 1)
            assert is_feasible(result.schedule, instance)
            assert result.cost == pytest.approx(
                schedule_cost(result.schedule, instance)
            )
            assert result.grid.b in result.candidates
            assert result.grid.a == pytest.approx(3.0)

    def test_guess_traces_reach_block_solver(self):
        instance = random_instance(4, 5)
        with guess_traces() as traces:
            result = decompose_and_solve(instance, 1)
        assert traces
        assert len(traces) >= sum(iv.guesses_tried for iv in result.intervals)

    def test_typed_blocks_compute_their_closure_once(self, monkeypatch):
        instance = generate(GeneratorConfig(n=24, seed=11, prec_density=0.2))
        instance.cover  # the parent's closure is computed before counting
        calls = {"masks": 0, "cover": 0}
        for name in calls:
            prop = Instance.__dict__[name]

            def counted(self, func=prop.func, name=name):
                calls[name] += 1
                return func(self)

            monkeypatch.setattr(prop, "func", counted)
        blocks = []
        solved = []

        def partition(*args):
            subs = partition_jobs(*args)
            blocks.extend(subs)
            return subs

        def solve(block, *args, **kwargs):
            solved.append(block)
            return solve_bounded(block, *args, **kwargs)

        monkeypatch.setattr("prec_sched.decompose.partition_jobs", partition)
        monkeypatch.setattr("prec_sched.decompose.solve_bounded", solve)
        decompose_and_solve(instance, Fraction(1, 2), bounded_mode="typed")
        # only blocks that are solved are built and compute a closure, each
        # once, but a block of every job shares the parent's; some offsets
        # here are abandoned with blocks left unsolved
        built = [vars(sub)["instance"] for sub in blocks if "instance" in vars(sub)]
        assert {id(block) for block in solved} == {id(block) for block in built}
        assert len(solved) == len(built) < len(blocks)
        whole = [block for block in solved if block.n == instance.n]
        assert len(whole) == 2
        for block in whole:
            assert block.masks is instance.masks and block.cover is instance.cover
        assert calls == {"masks": len(solved) - 2, "cover": len(solved) - 2}

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
                assert block_opt <= share + grid.floor(sub.index) * weight + 1e-9

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
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 10),
        mode=st.sampled_from(MODES),
        offsets=st.sampled_from(["derandomized", "random"]),
    )
    def test_bounds_hold_and_the_winner_is_unchanged(
        self, family, epsilon, seed, n, mode, offsets
    ):
        instance = generate(GeneratorConfig(n=n, seed=seed, family=family))
        result = decompose_and_solve(
            instance, epsilon, mode=offsets, seed=seed, bounded_mode=mode
        )
        cmax = max(result.lp.completion)
        grids = [build_grid(epsilon, b, cmax) for b in result.candidates]
        partitions = [partition_jobs(instance, result.lp, grid) for grid in grids]
        slack = instance.n * instance.tol() * sum(float(job.w) for job in instance.jobs)
        p, r, w = instance.floats
        # one floor bound per candidate, read from its partition
        assert len(result.bounds) == len(result.candidates)
        runs = []
        for i, (grid, subs) in enumerate(zip(grids, partitions)):
            floor = sum(w[j] * (max(r[j], sub.floor) + p[j]) for sub in subs for j in sub.jobs)
            assert result.bounds[i] == pytest.approx(floor - slack, rel=1e-12)
            union, cost, outcomes = _solve_partition(instance, grid, subs, epsilon, mode, None)
            assert result.bounds[i] <= cost
            assert sum(sub.value for sub in subs) - slack <= cost
            # each block's value less the whole slack bounds its own cost
            assert [sub.index for sub in subs] == [outcome.index for outcome in outcomes]
            for sub, outcome in zip(subs, outcomes):
                assert sub.value - slack <= outcome.cost
            runs.append((cost, i, union.start, outcomes))
        cost, i, start, outcomes = min(runs, key=lambda run: run[:2])
        union_cost = schedule_cost(result.union, instance)
        assert (union_cost, result.grid.b, result.union.start, result.intervals) == (
            cost, result.candidates[i], start, outcomes
        )
        # the reported schedule is the winning union tightened on the instance
        assert result.schedule == tighten(result.union, instance)
        assert result.cost == schedule_cost(result.schedule, instance) <= union_cost
        assert i in result.evaluated
        # offsets are tried in (floor bound, index) order, some skipped
        order = sorted(range(len(grids)), key=lambda k: (result.bounds[k], k))
        ranks = [order.index(k) for k in result.evaluated]
        assert ranks == sorted(set(ranks))

    def test_offsets_skipped_on_chains(self, caplog):
        instance = generate(GeneratorConfig(n=14, seed=3, p_max=8, r_max=56, family="chains"))
        with caplog.at_level(logging.DEBUG, logger="prec_sched.decompose"):
            result = decompose_and_solve(instance, 1, bounded_mode="empty-guess")
        # the block bound of every offset but the winner exceeds its cost
        assert (len(result.evaluated), len(result.candidates)) == (1, 8)
        assert result.cost == 2934.0
        assert result.grid.b == pytest.approx(1.2195077, abs=1e-7)
        messages = [rec.getMessage() for rec in caplog.records]
        # the winner has the lowest floor bound; the next offset's floor
        # bound is within the limit, but its block bound, read before its
        # first block, is not, so it is skipped; the third one's floor bound
        # is above the limit, and it ends the search
        i, k, stop = sorted(range(8), key=lambda k: (result.bounds[k], k))[:3]
        assert result.evaluated == (i,)
        eager = decompose_eager(instance, 1, bounded_mode="empty-guess")
        assert [line for line in messages if "abandoned" in line] == [
            f"offset {k} (b = {result.candidates[k]!r}) abandoned after 0 of 2 blocks: "
            f"bound {eager.bounds[k]!r}, best cost 2934.0"
        ]
        assert messages[-2:] == [
            f"offset {stop} (b = {result.candidates[stop]!r}) ends the search: floor bound "
            f"{result.bounds[stop]!r}, best cost 2934.0, 6 of 8 offsets never tried",
            f"evaluated 1 of 8 offsets; offset {i} (b = {result.grid.b!r}) won at cost 2934.0",
        ]

    def test_block_bound_skips_every_loser_on_an_antichain(self):
        # the block bound ignores precedence, so an antichain loses nothing
        # to it: no block of the 8 losing offsets is solved
        instance = generate(GeneratorConfig(n=8, seed=3, family="antichain"))
        result = decompose_and_solve(instance, 1, bounded_mode="empty-guess")
        assert (len(result.evaluated), len(result.candidates)) == (1, 9)
        assert schedule_cost(result.union, instance) == pytest.approx(489.0209041637566, rel=1e-12)
        assert result.cost == 451.0
        assert result.grid.b == pytest.approx(0.4011973846621555, rel=1e-12)

    def test_pruning_strength_on_chains(self, monkeypatch):
        # sep_chains' shape; a weaker bound evaluates more offsets, and
        # solving every block of an evaluated offset takes 68 block solves
        builds = {"instance": 0, "warm": 0, "value": 0}
        for name in builds:
            prop = SubInstance.__dict__[name]

            def counted(self, func=prop.func, name=name):
                builds[name] += 1
                return func(self)

            monkeypatch.setattr(prop, "func", counted)
        solves = []

        def solve(*args, **kwargs):
            solves.append(args[0])
            return solve_bounded(*args, **kwargs)

        monkeypatch.setattr("prec_sched.decompose.solve_bounded", solve)
        partitioned = []

        def partition(*args):
            subs = partition_jobs(*args)
            partitioned.extend(subs)
            return subs

        monkeypatch.setattr("prec_sched.decompose.partition_jobs", partition)
        evaluated = candidates = 0
        for seed in range(20):
            config = GeneratorConfig(n=14, seed=seed, p_max=8, r_max=56, family="chains")
            result = decompose_and_solve(generate(config), 1, bounded_mode="empty-guess")
            evaluated += len(result.evaluated)
            candidates += len(result.candidates)
        assert (evaluated, candidates) == (43, 217)
        # every offset is partitioned, for its floor bound, into 417 blocks
        assert (len(solves), len(partitioned)) == (57, 417)
        # a block is built, with its warm cuts, only when it is solved (the
        # 14 chains among them build cuts they never read), and its value,
        # read for the solve order and every bound before a block, only
        # when its offset's floor bound lets the offset be tried
        assert builds == {"instance": 57, "warm": 57, "value": 72}

    def test_losing_offset_abandoned_part_way(self, caplog):
        instance = generate(GeneratorConfig(n=14, seed=7, p_max=8, r_max=56, family="chains"))
        with caplog.at_level(logging.DEBUG, logger="prec_sched.decompose"):
            result = decompose_and_solve(instance, 1, bounded_mode="empty-guess")
        assert result.cost == 1767.0
        (k,) = [k for k in result.evaluated if result.candidates[k] != result.grid.b]
        # its block of larger value, solved first, already shows it loses
        grid = build_grid(1, result.candidates[k], max(result.lp.completion))
        subs = partition_jobs(instance, result.lp, grid)
        first = max(subs, key=lambda sub: (sub.value, -sub.index))
        block = solve_bounded(
            first.instance, 1, grid.floor(first.index), math.exp(grid.a),
            mode="empty-guess", warm=first.warm,
        )
        cost = block.cost
        slack = instance.n * instance.tol() * sum(float(job.w) for job in instance.jobs)
        bound = cost + sum(sub.value for sub in subs if sub is not first) - slack
        assert len(subs) == 2 and bound > result.cost * (1 + SKIP_REL)
        messages = [rec.getMessage() for rec in caplog.records]
        part_way = [line for line in messages if "abandoned" in line and "after 0 of" not in line]
        assert part_way == [
            f"offset {k} (b = {result.candidates[k]!r}) abandoned after 1 of 2 blocks: "
            f"bound {bound!r}, best cost 1767.0"
        ]

    @pytest.mark.parametrize("family", ["uniform", "p_le_r", "chains", "antichain"])
    def test_block_values_are_those_of_the_built_blocks(self, family):
        # SubInstance.value lifts releases to max(r_j, 3 t_i) itself, as
        # SubInstance.instance does; the two must agree exactly
        blocks = 0
        for seed in range(15):
            instance = generate(GeneratorConfig(n=14, seed=seed, family=family))
            lp = solve_lp(instance)
            cmax = max(lp.completion)
            grids = [build_grid(1, b, cmax) for b in derandomize_b(lp, 3.0)]
            partitions = [partition_jobs(instance, lp, grid) for grid in grids]
            for subs in partitions:
                for sub in subs:
                    assert sub.value == wspt_value(*sub.instance.floats)
                    blocks += 1
        assert blocks > 200

    def test_random_mode_evaluates_its_one_offset(self):
        instance = random_instance(3, 6)
        result = decompose_and_solve(instance, 1, mode="random", seed=5)
        assert result.evaluated == (0,)
        (bound,) = result.bounds
        union_cost = schedule_cost(result.union, instance)
        assert bound <= union_cost
        assert result.cost <= union_cost

    @pytest.mark.parametrize("mode", MODES)
    def test_random_mode_computes_no_value(self, mode, monkeypatch):
        # one offset is never abandoned, so its blocks need no value; they
        # solve in index order, to the same result, and its floor bound,
        # which needs no sweep, is still checked against its cost
        instance = generate(GeneratorConfig(n=10, seed=2, family="uniform"))
        eager = decompose_eager(instance, 1, mode="random", seed=1, bounded_mode=mode)
        assert len(eager.intervals) == 3

        def no_value(*args):
            raise AssertionError("random mode computed a WSPT value")

        monkeypatch.setattr("prec_sched.decompose.wspt_value", no_value)
        result = decompose_and_solve(instance, 1, mode="random", seed=1, bounded_mode=mode)
        assert len(result.bounds) == 1
        assert result.to_dict(instance) == eager.to_dict(instance)
        assert (result.evaluated, result.intervals) == (eager.evaluated, eager.intervals)

    @pytest.mark.parametrize("epsilon", [Fraction(1), Fraction(1, 2)])
    @pytest.mark.parametrize("family", ["uniform", "p_le_r", "chains", "antichain"])
    def test_lazy_search_matches_the_eager_one(self, family, epsilon):
        # trying offsets in floor-bound order, and valuing a block only when
        # it may be solved, finds the winner the eager search over every
        # block bound finds
        rng = random.Random(f"{family}/{epsilon}")
        for mode in MODES:
            for offsets in ("derandomized", "random"):
                for _ in range(2):
                    n = rng.randint(6, 10 if mode == "exhaustive" else 14)
                    seed = rng.getrandbits(32)
                    instance = generate(GeneratorConfig(n=n, seed=seed, family=family))
                    kwargs = {"mode": offsets, "seed": seed, "bounded_mode": mode}
                    result = decompose_and_solve(instance, epsilon, **kwargs)
                    eager = decompose_eager(instance, epsilon, **kwargs)
                    assert result.to_dict(instance) == eager.to_dict(instance)
                    assert (result.grid, result.intervals) == (eager.grid, eager.intervals)

    @staticmethod
    def floor_bounds_below_costs(instance, epsilon):
        """Solve every candidate of `instance` in full, with no limit, and
        check each costs at least its floor bound; return (candidate count,
        block bounds, floor bounds)."""
        result = decompose_and_solve(instance, epsilon, bounded_mode="typed")
        cmax = max(result.lp.completion)
        slack = instance.n * instance.tol() * sum(instance.floats[2])
        block_bounds = []
        for b, bound in zip(result.candidates, result.bounds):
            grid = build_grid(epsilon, b, cmax)
            subs = partition_jobs(instance, result.lp, grid)
            _, cost, _ = _solve_partition(instance, grid, subs, epsilon, "typed", None)
            assert bound <= cost
            block_bounds.append(sum(sub.value for sub in subs) - slack)
        return len(result.candidates), block_bounds, result.bounds

    @pytest.mark.parametrize("epsilon", [Fraction(1), Fraction(1, 2)])
    def test_floor_bound_never_above_the_cost(self, epsilon):
        offsets = 0
        for family in FAMILIES:
            for seed in range(8):
                instance = generate(GeneratorConfig(n=5 + 2 * seed, seed=seed, family=family))
                offsets += self.floor_bounds_below_costs(instance, epsilon)[0]
        assert offsets > 200

    @pytest.mark.parametrize(
        "jobs, epsilon",
        [
            # completions at least e^a = 3.04 apart: one job per interval
            ([(3, 0, 7), (5, 37, 3), (2, 331, 11), (7, 2999, 5), (1, 9200, 13)], Fraction(27, 10)),
            # at b = ln 4 the two jobs fall in different intervals
            ([(2, 3, 66), (9, 9, 48)], Fraction(1, 2)),
        ],
    )
    def test_floor_bound_where_wspt_never_preempts(self, jobs, epsilon):
        # each job runs uninterrupted from its lifted release, so the floor
        # bound equals the block bound in exact arithmetic, and only the
        # rounding of their sums differs
        _, block_bounds, bounds = self.floor_bounds_below_costs(make_instance(jobs), epsilon)
        for bound, block_bound in zip(bounds, block_bounds):
            assert bound == pytest.approx(block_bound, rel=1e-8)

    @pytest.mark.parametrize("offsets", ["derandomized", "random"])
    def test_a_floor_bound_above_the_cost_raises(self, offsets, monkeypatch):
        # the floor bound stops the search, so every offset solved in full
        # checks it, in both modes
        def raised(*args):
            return _floor_bound(*args) + 1e9

        monkeypatch.setattr("prec_sched.decompose._floor_bound", raised)
        instance = generate(GeneratorConfig(n=8, seed=1, family="chains"))
        with pytest.raises(InvariantViolationError, match="below its floor bound"):
            decompose_and_solve(instance, 1, mode=offsets, seed=1, bounded_mode="empty-guess")

# Instances a seeded local search found by maximizing cost / OPT in
# exhaustive mode (ROADMAP item 5): name -> (instance, eps, OPT). Costs in
# exhaustive, typed and empty-guess mode: 1,129 in each on the first, 472,
# 268 and 472 on the second.
ADVERSARIAL = {
    "six jobs at eps 1/2": (
        make_instance(
            [(4, 7, 1), (19, 0, 2), (3, 6, 0), (9, 6, 4), (7, 19, 14), (4, 18, 8)],
            [(1, 2), (1, 4), (2, 3), (4, 5)],
        ),
        Fraction(1, 2),
        856,
    ),
    "three jobs at eps 1": (
        make_instance([(3, 10, 1), (1, 14, 17), (13, 5, 0)], [(0, 1)]),
        Fraction(1),
        268,
    ),
}


class TestAdversarialInstances:
    @pytest.mark.parametrize("name", ADVERSARIAL)
    @pytest.mark.parametrize("mode", MODES)
    def test_within_two_one_plus_eps_squared(self, name, mode):
        instance, eps, opt = ADVERSARIAL[name]
        assert exact_opt(instance)[0] == opt
        result = decompose_and_solve(instance, eps, bounded_mode=mode)
        assert is_feasible(result.schedule, instance)
        assert result.cost <= 2 * (1 + eps) ** 2 * opt + 1e-6

    def test_exhaustive_costs_no_more_than_empty_guess(self):
        # a block that scored its guesses before tighten kept one that
        # tightened worse here (1,349 against 1,129)
        instance, eps, _ = ADVERSARIAL["six jobs at eps 1/2"]
        exhaustive = decompose_and_solve(instance, eps, bounded_mode="exhaustive")
        empty = decompose_and_solve(instance, eps, bounded_mode="empty-guess")
        assert exhaustive.cost <= empty.cost

    def test_more_guesses_never_raise_the_union_cost(self):
        # the exhaustive stream starts with the empty guess, and a block keeps
        # its cheapest tightened guess, so on each partition every block, and
        # so the best union, costs no more than in empty-guess mode. The cost
        # once the union is tightened on the instance is not monotone (545
        # against 527 on antichain n = 9, seed 1, eps 1/2), so only the union
        # is held. Scoring before tighten breaks it on antichain n = 9,
        # seed 7, eps 1/4 (219 against 217)
        for family in ("uniform", "p_le_r", "chains", "antichain"):
            for n in (3, 5, 7, 9):
                for seed in range(8):
                    instance = generate(GeneratorConfig(n=n, seed=seed, family=family))
                    for eps in (Fraction(1, 2), Fraction(1, 4)):
                        costs = [
                            schedule_cost(
                                decompose_and_solve(instance, eps, bounded_mode=mode).union,
                                instance,
                            )
                            for mode in ("exhaustive", "empty-guess")
                        ]
                        assert costs[0] <= costs[1] * (1 + 1e-9), (family, n, seed, eps, costs)


class TestDenseFortyJobInstances:
    """The guarantee on the instances of the sched_uniform benchmark shape:
    40 jobs with dense precedence have few ideals, so the exact solver
    reaches them once its job ceiling is lifted."""

    @pytest.mark.parametrize("mode", ["derandomized", "random"])
    def test_within_two_one_plus_eps_squared(self, mode, monkeypatch):
        monkeypatch.setattr("prec_sched.exact.EXACT_MAX", 40)
        eps = Fraction(1)
        ratios = []
        for seed in range(20):
            config = GeneratorConfig(n=40, seed=seed, p_max=8, r_max=160, prec_density=0.9)
            instance = generate(config)
            opt, _ = exact_opt(instance, cap=40)
            result = decompose_and_solve(
                instance, eps, mode=mode, seed=seed if mode == "random" else None, bounded_mode="typed"
            )
            assert is_feasible(result.schedule, instance)
            assert result.cost <= 2 * (1 + eps) ** 2 * opt + 1e-6, seed
            assert result.lp.value <= opt + 1e-6, seed
            ratios.append(result.cost / opt)
        # tightening the union on the original releases frees each job from
        # its block's floor: one random offset then does as well as trying
        # every offset (mean 1.0005 in both modes, 1.4047 in random mode
        # before the union was tightened)
        assert statistics.mean(ratios) <= 1.01, ratios


class TestTightenedUnion:
    """The reported schedule is the winning union tightened on the
    instance, on the acceptance scorecard's pipeline corpus."""

    @pytest.mark.parametrize("mode", ["derandomized", "random"])
    def test_tightened_schedule_is_feasible_left_of_the_union_and_a_fixpoint(self, mode):
        for s in range(100):
            family = ("uniform", "p_le_r", "chains", "antichain")[s % 4]
            instance = generate(GeneratorConfig(n=2 + s % 6, seed=3000 + s, family=family))
            result = decompose_and_solve(instance, 1, mode=mode, seed=s)
            schedule, union = result.schedule, result.union
            assert is_feasible(schedule, instance), s
            assert all(t <= u for t, u in zip(schedule.start, union.start)), s
            assert tighten(schedule, instance) == schedule, s
            assert result.cost == schedule_cost(schedule, instance)
            assert result.cost <= schedule_cost(union, instance), s


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
