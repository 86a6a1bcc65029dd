"""Instance and schedule model: validation, closure, normalization,
cost evaluation, tightening, and the JSON interface."""

from __future__ import annotations

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prec_sched import (
    CycleError,
    GeneratorConfig,
    InfeasibleScheduleError,
    Instance,
    Job,
    Schedule,
    ValidationError,
    feasibility_violations,
    generate,
    is_feasible,
    load_instance,
    make_instance,
    normalize_release_times,
    require_valid,
    schedule_cost,
    tighten,
    transitive_closure,
    validate,
)
from .auditors import feasibility_violations_pairwise
from .conftest import random_feasible_schedule, random_instance
from .oracles import (
    brute_force_opt,
    closure_by_squaring,
    precedence_findings_ref,
    tighten_ref,
)


class TestValidate:
    def test_single_job_is_well_formed(self):
        report = validate(make_instance([(1, 0, 1)]))
        assert report.ok
        assert report.findings == ()

    def test_two_cycle_reported(self):
        instance = Instance((Job(1, 0, 1), Job(1, 0, 1)), frozenset({(0, 1), (1, 0)}))
        report = validate(instance)
        assert not report.ok
        assert any("cycle" in f for f in report.findings)

    def test_missing_transitive_edge_reported(self):
        instance = Instance(
            (Job(1, 0, 1), Job(1, 0, 1), Job(1, 0, 1)),
            frozenset({(0, 1), (1, 2)}),
        )
        report = validate(instance)
        assert any("missing transitive edge (0, 2)" in f for f in report.findings)

    def test_zero_processing_time_rejected(self):
        report = validate(make_instance([(0, 0, 1)]))
        assert any("processing time 0" in f for f in report.findings)

    def test_negative_fields_reported(self):
        report = validate(make_instance([(1, -2, -3)]))
        assert any("release" in f for f in report.findings)
        assert any("weight" in f for f in report.findings)

    def test_out_of_range_and_reflexive_pairs(self):
        instance = Instance((Job(1, 0, 1),), frozenset({(0, 5)}))
        assert any("out of range" in f for f in validate(instance).findings)
        instance = Instance((Job(1, 0, 1),), frozenset({(0, 0)}))
        assert any("reflexive" in f for f in validate(instance).findings)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), n=st.integers(0, 7))
    def test_findings_match_closure_reference(self, data, n):
        """Closed, unclosed, cyclic, reflexive and out-of-range relations:
        the closedness fast path reports what the full closure does."""
        order = data.draw(st.permutations(range(n)))
        dag = {
            (order[i], order[k])
            for i in range(n)
            for k in range(i + 1, n)
            if data.draw(st.booleans())
        }
        kind = data.draw(st.sampled_from(["closed", "unclosed", "cyclic", "reflexive", "range"]))
        closed = kind == "closed" or (kind != "unclosed" and data.draw(st.booleans()))
        pairs = closure_by_squaring(dag, n) if closed else set(dag)
        if kind == "cyclic" and pairs:
            j, k = data.draw(st.sampled_from(sorted(pairs)))
            pairs.add((k, j))
        elif kind == "reflexive" and n:
            j = data.draw(st.integers(0, n - 1))
            pairs.add((j, j))
        elif kind == "range":
            pairs.add(data.draw(st.sampled_from([(-1, 0), (0, n), (n, n + 1)])))
        jobs = tuple(Job(1, 0, 1) for _ in range(n))
        findings = validate(Instance(jobs, frozenset(pairs))).findings
        expected = precedence_findings_ref(pairs, n)
        if expected == ["precedence cycle"]:
            assert len(findings) == 1 and findings[0].startswith("precedence cycle: ")
            cycle = [int(v) for v in findings[0].split(": ")[1].split(" -> ")]
            assert all(edge in pairs for edge in zip(cycle, cycle[1:]))
        else:
            assert list(findings) == expected

    def test_require_valid_raises_with_findings(self):
        with pytest.raises(ValidationError) as err:
            require_valid(make_instance([(0, 0, 1)]))
        assert err.value.findings


class TestTransitiveClosure:
    def test_chain_of_three(self):
        assert transitive_closure({(0, 1), (1, 2)}) == {(0, 1), (1, 2), (0, 2)}

    def test_empty_relation(self):
        assert transitive_closure(set()) == frozenset()

    def test_idempotent(self):
        once = transitive_closure({(0, 1), (1, 2), (2, 4)})
        assert transitive_closure(once) == once

    def test_matches_matrix_powering_on_random_dags(self):
        n = 6
        for seed in range(50):
            rng = random.Random(seed)
            pairs = {
                (i, j)
                for i in range(n)
                for j in range(i + 1, n)
                if rng.random() < 0.35
            }
            perm = list(range(n))
            rng.shuffle(perm)
            relabelled = {(perm[i], perm[j]) for i, j in pairs}
            # the chains family's covering pairs: its ids are shuffled
            closed = generate(GeneratorConfig(n=n, seed=seed, family="chains")).prec
            chains = {
                (j, k)
                for j, k in closed
                if not any((j, m) in closed and (m, k) in closed for m in range(n))
            }
            for dag in (pairs, relabelled, chains):
                assert transitive_closure(dag) == closure_by_squaring(dag, n)

    def test_cycle_witness_on_random_cyclic_relations(self):
        n = 6
        checked = 0
        for seed in range(300):
            rng = random.Random(seed)
            pairs = {(j, k) for j in range(n) for k in range(n) if j != k and rng.random() < 0.15}
            if not any(j == k for j, k in closure_by_squaring(pairs, n)):
                continue
            with pytest.raises(CycleError) as err:
                transitive_closure(pairs)
            cycle = err.value.cycle
            assert len(cycle) >= 3 and cycle[0] == cycle[-1]
            assert all(pair in pairs for pair in zip(cycle, cycle[1:]))
            checked += 1
        assert checked >= 100

    def test_cycle_raises_with_witness(self):
        with pytest.raises(CycleError) as err:
            transitive_closure({(0, 1), (1, 2), (2, 0)})
        cycle = err.value.cycle
        assert cycle[0] == cycle[-1]
        assert len(cycle) == 4

    def test_self_loop_is_a_cycle(self):
        with pytest.raises(CycleError):
            transitive_closure({(3, 3)})


class TestNormalizeReleaseTimes:
    def test_forced_by_predecessor(self):
        instance = make_instance([(1, 5, 1), (1, 0, 1)], [(0, 1)])
        assert [j.r for j in normalize_release_times(instance).jobs] == [5, 5]

    def test_identity_without_precedence(self):
        instance = make_instance([(2, 3, 1), (1, 7, 2)])
        assert normalize_release_times(instance) == instance

    def test_chain_propagation(self):
        instance = make_instance(
            [(1, 3, 1), (1, 1, 1), (1, 2, 1), (1, 0, 1)],
            [(0, 1), (1, 2), (2, 3)],
        )
        assert [j.r for j in normalize_release_times(instance).jobs] == [3, 3, 3, 3]

    def test_idempotent_on_random_instances(self):
        for seed in range(30):
            instance = random_instance(seed, 6, normalize=False)
            once = normalize_release_times(instance)
            assert normalize_release_times(once) == once

    def test_preserves_feasible_schedules(self):
        for seed in range(30):
            instance = random_instance(seed, 6, normalize=False)
            lifted = normalize_release_times(instance)
            schedule = random_feasible_schedule(seed, instance)
            assert is_feasible(schedule, instance)
            assert is_feasible(schedule, lifted)


class TestScheduleCost:
    def test_reference_example_good_order(self, two_job_reference):
        assert schedule_cost(Schedule((1.0, 2.0)), two_job_reference) == 20

    def test_reference_example_bad_order(self, two_job_reference):
        assert schedule_cost(Schedule((10.0, 0.0)), two_job_reference) == 110

    def test_single_job(self):
        instance = make_instance([(3, 2, 4)])
        assert schedule_cost(Schedule((2.0,)), instance) == 20

    def test_additive_over_jobs(self):
        instance = random_instance(7, 5)
        schedule = random_feasible_schedule(7, instance)
        total = schedule_cost(schedule, instance)
        parts = [
            job.w * (s + job.p) for s, job in zip(schedule.start, instance.jobs)
        ]
        assert total == pytest.approx(sum(parts))

    def test_monotone_in_each_start(self):
        instance = make_instance([(2, 0, 3), (2, 0, 5)])
        base = schedule_cost(Schedule((0.0, 2.0)), instance)
        assert schedule_cost(Schedule((0.0, 3.0)), instance) > base

    def test_check_rejects_release_violation(self):
        instance = make_instance([(2, 5, 1)])
        with pytest.raises(InfeasibleScheduleError, match="before release"):
            schedule_cost(Schedule((0.0,)), instance, check=True)

    def test_check_rejects_overlap(self):
        instance = make_instance([(4, 0, 1), (4, 0, 1)])
        with pytest.raises(InfeasibleScheduleError, match="overlap"):
            schedule_cost(Schedule((0.0, 2.0)), instance, check=True)

    def test_check_rejects_precedence_violation(self):
        instance = make_instance([(2, 0, 1), (2, 0, 1)], [(0, 1)])
        with pytest.raises(InfeasibleScheduleError, match="predecessor"):
            schedule_cost(Schedule((4.0, 0.0)), instance, check=True)

    def test_violation_listing_is_deterministic(self):
        instance = make_instance([(4, 2, 1), (4, 2, 1)])
        bad = Schedule((0.0, 1.0))
        assert feasibility_violations(bad, instance) == feasibility_violations(
            bad, instance
        )


class TestOverlapSweep:
    def test_matches_pairwise_reference(self):
        rng = random.Random(7)
        overlapping = 0
        for seed in range(60):
            instance = random_instance(seed, rng.randint(1, 12))
            feasible = random_feasible_schedule(seed + 500, instance)
            assert feasibility_violations(feasible, instance) == []
            assert feasibility_violations_pairwise(feasible, instance) == []
            corrupted = list(feasible.start)
            for _ in range(rng.randint(1, 4)):
                j = rng.randrange(instance.n)
                corrupted[j] = max(0.0, corrupted[j] + rng.choice((-1, 1)) * rng.uniform(0, 6))
            if rng.random() < 0.3:
                rng.shuffle(corrupted)
            bad = Schedule(tuple(corrupted))
            found = feasibility_violations(bad, instance)
            assert found == feasibility_violations_pairwise(bad, instance)
            overlapping += any(v.endswith("overlap") for v in found)
        assert overlapping >= 20

    def test_overlaps_listed_in_pair_order(self):
        # job 2 starts first, so the sweep finds (1, 2) before (0, 1)
        instance = make_instance([(3, 0, 1), (3, 0, 1), (3, 0, 1)])
        bad = Schedule((2.0, 1.0, 0.0))
        assert feasibility_violations(bad, instance) == [
            "jobs 0 and 1 overlap",
            "jobs 0 and 2 overlap",
            "jobs 1 and 2 overlap",
        ]

    def test_both_tolerance_conditions_checked(self):
        zero_length = make_instance([(4, 0, 1), (0, 0, 1)])
        touching = make_instance([(2, 0, 1), (2, 0, 1)])
        cases = [
            # the zero-length job 1 starts inside job 0: an overlap
            (zero_length, Schedule((0.0, 2.0)), ["jobs 0 and 1 overlap"]),
            # it starts with job 0: job 1 starts before job 0 completes, but
            # job 0 does not start before job 1 completes, so no overlap
            (zero_length, Schedule((0.0, 0.0)), []),
            # job 1 starts within tol of job 0's completion: no overlap
            (touching, Schedule((0.0, 2.0 - touching.tol() / 2)), []),
        ]
        for instance, schedule, expected in cases:
            assert feasibility_violations(schedule, instance) == expected
            assert feasibility_violations_pairwise(schedule, instance) == expected


class TestTighten:
    def test_single_job_slides_to_release(self):
        instance = make_instance([(1, 0, 1)])
        assert tighten(Schedule((5.0,)), instance).start == (0.0,)

    def test_second_job_slides_to_completion(self):
        instance = make_instance([(2, 0, 1), (2, 0, 1)])
        assert tighten(Schedule((0.0, 7.0)), instance).start == (0.0, 2.0)

    def test_matches_reference_fixpoint(self):
        for seed in range(100):
            instance = random_instance(seed, 6)
            schedule = random_feasible_schedule(seed + 1000, instance)
            ours = tighten(schedule, instance)
            ref = tighten_ref(instance, schedule.start)
            assert ours.start == pytest.approx(ref)

    def test_never_increases_starts_or_cost(self):
        for seed in range(40):
            instance = random_instance(seed, 6)
            schedule = random_feasible_schedule(seed, instance)
            tight = tighten(schedule, instance)
            assert all(a <= b for a, b in zip(tight.start, schedule.start))
            assert schedule_cost(tight, instance) <= schedule_cost(schedule, instance)
            assert is_feasible(tight, instance)

    def test_idempotent(self):
        instance = random_instance(3, 6)
        once = tighten(random_feasible_schedule(3, instance), instance)
        assert tighten(once, instance).start == once.start

    def test_respects_precedence_floor(self):
        instance = make_instance([(3, 0, 1), (1, 0, 1)], [(0, 1)])
        tight = tighten(Schedule((0.0, 9.0)), instance)
        assert tight.start == (0.0, 3.0)

    def test_optimal_schedule_is_tight(self):
        for seed in range(20):
            instance = random_instance(seed, 5)
            _, witness = brute_force_opt(instance)
            assert tighten(Schedule(witness), instance).start == pytest.approx(witness)


class TestJsonInterface:
    def test_round_trip(self, tmp_path):
        instance = random_instance(11, 5)
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(instance.to_dict()))
        assert load_instance(path) == instance

    def test_load_accepts_dict_and_file_object(self, tmp_path):
        doc = {"jobs": [{"p": 1, "r": 0, "w": 1}], "prec": []}
        assert load_instance(doc).n == 1
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(doc))
        with open(path) as fh:
            assert load_instance(fh).n == 1

    def test_load_closes_precedence(self):
        doc = {
            "jobs": [{"p": 1, "r": 0, "w": 1}] * 3,
            "prec": [[0, 1], [1, 2]],
        }
        assert (0, 2) in load_instance(doc).prec

    def test_load_rejects_non_integer_fields(self):
        doc = {"jobs": [{"p": 1.5, "r": 0, "w": 1}], "prec": []}
        with pytest.raises(ValidationError, match="must be an integer"):
            load_instance(doc)
        doc = {"jobs": [{"p": 1, "w": 1}], "prec": []}
        with pytest.raises(ValidationError):
            load_instance(doc)

    @pytest.mark.parametrize(
        "doc",
        [
            [{"p": 1, "r": 0, "w": 1}],
            {"jobs": [{"p": 1, "r": 0, "w": 1}], "prec": [[0]]},
            {"jobs": [{"p": 1, "r": 0, "w": 1}] * 2, "prec": [["a", "b"]]},
            {"jobs": [{"p": 1, "r": 0, "w": 1}] * 2, "prec": [[0, 1.0]]},
            {"jobs": [{"p": 1, "r": 0, "w": 1}], "prec": {"0": 1}},
            {"prec": []},
            {"jobs": None},
            {"jobs": [[1, 0, 1]]},
        ],
    )
    def test_load_rejects_malformed_documents(self, doc):
        with pytest.raises(ValidationError) as info:
            load_instance(doc)
        assert len(info.value.findings) == 1
        assert "\n" not in str(info.value)

    def test_load_normalize_flag(self):
        doc = {
            "jobs": [{"p": 1, "r": 5, "w": 1}, {"p": 1, "r": 0, "w": 1}],
            "prec": [[0, 1]],
        }
        assert load_instance(doc).jobs[1].r == 0
        assert load_instance(doc, normalize=True).jobs[1].r == 5

    def test_schedule_to_dict_uses_decimal_strings(self):
        instance = make_instance([(2, 0, 3)])
        doc = Schedule((0.5,)).to_dict(instance)
        assert doc == {"start": ["0.5"], "cost": "7.5"}

    def test_tolerance_scales_with_magnitudes(self):
        small = make_instance([(1, 0, 1)])
        big = make_instance([(10**6, 10**6, 1)])
        assert big.tol() > small.tol()
