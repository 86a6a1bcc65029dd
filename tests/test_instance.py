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
    Instance,
    Job,
    Schedule,
    ValidationError,
    feasibility_violations,
    generate,
    is_feasible,
    list_schedule,
    load_instance,
    make_instance,
    normalize_release_times,
    schedule_cost,
    tighten,
    validate,
)
from prec_sched.instance import lift_releases

from .auditors import feasibility_violations_pairwise
from .conftest import dag_variants, random_feasible_schedule, random_instance, run_python
from .oracles import (
    brute_force_opt,
    closure_by_squaring,
    precedence_findings_ref,
    tighten_ref,
    transitive_reduction_ref,
)


class TestValidate:
    def test_single_job_is_well_formed(self):
        assert validate(make_instance([(1, 0, 1)])) == ()

    def test_two_cycle_reported(self):
        instance = Instance((Job(1, 0, 1), Job(1, 0, 1)), frozenset({(0, 1), (1, 0)}))
        assert any("cycle" in f for f in validate(instance))

    def test_zero_processing_time_rejected(self):
        assert any("processing time 0" in f for f in validate(make_instance([(0, 0, 1)])))

    def test_negative_fields_reported(self):
        findings = validate(make_instance([(1, -2, -3)]))
        assert any("release" in f for f in findings)
        assert any("weight" in f for f in findings)

    def test_out_of_range_and_reflexive_pairs(self):
        instance = Instance((Job(1, 0, 1),), frozenset({(0, 5)}))
        assert any("out of range" in f for f in validate(instance))
        instance = Instance((Job(1, 0, 1),), frozenset({(0, 0)}))
        assert any("reflexive" in f for f in validate(instance))
        jobs = (Job(1, 0, 1),) * 3
        instance = Instance(jobs, frozenset({(2, 2), (0, 5), (0, 1), (1, 1), (-1, 0), (3, 3)}))
        assert validate(instance) == (
            "precedence pair (-1, 0) out of range",
            "precedence pair (0, 5) out of range",
            "precedence pair (1, 1) is reflexive",
            "precedence pair (2, 2) is reflexive",
            "precedence pair (3, 3) out of range",
        )

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), n=st.integers(0, 7))
    def test_findings_match_closure_reference(self, data, n):
        """Closed, unclosed, cyclic, reflexive and out-of-range relations:
        validate reports what the closure by squaring implies."""
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
        findings = validate(Instance(jobs, frozenset(pairs)))
        expected = precedence_findings_ref(pairs, n)
        if expected == ["precedence cycle"]:
            assert len(findings) == 1 and findings[0].startswith("precedence cycle: ")
            cycle = [int(v) for v in findings[0].split(": ")[1].split(" -> ")]
            assert all(edge in pairs for edge in zip(cycle, cycle[1:]))
        else:
            assert list(findings) == expected

    def test_mask_check_beyond_64_jobs(self):
        """The closure is held in masks wider than a machine word: the
        implied pair (100, 250) shows only in bit 100, and a pair back
        from job 250 to job 3 closes a cycle."""
        jobs = [(1, 0, 1)] * 300
        chain = make_instance(jobs, [(i, i + 1) for i in range(299)])
        assert validate(chain) == ()
        assert chain.masks[250] == (1 << 250) - 1 and chain.masks[250] >> 100 & 1
        cyclic = Instance(chain.jobs, chain.prec | {(250, 3)})
        (finding,) = validate(cyclic)
        assert finding.startswith("precedence cycle: ")

    def test_load_raises_with_findings(self):
        with pytest.raises(ValidationError) as err:
            load_instance({"jobs": [{"p": 0, "r": 0, "w": 1}]})
        assert err.value.findings == validate(make_instance([(0, 0, 1)]))

    @pytest.mark.parametrize(
        "jobs, pairs, findings",
        [
            (
                [(0, -1, 1), (1, 0, 1)],
                [(0, 1), (1, 0)],
                (
                    "job 0: processing time 0 < 1; remove or merge zero-length jobs before solving",
                    "job 0: negative release time -1",
                    "precedence cycle: 0 -> 1 -> 0",
                ),
            ),
            ([(1, 0, 1)] * 3, [(0, 0), (1, 2)], ("precedence pair (0, 0) is reflexive",)),
        ],
        ids=["cycle", "reflexive"],
    )
    def test_load_reports_every_finding(self, jobs, pairs, findings):
        # loading checks the order only through validate, so a cycle or a
        # reflexive pair hides no finding and is reported as validate does
        doc = {"jobs": [dict(zip("prw", job)) for job in jobs], "prec": pairs}
        with pytest.raises(ValidationError) as err:
            load_instance(doc)
        assert err.value.findings == findings
        assert validate(Instance(tuple(Job(*job) for job in jobs), frozenset(pairs))) == findings


def order_pairs(instance):
    """The pairs (j, k), j preceding k, that the instance's masks hold."""
    n = instance.n
    return {(j, k) for k, mask in enumerate(instance.masks) for j in range(n) if mask >> j & 1}


class TestTransitiveClosure:
    """The closure of the pairs given to make_instance, as masks holds it."""

    def test_chain_of_three(self):
        chain = make_instance([(1, 0, 1)] * 3, [(0, 1), (1, 2)])
        assert order_pairs(chain) == {(0, 1), (1, 2), (0, 2)}

    def test_empty_relation(self):
        assert make_instance([(1, 0, 1)] * 2).masks == (0, 0)

    def test_idempotent(self):
        jobs = [(1, 0, 1)] * 5
        once = make_instance(jobs, [(0, 1), (1, 2), (2, 4)])
        assert make_instance(jobs, order_pairs(once)).masks == once.masks

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
            chains = generate(GeneratorConfig(n=n, seed=seed, family="chains")).prec
            for dag in (pairs, relabelled, chains):
                closed = order_pairs(make_instance([(1, 0, 1)] * n, dag))
                assert closed == closure_by_squaring(dag, n)

    def test_cycle_witness_on_random_cyclic_relations(self):
        n = 6
        checked = 0
        for seed in range(300):
            rng = random.Random(seed)
            pairs = {(j, k) for j in range(n) for k in range(n) if j != k and rng.random() < 0.15}
            if not any(j == k for j, k in closure_by_squaring(pairs, n)):
                continue
            with pytest.raises(CycleError) as err:
                make_instance([(1, 0, 1)] * n, pairs)
            cycle = err.value.cycle
            assert len(cycle) >= 3 and cycle[0] == cycle[-1]
            assert all(pair in pairs for pair in zip(cycle, cycle[1:]))
            checked += 1
        assert checked >= 100

    def test_cycle_raises_with_witness(self):
        with pytest.raises(CycleError) as err:
            make_instance([(1, 0, 1)] * 3, {(0, 1), (1, 2), (2, 0)})
        cycle = err.value.cycle
        assert cycle[0] == cycle[-1]
        assert len(cycle) == 4

    def test_self_loop_is_a_cycle(self):
        with pytest.raises(CycleError):
            make_instance([(1, 0, 1)] * 4, {(3, 3)})


class TestCover:
    def test_chain_with_shortcut(self):
        instance = make_instance([(1, 0, 1)] * 4, [(0, 1), (1, 2), (0, 3), (0, 2)])
        assert instance.masks[2] == 0b11
        assert instance.cover == ((0, 1), (0, 3), (1, 2))

    def test_matches_reduction_reference_and_closes_to_prec(self):
        checked = 0
        for seed in range(30):
            for instance in dag_variants(seed, 2 + seed % 8, density=0.5):
                closed = closure_by_squaring(instance.prec, instance.n)
                full = Instance(instance.jobs, frozenset(closed))
                assert list(full.cover) == sorted(transitive_reduction_ref(closed, instance.n))
                assert closure_by_squaring(full.cover, instance.n) == closed
                # generated instances store the cover
                assert instance.prec == frozenset(full.cover) == frozenset(instance.cover)
                checked += len(full.cover) < len(closed)
        assert checked > 20  # most relations had implied pairs to drop

    def test_no_precedence(self):
        assert make_instance([(1, 0, 1)] * 3).cover == ()


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

    def test_holds_the_cover_and_shares_the_precedence_caches(self):
        instance = make_instance([(1, 5, 1), (1, 0, 1), (2, 1, 1)], [(0, 1), (1, 2), (0, 2)])
        lifted = normalize_release_times(instance)
        assert lifted.prec == {(0, 1), (1, 2)}  # the cover, not the pairs as given
        assert lifted.masks is instance.masks and lifted.cover is instance.cover
        assert "time_scale" not in lifted.__dict__

    def test_with_jobs_on_a_cyclic_relation_raises_at_once(self):
        jobs = (Job(1, 0, 1), Job(1, 0, 1))
        with pytest.raises(CycleError):
            Instance(jobs, frozenset({(0, 1), (1, 0)})).with_jobs(jobs)

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
        (finding,) = feasibility_violations(Schedule((0.0,)), instance)
        assert "before release" in finding

    def test_check_rejects_overlap(self):
        instance = make_instance([(4, 0, 1), (4, 0, 1)])
        (finding,) = feasibility_violations(Schedule((0.0, 2.0)), instance)
        assert "overlap" in finding

    def test_check_rejects_precedence_violation(self):
        instance = make_instance([(2, 0, 1), (2, 0, 1)], [(0, 1)])
        (finding,) = feasibility_violations(Schedule((4.0, 0.0)), instance)
        assert "predecessor" in finding

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

    def test_moved_start_is_a_float(self):
        # an integer release is stored as a float, so float starts stay float
        instance = make_instance([(2, 3, 1), (1, 0, 1)], [(0, 1)])
        tight = tighten(Schedule((7.0, 12.0)), instance)
        assert tight.start == (3.0, 5.0)
        assert [type(s) for s in tight.start] == [float, float]

    def test_moves_a_job_however_little_it_gains(self):
        # a start within tol past the release, as a block floor a hair above
        # an integer release leaves it, still moves to the release
        instance = make_instance([(2, 13, 1)])
        tight = tighten(Schedule((13 + instance.tol() / 2,)), instance)
        assert tight.start == (13.0,)

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

    def test_scan_starts_at_the_lower_bound(self):
        # the scan bisects the jobs placed so far to the job's lower bound and
        # steps back one, to the last placed job that starts before it
        inside = make_instance([(4, 0, 1), (2, 1, 1)])
        at_start = make_instance([(2, 0, 1), (3, 2, 1), (1, 2, 1)])
        overlap = make_instance([(2, 0, 1), (2, 0, 1), (1, 2, 1), (1, 3, 1)])
        tol = overlap.tol()
        cases = [
            # job 1's release lies inside job 0: it jumps to job 0's end
            (inside, (0.0, 10.0), (0.0, 4.0)),
            # job 2's release is job 1's start, which job 0 ends at
            (at_start, (0.0, 2.0, 20.0), (0.0, 2.0, 5.0)),
            # jobs 0 and 1 overlap by just under tol; job 2's release is job
            # 0's end and job 3's lies inside job 1: both go past job 1
            (
                overlap,
                (0.0, 2.0 - 0.9 * tol, 30.0, 40.0),
                (0.0, 2.0 - 0.9 * tol, 4.0 - 0.9 * tol, 5.0 - 0.9 * tol),
            ),
        ]
        for instance, before, after in cases:
            tight = tighten(Schedule(before), instance)
            assert tight.start == after
            assert tight.start == tighten_ref(instance, before)
            assert is_feasible(tight, instance)

    def test_matches_reference_on_list_schedules_of_raised_releases(self):
        # the pipeline's input: a block list-scheduled on releases raised
        # above its own, then tightened on the block's releases
        for seed in range(12):
            rng = random.Random(seed)
            n = 10 * (seed + 1)
            instance = random_instance(seed, n, r_max=4 * n, density=0.03)
            raised = lift_releases(instance, [job.r + rng.randint(0, 2 * n) for job in instance.jobs])
            lifted = instance.with_jobs(tuple(Job(job.p, r, job.w) for job, r in zip(instance.jobs, raised)))
            order = sorted(range(n), key=lambda j: (instance.masks[j].bit_count(), rng.random()))
            schedule = list_schedule(lifted, order)
            tight = tighten(schedule, instance)
            assert is_feasible(tight, instance)
            assert tight.start == pytest.approx(tighten_ref(instance, schedule.start))


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

    @pytest.mark.parametrize("field", ["jobs", "prec"])
    def test_load_reports_arrays_nested_past_the_recursion_limit(self, tmp_path, field):
        # json.load recurses once per level, so it raises RecursionError
        depth = 10**5
        head = '{"jobs": ' if field == "jobs" else '{"jobs": [], "prec": '
        path = tmp_path / "deep.json"
        path.write_text(head + "[" * depth + "]" * depth + "}")
        with pytest.raises(ValidationError) as from_path:
            load_instance(path)
        with open(path) as fh, pytest.raises(ValidationError) as from_file:
            load_instance(fh)
        for info in (from_path, from_file):
            (finding,) = info.value.findings
            assert finding.startswith("unreadable instance: maximum recursion depth exceeded")

    def test_load_closes_precedence(self):
        doc = {
            "jobs": [{"p": 1, "r": 0, "w": 1}] * 3,
            "prec": [[0, 1], [1, 2]],
        }
        instance = load_instance(doc)
        assert instance.prec == {(0, 1), (1, 2)} and instance.masks[2] == 0b11

    def test_ten_thousand_job_chain_loads_in_bounded_memory(self):
        # a chain as long as MAX_HORIZON admits: its closure has 5 * 10^7
        # pairs, which the instance never holds as pairs
        # the peak is the child's own VmHWM: its ru_maxrss also counts the
        # peak of the parent it was spawned from, here the test runner
        code = (
            "from prec_sched import load_instance, validate\n"
            "n = 10**4\n"
            "doc = {'jobs': [{'p': 1, 'r': 0, 'w': 1}] * n,"
            " 'prec': [[i, i + 1] for i in range(n - 1)]}\n"
            "instance = load_instance(doc)\n"
            "print(len(instance.prec), validate(instance))\n"
            "print(next(line.split()[1] for line in open('/proc/self/status')"
            " if line.startswith('VmHWM:')))\n"
        )
        pairs, findings, peak_kib = run_python(code).split()  # VmHWM is in kB
        assert (pairs, findings) == ("9999", "()")
        assert int(peak_kib) < 200 * 1024

    def test_pairs_out_of_range_are_reported_before_cycles(self):
        # as validate does on any instance: the pairs as given, no closure
        doc = {"jobs": [{"p": 1, "r": 0, "w": 1}] * 2, "prec": [[5, 0], [0, 7], [1, 6], [6, 1]]}
        with pytest.raises(ValidationError) as err:
            load_instance(doc)
        assert err.value.findings == (
            "precedence pair (0, 7) out of range",
            "precedence pair (1, 6) out of range",
            "precedence pair (5, 0) out of range",
            "precedence pair (6, 1) out of range",
        )

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

    def test_load_normalizes_releases(self):
        doc = {
            "jobs": [{"p": 1, "r": 5, "w": 1}, {"p": 1, "r": 0, "w": 1}],
            "prec": [[0, 1]],
        }
        assert load_instance(doc).jobs[1].r == 5

    def test_schedule_to_dict_uses_decimal_strings(self):
        instance = make_instance([(2, 0, 3)])
        doc = Schedule((0.5,)).to_dict(instance)
        assert doc == {"start": ["0.5"], "cost": "7.5"}

    def test_tolerance_scales_with_magnitudes(self):
        small = make_instance([(1, 0, 1)])
        big = make_instance([(10**6, 10**6, 1)])
        assert big.tol() > small.tol()
