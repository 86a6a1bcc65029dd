"""Generators and the bench ratio benchmark."""

from __future__ import annotations

import dataclasses

import pytest

import prec_sched.harness
from prec_sched import (
    GeneratorConfig,
    Schedule,
    bench,
    generate,
    make_instance,
    normalize_release_times,
    validate,
)
from prec_sched.cli import main
from prec_sched.harness import FAMILIES, ORACLE_N, digest

# digest(generate(...)) per (family, n, seed, r_max, prec_density): every
# family at n = 8, and the shapes of the benchmark's two workloads
GENERATED_DIGESTS = {
    ("uniform", 8, 1, 16, 0.3): "9fb77e8fde080271bfc1962eb6c014b49dab881469bd619b252d921416829052",
    ("uniform", 8, 2, 16, 0.3): "65a2a791f32980e45bd437866789e5e83c5b0a9cf465578ce2253246e64f004b",
    ("uniform", 8, 3, 16, 0.3): "9548f47189a901cef29f53b4deb06e3e8bcee52e5237bffcccd5e1eeada1bde1",
    ("p_le_r", 8, 1, 16, 0.3): "f8656afe4b66e04be6e6884d8e47e51b85c03e0ed6a4f488d31bfed4d907321d",
    ("p_le_r", 8, 2, 16, 0.3): "4c0e53c039c082d7bf38db32249eff57edb57cb38169ea192124d886a13fb8cd",
    ("p_le_r", 8, 3, 16, 0.3): "d81989ecbc040351d8ee337cb773646b1bea024d32f3c4e49aa8a0251ddb8b2d",
    ("paper_example", 8, 1, 16, 0.3): "2d207fb01456cb612dd03ba1c8a8716d008ceb755ec67d4f29e8d285e90842e4",
    ("paper_example", 8, 2, 16, 0.3): "2d207fb01456cb612dd03ba1c8a8716d008ceb755ec67d4f29e8d285e90842e4",
    ("paper_example", 8, 3, 16, 0.3): "2d207fb01456cb612dd03ba1c8a8716d008ceb755ec67d4f29e8d285e90842e4",
    ("chains", 8, 1, 16, 0.3): "a28a5c47db02a4ed51d308efd15906397d3bf61b96491c21eb85930977c28f47",
    ("chains", 8, 2, 16, 0.3): "5a81a311c72e0c5ddccf8a3f54ef3e3ec72341de2835f3e5d6b8b7f88bee91f0",
    ("chains", 8, 3, 16, 0.3): "2ba02907887389754bc6a92d4ee32584f5cf0dee89f1132302e392853123354f",
    ("antichain", 8, 1, 16, 0.3): "d557cbb63673cb80e23b19e661e3a24603fe565d2bd39374b0a38565e92223e3",
    ("antichain", 8, 2, 16, 0.3): "b7f5f0aef8b80adeed7b189e0e0ded36bce7c53f80c60072f96666c690ee188a",
    ("antichain", 8, 3, 16, 0.3): "e58e81a88f57722fa49e97d09a56b5ed6505f1cc08ec21f60ffd82265349b38c",
    ("chains", 14, 1, 56, 0.3): "e8dbb504aab22a631b695d71c33b35e9f5d1f86e04f4794d902bd168a1c335b5",
    ("chains", 14, 2, 56, 0.3): "e6bf1a776ef73ec9ab895c80365b02e47715dcab9e12cd02f494b62c0d2d49a3",
    ("chains", 14, 3, 56, 0.3): "c1258eba853a26b9479b06e2def1611ab993842c635ab0e1119ef8bf1c22df1a",
    ("uniform", 40, 1, 160, 0.9): "4a60ac1df349d0c817f8066cbe88b01399ffc865be91961f9ddeeba6ea626105",
    ("uniform", 40, 2, 160, 0.9): "2f86108e136185d4391921b324e3ac3496cc3d18c843353137822e266e32d8ff",
    ("uniform", 40, 3, 160, 0.9): "7a464046f8db3b6a973c3390147bc6a78c409b82064002b9c7ebccc80061eeae",
}


class TestGenerate:
    def test_two_job_reference_family(self):
        instance = generate(GeneratorConfig(n=2, seed=0, family="paper_example", m=10))
        assert [(j.p, j.r, j.w) for j in instance.jobs] == [(1, 1, 10), (10, 0, 0)]
        assert instance.prec == frozenset()
        small = generate(GeneratorConfig(n=2, seed=0, family="paper_example", m=3))
        assert [(j.p, j.r, j.w) for j in small.jobs] == [(1, 1, 3), (3, 0, 0)]

    def test_single_job_instance_is_valid(self):
        instance = generate(GeneratorConfig(n=1, seed=3))
        assert instance.n == 1
        assert not validate(instance)

    def test_deterministic_per_seed(self):
        config = GeneratorConfig(n=6, seed=11, family="chains")
        assert generate(config).jobs == generate(config).jobs
        assert digest(generate(config)) == digest(generate(config))
        other = GeneratorConfig(n=6, seed=12, family="chains")
        assert digest(generate(config)) != digest(generate(other))

    def test_release_dominates_processing_family(self):
        for seed in range(5):
            instance = generate(GeneratorConfig(n=6, seed=seed, family="p_le_r"))
            assert all(job.p <= job.r for job in instance.jobs)

    def test_antichain_has_no_precedence(self):
        instance = generate(GeneratorConfig(n=7, seed=2, family="antichain"))
        assert instance.prec == frozenset()

    def test_every_family_valid_and_normalized(self):
        for family in FAMILIES:
            instance = generate(GeneratorConfig(n=5, seed=8, family=family))
            assert not validate(instance)
            renorm = normalize_release_times(instance)
            assert [j.r for j in renorm.jobs] == [j.r for j in instance.jobs]

    def test_generated_corpora_are_pinned(self):
        for (family, n, seed, r_max, density), expected in GENERATED_DIGESTS.items():
            config = GeneratorConfig(
                n=n, seed=seed, r_max=r_max, prec_density=density, family=family
            )
            assert digest(generate(config)) == expected, (family, n, seed)

    def test_config_validation(self):
        with pytest.raises(ValueError, match="unknown family"):
            GeneratorConfig(n=2, seed=0, family="bursty")
        with pytest.raises(ValueError, match="ranges"):
            GeneratorConfig(n=0, seed=0)
        with pytest.raises(ValueError, match="ranges"):
            GeneratorConfig(n=2, seed=0, p_max=0)
        with pytest.raises(ValueError, match="ranges"):
            GeneratorConfig(n=2, seed=0, r_max=-1)
        with pytest.raises(ValueError, match="prec_density"):
            GeneratorConfig(n=2, seed=0, prec_density=1.5)

    def test_invalid_instance_is_value_error(self):
        with pytest.raises(ValueError, match="ranges"):
            GeneratorConfig(n=2, seed=0, family="paper_example", m=0)
        with pytest.raises(ValueError, match="invalid instance: horizon"):
            generate(GeneratorConfig(n=5, seed=0, p_max=5000))
        with pytest.raises(ValueError, match="invalid instance: job .* weight"):
            generate(GeneratorConfig(n=6, seed=0, w_max=2 * 10**6))

    def test_jobs_checked_before_precedence_is_drawn(self, monkeypatch):
        # a 3,000-job uniform instance fails the horizon check; drawing
        # its 4.5 million precedence pairs first would cost minutes
        def draw(*args):
            raise AssertionError("precedence drawn before the jobs were checked")

        monkeypatch.setattr(prec_sched.harness, "_random_dag", draw)
        with pytest.raises(ValueError, match="invalid instance: horizon"):
            generate(GeneratorConfig(n=3000, seed=1))


class TestDigest:
    def test_shape_and_stability(self):
        instance = generate(GeneratorConfig(n=4, seed=1))
        d = digest(instance)
        assert len(d) == 64
        assert set(d) <= set("0123456789abcdef")
        assert digest(instance) == d

    def test_sensitive_to_content(self):
        a = make_instance([(1, 0, 1)])
        b = make_instance([(1, 0, 2)])
        assert digest(a) != digest(b)


class TestBench:
    def test_small_grid_clean_and_aggregated(self):
        configs = [
            GeneratorConfig(n=4, seed=0, family="p_le_r"),
            GeneratorConfig(n=3, seed=5, family="uniform"),
        ]
        report = bench(configs, [1], trials=2)
        assert report["violations"] == []
        assert len(report["rows"]) == 2
        by_family = {row["family"]: row for row in report["rows"]}
        assert by_family["p_le_r"]["max_ratio_lpls_lp"] <= 2.0 + 1e-6
        for row in report["rows"]:
            assert row["trials"] == 2
            for key in ("ratio_alg_opt", "ratio_alg_lp", "ratio_lpls_lp"):
                assert row[f"max_{key}"] >= row[f"mean_{key}"] >= 1 - 1e-9

    def test_zero_trials_gives_bare_rows(self):
        report = bench([GeneratorConfig(n=3, seed=0)], [1], trials=0)
        assert report["violations"] == []
        assert report["rows"] == [
            {"family": "uniform", "n": 3, "epsilon": "1", "trials": 0}
        ]

    def test_rows_are_deterministic(self):
        configs = [GeneratorConfig(n=3, seed=4, family="chains")]
        assert bench(configs, [1], 2) == bench(configs, [1], 2)

    def test_fractional_epsilon_recorded_exactly(self):
        report = bench([GeneratorConfig(n=3, seed=6)], [0.5], trials=1)
        assert report["rows"][0]["epsilon"] == "1/2"

    def test_exact_cap_controls_the_oracle(self):
        at_cap = bench([GeneratorConfig(n=ORACLE_N, seed=7)], [1], trials=1)
        assert at_cap["rows"][0]["max_ratio_alg_opt"] >= 1 - 1e-9
        above = bench([GeneratorConfig(n=ORACLE_N + 1, seed=7)], [1], trials=1)
        row = above["rows"][0]
        assert "max_ratio_alg_opt" not in row and "mean_ratio_alg_opt" not in row
        assert "max_ratio_lpls_lp" in row

    def test_baselines_on_the_reference_pair(self):
        config = GeneratorConfig(n=2, seed=0, family="paper_example")
        row = bench([config], [1], trials=1)["rows"][0]
        # the pipeline reaches the optimum 20; LP+LS pays 110 against Z = 15
        assert row["max_ratio_alg_opt"] == 1.0
        assert row["max_ratio_lpls_lp"] == pytest.approx(110.0 / 15.0)

    def test_zero_weights_give_bare_rows(self):
        # every cost, LP value and optimum is 0, so no ratio has a denominator
        report = bench([GeneratorConfig(n=3, seed=0, w_max=0)], [1], trials=2)
        assert report == {
            "rows": [{"family": "uniform", "n": 3, "epsilon": "1", "trials": 2}],
            "violations": [],
        }

    def test_clean_run_computes_no_digest(self, monkeypatch):
        def refuse(instance):
            raise AssertionError("digest computed on a clean run")

        monkeypatch.setattr(prec_sched.harness, "digest", refuse)
        configs = [GeneratorConfig(n=4, seed=0, family="p_le_r")]
        report = bench(configs, [1], trials=2)
        assert report["violations"] == []
        assert len(report["rows"]) == 1


def inflate_pipeline_cost(monkeypatch):
    solve = prec_sched.harness.decompose_and_solve

    def inflated(*args, **kwargs):
        result = solve(*args, **kwargs)
        return dataclasses.replace(result, cost=10 * result.cost)

    monkeypatch.setattr(prec_sched.harness, "decompose_and_solve", inflated)


def delay_list_schedule(monkeypatch):
    schedule = prec_sched.harness.list_schedule

    def delayed(instance, order):
        late = 100.0 * sum(job.p for job in instance.jobs)
        return Schedule(tuple(s + late for s in schedule(instance, order).start))

    monkeypatch.setattr(prec_sched.harness, "list_schedule", delayed)


class TestBenchViolations:
    def test_pipeline_bound(self, monkeypatch):
        inflate_pipeline_cost(monkeypatch)
        report = bench([GeneratorConfig(n=4, seed=0, family="p_le_r")], [1], trials=1)
        assert report["violations"] == [
            "p_le_r seed-offset instance c3f9fca15aed: "
            "pipeline cost 3830.0 exceeds 8.0 x optimum 381.0"
        ]

    def test_lpls_bound(self, monkeypatch):
        delay_list_schedule(monkeypatch)
        config = GeneratorConfig(n=4, seed=0, family="p_le_r")
        instance = generate(config)
        report = bench([config], [1], trials=1)
        assert len(report["violations"]) == 1
        assert report["violations"][0].startswith(
            f"p_le_r instance {digest(instance)[:12]}: LP+LS cost "
        )
        assert " exceeds twice the LP value " in report["violations"][0]

    def test_lpls_bound_is_checked_on_p_le_r_only(self, monkeypatch):
        delay_list_schedule(monkeypatch)
        report = bench([GeneratorConfig(n=4, seed=0, family="uniform")], [1], trials=1)
        assert report["violations"] == []

    @pytest.mark.parametrize(
        "patch", [inflate_pipeline_cost, delay_list_schedule], ids=["pipeline", "lpls"]
    )
    def test_cli_prints_each_violation_and_exits_3(self, monkeypatch, capsys, patch):
        patch(monkeypatch)
        configs = [GeneratorConfig(n=4, seed=0, family="p_le_r")]
        expected = bench(configs, [1], trials=2)["violations"]
        assert expected
        code = main(
            ["bench", "--family", "p_le_r", "--n", "4", "--trials", "2",
             "--epsilon", "1", "--output", "table"]
        )
        lines = capsys.readouterr().out.splitlines()
        assert code == 3
        assert [line for line in lines if line.startswith("VIOLATED: ")] == [
            f"VIOLATED: {v}" for v in expected
        ]
