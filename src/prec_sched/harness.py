"""Instance generators, pipeline runner, and benchmark aggregation."""

from __future__ import annotations

import hashlib
import random
import time
from dataclasses import dataclass, replace
from fractions import Fraction

from .bounded import N_GUESS
from .decompose import decompose_and_solve
from .exact import exact_opt
from .instance import (
    Instance,
    make_instance,
    normalize_release_times,
    schedule_cost,
    validate,
)
from .listsched import list_schedule, list_schedule_strict, order_from_lp
from .util import canonical_json

FAMILIES = ("uniform", "p_le_r", "paper_example", "chains", "antichain")


@dataclass(frozen=True)
class GeneratorConfig:
    n: int
    seed: int
    p_max: int = 8
    r_max: int = 16
    w_max: int = 6
    prec_density: float = 0.3
    family: str = "uniform"
    m: int = 10  # size parameter of the two-job reference family

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; choose from {FAMILIES}")
        if self.n < 1 or self.p_max < 1 or self.r_max < 0 or self.w_max < 0 or self.m < 1:
            raise ValueError("ranges must be positive (n, p_max, m >= 1; r_max, w_max >= 0)")
        if not 0.0 <= self.prec_density <= 1.0:
            raise ValueError("prec_density must lie in [0, 1]")


def generate(config: GeneratorConfig) -> Instance:
    """Deterministic instance from the config's seed, validated and
    release-normalized as load_instance returns one. The jobs are checked
    before precedence is drawn (a ValueError names the first finding); the
    pairs run along index order or along disjoint chains, so their order
    needs no check."""
    rng = random.Random(config.seed)
    n = config.n
    if config.family == "paper_example":
        jobs = [(1, 1, config.m), (config.m, 0, 0)]
    elif config.family == "p_le_r":
        jobs = []
        for _ in range(n):
            p = rng.randint(1, config.p_max)
            jobs.append((p, rng.randint(p, p + config.r_max), rng.randint(0, config.w_max)))
    else:
        jobs = [
            (rng.randint(1, config.p_max), rng.randint(0, config.r_max), rng.randint(0, config.w_max))
            for _ in range(n)
        ]
    findings = validate(make_instance(jobs))
    if findings:
        raise ValueError(f"generator config gives an invalid instance: {findings[0]}")
    prec: list[tuple[int, int]] = []
    if config.family == "chains":
        ids = list(range(n))
        rng.shuffle(ids)
        while ids:
            size = min(len(ids), rng.randint(2, 4))
            chain, ids = ids[:size], ids[size:]
            prec.extend(zip(chain, chain[1:]))
    elif config.family in ("uniform", "p_le_r"):
        prec = _random_dag(rng, n, config.prec_density)
    return normalize_release_times(make_instance(jobs, prec))


def _random_dag(rng: random.Random, n: int, density: float) -> list[tuple[int, int]]:
    # edges along the index order, so acyclicity is free
    return [
        (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < density
    ]


def digest(instance: Instance) -> str:
    """Stable content hash of the canonical JSON serialization."""
    return hashlib.sha256(canonical_json(instance.to_dict()).encode()).hexdigest()


# the exact oracle runs on instances of at most this many jobs
ORACLE_N = 9


def run_pipeline(instance: Instance, epsilon) -> dict:
    """Run the full solver on one instance and record metrics.

    Reports the LP value and the pipeline cost, the exact optimum when
    n <= ORACLE_N, the costs of two list-scheduling baselines ordered by
    the pipeline's parent LP (plain LP+LS and strict-order LS), and the
    ratios between them. The pipeline's schedule is checked against the
    instance inside decompose_and_solve.
    Blocks are solved in exhaustive mode up to N_GUESS jobs, the cap of
    that mode, and in typed mode on larger instances.
    """
    bounded_mode = "exhaustive" if instance.n <= N_GUESS else "typed"
    t0 = time.perf_counter()
    result = decompose_and_solve(instance, epsilon, bounded_mode=bounded_mode)
    wall = time.perf_counter() - t0
    record = {
        "digest": digest(instance),
        "n": instance.n,
        "epsilon": str(Fraction(epsilon)),
        "Z_lp": result.lp.value,
        "alg_cost": result.cost,
        "b": result.grid.b,
        "guesses_tried": sum(iv.guesses_tried for iv in result.intervals),
        "wall_time": wall,
    }
    if result.lp.value > 0:
        record["ratio_alg_lp"] = result.cost / result.lp.value
    if instance.n <= ORACLE_N:
        opt, _ = exact_opt(instance, ORACLE_N)
        record["opt_cost"] = float(opt)
        if opt > 0:
            record["ratio_alg_opt"] = result.cost / float(opt)
    order = order_from_lp(result.lp, instance)
    record["lpls_cost"] = schedule_cost(list_schedule(instance, order), instance)
    strict = list_schedule_strict(instance, order)
    record["strict_cost"] = schedule_cost(strict, instance)
    if "opt_cost" in record and record["opt_cost"] > 0:
        record["ratio_lpls_opt"] = record["lpls_cost"] / record["opt_cost"]
    if record["Z_lp"] > 0:
        record["ratio_lpls_lp"] = record["lpls_cost"] / record["Z_lp"]
    return record


# certified bounds checked by bench, per family:
#   p_le_r: plain LP+LS within 2x of the LP value
#   any family with the oracle run: pipeline within 2(1+eps)^2 of optimal
_BENCH_TOL = 1e-6


def bench(configs, epsilons, trials: int) -> dict:
    """Run the pipeline over a config x epsilon grid and aggregate ratios.

    Per row: max/mean of cost over optimum (when the oracle ran) and over
    the LP value. Rows also carry any certified-bound violations; the
    report's "violations" list is the union (the CLI exits nonzero on a
    nonempty one). A negative trial count is a ValueError.
    """
    if trials < 0:
        raise ValueError(f"trials must be >= 0, got {trials}")
    rows = []
    violations = []
    for config in configs:
        for epsilon in epsilons:
            instances = [
                generate(replace(config, seed=config.seed + t)) for t in range(trials)
            ]
            records = [run_pipeline(inst, epsilon) for inst in instances]
            row = {
                "family": config.family,
                "n": config.n,
                "epsilon": str(Fraction(epsilon)),
                "trials": trials,
            }
            for key in ("ratio_alg_opt", "ratio_alg_lp", "ratio_lpls_lp"):
                vals = [rec[key] for rec in records if key in rec]
                if vals:
                    row[f"max_{key}"] = max(vals)
                    row[f"mean_{key}"] = sum(vals) / len(vals)
            eps = float(Fraction(epsilon))
            pipeline_bound = 2.0 * (1.0 + eps) ** 2
            for rec in records:
                if "opt_cost" in rec and rec["alg_cost"] > pipeline_bound * rec["opt_cost"] + _BENCH_TOL:
                    violations.append(
                        f"{config.family} seed-offset instance {rec['digest'][:12]}: "
                        f"pipeline cost {rec['alg_cost']} exceeds {pipeline_bound} x optimum {rec['opt_cost']}"
                    )
                if config.family == "p_le_r" and "lpls_cost" in rec:
                    if rec["lpls_cost"] > 2.0 * rec["Z_lp"] + _BENCH_TOL:
                        violations.append(
                            f"p_le_r instance {rec['digest'][:12]}: LP+LS cost "
                            f"{rec['lpls_cost']} exceeds twice the LP value {rec['Z_lp']}"
                        )
            rows.append(row)
    return {"rows": rows, "violations": violations}
