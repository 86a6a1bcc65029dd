"""Seeded instance generators (five families) and the ratio benchmark,
which checks the paper's certified bounds on generated instances."""

from __future__ import annotations

import hashlib
import random
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
from .listsched import list_schedule, order_from_lp
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
_BENCH_TOL = 1e-6


def bench(configs, epsilons, trials: int) -> dict:
    """Run the pipeline over a config x epsilon grid and aggregate ratios.

    Each (config, epsilon) pair gives one row over `trials` instances
    generated at seeds config.seed, config.seed + 1, ... A row holds the
    family, n, epsilon (exact, as a string) and the trial count, then the
    max and mean of three ratios: the pipeline's cost over the optimum
    (the exact oracle runs when n <= ORACLE_N), and the costs of the
    pipeline and of plain LP+LS (list scheduling ordered by the pipeline's
    parent LP) over the LP value. A ratio is left out where its
    denominator is 0. Blocks are solved exhaustively up to N_GUESS jobs,
    the cap of that mode, and typed above.

    Checked per instance: the pipeline within 2(1+eps)^2 of the optimum
    when the oracle ran, and on the p_le_r family LP+LS within twice the
    LP value. "violations" names each breach by the instance's digest (the
    CLI exits nonzero on a nonempty list). Negative trials: ValueError.
    """
    if trials < 0:
        raise ValueError(f"trials must be >= 0, got {trials}")
    rows = []
    violations = []
    for config in configs:
        for epsilon in epsilons:
            ratios = {key: [] for key in ("ratio_alg_opt", "ratio_alg_lp", "ratio_lpls_lp")}
            pipeline_bound = 2.0 * (1.0 + float(Fraction(epsilon))) ** 2
            for t in range(trials):
                instance = generate(replace(config, seed=config.seed + t))
                mode = "exhaustive" if instance.n <= N_GUESS else "typed"
                result = decompose_and_solve(instance, epsilon, bounded_mode=mode)
                cost, z_lp = result.cost, result.lp.value
                order = order_from_lp(result.lp, instance)
                lpls_cost = schedule_cost(list_schedule(instance, order), instance)
                if z_lp > 0:
                    ratios["ratio_alg_lp"].append(cost / z_lp)
                    ratios["ratio_lpls_lp"].append(lpls_cost / z_lp)
                if instance.n <= ORACLE_N:
                    opt = float(exact_opt(instance, ORACLE_N)[0])
                    if opt > 0:
                        ratios["ratio_alg_opt"].append(cost / opt)
                    if cost > pipeline_bound * opt + _BENCH_TOL:
                        violations.append(
                            f"{config.family} seed-offset instance {digest(instance)[:12]}: "
                            f"pipeline cost {cost} exceeds {pipeline_bound} x optimum {opt}"
                        )
                if config.family == "p_le_r" and lpls_cost > 2.0 * z_lp + _BENCH_TOL:
                    violations.append(
                        f"p_le_r instance {digest(instance)[:12]}: LP+LS cost "
                        f"{lpls_cost} exceeds twice the LP value {z_lp}"
                    )
            row = {
                "family": config.family,
                "n": config.n,
                "epsilon": str(Fraction(epsilon)),
                "trials": trials,
            }
            for key, vals in ratios.items():
                if vals:
                    row[f"max_{key}"] = max(vals)
                    row[f"mean_{key}"] = sum(vals) / len(vals)
            rows.append(row)
    return {"rows": rows, "violations": violations}
