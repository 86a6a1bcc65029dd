"""Shared builders for randomized test instances and schedules."""

from __future__ import annotations

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import prec_sched
from prec_sched import GeneratorConfig, Schedule, generate, make_instance, normalize_release_times


def random_instance(
    seed, n, p_max=8, r_max=16, w_max=6, density=0.3, normalize=True, relabel=False
):
    """Random valid instance, release-normalized unless told otherwise.

    Precedence pairs run from lower to higher id, so id order is
    topological, unless `relabel` renames the ids in the pairs by a
    random permutation.
    """
    rng = random.Random(seed)
    jobs = [
        (rng.randint(1, p_max), rng.randint(0, r_max), rng.randint(0, w_max))
        for _ in range(n)
    ]
    prec = [
        (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < density
    ]
    if relabel:
        perm = list(range(n))
        rng.shuffle(perm)
        prec = [(perm[i], perm[j]) for i, j in prec]
    instance = make_instance(jobs, prec)
    return normalize_release_times(instance) if normalize else instance


def dag_variants(seed, n, p_max=8, r_max=16, density=0.3):
    """Instances whose DAGs have ids in topological order, ids relabelled
    out of it, and the generator's chains family (shuffled ids)."""
    return [
        random_instance(seed, n, p_max=p_max, r_max=r_max, density=density),
        random_instance(seed, n, p_max=p_max, r_max=r_max, density=density, relabel=True),
        generate(GeneratorConfig(n=n, seed=seed, p_max=p_max, r_max=r_max, family="chains")),
    ]


def random_bounded_instance(seed, n, L, p_max=4, r_spread=8, w_max=6, density=0.3):
    """Random instance with every release in [L, L + r_spread].

    With p_max * n + r_spread kept below (e**3 - 1) * L, every tight
    schedule finishes before e**3 * L, so the instance is bounded with
    beta = e**3.
    """
    rng = random.Random(seed)
    jobs = [
        (rng.randint(1, p_max), L + rng.randint(0, r_spread), rng.randint(0, w_max))
        for _ in range(n)
    ]
    prec = [
        (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < density
    ]
    return normalize_release_times(make_instance(jobs, prec))


def random_feasible_schedule(seed, instance, slack=5):
    """Feasible schedule from a random topological order with random idle."""
    rng = random.Random(seed)
    n = instance.n
    placed = []
    remaining = set(range(n))
    while remaining:
        ready = [j for j in remaining if not any(instance.masks[j] >> h & 1 for h in remaining)]
        placed.append(rng.choice(ready))
        remaining.discard(placed[-1])
    start = [0.0] * n
    t = 0.0
    for j in placed:
        t = max(t, float(instance.jobs[j].r)) + rng.randint(0, slack)
        start[j] = t
        t += instance.jobs[j].p
    return Schedule(tuple(start))


def run_python(code: str) -> str:
    """stdout of `code` run in a fresh interpreter that imports this
    checkout's prec_sched; fails the test if it exits nonzero."""
    src = str(Path(prec_sched.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.fixture
def two_job_reference():
    """Two jobs: a light urgent one released late, a heavy one at zero.

    The classic case where list scheduling in LP order pays (M + 1) M
    against an optimum of 2 M; here M = 10.
    """
    return make_instance([(1, 1, 10), (10, 0, 0)])
