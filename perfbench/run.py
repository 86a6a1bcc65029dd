"""Benchmark of the decompose-and-solve pipeline, end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sep_chains --seed 1 --seconds 40 --trace 0

The load is a closed loop: one caller in this process solves the next
instance of a seeded corpus with decompose_and_solve only after the
previous call returned, for --seconds seconds. Every schedule is then
checked outside the timed region.

--trace 0 prints the end-to-end metrics. --trace 1 solves each instance of
a fixed prefix of the corpus three times in a row, traced, untraced,
traced, with spans around each layer's entry points (see spans.py), and
prints the per-layer metrics. The two traced passes must give identical
counters.

Times are reported at the reference speed of reference.py: the wall
time of each call (and of set-up) is scaled by how fast a fixed kernel
ran right beside it, so that the drift of a shared machine's speed does
not show as a change of the program. The raw wall times are printed on
the lines before the result.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. The exit code is 0 when every
output passed its check, 1 when one did not, and 2 when the solver
cannot be imported from ./src.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, replace
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
import spans  # noqa: E402

DEFAULT_SEED = 1
# never run while the benchmark was tuned; for confirming later claims
HELD_OUT_SEED = 2
# the timed loop solves at least this many instances, and cost_over_lp is
# the mean over this prefix of the corpus, so it does not depend on timing
MIN_SOLVES = 40
# set-up is repeated in this many fresh processes besides the measuring one
SETUP_REPEATS = 4
# kernel samples taken after a set-up to scale it to the reference speed
SETUP_SAMPLES = 9
# the exact oracle certifies results up to this many jobs
EXACT_N = 14
# thread pools of the numeric libraries, pinned to one thread before numpy
# is imported so that the measured program is single-threaded everywhere
NUMERIC_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
REL_TOL = 1e-6


@dataclass(frozen=True)
class Workload:
    families: tuple[str, ...]  # generator families, used round-robin
    n: int
    p_max: int
    r_max: int
    prec_density: float
    epsilon: Fraction
    bounded_mode: str
    offsets: str  # decompose_and_solve mode: "derandomized" or "random"
    corpus: int  # instances generated in set-up; the loop wraps round if it runs out
    trace_instances: int  # corpus prefix solved by each pass of --trace 1


# Why each workload exists is recorded in BENCHMARK.json. Sizes are chosen
# so that one 40 s run solves about 60 instances or more at the seed commit:
# fewer, larger instances made the run-to-run spread exceed the bounds.
WORKLOADS = {
    # every LP, the top-level one and each block's, has n <= 18 and so
    # uses exhaustive 2^n separation
    "sep_chains": Workload(
        ("chains",), 14, 8, 56, 0.3, Fraction(1), "empty-guess", "derandomized", 150, 16
    ),
    # a 40-job LP with fast separation, then list scheduling, tighten and
    # feasibility checks on blocks of up to 40 jobs with dense precedence.
    # One random offset per instance: with every offset tried, the offset
    # count (2 to 10 here) made the per-run spread too wide.
    "sched_uniform": Workload(
        ("uniform",), 40, 8, 160, 0.9, Fraction(1), "typed", "random", 250, 40
    ),
}

END_TO_END_UNITS = {
    "solve_s_p50": "s",
    "solve_s_tail": "s",
    "instances_per_s": "1/s",
    "cost_over_lp": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class SetupError(Exception):
    """The solver cannot be loaded from this checkout."""


def import_solver(root: Path):
    """Import prec_sched from <root>/src, and only from there."""
    src = (root / "src").resolve()
    if not (src / "prec_sched" / "__init__.py").is_file():
        raise SetupError(f"no solver sources at {src / 'prec_sched'}")
    sys.path.insert(0, str(src))
    import prec_sched

    if not Path(prec_sched.__file__).resolve().is_relative_to(src):
        raise SetupError(f"prec_sched was imported from {prec_sched.__file__}, not {src}")
    return prec_sched


def make_corpus(ps, name: str, seed: int) -> list:
    wl = WORKLOADS[name]
    rng = random.Random(f"{name}/{seed}")
    corpus = []
    for i in range(wl.corpus):
        config = ps.GeneratorConfig(
            n=wl.n,
            seed=rng.getrandbits(32),
            p_max=wl.p_max,
            r_max=wl.r_max,
            prec_density=wl.prec_density,
            family=wl.families[i % len(wl.families)],
        )
        corpus.append(ps.generate(config))
    return corpus


def set_up(root: Path, name: str, seed: int):
    """Imports, corpus generation and one warm-up LP solve. Returns the
    solver module, the corpus, the seconds it took and the machine's
    speed measured right after it."""
    t0 = time.perf_counter()
    ps = import_solver(root)
    corpus = make_corpus(ps, name, seed)
    ps.solve_lp(corpus[0])
    seconds = time.perf_counter() - t0
    reference.sample()  # its first run builds the kernel's LP
    speed = reference.speed([reference.sample() for _ in range(SETUP_SAMPLES)])
    return ps, corpus, seconds, speed


def repeat_set_up(name: str, seed: int) -> list[tuple[float, float]]:
    """(set-up seconds, speed) measured in fresh processes of this script."""
    out = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--setup-only"],
            capture_output=True, text=True, timeout=170, check=True,
        )
        seconds, speed = proc.stdout.split()[-2:]
        out.append((float(seconds), float(speed)))
    return out


def solve(ps, corpus, idx: int, wl: Workload, call=None):
    """One decompose_and_solve call on corpus[idx], optionally through a
    tracing wrapper. A random offset is drawn from the corpus index."""
    kwargs = {"bounded_mode": wl.bounded_mode, "mode": wl.offsets}
    if wl.offsets == "random":
        kwargs["seed"] = idx
    if call is None:
        return ps.decompose_and_solve(corpus[idx], wl.epsilon, **kwargs)
    return call(spans.ROOT_SPAN, ps.decompose_and_solve, corpus[idx], wl.epsilon, **kwargs)


@dataclass(frozen=True)
class Output:
    """What the check needs from one result; kept small so that holding
    every output until the check does not move peak memory."""

    start: tuple
    cost: float
    lp_value: float


def keep(result) -> Output:
    return Output(result.schedule.start, result.cost, result.lp.value)


def check_result(ps, instance, epsilon: Fraction, out: Output) -> list[str]:
    """Problems with one pipeline output, re-derived from the original instance."""
    schedule = ps.Schedule(out.start)
    problems = list(ps.feasibility_violations(schedule, instance))
    cost = ps.schedule_cost(schedule, instance)
    tol = REL_TOL * max(1.0, abs(cost))
    if abs(cost - out.cost) > tol:
        problems.append(f"reported cost {out.cost} but the schedule costs {cost}")
    if cost < out.lp_value - tol:
        problems.append(f"cost {cost} below the LP lower bound {out.lp_value}")
    if instance.n <= EXACT_N:
        opt, _ = ps.exact_opt(instance, EXACT_N)
        bound = 2.0 * float((1 + epsilon) ** 2) * float(opt)
        if cost > bound + tol:
            problems.append(f"cost {cost} above 2(1+eps)^2 * OPT = {bound}")
    return problems


def corrupt(out: Output) -> Output:
    """The output with its last-starting job moved earlier, to the first
    start, where it overlaps the job already there."""
    start = list(out.start)
    last = max(range(len(start)), key=lambda j: (start[j], j))
    start[last] = min(start)
    return replace(out, start=tuple(start))


def checker_catches_corruption(ps, instance, epsilon, out: Output) -> bool:
    if instance.n < 2:
        return True
    return bool(check_result(ps, instance, epsilon, corrupt(out)))


def check_all(ps, corpus, wl: Workload, solved: dict) -> tuple[set, list[str]]:
    """Check each distinct solved instance once. Returns the corpus indices
    that failed and a line per problem."""
    bad, lines = set(), []
    for idx, result in sorted(solved.items()):
        problems = check_result(ps, corpus[idx], wl.epsilon, result)
        if problems:
            bad.add(idx)
            lines.extend(f"instance {idx}: {p}" for p in problems)
    if solved:
        idx = min(solved)
        if not checker_catches_corruption(ps, corpus[idx], wl.epsilon, solved[idx]):
            bad.add(idx)
            lines.append("output check accepted a deliberately corrupted schedule")
    return bad, lines


def tail(times: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it: the value
    and its percentile. With fewer than eleven samples, the maximum."""
    ordered = sorted(times)
    if len(ordered) < 11:
        return ordered[-1], 100.0
    k = len(ordered) - 11
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment(inherited: dict) -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        **{f"inherited_{k}": v for k, v in sorted(inherited.items())},
    }


def cost_over_lp(results) -> float:
    ratios = [r.cost / r.lp_value for r in results if r.lp_value > 0]
    return statistics.fmean(ratios)


def run_timed(ps, corpus, wl: Workload, seconds: float):
    """The closed loop. Returns per-call seconds, a kernel sample taken
    after each call, the last result per corpus index, and the indices
    whose call raised."""
    times, samples, solved, raised = [], [], {}, {}
    deadline = time.perf_counter() + seconds
    i = 0
    while i < MIN_SOLVES or time.perf_counter() < deadline:
        idx = i % len(corpus)
        t = time.perf_counter()
        try:
            result = solve(ps, corpus, idx, wl)
        except Exception as exc:  # a failed call is counted, not fatal
            raised[idx] = f"{type(exc).__name__}: {exc}"
            result = None
        times.append(time.perf_counter() - t)
        samples.append(reference.sample())
        if result is not None:
            solved[idx] = keep(result)
        i += 1
    return times, samples, solved, raised


def end_to_end(ps, corpus, wl, args, setup):
    """The timed closed loop, then the output check and set-up repeats."""
    wall, samples, solved, raised = run_timed(ps, corpus, wl, args.seconds)
    rss = peak_rss_mb()
    bad, problems = check_all(ps, corpus, wl, solved)
    calls = [i % len(corpus) for i in range(len(wall))]
    failed = sum(1 for idx in calls if idx in raised or idx in bad)
    setups = [setup] + repeat_set_up(args.workload, args.seed)
    times = reference.rescale(wall, samples)
    p50 = statistics.median(times)
    tail_s, pct = tail(times)
    metrics = {
        "solve_s_p50": p50,
        "solve_s_tail": tail_s,
        "instances_per_s": len(times) / sum(times),
        "cost_over_lp": cost_over_lp(solved[i] for i in range(MIN_SOLVES) if i in solved),
        "setup_s": statistics.median(s * v for s, v in setups),
        "peak_rss_mb": rss,
    }
    for idx, why in sorted(raised.items()):
        problems.append(f"instance {idx}: raised {why}")
    speed = reference.speed(samples)
    report = [
        f"machine speed {speed:.3f} of the reference during the timed loop"
        f" (kernel median {statistics.median(samples):.5f} s, reference {reference.REFERENCE_S} s)",
        f"solve_s_p50 {p50:.4f} s over {len(times)} calls (wall {statistics.median(wall):.4f} s)",
        f"solve_s_tail {tail_s:.4f} s (p{pct:.1f} of {len(times)} calls; wall {tail(wall)[0]:.4f} s)",
        f"instances_per_s {metrics['instances_per_s']:.4f} 1/s (wall {len(wall) / sum(wall):.4f} 1/s)",
        f"cost_over_lp {metrics['cost_over_lp']:.6f} (mean over corpus[:{MIN_SOLVES}])",
        f"error_rate {failed / len(times):.4f} ({failed} of {len(times)} calls)",
        f"setup_s {metrics['setup_s']:.4f} s (median of "
        + ", ".join(f"{s * v:.3f}" for s, v in setups)
        + "; wall " + ", ".join(f"{s:.3f}" for s, _ in setups) + ")",
        f"peak_rss_mb {rss:.1f} MB",
    ]
    return metrics, END_TO_END_UNITS, len(times), failed, problems, report


def per_layer(ps, corpus, wl, args):
    """Each instance of a fixed corpus prefix solved traced, untraced and
    traced again, back to back, so that the trace overhead compares calls
    made seconds apart. Each traced pass has its own recorder."""
    prefix = range(min(wl.trace_instances, len(corpus)))
    first, second = spans.Recorder(), spans.Recorder()
    walls = {"first": 0.0, "untraced": 0.0, "second": 0.0}
    costs = {kind: [] for kind in walls}
    outputs, failed, problems = {}, 0, []

    def one_call(idx, kind, recorder):
        nonlocal failed
        if recorder is not None:
            recorder.install()
        t = time.perf_counter()
        try:
            result = solve(ps, corpus, idx, wl, recorder.call if recorder else None)
        except Exception as exc:  # a failed call is counted, not fatal
            failed += 1
            problems.append(f"instance {idx}: raised {type(exc).__name__}: {exc}")
            result = None
        finally:
            walls[kind] += time.perf_counter() - t
            if recorder is not None:
                recorder.uninstall()
        if result is not None:
            outputs.setdefault(idx, keep(result))
        costs[kind].append(None if result is None else result.cost)

    for idx in prefix:
        one_call(idx, "first", first)
        one_call(idx, "untraced", None)
        one_call(idx, "second", second)
    # reported from the second traced pass, whose spans are written out
    counts = first.metrics()
    metrics = second.metrics()
    totals = {k: metrics[k]["value"] for k in spans.DETERMINISTIC}
    bad, check_lines = check_all(ps, corpus, wl, outputs)
    problems.extend(check_lines)
    failed += len(bad)
    if not costs["first"] == costs["untraced"] == costs["second"]:
        problems.append("traced and untraced passes returned different costs")
        failed += 1
    for key in spans.DETERMINISTIC:
        if counts[key]["value"] != totals[key]:
            problems.append(
                f"counter {key} differs between traced passes: {counts[key]['value']} vs {totals[key]}"
            )
            failed += 1
    overhead = (walls["first"] + walls["second"]) / (2 * walls["untraced"]) - 1.0
    metrics["trace.overhead"] = {"value": overhead, "unit": "ratio"}
    out_dir = Path.cwd() / "perfbench" / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    out_file = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
    second.write(out_file, {"workload": args.workload, "seed": args.seed, "instances": len(prefix)})
    report = second.absent_lines() + [
        f"traced corpus[:{len(prefix)}]; walls " + json.dumps(walls),
        "counters " + json.dumps(totals, sort_keys=True),
        f"spans written to {out_file.relative_to(Path.cwd())}",
    ]
    values = {k: v["value"] for k, v in metrics.items()}
    units = {k: v["unit"] for k, v in metrics.items()}
    return values, units, 3 * len(prefix), failed, problems, report


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only", action="store_true",
        help="do the set-up only and print its seconds and the machine speed (used to repeat set-up)",
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # the solver's thread pool width is cleared, and the numeric libraries'
    # pinned, so every machine runs the same single-threaded program; the
    # set-up repeats inherit this environment
    inherited = {"PREC_SCHED_THREADS": os.environ.pop("PREC_SCHED_THREADS", None)}
    for name in NUMERIC_THREADS:
        inherited[name] = os.environ.get(name)
        os.environ[name] = "1"
    try:
        ps, corpus, setup_s, speed = set_up(Path.cwd(), args.workload, args.seed)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if args.setup_only:
        print(f"{setup_s!r} {speed!r}")
        return 0
    wl = WORKLOADS[args.workload]
    print(f"workload {args.workload} seed {args.seed} {wl}")
    print("environment " + json.dumps(environment(inherited), sort_keys=True))
    if args.trace:
        measured = per_layer(ps, corpus, wl, args)
    else:
        measured = end_to_end(ps, corpus, wl, args, (setup_s, speed))
    values, units, attempted, failed, problems, report = measured
    for line in report + problems:
        print(line)
    correct = failed == 0 and not problems
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in values},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
