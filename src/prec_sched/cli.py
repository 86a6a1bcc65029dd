"""Command-line interface.

Subcommands mirror the library layers: validate, lp, lpls, exact,
bounded, solve, bench, gen. Results are JSON on stdout (times and costs
as round-trip float strings, guessed starts as rationals like "5/3");
only bench and validate take --output, to print a plain table instead.
Exit codes: 0 success, 1 usage error or failed write to stdout, 2
invalid, unreadable or infeasible input, 3 broken internal invariant (a
bug, e.g. a block escaping its interval).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from fractions import Fraction

from .bounded import MODES, solve_bounded
from .decompose import decompose_and_solve
from .errors import (
    InfeasibleScheduleError,
    InvariantViolationError,
    LpIterationLimitError,
    SchedulingError,
    ValidationError,
)
from .exact import EXACT_CAP, exact_opt
from .harness import FAMILIES, GeneratorConfig, bench, generate
from .instance import load_instance
from .listsched import list_schedule_strict, lp_ls
from .lp import TAU_LP, solve_lp
from .util import decimal_str


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; the contract here is 1
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _fraction(text: str) -> Fraction:
    try:
        value = Fraction(text)
        float(value)  # OverflowError beyond the float range the solver computes in
    except (ValueError, ZeroDivisionError, OverflowError):
        raise argparse.ArgumentTypeError(f"not a rational number in float range: {text!r}")
    return value


def _load(path: str, normalize: bool = False):
    """load_instance; an unreadable file or malformed JSON exits 2."""
    try:
        return load_instance(path, normalize=normalize)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error reading input: {exc}", file=sys.stderr)
        raise SystemExit(2) from None


def _build_parser() -> _Parser:
    parser = _Parser(prog="prec-sched", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("validate", help="check an instance file for structural problems")
    p.add_argument("instance")
    p.add_argument("--output", choices=("json", "table"), default="json")

    p = sub.add_parser("lp", help="solve the completion-time relaxation")
    p.add_argument("instance")
    p.add_argument("--tol", type=float, default=TAU_LP)

    p = sub.add_parser("lpls", help="LP-ordered list scheduling, no guessing")
    p.add_argument("instance")
    p.add_argument("--ls-variant", choices=("available", "strict"), default="available")

    p = sub.add_parser("exact", help="exact optimum by subset dynamic program (small n)")
    p.add_argument("instance")
    p.add_argument("--cap", type=int, default=EXACT_CAP)

    p = sub.add_parser("bounded", help="guess-and-solve on a bounded instance")
    p.add_argument("instance")
    p.add_argument("--L", required=True, type=_fraction)
    p.add_argument("--beta", required=True, type=_fraction)
    p.add_argument("--epsilon", required=True, type=_fraction)
    p.add_argument("--mode", choices=MODES, default="exhaustive")
    p.add_argument("--budget", type=int)

    p = sub.add_parser("solve", help="full decompose-and-solve pipeline")
    p.add_argument("instance")
    p.add_argument("--epsilon", required=True, type=_fraction)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--seed", type=int, help="random offset from this seed")
    group.add_argument("--derandomize", action="store_true", help="best over all offsets (default)")
    p.add_argument("--bounded-mode", choices=MODES, default="exhaustive")
    p.add_argument("--budget", type=int)

    p = sub.add_parser("bench", help="ratio benchmark over generated instances")
    p.add_argument("--family", action="append", choices=FAMILIES, default=None)
    p.add_argument("--n", type=int, default=6)
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--epsilon", action="append", type=_fraction, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", choices=("json", "table"), default="json")

    p = sub.add_parser("gen", help="emit a generated instance as JSON")
    p.add_argument("--family", choices=FAMILIES, default="uniform")
    p.add_argument("--n", type=int, default=6)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--p-max", type=int, default=8)
    p.add_argument("--r-max", type=int, default=16)
    p.add_argument("--w-max", type=int, default=6)
    p.add_argument("--density", type=float, default=0.3)
    p.add_argument("--M", type=int, default=10, help="size parameter of the two-job family")
    return parser


def _emit(doc) -> None:
    print(json.dumps(doc, indent=2))


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        code = _dispatch(args)
        sys.stdout.flush()
        return code
    except (ValidationError, InfeasibleScheduleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # _load handles reads, so a write to stdout failed
        print(f"error writing output: {exc}", file=sys.stderr)
        with contextlib.suppress(AttributeError, OSError, ValueError):
            fd = sys.stdout.fileno()  # so that the flush at exit does not fail again
            os.dup2(os.open(os.devnull, os.O_WRONLY), fd)
        return 1
    except (InvariantViolationError, LpIterationLimitError) as exc:
        print(f"internal invariant broken: {exc}", file=sys.stderr)
        return 3
    except (ValueError, SchedulingError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _dispatch(args) -> int:
    cmd = args.command
    if cmd == "validate":
        # report structural findings instead of bailing on the first one
        try:
            _load(args.instance)
            findings = []
        except ValidationError as exc:
            findings = list(exc.findings)
        if args.output == "table":
            print("ok" if not findings else "\n".join(findings))
        else:
            _emit({"ok": not findings, "findings": findings})
        return 0 if not findings else 2

    if cmd == "gen":
        config = GeneratorConfig(
            n=args.n,
            seed=args.seed,
            p_max=args.p_max,
            r_max=args.r_max,
            w_max=args.w_max,
            prec_density=args.density,
            family=args.family,
            m=args.M,
        )
        _emit(generate(config).to_dict())
        return 0

    inst = None if cmd == "bench" else _load(args.instance, normalize=True)

    if cmd == "lp":
        sol = solve_lp(inst, tau=args.tol)
        _emit(
            {
                "C": [decimal_str(c) for c in sol.completion],
                "Z": decimal_str(sol.value),
                "cuts": [list(cut.jobs) for cut in sol.cuts],
            }
        )
        return 0

    if cmd == "lpls":
        run = lp_ls(inst)
        sched = run.schedule
        if args.ls_variant == "strict":
            sched = list_schedule_strict(inst, run.order)
        doc = sched.to_dict(inst)
        doc["lp_Z"] = decimal_str(run.lp.value)
        doc["order"] = list(run.order)
        _emit(doc)
        return 0

    if cmd == "exact":
        opt, sched = exact_opt(inst, args.cap)
        _emit({"opt": decimal_str(opt), "schedule": sched.to_dict(inst)})
        return 0

    if cmd == "bounded":
        res = solve_bounded(
            inst, args.epsilon, L=args.L, beta=args.beta, mode=args.mode, budget=args.budget
        )
        doc = res.schedule.to_dict(inst)
        doc["guesses_tried"] = res.guesses_tried
        doc["best_guess"] = res.best_guess.to_dict()
        _emit(doc)
        return 0

    if cmd == "solve":
        mode = "random" if args.seed is not None else "derandomized"
        res = decompose_and_solve(
            inst,
            args.epsilon,
            mode=mode,
            seed=args.seed,
            bounded_mode=args.bounded_mode,
            budget=args.budget,
        )
        _emit(res.to_dict(inst))
        return 0

    if cmd == "bench":
        families = args.family or ["uniform", "p_le_r"]
        epsilons = args.epsilon or [Fraction(1)]
        configs = [
            GeneratorConfig(n=args.n, seed=args.seed, family=fam) for fam in families
        ]
        report = bench(configs, epsilons, args.trials)
        if args.output == "table":
            for row in report["rows"]:
                print("  ".join(f"{k}={v}" for k, v in row.items()))
            for v in report["violations"]:
                print(f"VIOLATED: {v}")
        else:
            _emit(report)
        return 3 if report["violations"] else 0

    raise AssertionError(f"unhandled command {cmd}")


if __name__ == "__main__":
    sys.exit(main())
