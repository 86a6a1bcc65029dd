"""Command-line interface: output shapes and the exit-code contract
(0 success, 1 usage, 2 bad input, 3 broken invariant)."""

from __future__ import annotations

import contextlib
import errno
import hashlib
import io
import json
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import prec_sched.cli
from prec_sched.cli import main
from prec_sched.errors import InvariantViolationError
from prec_sched.exact import EXACT_MAX, exact_opt
from prec_sched.instance import (
    MAX_HORIZON,
    MAX_WEIGHT,
    Schedule,
    feasibility_violations,
    load_instance,
)
from .oracles import closure_by_squaring, transitive_reduction_ref

REFERENCE = {
    "jobs": [{"p": 1, "r": 1, "w": 10}, {"p": 10, "r": 0, "w": 0}],
    "prec": [],
}


def run(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_doc(tmp_path, doc, name="instance.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def reference_path(tmp_path):
    return write_doc(tmp_path, REFERENCE)


class TestGen:
    def test_reference_family(self, capsys):
        code, out, _ = run(capsys, "gen", "--family", "paper_example", "--M", "10")
        assert code == 0
        assert json.loads(out) == REFERENCE

    def test_deterministic(self, capsys):
        one = run(capsys, "gen", "--n", "5", "--seed", "3")
        two = run(capsys, "gen", "--n", "5", "--seed", "3")
        assert one == two

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("--family", "paper_example", "--M", "0"), "ranges must be positive"),
            (("--n", "5", "--p-max", "5000"), f"exceeds {MAX_HORIZON}"),
            (("--w-max", "2000000"), f"exceeds {MAX_WEIGHT}"),
        ],
    )
    def test_config_giving_an_invalid_instance_is_usage_error(self, capsys, argv, message):
        code, out, err = run(capsys, "gen", *argv)
        assert (code, out) == (1, "")
        assert message in err
        assert len(err.splitlines()) == 1

    def test_output_round_trips_through_validate(self, capsys, tmp_path):
        code, out, _ = run(capsys, "gen", "--n", "6", "--seed", "1", "--family", "chains")
        assert code == 0
        path = write_doc(tmp_path, json.loads(out))
        code, out, _ = run(capsys, "validate", path)
        assert code == 0
        assert json.loads(out) == {"ok": True, "findings": []}


class TestValidate:
    def test_ok_table_output(self, capsys, reference_path):
        code, out, _ = run(capsys, "validate", reference_path, "--output", "table")
        assert code == 0
        assert out.strip() == "ok"

    def test_structural_findings_reported(self, capsys, tmp_path):
        path = write_doc(tmp_path, {"jobs": [{"p": 0, "r": -1, "w": 1}], "prec": []})
        code, out, _ = run(capsys, "validate", path)
        assert code == 2
        doc = json.loads(out)
        assert doc["ok"] is False
        assert any("processing" in f for f in doc["findings"])
        assert any("release" in f for f in doc["findings"])

    def test_cycle_reported(self, capsys, tmp_path):
        doc = {
            "jobs": [{"p": 1, "r": 0, "w": 1}, {"p": 1, "r": 0, "w": 1}],
            "prec": [[0, 1], [1, 0]],
        }
        code, out, _ = run(capsys, "validate", write_doc(tmp_path, doc))
        assert code == 2
        assert any("cycle" in f for f in json.loads(out)["findings"])

    @pytest.mark.parametrize(
        "doc, findings",
        [
            (
                # the witness starts at the least job
                {
                    "jobs": [{"p": 1, "r": 0, "w": 1}] * 3 + [{"p": 0, "r": 0, "w": 1}],
                    "prec": [[0, 1], [1, 2], [2, 0], [2, 3]],
                },
                [
                    "job 3: processing time 0 < 1; remove or merge zero-length jobs before solving",
                    "precedence cycle: 0 -> 1 -> 2 -> 0",
                ],
            ),
            (
                {
                    "jobs": [{"p": 0, "r": -1, "w": 1}, {"p": 1, "r": 0, "w": 1}],
                    "prec": [[0, 1], [1, 0]],
                },
                [
                    "job 0: processing time 0 < 1; remove or merge zero-length jobs before solving",
                    "job 0: negative release time -1",
                    "precedence cycle: 0 -> 1 -> 0",
                ],
            ),
            (
                {"jobs": [{"p": 1, "r": 0, "w": 1}] * 3, "prec": [[0, 0], [1, 2]]},
                ["precedence pair (0, 0) is reflexive"],
            ),
        ],
        ids=["cycle-and-job", "cycle-and-fields", "reflexive"],
    )
    def test_cycle_reported_with_every_other_finding(self, capsys, tmp_path, doc, findings):
        # a cycle is found by validate, with every other finding, not while
        # the instance is built; solve stops on the same findings
        path = write_doc(tmp_path, doc)
        code, out, err = run(capsys, "validate", path)
        assert (code, err) == (2, "")
        assert out == json.dumps({"ok": False, "findings": findings}, indent=2) + "\n"
        error = f"error: {'; '.join(findings)}\n"
        assert run(capsys, "solve", path, "--epsilon", "1") == (2, "", error)


class TestLp:
    def test_reference_solution(self, capsys, reference_path):
        code, out, _ = run(capsys, "lp", reference_path)
        assert code == 0
        doc = json.loads(out)
        assert doc["C"] == ["1.5", "5.9"]
        assert doc["Z"] == "15.0"
        for cut in ([0], [1], [0, 1]):
            assert cut in doc["cuts"]

    def test_separation_choice_enforced(self, capsys, reference_path):
        # prefix separation is the only mode, so the CLI offers no choice
        code, _, err = run(capsys, "lp", reference_path, "--separation", "fast")
        assert code == 1
        assert "unrecognized arguments: --separation" in err

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
    def test_tolerance_must_be_finite_and_nonnegative(self, capsys, reference_path, tol):
        code, out, err = run(capsys, "lp", reference_path, "--tol", tol)
        assert code == 1
        assert out == ""
        assert "tau must be finite and at least 1e-09" in err

    @pytest.mark.parametrize("tol, code", [("0", 1), ("1e-12", 1), ("1e-9", 0)])
    def test_tolerance_below_inner_solver_rejected(self, capsys, tmp_path, tol, code):
        # tau = 0 used to end in a broken-invariant exit 3 on this instance
        _, doc, _ = run(
            capsys, "gen", "--family", "chains", "--n", "14", "--r-max", "56", "--seed", "1"
        )
        path = write_doc(tmp_path, json.loads(doc))
        got, out, err = run(capsys, "lp", path, "--tol", tol)
        assert got == code
        if code:
            assert out == ""
            assert "tau must be finite and at least 1e-09" in err
        else:
            assert json.loads(out)["Z"]


class TestLpLs:
    def test_available_variant_takes_the_trap(self, capsys, reference_path):
        code, out, _ = run(capsys, "lpls", reference_path)
        assert code == 0
        doc = json.loads(out)
        assert doc["start"] == ["10.0", "0.0"]
        assert doc["cost"] == "110.0"
        assert doc["order"] == [0, 1]
        assert doc["lp_Z"] == "15.0"

    def test_strict_variant_waits(self, capsys, reference_path):
        code, out, _ = run(capsys, "lpls", reference_path, "--ls-variant", "strict")
        assert code == 0
        doc = json.loads(out)
        assert doc["start"] == ["1.0", "2.0"]
        assert doc["cost"] == "20.0"


class TestExact:
    def test_reference_optimum(self, capsys, reference_path):
        code, out, _ = run(capsys, "exact", reference_path)
        assert code == 0
        doc = json.loads(out)
        assert doc["opt"] == "20.0"
        assert doc["schedule"]["start"] == ["1.0", "2.0"]

    def test_cap_violation_is_usage_error(self, capsys, reference_path):
        code, _, err = run(capsys, "exact", reference_path, "--cap", "1")
        assert code == 1
        assert "capped at n = 1" in err

    def test_negative_cap_is_usage_error(self, capsys, reference_path):
        code, out, err = run(capsys, "exact", reference_path, "--cap", "-1")
        assert (code, out) == (1, "")
        assert err == "error: exact solver cap must be at least 0, got -1\n"

    def test_above_the_ceiling_refused_whatever_the_cap(self, capsys, tmp_path):
        path = write_doc(tmp_path, {"jobs": [{"p": 1, "r": 0, "w": 1}] * 21, "prec": []})
        code, out, err = run(capsys, "exact", path, "--cap", "64")
        assert (code, out) == (1, "")
        assert err == f"error: exact solver is capped at n = {EXACT_MAX} (got 21)\n"


class TestBounded:
    @pytest.mark.parametrize(
        "mode, tried, guess",
        [
            ("exhaustive", 2, {"jobs": [], "starts": []}),
            ("typed", 2, {"types": [], "starts": []}),
            ("empty-guess", 1, {"jobs": [], "starts": []}),
        ],
        ids=["exhaustive", "typed", "empty-guess"],
    )
    def test_single_job_guess(self, capsys, tmp_path, mode, tried, guess):
        # bounded prints the tightened schedule: whatever the guess, the one
        # job moves to its release 6, so the empty guess, first, wins the tie
        path = write_doc(tmp_path, {"jobs": [{"p": 8, "r": 6, "w": 2}], "prec": []})
        code, out, _ = run(
            capsys, "bounded", path, "--L", "6", "--beta", "21", "--epsilon", "1/4",
            "--mode", mode,
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["start"] == ["6.0"]
        assert doc["cost"] == "28.0"
        assert doc["guesses_tried"] == tried
        assert doc["best_guess"] == guess

    @pytest.mark.parametrize(
        "mode, start, cost, tried, guess",
        [
            ("exhaustive", ["8.0", "19.0"], "211.0", 2, {"jobs": [0], "starts": ["33/4"]}),
            (
                "typed",
                ["8.0", "19.0"],
                "211.0",
                2,
                {"types": [11], "starts": ["146484375/16777216"]},
            ),
            ("empty-guess", ["19.0", "11.0"], "215.0", 1, {"jobs": [], "starts": []}),
        ],
        ids=["exhaustive", "typed", "empty-guess"],
    )
    def test_two_job_guess(self, capsys, tmp_path, mode, start, cost, tried, guess):
        # only a guessed early start keeps job 0 first, at the optimum 211
        jobs = [{"p": 11, "r": 8, "w": 4}, {"p": 8, "r": 11, "w": 5}]
        path = write_doc(tmp_path, {"jobs": jobs, "prec": []})
        code, out, _ = run(
            capsys, "bounded", path, "--L", "6", "--beta", "21", "--epsilon", "1/4",
            "--mode", mode,
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["start"] == start
        assert doc["cost"] == cost
        assert doc["guesses_tried"] == tried
        assert doc["best_guess"] == guess

    def test_missing_l_is_usage_error(self, capsys, reference_path):
        code, _, err = run(capsys, "bounded", reference_path, "--beta", "21", "--epsilon", "1")
        assert code == 1
        assert "--L" in err

    def test_nonpositive_epsilon_is_usage_error(self, capsys, tmp_path):
        # the empty guess never reads epsilon, so it used to exit 0
        path = write_doc(tmp_path, {"jobs": [{"p": 8, "r": 6, "w": 2}], "prec": []})
        code, out, err = run(
            capsys,
            "bounded", path,
            "--L", "6", "--beta", "21", "--epsilon", "0", "--mode", "empty-guess",
        )
        assert code == 1
        assert out == ""
        assert "epsilon must be positive" in err

    def test_unbounded_instance_rejected(self, capsys, reference_path):
        code, _, err = run(
            capsys, "bounded", reference_path, "--L", "6", "--beta", "21", "--epsilon", "1"
        )
        assert code == 2
        assert "not bounded" in err

    def test_budget_zero_is_an_error(self, capsys, tmp_path):
        path = write_doc(tmp_path, {"jobs": [{"p": 8, "r": 6, "w": 2}], "prec": []})
        code, _, err = run(
            capsys,
            "bounded", path,
            "--L", "6", "--beta", "21", "--epsilon", "1", "--budget", "0",
        )
        assert code == 1
        assert "guesses failed" in err

    def test_negative_budget_is_usage_error(self, capsys, tmp_path):
        # 12 jobs: without a budget, exhaustive mode rejects them by the job cap
        path = write_doc(tmp_path, {"jobs": [{"p": 1, "r": 2, "w": 1}] * 12, "prec": []})
        code, out, err = run(
            capsys,
            "bounded", path,
            "--L", "2", "--beta", "21", "--epsilon", "1", "--mode", "exhaustive",
            "--budget", "-1",
        )
        assert code == 1
        assert out == ""
        assert "guess budget must be nonnegative, got -1" in err

    def test_budget_past_sys_maxsize_runs_every_guess(self, capsys, tmp_path, reference_path):
        # a budget no stream reaches, even beyond the largest slice stop
        path = write_doc(tmp_path, {"jobs": [{"p": 8, "r": 6, "w": 2}], "prec": []}, "one.json")
        huge = ["--budget", str(10**20)]
        assert 10**20 > sys.maxsize
        for argv in (
            ["bounded", path, "--L", "6", "--beta", "21", "--epsilon", "1/4"],
            ["solve", reference_path, "--epsilon", "1/2"],
        ):
            full = run(capsys, *argv)
            assert full[0] == 0 and '"guesses_tried": 2' in full[1]
            assert run(capsys, *argv, *huge) == full

    @pytest.mark.parametrize("beta", ["0", "-2"])
    def test_nonpositive_beta_is_usage_error(self, capsys, tmp_path, beta):
        path = write_doc(tmp_path, {"jobs": [{"p": 8, "r": 6, "w": 2}], "prec": []})
        code, out, err = run(
            capsys, "bounded", path, "--L", "6", "--beta", beta, "--epsilon", "1"
        )
        assert code == 1
        assert out == ""
        assert "beta must be positive and finite" in err

    def test_epsilon_below_the_grid_floor_is_usage_error(self, capsys, tmp_path):
        # the empty guess builds no grid, so this stays quick even if the floor is missing
        path = write_doc(tmp_path, {"jobs": [{"p": 8, "r": 6, "w": 2}], "prec": []})
        for eps in ("1e-400", "1/128"):
            code, out, err = run(
                capsys,
                "bounded", path,
                "--L", "6", "--beta", "21", "--epsilon", eps, "--mode", "empty-guess",
            )
            assert code == 1
            assert out == ""
            assert "epsilon must exceed 0.0078125 (1/128)" in err


class TestSolve:
    def test_derandomized_reference(self, capsys, reference_path):
        code, out, _ = run(capsys, "solve", reference_path, "--epsilon", "1")
        assert code == 0
        doc = json.loads(out)
        assert set(doc) == {"start", "cost", "b", "t", "intervals"}
        assert doc["cost"] == "20.0"
        assert all(
            set(iv) == {"jobs", "cost", "floor", "guesses_tried"}
            for iv in doc["intervals"]
        )

    def test_seeded_random_offset(self, capsys, reference_path):
        one = run(capsys, "solve", reference_path, "--epsilon", "1", "--seed", "5")
        two = run(capsys, "solve", reference_path, "--epsilon", "1", "--seed", "5")
        assert one[0] == 0
        assert one == two

    def test_derandomize_flag_is_usage_error(self, capsys, reference_path):
        # derandomized offsets are the default; there is no flag to ask for them
        code, out, err = run(capsys, "solve", reference_path, "--epsilon", "1", "--derandomize")
        assert (code, out) == (1, "")
        assert "unrecognized arguments: --derandomize" in err

    def test_epsilon_out_of_range(self, capsys, reference_path):
        for bad in ("4", "0"):
            code, _, err = run(capsys, "solve", reference_path, "--epsilon", bad)
            assert code == 1
            assert "epsilon must lie" in err

    def test_negative_budget_is_usage_error(self, capsys, reference_path):
        code, out, err = run(
            capsys, "solve", reference_path, "--epsilon", "1", "--budget", "-1"
        )
        assert code == 1
        assert out == ""
        assert "guess budget must be nonnegative, got -1" in err

    def test_epsilon_must_be_rational(self, capsys, reference_path):
        code, _, err = run(capsys, "solve", reference_path, "--epsilon", "tiny")
        assert code == 1
        assert "not a rational number" in err


class TestBench:
    def test_small_run_json(self, capsys):
        code, out, _ = run(
            capsys,
            "bench", "--family", "uniform", "--n", "3", "--trials", "2",
            "--epsilon", "1", "--seed", "0",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["violations"] == []
        assert len(doc["rows"]) == 1
        assert doc["rows"][0]["family"] == "uniform"

    def test_table_output(self, capsys):
        code, out, _ = run(
            capsys,
            "bench", "--family", "p_le_r", "--n", "3", "--trials", "1",
            "--epsilon", "1", "--output", "table",
        )
        assert code == 0
        assert "family=p_le_r" in out
        assert "max_ratio_lpls_lp" in out

    @pytest.mark.parametrize(
        ("argv", "expected"),
        [
            (
                ("--n", "8", "--trials", "4", "--seed", "3"),
                "c0b597f2bfb031fea847e0c894e81dc1e600eeeba3ccd412124c63fdf2cd573a",
            ),
            (
                ("--family", "p_le_r", "--family", "chains", "--n", "12",
                 "--trials", "2", "--epsilon", "1/2", "--seed", "5"),
                "2c981ee07a7730dc5c8e96327c22deae9179f26da24fcd97a845a6ed7533bff9",
            ),
        ],
        ids=["exhaustive-with-oracle", "typed-without-oracle"],
    )
    def test_output_bytes_are_pinned(self, capsys, argv, expected):
        # n = 8 solves blocks exhaustively and runs the exact oracle;
        # n = 12 lies above ORACLE_N and N_GUESS, so blocks are typed
        code, out, _ = run(capsys, "bench", *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == expected

    def test_negative_trials_is_usage_error(self, capsys):
        code, out, err = run(capsys, "bench", "--trials", "-1")
        assert (code, out) == (1, "")
        assert err == "error: trials must be >= 0, got -1\n"

    def test_instances_above_the_guess_cap_run(self, capsys):
        # exhaustive guessing is capped at N_GUESS = 10 jobs; larger
        # instances are solved in typed mode
        code, out, _ = run(capsys, "bench", "--n", "14", "--trials", "1")
        assert code == 0
        assert json.loads(out)["violations"] == []


class _FailingStdout:
    """A stdout whose every write fails with `exc`."""

    def __init__(self, exc):
        self.exc = exc

    def write(self, text):
        raise self.exc

    def flush(self):
        pass


class TestExitCodes:
    @pytest.mark.parametrize(
        "exc", [BrokenPipeError(errno.EPIPE, "Broken pipe"), OSError(errno.ENOSPC, "No space")]
    )
    @pytest.mark.parametrize("command", [["gen", "--n", "6"], ["solve", None, "--epsilon", "1"]])
    def test_failed_write_is_an_output_error(
        self, capsys, monkeypatch, reference_path, exc, command
    ):
        argv = [reference_path if arg is None else arg for arg in command]
        monkeypatch.setattr(sys, "stdout", _FailingStdout(exc))
        code, _, err = run(capsys, *argv)
        assert code == 1
        assert err.startswith("error writing output: ") and err.count("\n") == 1
        assert exc.strerror in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["lp", None],
            ["lpls", None],
            ["exact", None],
            ["bounded", None, "--L", "6", "--beta", "21", "--epsilon", "1"],
            ["solve", None, "--epsilon", "1"],
            ["gen"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_output_flag_only_where_it_does_something(self, capsys, tmp_path, argv):
        path = write_doc(tmp_path, {"jobs": [{"p": 8, "r": 6, "w": 2}]})
        argv = [path if arg is None else arg for arg in argv]
        code, out, _ = run(capsys, *argv)
        assert code == 0
        code, out, err = run(capsys, *argv, "--output", "table")
        assert code == 1
        assert out == ""
        assert "unrecognized arguments: --output table" in err

    @pytest.mark.parametrize("L", ["0", "-5"])
    def test_nonpositive_L_is_usage_error(self, capsys, tmp_path, L):
        path = write_doc(tmp_path, {"jobs": [{"p": 1, "r": 1, "w": 1}]})
        code, out, err = run(
            capsys, "bounded", path, "--L", L, "--beta", "21", "--epsilon", "1", "--mode", "typed"
        )
        assert code == 1
        assert out == ""
        assert f"error: L must be positive and finite, got {L}" in err

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["solve", None, "--epsilon", "1e400"], "--epsilon"),
            (["bench", "--epsilon", "1e400", "--trials", "1"], "--epsilon"),
            (["bounded", None, "--L", "1e400", "--beta", "21", "--epsilon", "1"], "--L"),
            (["bounded", None, "--L", "6", "--beta", "1e400", "--epsilon", "1"], "--beta"),
        ],
    )
    def test_rational_beyond_float_range_is_usage_error(
        self, capsys, reference_path, argv, flag
    ):
        code, out, err = run(capsys, *[reference_path if a is None else a for a in argv])
        assert code == 1
        assert out == ""
        assert f"argument {flag}: not a rational number in float range: '1e400'" in err
        assert "Traceback" not in err

    def test_no_arguments_is_usage(self, capsys):
        code, _, err = run(capsys)
        assert code == 1

    def test_unknown_command_is_usage(self, capsys):
        code, _, _ = run(capsys, "optimize")
        assert code == 1

    def test_missing_file_is_input_error(self, capsys):
        code, _, err = run(capsys, "lp", "/nonexistent/instance.json")
        assert code == 2
        assert "error reading input" in err

    def test_malformed_json_is_input_error(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _, err = run(capsys, "lp", str(path))
        assert code == 2
        assert "error reading input" in err

    @pytest.mark.parametrize(
        "content",
        [
            b"\xff\xfe{}",
            # past Python's 4,300-digit limit on parsing an integer, where it has one
            b'{"jobs": [{"p": 1' + b"0" * 5000 + b', "r": 0, "w": 1}]}',
        ],
    )
    def test_unreadable_document_is_one_line_input_error(self, capsys, tmp_path, content):
        path = tmp_path / "instance.json"
        path.write_bytes(content)
        code, out, err = run(capsys, "solve", str(path), "--epsilon", "1")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_deeply_nested_document_is_a_finding(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text('{"jobs": ' + "[" * 10**5 + "]" * 10**5 + "}")
        code, out, err = run(capsys, "validate", str(path))
        assert code == 2
        (finding,) = json.loads(out)["findings"]
        assert finding.startswith("unreadable instance: maximum recursion depth exceeded")
        code, out, err = run(capsys, "solve", str(path), "--epsilon", "1")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_too_small_epsilon_is_one_line_usage_error(self, capsys, reference_path):
        code, out, err = run(
            capsys, "solve", reference_path, "--epsilon", "1/150", "--bounded-mode", "empty-guess"
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "epsilon must exceed 0.00" in err

    def test_cyclic_instance_is_input_error(self, capsys, tmp_path):
        doc = {
            "jobs": [{"p": 1, "r": 0, "w": 1}, {"p": 1, "r": 0, "w": 1}],
            "prec": [[0, 1], [1, 0]],
        }
        code, _, err = run(capsys, "lp", write_doc(tmp_path, doc))
        assert code == 2
        assert "cycle" in err

    def test_invariant_violation_exits_three(self, capsys, reference_path, monkeypatch):
        def explode(*args, **kwargs):
            raise InvariantViolationError("block 2 escaped its interval")

        monkeypatch.setattr(prec_sched.cli, "decompose_and_solve", explode)
        code, _, err = run(capsys, "solve", reference_path, "--epsilon", "1")
        assert code == 3
        assert "internal invariant broken" in err

    @pytest.mark.parametrize(
        "doc, message",
        [
            ([REFERENCE], "must be a JSON object"),
            ({"jobs": [{"p": 1, "r": 0, "w": 1}], "prec": [[0]]}, "pair of integer job ids"),
            (
                {"jobs": [{"p": 1, "r": 0, "w": 1}] * 2, "prec": [["a", "b"]]},
                "pair of integer job ids",
            ),
            ({"prec": []}, "no 'jobs' array"),
            ({"jobs": {"p": 1, "r": 0, "w": 1}}, "'jobs' must be an array"),
        ],
    )
    def test_malformed_document_is_one_line_input_error(self, capsys, tmp_path, doc, message):
        code, out, err = run(capsys, "solve", write_doc(tmp_path, doc), "--epsilon", "1")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err


class TestMagnitudes:
    def test_instance_at_the_bound_solves(self, capsys, tmp_path):
        # horizon max r + sum p is exactly MAX_HORIZON, weight MAX_WEIGHT
        doc = {
            "jobs": [
                {"p": 2000, "r": 4000, "w": MAX_WEIGHT},
                {"p": 1, "r": 0, "w": 1},
                {"p": 3999, "r": 10, "w": 7},
            ],
            "prec": [[1, 2]],
        }
        assert max(j["r"] for j in doc["jobs"]) + sum(j["p"] for j in doc["jobs"]) == MAX_HORIZON
        code, out, err = run(capsys, "solve", write_doc(tmp_path, doc), "--epsilon", "1")
        assert code == 0, err
        assert len(json.loads(out)["start"]) == 3

    @pytest.mark.parametrize(
        "job, message",
        [
            ({"p": 10**12, "r": 0, "w": 1}, "horizon"),
            ({"p": 1, "r": MAX_HORIZON, "w": 1}, "horizon"),
            ({"p": 1, "r": 0, "w": MAX_WEIGHT + 1}, "weight"),
            # beyond the float range, so validation must not convert them to float
            ({"p": 10**400, "r": 0, "w": 1}, "horizon"),
            ({"p": 1, "r": 10**400, "w": 1}, "horizon"),
            ({"p": 1, "r": -(10**400), "w": 1}, "negative release"),
        ],
    )
    def test_beyond_the_bound_is_input_error(self, capsys, tmp_path, job, message):
        code, _, err = run(capsys, "solve", write_doc(tmp_path, {"jobs": [job]}), "--epsilon", "1")
        assert code == 2
        assert message in err and err.count("\n") == 1

    @settings(max_examples=50, deadline=None)
    @given(data=st.data(), n=st.integers(2, 7))
    def test_pipeline_holds_its_guarantee_up_to_the_bounds(self, tmp_path_factory, data, n):
        """Horizons up to MAX_HORIZON, weights 0, 1, MAX_WEIGHT or any, a
        random DAG: each solve is feasible, within 2(1+eps)^2 of the exact
        optimum, and prints the same bytes twice."""
        horizon = data.draw(st.one_of(st.just(MAX_HORIZON), st.integers(n, MAX_HORIZON)))
        p = data.draw(st.lists(st.integers(1, horizon // n), min_size=n, max_size=n))
        r = data.draw(st.lists(st.integers(0, horizon - sum(p)), min_size=n, max_size=n))
        weight = st.one_of(st.sampled_from([0, 1, MAX_WEIGHT]), st.integers(0, MAX_WEIGHT))
        w = data.draw(st.lists(weight, min_size=n, max_size=n))
        order = data.draw(st.permutations(range(n)))
        prec = [
            [order[i], order[k]]
            for i in range(n)
            for k in range(i + 1, n)
            if data.draw(st.booleans())
        ]
        doc = {"jobs": [{"p": pj, "r": rj, "w": wj} for pj, rj, wj in zip(p, r, w)], "prec": prec}
        path = tmp_path_factory.getbasetemp() / "magnitudes.json"
        path.write_text(json.dumps(doc))
        instance = load_instance(str(path))
        opt, _ = exact_opt(instance)
        for eps, mode in ((1, "typed"), (0.5, "exhaustive"), (1, "empty-guess")):
            argv = ["solve", str(path), "--epsilon", str(eps), "--bounded-mode", mode]
            outs = []
            for _ in range(2):
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    assert main(argv) == 0
                outs.append(out.getvalue())
            assert outs[0] == outs[1]
            result = json.loads(outs[0])
            schedule = Schedule(tuple(float(s) for s in result["start"]))
            assert feasibility_violations(schedule, instance) == []
            assert float(result["cost"]) <= 2 * (1 + eps) ** 2 * opt * (1 + 1e-9), (mode, eps)


class TestPrecedenceForms:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), n=st.integers(1, 8))
    def test_one_order_written_three_ways(self, tmp_path_factory, data, n):
        """A DAG on shuffled ids, written as drawn, as its cover and as its
        closure, each pair list shuffled: all three load as one instance,
        which stores the cover, and solve to the same bytes."""
        job = st.fixed_dictionaries(
            {"p": st.integers(1, 6), "r": st.integers(0, 8), "w": st.integers(0, 5)}
        )
        jobs = data.draw(st.lists(job, min_size=n, max_size=n))
        order = data.draw(st.permutations(range(n)))
        drawn = {
            (order[i], order[k])
            for i in range(n)
            for k in range(i + 1, n)
            if data.draw(st.booleans())
        }
        closed = closure_by_squaring(drawn, n)
        cover = transitive_reduction_ref(closed, n)
        path = tmp_path_factory.getbasetemp() / "forms.json"
        instances, outs = [], []
        for pairs in (drawn, cover, closed):
            prec = data.draw(st.permutations(sorted(pairs)))
            path.write_text(json.dumps({"jobs": jobs, "prec": [list(e) for e in prec]}))
            instances.append(load_instance(str(path)))
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert main(["solve", str(path), "--epsilon", "1"]) == 0
            outs.append(out.getvalue())
        assert instances[0] == instances[1] == instances[2]
        assert instances[0].prec == frozenset(cover)
        assert outs[0] == outs[1] == outs[2]


# JSON values of every kind, and integers at and beyond the magnitude bounds
_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 12),
    st.sampled_from([MAX_HORIZON, MAX_WEIGHT + 1, 10**400, -(10**400)]),
    st.floats(allow_nan=False),
    st.text(st.characters(max_codepoint=0xFF), max_size=3),
)
_JOBS = st.one_of(
    _SCALARS,
    st.lists(
        st.one_of(
            st.fixed_dictionaries({}, optional={"p": _SCALARS, "r": _SCALARS, "w": _SCALARS}),
            _SCALARS,
        ),
        max_size=5,
    ),
)
_PREC = st.one_of(
    _SCALARS,
    st.lists(st.one_of(st.lists(st.integers(-1, 5), max_size=3), _SCALARS), max_size=6),
)
# well-shaped documents, whose pairs may still be out of range or cyclic
_WELL_SHAPED = st.fixed_dictionaries(
    {
        "jobs": st.lists(
            st.fixed_dictionaries(
                {"p": st.integers(1, 6), "r": st.integers(0, 8), "w": st.integers(0, 5)}
            ),
            max_size=5,
        )
    },
    optional={"prec": st.lists(st.lists(st.integers(0, 4), min_size=2, max_size=2), max_size=6)},
)
_DOCUMENTS = st.one_of(
    _SCALARS,
    st.lists(_SCALARS, max_size=3),
    st.fixed_dictionaries({}, optional={"jobs": _JOBS, "prec": _PREC}),
    _WELL_SHAPED,
)


class TestExitContract:
    @settings(max_examples=200, deadline=None)
    @given(doc=_DOCUMENTS)
    def test_any_document_exits_zero_or_two(self, tmp_path_factory, doc):
        """Whatever its shape, a document is solved (0) or refused as bad
        input (2), on one stderr line except by validate, which prints its
        findings; no exception escapes main."""
        path = tmp_path_factory.getbasetemp() / "exit-contract.json"
        path.write_text(json.dumps(doc))
        for argv in (["validate"], ["lp"], ["lpls"], ["exact"], ["solve", "--epsilon", "1"]):
            argv.insert(1, str(path))
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = main(argv)
                except SystemExit as exc:  # an unreadable file exits from the loader
                    code = exc.code
            assert code in (0, 2), (argv[0], code, err.getvalue())
            if code == 2 and argv[0] != "validate":
                assert err.getvalue().count("\n") == 1, err.getvalue()
