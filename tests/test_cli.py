"""Command-line interface: output shapes and the exit-code contract
(0 success, 1 usage, 2 bad input, 3 broken invariant)."""

from __future__ import annotations

import errno
import json
import sys

import pytest

import prec_sched.cli
from prec_sched.cli import main
from prec_sched.errors import InvariantViolationError
from prec_sched.instance import MAX_HORIZON, MAX_WEIGHT

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


class TestBounded:
    def test_single_job_guess(self, capsys, tmp_path):
        path = write_doc(tmp_path, {"jobs": [{"p": 8, "r": 6, "w": 2}], "prec": []})
        code, out, _ = run(
            capsys, "bounded", path, "--L", "6", "--beta", "21", "--epsilon", "1/4"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["start"] == ["6.0"]
        assert doc["cost"] == "28.0"
        assert doc["guesses_tried"] == 2
        assert doc["best_guess"] == {"jobs": [0], "starts": ["6"]}

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

    def test_seed_conflicts_with_derandomize(self, capsys, reference_path):
        code, _, err = run(
            capsys,
            "solve", reference_path, "--epsilon", "1", "--seed", "5", "--derandomize",
        )
        assert code == 1
        assert "not allowed with" in err

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
