"""The examples README.md shows: each CLI example's output and the library
quick start's printed values are what the package produces."""

from __future__ import annotations

import contextlib
import io
import json
import re
import shlex
from pathlib import Path

import pytest

from prec_sched.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
TWO = {"jobs": [{"p": 11, "r": 8, "w": 4}, {"p": 8, "r": 11, "w": 5}]}


def section(title):
    """The text of the README section headed `## title`."""
    return README.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def blocks(text, lang):
    """The bodies of the ```lang code blocks in `text`."""
    return re.findall(rf"```{lang}\n(.*?)```", text, re.S)


def cli_examples():
    """(argv, shown output) for each `$ prec-sched ...` line of the CLI
    section, the output being the lines up to the next prompt."""
    examples = []
    for block in blocks(section("CLI"), "sh"):
        for chunk in block.split("$ ")[1:]:
            command, _, shown = chunk.partition("\n")
            examples.append((shlex.split(command), shown.strip()))
    return examples


def loose_json(text):
    """A JSON object shown with `...` lines for the keys left out."""
    text = "\n".join(line for line in text.splitlines() if line.strip() != "...")
    return json.loads(re.sub(r",\s*}", "}", text))


def run_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


@pytest.fixture
def example_dir(tmp_path, monkeypatch):
    # the CLI section's instance is ref.json; two.json is the two-job
    # instance the bounded example runs on
    (tmp_path / "ref.json").write_text(blocks(section("CLI"), "json")[0])
    (tmp_path / "two.json").write_text(json.dumps(TWO))
    monkeypatch.chdir(tmp_path)
    return tmp_path


def test_every_cli_example_is_checked():
    commands = [argv[1] for argv, _ in cli_examples()]
    assert commands == ["lp", "exact", "solve", "bounded", "bench", "gen"]


@pytest.mark.parametrize(
    "argv, shown",
    [example for example in cli_examples() if "|" not in example[0]],
    ids=lambda v: v[1] if isinstance(v, list) else "",
)
def test_cli_example_output(example_dir, argv, shown):
    assert argv[0] == "prec-sched"
    code, out = run_cli(argv[1:])
    assert code == 0
    if "--output" in argv:
        # a table row whose tail the README elides
        prefix = shown.split("...", 1)[0]
        assert prefix and out.startswith(prefix)
    elif "..." in shown:
        expected = loose_json(shown)
        actual = json.loads(out)
        assert {key: actual[key] for key in expected} == expected
    else:
        assert json.loads(out) == json.loads(shown)


def test_gen_example_writes_an_instance(example_dir):
    (argv,) = [argv for argv, _ in cli_examples() if "|" in argv]
    assert argv[argv.index("|") + 1:] == ["tee", "chain.json"]
    code, out = run_cli(argv[1:argv.index("|")])
    assert code == 0
    (example_dir / "chain.json").write_text(out)
    code, out = run_cli(["validate", "chain.json"])
    assert code == 0 and json.loads(out) == {"ok": True, "findings": []}


def test_library_quick_start():
    (code,) = blocks(section("Library quick start"), "python")
    # each print line's comment starts with the value it prints
    shown = [
        line.split("#", 1)[1].split()[0].rstrip(",")
        for line in code.splitlines()
        if "print(" in line
    ]
    assert shown == ["110.0", "20.0", "20"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    assert out.getvalue().split() == shown
