"""Golden outputs: CLI results on a fixed generated corpus stay byte-identical.

`tests/data/golden.json` holds, for each of the 20 instances `gen --n 9`
(families uniform, p_le_r, chains and antichain; seeds 1-5), the sha256
of the canonical JSON and the cost string of seven outputs: `solve` at
eps 1 typed, 1/2 exhaustive, 1/3 typed and 1/4 exhaustive, `solve` at
eps 1 typed on the one random offset of seed 3, `lp` and `lpls`.
Canonical JSON is the CLI's document re-dumped with sorted keys and no
whitespace.

A refactor that claims unchanged behaviour must leave this file alone. A
change that moves an output on purpose regenerates it with

    PYTHONPATH=src python -m tests.test_golden

and lists every moved output in its change notes. Before it writes the
file, that command prints one line per moved output: its key, the old
and new cost, and whether the sha256 changed.
"""

from __future__ import annotations

import hashlib
import io
import json
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from prec_sched.cli import main

GOLDEN = Path(__file__).parent / "data" / "golden.json"
FAMILIES = ("uniform", "p_le_r", "chains", "antichain")
SEEDS = range(1, 6)
RUNS = {
    "solve-1-typed": ("solve", "--epsilon", "1", "--bounded-mode", "typed"),
    "solve-1/2-exhaustive": ("solve", "--epsilon", "1/2", "--bounded-mode", "exhaustive"),
    "solve-1/3-typed": ("solve", "--epsilon", "1/3", "--bounded-mode", "typed"),
    "solve-1/4-exhaustive": ("solve", "--epsilon", "1/4", "--bounded-mode", "exhaustive"),
    "solve-1-typed-seed3": ("solve", "--epsilon", "1", "--bounded-mode", "typed", "--seed", "3"),
    "lp": ("lp",),
    "lpls": ("lpls",),
}


def _cli(*argv) -> dict:
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(list(argv))
    assert code == 0, argv
    return json.loads(out.getvalue())


def outputs(family: str, seed: int, directory: Path) -> dict:
    """Digest and cost string of every golden run on one generated instance."""
    path = directory / f"{family}-{seed}.json"
    path.write_text(json.dumps(_cli("gen", "--family", family, "--n", "9", "--seed", str(seed))))
    found = {}
    for name, argv in RUNS.items():
        doc = _cli(argv[0], str(path), *argv[1:])
        canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        found[name] = {
            "sha256": hashlib.sha256(canonical.encode()).hexdigest(),
            "cost": doc["Z"] if name == "lp" else doc["cost"],
        }
    return found


def moves(old: dict, new: dict) -> list[str]:
    """One line per output whose golden entry differs between two tables."""
    lines = []
    for key in sorted(new):
        for name, entry in new[key].items():
            was = old.get(key, {}).get(name)
            if was != entry:
                cost = was["cost"] if was else "absent"
                same = was is not None and was["sha256"] == entry["sha256"]
                sha = "sha256 same" if same else "sha256 changed"
                lines.append(f"{key}/{name}: cost {cost} -> {entry['cost']}, {sha}")
    return lines


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("seed", SEEDS)
def test_outputs_match_golden(family, seed, tmp_path):
    golden = json.loads(GOLDEN.read_text())
    assert outputs(family, seed, tmp_path) == golden[f"{family}-{seed}"]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        table = {
            f"{family}-{seed}": outputs(family, seed, Path(tmp))
            for family in FAMILIES
            for seed in SEEDS
        }
    old = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    for line in moves(old, table):
        print(line)
    GOLDEN.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
