"""Run the benchmark over several seeds and write one trajectory point.

Run from the root of a checkout:

    python3 perfbench/record.py --label seed --seeds 101-110

For every workload this runs `run.py --trace 0` once per seed, one run at a
time, and `run.py --trace 1` once on the default seed. It writes
perfbench/BENCH_<label>.json with each end-to-end metric's values, median,
quartiles and spread (quartile distance over the median, as
statistics.quantiles(values, n=4) gives them), the per-layer metrics of the
traced run, and the environment the runs printed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402


def one_run(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """The result line and the environment line of one run."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(
            f"{workload} seed {seed} trace {trace} exited {proc.returncode}:\n{proc.stdout}{proc.stderr}"
        )
    env = next(json.loads(line.split(" ", 1)[1]) for line in lines if line.startswith("environment "))
    return json.loads(lines[-1]), env


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("101-110"))
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--workloads", nargs="*", default=list(run.WORKLOADS))
    args = parser.parse_args(argv)

    doc = {"label": args.label, "seconds": args.seconds, "seeds": args.seeds,
           "default_seed": run.DEFAULT_SEED, "held_out_seed": run.HELD_OUT_SEED,
           "workloads": {}}
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            result, doc["environment"] = one_run(workload, seed, args.seconds, 0)
            runs.append(result)
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()), flush=True)
        traced, _ = one_run(workload, run.DEFAULT_SEED, args.seconds, 1)
        metrics = runs[0]["metrics"]
        row = {
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": {
                name: {"unit": metrics[name]["unit"],
                       **summary([r["metrics"][name]["value"] for r in runs])}
                for name in metrics
            },
            "per_layer": traced["metrics"],
        }
        doc["workloads"][workload] = row
        for name, s in row["end_to_end"].items():
            print(f"  {name:16s} median {s['median']:.5g} spread {s['spread']:.3f}", flush=True)
    out = HERE / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
