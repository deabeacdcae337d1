"""Run the benchmark over several seeds and record the baseline.

    python3 bench/baseline.py --seeds 1-10 --traced-seeds 1-2 --out bench/baseline.json

Runs ``bench/run.py`` once per workload and seed (``--trace 0``), and once
per workload and traced seed (``--trace 1``), one run at a time. For every
metric it records the values, their median and quartiles, and the spread
(distance between the quartiles over the median); for every op it records
the dataset seed, final free energy and iteration count. It also records the
Python, numpy and scipy versions and the processor count, and prints each
end-to-end spread next to its bound from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
HELD_OUT_SEED = 4242  # never used while tuning; later claims are checked on it too


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, list]:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True).stdout
    lines = out.strip().splitlines()
    ops = [json.loads(line[3:]) for line in lines if line.startswith("op ")]
    return json.loads(lines[-1]), ops


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(med) if med else 0.0, "values": values}


def versions() -> dict:
    import numpy
    import scipy

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(), "machine": platform.machine()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--traced-seeds", default="1-2")
    parser.add_argument("--out", help="write the baseline JSON here")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    record = {"environment": versions(), "held_out_seed": HELD_OUT_SEED,
              "run_seconds": spec["run_seconds"], "seeds": seed_range(args.seeds),
              "traced_seeds": seed_range(args.traced_seeds), "workloads": {}}
    for workload in names:
        entry = {"end_to_end": {}, "per_layer": {}, "ops": [], "attempted": 0, "failed": 0}
        for trace, seeds, key in ((0, record["seeds"], "end_to_end"),
                                  (1, record["traced_seeds"], "per_layer")):
            values: dict[str, list] = {}
            for seed in seeds:
                result, ops = run_once(workload, seed, spec["run_seconds"], trace)
                entry["attempted"] += result["attempted"]
                entry["failed"] += result["failed"]
                for name, metric in result["metrics"].items():
                    values.setdefault(name, []).append(metric["value"])
                if trace == 0:
                    entry["ops"] += [{"run_seed": seed, "dataset_seed": op["dataset_seed"],
                                      "final_F": op["final_F"], "iterations": op["iterations"]}
                                     for op in ops]
                units = {name: metric["unit"] for name, metric in result["metrics"].items()}
            entry[key] = {name: dict(summarize(v), unit=units[name]) for name, v in values.items()}
        record["workloads"][workload] = entry
        for name, stats in entry["end_to_end"].items():
            print(f"{workload:14s} {name:16s} median {stats['median']:.6g} {stats['unit']:5s} "
                  f"spread {stats['spread']:.4f} bound {bounds[name]}", flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
