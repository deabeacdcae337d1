"""mpgraph benchmark.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Runs one workload in a fresh worker process for ``--seconds`` seconds of
measured ops and prints one JSON object as the last line of standard output:
``{"correct", "attempted", "failed", "metrics"}``. ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer metrics of a traced run (its
spans are written to ``.bench_out/``). ``--smoke`` runs tiny model sizes.
See ``bench/NOTES.md`` for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "worker.py"
OUT = ROOT / ".bench_out"
WORKLOADS = ("chain-compile", "probit-ep", "hmgm-mixture", "co2-stream")
SETUP_SAMPLES = 3  # set-up is timed in this many fresh processes
ENV = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")


def start_worker(args, *extra) -> tuple[subprocess.Popen, float]:
    """Start a worker and wait for its ``ready`` line; returns the process and
    its set-up time from process start, in reference seconds."""
    cmd = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), *extra]
    if args.smoke:
        cmd.append("--smoke")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=ENV, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline().split()
    wall = time.perf_counter() - t0
    if len(line) != 3 or line[0] != "ready":
        proc.stdout.close()
        proc.wait()
        raise SystemExit(f"worker did not finish set-up (exit code {proc.returncode})")
    handler_s, speed = float(line[1]), float(line[2])
    return proc, (wall - handler_s) * speed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny model sizes")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "mpgraph" / "__init__.py").is_file():
        print(f"no mpgraph sources under {ROOT / 'src'}", file=sys.stderr)
        return 1

    setups = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            proc, seconds = start_worker(args, "--setup-only")
            proc.stdout.read()
            proc.stdout.close()
            if proc.wait() != 0:
                raise SystemExit("set-up probe failed")
            setups.append(seconds)

    extra = []
    if args.trace:
        extra = ["--spans", str(OUT / f"spans-{args.workload}-seed{args.seed}.npz")]
    proc, seconds = start_worker(args, *extra)
    setups.append(seconds)
    last = None  # the worker's result line; every line before it is passed on
    for line in proc.stdout:
        if last is not None:
            print(last, end="", flush=True)
        last = line
    proc.stdout.close()
    if proc.wait() != 0 or last is None:
        print(f"worker exited with code {proc.returncode}", file=sys.stderr)
        return 1
    result = json.loads(last)
    if not args.trace:
        result["metrics"]["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
        result["metrics"] = dict(sorted(result["metrics"].items()))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
