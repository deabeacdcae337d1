"""Tests of the benchmark itself (not of mpgraph):

    python3 -m pytest bench/test_bench.py -q

Smoke runs at tiny model sizes check that every metric named in
``BENCHMARK.json`` is emitted with its unit; the oracle test checks that a
one-ulp change to a final marginal is caught.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import worker  # noqa: E402,F401  (puts the mpgraph sources on sys.path)
import checks  # noqa: E402
import workloads  # noqa: E402
from mpgraph.distributions import from_json  # noqa: E402
from tracing import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


def run_bench(*args, cwd=ROOT):
    cmd = [sys.executable, str(Path(cwd) / "bench" / "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", NAMES)
def test_smoke_emits_every_metric_with_its_unit(workload, trace, section):
    proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "0.2",
                     "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == expected
    assert all(np.isfinite(m["value"]) for m in result["metrics"].values())
    if trace:
        shares = [v["value"] for k, v in result["metrics"].items() if k.startswith("share.")]
        assert sum(shares) == pytest.approx(1.0, rel=1e-6)


def _one_ulp_up(dist):
    """The same distribution with its first parameter moved by one ulp."""
    obj = dist.to_json()
    key = next(iter(obj["params"]))
    value = np.asarray(obj["params"][key], dtype=float)
    flat = value.reshape(-1)
    flat[0] = np.nextafter(flat[0], np.inf)
    obj["params"][key] = value.tolist()
    return from_json(obj)


def test_corrupted_marginal_trips_the_oracle():
    workload = workloads.make("chain-compile", smoke=True)
    tracer = Tracer()
    dataset = workload.setup(tracer, 11)[0]
    outcome = workload.op(worker.plain_ctx(tracer), dataset)
    rec = outcome.compiled[0]
    assert checks.oracle(rec) == []
    rec.result.marginals["w"] = _one_ulp_up(rec.result.marginals["w"])
    problems = checks.oracle(rec)
    assert problems and "final marginals differ" in problems[0]


def test_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", NAMES[0], "--seed", "1", "--seconds", "1", "--trace", "0",
                     cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
