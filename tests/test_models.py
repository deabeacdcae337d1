import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mpgraph.models import DEFAULT_LENGTHS, GENERATORS, LGSSM_ANGLE, rotation, sample_probit_ssm


def test_drawing_every_generative_spec_leaves_scipy_stats_unimported():
    # scipy.stats takes most of a second to import; no data set needs it
    code = (
        "import sys\n"
        "import mpgraph\n"
        "from mpgraph.models import GENERATORS, sample_generative\n"
        "for spec in GENERATORS:\n"
        "    sample_generative(spec, 3, T=12)\n"
        "print('scipy.stats' in sys.modules)\n"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (str(src), os.environ.get("PYTHONPATH", "")) if p))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=False)
    assert out.returncode == 0, out.stderr[-3000:]
    assert out.stdout.strip() == "False"


def reference_probit_ssm(seed: int, T: int):
    """``sample_probit_ssm`` with the success probability from
    ``scipy.stats.norm.cdf``."""
    from scipy.stats import norm

    rng = np.random.default_rng(seed)
    a = rotation(LGSSM_ANGLE)
    w_true = 50.0
    x = np.array([1.0, 0.0])
    xs, ys = [], []
    for _ in range(T):
        x = a @ x + rng.multivariate_normal(np.zeros(2), np.eye(2) / w_true)
        p = norm.cdf(x[0])
        ys.append(1.0 if rng.uniform() < p else -1.0)
        xs.append(x.copy())
    return {"y": np.asarray(ys)}, {"x": np.asarray(xs), "W": w_true, "seed": seed}


@pytest.mark.parametrize("seed", [0, 1, 7, 2**31 + 5])
def test_probit_data_equal_the_scipy_stats_reference_bit_for_bit(seed):
    T = DEFAULT_LENGTHS["probit-ssm"]
    data, truth = sample_probit_ssm(seed, T)
    want_data, want_truth = reference_probit_ssm(seed, T)
    assert data["y"].tobytes() == want_data["y"].tobytes()
    assert truth["x"].tobytes() == want_truth["x"].tobytes()
    assert (truth["W"], truth["seed"]) == (want_truth["W"], want_truth["seed"])
    assert GENERATORS["probit-ssm"] is sample_probit_ssm
