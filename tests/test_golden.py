"""Golden outputs: byte-for-byte ``render_schedules`` and ``render`` listings
for eight models, from the library and from ``mpgraph compile``, and the free
energy trace (one ``repr`` per iteration) of three inference runs.

The files under ``tests/golden/`` are the contract. Regenerate them only for
an intended listing change, and the free-energy traces only for an intended
numerical change:

    PYTHONPATH=src python tests/test_golden.py             # listings only
    PYTHONPATH=src python tests/test_golden.py --traces    # listings and traces
"""

import sys
from pathlib import Path

import pytest

from mpgraph.cli import main
from mpgraph.codegen import Instruction, compile_program, parse_listing, render, render_schedules
from mpgraph.dsl import parse_model
from mpgraph.engine import run_inference
from mpgraph.models import (
    Co2Model,
    HmgmModel,
    LgssmModel,
    ProbitSsmModel,
    RandomWalkModel,
    sample_generative,
)
from mpgraph.scheduler import (
    default_factorization,
    schedule_free_energy,
    schedule_sum_product,
    schedule_vmp,
)
from test_cli import RW_MODEL
from test_scheduler import four_factor_graph

GOLDEN = Path(__file__).resolve().parent / "golden"

# The README random walk with constant shifts on both mean sides: a chain link
# with two leaves and an offset, and an observation with an offset.
OFFSET_WALK_MODEL = """
x[0] ~ GaussianMeanVariance(0.0, 1e12)
d ~ GaussianMeanVariance(0.0, 1e12)
w ~ Gamma(1.0, 1e-12)
u ~ Gamma(1.0, 1e-12)
for t in 1:T {
  a[t] ~ Addition(x[t-1], 0.5)
  m[t] ~ Addition(a[t], d)
  x[t] ~ GaussianMeanPrecision(m[t], w)
  r[t] ~ Addition(x[t], -0.25)
  y[t] ~ GaussianMeanPrecision(r[t], u)
  observe y[t] :: ()
}
"""


def _sum_product():
    s = schedule_sum_product(four_factor_graph(), ["x2"])
    schedules = {s.factor_id: s}
    return schedules, compile_program(schedules, None)


def _vmp(graph, rf, ep_damping=None):
    schedules = schedule_vmp(graph, rf, ep_damping=ep_damping)
    return schedules, compile_program(schedules, schedule_free_energy(graph, rf))


def _parsed(source):
    graph = parse_model(source, {"T": 3})
    return _vmp(graph, default_factorization(graph))


MODELS = {
    "four_factor": _sum_product,
    "random_walk_T3": lambda: _parsed(RW_MODEL),
    "probit_T2_damped": lambda: _vmp(*ProbitSsmModel().build(2), ep_damping=0.5),
    "hmgm_K3_T3": lambda: _vmp(*HmgmModel(K=3).build(3)),
    "lgssm_T3": lambda: _vmp(*LgssmModel().build(3)),
    # a nonlinear composition on the observation mean side
    "nlssm_softplus_T3": lambda: _vmp(*LgssmModel(nonlinear=True).build(3)),
    # two chains whose sum is observed: affine belief transport between factors
    "co2_T3": lambda: _vmp(*Co2Model().build(3)),
    # offsets in chain joints, precision updates, energies and belief transports
    "offset_walk_T3": lambda: _parsed(OFFSET_WALK_MODEL),
}


def listings(name: str) -> dict[str, str]:
    schedules, ir = MODELS[name]()
    return {"schedule.txt": render_schedules(schedules), "algorithm.txt": render(ir)}


def _probit_trace():
    model = ProbitSsmModel()
    data, _ = sample_generative("probit-ssm", seed=1, T=12)
    return run_inference(*model.build(12), data, model.initial_marginals(12),
                         max_iters=5, tol=0.0, ep_damping=0.5)


def _hmgm_trace():
    model = HmgmModel(K=3)
    data, _ = sample_generative("hmgm", seed=1, T=30)
    return run_inference(*model.build(30), data, model.initial_marginals(30, data),
                         max_iters=20, tol=1e-6)


def _random_walk_trace():
    graph = parse_model(RW_MODEL, {"T": 20})
    data, _ = sample_generative("random-walk", seed=1, T=20)
    return run_inference(graph, default_factorization(graph), data,
                         RandomWalkModel().initial_marginals(20), max_iters=10, tol=1e-9)


TRACES = {
    "probit_T12_damped": _probit_trace,
    "hmgm_K3_T30": _hmgm_trace,
    "random_walk_T20": _random_walk_trace,
}


def trace_text(name: str) -> str:
    return "".join(f"{f!r}\n" for f in TRACES[name]().free_energy_trace)


@pytest.mark.parametrize("name", sorted(MODELS))
def test_library_listings_match_golden(name):
    for suffix, text in listings(name).items():
        assert text == (GOLDEN / f"{name}.{suffix}").read_text(), suffix


@pytest.mark.parametrize("name", sorted(MODELS))
def test_golden_algorithm_listing_parses_back_to_itself(name):
    text = (GOLDEN / f"{name}.algorithm.txt").read_text()
    assert render(parse_listing(text)) == text


@pytest.mark.parametrize("name", sorted(MODELS))
def test_slotted_ir_round_trips_field_by_field(name):
    _, ir = MODELS[name]()
    back = parse_listing(render(ir))
    assert back == ir
    assert (back.site_inits, back.data_slots) == (ir.site_inits, ir.data_slots)
    assert all(type(index) is int for _, index in back.data_slots)
    programs = [*ir.steps, ("free_energy", ir.free_energy)]
    parsed = [*back.steps, ("free_energy", back.free_energy)]
    assert [fid for fid, _ in parsed] == [fid for fid, _ in programs]
    for (_, want), (_, got) in zip(programs, parsed):
        assert len(got) == len(want)
        for a, b in zip(want, got):
            for field in Instruction._fields:
                assert getattr(b, field) == getattr(a, field), field
            assert type(a.slots) is type(b.slots) is tuple
            assert not hasattr(a, "__dict__") and not hasattr(b, "__dict__")
    # a data index 1 and a data index "1" render alike but stay different
    ins = Instruction("rule", ("msg", 0), [("data", ("y", 1))], "r")
    assert ins != Instruction("rule", ("msg", 0), [("data", ("y", "1"))], "r")
    assert ins == Instruction("rule", ("msg", 0), (("data", ("y", 1)),), "r")


def test_compile_command_writes_golden_listings(tmp_path):
    model = tmp_path / "rw.mp"
    model.write_text(RW_MODEL)
    out = tmp_path / "compiled"
    assert main(["compile", str(model), "--const", "T=3", "-o", str(out)]) == 0
    for suffix in ("schedule.txt", "algorithm.txt"):
        expected = (GOLDEN / f"random_walk_T3.{suffix}").read_bytes()
        assert (out / suffix).read_bytes() == expected, suffix


@pytest.mark.parametrize("name", sorted(TRACES))
def test_free_energy_trace_matches_golden(name):
    got = TRACES[name]().free_energy_trace
    want = [float(f) for f in (GOLDEN / f"{name}.ftrace.txt").read_text().split()]
    assert len(got) == len(want)
    assert got == pytest.approx(want, rel=1e-12, abs=0.0)


def write_goldens(traces: bool):
    """Rewrite the listing goldens, and the trace goldens if ``traces``."""
    GOLDEN.mkdir(exist_ok=True)
    for name in MODELS:
        for suffix, text in listings(name).items():
            (GOLDEN / f"{name}.{suffix}").write_text(text)
    if traces:
        for name in TRACES:
            (GOLDEN / f"{name}.ftrace.txt").write_text(trace_text(name))


if __name__ == "__main__":
    unknown = [arg for arg in sys.argv[1:] if arg != "--traces"]
    if unknown:
        sys.exit(f"usage: {sys.argv[0]} [--traces]; unknown arguments {unknown}")
    write_goldens("--traces" in sys.argv[1:])
