import numpy as np
import pytest

from mpgraph.codegen import (
    AlgorithmIR,
    Interpreter,
    InterpretError,
    compile_program,
    interpret,
    parse_listing,
    render,
)
from mpgraph.engine import DirectExecutor, init_marginals
from mpgraph.graph import FactorGraph
from mpgraph.models import HmgmModel, LgssmModel, sample_hmgm
from mpgraph.scheduler import (
    RecognitionFactorization,
    default_factorization,
    schedule_free_energy,
    schedule_sum_product,
    schedule_vmp,
)


def conjugate_toy():
    g = FactorGraph()
    g.add_node("gaussian_mean_variance", {"out": "x", "mean": 0.0, "variance": 1.0})
    g.add_node("gaussian_mean_precision", {"out": "y", "mean": "x", "precision": 1.0})
    g.observe("y", "y", 1, ())
    rf = RecognitionFactorization([("X", ["x"])])
    return g, rf


def random_conjugate_chain(rng):
    """A short linear-Gaussian chain with clamped precisions and random data."""
    T = int(rng.integers(2, 6))
    g = FactorGraph()
    g.add_node("gaussian_mean_variance",
               {"out": "x[0]", "mean": float(rng.normal()), "variance": float(rng.uniform(0.5, 3))})
    for t in range(1, T + 1):
        g.add_node("gaussian_mean_precision",
                   {"out": f"x[{t}]", "mean": f"x[{t-1}]", "precision": float(rng.uniform(0.5, 4))})
        g.add_node("gaussian_mean_precision",
                   {"out": f"y[{t}]", "mean": f"x[{t}]", "precision": float(rng.uniform(0.5, 4))})
        g.observe(f"y[{t}]", "y", t, ())
    data = {"y": rng.normal(size=T)}
    return g, default_factorization(g), data


class TestCompile:
    def test_instruction_counts(self):
        g, rf = conjugate_toy()
        schedules = schedule_vmp(g, rf)
        fe = schedule_free_energy(g, rf)
        ir = compile_program(schedules, fe)
        n_sched = sum(len(s.entries) + len(s.marginal_steps) for s in schedules.values())
        n_ir = sum(len(prog) for _, prog in ir.steps)
        assert n_ir == n_sched

    def test_fig2_compiles_to_four_rules_and_a_product(self):
        g = FactorGraph()
        g.add_node("gaussian_mean_variance", {"out": "x1", "mean": 0.0, "variance": 1.0})
        g.add_node("gaussian_mean_variance", {"out": "x2", "mean": "x1", "variance": 1.0})
        g.add_node("addition", {"out": "x3", "in1": "x2", "in2": "x4"})
        g.add_node("gaussian_mean_variance", {"out": "x5", "mean": "x4", "variance": 1.0})
        g.clamp("x5", 1.7)
        s = schedule_sum_product(g, ["x2"])
        ir = compile_program({"sp": s}, None)
        opcodes = [ins.opcode for _, prog in ir.steps for ins in prog]
        assert opcodes == ["rule"] * 4 + ["product"]

    def test_empty_schedule_empty_ir(self):
        ir = compile_program({}, None)
        assert ir.steps == [] and ir.free_energy == []

    def test_hmgm_state_program_size_pinned(self):
        # One instruction per message update plus marginal/joint combinations;
        # the exact count is part of the deterministic compile contract.
        g, rf = HmgmModel().build(50)
        schedules = schedule_vmp(g, rf)
        ir = compile_program(schedules, None)
        programs = dict(ir.steps)
        rules = [i for i in programs["X"] if i.opcode == "rule"]
        assert len(rules) == 249
        assert len(programs["X"]) == 249 + 51 + 50


class TestRenderListing:
    def test_round_trip(self):
        g, rf = conjugate_toy()
        schedules = schedule_vmp(g, rf)
        fe = schedule_free_energy(g, rf)
        ir = compile_program(schedules, fe)
        text = render(ir)
        assert text == render(ir), "re-rendering is byte identical"
        back = parse_listing(text)
        assert back == ir

    def test_round_trip_lgssm(self):
        g, rf = LgssmModel().build(3)
        schedules = schedule_vmp(g, rf)
        fe = schedule_free_energy(g, rf)
        ir = compile_program(schedules, fe)
        assert parse_listing(render(ir)) == ir

    def test_round_trip_with_sites(self):
        from mpgraph.models import ProbitSsmModel

        g, rf = ProbitSsmModel().build(3)
        ir = compile_program(schedule_vmp(g, rf), schedule_free_energy(g, rf))
        assert parse_listing(render(ir)) == ir

    def test_distinct_ir_renders_differently(self):
        g, rf = conjugate_toy()
        ir = compile_program(schedule_vmp(g, rf), schedule_free_energy(g, rf))
        other = AlgorithmIR.from_json(ir.to_json())
        other.free_energy[0].constants["kind"] = "gamma"
        assert render(other) != render(ir)

    def test_blocks_present(self):
        g, rf = conjugate_toy()
        text = render(compile_program(schedule_vmp(g, rf), schedule_free_energy(g, rf)))
        assert "step X:" in text and text.count("end") == 2
        assert "free_energy:" in text
        assert "F += averageEnergy" in text and "F -= " in text


class TestInterpret:
    def test_matches_direct_execution_bitwise(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            g, rf, data = random_conjugate_chain(rng)
            schedules = schedule_vmp(g, rf)
            fe = schedule_free_energy(g, rf)

            direct = DirectExecutor(schedules, fe)
            m1 = init_marginals(g, rf)
            direct.run_iteration(data, m1)
            f1 = direct.free_energy(data, m1)

            interp = Interpreter(compile_program(schedules, fe))
            m2 = init_marginals(g, rf)
            interp.run_iteration(data, m2)
            f2 = interp.free_energy(data, m2)

            assert f1 == f2, "free energy must be bit identical"
            assert m1.keys() == m2.keys()
            for key in m1:
                assert m1[key].to_json() == m2[key].to_json(), key

    def test_missing_data_slot_names_placeholder(self):
        g, rf = conjugate_toy()
        ir = compile_program(schedule_vmp(g, rf), schedule_free_energy(g, rf))
        with pytest.raises(InterpretError, match="y"):
            interpret(ir, {}, init_marginals(g, rf))

    def test_error_carries_instruction_position(self):
        g, rf = conjugate_toy()
        ir = compile_program(schedule_vmp(g, rf), schedule_free_energy(g, rf))
        with pytest.raises(InterpretError, match="instruction"):
            interpret(ir, {"y": np.array([])}, init_marginals(g, rf))

    @pytest.mark.parametrize("K", [3, 7, 10])
    def test_repeat_runs_bit_identical(self, K):
        # two interpreted runs and the direct executor agree bit for bit, for
        # mixtures with more components than any fixed-arity rule would cover
        data, _ = sample_hmgm(seed=3, T=8, K=K)
        model = HmgmModel(K=K)
        g, rf = model.build(8)
        schedules, fe = schedule_vmp(g, rf), schedule_free_energy(g, rf)
        ir = compile_program(schedules, fe)
        outs = []
        for runner in (Interpreter(ir), Interpreter(ir), DirectExecutor(schedules, fe)):
            marg = init_marginals(g, rf, model.initial_marginals(8, data))
            trace = []
            for _ in range(3):
                runner.run_iteration(data, marg)
                trace.append(runner.free_energy(data, marg))
            outs.append((trace, {k: v.to_json() for k, v in marg.items()}))
        assert outs[0] == outs[1] == outs[2]
        assert np.all(np.diff(outs[0][0]) <= 1e-9)

    def test_ir_json_round_trip_executes_identically(self):
        g, rf = conjugate_toy()
        ir = compile_program(schedule_vmp(g, rf), schedule_free_energy(g, rf))
        clone = AlgorithmIR.from_json(ir.to_json())
        data = {"y": np.array([0.3])}
        m1, _ = interpret(ir, data, init_marginals(g, rf))
        m2, _ = interpret(clone, data, init_marginals(g, rf))
        assert {k: v.to_json() for k, v in m1.items()} == {k: v.to_json() for k, v in m2.items()}
