import numpy as np
import pytest

from mpgraph.codegen import (
    AlgorithmIR,
    Instruction,
    Interpreter,
    InterpretError,
    canonical_json,
    compile_program,
    parse_listing,
    render,
)
from mpgraph.distributions import Batch, Gamma
from mpgraph.engine import DirectExecutor, compile_model, init_marginals
from mpgraph.graph import FactorGraph
from mpgraph.models import (
    Co2Model,
    HmgmModel,
    LgssmModel,
    ProbitSsmModel,
    RandomWalkModel,
    sample_generative,
    sample_hmgm,
)
from mpgraph.rules import Rule, default_registry
from mpgraph.scheduler import (
    RecognitionFactorization,
    default_factorization,
    schedule_free_energy,
    schedule_sum_product,
    schedule_vmp,
)


def swapped_registry(prefix, fn):
    """The default registry, with the body of the rule whose id starts
    with ``prefix`` replaced by ``fn`` (the rule keeps its id)."""
    class Swapped:
        def by_id(self, rule_id):
            rule = default_registry().by_id(rule_id)
            if rule_id.startswith(prefix):
                rule = Rule(rule.kind, rule.role, rule.flavor, rule.slots, fn, rule.out_type, rule.needs_previous)
                assert rule.id == rule_id
            return rule

    return Swapped()


def _boom(inbound, constants):
    raise ValueError("boom")


def _boom_batch(columns, constants):
    raise ValueError("boom")


def _previous_named(inbound, constants, previous):
    raise ValueError(f"previous {canonical_json(previous.to_json())}")


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

    @pytest.mark.parametrize("build, options", [
        (lambda: RandomWalkModel().build(4), {}),
        (lambda: ProbitSsmModel().build(3), {"ep_damping": 0.5}),
        (lambda: HmgmModel(K=3).build(3), {}),
        (lambda: Co2Model().build(3), {}),
    ], ids=["random-walk", "probit", "hmgm", "co2"])
    def test_the_ir_is_made_of_the_schedules_steps(self, build, options):
        program = compile_model(*build(), **options)
        assert [fid for fid, _ in program.ir.steps] == list(program.schedules)
        for (fid, instructions), schedule in zip(program.ir.steps, program.schedules.values()):
            steps = [*schedule.entries, *schedule.marginal_steps]
            assert len(instructions) == len(steps)
            assert all(ins is step for ins, step in zip(instructions, steps)), fid
        energies = [ins for ins in program.ir.free_energy if ins.opcode == "average_energy"]
        assert len(energies) == len(program.free_energy.energies)
        assert all(ins is term for ins, term in zip(energies, program.free_energy.energies))

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
        other = parse_listing(render(ir))
        other.free_energy[0].rule_id = "gamma"
        assert render(other) != render(ir)

    def test_equality_compares_fields_not_text(self):
        # a data index 1 and a data index "1" render alike but are different IRs
        a = Instruction("rule", ("msg", 0), [("data", ("y", 1))], "r")
        b = Instruction("rule", ("msg", 0), [("data", ("y", "1"))], "r")
        assert render(AlgorithmIR([("X", [a])], [], {}, [])) == render(AlgorithmIR([("X", [b])], [], {}, []))
        assert a != b and AlgorithmIR([("X", [a])], [], {}, []) != AlgorithmIR([("X", [b])], [], {}, [])
        assert a == Instruction("rule", ("msg", 0), [("data", ("y", 1))], "r")

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
            Interpreter(ir).run_iteration({}, init_marginals(g, rf))

    @pytest.mark.parametrize("missing, expected", [
        ("data", "missing data slot y[1]"),
        ("marginal", "marginal 'w' missing from the table"),
    ])
    @pytest.mark.parametrize("stage", ["run_iteration", "free_energy"])
    def test_direct_and_interpreted_errors_agree(self, missing, expected, stage):
        g = FactorGraph()
        g.add_node("gaussian_mean_variance", {"out": "x", "mean": 0.0, "variance": 1.0})
        g.add_node("gamma", {"out": "w", "shape": 1.0, "rate": 1.0})
        g.add_node("gaussian_mean_precision", {"out": "y", "mean": "x", "precision": "w"})
        g.observe("y", "y", 1, ())
        rf = RecognitionFactorization([("X", ["x"]), ("W", ["w"])])
        schedules, fe = schedule_vmp(g, rf), schedule_free_energy(g, rf)
        errors = []
        for runner in (Interpreter(compile_program(schedules, fe)), DirectExecutor(schedules, fe)):
            data, marginals = {"y": np.array([0.3])}, init_marginals(g, rf)
            if missing == "data":
                data = {}
            else:
                del marginals["w"]
            with pytest.raises(InterpretError) as err:
                getattr(runner, stage)(data, marginals)
            errors.append(str(err.value))
        assert errors[0] == errors[1]
        assert errors[0].endswith(expected)

    # step X of the toy below, every instruction alone:
    #   msg[0] <- sum-product:gaussian_mean_variance:out(_, const, const)
    #   msg[1] <- variational:gaussian_mean_precision:mean(data[y][1], _, q[w])
    #   q[x] <- msg[0] * msg[1]
    @pytest.mark.parametrize("case, expected", [
        ("marginal", "step X, instruction 1 (rule -> ('msg', 1)): marginal 'w' missing from the table"),
        ("data", "step X, instruction 1 (rule -> ('msg', 1)): missing data slot y[1]"),
        ("rule body", "step X, instruction 1 (rule -> ('msg', 1)): boom"),
        ("batched rule body", "step X, instruction 1 (rule -> ('msg', 1)): boom"),
        ("product", "step X, instruction 2 (product -> ('marginal', 'x')): "
                    "cannot multiply Gamma with GaussianMeanVariance"),
    ])
    def test_direct_and_interpreted_lone_errors_agree(self, case, expected):
        g = FactorGraph()
        g.add_node("gaussian_mean_variance", {"out": "x", "mean": 0.0, "variance": 1.0})
        g.add_node("gamma", {"out": "w", "shape": 1.0, "rate": 1.0})
        g.add_node("gaussian_mean_precision", {"out": "y", "mean": "x", "precision": "w"})
        g.observe("y", "y", 1, ())
        rf = RecognitionFactorization([("X", ["x"]), ("W", ["w"])])
        schedules, fe = schedule_vmp(g, rf), schedule_free_energy(g, rf)
        registry = {
            "rule body": swapped_registry("variational:gaussian_mean_precision:mean:", _boom),
            "batched rule body": swapped_registry("variational:gaussian_mean_precision:mean:", Batch(_boom_batch)),
            "product": swapped_registry("sum-product:gaussian_mean_variance:out:",
                                        lambda inbound, constants: Gamma(1.0, 1.0)),
        }.get(case)
        ir = compile_program(schedules, fe)
        errors = []
        for runner in (Interpreter(ir, registry), DirectExecutor(schedules, fe, registry)):
            assert all(item.__class__ is int for key, plan in runner._plans.items() if key for item in plan)
            data, marginals = {"y": np.array([0.3])}, init_marginals(g, rf)
            if case == "data":
                data = {}
            elif case == "marginal":
                del marginals["w"]
            with pytest.raises(InterpretError) as err:
                runner.run_iteration(data, marginals)
            errors.append(str(err.value))
        assert errors[0] == errors[1]
        assert errors[0] == expected

    def test_direct_and_interpreted_errors_agree_on_an_ep_rules_extra(self):
        # the EP update reads the site it writes through ``extra``; its body
        # here raises naming the value it was handed
        model, T = ProbitSsmModel(), 2
        data, _ = sample_generative("probit-ssm", 1, T=T)
        graph, rf = model.build(T)
        schedules, fe = schedule_vmp(graph, rf, ep_damping=0.5), schedule_free_energy(graph, rf)
        ir = compile_program(schedules, fe)
        fid, pos, ins = next((fid, pos, ins) for fid, program in ir.steps for pos, ins in enumerate(program)
                             if ins.extra)
        registry = swapped_registry(ins.rule_id, _previous_named)
        errors = []
        for runner in (Interpreter(ir, registry), DirectExecutor(schedules, fe, registry)):
            assert pos in runner._plans[fid]  # it runs alone
            with pytest.raises(InterpretError) as err:
                runner.run_iteration(data, init_marginals(graph, rf, model.initial_marginals(T)))
            errors.append(str(err.value))
        site = canonical_json(ir.site_inits[ins.extra[1]].to_json())
        assert errors[0] == errors[1] == f"step {fid}, instruction {pos} (rule -> ('msg', {pos})): previous {site}"

    def test_error_carries_instruction_position(self):
        g, rf = conjugate_toy()
        ir = compile_program(schedule_vmp(g, rf), schedule_free_energy(g, rf))
        with pytest.raises(InterpretError, match="instruction"):
            Interpreter(ir).run_iteration({"y": np.array([])}, init_marginals(g, rf))

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
        clone = parse_listing(render(ir))
        data = {"y": np.array([0.3])}
        m1 = Interpreter(ir).run_iteration(data, init_marginals(g, rf))
        m2 = Interpreter(clone).run_iteration(data, init_marginals(g, rf))
        assert {k: v.to_json() for k, v in m1.items()} == {k: v.to_json() for k, v in m2.items()}

    def test_an_observed_index_below_1_is_a_missing_data_slot(self):
        # data series are 1-based: index 0 must not read the series' last entry
        g = FactorGraph()
        g.add_node("gaussian_mean_variance", {"out": "x", "mean": 0.0, "variance": 1.0})
        g.add_node("gaussian_mean_precision", {"out": "y", "mean": "x", "precision": 1.0})
        g.observe("y", "y", 0, ())
        rf = default_factorization(g)
        schedules, fe = schedule_vmp(g, rf), schedule_free_energy(g, rf)
        data = {"y": np.array([3.0, 30.0])}
        for runner in (Interpreter(compile_program(schedules, fe)), DirectExecutor(schedules, fe)):
            with pytest.raises(InterpretError, match=r"missing data slot y\[0\]$"):
                runner.run_iteration(data, init_marginals(g, rf))
