"""How ``Interpreter`` runs a step: the groups ``plan_step`` forms on
hand-built programs, planning cost on a long chain, the grouped run against
one instruction at a time and ``DirectExecutor``, error location inside a
group, the fallback of a group that does not stack (in a step and in the
free-energy program), and grouping through rule proxies, which see one
``Rule.apply`` per rule instruction run alone."""

from collections import Counter

import numpy as np
import pytest
import scaling_steps

from mpgraph.codegen import (
    AlgorithmIR,
    Instruction,
    Interpreter,
    InterpretError,
    _Group,
    compile_program,
    plan_step,
)
from mpgraph.distributions import Batch, PointMass
from mpgraph.engine import DirectExecutor, compile_model, init_marginals, iterate
from mpgraph.graph import NODE_KINDS, NodeKind
from mpgraph.models import ProbitSsmModel, RandomWalkModel, sample_generative
from mpgraph.rules import MARGINAL, MESSAGE, VOID, Rule, RuleRegistry, Slot, default_registry
from mpgraph.scheduler import schedule_free_energy, schedule_vmp

# ---------------------------------------------------------------------------
# Hand-built programs: point masses passed through two toy rules
# ---------------------------------------------------------------------------


def _plus(inbound, constants):
    return PointMass(sum(float(q.value) for q in inbound if q is not None) + constants.get("add", 1.0))


def _plus_batch(columns, constants):
    return [_plus(inbound, constants) for inbound in zip(*columns)]


def toy_registry(batch=_plus_batch):
    """``B`` and ``C`` (batched) and ``S`` (one at a time) add their inputs
    and 1, for a message or a marginal input and for a joint; ``B`` runs
    ``batch``."""
    reg = RuleRegistry()
    rules = {}
    for name, fn in (("B", Batch(batch)), ("C", Batch(_plus_batch)), ("S", _plus)):
        for kind in (MESSAGE, MARGINAL):
            rules[name, kind] = reg.register(Rule(f"toy{name}", kind, "sum-product", [Slot(kind), Slot(VOID)],
                                                  fn, lambda *_: PointMass))
    return reg, rules


def rule(rules, name, pos, source, joint=False, **extra):
    """One instruction applying ``name`` to ``source`` (``msg[i]`` or a
    marginal key) that writes ``msg[pos]``, or as a joint marginal
    ``j{pos}``."""
    kind = MESSAGE if isinstance(source, int) else MARGINAL
    slot = ("entry", source) if kind == MESSAGE else ("marginal", source)
    if joint:
        return Instruction("joint", ("marginal", f"j{pos}"), [slot, ("void",)], rules[name, kind].id)
    return Instruction("rule", ("msg", pos), [slot, ("void",)], rules[name, kind].id, **extra)


def shape(plan):
    """A plan with each group written as the list of its positions."""
    return [item.positions if isinstance(item, _Group) else item for item in plan]


def batched_in(reg):
    return lambda rule_id: reg.by_id(rule_id).batch is not None


def run_both(reg, program, marginals):
    """The marginals and messages after the grouped run and after one
    instruction at a time."""
    ir = AlgorithmIR([("X", program)], [], {}, [])
    outs = []
    for grouped in (True, False):
        runner, table = Interpreter(ir, reg), dict(marginals)
        if grouped:
            runner.run_step("X", {}, table)
        else:
            runner.run_items("X", range(len(program)), {}, table)
        outs.append(({k: float(v.value) for k, v in table.items()},
                     [None if m is None else float(m.value) for m in runner.messages["X"]]))
    return outs


class TestPlan:
    def test_a_member_waits_for_an_input_a_non_member_writes_later(self):
        reg, rules = toy_registry()
        program = [
            rule(rules, "S", 0, "a"),
            rule(rules, "B", 1, 0),  # reads msg[0]: a group of its own at 1
            rule(rules, "S", 2, "b"),
            rule(rules, "B", 3, 2),  # reads msg[2], written after position 1
            rule(rules, "B", 4, 0),  # ready at 3: joins the group there
        ]
        plan, _ = plan_step(program, batched_in(reg))
        assert shape(plan) == [0, 1, 2, [3, 4]]
        grouped, alone = run_both(reg, program, {"a": PointMass(1.0), "b": PointMass(10.0)})
        assert grouped == alone

    def test_inputs_written_by_an_earlier_group_are_ready(self):
        # the d step's shape: T independent messages, then T messages that
        # each read one of them; two groups
        reg, rules = toy_registry()
        program = []
        for t in range(4):
            program.append(rule(rules, "B", 2 * t, f"x{t}"))
            program.append(rule(rules, "B", 2 * t + 1, 2 * t))
        plan, _ = plan_step(program, batched_in(reg))
        assert shape(plan) == [[0, 2, 4, 6], [1, 3, 5, 7]]
        grouped, alone = run_both(reg, program, {f"x{t}": PointMass(t) for t in range(4)})
        assert grouped == alone

    def test_a_marginal_written_then_read_in_the_step_keeps_its_order(self):
        reg, rules = toy_registry()
        product = Instruction("product", ("marginal", "a"), [("entry", 0)])
        program = [
            rule(rules, "B", 0, "a"),
            product,  # q[a] <- msg[0]
            rule(rules, "B", 1, "a"),  # reads the new q[a]: not hoisted above the product
            rule(rules, "B", 2, "b"),
        ]
        plan, _ = plan_step(program, batched_in(reg))
        assert shape(plan) == [0, 1, [2, 3]]
        grouped, alone = run_both(reg, program, {"a": PointMass(1.0), "b": PointMass(5.0)})
        assert grouped == alone and grouped[0]["a"] == 2.0

    def test_an_output_read_before_its_position_is_not_hoisted_past_the_reader(self):
        reg, rules = toy_registry()
        program = [
            rule(rules, "B", 0, "a", joint=True),  # q[j0]
            rule(rules, "S", 0, "j2"),  # msg[0] reads q[j2] before the joint below writes it
            rule(rules, "B", 2, "b", joint=True),  # q[j2]: a group of its own
            rule(rules, "B", 3, "c", joint=True),  # joins it
        ]
        plan, _ = plan_step(program, batched_in(reg))
        assert shape(plan) == [0, 1, [2, 3]]
        marginals = {"a": PointMass(1.0), "b": PointMass(2.0), "c": PointMass(3.0), "j2": PointMass(-7.0)}
        grouped, alone = run_both(reg, program, marginals)
        assert grouped == alone and grouped[1] == [-6.0]

    def test_site_writers_and_ep_updates_run_alone(self):
        reg, rules = toy_registry()
        program = [
            rule(rules, "B", 0, "a", writes_site="s0"),
            rule(rules, "B", 1, "b", extra=("entry", 1)),
            rule(rules, "B", 2, "c", writes_site="s2"),
            rule(rules, "B", 3, "d", extra=("entry", 3)),
        ]
        plan, _ = plan_step(program, lambda rule_id: True)
        assert plan == [0, 1, 2, 3]

    def test_constants_and_slot_tags_split_buckets(self):
        reg, rules = toy_registry()
        program = [
            rule(rules, "B", 0, "a"),
            Instruction("rule", ("msg", 1), [("marginal", "b"), ("void",)], rules["B", MARGINAL].id,
                        {"add": 2.0}),
            rule(rules, "B", 2, "c"),
            Instruction("rule", ("msg", 3), [("marginal", "d"), ("void",)], rules["B", MARGINAL].id,
                        {"add": 2.0}),
            rule(rules, "B", 4, 0),
        ]
        plan, _ = plan_step(program, batched_in(reg))
        assert shape(plan) == [[0, 2], [1, 3], 4]

    def test_planning_the_readme_walk_is_linear(self):
        # a constant number of readiness checks per instruction at T=6400
        T = 6400
        program = compile_model(*RandomWalkModel().build(T)).ir
        total = checks = 0
        sizes = []
        for _, steps in program.steps:
            plan, n = plan_step(steps, batched_in(default_registry()))
            total, checks = total + len(steps), checks + n
            sizes += [len(item.positions) for item in plan if isinstance(item, _Group)]
        assert checks <= 4 * total
        # the joints, the observation messages and the d, w and u leaves
        assert sorted(sizes)[-6:] == [T] * 6


# ---------------------------------------------------------------------------
# Real models: grouped runs against DirectExecutor, errors, proxies
# ---------------------------------------------------------------------------


def walk(T=12, seed=2):
    data, _ = sample_generative("random-walk", seed, T=T)
    graph, rf = RandomWalkModel().build(T)
    schedules, fe = schedule_vmp(graph, rf), schedule_free_energy(graph, rf)
    return graph, rf, schedules, fe, data, RandomWalkModel().initial_marginals(T)


class TestGroupedRuns:
    def test_a_failing_slice_is_named_as_direct_execution_names_it(self):
        graph, rf, schedules, fe, data, overrides = walk()
        # one two-slice joint reads a NaN precision: its covariance is not finite
        joints = [step for step in schedules["X"].marginal_steps if getattr(step, "rule_id", None)]
        bad = joints[5]
        bad.slots = (*bad.slots[:-1], ("marginal", "poison"))
        errors = []
        for runner in (Interpreter(compile_program(schedules, fe)), DirectExecutor(schedules, fe)):
            marginals = init_marginals(graph, rf, overrides)
            marginals["poison"] = PointMass(np.nan)
            with pytest.raises(InterpretError) as err:
                runner.run_iteration(data, marginals)
            errors.append(str(err.value))
        assert errors[0] == errors[1]
        assert errors[0].startswith("step X, instruction ") and "non-finite" in errors[0]

    @pytest.mark.parametrize("program", ["step", "free-energy"])
    def test_a_group_that_fails_only_batched_runs_its_rule_alone_in_that_step(self, program, monkeypatch):
        # B's batch body refuses more than one member: B's rule in step X,
        # or B's energy in the free-energy program
        def refuse(columns, constants):
            if len(columns[0]) > 1:
                raise ValueError("beliefs do not stack")
            return _plus_batch(columns, constants)

        def energy(batch):
            return Batch(lambda columns, constants: np.array([float(q.value) for q in batch(columns, constants)]))

        failing = "X" if program == "step" else None
        reg, rules = toy_registry(refuse if failing else _plus_batch)
        monkeypatch.setitem(NODE_KINDS, "toy", NodeKind("toy", ("out",), energies={
            "toyB": energy(_plus_batch if failing else refuse), "toyC": energy(_plus_batch),
            "toyS": lambda qs, constants: float(_plus(qs, constants).value)}))
        sources = [("B", "a"), ("C", "a"), ("S", 0), ("B", "b"), ("C", "b")]
        steps = [rule(rules, name, pos, source) for pos, (name, source) in enumerate(sources)]
        terms = [Instruction("average_energy", ("F",), [("marginal", "a" if source == 0 else source)], f"toy{name}")
                 for name, source in sources]
        runner = Interpreter(AlgorithmIR([("X", steps), ("Y", list(steps))], terms, {}, []), reg)
        grouped = [[0, 3], [1, 4], 2]
        assert shape(runner._plans["X"]) == shape(runner._plans["Y"]) == shape(runner._plans[None]) == grouped
        table = {"a": PointMass(1.0), "b": PointMass(2.0)}
        for _ in range(2):
            runner.run_step("X", {}, table)
            assert [float(m.value) for m in runner.messages["X"]] == [2.0, 2.0, 3.0, 3.0, 3.0]
            assert [value for _, value in runner.free_energy_terms({}, table)] == [2.0, 2.0, 2.0, 3.0, 3.0]
            assert runner.free_energy({}, table) == 12.0
            # only the rule or kind whose beliefs did not stack, and only in its program
            for key in ("X", "Y", None):
                assert shape(runner._plans[key]) == ([0, [1, 4], 2, 3] if key == failing else grouped)

    @pytest.mark.parametrize("terms", [1, 2])
    def test_a_free_energy_term_in_a_step_is_a_located_step_error(self, terms, monkeypatch):
        # a step holding one term, or two that plan_step groups; the term's
        # kind is also a rule id, so the executor accepts the step
        reg, rules = toy_registry()
        kind = rules["B", MARGINAL].id
        monkeypatch.setitem(NODE_KINDS, "toy", NodeKind("toy", ("out",), energies={
            kind: Batch(lambda columns, constants: np.array([float(q.value) for q in columns[0]]))}))
        term = Instruction("average_energy", ("F",), [("marginal", "a")], kind)
        steps = [rule(rules, "S", 0, "a"), *[term] * terms]
        runner = Interpreter(AlgorithmIR([("X", steps)], [term], {}, []), reg)
        assert shape(runner._plans["X"]) == ([0, 1] if terms == 1 else [0, [1, 2]])
        with pytest.raises(InterpretError, match=r"^step X, instruction 1 \(average_energy -> \('F',\)\): "
                                                 r"opcode 'average_energy' is not executable in a step$"):
            runner.run_step("X", {}, {"a": PointMass(1.0)})

    def test_grouping_works_through_rule_proxies(self):
        class Proxy:  # forwards attributes, as a timing proxy does
            def __init__(self, rule):
                self._rule = rule

            def apply(self, inbound, constants, previous=None):
                return self._rule.apply(inbound, constants, previous)

            def __getattr__(self, attr):
                return getattr(self._rule, attr)

        class Registry:
            def by_id(self, rule_id):
                return Proxy(default_registry().by_id(rule_id))

        graph, rf, schedules, fe, data, overrides = walk()
        ir = compile_program(schedules, fe)
        proxied = Interpreter(ir, Registry())
        assert any(isinstance(item, _Group) for plan in proxied._plans.values() for item in plan)
        runs = [iterate(runner, data, init_marginals(graph, rf, overrides), max_iters=4, tol=0.0)
                for runner in (proxied, Interpreter(ir), DirectExecutor(schedules, fe))]
        for run in runs[1:]:
            assert run.free_energy_trace == runs[0].free_energy_trace
            assert {k: v.to_json() for k, v in run.marginals.items()} == \
                {k: v.to_json() for k, v in runs[0].marginals.items()}

    def test_rule_apply_runs_once_per_lone_rule_instruction(self):
        # a timing proxy (the benchmark's ``TimedRule``) sees every rule
        # instruction an executor runs alone as one ``Rule.apply``, and no
        # group's members
        calls = Counter()

        class Counted:
            def __init__(self, rule):
                self._rule = rule

            def apply(self, inbound, constants, previous=None):
                calls[self._rule.id] += 1
                return self._rule.apply(inbound, constants, previous)

            def __getattr__(self, attr):
                return getattr(self._rule, attr)

        class Registry:
            def by_id(self, rule_id):
                return Counted(default_registry().by_id(rule_id))

        graph, rf, schedules, fe, data, overrides = walk()
        ir, iterations = compile_program(schedules, fe), 3
        applying = sum(ins.opcode != "product" for _, program in ir.steps for ins in program)  # rule, joint
        runs = []
        for runner in (Interpreter(ir, Registry()), DirectExecutor(schedules, fe, Registry()), Interpreter(ir)):
            calls.clear()
            runs.append(iterate(runner, data, init_marginals(graph, rf, overrides), max_iters=iterations, tol=0.0))
            lone = Counter(runner._programs[fid][pos].rule_id for fid in runner.messages
                           for pos in runner._plans[fid] if pos.__class__ is int and runner._programs[fid][pos].rule_id)
            if runner.registry.__class__ is Registry:
                assert calls == Counter({rule_id: n * iterations for rule_id, n in lone.items()})
            if runner.__class__ is DirectExecutor:
                assert sum(lone.values()) == applying
            else:
                assert 0 < sum(lone.values()) < applying
        for run in runs[1:]:
            assert run.free_energy_trace == runs[0].free_energy_trace
            assert {k: v.to_json() for k, v in run.marginals.items()} == \
                {k: v.to_json() for k, v in runs[0].marginals.items()}

    def test_probit_groups_match_direct_execution(self):
        # Wishart leaves, 4x4 joints and EP sites in one model
        model, T = ProbitSsmModel(), 10
        data, _ = sample_generative("probit-ssm", 3, T=T)
        graph, rf = model.build(T)
        schedules, fe = schedule_vmp(graph, rf, ep_damping=0.5), schedule_free_energy(graph, rf)
        runs = [iterate(runner, data, init_marginals(graph, rf, model.initial_marginals(T)), max_iters=5, tol=0.0)
                for runner in (Interpreter(compile_program(schedules, fe)), DirectExecutor(schedules, fe))]
        assert runs[0].free_energy_trace == runs[1].free_energy_trace
        assert {k: v.to_json() for k, v in runs[0].marginals.items()} == \
            {k: v.to_json() for k, v in runs[1].marginals.items()}


def test_the_scaling_script_times_every_planned_program(monkeypatch, capsys):
    # tests/scaling_steps.py reads the planner's internals (``_programs``,
    # ``_plans``, ``run_group``): a small walk, one repeat
    T = 8
    model, program = RandomWalkModel(), compile_model(*RandomWalkModel().build(T))
    data, _ = sample_generative("random-walk", 2, T=T)
    runner = Interpreter(program.ir)
    marginals = init_marginals(program.factorization, program.rf, model.initial_marginals(T))
    runner.run_iteration(data, marginals)
    monkeypatch.setattr(scaling_steps, "REPEATS", 1)
    rows = scaling_steps.program_rows(runner, data, marginals)
    sizes = {fid: len(steps) for fid, steps in program.ir.steps} | {"F": len(program.ir.free_energy)}
    assert [(name, n) for name, applies, n, *_ in rows if applies is None] == list(sizes.items())
    for name, size in sizes.items():
        rules = [row for row in rows if row[0] == name and row[1] is not None]
        assert sum(n for _, _, n, *_ in rules) == size
        assert all(alone > 0 and grouped > 0 and 1 <= calls <= n for _, _, n, alone, grouped, calls in rules)
    assert any(calls < n for name, _, n, _, _, calls in rows if name == "F")
    assert any(calls < n for name, _, n, _, _, calls in rows if name != "F")
    monkeypatch.setattr(scaling_steps, "bench_models", lambda: iter([("walk", program, data,
                                                                      model.initial_marginals(T), 1)]))
    scaling_steps.main()
    table = capsys.readouterr().out.splitlines()
    assert sum(" step (ms) " in line for line in table) == len(program.ir.steps)
    assert sum(" F (ms) " in line for line in table) == 1
