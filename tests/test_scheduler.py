import gc
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scaling_front_end

from mpgraph.codegen import compile_program, render_schedule, render_schedules
from mpgraph.dsl import parse_model
from mpgraph.graph import FactorGraph
from mpgraph.models import Co2Model, HmgmModel, LgssmModel, ProbitSsmModel, RandomWalkModel
from mpgraph.rules import default_registry
from mpgraph.scheduler import (
    RecognitionFactorization,
    SchedulingError,
    _FactorScheduler,
    analyze_factorization,
    default_factorization,
    infer_types,
    schedule_free_energy,
    schedule_sum_product,
    schedule_vmp,
)
from test_cli import RW_MODEL


def four_factor_graph():
    g = FactorGraph()
    g.add_node("gaussian_mean_variance", {"out": "x1", "mean": 0.0, "variance": 1.0})
    g.add_node("gaussian_mean_variance", {"out": "x2", "mean": "x1", "variance": 1.0})
    g.add_node("addition", {"out": "x3", "in1": "x2", "in2": "x4"})
    g.add_node("gaussian_mean_variance", {"out": "x5", "mean": "x4", "variance": 1.0})
    g.clamp("x5", 1.7)
    return g


class TestSumProduct:
    def test_golden_four_message_schedule(self):
        s = schedule_sum_product(four_factor_graph(), ["x2"])
        assert len(s.entries) == 4
        assert s.check_topological()
        labels = [e.label for e in s.entries]
        assert labels == ["edge x1 fwd", "edge x2 fwd", "edge x4 fwd", "edge x2 bwd"]
        # marginal is the product of messages 2 and 4 (1-indexed)
        step = s.marginal_steps[0]
        assert step.output[1] == "x2"
        assert step.slots == (("entry", 1), ("entry", 3))

    def test_single_prior_single_message(self):
        g = FactorGraph()
        g.add_node("gaussian_mean_variance", {"out": "x", "mean": 0.0, "variance": 1.0})
        s = schedule_sum_product(g, ["x"])
        assert len(s.entries) == 1

    def test_three_gaussian_chain_middle_target(self):
        g = FactorGraph()
        g.add_node("gaussian_mean_variance", {"out": "a", "mean": 0.0, "variance": 1.0})
        g.add_node("gaussian_mean_variance", {"out": "b", "mean": "a", "variance": 1.0})
        g.add_node("gaussian_mean_variance", {"out": "c", "mean": "b", "variance": 1.0})
        g.clamp("c", 0.5)
        s = schedule_sum_product(g, ["b"])
        # forward (through a) and backward (from the clamp) collide on b
        assert len(s.entries) == 3
        directions = {e.label for e in s.entries}
        assert "edge b fwd" in directions and "edge b bwd" in directions

    def test_memoized_across_targets(self):
        g = four_factor_graph()
        s = schedule_sum_product(g, ["x2", "x1", "x4"])
        labels = [e.label for e in s.entries]
        assert len(labels) == len(set(labels)), "no message computed twice"
        assert len(s.entries) <= 2 * len([e for e in g.edges])

    def test_cycle_diagnostic(self):
        g = FactorGraph()
        g.add_variable("a")
        g.add_variable("b")
        g.add_node("gaussian_mean_variance", {"out": "a", "mean": "b", "variance": 1.0})
        g.add_node("gaussian_mean_variance", {"out": "b", "mean": "a", "variance": 1.0})
        with pytest.raises(SchedulingError, match="cycle"):
            schedule_sum_product(g, ["a"])

    def test_deterministic_listing(self):
        a = render_schedule(schedule_sum_product(four_factor_graph(), ["x2"]))
        b = render_schedule(schedule_sum_product(four_factor_graph(), ["x2"]))
        assert a == b
        assert "msg[0] <-" in a and "# edge x1 fwd" in a
        assert "q[x2] <- msg[1] * msg[3]" in a


class TestFactorization:
    def test_partition_checks(self):
        g, _ = RandomWalkModel().build(3)
        with pytest.raises(SchedulingError, match="more than one factor"):
            rf = RecognitionFactorization([("A", ["d"]), ("B", ["d"])])
            schedule_vmp(g, rf)
        with pytest.raises(SchedulingError, match="not cover"):
            rf = RecognitionFactorization([("D", ["d"])])
            schedule_vmp(g, rf)
        with pytest.raises(SchedulingError, match="not a latent"):
            rf = RecognitionFactorization([("Y", ["y[1]"])])
            rf.validate(g, None)

    def test_default_groups_chains_first(self):
        g, _ = RandomWalkModel().build(4)
        rf = default_factorization(g)
        ids = [fid for fid, _ in rf.factors]
        assert ids[0] == "X"
        assert set(v for _, vs in rf.factors for v in vs) >= {"d", "w", "u", "x[0]", "x[4]"}
        assert rf.factors[0][1] == [f"x[{t}]" for t in range(5)]


class TestVmpSchedules:
    def test_lgssm_forward_then_backward(self):
        g, rf = LgssmModel().build(6)
        scheds = schedule_vmp(g, rf)
        assert set(scheds) == {"X", "W", "U"}
        x = scheds["X"]
        assert x.check_topological()
        # marginal steps reference the colliding frontier messages: the
        # filtering pass runs ascending in t, the smoothing pass descending
        singles = {st.output[1]: st.slots for st in x.marginal_steps if "&" not in st.output[1]}
        fwd_idx = [singles[f"x[{t}]"][0][1] for t in range(7)]
        bwd_idx = [singles[f"x[{t}]"][1][1] for t in range(7)]
        assert fwd_idx == sorted(fwd_idx)
        assert bwd_idx == sorted(bwd_idx, reverse=True)
        assert bwd_idx[0] > fwd_idx[-1], "smoothing completes after filtering"
        joints = [st for st in x.marginal_steps if "&" in st.output[1]]
        assert len(joints) == 6

    def test_conjugate_single_factor_degenerates_to_sum_product(self):
        g = FactorGraph()
        g.add_node("gaussian_mean_variance", {"out": "a", "mean": 0.0, "variance": 1.0})
        g.add_node("gaussian_mean_precision", {"out": "b", "mean": "a", "precision": 4.0})
        g.clamp("b", 1.0)
        rf = RecognitionFactorization([("ALL", ["a"])])
        scheds = schedule_vmp(g, rf)
        flavors = {e.rule_id.split(":")[0] for s in scheds.values() for e in s.entries}
        assert flavors == {"sum-product"}

    def test_hybrid_hmgm_flavors(self):
        g, rf = HmgmModel().build(4)
        scheds = schedule_vmp(g, rf)
        x_flavors = {e.rule_id.split(":")[0] for e in scheds["X"].entries}
        assert "variational" in x_flavors  # boundary messages
        assert "sum-product" in x_flavors  # equality products within the chain
        t_sched = scheds["T"]
        assert any("transition:matrix" in e.rule_id for e in t_sched.entries)

    def test_probit_uses_ep_sites(self):
        from mpgraph.models import ProbitSsmModel

        g, rf = ProbitSsmModel().build(3)
        scheds = schedule_vmp(g, rf)
        x = scheds["X"]
        assert len(x.site_inits) == 3
        ep_entries = [e for e in x.entries if e.rule_id.startswith("expectation-propagation")]
        assert len(ep_entries) == 3
        assert all(e.writes_site for e in ep_entries)
        assert x.check_topological()

    def test_rerun_yields_identical_listing(self):
        g, rf = HmgmModel().build(5)
        a = render_schedules(schedule_vmp(g, rf))
        g2, rf2 = HmgmModel().build(5)
        b = render_schedules(schedule_vmp(g2, rf2))
        assert a == b

    @pytest.mark.parametrize("build", [
        lambda: LgssmModel().build(3),
        lambda: LgssmModel(nonlinear=True).build(3),
        lambda: ProbitSsmModel().build(3),
        lambda: HmgmModel(K=3).build(3),
        lambda: HmgmModel(K=7).build(3),
        lambda: RandomWalkModel().build(3),
        lambda: Co2Model().build(3),
    ], ids=["lgssm", "nlssm", "probit", "hmgm-K3", "hmgm-K7", "random-walk", "co2"])
    def test_infer_types_annotates(self, build):
        g, rf = build()
        scheds = schedule_vmp(g, rf)
        entries = [e for s in scheds.values() for e in s.entries]
        before = [e.out_variant for e in entries]
        for e in entries:
            e.out_variant = None
        infer_types(g, scheds)
        after = [e.out_variant for e in entries]
        assert before == after
        assert all(isinstance(v, str) and v for v in after)
        assert any(v == "GaussianCanonical" for v in after)  # equality fusions

    def test_gamma_boundary_annotated_gamma(self):
        g, rf = RandomWalkModel().build(3)
        scheds = schedule_vmp(g, rf)
        w_variants = [e.out_variant for e in scheds["W"].entries if e.label.split()[1] == "w"]
        assert "Gamma" in w_variants


class TestFreeEnergyProgram:
    def test_conjugate_two_node_model(self):
        g = FactorGraph()
        g.add_node("gaussian_mean_variance", {"out": "x", "mean": 0.0, "variance": 1.0})
        g.add_node("gaussian_mean_precision", {"out": "y", "mean": "x", "precision": 1.0})
        g.observe("y", "y", 1, ())
        rf = RecognitionFactorization([("X", ["x"])])
        fe = schedule_free_energy(g, rf)
        assert len(fe.energies) == 2
        assert fe.entropies == [("x", 1.0)]

    def test_hmgm_term_counts(self):
        T = 50
        g, rf = HmgmModel().build(T)
        fe = schedule_free_energy(g, rf)
        kinds = [t.rule_id for t in fe.energies]
        assert kinds.count("dirichlet") == 1
        assert kinds.count("gaussian_affine_variance") == 3
        assert kinds.count("wishart") == 3
        assert kinds.count("categorical") == 1
        assert kinds.count("transition") == T
        assert kinds.count("gaussian_mixture") == T
        joints = [k for k, w in fe.entropies if "&" in k and w == 1.0]
        interior = [k for k, w in fe.entropies if w == -1.0]
        singles = [k for k, w in fe.entropies if "&" not in k and w == 1.0]
        assert len(joints) == T
        assert len(interior) == T - 1
        assert sorted(singles) == sorted(["T", "m1", "m2", "m3", "W1", "W2", "W3"])

    def test_transition_energy_uses_joint(self):
        g, rf = HmgmModel().build(3)
        fe = schedule_free_energy(g, rf)
        trans = [t for t in fe.energies if t.rule_id == "transition"]
        assert all(t.slots[0][0] == "marginal" and "&" in t.slots[0][1] for t in trans)


def observed_gaussian_chain(n: int) -> FactorGraph:
    """x[0] -> x[1] -> ... -> x[n] with every state observed: sum-product
    messages along it depend on each other n deep."""
    g = FactorGraph()
    g.add_node("gaussian_mean_variance", {"out": "x[0]", "mean": 0.0, "variance": 1.0})
    for t in range(1, n + 1):
        g.add_node("gaussian_mean_variance", {"out": f"x[{t}]", "mean": f"x[{t - 1}]", "variance": 1.0})
        g.add_node("gaussian_mean_variance", {"out": f"y[{t}]", "mean": f"x[{t}]", "variance": 1.0})
        g.clamp(f"y[{t}]", 0.1 * t)
    return g


# Run in a fresh interpreter, so the recursion limit is Python's default.
LONG_CHAINS = """
import sys
from mpgraph.codegen import compile_program
from mpgraph.dsl import parse_model
from mpgraph.scheduler import default_factorization, schedule_free_energy, schedule_sum_product, schedule_vmp
from test_cli import RW_MODEL
from test_graph import descending_chain
from test_scheduler import observed_gaussian_chain

limit = sys.getrecursionlimit()
g = parse_model(RW_MODEL, {"T": 8000})
rf = default_factorization(g)
ir = compile_program(schedule_vmp(g, rf), schedule_free_energy(g, rf))
sp = schedule_sum_product(observed_gaussian_chain(8000), ["x[0]", "x[8000]"])
# built from the end: each state's support waits on the state it reads
d = descending_chain(8000)
drf = default_factorization(d)
dir_ = compile_program(schedule_vmp(d, drf), schedule_free_energy(d, drf))
print(limit, sys.getrecursionlimit(), sum(len(prog) for _, prog in ir.steps), len(sp.entries),
      len(drf.factors[0][1]), sum(len(prog) for _, prog in dir_.steps))
"""


class TestStackSafety:
    def test_recursion_limit_unchanged(self):
        limit = sys.getrecursionlimit()
        g = parse_model(RW_MODEL, {"T": 100})
        rf = default_factorization(g)
        schedules = schedule_vmp(g, rf)
        assert sys.getrecursionlimit() == limit
        fe = schedule_free_energy(g, rf)
        assert sys.getrecursionlimit() == limit
        compile_program(schedules, fe)
        assert sys.getrecursionlimit() == limit
        schedule_sum_product(observed_gaussian_chain(100), ["x[0]"])
        assert sys.getrecursionlimit() == limit

    def test_long_chains_schedule_at_the_default_recursion_limit(self):
        tests = Path(__file__).resolve().parent
        path = [str(tests.parent / "src"), str(tests), os.environ.get("PYTHONPATH", "")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
        run = subprocess.run([sys.executable, "-c", LONG_CHAINS], env=env, capture_output=True,
                             text=True, check=False)
        assert run.returncode == 0, run.stderr[-3000:]
        limit, after, instructions, entries, chain, descending = map(int, run.stdout.split())
        assert limit == after == 1000
        assert instructions > 8000 and entries > 2 * 8000
        assert chain == 8001 and descending > 8000


def _unfolded(graph, rf, ep_damping=None):
    """The schedules with every marginal taken from the two messages on its
    variable's last edge, the equality chains folded by entries."""
    registry = default_registry()
    facts = analyze_factorization(graph, rf, registry)
    return {fid: _FactorScheduler(facts, fid, fvars, registry, ep_damping, fold=False).build()
            for fid, fvars in rf.factors}


def _is_fold(entry) -> bool:
    return entry.rule_id.startswith("sum-product:equality:")


MEAN_FIELD_MODELS = {
    "walk": lambda: (*_walk(6), {}),
    "hmgm": lambda: (*HmgmModel(K=3).build(5), {}),
    "probit": lambda: (*ProbitSsmModel().build(4), {"ep_damping": 0.5}),
    "co2": lambda: (*Co2Model().build(4), {}),
}


def _walk(T):
    graph = parse_model(RW_MODEL, {"T": T})
    return graph, default_factorization(graph)


class TestMeanFieldProducts:
    @pytest.mark.parametrize("name", sorted(MEAN_FIELD_MODELS))
    def test_a_mean_field_marginal_is_one_product_in_fold_order(self, name):
        graph, rf, options = MEAN_FIELD_MODELS[name]()
        folded, unfolded = schedule_vmp(graph, rf, **options), _unfolded(graph, rf, **options)
        mean_field = 0
        for fid, fvars in rf.factors:
            got, want = folded[fid], unfolded[fid]
            if any(step.opcode == "joint" for step in want.marginal_steps):
                assert render_schedule(got) == render_schedule(want)  # chain steps as they were
                continue
            mean_field += 1
            assert not any(_is_fold(entry) for entry in got.entries)
            (step,) = got.marginal_steps
            # the other entries, renumbered, in their order
            kept = [i for i, entry in enumerate(want.entries) if not _is_fold(entry)]
            number = {("entry", old): ("entry", new) for new, old in enumerate(kept)}
            assert len(got.entries) == len(kept)
            for entry, old in zip(got.entries, kept):
                was = want.entries[old]
                assert (entry.rule_id, entry.label) == (was.rule_id, was.label)
                assert entry.slots == tuple(number.get(slot, slot) for slot in was.slots)

            def leaves(slot):  # a fold's left operand, then its right one
                if slot[0] == "entry" and _is_fold(want.entries[slot[1]]):
                    first, second = (s for s in want.entries[slot[1]].slots if s[0] != "void")
                    return leaves(first) + [second]
                return [slot]

            (was,) = want.marginal_steps
            order = [leaf for slot in was.slots[:1] for leaf in leaves(slot)] + list(was.slots[1:])
            assert step.output[1] == was.output[1] and len(step.slots) > 2
            assert step.slots == tuple(number.get(slot, slot) for slot in order)
        assert mean_field >= 1

    def test_partial_products_read_by_other_messages_keep_their_folds(self):
        # an EP site's cavity on a mean-field variable reads the partial
        # products of its equality chain
        graph = parse_model("""
x ~ GaussianMeanVariance(0.0, 1.0)
for t in 1:T {
  y[t] ~ Probit(x)
  observe y[t] :: ()
}
""", {"T": 3})
        rf = default_factorization(graph)
        assert rf.factors == [("x", ["x"])]
        got, want = schedule_vmp(graph, rf, ep_damping=0.5), _unfolded(graph, rf, ep_damping=0.5)
        assert render_schedules(got) == render_schedules(want)
        assert sum(_is_fold(entry) for entry in got["x"].entries) == 5

    def test_the_message_stack_does_not_grow_with_the_parameter_chains(self, monkeypatch):
        # the suspended ``emit`` generators waiting in ``require``, at most
        deepest = [0]
        opened = _FactorScheduler._open

        def counting(self, key, stack):
            deepest[0] = max(deepest[0], len(stack))
            return opened(self, key, stack)

        monkeypatch.setattr(_FactorScheduler, "_open", counting)
        depths = []
        for T in (10, 200):
            deepest[0] = 0
            schedule_vmp(*_walk(T))
            schedule_vmp(*HmgmModel(K=3).build(T))
            depths.append(deepest[0])
        assert depths[0] == depths[1] <= 3


def test_the_front_end_scaling_script_runs(capsys):
    # tests/scaling_front_end.py times the front end's stages by name: one small T
    callbacks = list(gc.callbacks)
    scaling_front_end.main([8])
    assert gc.callbacks == callbacks
    header, _, row = capsys.readouterr().out.splitlines()
    cells = dict(zip((c.strip() for c in header.strip("| ").split("|")),
                     (c.strip() for c in row.strip("| ").split("|"))))
    assert cells["T"] == "8" and int(cells["tracked"]) > 0
    assert all(float(cells[column]) >= 0 for column in (*scaling_front_end.COLUMNS, "total", "collector"))
    assert cells["recursion limit before"] == cells["after"]
