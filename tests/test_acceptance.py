"""Acceptance suite: every criterion runs at its stated tolerance and prints
one pass/fail line (run with ``pytest tests/test_acceptance.py -s``)."""

import time

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from mpgraph.codegen import Interpreter, compile_program
from mpgraph.distributions import GaussianMeanVariance, PointMass, product
from mpgraph.engine import (
    DirectExecutor,
    init_marginals,
    predictive_score,
    run_inference,
    streaming_update,
)
from mpgraph.graph import FactorGraph
from mpgraph.models import (
    Co2Model,
    HmgmModel,
    LgssmModel,
    ProbitSsmModel,
    RandomWalkModel,
    hmgm_true_parameters,
    sample_generative,
    sample_random_walk_continuations,
)
from mpgraph.rules import CAVITY, MESSAGE, default_registry, make_gain_equality_rule
from mpgraph.scheduler import (
    RecognitionFactorization,
    default_factorization,
    schedule_free_energy,
    schedule_sum_product,
    schedule_vmp,
)

REG = default_registry()


def report(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"\n[ACCEPTANCE {number:02d}] {name}: {status}  {detail}")
    assert ok, f"criterion {number} ({name}): {detail}"


def kalman_smoother_oracle(ys, m0, v0, a, q, h, r):
    """Independent filter/smoother implementation (textbook recursions)."""
    T = len(ys)
    mfs, vfs = [], []
    m, v = m0.copy(), v0.copy()
    for t in range(T):
        mp, vp = a @ m, a @ v @ a.T + q
        s = float(h @ vp @ h) + r
        k = vp @ h / s
        m = mp + k * (ys[t] - float(h @ mp))
        v = vp - np.outer(k, h @ vp)
        mfs.append(m.copy())
        vfs.append(v.copy())
    ms, vs = [None] * T, [None] * T
    ms[-1], vs[-1] = mfs[-1], vfs[-1]
    for t in range(T - 2, -1, -1):
        vp = a @ vfs[t] @ a.T + q
        c = vfs[t] @ a.T @ np.linalg.inv(vp)
        ms[t] = mfs[t] + c @ (ms[t + 1] - a @ mfs[t])
        vs[t] = vfs[t] + c @ (vs[t + 1] - vp) @ c.T
    return ms, vs


def build_clamped_lgssm(T, a, w, u, m0, v0):
    g = FactorGraph()
    g.add_node("gaussian_mean_variance",
               {"out": "x[0]", "mean": m0.tolist(), "variance": v0.tolist()})
    for t in range(1, T + 1):
        g.add_node("gain", {"out": f"m[{t}]", "in": f"x[{t-1}]"}, {"matrix": a})
        g.add_node("gaussian_mean_precision",
                   {"out": f"x[{t}]", "mean": f"m[{t}]", "precision": w.tolist()})
        g.add_node("gain", {"out": f"r[{t}]", "in": f"x[{t}]"}, {"matrix": [[1.0, 0.0]]})
        g.add_node("gaussian_mean_precision",
                   {"out": f"y[{t}]", "mean": f"r[{t}]", "precision": u})
        g.observe(f"y[{t}]", "y", t, ())
    rf = RecognitionFactorization([("X", [f"x[{t}]" for t in range(T + 1)])])
    return g, rf


def test_criterion_01_kalman_equivalence():
    T = 50
    rng = np.random.default_rng(101)
    angle = np.pi / 12
    a = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
    w, u = 50.0 * np.eye(2), 50.0
    m0, v0 = np.array([5.0, 0.0]), 100.0 * np.eye(2)
    x = m0.copy()
    ys = []
    for _ in range(T):
        x = a @ x + rng.multivariate_normal(np.zeros(2), np.linalg.inv(w))
        ys.append(float(x[0]) + rng.normal(0, np.sqrt(1 / u)))
    ys = np.asarray(ys)

    start = time.perf_counter()
    g, rf = build_clamped_lgssm(T, a, w, u, m0, v0)
    schedules = schedule_vmp(g, rf)
    marg = init_marginals(g, rf)
    DirectExecutor(schedules).run_iteration({"y": ys}, marg)
    elapsed = time.perf_counter() - start

    ms, vs = kalman_smoother_oracle(ys, m0, v0, a, np.linalg.inv(w), np.array([1.0, 0.0]), 1 / u)
    err_m = max(np.max(np.abs(marg[f"x[{t+1}]"].mean_vector() - ms[t])) for t in range(T))
    err_v = max(np.max(np.abs(marg[f"x[{t+1}]"].covariance_matrix() - vs[t])) for t in range(T))
    ok = err_m < 1e-8 and err_v < 1e-8 and elapsed < 1.0
    report(1, "kalman equivalence", ok,
           f"mean err {err_m:.2e}, cov err {err_v:.2e}, runtime {elapsed:.2f}s")


def test_criterion_02_evidence_identity():
    start = time.perf_counter()
    g = FactorGraph()
    g.add_node("gaussian_mean_variance", {"out": "x", "mean": 0.0, "variance": 1.0})
    g.add_node("gaussian_mean_precision", {"out": "y", "mean": "x", "precision": 1.0})
    g.observe("y", "y", 1, ())
    rf = RecognitionFactorization([("X", ["x"])])
    res = run_inference(g, rf, {"y": np.array([0.0])}, max_iters=1)
    elapsed = time.perf_counter() - start
    f = res.free_energy_trace[0]
    target = float(0.5 * np.log(4 * np.pi))
    ok = abs(f - target) < 1e-8 and elapsed < 0.1
    report(2, "evidence identity", ok,
           f"F={f!r} vs {target!r}, runtime {elapsed * 1000:.0f}ms")


def test_criterion_03_free_energy_descent():
    start = time.perf_counter()
    data, _ = sample_generative("hmgm", seed=7)
    model = HmgmModel()
    g, rf = model.build(50)
    res = run_inference(g, rf, data, overrides=model.initial_marginals(50, data),
                        max_iters=20, tol=0)
    f_h = np.asarray(res.free_energy_trace)
    mono_h = bool(np.all(np.diff(f_h) <= 1e-9))
    rel = np.abs(np.diff(f_h)) / (np.abs(f_h[1:]) + 1e-12)
    fast = bool(np.any(rel[:10] < 1e-4))

    data_rw, _ = sample_generative("random-walk", seed=3)
    rw = RandomWalkModel()
    g2, rf2 = rw.build(50)
    res2 = run_inference(g2, rf2, data_rw, overrides=rw.initial_marginals(50),
                         max_iters=50, tol=0)
    f_r = np.asarray(res2.free_energy_trace)
    mono_r = bool(np.all(np.diff(f_r) <= 1e-9))
    elapsed = time.perf_counter() - start
    ok = mono_h and fast and mono_r and elapsed < 30.0
    report(3, "free-energy descent", ok,
           f"hmgm monotone={mono_h}, rel<1e-4 within 10 iters={fast}, "
           f"random-walk monotone={mono_r}, runtime {elapsed:.1f}s")


def test_criterion_04_hmgm_recovery():
    data, truth = sample_generative("hmgm", seed=7)
    model = HmgmModel()
    g, rf = model.build(50)
    res = run_inference(g, rf, data, overrides=model.initial_marginals(50, data),
                        max_iters=20, tol=1e-6)
    true_means, _, _ = hmgm_true_parameters()
    post_means = np.array([res.marginals[f"m{i}"].mean_vector() for i in (1, 2, 3)])
    cost = np.linalg.norm(true_means[:, None, :] - post_means[None, :, :], axis=2)
    rows, cols = linear_sum_assignment(cost)
    within = True
    for k, j in zip(rows, cols):
        sd = np.sqrt(np.diag(res.marginals[f"m{j+1}"].covariance_matrix()))
        within &= bool(np.all(np.abs(post_means[j] - true_means[k]) <= 2.0 * sd))
    e_t = res.marginals["T"].mean()
    inv = np.empty(3, dtype=int)
    inv[cols] = rows
    clockwise = [float(e_t[np.where(inv == (inv[j] + 1) % 3)[0][0], j]) for j in range(3)]
    cw_ok = all(m > 0.5 for m in clockwise)
    report(4, "hmgm recovery", within and cw_ok,
           f"means within 2sd={within}, clockwise mass={np.round(clockwise, 2).tolist()}")


def test_criterion_05_conjugate_bookkeeping():
    data, _ = sample_generative("lgssm-softplus", seed=1)
    model = LgssmModel(nonlinear=False)
    g, rf = model.build(48)
    res = run_inference(g, rf, data, overrides=model.initial_marginals(48),
                        max_iters=25, tol=1e-8)
    a_prior, nu_prior = 1.0, 2.0
    a_post = res.marginals["u"].shape
    nu_post = res.marginals["W"].dof
    ok = (a_post == a_prior + 24.0) and (nu_post == nu_prior + 48.0)
    report(5, "conjugate bookkeeping", ok,
           f"q(u) shape {a_post} == {a_prior}+24; q(W) dof {nu_post} == {nu_prior}+48")


def test_criterion_06_nonlinear_model_wins():
    start = time.perf_counter()
    wins = 0
    for seed in range(10):
        data, _ = sample_generative("lgssm-softplus", seed=seed)
        finals = {}
        for nonlinear in (False, True):
            model = LgssmModel(nonlinear=nonlinear)
            g, rf = model.build(48)
            res = run_inference(g, rf, data, overrides=model.initial_marginals(48),
                                max_iters=35, tol=1e-9)
            finals[nonlinear] = res.free_energy_trace[-1]
        wins += finals[True] < finals[False]
    elapsed = time.perf_counter() - start
    ok = wins >= 9 and elapsed < 60.0
    report(6, "nonlinear model wins", ok, f"{wins}/10 seeds, runtime {elapsed:.1f}s")


def test_criterion_07_probit_ep():
    # tilted moments against 200-node Gauss-Hermite quadrature
    from scipy.stats import norm

    nodes, weights = np.polynomial.hermite.hermgauss(200)
    rule = REG.lookup("probit", "in", [(MESSAGE, PointMass), (CAVITY, GaussianMeanVariance)])
    worst = 0.0
    for mu in range(-5, 6):
        for s2 in (0.01, 0.1, 1.0, 25.0):
            for y in (1.0, -1.0):
                r = mu + np.sqrt(2.0 * s2) * nodes
                f = norm.cdf(y * r)
                wgt = weights / np.sqrt(np.pi)
                z = np.sum(wgt * f)
                mean_o = np.sum(wgt * f * r) / z
                var_o = np.sum(wgt * f * r**2) / z - mean_o**2
                out = rule.apply([PointMass(y), GaussianMeanVariance(float(mu), s2)], {})
                worst = max(worst, abs(out.info["tilted_mean"] - mean_o),
                            abs(out.info["tilted_var"] - var_o))
    moments_ok = worst < 1e-6

    stable = 0
    model = ProbitSsmModel()
    for seed in range(10):
        data, _ = sample_generative("probit-ssm", seed=seed)
        g, rf = model.build(96)
        res = run_inference(g, rf, data, overrides=model.initial_marginals(96),
                            max_iters=90, tol=3e-4, ep_damping=0.5)
        trace = np.asarray(res.free_energy_trace)
        finite = bool(np.all(np.isfinite(trace)))
        tail = np.abs(np.diff(trace[-6:])) / (np.abs(trace[-5:]) + 1e-12)
        stable += finite and (res.converged or bool(np.all(tail < 1e-3)))
    ok = moments_ok and stable >= 9
    report(7, "probit EP", ok,
           f"max tilted-moment error {worst:.2e}; hybrid stabilized {stable}/10 seeds")


def test_criterion_08_gain_equality_composite():
    worst, max_dim = 0.0, 0
    for d in (1, 2, 10, 50):
        rng = np.random.default_rng(d)
        a = rng.normal(size=(d, d))
        v = a @ a.T + 0.5 * np.eye(d)
        m = rng.normal(size=d)
        b = np.zeros(d)
        b[0] = 1.0
        my, vy = float(rng.normal()), 0.7
        rule = make_gain_equality_rule(f"GEacc{d}", [b.tolist()])
        out = rule.apply([GaussianMeanVariance(my, vy), GaussianMeanVariance(m, v), None], {})
        w_dense = np.linalg.inv(v) + np.outer(b, b) / vy
        cov_o = np.linalg.inv(w_dense)
        mean_o = cov_o @ (np.linalg.solve(v, m) + b * my / vy)
        worst = max(worst,
                    float(np.max(np.abs(out.dist.mean_vector() - mean_o))),
                    float(np.max(np.abs(out.dist.covariance_matrix() - cov_o))))
        max_dim = max(max_dim, out.info["max_solve_dim"])
    ok = worst < 1e-8 and max_dim <= 1
    report(8, "gain-equality composite", ok,
           f"max deviation from dense composition {worst:.2e}, max solve dim {max_dim}")


def _fidelity_case(graph, rf, data, overrides=None, iterations=2, ep_damping=None):
    registry = default_registry()
    schedules = schedule_vmp(graph, rf, registry=registry, ep_damping=ep_damping)
    fe = schedule_free_energy(graph, rf, registry=registry)

    direct = DirectExecutor(schedules, fe, registry)
    m1 = init_marginals(graph, rf, overrides)
    for _ in range(iterations):
        direct.run_iteration(data, m1)
    f1 = direct.free_energy(data, m1)

    interp = Interpreter(compile_program(schedules, fe), registry)
    m2 = init_marginals(graph, rf, overrides)
    for _ in range(iterations):
        interp.run_iteration(data, m2)
    f2 = interp.free_energy(data, m2)

    identical = f1 == f2 and m1.keys() == m2.keys() and all(
        m1[k].to_json() == m2[k].to_json() for k in m1
    )
    return identical


def test_criterion_09_compiler_fidelity():
    rng = np.random.default_rng(909)
    all_ok = True
    for _ in range(10):
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
        all_ok &= _fidelity_case(g, default_factorization(g), data)

    demo_cases = []
    data, _ = sample_generative("hmgm", seed=5)
    model = HmgmModel()
    demo_cases.append((*model.build(50), data, model.initial_marginals(50, data), None))
    data, _ = sample_generative("lgssm-softplus", seed=5)
    for nl in (False, True):
        model = LgssmModel(nonlinear=nl)
        demo_cases.append((*model.build(48), data, model.initial_marginals(48), None))
    data, _ = sample_generative("probit-ssm", seed=5)
    model = ProbitSsmModel()
    demo_cases.append((*model.build(96), data, model.initial_marginals(96), 0.5))
    data, _ = sample_generative("random-walk", seed=5)
    model = RandomWalkModel()
    demo_cases.append((*model.build(50), data, model.initial_marginals(50), None))
    data, _ = sample_generative("co2-synthetic", seed=5, T=24)
    model = Co2Model()
    demo_cases.append((*model.build(24), data, model.initial_marginals(24), None))
    for g, rf, data, overrides, damping in demo_cases:
        all_ok &= _fidelity_case(g, rf, data, overrides, ep_damping=damping)
    report(9, "compiler fidelity", all_ok,
           "interpret(compile(S)) bit-identical to direct execution on 10 random "
           "conjugate models and all demo models")


def test_criterion_10_scheduler_golden():
    g = FactorGraph()
    g.add_node("gaussian_mean_variance", {"out": "x1", "mean": 0.0, "variance": 1.0})
    g.add_node("gaussian_mean_variance", {"out": "x2", "mean": "x1", "variance": 1.0})
    g.add_node("addition", {"out": "x3", "in1": "x2", "in2": "x4"})
    g.add_node("gaussian_mean_variance", {"out": "x5", "mean": "x4", "variance": 1.0})
    g.clamp("x5", 1.7)
    s = schedule_sum_product(g, ["x2"])
    four = len(s.entries) == 4
    topo = s.check_topological()
    marginal = list(s.marginal_steps[0].slots) == [("entry", 1), ("entry", 3)]
    report(10, "scheduler golden test", four and topo and marginal,
           f"messages={len(s.entries)}, backward-only={topo}, marginal=msg2*msg4={marginal}")


def test_criterion_11_streaming_consistency():
    class MeanTemplate:
        def build(self, T, priors):
            g = FactorGraph()
            prior = priors.get("m")
            mean = prior.mean_vector().tolist() if prior else [0.0]
            var = prior.covariance_matrix().tolist() if prior else [[100.0]]
            g.add_node("gaussian_mean_variance", {"out": "m", "mean": mean, "variance": var})
            for t in range(1, T + 1):
                g.add_node("gaussian_mean_precision",
                           {"out": f"y[{t}]", "mean": "m", "precision": 1.0})
                g.observe(f"y[{t}]", "y", t, ())
            return g, RecognitionFactorization([("M", ["m"])])

    rng = np.random.default_rng(11)
    ys = rng.normal(0.7, 1.0, size=25)
    template = MeanTemplate()
    batches = [{"y": ys[i * 5:(i + 1) * 5]} for i in range(5)]
    streamed = streaming_update(template, batches, iters_per_batch=4)
    g, rf = template.build(25, {})
    batch = run_inference(g, rf, {"y": ys}, max_iters=4)
    m_s, m_b = streamed[-1].marginals["m"], batch.marginals["m"]
    param_ok = (
        abs(m_s.mean_vector()[0] - m_b.mean_vector()[0]) < 1e-8
        and abs(m_s.covariance_matrix()[0, 0] - m_b.covariance_matrix()[0, 0]) < 1e-8
    )

    series = sample_generative("co2-synthetic", seed=8)[0]["y"]
    model = Co2Model()
    co2_batches = [{"y": series[i * 24:(i + 1) * 24]} for i in range(8)]

    def overrides_fn(batch, priors):
        if not priors:
            return model.initial_marginals(24)
        return {k: v for k, v in priors.items() if k in ("d", "gamma", "W", "u")}

    results = streaming_update(model, co2_batches[:6], iters_per_batch=25, tol=1e-7,
                               overrides_fn=overrides_fn)
    last = results[-1]
    anchors = ((last.marginals["z[24]"].mean_vector(), last.marginals["z[24]"].covariance_matrix()),
               (last.marginals["x[24]"].mean_vector(), last.marginals["x[24]"].covariance_matrix()))
    held = series[144:].reshape(1, -1)
    post = {k: last.marginals[k] for k in ("d", "gamma", "W", "u")}
    q_post = predictive_score(post, lambda p: Co2Model.predictive_pieces(p, anchors),
                              held, samples=100, seed=9)
    init = model.initial_marginals(24)
    vague_anchors = ((np.array([series[0]]), np.array([[1e6]])), (np.zeros(2), 1e6 * np.eye(2)))
    q_init = predictive_score(init, lambda p: Co2Model.predictive_pieces(p, vague_anchors),
                              held, samples=100, seed=9)
    co2_ok = len(results) == 6 and q_post > q_init
    report(11, "streaming consistency", param_ok and co2_ok,
           f"parameter streaming == batch: {param_ok}; co2 held-out "
           f"{q_post:.2f} > untrained {q_init:.2f}")


def test_criterion_12_predictive_metric():
    data, truth = sample_generative("random-walk", seed=3)
    model = RandomWalkModel()
    g, rf = model.build(50)
    init = model.initial_marginals(50)
    res = run_inference(g, rf, data, overrides=init, max_iters=50, tol=1e-8)
    held = sample_random_walk_continuations(1203, truth["x"][-1], 1000, 20,
                                            drift=truth["d"], w=truth["w"], u=truth["u"])
    anchor = (res.marginals["x[50]"].mean_vector(), res.marginals["x[50]"].covariance_matrix())
    post = {k: res.marginals[k] for k in ("d", "w", "u")}
    q_post = predictive_score(post, lambda p: RandomWalkModel.predictive_pieces(p, anchor),
                              held, samples=1000, seed=12)
    vague_anchor = (np.zeros(1), np.array([[1e6]]))
    q_init = predictive_score(init, lambda p: RandomWalkModel.predictive_pieces(p, vague_anchor),
                              held, samples=1000, seed=12)
    report(12, "predictive metric", q_post > q_init,
           f"Q posterior {q_post:.3f} > Q initial {q_init:.3f} (S=N=1000, horizon 20)")
