import ast
import inspect

import numpy as np

from divcontrol import tensor as T
from divcontrol import training
from divcontrol.gradcheck import (OP_CASES, build_case, build_e2e_case, finite_diff_check,
                                  micro_config, run_e2e_gradcheck, run_op_suite)
from divcontrol.model import route
from divcontrol.rng import fresh, stream
from divcontrol.tensor import Tensor


def test_linear_function_exact():
    x = Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
    c = Tensor(np.array([2.0, -1.0, 0.5]))

    def f():
        return T.sum_(T.mul(x, c))

    report = finite_diff_check(f, {"x": x}, h=1e-5, tol=1e-9)
    assert report.passed
    assert report.max_rel_err < 1e-9


def test_square_at_one():
    x = Tensor(np.array([1.0]), requires_grad=True)

    def f():
        return T.sum_(T.mul(x, x))

    report = finite_diff_check(f, {"x": x}, h=1e-5, tol=1e-9)
    # analytic 2 vs central diff 2 to ~1e-9
    assert report.max_rel_err < 1e-9


def test_chain_linear_softmax_dot():
    rng = np.random.default_rng(5)
    W = Tensor(rng.standard_normal((4, 4)), requires_grad=True)
    x = Tensor(rng.standard_normal(4))
    v = Tensor(rng.standard_normal(4), requires_grad=True)

    def f():
        return T.sum_(T.mul(T.softmax(T.linear(x, W)), v))

    report = finite_diff_check(f, {"W": W, "v": v}, h=1e-5, tol=1e-5)
    assert report.passed, report.per_param


def test_all_registered_ops_pass():
    reports = run_op_suite(seed=0)
    for name, rep in reports.items():
        assert rep.passed, f"{name}: {rep.max_rel_err}"


def test_property_random_shapes_100_seeds():
    # every registered case at its fixed shapes, with input values drawn
    # from a different stream for each of >= 100 seeds
    failures = []
    for seed in range(100):
        name = list(OP_CASES)[seed % len(OP_CASES)]
        f, params = build_case(name, stream(seed, "prop", name))
        rep = finite_diff_check(f, params, h=1e-5, tol=1e-5)
        if not rep.passed:
            failures.append((seed, name, rep.max_rel_err))
    assert not failures, failures


def _taped_primitives():
    """The tensor functions that call _record, read from the module source."""
    tree = ast.parse(inspect.getsource(T))
    taped = {fn.name for fn in tree.body if isinstance(fn, ast.FunctionDef)
             and any(isinstance(n, ast.Call)
                     and getattr(n.func, "id", None) == "_record"
                     for n in ast.walk(fn))}
    assert {"sqrt", "factorized_linear", "attention"} <= taped
    return taped


def _recorded(f):
    """The tensor functions whose nodes ``f()`` puts on the tape."""
    T.clear_tape()
    f()
    # a VJP defined inside tensor.sqrt has __qualname__ "sqrt.<locals>..."
    names = {vjp.__qualname__.split(".")[0] for _, _, vjp in T._TAPE.nodes}
    T.clear_tape()
    return names


def test_every_taped_primitive_has_a_case():
    recorded = set()
    for name in OP_CASES:
        recorded |= _recorded(build_case(name, stream(0, "gradcheck", name))[0])
    assert _taped_primitives() - recorded == set()


def _training_step(bundle, cond_idx, drop_gen=None):
    """Routing and objective of one step, on random images and noise;
    returns l_total."""
    gen = np.random.default_rng(0)
    shape = (len(cond_idx),) + (bundle.cfg.image_size,) * 2
    rows, _ = training._routing_rows(bundle, cond_idx)
    t_idx = gen.integers(0, bundle.cfg.timesteps, len(cond_idx))
    return training._objective(bundle, gen.random(shape), gen.random(shape), t_idx,
                               gen.standard_normal(shape), rows, drop_gen)[2]


def test_model_records_every_taped_primitive():
    # the converse: a primitive that no training or routing path records
    # is dead code
    cfg = micro_config()
    diversion = training.build_diversion_bundle(cfg)
    adapt = training._bundle(cfg.replace(mode="adapt_frozen"), fresh)
    recorded = (_recorded(lambda: _training_step(diversion, np.array([0, 2, 2])))
                | _recorded(lambda: _training_step(adapt, np.array([0, 0])))
                | _recorded(lambda: route(diversion.gate, diversion.embeddings[1])))
    assert _taped_primitives() - recorded == set()


def test_frozen_tensors_get_no_gradient_and_trainable_ones_are_unchanged():
    # backward computes no gradient for frozen parameters, constant inputs
    # or dropout masks; the gradients it does compute are bit-identical to
    # those of a pass in which every parameter needs one
    cfg = micro_config().replace(mode="adapt_frozen", dropout=0.5)
    bundle = training._bundle(cfg, fresh)
    params = bundle.params()
    trainable = set(bundle.trainable_params())

    def grads():
        T.zero_grads(params.values())
        T.backward(_training_step(bundle, np.array([0, 0]), stream(0, "drop")))
        return {k: p.grad for k, p in params.items()}

    skipped = grads()
    assert trainable and trainable != set(params)
    for p in params.values():
        p.requires_grad = True
    full = grads()
    for k in params:
        if k in trainable:
            assert np.array_equal(skipped[k], full[k]), k
        else:
            assert skipped[k] is None and full[k] is not None, k


def test_coordinate_subsampling_is_deterministic():
    rng = np.random.default_rng(9)
    x = Tensor(rng.standard_normal(50), requires_grad=True)

    def f():
        return T.sum_(T.tanh(x))

    r1 = finite_diff_check(f, {"x": x}, max_coords_per_param=10,
                           rng=np.random.default_rng(1))
    r2 = finite_diff_check(f, {"x": x}, max_coords_per_param=10,
                           rng=np.random.default_rng(1))
    assert r1.n_coords == r2.n_coords == 10
    assert r1.max_rel_err == r2.max_rel_err


def test_e2e_gradcheck_subsampled():
    rep = run_e2e_gradcheck(max_coords_per_param=3)
    assert rep.passed, rep.max_rel_err
    assert rep.n_coords >= 200


def test_e2e_gradcheck_perturbations_keep_each_conditions_active_set(monkeypatch):
    # the check differentiates L with each condition's top-K selection held
    # fixed: a perturbation that re-ranked near-tied scores would drop a
    # tailor from g and make L jump. Every evaluation must select, for each
    # condition, the tailors the unperturbed loss selects
    selected, topk_select = [], training.topk_select

    def spy(alpha, gate):
        g, active = topk_select(alpha, gate)
        selected.append(active)
        return g, active

    monkeypatch.setattr(training, "topk_select", spy)
    with T.no_grad():
        build_e2e_case()[0]()
    unperturbed, selected[:] = selected[:], []
    rep = run_e2e_gradcheck(max_coords_per_param=3)
    assert len(unperturbed) == 2   # conditions 0 and 2
    # one evaluation for the analytic gradient, four per coordinate
    assert selected == unperturbed * (1 + 4 * rep.n_coords)
