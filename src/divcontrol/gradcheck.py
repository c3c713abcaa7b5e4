"""Finite-difference verification of reverse-mode gradients.

``finite_diff_check`` compares the tape's analytic gradients against
Richardson-extrapolated central differences coordinate by coordinate and
reports the worst relative error.

``OP_CASES`` is the table of registered cases: one row per case, naming
its inputs in draw order and its loss. Together the rows record exactly
the primitives the model records, which are all the functions in
``tensor`` that put a node on the tape, plus composite paths.
``build_case`` turns a row into a loss closure and the inputs that need a
gradient, drawing the inputs from the case's own stream; ``run_op_suite``
checks every row.

``run_e2e_gradcheck`` checks the objective training runs on,
``training._objective`` (denoising MSE through the gated factorized
branch, plus weighted alignment), at the one-layer ``micro_config``,
small enough that every coordinate can be finite-differenced. At the
default step every coordinate passes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .conditions import apply_condition, default_registry, render_images
from .config import resolve_config
from .errors import ContractError
from .rng import stream
from .tensor import Tensor
from .training import _objective, _routing_rows, build_diversion_bundle

REL_FLOOR = 1e-8  # denominator floor so exact-zero gradients compare cleanly


@dataclass
class GradCheckReport:
    max_rel_err: float
    tol: float
    per_param: dict = field(default_factory=dict)
    n_coords: int = 0

    @property
    def passed(self) -> bool:
        return self.max_rel_err <= self.tol


def finite_diff_check(f, params, h: float = 1e-5, tol: float = 1e-5,
                      max_coords_per_param: int | None = None,
                      rng: np.random.Generator | None = None) -> GradCheckReport:
    """Compare analytic gradients of ``f()`` against central differences
    extrapolated over steps ``h`` and ``h/2``.

    With D(s) = (f(x + s) - f(x - s)) / 2s, the estimate (4 D(h/2) - D(h)) / 3
    cancels the h^2 term of the truncation error, so a step large enough to
    keep round-off small on near-zero gradients stays accurate.

    Args:
        f: zero-argument callable returning a scalar Tensor; it must read
            the parameter tensors so perturbations are visible.
        params: dict name -> Tensor of the leaves to check.
        h: the larger central-difference step.
        tol: pass threshold on the max relative error.
        max_coords_per_param: optionally subsample coordinates of large
            parameters (deterministic given ``rng``); None checks all.
    """
    if h <= 0:
        raise ContractError("h must be positive")
    T.clear_tape()
    T.zero_grads(params)
    loss = f()
    T.backward(loss)
    analytic = {k: (np.zeros_like(p.data) if p.grad is None else p.grad.copy())
                for k, p in params.items()}
    T.zero_grads(params)

    report = GradCheckReport(max_rel_err=0.0, tol=tol)
    with T.no_grad():
        for name, p in params.items():
            flat = p.data.reshape(-1)
            n = flat.size
            if max_coords_per_param is not None and n > max_coords_per_param:
                if rng is None:
                    rng = np.random.default_rng(0)
                coords = rng.choice(n, size=max_coords_per_param, replace=False)
                coords = np.sort(coords)
            else:
                coords = range(n)
            worst = 0.0
            ga = analytic[name].reshape(-1)
            for i in coords:
                orig = flat[i]
                diff = []
                for step in (h, h / 2):
                    flat[i] = orig + step
                    fp = f().item()
                    flat[i] = orig - step
                    fm = f().item()
                    diff.append((fp - fm) / (2.0 * step))
                flat[i] = orig
                num = (4.0 * diff[1] - diff[0]) / 3.0
                denom = max(abs(num), abs(ga[i]), REL_FLOOR)
                rel = abs(ga[i] - num) / denom
                worst = max(worst, rel)
                report.n_coords += 1
            report.per_param[name] = worst
            report.max_rel_err = max(report.max_rel_err, worst)
    return report


# ----------------------------------------------------------------------
# registered differentiable-op cases
# ----------------------------------------------------------------------

def _leaf(make):
    """An input drawn by ``make(stream)`` that needs a gradient."""
    return lambda rngen: Tensor(make(rngen), requires_grad=True)


def _const(*shape):
    """A standard-normal input that needs no gradient."""
    return lambda rngen: Tensor(rngen.standard_normal(shape))


def _sq(y):
    return T.mul(y, y)


# tailor 1 is inactive in every row of the factorized_linear case's
# per-row coefficients, and tailor 2 in one row
_ACTIVE = np.array([[[1.0, 0.0, 1.0]], [[1.0, 0.0, 0.0]]])

# name -> (inputs in draw order, loss). An input is a shape, drawn as a
# standard-normal leaf that needs a gradient, or a callable that makes its
# tensor from the case's stream. The loss takes the inputs by name.
OP_CASES = {
    "elementwise": (
        {"a": (3, 4), "b": (3, 4), "c": (4,)},
        lambda a, b, c: T.sum_(_sq(T.mul(T.add(T.add(T.mul(a, b), c), T.mul(
            T.div(a, T.add(T.mul(b, b), 2.0)), -1.0)), 0.5)))),
    "linear": (
        {"x": (2, 5, 4), "w": (3, 4)},
        lambda x, w: T.sum_(T.tanh(T.linear(x, w)))),
    "softmax_dot": (
        {"z": (6,), "v": (6,)},
        lambda z, v: T.sum_(T.mul(T.softmax(z), v))),
    "softmax_axes": (
        {"z": (2, 3, 4), "w": (2, 3, 4)},
        lambda z, w: T.sum_(T.mul(T.softmax(z), w))),
    "layer_norm": (
        {"x": (3, 5), "g": _leaf(lambda r: 1.0 + 0.1 * r.standard_normal(5)),
         "b": (5,)},
        lambda x, g, b: T.sum_(_sq(T.layer_norm(x, g, b)))),
    "gelu": (
        {"x": (4, 4)},
        lambda x: T.mean_(T.gelu(x))),
    "reductions": (
        {"x": (3, 4)},
        lambda x: T.add(T.sum_(T.sum_(x, axis=0)), T.sum_(T.mul(x, T.mean_(x))))),
    "shape_ops": (
        {"x": (2, 4), "y": (3, 4)},
        lambda x, y: T.sum_(T.mul(T.concat([x, y]), 0.5))),
    "gather_rows": (
        {"table": (5, 3)},
        lambda table: T.sum_(_sq(T.gather_rows(table, np.array([0, 2, 2, 4]))))),
    "sqrt_clamp": (
        {"x": _leaf(lambda r: np.abs(r.standard_normal((3, 3))) + 0.5)},
        lambda x: T.sum_(T.add(T.sqrt(x), T.clamp_min(x, 0.1)))),
    # linear -> softmax -> inner product, the classic composite
    "chain": (
        {"w": (4, 4), "x": _const(4), "v": (4,)},
        lambda w, x, v: T.sum_(T.mul(T.softmax(T.linear(x, w)), v))),
    # the output is linear in each input, so a loss linear in the output
    # makes central differences exact up to round-off
    "factorized_linear": (
        {"x": (2, 3, 5), "u_g": (4, 2), "s_g": (2,), "v_g": (5, 2),
         "u_t": (4, 3), "s_t": (3,), "v_t": (5, 3),
         "c": _leaf(lambda r: r.standard_normal((2, 1, 3)) * _ACTIVE),
         "w": _const(2, 3, 4)},
        lambda x, u_g, s_g, v_g, u_t, s_t, v_t, c, w: T.sum_(T.mul(
            T.factorized_linear(x, u_g, s_g, v_g, u_t, s_t, v_t, c), w))),
    # no tailors: an empty tailor block with (3, 0) coefficient rows
    "factorized_zero_tailor": (
        {"x": (3, 5), "u_g": (4, 3), "s_g": (3,), "v_g": (5, 3),
         "u_t": (4, 0), "s_t": (0,), "v_t": (5, 0), "c": (3, 0)},
        lambda x, u_g, s_g, v_g, u_t, s_t, v_t, c: T.sum_(_sq(
            T.factorized_linear(x, u_g, s_g, v_g, u_t, s_t, v_t, c)))),
    "attention": (
        {"q": (2, 4, 3), "k": (2, 4, 3), "v": (2, 4, 2), "w": _const(2, 4, 2)},
        lambda q, k, v, w: T.sum_(T.mul(T.attention(q, k, v, 0.7), w))),
}


def build_case(name: str, rngen: np.random.Generator):
    """Draw the inputs of ``OP_CASES[name]`` from ``rngen`` in table order.

    Returns ``(f, params)``: ``f()`` evaluates the case's loss on the drawn
    inputs, and ``params`` maps each input that needs a gradient to its
    tensor.
    """
    spec, loss = OP_CASES[name]
    inputs = {k: make(rngen) if callable(make)
              else Tensor(rngen.standard_normal(make), requires_grad=True)
              for k, make in spec.items()}
    params = {k: t for k, t in inputs.items() if t.requires_grad}
    return (lambda: loss(**inputs)), params


def run_op_suite(seed: int = 0, h: float = 1e-5, tol: float = 1e-5) -> dict:
    """Run every registered op case; returns name -> GradCheckReport."""
    out = {}
    for name in OP_CASES:
        f, params = build_case(name, stream(seed, "gradcheck", name))
        out[name] = finite_diff_check(f, params, h=h, tol=tol)
    return out


# ----------------------------------------------------------------------
# the end-to-end objective
# ----------------------------------------------------------------------

def micro_config(seed: int = 0):
    """The one-layer config of the end-to-end check."""
    return resolve_config(overrides=dict(
        seed=seed, image_size=8, patch_size=4, token_dim=16, mlp_hidden=32,
        layers=1, controlnet_layers=1, timesteps=10, repa_layer=1, repa_dim=8,
        repa_hidden=12, embed_dim=16, n_learngene=4, n_tailor=4, top_k=2,
        dropout=0.0, batch_size=2, dataset_size=4))


def build_e2e_case(seed: int = 0):
    """(loss closure, params) for the one-layer end-to-end objective."""
    cfg = micro_config(seed)
    bundle = build_diversion_bundle(cfg)
    registry = default_registry()
    gen = stream(seed, "e2e-data")
    x0 = render_images(seed, 0, 2, cfg.image_size)
    cond_idx = np.array([0, 2])
    x_cond = np.concatenate([apply_condition(x0[i:i + 1], registry[c])
                             for i, c in enumerate(cond_idx)])
    t_idx = gen.integers(0, cfg.timesteps, 2)
    eps = gen.standard_normal(x0.shape)
    # make routing non-uniform so selection is meaningful, then freeze it
    bundle.gate.w2.data = 0.3 * gen.standard_normal(bundle.gate.w2.shape)
    with T.no_grad():
        _, frozen_active = _routing_rows(bundle, cond_idx, record=False)
    # pin the active set: selection is treated as a constant per step
    mask = np.zeros(bundle.gate.n_tailor)
    mask[list(frozen_active)] = 1.0

    def loss():
        rows, _ = _routing_rows(bundle, cond_idx, record=False)
        return _objective(bundle, x0, x_cond, t_idx, eps, T.mul(rows, mask))[2]

    return loss, bundle.params()


def run_e2e_gradcheck(seed: int = 0, h: float = 4e-3, tol: float = 1e-5,
                      max_coords_per_param: int | None = None) -> GradCheckReport:
    loss, params = build_e2e_case(seed)
    rng = np.random.default_rng(seed)
    return finite_diff_check(loss, params, h=h, tol=tol,
                             max_coords_per_param=max_coords_per_param, rng=rng)
