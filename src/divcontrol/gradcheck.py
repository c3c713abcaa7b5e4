"""Finite-difference verification of reverse-mode gradients.

``finite_diff_check`` compares the tape's analytic gradients against
central differences coordinate by coordinate and reports the worst
relative error. The registered case list below covers every
differentiable primitive plus composite paths; the ``gradcheck`` CLI
subcommand and the acceptance suite both run it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .errors import ContractError
from .rng import stream
from .tensor import Tensor

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
    """Compare analytic gradients of ``f()`` against central differences.

    Args:
        f: zero-argument callable returning a scalar Tensor; it must read
            the parameter tensors so perturbations are visible.
        params: dict name -> Tensor of the leaves to check.
        h: central-difference step.
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
                flat[i] = orig + h
                fp = f().item()
                flat[i] = orig - h
                fm = f().item()
                flat[i] = orig
                num = (fp - fm) / (2.0 * h)
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

def _rand(rngen, *shape):
    return Tensor(rngen.standard_normal(shape), requires_grad=True)


def _case_elementwise(rngen):
    a = _rand(rngen, 3, 4)
    b = _rand(rngen, 3, 4)
    c = _rand(rngen, 4)

    def f():
        y = (a * b + c - a / (T.exp(b) + 2.0)) * 0.5
        return T.sum_(y * y)

    return f, {"a": a, "b": b, "c": c}


def _case_matmul(rngen):
    a = _rand(rngen, 3, 4)
    b = _rand(rngen, 4, 5)

    def f():
        return T.sum_(T.matmul(a, b))

    return f, {"a": a, "b": b}


def _case_batched_matmul(rngen):
    a = _rand(rngen, 2, 3, 4)
    b = _rand(rngen, 4, 5)
    c = _rand(rngen, 2, 5, 3)

    def f():
        y = T.matmul(T.matmul(a, b), c)
        return T.mean_(y * y)

    return f, {"a": a, "b": b, "c": c}


def _case_linear(rngen):
    x = _rand(rngen, 2, 5, 4)
    w = _rand(rngen, 3, 4)

    def f():
        return T.sum_(T.tanh(T.linear(x, w)))

    return f, {"x": x, "w": w}


def _case_softmax_dot(rngen):
    z = _rand(rngen, 6)
    v = _rand(rngen, 6)

    def f():
        return T.dot(T.softmax(z), v)

    return f, {"z": z, "v": v}


def _case_softmax_axes(rngen):
    z = _rand(rngen, 2, 3, 4)
    w = _rand(rngen, 2, 3, 4)

    def f():
        return T.sum_(T.softmax(z, axis=-1) * w)

    return f, {"z": z, "w": w}


def _case_layer_norm(rngen):
    x = _rand(rngen, 3, 5)
    g = Tensor(1.0 + 0.1 * rngen.standard_normal(5), requires_grad=True)
    b = _rand(rngen, 5)

    def f():
        y = T.layer_norm(x, g, b)
        return T.sum_(y * y)

    return f, {"x": x, "g": g, "b": b}


def _case_gelu(rngen):
    x = _rand(rngen, 4, 4)

    def f():
        return T.mean_(T.gelu(x))

    return f, {"x": x}


def _case_reductions(rngen):
    x = _rand(rngen, 3, 4)

    def f():
        a = T.sum_(x, axis=0)
        m = T.mean_(x, axis=1, keepdims=True)
        return T.sum_(a) + T.sum_(x * m)

    return f, {"x": x}


def _case_shape_ops(rngen):
    x = _rand(rngen, 2, 6)
    y = _rand(rngen, 3, 4)

    def f():
        r = T.reshape(x, (3, 4))
        c = T.concat([r, y], axis=0)
        return T.sum_(T.transpose2(c) * 0.5)

    return f, {"x": x, "y": y}


def _case_gather(rngen):
    table = _rand(rngen, 5, 3)
    idx = np.array([0, 2, 2, 4])

    def f():
        rows = T.gather_rows(table, idx)
        return T.sum_(rows * rows)

    return f, {"table": table}


def _case_sqrt_log_clamp(rngen):
    x = Tensor(np.abs(rngen.standard_normal((3, 3))) + 0.5, requires_grad=True)

    def f():
        return T.sum_(T.sqrt(x) + T.log(x) + T.clamp_min(x, 0.1))

    return f, {"x": x}


def _case_chain(rngen):
    # matmul -> softmax -> dot, the classic composite
    w = _rand(rngen, 4, 4)
    x = Tensor(rngen.standard_normal(4))
    v = _rand(rngen, 4)

    def f():
        z = T.matmul(T.reshape(x, (1, 4)), w)
        return T.dot(T.softmax(T.reshape(z, (4,))), v)

    return f, {"w": w, "v": v}


def _case_factorized_linear(rngen):
    # per-row (B, 1, n_tailor) coefficients, tailor 1 inactive in every row
    # and tailor 2 in one row. The output is linear in each input, so a loss
    # linear in the output makes central differences exact up to round-off.
    x = _rand(rngen, 2, 3, 5)
    u_g, s_g, v_g = _rand(rngen, 4, 2), _rand(rngen, 2), _rand(rngen, 5, 2)
    u_t, s_t, v_t = _rand(rngen, 4, 3), _rand(rngen, 3), _rand(rngen, 5, 3)
    active = np.array([[[1.0, 0.0, 1.0]], [[1.0, 0.0, 0.0]]])
    c = Tensor(rngen.standard_normal((2, 1, 3)) * active, requires_grad=True)
    w = Tensor(rngen.standard_normal((2, 3, 4)))

    def f():
        y = T.factorized_linear(x, u_g, s_g, v_g, u_t, s_t, v_t, c)
        return T.sum_(y * w)

    return f, {"x": x, "u_g": u_g, "s_g": s_g, "v_g": v_g,
               "u_t": u_t, "s_t": s_t, "v_t": v_t, "c": c}


def _case_factorized_learngene(rngen):
    x = _rand(rngen, 3, 5)
    u_g, s_g, v_g = _rand(rngen, 4, 3), _rand(rngen, 3), _rand(rngen, 5, 3)

    def f():
        y = T.factorized_linear(x, u_g, s_g, v_g)
        return T.sum_(y * y)

    return f, {"x": x, "u_g": u_g, "s_g": s_g, "v_g": v_g}


def _case_attention(rngen):
    q, k, v = _rand(rngen, 2, 4, 3), _rand(rngen, 2, 4, 3), _rand(rngen, 2, 4, 2)
    w = Tensor(rngen.standard_normal((2, 4, 2)))

    def f():
        return T.sum_(T.attention(q, k, v, 0.7) * w)

    return f, {"q": q, "k": k, "v": v}


OP_CASES = [
    ("elementwise", _case_elementwise),
    ("matmul", _case_matmul),
    ("batched_matmul", _case_batched_matmul),
    ("linear", _case_linear),
    ("softmax_dot", _case_softmax_dot),
    ("softmax_axes", _case_softmax_axes),
    ("layer_norm", _case_layer_norm),
    ("gelu", _case_gelu),
    ("reductions", _case_reductions),
    ("shape_ops", _case_shape_ops),
    ("gather_rows", _case_gather),
    ("sqrt_log_clamp", _case_sqrt_log_clamp),
    ("chain", _case_chain),
    ("factorized_linear", _case_factorized_linear),
    ("factorized_learngene", _case_factorized_learngene),
    ("attention", _case_attention),
]


def run_op_suite(seed: int = 0, h: float = 1e-5, tol: float = 1e-5) -> dict:
    """Run every registered op case; returns name -> GradCheckReport."""
    out = {}
    for name, builder in OP_CASES:
        f, params = builder(stream(seed, "gradcheck", name))
        out[name] = finite_diff_check(f, params, h=h, tol=tol)
    return out
