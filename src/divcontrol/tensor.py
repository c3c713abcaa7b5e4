"""Dense float64 tensors with reverse-mode differentiation.

A ``Tensor`` wraps a ``numpy.float64`` array. While gradients are enabled,
every operation whose inputs require grad appends a node to a single
global tape; ``backward`` walks the tape once in reverse, accumulates
gradients into ``.grad`` buffers, and frees the tape. The tape is dynamic
(recorded per forward pass) and is always consumed by exactly one backward
pass, which is all the training loop needs.

A node holds a gradient slot for its output, the leaf tensor or slot of
each input that needs a gradient, and a VJP that closes over only the
arrays it reads: never a tensor, so an activation no VJP reads (a residual
sum, say) is freed as soon as the forward pass drops it.

The ops are those training and routing record: ``add``, ``mul``, ``div``,
``tanh``, ``sqrt``, ``clamp_min``, ``gelu``, ``concat`` and ``gather_rows``
(first axis), ``sum_``, ``mean_`` (of every element), ``linear``, and four
fused primitives with hand-derived adjoints: last-axis ``softmax``,
``layer_norm``, ``factorized_linear`` (see ``model.py``) and ``attention``.

Tensors are immutable once created, except for ``.grad`` accumulation
and the optimizer's in-place parameter update. All data is 64-bit; there
is no device or dtype dispatch. One forward reads the tape state: ``gelu``
reproduces ``x ** 3`` bit for bit only while the tape records.
"""

from __future__ import annotations

import math
from contextlib import contextmanager

import numpy as np

from .errors import ContractError, InvalidInputError

_F64 = np.float64


class _Tape:
    __slots__ = ("nodes", "enabled")

    def __init__(self):
        self.nodes = []
        self.enabled = True


_TAPE = _Tape()


def tape_size() -> int:
    return len(_TAPE.nodes)


def clear_tape() -> None:
    _TAPE.nodes.clear()


@contextmanager
def no_grad():
    """Disable tape recording inside the block."""
    prev = _TAPE.enabled
    _TAPE.enabled = False
    try:
        yield
    finally:
        _TAPE.enabled = prev


class _Slot:
    """Where backward gathers the gradient of a recorded output."""
    __slots__ = ("grad",)

    def __init__(self):
        self.grad = None


class Tensor:
    __slots__ = ("data", "requires_grad", "grad", "slot")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=_F64)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self.slot = None  # a recorded output's _Slot; leaves keep .grad

    # -- introspection ------------------------------------------------
    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    @property
    def ndim(self):
        return self.data.ndim

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError(f"item() on tensor of shape {self.data.shape}")
        return float(self.data.reshape(()))

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _record(out: Tensor, inputs, vjp) -> Tensor:
    """Attach a tape node if recording is on and any input needs grad.

    The node is ``(out.slot, inputs, vjp)`` with each input replaced by the
    leaf or slot its gradient goes to, or None when it needs none. ``vjp``
    closes over the arrays and flags it reads, never over a tensor."""
    if _TAPE.enabled and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        out.slot = _Slot()
        _TAPE.nodes.append((out.slot, tuple(
            (t.slot or t) if t.requires_grad else None for t in inputs), vjp))
    return out


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Sum gradient ``g`` down to ``shape`` (inverse of numpy broadcasting)."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (gs, ss) in enumerate(zip(g.shape, shape)) if ss == 1 and gs != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


# ----------------------------------------------------------------------
# elementwise
# ----------------------------------------------------------------------

def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = Tensor(a.data + b.data)
    sa, sb = a.shape, b.shape

    def vjp(g):
        return lambda: _unbroadcast(g, sa), lambda: _unbroadcast(g, sb)

    return _record(out, (a, b), vjp)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = Tensor(a.data * b.data)
    sa, sb = a.shape, b.shape
    ad = a.data if b.requires_grad else None  # each factor only for the other
    bd = b.data if a.requires_grad else None

    def vjp(g):
        return (lambda: _unbroadcast(g * bd, sa),
                lambda: _unbroadcast(g * ad, sb))

    return _record(out, (a, b), vjp)


def div(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    y, bd = a.data / b.data, b.data
    sa = a.shape

    def vjp(g):
        return (lambda: _unbroadcast(g / bd, sa),
                lambda: _unbroadcast(-g * y / bd, bd.shape))

    return _record(Tensor(y), (a, b), vjp)


def tanh(a) -> Tensor:
    a = as_tensor(a)
    y = np.tanh(a.data)
    return _record(Tensor(y), (a,), lambda g: (g * (1.0 - y * y),))


def sqrt(a) -> Tensor:
    a = as_tensor(a)
    y = np.sqrt(a.data)
    return _record(Tensor(y), (a,), lambda g: (g * (0.5 / y),))


def clamp_min(a, floor: float) -> Tensor:
    """max(a, floor). Gradient passes only where a > floor."""
    a = as_tensor(a)
    out = Tensor(np.maximum(a.data, floor))
    passes = a.data > floor
    return _record(out, (a,), lambda g: (g * passes,))


_GELU_C0 = np.sqrt(2.0 / np.pi)
_GELU_C1 = 0.044715


def _gelu_arg(cube, x):
    return _GELU_C0 * (x + _GELU_C1 * cube)


def _gelu_arg_of(x: np.ndarray) -> np.ndarray:
    """``_gelu_arg(x ** 3, x)`` bit for bit, mostly without ``x ** 3``.

    Taped passes only; the re-record of ROADMAP item 1 deletes it. numpy's
    ``power`` is slow for non-positive bases, so the cube is
    ``copysign(|x| ** 3, x)``, which is ``x ** 3`` for x > 0 and within one
    float64 spacing of it for x < 0 (CI checks 20M bases under two SIMD
    profiles). ``_gelu_arg`` is monotone in the cube, so where it agrees at
    both neighbours (int64 view +-1) that is the answer. ``power`` runs only
    where they differ (11-15% of negative activations) or where a neighbour
    is NaN (``|x| ** 3`` zero or not finite).
    """
    cube = np.copysign(np.abs(x) ** 3, x)
    out = np.asarray(_gelu_arg(cube, x))  # right wherever x > 0
    rest = np.flatnonzero(~(x > 0))
    if rest.size == 0:
        return out
    xn = np.take(x, rest)  # flat indices, C order, whatever the layout
    bits = np.take(cube, rest).view(np.int64)
    u = _gelu_arg((bits - 1).view(np.float64), xn)
    todo = u != _gelu_arg((bits + 1).view(np.float64), xn)  # NaN lands here
    u[todo] = _gelu_arg(xn[todo] ** 3, xn[todo])
    np.put(out, rest, u)
    return out


def gelu(a) -> Tensor:
    """tanh-form GELU: 0.5*x*(1 + tanh(sqrt(2/pi)*(x + 0.044715*x^3))).

    The tape state, not ``requires_grad``, picks the cube: ``x ** 3`` bit
    for bit while it records, else ``x * x * x`` (within 2|x| eps) until the
    re-record that deletes ``_gelu_arg_of`` (ROADMAP item 1)."""
    a = as_tensor(a)
    x = a.data
    u = _gelu_arg_of(x) if _TAPE.enabled else _gelu_arg(x * x * x, x)
    t = np.tanh(u)
    out = Tensor(0.5 * x * (1.0 + t))

    def vjp(g):
        du = _GELU_C0 * (1.0 + 3.0 * _GELU_C1 * x * x)
        return (g * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * du),)

    return _record(out, (a,), vjp)


# ----------------------------------------------------------------------
# shape ops
# ----------------------------------------------------------------------

def concat(tensors) -> Tensor:
    """Join along the first axis."""
    tensors = [as_tensor(t) for t in tensors]
    if not tensors:
        raise ContractError("concat of empty list")
    out = Tensor(np.concatenate([t.data for t in tensors]))
    splits = np.cumsum([len(t.data) for t in tensors])[:-1]

    def vjp(g):
        return tuple(np.split(g, splits))

    return _record(out, tuple(tensors), vjp)


def gather_rows(table, idx) -> Tensor:
    """Select rows ``table[idx]``; gradient scatter-adds back into the table."""
    table = as_tensor(table)
    idx = np.asarray(idx, dtype=np.int64)
    out = Tensor(table.data[idx])
    shape = table.shape

    def vjp(g):
        gt = np.zeros(shape)
        np.add.at(gt, idx, g)
        return (gt,)

    return _record(out, (table,), vjp)


# ----------------------------------------------------------------------
# reductions
# ----------------------------------------------------------------------

def sum_(a, axis=None) -> Tensor:
    """Sum over ``axis``, or over every element when it is None."""
    a = as_tensor(a)
    out = Tensor(a.data.sum(axis=axis))
    shape = a.shape

    def vjp(g):
        gg = g if axis is None else np.expand_dims(g, axis)
        return (np.broadcast_to(gg, shape).copy(),)

    return _record(out, (a,), vjp)


def mean_(a) -> Tensor:
    """Mean over every element."""
    a = as_tensor(a)
    out = Tensor(a.data.mean())
    shape, n = a.shape, a.data.size

    def vjp(g):
        return (np.broadcast_to(g / n, shape).copy(),)

    return _record(out, (a,), vjp)


# ----------------------------------------------------------------------
# linear algebra
# ----------------------------------------------------------------------

def linear(x, w) -> Tensor:
    """y = x @ w.T with weight stored (out_features, in_features)."""
    x, w = as_tensor(x), as_tensor(w)
    if w.ndim != 2 or x.data.shape[-1] != w.data.shape[1]:
        raise ContractError(
            f"linear shape mismatch: x {x.data.shape} vs w {w.data.shape}")
    out = Tensor(np.matmul(x.data, w.data.T))
    wd = w.data
    xd = x.data if w.requires_grad else None

    def vjp(g):
        rows = math.prod(g.shape[:-1])  # not -1: w may have no rows
        return (lambda: np.matmul(g, wd),
                lambda: g.reshape(rows, wd.shape[0]).T @ xd.reshape(rows, wd.shape[1]))

    return _record(out, (x, w), vjp)


# ----------------------------------------------------------------------
# fused primitives with hand-derived adjoints: softmax, layer norm,
# factorized projection, attention
# ----------------------------------------------------------------------

def softmax(a) -> Tensor:
    """Numerically stable softmax along the last axis (max-subtraction).

    Raises InvalidInputError on non-finite input; output entries are
    positive and sum to one along the last axis.
    """
    a = as_tensor(a)
    y = _softmax_data(a.data, "softmax input")
    out = Tensor(y)
    return _record(out, (a,), lambda g: (_softmax_vjp(g, y),))


def _softmax_data(z: np.ndarray, what: str) -> np.ndarray:
    if not np.isfinite(z).all():
        raise InvalidInputError(f"{what} contains non-finite values")
    e = np.exp(z - z.max(axis=-1, keepdims=True, initial=-np.inf))  # z may be empty
    return e / e.sum(axis=-1, keepdims=True)


def _softmax_vjp(g: np.ndarray, y: np.ndarray) -> np.ndarray:
    inner = (g * y).sum(axis=-1, keepdims=True)
    return (g - inner) * y


def layer_norm(x, gain, bias) -> Tensor:
    """Normalize over the last axis (variance eps 1e-5), then scale and shift."""
    x, gain, bias = as_tensor(x), as_tensor(gain), as_tensor(bias)
    mu = x.data.mean(axis=-1, keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + 1e-5)
    xhat = xc * inv
    gd, sb = gain.data, bias.shape
    out = Tensor(xhat * gd + bias.data)

    def vjp(g):
        axes = tuple(range(g.ndim - 1))  # none for 1-D x: sum is a copy

        def gx():
            gxhat = g * gd
            m1 = gxhat.mean(axis=-1, keepdims=True)
            m2 = (gxhat * xhat).mean(axis=-1, keepdims=True)
            return inv * (gxhat - m1 - xhat * m2)

        return (gx, lambda: (g * xhat).sum(axis=axes).reshape(gd.shape),
                lambda: g.sum(axis=axes).reshape(sb))

    return _record(out, (x, gain, bias), vjp)


def factorized_linear(x, u_g, s_g, v_g, u_t, s_t, v_t, c) -> Tensor:
    """Projection through rank-1 components, without forming the matrix.

    Computes ``((x @ v_g) * s_g) @ u_g.T + ((x @ v_t) * (c * s_t)) @ u_t.T``:
    a learngene block and a tailor block, either of which may be empty.
    ``c`` holds the tailor coefficients: one (n_tailor,) vector, or rows
    broadcastable against ``x @ v_t`` such as (B, 1, n_tailor). Every
    input gets its gradient. A tailor column whose coefficient is zero in
    every row gets exactly zero gradient in ``u_t``, ``s_t`` and ``v_t``.

    Forward and gradients are bit-identical to the node-by-node chain
    ``unfused_apply`` in ``tests/test_factorized.py``.
    """
    x, u_g, s_g, v_g, u_t, s_t, v_t, c = (
        as_tensor(t) for t in (x, u_g, s_g, v_g, u_t, s_t, v_t, c))
    if x.ndim < 2 or x.data.shape[-1] != v_g.data.shape[0]:
        raise ContractError(
            f"factorized_linear shape mismatch: x {x.data.shape} vs v_g {v_g.data.shape}")
    h_g = np.matmul(x.data, v_g.data)
    h_t = np.matmul(x.data, v_t.data)
    cd, sd = c.data, s_t.data
    cs = cd * sd
    y = np.matmul(h_g * s_g.data, u_g.data.T) + np.matmul(h_t * cs, u_t.data.T)
    tailor = _factor_block_vjp(x, u_t, v_t, h_t, cs, s_t.requires_grad or c.requires_grad)
    learngene = _factor_block_vjp(x, u_g, v_g, h_g, s_g.data, s_g.requires_grad)

    def vjp(g):
        gx_t, gu_t, gcs, gv_t = tailor(g)
        return (gx_t, gu_t, lambda: _unbroadcast(gcs * cd, sd.shape),
                gv_t, lambda: _unbroadcast(gcs * sd, cd.shape)) + learngene(g)

    # x is listed once per block: backward adds the tailor block's part of
    # x.grad and then the learngene block's, so the float sums into x.grad
    # keep the order of the unfused expression.
    return _record(Tensor(y), (x, u_t, s_t, v_t, c, x, u_g, s_g, v_g), vjp)


def _factor_block_vjp(x, u, v, h, scale, scale_grad: bool):
    """The VJP of ``(h * scale) @ u.T`` with ``h = x @ v``: a function of
    the output gradient that returns the gradients for x, u, scale and v,
    in that order (None where none is needed, and for scale unless
    ``scale_grad``). It keeps ``h`` only for u's or scale's gradient and
    ``x.data`` only for v's, and forms ``h * scale`` again for u's."""
    x_grad, u_grad, v_grad = x.requires_grad, u.requires_grad, v.requires_grad
    ud, vd, xd = u.data, v.data, x.data if v_grad else None
    h = h if u_grad or scale_grad else None

    def vjp(g):
        gx = gu = gscale = gv = None
        if u_grad:
            rows = math.prod(g.shape[:-1])  # not -1: the block may be empty
            a = h * scale
            gu = g.reshape(rows, g.shape[-1]).T @ a.reshape(rows, a.shape[-1])
        if not (scale_grad or v_grad or x_grad):
            return gx, gu, gscale, gv
        ga = np.matmul(g, ud)
        if scale_grad:
            gscale = _unbroadcast(ga * h, np.shape(scale))
        gh = ga * scale
        if v_grad:
            gv = _unbroadcast(np.matmul(np.swapaxes(xd, -1, -2), gh), vd.shape)
        if x_grad:
            gx = np.matmul(gh, np.swapaxes(vd, -1, -2))
        return gx, gu, gscale, gv

    return vjp


def attention(q, k, v, scale: float) -> Tensor:
    """Single-head attention ``softmax(q @ k^T * scale) @ v`` over the last
    two axes, as one tape node.

    Raises InvalidInputError when a score is non-finite, as ``softmax`` does.
    Output and gradients are bit-identical to the node-by-node chain
    ``unfused_attention`` in ``tests/test_tensor.py``.
    """
    q, k, v = as_tensor(q), as_tensor(k), as_tensor(v)
    if q.ndim < 2 or k.ndim < 2 or v.ndim < 2:
        raise ContractError("attention requires ndim >= 2 operands")
    p = _softmax_data(np.matmul(q.data, np.swapaxes(k.data, -1, -2)) * scale,
                      "attention scores")
    qd, kd, vd = q.data, k.data, v.data
    out = Tensor(np.matmul(p, vd))

    def vjp(g):
        gs = _softmax_vjp(np.matmul(g, np.swapaxes(vd, -1, -2)), p) * scale
        gq = np.matmul(gs, kd)
        gk = np.matmul(np.swapaxes(gs, -1, -2), qd)
        gv = np.matmul(np.swapaxes(p, -1, -2), g)
        return (_unbroadcast(gq, qd.shape), _unbroadcast(gk, kd.shape),
                _unbroadcast(gv, vd.shape))

    return _record(out, (q, k, v), vjp)


# ----------------------------------------------------------------------
# backward
# ----------------------------------------------------------------------

def backward(loss: Tensor) -> None:
    """Populate ``.grad`` of every reachable requires_grad tensor.

    ``loss`` must be a scalar. The tape is freed afterwards, so each
    recorded forward supports exactly one backward pass. A VJP gives each
    input's gradient as an array, None, or a function of no arguments that
    computes it; backward calls that function only for an input that
    required grad when it was recorded, so frozen parameters and constants
    cost no gradient. Only leaves keep ``.grad``: a recorded output's
    gradient gathers in its node's slot, freed once that node has run.
    """
    if not isinstance(loss, Tensor) or loss.data.size != 1:
        raise ContractError("backward expects a scalar Tensor loss")
    (loss.slot or loss).grad = np.ones_like(loss.data)
    nodes = _TAPE.nodes
    for slot, inputs, vjp in reversed(nodes):
        g = slot.grad
        if g is None:
            continue
        grads = vjp(g)
        for inp, gi in zip(inputs, grads):
            if gi is None or inp is None:
                continue
            if callable(gi):
                gi = gi()
            if inp.grad is None:
                # an array the vjp just made is kept; g itself and views are
                # copied, so no two tensors share a gradient buffer
                if type(gi) is np.ndarray and gi.flags.owndata and gi is not g:
                    inp.grad = gi
                else:
                    inp.grad = np.array(gi, dtype=_F64, copy=True)
            else:
                inp.grad = inp.grad + gi
        slot.grad = None  # free intermediate buffers as we go
    nodes.clear()


def zero_grads(params) -> None:
    """Clear .grad on an iterable (or dict) of tensors."""
    values = params.values() if hasattr(params, "values") else params
    for p in values:
        p.grad = None
