"""Dense float64 tensors with reverse-mode differentiation.

A ``Tensor`` wraps a ``numpy.float64`` array. While gradients are enabled,
every operation whose inputs require grad appends a record to a single
global tape; ``backward`` walks the tape once in reverse, accumulates
gradients into ``.grad`` buffers, and frees the tape. The tape is dynamic
(recorded per forward pass) and is always consumed by exactly one backward
pass, which is all the training loop needs.

Besides elementwise, shape, reduction and matmul ops, four fused
primitives carry hand-derived adjoints and record one tape node each:
``softmax``, ``layer_norm``, ``factorized_linear`` (a learngene/tailor
projection, see ``factorized.py``) and single-head ``attention``.

Tensors are immutable once created, except for ``.grad`` accumulation
and the optimizer's in-place parameter update. All data is 64-bit; there
is no device or dtype dispatch.
"""

from __future__ import annotations

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


class Tensor:
    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=_F64)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad = None

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

    # -- operators ----------------------------------------------------
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _record(out: Tensor, inputs, vjp) -> Tensor:
    """Attach a tape node if recording is on and any input needs grad."""
    if _TAPE.enabled and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        _TAPE.nodes.append((out, inputs, vjp))
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

    def vjp(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)

    return _record(out, (a, b), vjp)


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = Tensor(a.data - b.data)

    def vjp(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(-g, b.data.shape)

    return _record(out, (a, b), vjp)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = Tensor(a.data * b.data)

    def vjp(g):
        return (_unbroadcast(g * b.data, a.data.shape),
                _unbroadcast(g * a.data, b.data.shape))

    return _record(out, (a, b), vjp)


def div(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = Tensor(a.data / b.data)

    def vjp(g):
        return (_unbroadcast(g / b.data, a.data.shape),
                _unbroadcast(-g * out.data / b.data, b.data.shape))

    return _record(out, (a, b), vjp)


def neg(a) -> Tensor:
    a = as_tensor(a)
    out = Tensor(-a.data)
    return _record(out, (a,), lambda g: (-g,))


def exp(a) -> Tensor:
    a = as_tensor(a)
    out = Tensor(np.exp(a.data))
    return _record(out, (a,), lambda g: (g * out.data,))


def log(a) -> Tensor:
    a = as_tensor(a)
    out = Tensor(np.log(a.data))
    return _record(out, (a,), lambda g: (g / a.data,))


def tanh(a) -> Tensor:
    a = as_tensor(a)
    out = Tensor(np.tanh(a.data))
    return _record(out, (a,), lambda g: (g * (1.0 - out.data * out.data),))


def sqrt(a) -> Tensor:
    a = as_tensor(a)
    out = Tensor(np.sqrt(a.data))
    return _record(out, (a,), lambda g: (g * (0.5 / out.data),))


def clamp_min(a, floor: float) -> Tensor:
    """max(a, floor). Gradient passes only where a > floor."""
    a = as_tensor(a)
    out = Tensor(np.maximum(a.data, floor))

    def vjp(g):
        return (g * (a.data > floor),)

    return _record(out, (a,), vjp)


_GELU_C0 = np.sqrt(2.0 / np.pi)
_GELU_C1 = 0.044715


def _gelu_arg(cube, x):
    return _GELU_C0 * (x + _GELU_C1 * cube)


def _split(a):
    """Veltkamp split of float64 ``a`` into halves of 26 significant bits."""
    hi = 134217729.0 * a  # 2**27 + 1
    hi -= hi - a
    return hi, a - hi


def _product_error(a_hi, a_lo, b_hi, b_lo, p):
    """Dekker: ``a*b - p`` exactly, for ``p = fl(a*b)`` and split a, b."""
    err = a_hi * b_hi
    err -= p
    err += a_hi * b_lo
    err += a_lo * b_hi
    err += a_lo * b_lo
    return err


def _gelu_arg_of(x: np.ndarray) -> np.ndarray:
    """``_gelu_arg(x ** 3, x)`` bit for bit, mostly without ``x ** 3``.

    numpy's ``power`` is vectorized for positive bases but takes a scalar
    path, about 40 times slower, for the others; for a negative base it
    returns the correctly rounded cube or a float64 neighbour of it. So
    negative bases get the correctly rounded cube from Dekker's exact
    products, and the argument from the cube's two neighbours, between
    which ``_gelu_arg`` (monotone in the cube) must land. ``power`` runs
    only where those two differ, and on zeros and non-finite bases: about
    one negative base in ten.
    """
    out = _gelu_arg(np.abs(x) ** 3, x)  # right wherever x > 0
    rest = np.flatnonzero(~(x > 0))
    if rest.size == 0:
        return out
    xn = np.take(x, rest)  # flat indices, C order, whatever the layout
    xn_hi, xn_lo = _split(xn)
    sq = xn * xn
    sq_err = _product_error(xn_hi, xn_lo, xn_hi, xn_lo, sq)
    cube = sq * xn
    cube_err = _product_error(*_split(sq), xn_hi, xn_lo, cube)
    # x**3 = cube + cube_err + sq_err*xn, with the first two terms exact
    sq_err *= xn
    cube_err += sq_err
    cube += cube_err
    gap = np.abs(cube) * 2.0 ** -52  # at least one float64 spacing of cube
    u = _gelu_arg(cube - gap, xn)
    todo = (u != _gelu_arg(cube + gap, xn)) | (xn == 0)  # NaN lands here too
    u[todo] = _gelu_arg(xn[todo] ** 3, xn[todo])
    np.put(out, rest, u)
    return out


def gelu(a) -> Tensor:
    """tanh-form GELU: 0.5*x*(1 + tanh(sqrt(2/pi)*(x + 0.044715*x^3)))."""
    a = as_tensor(a)
    x = a.data
    u = _gelu_arg_of(x)
    t = np.tanh(u)
    out = Tensor(0.5 * x * (1.0 + t))

    def vjp(g):
        du = _GELU_C0 * (1.0 + 3.0 * _GELU_C1 * x * x)
        return (g * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * du),)

    return _record(out, (a,), vjp)


# ----------------------------------------------------------------------
# shape ops
# ----------------------------------------------------------------------

def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    out = Tensor(a.data.reshape(shape))
    return _record(out, (a,), lambda g: (g.reshape(a.data.shape),))


def transpose2(a) -> Tensor:
    """Swap the last two axes."""
    a = as_tensor(a)
    out = Tensor(np.swapaxes(a.data, -1, -2))
    return _record(out, (a,), lambda g: (np.swapaxes(g, -1, -2),))


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    if not tensors:
        raise ContractError("concat of empty list")
    out = Tensor(np.concatenate([t.data for t in tensors], axis=axis))
    sizes = [t.data.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def vjp(g):
        return tuple(np.split(g, splits, axis=axis))

    return _record(out, tuple(tensors), vjp)


def gather_rows(table, idx) -> Tensor:
    """Select rows ``table[idx]``; gradient scatter-adds back into the table."""
    table = as_tensor(table)
    idx = np.asarray(idx, dtype=np.int64)
    out = Tensor(table.data[idx])

    def vjp(g):
        gt = np.zeros_like(table.data)
        np.add.at(gt, idx, g)
        return (gt,)

    return _record(out, (table,), vjp)


# ----------------------------------------------------------------------
# reductions
# ----------------------------------------------------------------------

def sum_(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    out = Tensor(a.data.sum(axis=axis, keepdims=keepdims))

    def vjp(g):
        if axis is None:
            return (np.broadcast_to(g, a.data.shape).copy(),)
        gg = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(gg, a.data.shape).copy(),)

    return _record(out, (a,), vjp)


def mean_(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    out = Tensor(a.data.mean(axis=axis, keepdims=keepdims))
    if axis is None:
        n = a.data.size
    else:
        n = a.data.shape[axis]

    def vjp(g):
        if axis is None:
            return (np.broadcast_to(g / n, a.data.shape).copy(),)
        gg = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(gg / n, a.data.shape).copy(),)

    return _record(out, (a,), vjp)


# ----------------------------------------------------------------------
# linear algebra
# ----------------------------------------------------------------------

def matmul(a, b) -> Tensor:
    """np.matmul semantics for operands of ndim >= 2, batch dims broadcast."""
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ContractError("matmul requires ndim >= 2 operands")
    out = Tensor(np.matmul(a.data, b.data))

    def vjp(g):
        ga = np.matmul(g, np.swapaxes(b.data, -1, -2))
        gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
        return _unbroadcast(ga, a.data.shape), _unbroadcast(gb, b.data.shape)

    return _record(out, (a, b), vjp)


def linear(x, w) -> Tensor:
    """y = x @ w.T with weight stored (out_features, in_features)."""
    x, w = as_tensor(x), as_tensor(w)
    if w.ndim != 2 or x.data.shape[-1] != w.data.shape[1]:
        raise ContractError(
            f"linear shape mismatch: x {x.data.shape} vs w {w.data.shape}")
    out = Tensor(np.matmul(x.data, w.data.T))

    def vjp(g):
        gx = np.matmul(g, w.data)
        g2 = g.reshape(-1, w.data.shape[0])
        x2 = x.data.reshape(-1, w.data.shape[1])
        gw = g2.T @ x2
        return gx, gw

    return _record(out, (x, w), vjp)


def dot(a, b) -> Tensor:
    """Inner product of two equal-length vectors."""
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim != 1 or b.ndim != 1 or a.size != b.size:
        raise ContractError("dot expects two equal-length vectors")
    out = Tensor(np.dot(a.data, b.data))

    def vjp(g):
        return g * b.data, g * a.data

    return _record(out, (a, b), vjp)


# ----------------------------------------------------------------------
# fused primitives with hand-derived adjoints: softmax, layer norm,
# factorized projection, attention
# ----------------------------------------------------------------------

def softmax(a, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis`` (max-subtraction).

    Raises InvalidInputError on non-finite input; output entries are
    positive and sum to one along the reduced axis.
    """
    a = as_tensor(a)
    if a.size == 0:
        return _record(Tensor(a.data.copy()), (a,), lambda g: (g,))
    y = _softmax_data(a.data, axis, "softmax input")
    out = Tensor(y)
    return _record(out, (a,), lambda g: (_softmax_vjp(g, y, axis),))


def _softmax_data(z: np.ndarray, axis: int, what: str) -> np.ndarray:
    if not np.isfinite(z).all():
        raise InvalidInputError(f"{what} contains non-finite values")
    e = np.exp(z - z.max(axis=axis, keepdims=True))
    return e / e.sum(axis=axis, keepdims=True)


def _softmax_vjp(g: np.ndarray, y: np.ndarray, axis: int) -> np.ndarray:
    inner = (g * y).sum(axis=axis, keepdims=True)
    return (g - inner) * y


def layer_norm(x, gain, bias, eps: float = 1e-5) -> Tensor:
    """Normalize over the last axis, then scale and shift."""
    x, gain, bias = as_tensor(x), as_tensor(gain), as_tensor(bias)
    mu = x.data.mean(axis=-1, keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    out = Tensor(xhat * gain.data + bias.data)
    d = x.data.shape[-1]

    def vjp(g):
        gxhat = g * gain.data
        m1 = gxhat.mean(axis=-1, keepdims=True)
        m2 = (gxhat * xhat).mean(axis=-1, keepdims=True)
        gx = inv * (gxhat - m1 - xhat * m2)
        axes = tuple(range(g.ndim - 1))
        ggain = (g * xhat).sum(axis=axes) if axes else g * xhat
        gbias = g.sum(axis=axes) if axes else g
        return gx, ggain.reshape(gain.data.shape), gbias.reshape(bias.data.shape)

    return _record(out, (x, gain, bias), vjp)


def factorized_linear(x, u_g, s_g, v_g, u_t=None, s_t=None, v_t=None,
                      c=None) -> Tensor:
    """Projection through rank-1 components, without forming the matrix.

    Computes ``((x @ v_g) * s_g) @ u_g.T`` and, when the tailor block
    ``u_t, s_t, v_t`` is given, adds ``((x @ v_t) * (c * s_t)) @ u_t.T``.
    ``c`` holds the tailor coefficients: one (n_tailor,) vector, or rows
    broadcastable against ``x @ v_t`` such as (B, 1, n_tailor). Every
    input gets its gradient. A tailor column whose coefficient is zero in
    every row gets exactly zero gradient in ``u_t``, ``s_t`` and ``v_t``.

    Forward and gradients are bit-identical to the same expression built
    from ``matmul``, ``mul``, ``linear`` and ``add`` nodes.
    """
    x, u_g, s_g, v_g = (as_tensor(t) for t in (x, u_g, s_g, v_g))
    if x.ndim < 2 or x.data.shape[-1] != v_g.data.shape[0]:
        raise ContractError(
            f"factorized_linear shape mismatch: x {x.data.shape} vs v_g {v_g.data.shape}")
    h_g = np.matmul(x.data, v_g.data)
    a_g = h_g * s_g.data
    y = np.matmul(a_g, u_g.data.T)
    if u_t is None:
        def vjp(g):
            return _factor_block_vjp(g, x, u_g, v_g, h_g, a_g, s_g.data)

        return _record(Tensor(y), (x, u_g, s_g, v_g), vjp)

    u_t, s_t, v_t, c = (as_tensor(t) for t in (u_t, s_t, v_t, c))
    h_t = np.matmul(x.data, v_t.data)
    cs = c.data * s_t.data
    a_t = h_t * cs
    y = y + np.matmul(a_t, u_t.data.T)

    def vjp_tailored(g):
        gx_t, gu_t, gcs, gv_t = _factor_block_vjp(g, x, u_t, v_t, h_t, a_t, cs)
        gc = _unbroadcast(gcs * s_t.data, c.data.shape)
        gs_t = _unbroadcast(gcs * c.data, s_t.data.shape)
        return (gx_t, gu_t, gs_t, gv_t, gc) + _factor_block_vjp(
            g, x, u_g, v_g, h_g, a_g, s_g.data)

    # x is listed once per block: backward adds the tailor block's part of
    # x.grad and then the learngene block's, so the float sums into x.grad
    # keep the order of the unfused expression.
    return _record(Tensor(y), (x, u_t, s_t, v_t, c, x, u_g, s_g, v_g), vjp_tailored)


def _factor_block_vjp(g, x, u, v, h, a, scale):
    """Gradients of ``a @ u.T`` with ``a = h * scale`` and ``h = x @ v``:
    for x, u, scale and v, in that order (None where none is needed)."""
    ga = np.matmul(g, u.data)
    gu = gv = gx = None
    if u.requires_grad:
        gu = g.reshape(-1, g.shape[-1]).T @ a.reshape(-1, a.shape[-1])
    gscale = _unbroadcast(ga * h, np.shape(scale))
    gh = ga * scale
    if v.requires_grad:
        gv = _unbroadcast(np.matmul(np.swapaxes(x.data, -1, -2), gh), v.data.shape)
    if x.requires_grad:
        gx = np.matmul(gh, np.swapaxes(v.data, -1, -2))
    return gx, gu, gscale, gv


def attention(q, k, v, scale: float) -> Tensor:
    """Single-head attention ``softmax(q @ k^T * scale) @ v`` over the last
    two axes, as one tape node.

    Raises InvalidInputError when a score is non-finite, as ``softmax`` does.
    Output and gradients are bit-identical to the same expression built from
    ``matmul``, ``transpose2``, ``mul`` and ``softmax`` nodes.
    """
    q, k, v = as_tensor(q), as_tensor(k), as_tensor(v)
    if q.ndim < 2 or k.ndim < 2 or v.ndim < 2:
        raise ContractError("attention requires ndim >= 2 operands")
    p = _softmax_data(np.matmul(q.data, np.swapaxes(k.data, -1, -2)) * scale,
                      -1, "attention scores")
    out = Tensor(np.matmul(p, v.data))

    def vjp(g):
        gs = _softmax_vjp(np.matmul(g, np.swapaxes(v.data, -1, -2)), p, -1) * scale
        gq = np.matmul(gs, k.data)
        gk = np.matmul(np.swapaxes(gs, -1, -2), q.data)
        gv = np.matmul(np.swapaxes(p, -1, -2), g)
        return (_unbroadcast(gq, q.data.shape), _unbroadcast(gk, k.data.shape),
                _unbroadcast(gv, v.data.shape))

    return _record(out, (q, k, v), vjp)


def cosine_similarity(a, b) -> float:
    """Cosine of the angle between two equal-length vectors, in [-1, 1].

    A pair with a zero-norm vector is defined to have similarity 0.
    """
    av = a.data if isinstance(a, Tensor) else np.asarray(a, dtype=_F64)
    bv = b.data if isinstance(b, Tensor) else np.asarray(b, dtype=_F64)
    if av.ndim != 1 or bv.ndim != 1 or av.size != bv.size:
        raise ContractError("cosine_similarity expects two equal-length vectors")
    na, nb = np.linalg.norm(av), np.linalg.norm(bv)
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float(np.clip(np.dot(av, bv) / (na * nb), -1.0, 1.0))


# ----------------------------------------------------------------------
# backward
# ----------------------------------------------------------------------

def backward(loss: Tensor) -> None:
    """Populate ``.grad`` of every reachable requires_grad tensor.

    ``loss`` must be a scalar. The tape is freed afterwards, so each
    recorded forward supports exactly one backward pass.
    """
    if not isinstance(loss, Tensor) or loss.data.size != 1:
        raise ContractError("backward expects a scalar Tensor loss")
    loss.grad = np.ones_like(loss.data)
    nodes = _TAPE.nodes
    for out, inputs, vjp in reversed(nodes):
        g = out.grad
        if g is None:
            continue
        grads = vjp(g)
        for inp, gi in zip(inputs, grads):
            if gi is None or not inp.requires_grad:
                continue
            if inp.grad is None:
                # an array the vjp just made is kept; g itself and views are
                # copied, so no two tensors share a gradient buffer
                if type(gi) is np.ndarray and gi.flags.owndata and gi is not g:
                    inp.grad = gi
                else:
                    inp.grad = np.array(gi, dtype=_F64, copy=True)
            else:
                inp.grad = inp.grad + gi
        out.grad = None  # free intermediate buffers as we go
    nodes.clear()


def zero_grads(params) -> None:
    """Clear .grad on an iterable (or dict) of tensors."""
    values = params.values() if hasattr(params, "values") else params
    for p in values:
        p.grad = None
