"""Projection matrices stored as rank-1 components with a shared/gated split.

``svd_blocks`` takes one SVD of a weight matrix W (out_dim x in_dim) and
keeps its leading rank-1 triples (u_i, sigma_i, v_i). The first
``n_learngene`` (largest sigma) are shared across every condition and
always carry coefficient 1; the next ``n_tailor`` are scaled per
condition by gated coefficients, so the effective matrix is

    W~ = sum_{i<N_G} u_i sigma_i v_i^T  +  sum_{j active} g_j u_j sigma_j v_j^T

``apply_factorized`` computes ``x @ W~.T`` without materializing W~.
A weight with no tailors (``n_tailor = 0``) has an empty tailor block
that takes (..., 0) coefficient rows and adds nothing, so it runs the
same code as any other. Orthonormality and singular-value ordering hold
at creation time only; training updates the factors freely with no
re-projection.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ContractError, NumericError
from .tensor import Tensor


@dataclass
class GatedCoefficients:
    """Sparse per-tailor coefficients produced by top-K selection.

    ``g`` is a length-N_T tensor whose nonzero entries are the unbiased
    routing scores of the selected tailors; ``active_set`` lists the
    selected indices in selection order.
    """

    g: Tensor
    active_set: tuple


def _leaf(a) -> Tensor:
    return a if isinstance(a, Tensor) else Tensor(a, requires_grad=True)


class FactorizedWeight:
    """One projection matrix in factorized form.

    Learngene and tailor components are stored as separate (u, sigma, v)
    triples, ``u_g``/``s_g``/``v_g`` and ``u_t``/``s_t``/``v_t``, so either
    group can be frozen or replaced independently. Arrays become trainable
    tensors; tensors are kept as given.
    """

    def __init__(self, u_g, s_g, v_g, u_t, s_t, v_t):
        self.u_g, self.s_g, self.v_g, self.u_t, self.s_t, self.v_t = (
            _leaf(a) for a in (u_g, s_g, v_g, u_t, s_t, v_t))
        if self.u_g.shape[1] != self.s_g.size or self.v_g.shape[1] != self.s_g.size:
            raise ContractError("learngene block shapes disagree")
        if self.u_t.shape[1] != self.s_t.size or self.v_t.shape[1] != self.s_t.size:
            raise ContractError("tailor block shapes disagree")
        if self.u_g.shape[0] != self.u_t.shape[0] or self.v_g.shape[0] != self.v_t.shape[0]:
            raise ContractError("learngene and tailor blocks disagree on matrix shape")

    @property
    def n_tailor(self) -> int:
        return self.s_t.size


def svd_blocks(w, n_learngene: int, n_tailor: int) -> dict:
    """Factorize a dense matrix by SVD into learngene and tailor blocks, the
    arrays of a ``FactorizedWeight`` by part name (``u_g`` ... ``v_t``).

    The learngene block takes the ``n_learngene`` largest-sigma components
    and the tailor block the next ``n_tailor``. Components past both are
    discarded, so the reconstruction error is whatever their singular
    values add up to.
    """
    w = np.asarray(w, dtype=np.float64)
    if w.ndim != 2:
        raise ContractError("svd_blocks expects a matrix")
    if not np.isfinite(w).all():
        raise ContractError("svd_blocks input must be finite")
    rank = n_learngene + n_tailor
    if n_learngene < 0 or n_tailor < 0 or not 1 <= rank <= min(w.shape):
        raise ContractError(
            f"n_learngene = {n_learngene}, n_tailor = {n_tailor}: both must be "
            f">= 0 and their sum must lie in [1, {min(w.shape)}]")
    try:
        u, s, vt = np.linalg.svd(w, full_matrices=False)
    except np.linalg.LinAlgError as e:
        raise NumericError(
            f"SVD failed to converge (shape {w.shape}, "
            f"|W|_F={np.linalg.norm(w):.3e}, max|W|={np.abs(w).max():.3e}): {e}"
        ) from e
    blocks = {}
    for tag, part in (("g", slice(0, n_learngene)), ("t", slice(n_learngene, rank))):
        blocks.update({"u_" + tag: u[:, part].copy(), "s_" + tag: s[part].copy(),
                       "v_" + tag: vt[part].T.copy()})
    return blocks


def apply_factorized(x, fw: FactorizedWeight, rows: Tensor) -> Tensor:
    """Compute ``x @ W~.T`` without materializing W~, as one
    ``T.factorized_linear`` tape node.

    ``rows`` holds tailor coefficient vectors with shape (..., n_tailor),
    broadcastable against ``x @ v_t``. The gradient reaches every factor
    and the coefficients.
    """
    return T.factorized_linear(x, fw.u_g, fw.s_g, fw.v_g,
                               fw.u_t, fw.s_t, fw.v_t, rows)


def masked_gradient_apply(fw: FactorizedWeight, active) -> float:
    """Zero any residual gradient on tailor columns outside ``active``.

    Differentiating the gated composition already yields exact zeros there;
    this pass measures the largest residual (returned for diagnostics) and
    clears it. ``active`` is an iterable of active tailor indices.
    """
    active = set(active)
    inactive = [j for j in range(fw.n_tailor) if j not in active]
    if not inactive:
        return 0.0
    residual = 0.0
    for t in (fw.u_t, fw.s_t, fw.v_t):
        if t.grad is not None:
            block = t.grad[..., inactive]
            residual = max(residual, float(np.abs(block).max(initial=0.0)))
            t.grad[..., inactive] = 0.0
    return residual
