"""Projection matrices stored as rank-1 components with a shared/gated split.

Each weight matrix W (out_dim x in_dim) is decomposed into rank-1 triples
(u_i, sigma_i, v_i). The first ``n_learngene`` components are shared across
every condition and always carry coefficient 1; the remaining ``n_tailor``
components are scaled per condition by gated coefficients, so the effective
matrix is

    W~ = sum_{i<N_G} u_i sigma_i v_i^T  +  sum_{j active} g_j u_j sigma_j v_j^T

Orthonormality and singular-value ordering hold at creation time only;
training updates U, Sigma, V freely with no re-projection.
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

    @property
    def n_tailor(self) -> int:
        return self.g.size

    @staticmethod
    def inactive(n_tailor: int) -> "GatedCoefficients":
        return GatedCoefficients(Tensor(np.zeros(n_tailor)), ())


class FactorizedWeight:
    """One projection matrix in factorized form.

    Learngene and tailor components are stored as separate (U, Sigma, V)
    triples so either group can be frozen or replaced independently; the
    ``U`` / ``Sigma`` / ``V`` properties expose the concatenated view with
    learngenes in columns [0, n_learngene).
    """

    def __init__(self, u_g, s_g, v_g, u_t, s_t, v_t,
                 projection_tag: str = "", layer_index: int = 0):
        self.u_g = u_g if isinstance(u_g, Tensor) else Tensor(u_g, requires_grad=True)
        self.s_g = s_g if isinstance(s_g, Tensor) else Tensor(s_g, requires_grad=True)
        self.v_g = v_g if isinstance(v_g, Tensor) else Tensor(v_g, requires_grad=True)
        self.u_t = u_t if isinstance(u_t, Tensor) else Tensor(u_t, requires_grad=True)
        self.s_t = s_t if isinstance(s_t, Tensor) else Tensor(s_t, requires_grad=True)
        self.v_t = v_t if isinstance(v_t, Tensor) else Tensor(v_t, requires_grad=True)
        self.projection_tag = projection_tag
        self.layer_index = layer_index
        if self.u_g.shape[1] != self.s_g.size or self.v_g.shape[1] != self.s_g.size:
            raise ContractError("learngene block shapes disagree")
        if self.u_t.shape[1] != self.s_t.size or self.v_t.shape[1] != self.s_t.size:
            raise ContractError("tailor block shapes disagree")
        if self.u_g.shape[0] != self.u_t.shape[0] or self.v_g.shape[0] != self.v_t.shape[0]:
            raise ContractError("learngene and tailor blocks disagree on matrix shape")

    # -- bookkeeping ----------------------------------------------------
    @property
    def out_dim(self) -> int:
        return self.u_g.shape[0]

    @property
    def in_dim(self) -> int:
        return self.v_g.shape[0]

    @property
    def n_learngene(self) -> int:
        return self.s_g.size

    @property
    def n_tailor(self) -> int:
        return self.s_t.size

    @property
    def rank(self) -> int:
        return self.n_learngene + self.n_tailor

    @property
    def U(self) -> np.ndarray:
        return np.concatenate([self.u_g.data, self.u_t.data], axis=1)

    @property
    def Sigma(self) -> np.ndarray:
        return np.concatenate([self.s_g.data, self.s_t.data])

    @property
    def V(self) -> np.ndarray:
        return np.concatenate([self.v_g.data, self.v_t.data], axis=1)

    def tensors(self) -> dict:
        return {"u_g": self.u_g, "s_g": self.s_g, "v_g": self.v_g,
                "u_t": self.u_t, "s_t": self.s_t, "v_t": self.v_t}


def svd_factorize(w, truncate_to: int | None = None,
                  projection_tag: str = "", layer_index: int = 0) -> FactorizedWeight:
    """Factorize a dense matrix into rank-1 components via SVD.

    All components land in the learngene block (n_tailor = 0); call
    ``partition`` to split them. With ``truncate_to`` only that many leading
    components are kept and the reconstruction error is whatever the
    discarded singular values add up to.
    """
    w = np.asarray(w, dtype=np.float64)
    if w.ndim != 2:
        raise ContractError("svd_factorize expects a matrix")
    if not np.isfinite(w).all():
        raise ContractError("svd_factorize input must be finite")
    r_full = min(w.shape)
    if truncate_to is not None and not (1 <= truncate_to <= r_full):
        raise ContractError(f"truncate_to must lie in [1, {r_full}]")
    try:
        u, s, vt = np.linalg.svd(w, full_matrices=False)
    except np.linalg.LinAlgError as e:
        raise NumericError(
            f"SVD failed to converge (shape {w.shape}, "
            f"|W|_F={np.linalg.norm(w):.3e}, max|W|={np.abs(w).max():.3e}): {e}"
        ) from e
    r = truncate_to if truncate_to is not None else r_full
    empty_u = np.zeros((w.shape[0], 0))
    empty_v = np.zeros((w.shape[1], 0))
    return FactorizedWeight(
        u[:, :r], s[:r], vt[:r].T, empty_u, np.zeros(0), empty_v,
        projection_tag=projection_tag, layer_index=layer_index)


def partition(fw: FactorizedWeight, n_learngene: int, n_tailor: int) -> FactorizedWeight:
    """Split the components of ``fw`` into learngene and tailor blocks.

    The learngene block takes the first ``n_learngene`` componenents, which
    immediately after ``svd_factorize`` are the largest-sigma directions.
    """
    if n_learngene + n_tailor != fw.rank:
        raise ContractError(
            f"n_learngene + n_tailor = {n_learngene + n_tailor} != rank {fw.rank}")
    if n_learngene < 0 or n_tailor < 0:
        raise ContractError("block sizes must be non-negative")
    u = fw.U
    s = fw.Sigma
    v = fw.V
    return FactorizedWeight(
        u[:, :n_learngene].copy(), s[:n_learngene].copy(), v[:, :n_learngene].copy(),
        u[:, n_learngene:].copy(), s[n_learngene:].copy(), v[:, n_learngene:].copy(),
        projection_tag=fw.projection_tag, layer_index=fw.layer_index)


def compose_weight(fw: FactorizedWeight, coeffs: GatedCoefficients) -> Tensor:
    """Materialize the condition-adaptive matrix W~ (out_dim x in_dim)."""
    if coeffs.n_tailor != fw.n_tailor:
        raise ContractError(
            f"coefficient length {coeffs.n_tailor} != n_tailor {fw.n_tailor}")
    w = T.matmul(T.mul(fw.u_g, fw.s_g), T.transpose2(fw.v_g))
    if fw.n_tailor:
        scale = T.mul(coeffs.g, fw.s_t)
        w = T.add(w, T.matmul(T.mul(fw.u_t, scale), T.transpose2(fw.v_t)))
    return w


def reconstruct(fw: FactorizedWeight) -> Tensor:
    """Full component sum with every coefficient equal to 1."""
    w = T.matmul(T.mul(fw.u_g, fw.s_g), T.transpose2(fw.v_g))
    if fw.n_tailor:
        w = T.add(w, T.matmul(T.mul(fw.u_t, fw.s_t), T.transpose2(fw.v_t)))
    return w


def apply_factorized(x, fw: FactorizedWeight, coeffs) -> Tensor:
    """Compute ``x @ W~.T`` without materializing W~, as one
    ``T.factorized_linear`` tape node.

    ``coeffs`` may be a GatedCoefficients (one routing for the whole batch),
    a Tensor of per-row coefficient vectors with shape (..., n_tailor)
    broadcastable against ``x @ v_t``, or None for the learngene block
    alone. Mathematically identical to
    ``linear(x, compose_weight(fw, coeffs))`` up to float rounding; the
    gradient reaches every factor and the coefficients.
    """
    if fw.n_tailor == 0 or coeffs is None:
        return T.factorized_linear(x, fw.u_g, fw.s_g, fw.v_g)
    g = coeffs.g if isinstance(coeffs, GatedCoefficients) else coeffs
    return T.factorized_linear(x, fw.u_g, fw.s_g, fw.v_g,
                               fw.u_t, fw.s_t, fw.v_t, g)


def masked_gradient_apply(fw: FactorizedWeight, coeffs) -> float:
    """Zero any residual gradient on inactive tailor columns.

    Differentiating the gated composition already yields exact zeros there;
    this pass measures the largest residual (returned for diagnostics) and
    clears it. ``coeffs`` is a GatedCoefficients or an iterable of active
    tailor indices.
    """
    active = coeffs.active_set if isinstance(coeffs, GatedCoefficients) else tuple(coeffs)
    inactive = [j for j in range(fw.n_tailor) if j not in set(active)]
    if not inactive:
        return 0.0
    residual = 0.0
    for t in (fw.u_t, fw.v_t):
        if t.grad is not None:
            block = t.grad[:, inactive]
            residual = max(residual, float(np.abs(block).max(initial=0.0)))
            t.grad[:, inactive] = 0.0
    if fw.s_t.grad is not None:
        block = fw.s_t.grad[inactive]
        residual = max(residual, float(np.abs(block).max(initial=0.0)))
        fw.s_t.grad[inactive] = 0.0
    return residual
