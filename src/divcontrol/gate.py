"""Instruction-conditioned routing over tailor components.

A frozen hashed-token embedding stands in for a pretrained text encoder;
a two-layer perceptron maps the embedding to softmax scores over tailors.
Selection applies per-tailor balance biases (top-K on score + bias) while
the emitted coefficients stay unbiased, and the biases are nudged after
each batch toward uniform tailor load without any auxiliary loss term.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .errors import ContractError, InvalidInputError
from .rng import fresh, stream
from .tensor import Tensor

VOCAB_HASH_SIZE = 4096


def _token_index(token: str) -> int:
    digest = hashlib.sha256(token.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little") % VOCAB_HASH_SIZE


class InstructionEncoder:
    """Frozen bag-of-tokens encoder: hash tokens into a seeded Gaussian
    table, mean-pool, L2-normalize."""

    def __init__(self, encoder_seed: int, embed_dim: int):
        gen = stream(encoder_seed, "embed-table")
        self.table = gen.standard_normal((VOCAB_HASH_SIZE, embed_dim))

    def encode(self, text: str) -> np.ndarray:
        """The instruction's unit-norm embedding, shape (embed_dim,)."""
        tokens = text.lower().split()
        if not tokens:
            raise InvalidInputError("instruction text is empty")
        rows = self.table[[_token_index(t) for t in tokens]]
        pooled = rows.mean(axis=0)
        norm = np.linalg.norm(pooled)
        if norm > 0:
            pooled = pooled / norm
        return pooled


@dataclass
class GateState:
    """Routing network plus load-balancing state.

    ``balance_bias`` takes part only in top-K selection, never in the
    emitted coefficient values. ``batch_count`` holds tailor activations
    since the last bias update; ``usage_count`` accumulates the totals.
    """

    w1: Tensor
    b1: Tensor
    w2: Tensor
    b2: Tensor
    k: int
    bias_update_rate: float
    balance_bias: np.ndarray = None
    usage_count: np.ndarray = None
    batch_count: np.ndarray = field(default=None, repr=False)

    def __post_init__(self):
        n_t = self.w2.shape[0]
        if not (0 <= self.k <= n_t):
            raise ContractError(f"K={self.k} outside [0, {n_t}]")
        if self.balance_bias is None:
            self.balance_bias = np.zeros(n_t)
        if self.usage_count is None:
            self.usage_count = np.zeros(n_t, dtype=np.int64)
        if self.batch_count is None:
            self.batch_count = np.zeros(n_t, dtype=np.int64)

    @property
    def n_tailor(self) -> int:
        return self.w2.shape[0]

    @property
    def embed_dim(self) -> int:
        return self.w1.shape[1]

    def tensors(self) -> dict:
        return {"w1": self.w1, "b1": self.b1, "w2": self.w2, "b2": self.b2}

    @staticmethod
    def init(embed_dim: int, n_tailor: int, k: int, seed: int,
             bias_update_rate: float, source=fresh) -> "GateState":
        """Hidden layer Kaiming-uniform, output layer zero so routing starts
        uniform. Each parameter ``gate.<name>`` comes from ``source`` (see
        ``rng.fresh``)."""
        bound = np.sqrt(6.0 / embed_dim)

        def param(name, shape, draw=None):
            return Tensor(source("gate." + name, shape,
                                 draw or (lambda: np.zeros(shape))), requires_grad=True)

        w1 = param("w1", (embed_dim, embed_dim), lambda: stream(
            seed, "init", "gate").uniform(-bound, bound, (embed_dim, embed_dim)))
        return GateState(w1, param("b1", (embed_dim,)),
                         param("w2", (n_tailor, embed_dim)), param("b2", (n_tailor,)),
                         k=k, bias_update_rate=bias_update_rate)


def gate_logits(gate: GateState, e: np.ndarray) -> Tensor:
    if e.size != gate.embed_dim:
        raise ContractError(f"embedding dim {e.size} != gate dim {gate.embed_dim}")
    h = T.tanh(T.add(T.linear(Tensor(e.reshape(1, -1)), gate.w1), gate.b1))
    return T.reshape(T.add(T.linear(h, gate.w2), gate.b2), (gate.n_tailor,))


def route(gate: GateState, e: np.ndarray) -> Tensor:
    """Softmax routing weights over tailors; differentiable into the gate."""
    return T.softmax(gate_logits(gate, e))


def topk_select(alpha, gate: GateState) -> tuple:
    """Pick the K tailors with the largest biased score, keep unbiased values.

    Returns ``(g, active)``: ``g`` is a length-N_T tensor holding the
    unbiased scores of the selected tailors and zero elsewhere, and
    ``active`` the selected indices in selection order. Ties break toward
    the lower index.
    """
    alpha_t = alpha if isinstance(alpha, Tensor) else Tensor(alpha)
    n_t = gate.n_tailor
    if alpha_t.size != n_t:
        raise ContractError(f"alpha length {alpha_t.size} != n_tailor {n_t}")
    scores = alpha_t.data + gate.balance_bias
    order = np.argsort(-scores, kind="stable")  # stable: ties -> lower index
    active = tuple(int(i) for i in order[:gate.k])
    mask = np.zeros(n_t)
    mask[list(active)] = 1.0
    return T.mul(alpha_t, mask), active


def record_usage(gate: GateState, active, count: int = 1) -> None:
    """Count ``count`` routing events for each tailor in ``active``."""
    for j in active:
        gate.batch_count[j] += count


def update_biases(gate: GateState) -> None:
    """Sign-rule balance update from the batch's load, then fold counts.

    b_i <- b_i - rate * sign(load_i - mean_load); sign(0) = 0, so a
    perfectly balanced batch leaves the biases untouched.
    """
    load = gate.batch_count.astype(np.float64)
    # the sign of load_i - mean, with no division: no tailors have no mean
    delta = np.sign(load * load.size - load.sum())
    gate.balance_bias = gate.balance_bias - gate.bias_update_rate * delta
    gate.usage_count = gate.usage_count + gate.batch_count
    gate.batch_count = np.zeros_like(gate.batch_count)


def similarity_matrix(gate: GateState, embeddings) -> np.ndarray:
    """Pairwise cosine similarity of routing vectors; symmetric, unit diagonal."""
    embeddings = list(embeddings)
    if len(embeddings) < 2:
        raise ContractError("similarity_matrix needs at least 2 embeddings")
    with T.no_grad():
        a = np.stack([route(gate, e).data for e in embeddings])
    a /= np.linalg.norm(a, axis=1, keepdims=True)  # softmax rows are never zero
    return a @ a.T
