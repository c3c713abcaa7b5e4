"""Instruction-conditioned routing over tailor components.

``embed_instruction`` stands in for a pretrained text encoder: it hashes an
instruction's tokens into a frozen seeded Gaussian table, drawn once per
process and read-only, and L2-normalizes their mean row. The gate, a
``model._Network`` named ``gate.w1`` ... ``gate.b2``, maps it through a tanh
layer to softmax scores over tailors (``route``). Selection applies per-tailor
balance biases (top-K on score + bias) while the emitted coefficients stay
unbiased, and the biases are nudged after each batch toward uniform tailor
load without any auxiliary loss term.
"""

from __future__ import annotations

import functools
import hashlib

import numpy as np

from . import tensor as T
from .errors import ContractError, InvalidInputError
from .model import _kaiming_uniform, _Network
from .rng import fresh, stream
from .tensor import Tensor

VOCAB_HASH_SIZE = 4096


def _token_index(token: str) -> int:
    digest = hashlib.sha256(token.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little") % VOCAB_HASH_SIZE


@functools.cache
def _embed_table(encoder_seed: int, embed_dim: int) -> np.ndarray:
    """The frozen token table, drawn from ("embed-table",) once per
    (encoder_seed, embed_dim) and read-only."""
    table = stream(encoder_seed, "embed-table").standard_normal((VOCAB_HASH_SIZE, embed_dim))
    table.flags.writeable = False
    return table


def embed_instruction(text: str, encoder_seed: int, embed_dim: int) -> np.ndarray:
    """The instruction's unit-norm embedding, shape (embed_dim,): the mean of
    its lower-cased tokens' table rows, L2-normalized."""
    tokens = text.lower().split()
    if not tokens:
        raise InvalidInputError("instruction text is empty")
    rows = _embed_table(encoder_seed, embed_dim)[[_token_index(t) for t in tokens]]
    pooled = rows.mean(axis=0)
    norm = np.linalg.norm(pooled)
    return pooled / norm if norm > 0 else pooled


class GateState(_Network):
    """Routing network plus load-balancing state.

    The hidden layer ``w1`` is Kaiming-uniform from the stream
    ("init", "gate") and the rest start at zero, so routing starts uniform.
    ``balance_bias`` takes part only in top-K selection, never in the
    emitted coefficient values. ``batch_count`` holds tailor activations
    since the last bias update; ``usage_count`` accumulates the totals.
    """

    def __init__(self, embed_dim: int, n_tailor: int, k: int, seed: int,
                 bias_update_rate: float, source=fresh):
        if not 0 <= k <= n_tailor:
            raise ContractError(f"K={k} outside [0, {n_tailor}]")
        self.n_tailor, self.k, self.bias_update_rate = n_tailor, k, bias_update_rate
        self._params_from(source, seed, "gate.")
        self.w1 = self._param("w1", (embed_dim, embed_dim), lambda: _kaiming_uniform(
            stream(seed, "init", "gate"), embed_dim, embed_dim))
        self.b1 = self._full("b1", 0.0, embed_dim)
        self.w2 = self._full("w2", 0.0, n_tailor, embed_dim)
        self.b2 = self._full("b2", 0.0, n_tailor)
        self.balance_bias = np.zeros(n_tailor)
        self.usage_count = np.zeros(n_tailor, dtype=np.int64)
        self.batch_count = np.zeros(n_tailor, dtype=np.int64)


def route(gate: GateState, e: np.ndarray) -> Tensor:
    """Softmax routing weights over tailors; differentiable into the gate."""
    if e.size != gate.w1.shape[1]:
        raise ContractError(f"embedding dim {e.size} != gate dim {gate.w1.shape[1]}")
    h = T.tanh(T.add(T.linear(Tensor(e.reshape(1, -1)), gate.w1), gate.b1))
    return T.softmax(T.reshape(T.add(T.linear(h, gate.w2), gate.b2), (gate.n_tailor,)))


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
