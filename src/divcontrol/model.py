"""Toy pixel-space DDPM with a factorized condition branch.

The denoiser is a tiny pre-norm transformer over image patches
(single-head attention q/k/v/o plus a two-layer MLP in/out, residuals
everywhere). The condition branch mirrors it, but keeps each of its six
projections per layer as the SVD factors below and injects its per-layer
token features additively into the denoiser through zero-initialized
projections, so at step 0 the condition contributes exactly nothing.
Both networks make and run each layer with ``_Network._layer`` and
``_block``, dense or factorized; a branch without tailors is no exception.
Every network, pass and schedule takes its sizes, seeds and dropout
rate from the run's ``RunConfig``.

A projection's ``FactorizedWeight`` record holds the six factor tensors
``T.factorized_linear`` takes, the leading rank-1 triples (u_i, sigma_i, v_i)
of one SVD of W (``svd_blocks``): ``n_learngene`` learngenes of largest
sigma with coefficient 1, then ``n_tailor`` tailors scaled per condition
by gated coefficients g_j, so that

    W~ = sum_{i<N_G} u_i sigma_i v_i^T  +  sum_{j active} g_j u_j sigma_j v_j^T

and ``T.factorized_linear`` computes ``x @ W~.T`` without forming W~.
Orthonormality and sigma ordering hold at creation only: training moves
the factors freely and nothing re-projects them.

The gate picks each condition's tailors from its instruction. The frozen
encoder ``embed_instruction`` hashes the tokens into a seeded Gaussian
table, drawn once per process, and L2-normalizes their mean row; ``route``
maps that through a tanh layer to a (1, n_tailor) row of softmax scores.
``topk_select`` ranks score + balance bias but emits the unbiased scores.
Routing writes no gate state: ``update_biases`` moves the biases after each
batch by a sign rule on its tailor load, with no auxiliary loss.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import tensor as T
from .config import RunConfig
from .errors import ContractError, InvalidInputError, NumericError
from .rng import stream
from .tensor import Tensor


# ----------------------------------------------------------------------
# patch helpers (pure numpy; inputs enter the tape as constants)
# ----------------------------------------------------------------------

def patchify(x: np.ndarray, patch: int) -> np.ndarray:
    """(B, H, W) -> (B, N, patch*patch) row-major patch grid."""
    b, h, w = x.shape
    nh, nw = h // patch, w // patch
    t = x.reshape(b, nh, patch, nw, patch).transpose(0, 1, 3, 2, 4)
    return t.reshape(b, nh * nw, patch * patch)


def unpatchify(tokens: np.ndarray, image_size: int, patch: int) -> np.ndarray:
    b = tokens.shape[0]
    nh = image_size // patch
    t = tokens.reshape(b, nh, nh, patch, patch).transpose(0, 1, 3, 2, 4)
    return t.reshape(b, image_size, image_size)


def _kaiming_uniform(gen, out_dim: int, in_dim: int) -> np.ndarray:
    bound = np.sqrt(6.0 / in_dim)
    return gen.uniform(-bound, bound, (out_dim, in_dim))


class _Network:
    """A network whose constructor makes its trainable parameters with the
    methods below, each named and kept as ``prefix + name`` and taken from
    ``source`` (see ``rng.fresh``); ``_kaiming`` and ``_normal`` draw from
    the stream ("init", prefix + name)."""

    def _params_from(self, source, seed: int, prefix: str) -> None:
        self._source, self._seed, self._prefix, self._made = source, seed, prefix, {}

    def _gen(self, name: str):
        return stream(self._seed, "init", self._prefix + name)

    def _param(self, name: str, shape: tuple, draw) -> Tensor:
        name = self._prefix + name
        self._made[name] = Tensor(self._source(name, shape, draw), requires_grad=True)
        return self._made[name]

    def _kaiming(self, name: str, out_dim: int, in_dim: int) -> Tensor:
        return self._param(name, (out_dim, in_dim),
                           lambda: _kaiming_uniform(self._gen(name), out_dim, in_dim))

    def _normal(self, name: str, *shape) -> Tensor:
        return self._param(name, shape,
                           lambda: 0.02 * self._gen(name).standard_normal(shape))

    def _full(self, name: str, value: float, *shape) -> Tensor:
        return self._param(name, shape, lambda: np.full(shape, value))

    def _layer(self, cfg: RunConfig, l: int, projection) -> dict:
        """Layer ``l``'s two norms and six projections, keyed ``ln1_g`` ...
        ``ln2_b`` and by tag, in the order they are made.
        ``projection(l, tag, out_dim, in_dim)`` makes projection ``tag``."""
        d, hid = cfg.token_dim, cfg.mlp_hidden
        blk = {}
        for ln, shapes in (("ln1", {"q": (d, d), "k": (d, d), "v": (d, d), "o": (d, d)}),
                           ("ln2", {"in": (hid, d), "out": (d, hid)})):
            blk[ln + "_g"] = self._full(f"l{l}.{ln}_g", 1.0, d)
            blk[ln + "_b"] = self._full(f"l{l}.{ln}_b", 0.0, d)
            for tag, shape in shapes.items():
                blk[tag] = projection(l, tag, *shape)
        return blk

    def tensors(self) -> dict:
        """The parameters by full name, in the order they were made."""
        return dict(self._made)


# a layer's projection tags and the names of their dense weights, which
# name the denoiser's parameters and the branch's SVD draws
_WEIGHT_NAMES = {"q": "wq", "k": "wk", "v": "wv", "o": "wo", "in": "w_in", "out": "w_out"}


# ----------------------------------------------------------------------
# networks
# ----------------------------------------------------------------------

class DenoiserNet(_Network):
    """Dense-weight denoiser backbone."""

    def __init__(self, cfg: RunConfig, source):
        d, p = cfg.token_dim, cfg.patch_dim
        self._params_from(source, cfg.seed, "den.")
        self.patch_w = self._kaiming("patch_w", d, p)
        self.patch_b = self._full("patch_b", 0.0, d)
        self.pos = self._normal("pos", cfg.n_patches, d)
        self.time_table = self._normal("time", cfg.timesteps, d)
        self.blocks = [self._layer(cfg, l, lambda l, tag, *shape: self._kaiming(
            f"l{l}.{_WEIGHT_NAMES[tag]}", *shape)) for l in range(cfg.layers)]
        self.lnf_g = self._full("lnf_g", 1.0, d)
        self.lnf_b = self._full("lnf_b", 0.0, d)
        self.head_w = self._kaiming("head_w", p, d)
        self.head_b = self._full("head_b", 0.0, p)


class FactorizedWeight(NamedTuple):
    """A projection's learngene and tailor triples, apart so that either can
    be frozen or replaced, in the argument order of ``T.factorized_linear``."""

    u_g: Tensor
    s_g: Tensor
    v_g: Tensor
    u_t: Tensor
    s_t: Tensor
    v_t: Tensor


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


def masked_gradient_apply(fw: FactorizedWeight, load: np.ndarray) -> float:
    """Zero any residual gradient on the tailor columns where the batch's
    ``load``, its count of items routed to each tailor, is zero.

    Differentiating the gated composition already yields exact zeros there;
    this pass measures the largest residual (returned for diagnostics) and
    clears it.
    """
    inactive = load == 0
    if not inactive.any():
        return 0.0
    residual = 0.0
    for t in (fw.u_t, fw.s_t, fw.v_t):
        if t.grad is not None:
            block = t.grad[..., inactive]
            residual = max(residual, float(np.abs(block).max(initial=0.0)))
            t.grad[..., inactive] = 0.0
    return residual


def _adapter_tailors(gen, out_dim: int, in_dim: int, n_t: int) -> dict:
    """Fresh tailor components for adaptation: unit-norm random u/v
    columns at zero sigma, so they leave the composed weight untouched until
    training moves the scales."""
    u = gen.standard_normal((out_dim, n_t))
    u /= np.linalg.norm(u, axis=0, keepdims=True)
    v = gen.standard_normal((in_dim, n_t))
    v /= np.linalg.norm(v, axis=0, keepdims=True)
    return {"u_t": u, "s_t": np.zeros(n_t), "v_t": v}


class ControlBranch(_Network):
    """Condition encoder with factorized projections and zero-init injections.

    Each projection is the SVD of a Kaiming draw, split into ``n_learngene``
    learngene and ``n_tailor`` tailor components. A mode that adapts (see
    ``config.MODES``) keeps that learngene block and takes ``cfg.run.n_tailor``
    fresh tailors from ``_adapter_tailors``.
    """

    def __init__(self, cfg: RunConfig, source):
        d, p = cfg.token_dim, cfg.patch_dim
        run, n_g = cfg.run, cfg.n_learngene
        n_t = run.n_tailor
        self._params_from(source, cfg.seed, "br.")

        def make_fw(l, tag, out_dim, in_dim):
            # one SVD makes every block, and it runs only if one is drawn
            svd = functools.cache(lambda: svd_blocks(
                _kaiming_uniform(self._gen(f"l{l}.{_WEIGHT_NAMES[tag]}"), out_dim, in_dim),
                n_g, cfg.n_tailor))
            adapter = functools.cache(lambda: _adapter_tailors(
                stream(cfg.seed, "init", f"adapt.l{l}.fw_{tag}"), out_dim, in_dim, n_t))
            shapes = {"u_g": (out_dim, n_g), "s_g": (n_g,), "v_g": (in_dim, n_g),
                      "u_t": (out_dim, n_t), "s_t": (n_t,), "v_t": (in_dim, n_t)}
            return FactorizedWeight(*(
                self._param(f"l{l}.fw_{tag}.{part}", shape, lambda part=part: (
                    adapter if run.adapts and part.endswith("_t") else svd)()[part])
                for part, shape in shapes.items()))

        self.patch_w = self._kaiming("patch_w", d, p)
        self.patch_b = self._full("patch_b", 0.0, d)
        self.time_table = self._normal("time", cfg.timesteps, d)
        self.blocks = []
        for l in range(cfg.controlnet_layers):
            blk = self._layer(cfg, l, make_fw)
            blk["inj_w"] = self._full(f"l{l}.inj_w", 0.0, d, d)
            self.blocks.append(blk)

    def factorized_weights(self):
        for blk in self.blocks:
            for tag in _WEIGHT_NAMES:
                yield blk[tag]


class RepaHead(_Network):
    """Trainable alignment MLP plus a frozen seeded patch encoder.

    The encoder projects each patch with a fixed (semi-)orthogonal matrix
    and L2-normalizes, so it is an information-preserving stand-in for a
    pretrained vision model. It never receives gradients.
    """

    def __init__(self, cfg: RunConfig, source):
        d, p = cfg.token_dim, cfg.patch_dim
        hid, out = cfg.repa_hidden, cfg.repa_dim
        self._params_from(source, cfg.seed, "repa.")
        self.a1 = self._kaiming("a1", hid, d)
        self.a1b = self._full("a1b", 0.0, hid)
        self.a2 = self._kaiming("a2", out, hid)
        self.a2b = self._full("a2b", 0.0, out)
        enc_gen = stream(cfg.encoder_seed, "vision-encoder")
        if out >= p:
            q, _ = np.linalg.qr(enc_gen.standard_normal((out, p)))
            self.enc_w = q  # orthonormal columns: isometric on patches
        else:
            q, _ = np.linalg.qr(enc_gen.standard_normal((p, out)))
            self.enc_w = q.T  # orthonormal rows: projection
        self.patch_size = cfg.patch_size

    def encode(self, x_cond: np.ndarray) -> np.ndarray:
        """Patchify a (B, H, W) stack, project with the frozen matrix and
        L2-normalize per patch. All-zero patches stay zero vectors."""
        tokens = patchify(x_cond, self.patch_size)
        e = tokens @ self.enc_w.T
        norms = np.linalg.norm(e, axis=-1, keepdims=True)
        return np.where(norms > 0, e / np.maximum(norms, 1e-300), 0.0)

    def align(self, f_cond: Tensor) -> Tensor:
        """A(f_cond): two-layer MLP from branch tokens to encoder space."""
        h = T.gelu(T.add(T.linear(f_cond, self.a1), self.a1b))
        return T.add(T.linear(h, self.a2), self.a2b)


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
    """Routing network plus load-balancing state over ``cfg.run.n_tailor``
    tailors, ``cfg.run.top_k`` active per condition (see ``config.MODES``).

    The hidden layer ``w1`` is Kaiming-uniform from the stream
    ("init", "gate") and the rest start at zero, so routing starts uniform.
    ``update_biases`` alone writes ``balance_bias`` and ``usage_count``, the
    count of the items routed to each tailor over the run; routing reads them.
    """

    def __init__(self, cfg: RunConfig, source):
        d, self.bias_update_rate = cfg.embed_dim, cfg.gate_bias_rate
        self.n_tailor, self.k = cfg.run.n_tailor, cfg.run.top_k
        self._params_from(source, cfg.seed, "gate.")
        self.w1 = self._param("w1", (d, d), lambda: _kaiming_uniform(
            stream(cfg.seed, "init", "gate"), d, d))
        self.b1 = self._full("b1", 0.0, d)
        self.w2 = self._full("w2", 0.0, self.n_tailor, d)
        self.b2 = self._full("b2", 0.0, self.n_tailor)
        self.balance_bias = np.zeros(self.n_tailor)
        self.usage_count = np.zeros(self.n_tailor, dtype=np.int64)


def route(gate: GateState, e: np.ndarray) -> Tensor:
    """Softmax routing weights over tailors, a (1, n_tailor) row;
    differentiable into the gate."""
    if e.size != gate.w1.shape[1]:
        raise ContractError(f"embedding dim {e.size} != gate dim {gate.w1.shape[1]}")
    h = T.tanh(T.add(T.linear(Tensor(e.reshape(1, -1)), gate.w1), gate.b1))
    return T.softmax(T.add(T.linear(h, gate.w2), gate.b2))


def topk_select(alpha: Tensor, gate: GateState) -> tuple:
    """Pick the K tailors with the largest biased score, keep unbiased values.

    Returns ``(g, active)``: ``g`` is a tensor of ``alpha``'s shape holding
    the unbiased scores of the selected tailors and zero elsewhere, and
    ``active`` the selected indices in selection order. Ties break toward
    the lower index.
    """
    n_t = gate.n_tailor
    if alpha.size != n_t:
        raise ContractError(f"alpha length {alpha.size} != n_tailor {n_t}")
    scores = alpha.data.ravel() + gate.balance_bias
    order = np.argsort(-scores, kind="stable")  # stable: ties -> lower index
    active = tuple(int(i) for i in order[:gate.k])
    mask = np.zeros(n_t)
    mask[list(active)] = 1.0
    return T.mul(alpha, mask), active


def record_usage(load: np.ndarray, active, count: int) -> None:
    """Add ``count`` routed items to ``load`` for each tailor in ``active``."""
    load[list(active)] += count


def update_biases(gate: GateState, load: np.ndarray) -> None:
    """Sign-rule bias update from ``load``, then add it to ``usage_count``.

    b_i <- b_i - rate * sign(load_i - mean_load); sign(0) = 0, so a
    perfectly balanced batch leaves the biases untouched.
    """
    # the sign of load_i - mean, with no division: no tailors have no mean
    delta = np.sign(load * load.size - load.sum())
    gate.balance_bias = gate.balance_bias - gate.bias_update_rate * delta
    gate.usage_count = gate.usage_count + load


def similarity_matrix(gate: GateState, embeddings) -> np.ndarray:
    """Pairwise cosine similarity of routing vectors; symmetric, unit diagonal."""
    embeddings = list(embeddings)
    if len(embeddings) < 2:
        raise ContractError("similarity_matrix needs at least 2 embeddings")
    if gate.n_tailor == 0:
        raise ContractError("similarity_matrix needs a gate with tailors")
    with T.no_grad():
        a = np.concatenate([route(gate, e).data for e in embeddings])
    a /= np.linalg.norm(a, axis=1, keepdims=True)  # softmax rows are never zero
    return a @ a.T


# ----------------------------------------------------------------------
# DDPM schedule
# ----------------------------------------------------------------------

@dataclass
class NoiseSchedule:
    betas: np.ndarray
    alpha_bar: np.ndarray

    @staticmethod
    def linear(cfg: RunConfig) -> "NoiseSchedule":
        betas = np.linspace(cfg.beta_start, cfg.beta_end, cfg.timesteps)
        return NoiseSchedule(betas, np.cumprod(1.0 - betas))

    @property
    def timesteps(self) -> int:
        return self.betas.size


def forward_noise(z0: np.ndarray, t, eps: np.ndarray,
                  sched: NoiseSchedule) -> np.ndarray:
    """z_t = sqrt(abar_t) z0 + sqrt(1 - abar_t) eps."""
    t = np.asarray(t)
    if (t < 0).any() or (t >= sched.timesteps).any():
        raise ContractError(f"t out of range [0, {sched.timesteps})")
    ab = sched.alpha_bar[t].reshape((-1,) + (1,) * (z0.ndim - 1))
    return np.sqrt(ab) * z0 + np.sqrt(1.0 - ab) * eps


def posterior_step(z_t: np.ndarray, eps_hat: np.ndarray, t: int,
                   sched: NoiseSchedule, xi: np.ndarray | None) -> np.ndarray:
    """One ancestral DDPM update; ``xi`` must be None at t == 0."""
    beta = sched.betas[t]
    mean = (z_t - beta / np.sqrt(1.0 - sched.alpha_bar[t]) * eps_hat) \
        / np.sqrt(1.0 - beta)
    if t == 0:
        return mean
    var = (1.0 - sched.alpha_bar[t - 1]) / (1.0 - sched.alpha_bar[t]) * beta
    return mean + np.sqrt(var) * xi


# ----------------------------------------------------------------------
# forward passes
# ----------------------------------------------------------------------

def _dropout(x: Tensor, p: float, gen) -> Tensor:
    if p <= 0.0 or gen is None:
        return x
    mask = (gen.uniform(size=x.shape) >= p) / (1.0 - p)
    return T.mul(x, mask)


def _block(x, blk, project, cfg: RunConfig, drop_gen) -> Tensor:
    """One pre-norm layer: ``x`` plus single-head attention, then plus the
    GELU MLP, each on a layer-normed input. ``project(h, blk[tag])``
    applies the layer's projection ``tag`` to ``h``."""
    h = T.layer_norm(x, blk["ln1_g"], blk["ln1_b"])
    ctx = T.attention(project(h, blk["q"]), project(h, blk["k"]),
                      project(h, blk["v"]), 1.0 / np.sqrt(cfg.token_dim))
    x = T.add(x, project(ctx, blk["o"]))
    h = T.layer_norm(x, blk["ln2_g"], blk["ln2_b"])
    hidden = _dropout(T.gelu(project(h, blk["in"])), cfg.dropout, drop_gen)
    return T.add(x, project(hidden, blk["out"]))


def branch_forward(branch: ControlBranch, cfg: RunConfig,
                   xc_tokens, t_idx, coeff_rows, drop_gen=None):
    """Run the condition branch.

    Args:
        xc_tokens: (B, N, patch_dim) condition-image patches (constant).
        t_idx: (B,) integer timesteps.
        coeff_rows: per-item tailor coefficients, Tensor (B, 1, n_tailor);
            (B, 1, 0) when the branch has no tailors.
        drop_gen: the stream ``cfg.dropout`` masks are drawn from; None
            (eval and sampling) disables dropout.
    Returns:
        (injections, f_cond): per-layer injection tensors (B, N, D) and the
        tokens captured after ``repa_layer``.
    """
    x = T.add(T.linear(Tensor(xc_tokens), branch.patch_w), branch.patch_b)
    x = T.add(x, T.gather_rows(branch.time_table, t_idx[:, None]))

    def project(h, fw):
        return T.factorized_linear(h, *fw, coeff_rows)

    injections = []
    f_cond = None
    for li, blk in enumerate(branch.blocks):
        x = _block(x, blk, project, cfg, drop_gen)
        if li + 1 == cfg.repa_layer:
            f_cond = x
        injections.append(T.linear(x, blk["inj_w"]))
    return injections, f_cond


def denoiser_forward(den: DenoiserNet, cfg: RunConfig,
                     z_tokens, t_idx, injections, drop_gen=None) -> Tensor:
    """Predict noise tokens (B, N, patch_dim) from noisy-image tokens, adding
    ``injections[l]`` (a list, possibly empty) before layer ``l``; dropout as
    in ``branch_forward``."""
    x = T.add(T.linear(Tensor(z_tokens), den.patch_w), den.patch_b)
    x = T.add(x, den.pos)
    x = T.add(x, T.gather_rows(den.time_table, t_idx[:, None]))
    for li, blk in enumerate(den.blocks):
        if li < len(injections):
            x = T.add(x, injections[li])
        x = _block(x, blk, T.linear, cfg, drop_gen)
    y = T.layer_norm(x, den.lnf_g, den.lnf_b)
    return T.add(T.linear(y, den.head_w), den.head_b)


# ----------------------------------------------------------------------
# losses
# ----------------------------------------------------------------------

def diffusion_loss(eps, eps_hat) -> Tensor:
    """Mean squared error over every element."""
    if eps.shape != eps_hat.shape:
        raise ContractError("diffusion_loss shapes differ")
    diff = T.add(eps_hat, T.mul(eps, -1.0))  # negating the constant eps adds no node
    return T.mean_(T.mul(diff, diff))


def repa_loss(f_cond: Tensor, e_img: np.ndarray, head: RepaHead) -> Tensor:
    """Negative mean patch-wise cosine between A(f_cond) and e_img.

    Encoder rows are unit-norm or exactly zero; zero rows (masked-out
    patches) contribute similarity 0 and no gradient.
    """
    if f_cond.shape[:-1] != e_img.shape[:-1]:
        raise ContractError("repa_loss patch counts differ")
    af = head.align(f_cond)
    if af.shape[-1] != e_img.shape[-1]:
        raise ContractError("alignment head and encoder dims differ")
    num = T.sum_(T.mul(af, e_img), axis=-1)
    norm_af = T.sqrt(T.sum_(T.mul(af, af), axis=-1))
    norm_e = np.linalg.norm(e_img, axis=-1)
    den = T.clamp_min(T.mul(norm_af, norm_e), 1e-300)
    return T.mul(T.mean_(T.div(num, den)), -1.0)


# ----------------------------------------------------------------------
# sampling
# ----------------------------------------------------------------------

def sample_batch(den: DenoiserNet, branch: ControlBranch,
                 cfg: RunConfig, sched: NoiseSchedule,
                 x_cond: np.ndarray, coeff_rows: Tensor,
                 sample_indices) -> np.ndarray:
    """Ancestral DDPM sampling for a batch; deterministic per (cfg.seed, index).

    ``coeff_rows`` are the tailor coefficients ``branch_forward`` takes.
    Image ``i`` draws its initial noise and all step noises from the
    stream ("sample", sample_indices[i]) in timestep order.
    """
    b = x_cond.shape[0]
    hw = (cfg.image_size, cfg.image_size)
    gens = [stream(cfg.seed, "sample", i) for i in sample_indices]
    z = np.stack([g.standard_normal(hw) for g in gens])
    xc_tokens = patchify(x_cond, cfg.patch_size)
    with T.no_grad():
        for t in reversed(range(sched.timesteps)):
            t_idx = np.full(b, t, dtype=np.int64)
            injections, _ = branch_forward(branch, cfg, xc_tokens, t_idx,
                                           coeff_rows)
            tokens = denoiser_forward(den, cfg, patchify(z, cfg.patch_size),
                                      t_idx, injections).data
            eps_hat = unpatchify(tokens, cfg.image_size, cfg.patch_size)
            xi = None
            if t > 0:
                xi = np.stack([g.standard_normal(hw) for g in gens])
            z = posterior_step(z, eps_hat, t, sched, xi)
    return np.clip(z, -1.0, 1.0)


def count_parameters(tensor_dict: dict) -> int:
    return int(sum(t.size for t in tensor_dict.values()))
