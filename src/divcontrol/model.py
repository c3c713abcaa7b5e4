"""Toy pixel-space DDPM with a factorized condition branch.

The denoiser is a tiny pre-norm transformer over image patches
(single-head attention q/k/v/o plus a two-layer MLP in/out, residuals
everywhere). The condition branch mirrors it, but stores its six
projections per layer as FactorizedWeight and injects its per-layer
token features additively into the denoiser through zero-initialized
projections, so at step 0 the condition contributes exactly nothing.
Every network, pass and schedule takes its sizes from the run's
``RunConfig``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .config import RunConfig
from .errors import ContractError
from .factorized import FactorizedWeight, apply_factorized, factorize
from .rng import stream
from .tensor import Tensor


# ----------------------------------------------------------------------
# patch helpers (pure numpy; inputs enter the tape as constants)
# ----------------------------------------------------------------------

def patchify(x: np.ndarray, patch: int) -> np.ndarray:
    """(B, H, W) or (H, W) -> (B, N, patch*patch) row-major patch grid."""
    single = x.ndim == 2
    if single:
        x = x[None]
    b, h, w = x.shape
    nh, nw = h // patch, w // patch
    t = x.reshape(b, nh, patch, nw, patch).transpose(0, 1, 3, 2, 4)
    t = t.reshape(b, nh * nw, patch * patch)
    return t[0] if single else t


def unpatchify(tokens: np.ndarray, image_size: int, patch: int) -> np.ndarray:
    single = tokens.ndim == 2
    if single:
        tokens = tokens[None]
    b = tokens.shape[0]
    nh = image_size // patch
    t = tokens.reshape(b, nh, nh, patch, patch).transpose(0, 1, 3, 2, 4)
    t = t.reshape(b, image_size, image_size)
    return t[0] if single else t


def _kaiming(gen, out_dim: int, in_dim: int) -> np.ndarray:
    bound = np.sqrt(6.0 / in_dim)
    return gen.uniform(-bound, bound, (out_dim, in_dim))


def _param(data) -> Tensor:
    return Tensor(data, requires_grad=True)


# ----------------------------------------------------------------------
# networks
# ----------------------------------------------------------------------

class DenoiserNet:
    """Dense-weight denoiser backbone."""

    def __init__(self, cfg: RunConfig, seed: int):
        d, p, hid = cfg.token_dim, cfg.patch_dim, cfg.mlp_hidden

        def g(name):
            return stream(seed, "init", "den." + name)

        self.patch_w = _param(_kaiming(g("patch_w"), d, p))
        self.patch_b = _param(np.zeros(d))
        self.pos = _param(0.02 * g("pos").standard_normal((cfg.n_patches, d)))
        self.time_table = _param(0.02 * g("time").standard_normal((cfg.timesteps, d)))
        self.blocks = []
        for l in range(cfg.layers):
            blk = {
                "ln1_g": _param(np.ones(d)), "ln1_b": _param(np.zeros(d)),
                "wq": _param(_kaiming(g(f"l{l}.wq"), d, d)),
                "wk": _param(_kaiming(g(f"l{l}.wk"), d, d)),
                "wv": _param(_kaiming(g(f"l{l}.wv"), d, d)),
                "wo": _param(_kaiming(g(f"l{l}.wo"), d, d)),
                "ln2_g": _param(np.ones(d)), "ln2_b": _param(np.zeros(d)),
                "w_in": _param(_kaiming(g(f"l{l}.w_in"), hid, d)),
                "w_out": _param(_kaiming(g(f"l{l}.w_out"), d, hid)),
            }
            self.blocks.append(blk)
        self.lnf_g = _param(np.ones(d))
        self.lnf_b = _param(np.zeros(d))
        self.head_w = _param(_kaiming(g("head_w"), p, d))
        self.head_b = _param(np.zeros(p))

    def tensors(self) -> dict:
        out = {"patch_w": self.patch_w, "patch_b": self.patch_b,
               "pos": self.pos, "time": self.time_table}
        for l, blk in enumerate(self.blocks):
            for k, t in blk.items():
                out[f"l{l}.{k}"] = t
        out.update({"lnf_g": self.lnf_g, "lnf_b": self.lnf_b,
                    "head_w": self.head_w, "head_b": self.head_b})
        return out


PROJECTION_TAGS = ("q", "k", "v", "o", "in", "out")


class ControlBranch:
    """Condition encoder with factorized projections and zero-init injections."""

    def __init__(self, cfg: RunConfig, seed: int,
                 n_learngene: int, n_tailor: int):
        d, p, hid = cfg.token_dim, cfg.patch_dim, cfg.mlp_hidden
        self.n_learngene = n_learngene
        self.n_tailor = n_tailor

        def g(name):
            return stream(seed, "init", "br." + name)

        def make_fw(name, out_dim, in_dim):
            return factorize(_kaiming(g(name), out_dim, in_dim),
                             n_learngene, n_tailor)

        self.patch_w = _param(_kaiming(g("patch_w"), d, p))
        self.patch_b = _param(np.zeros(d))
        self.time_table = _param(0.02 * g("time").standard_normal((cfg.timesteps, d)))
        self.blocks = []
        for l in range(cfg.controlnet_layers):
            blk = {
                "ln1_g": _param(np.ones(d)), "ln1_b": _param(np.zeros(d)),
                "fw_q": make_fw(f"l{l}.wq", d, d),
                "fw_k": make_fw(f"l{l}.wk", d, d),
                "fw_v": make_fw(f"l{l}.wv", d, d),
                "fw_o": make_fw(f"l{l}.wo", d, d),
                "ln2_g": _param(np.ones(d)), "ln2_b": _param(np.zeros(d)),
                "fw_in": make_fw(f"l{l}.w_in", hid, d),
                "fw_out": make_fw(f"l{l}.w_out", d, hid),
                "inj_w": _param(np.zeros((d, d))),
            }
            self.blocks.append(blk)

    def factorized_weights(self):
        for blk in self.blocks:
            for key in ("fw_q", "fw_k", "fw_v", "fw_o", "fw_in", "fw_out"):
                yield blk[key]

    def tensors(self) -> dict:
        out = {"patch_w": self.patch_w, "patch_b": self.patch_b,
               "time": self.time_table}
        for l, blk in enumerate(self.blocks):
            for k, item in blk.items():
                if isinstance(item, FactorizedWeight):
                    for part, t in item.tensors().items():
                        out[f"l{l}.{k}.{part}"] = t
                else:
                    out[f"l{l}.{k}"] = item
        return out


class RepaHead:
    """Trainable alignment MLP plus a frozen seeded patch encoder.

    The encoder projects each patch with a fixed (semi-)orthogonal matrix
    and L2-normalizes, so it is an information-preserving stand-in for a
    pretrained vision model. It never receives gradients.
    """

    def __init__(self, cfg: RunConfig, seed: int, encoder_seed: int):
        d, p = cfg.token_dim, cfg.patch_dim
        hid, out = cfg.repa_hidden, cfg.repa_dim

        def g(name):
            return stream(seed, "init", "repa." + name)

        self.a1 = _param(_kaiming(g("a1"), hid, d))
        self.a1b = _param(np.zeros(hid))
        self.a2 = _param(_kaiming(g("a2"), out, hid))
        self.a2b = _param(np.zeros(out))
        enc_gen = stream(encoder_seed, "vision-encoder")
        if out >= p:
            q, _ = np.linalg.qr(enc_gen.standard_normal((out, p)))
            self.enc_w = q  # orthonormal columns: isometric on patches
        else:
            q, _ = np.linalg.qr(enc_gen.standard_normal((p, out)))
            self.enc_w = q.T  # orthonormal rows: projection
        self.patch_size = cfg.patch_size

    def tensors(self) -> dict:
        return {"a1": self.a1, "a1b": self.a1b, "a2": self.a2, "a2b": self.a2b}

    def encode(self, x_cond: np.ndarray) -> np.ndarray:
        """Patchify, project with the frozen matrix, L2-normalize per patch.

        All-zero patches stay zero vectors.
        """
        tokens = patchify(np.asarray(x_cond, dtype=np.float64), self.patch_size)
        e = tokens @ self.enc_w.T
        norms = np.linalg.norm(e, axis=-1, keepdims=True)
        return np.where(norms > 0, e / np.maximum(norms, 1e-300), 0.0)

    def align(self, f_cond: Tensor) -> Tensor:
        """A(f_cond): two-layer MLP from branch tokens to encoder space."""
        h = T.gelu(T.add(T.linear(f_cond, self.a1), self.a1b))
        return T.add(T.linear(h, self.a2), self.a2b)


# ----------------------------------------------------------------------
# DDPM schedule
# ----------------------------------------------------------------------

@dataclass
class NoiseSchedule:
    betas: np.ndarray
    alphas: np.ndarray
    alpha_bar: np.ndarray

    @staticmethod
    def linear(cfg: RunConfig) -> "NoiseSchedule":
        betas = np.linspace(cfg.beta_start, cfg.beta_end, cfg.timesteps)
        alphas = 1.0 - betas
        return NoiseSchedule(betas, alphas, np.cumprod(alphas))

    @property
    def timesteps(self) -> int:
        return self.betas.size


def forward_noise(z0: np.ndarray, t, eps: np.ndarray,
                  sched: NoiseSchedule) -> np.ndarray:
    """z_t = sqrt(abar_t) z0 + sqrt(1 - abar_t) eps."""
    t = np.asarray(t)
    if (t < 0).any() or (t >= sched.timesteps).any():
        raise ContractError(f"t out of range [0, {sched.timesteps})")
    ab = sched.alpha_bar[t]
    if t.ndim:
        ab = ab.reshape((-1,) + (1,) * (z0.ndim - 1))
    return np.sqrt(ab) * z0 + np.sqrt(1.0 - ab) * eps


def posterior_step(z_t: np.ndarray, eps_hat: np.ndarray, t: int,
                   sched: NoiseSchedule, xi: np.ndarray | None) -> np.ndarray:
    """One ancestral DDPM update; ``xi`` must be None at t == 0."""
    beta = sched.betas[t]
    mean = (z_t - beta / np.sqrt(1.0 - sched.alpha_bar[t]) * eps_hat) \
        / np.sqrt(sched.alphas[t])
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


def _attention(x, ln_g, ln_b, proj, d):
    h = T.layer_norm(x, ln_g, ln_b)
    ctx = T.attention(proj("q", h), proj("k", h), proj("v", h), 1.0 / np.sqrt(d))
    return proj("o", ctx)


def branch_forward(branch: ControlBranch, cfg: RunConfig,
                   xc_tokens, t_idx, coeff_rows,
                   dropout_p: float = 0.0, drop_gen=None):
    """Run the condition branch.

    Args:
        xc_tokens: (B, N, patch_dim) condition-image patches (constant).
        t_idx: (B,) integer timesteps.
        coeff_rows: per-item tailor coefficients, Tensor (B, n_tailor),
            or None when the branch has no tailors.
    Returns:
        (injections, f_cond): per-layer injection tensors (B, N, D) and the
        tokens captured after ``repa_layer``.
    """
    d = cfg.token_dim
    x = T.add(T.linear(Tensor(xc_tokens), branch.patch_w), branch.patch_b)
    temb = T.reshape(T.gather_rows(branch.time_table, t_idx), (len(t_idx), 1, d))
    x = T.add(x, temb)
    c3 = None
    if coeff_rows is not None:
        c3 = T.reshape(coeff_rows, (coeff_rows.shape[0], 1, branch.n_tailor))
    injections = []
    f_cond = None
    for li, blk in enumerate(branch.blocks):
        def proj(tag, h, _blk=blk):
            return apply_factorized(h, _blk["fw_" + tag], c3)

        x = T.add(x, _attention(x, blk["ln1_g"], blk["ln1_b"], proj, d))
        h2 = T.layer_norm(x, blk["ln2_g"], blk["ln2_b"])
        hidden = _dropout(T.gelu(proj("in", h2)), dropout_p, drop_gen)
        x = T.add(x, proj("out", hidden))
        if li + 1 == cfg.repa_layer:
            f_cond = x
        injections.append(T.linear(x, blk["inj_w"]))
    return injections, f_cond


def denoiser_forward(den: DenoiserNet, cfg: RunConfig,
                     z_tokens, t_idx, injections=None,
                     dropout_p: float = 0.0, drop_gen=None) -> Tensor:
    """Predict noise tokens (B, N, patch_dim) from noisy-image tokens."""
    d = cfg.token_dim
    x = T.add(T.linear(Tensor(z_tokens), den.patch_w), den.patch_b)
    x = T.add(x, den.pos)
    temb = T.reshape(T.gather_rows(den.time_table, t_idx), (len(t_idx), 1, d))
    x = T.add(x, temb)
    for li, blk in enumerate(den.blocks):
        if injections is not None and li < len(injections):
            x = T.add(x, injections[li])

        def proj(tag, h, _blk=blk):
            return T.linear(h, _blk["w" + tag])

        x = T.add(x, _attention(x, blk["ln1_g"], blk["ln1_b"], proj, d))
        h2 = T.layer_norm(x, blk["ln2_g"], blk["ln2_b"])
        hidden = _dropout(T.gelu(T.linear(h2, blk["w_in"])), dropout_p, drop_gen)
        x = T.add(x, T.linear(hidden, blk["w_out"]))
    y = T.layer_norm(x, den.lnf_g, den.lnf_b)
    return T.add(T.linear(y, den.head_w), den.head_b)


# ----------------------------------------------------------------------
# losses
# ----------------------------------------------------------------------

def diffusion_loss(eps, eps_hat) -> Tensor:
    """Mean squared error over every element."""
    eps_t = eps if isinstance(eps, Tensor) else Tensor(eps)
    hat_t = eps_hat if isinstance(eps_hat, Tensor) else Tensor(eps_hat)
    if eps_t.shape != hat_t.shape:
        raise ContractError("diffusion_loss shapes differ")
    diff = T.sub(eps_t, hat_t)
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
    return T.neg(T.mean_(T.div(num, den)))


# ----------------------------------------------------------------------
# sampling
# ----------------------------------------------------------------------

def sample_batch(den: DenoiserNet, branch: ControlBranch,
                 cfg: RunConfig, sched: NoiseSchedule,
                 x_cond: np.ndarray, coeff_rows: Tensor | None,
                 seed: int, sample_indices=None) -> np.ndarray:
    """Ancestral DDPM sampling for a batch; deterministic per (seed, index).

    ``coeff_rows`` are the tailor coefficients ``branch_forward`` takes.
    Image ``i`` draws its initial noise and all step noises from the
    stream ("sample", sample_indices[i]) in timestep order.
    """
    b = x_cond.shape[0]
    hw = (cfg.image_size, cfg.image_size)
    if sample_indices is None:
        sample_indices = range(b)
    gens = [stream(seed, "sample", i) for i in sample_indices]
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
