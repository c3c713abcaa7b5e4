"""Flat key = value run configuration.

Every hyperparameter is one ``RunConfig`` field, declared once with its
default below; unknown keys in a config file are a hard error. The
resolved configuration is rendered as sorted ``key = value`` lines, and
its SHA-256 is the config digest that checkpoints embed, so seed and all
hyperparameters are covered.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
from dataclasses import dataclass, fields
from typing import NamedTuple

from .conditions import SSIM_WINDOW, TRANSFORM_BLOCK
from .errors import ConfigError, ContractError


def _intlist(text: str) -> tuple:
    text = text.strip()
    if not text:
        return ()
    return tuple(int(v.strip()) for v in text.split(","))


class Mode(NamedTuple):
    """What a run mode decides. A mode that adapts routes ``[adapt_condition]``,
    which must be novel_high, through fresh tailors and trains only the
    adapter (``training._adapter``); diversion routes the basic registry.
    ``MODES`` rows leave the sizes unset, and ``RunConfig.run`` reads them."""

    adapts: bool
    needs_base: bool  # grafts the adapter onto a diversion base checkpoint
    image_stream: str  # stream of the training bank's images
    n_tailor: int | None = None  # tailors per projection
    top_k: int | None = None  # tailors active per condition (K)
    steps: int | None = None  # step budget
    bank_size: int | None = None  # images in the training bank


MODES = {"diversion": Mode(adapts=False, needs_base=False, image_stream="image"),
         "adapt_frozen": Mode(adapts=True, needs_base=True, image_stream="adapt-image"),
         "scratch": Mode(adapts=True, needs_base=False, image_stream="adapt-image")}


@dataclass(frozen=True)
class RunConfig:
    seed: int = 0  # root seed for every random stream
    mode: str = "diversion"  # a key of MODES
    steps: int = 5000  # optimizer steps for diversion training
    batch_size: int = 16  # items per batch
    dataset_size: int = 2048  # synthetic base images in the bank
    lr: float = 1e-3  # base learning rate
    lr_milestones: tuple = (3500,)  # comma-separated decay steps
    lr_factor: float = 0.4  # multiplicative decay at each milestone
    weight_decay: float = 3e-2  # decoupled AdamW weight decay
    adam_beta1: float = 0.9  # AdamW first-moment coefficient
    adam_beta2: float = 0.999  # AdamW second-moment coefficient
    adam_eps: float = 1e-8  # AdamW denominator epsilon
    image_size: int = 16  # square image side
    patch_size: int = 4  # square patch side
    token_dim: int = 64  # transformer token width
    mlp_hidden: int = 128  # MLP hidden width
    layers: int = 4  # denoiser transformer layers
    controlnet_layers: int = 4  # condition-branch layers
    timesteps: int = 100  # diffusion timesteps
    beta_start: float = 1e-4  # first beta of the linear schedule
    beta_end: float = 2e-2  # last beta of the linear schedule
    dropout: float = 0.1  # dropout on MLP activations during training
    n_learngene: int = 32  # shared components per projection
    n_tailor: int = 32  # condition-specific components per projection
    top_k: int = 16  # tailors activated per condition
    gate_bias_rate: float = 1e-3  # balance-bias step size
    embed_dim: int = 64  # instruction embedding width
    encoder_seed: int = 7027  # seed of the frozen instruction/vision encoders
    lambda_repa: float = 0.05  # alignment loss weight
    repa_layer: int = 2  # branch layer whose tokens are aligned
    repa_dim: int = 48  # frozen vision-encoder output width
    repa_hidden: int = 128  # alignment MLP hidden width
    adapt_condition: str = "shuffle"  # condition id for few-shot adaptation
    adapt_steps: int = 500  # optimizer steps for adaptation
    adapt_images: int = 200  # few-shot image budget
    adapt_n_tailor: int = 16  # fresh tailor components per projection
    adapt_top_k: int = 8  # active tailors during adaptation
    eval_samples: int = 128  # held-out samples for evaluation metrics

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "float" and type(value) is int:
                try:
                    object.__setattr__(self, f.name, float(value))
                except OverflowError:
                    raise ConfigError(f"'{f.name}' must be finite, not an int "
                                      f"past float's range") from None
            elif type(value) is not _TYPES[f.type] or (
                    f.type == "tuple" and any(type(v) is not int for v in value)):
                raise ConfigError(f"'{f.name}' must be {f.type}, not {value!r}")
            elif f.type == "float" and not math.isfinite(value):
                raise ConfigError(f"'{f.name}' must be finite, not {value!r}")
            elif f.type in ("int", "tuple") and not all(
                    -2**63 <= v < 2**63 for v in (value if f.type == "tuple" else (value,))):
                raise ConfigError(f"'{f.name}' must fit in int64, as checkpoints hold it")
        if self.mode not in MODES:
            raise ConfigError(f"unknown mode '{self.mode}'")
        # values a run cannot use (NaN included) fail here, before a run
        # directory is made
        if not self.lr > 0:
            raise ConfigError("lr must be > 0")
        if not 0 < self.lr_factor <= 1:
            raise ConfigError("lr_factor must lie in (0, 1]")
        if not (0 < self.adam_beta1 < 1 and 0 < self.adam_beta2 < 1):
            raise ConfigError("adam_beta1 and adam_beta2 must lie in (0, 1)")
        if not self.weight_decay >= 0:
            raise ConfigError("weight_decay must be >= 0")
        if not 0 <= self.dropout < 1:
            raise ConfigError("dropout must lie in [0, 1)")
        if min(self.steps, self.adapt_steps) < 0:
            raise ConfigError("steps and adapt_steps must be >= 0")
        if min(self.batch_size, self.dataset_size, self.adapt_images,
               self.eval_samples) < 1:
            raise ConfigError("batch_size, dataset_size, adapt_images and "
                              "eval_samples must be >= 1")
        if min(self.timesteps, self.patch_size, self.token_dim, self.embed_dim,
               self.repa_dim, self.repa_hidden) < 1:
            raise ConfigError("timesteps, patch_size, token_dim, embed_dim, "
                              "repa_dim and repa_hidden must be >= 1")
        # the condition transforms work in whole blocks, and SSIM needs a window
        if self.image_size % TRANSFORM_BLOCK or self.image_size < SSIM_WINDOW:
            raise ConfigError(f"image_size must be a multiple of {TRANSFORM_BLOCK} "
                              f"and >= {SSIM_WINDOW}")
        if not (0 < self.beta_start < 1 and 0 < self.beta_end < 1):
            raise ConfigError("beta_start and beta_end must lie in (0, 1)")
        if not self.adam_eps > 0:
            raise ConfigError("adam_eps must be > 0")
        if not self.lambda_repa >= 0:
            raise ConfigError("lambda_repa must be >= 0")
        if not self.gate_bias_rate >= 0:
            raise ConfigError("gate_bias_rate must be >= 0")
        if min(self.n_learngene, self.n_tailor, self.adapt_n_tailor) < 0:
            raise ConfigError("n_learngene, n_tailor and adapt_n_tailor "
                              "must be >= 0")
        if not (0 <= self.top_k <= self.n_tailor
                and 0 <= self.adapt_top_k <= self.adapt_n_tailor):
            raise ConfigError("top_k must lie in [0, n_tailor] and adapt_top_k "
                              "in [0, adapt_n_tailor]")
        if self.image_size % self.patch_size != 0:
            raise ConfigError("image_size must be divisible by patch_size")
        # the denoiser takes one injection per branch layer
        if not 1 <= self.controlnet_layers <= self.layers:
            raise ConfigError("controlnet_layers must lie in [1, layers]")
        if not 1 <= self.repa_layer <= self.controlnet_layers:
            raise ConfigError("repa_layer must lie in [1, controlnet_layers]")
        if self.mlp_hidden < self.token_dim:
            raise ConfigError("mlp_hidden must be >= token_dim")

    @property
    def run(self) -> Mode:
        """``MODES[mode]`` with its sizes, from the ``adapt_*`` keys if it adapts."""
        m = MODES[self.mode]
        if m.adapts:
            return m._replace(n_tailor=self.adapt_n_tailor, top_k=self.adapt_top_k,
                              steps=self.adapt_steps, bank_size=self.adapt_images)
        return m._replace(n_tailor=self.n_tailor, top_k=self.top_k,
                          steps=self.steps, bank_size=self.dataset_size)

    @property
    def n_patches(self) -> int:
        return (self.image_size // self.patch_size) ** 2

    @property
    def patch_dim(self) -> int:
        return self.patch_size ** 2

    def lr_at(self, step: int) -> float:
        """Piecewise-constant decay: lr * lr_factor^(#lr_milestones <= step)."""
        if step < 0:
            raise ContractError("step must be >= 0")
        hits = sum(1 for m in self.lr_milestones if m <= step)
        return self.lr * self.lr_factor ** hits

    def replace(self, **kw) -> "RunConfig":
        unknown = set(kw) - set(CONFIG_KEYS)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        return dataclasses.replace(self, **kw)


# a field's annotation -> the type its value must have, and the parser
# of its config-file text (tuple fields hold ints)
_TYPES = {"int": int, "float": float, "str": str, "tuple": tuple}
_PARSERS = dict(_TYPES, tuple=_intlist)
CONFIG_KEYS = {f.name: _PARSERS[f.type] for f in fields(RunConfig)}


def _format_value(value) -> str:
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def parse_config_text(text: str) -> dict:
    """Parse ``key = value`` lines; '#' starts a comment; unknown key fails."""
    raw = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, value = (part.strip() for part in stripped.split("=", 1))
        if key not in CONFIG_KEYS:
            raise ConfigError(f"line {lineno}: unknown config key '{key}'")
        if key in raw:
            raise ConfigError(f"line {lineno}: duplicate key '{key}'")
        raw[key] = value
    return raw


def resolve_config(file_text: str = "", overrides: dict | None = None) -> RunConfig:
    """Apply defaults, then file values, then explicit overrides."""
    values = {}
    for key, text in parse_config_text(file_text).items():
        try:
            values[key] = CONFIG_KEYS[key](text)
        except ValueError as e:
            raise ConfigError(f"bad value for '{key}': {text!r}") from e
    values.update(overrides or {})
    return RunConfig().replace(**values)


def resolved_text(cfg: RunConfig) -> str:
    lines = [f"{name} = {_format_value(getattr(cfg, name))}"
             for name in sorted(CONFIG_KEYS)]
    return "\n".join(lines) + "\n"


def config_digest(cfg: RunConfig) -> bytes:
    return hashlib.sha256(resolved_text(cfg).encode("utf-8")).digest()

