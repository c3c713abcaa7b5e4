"""Flat key = value run configuration.

Every hyperparameter has a documented default below; unknown keys in a
config file are a hard error. The resolved configuration is rendered as
sorted ``key = value`` lines, and its SHA-256 is the config digest that
checkpoints embed, so seed and all hyperparameters are covered.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, fields

from .errors import ConfigError
from .model import DenoiserConfig
from .optim import LrSchedule


def _intlist(text: str) -> tuple:
    text = text.strip()
    if not text:
        return ()
    return tuple(int(v.strip()) for v in text.split(","))


# key -> (default, parser, help)
CONFIG_KEYS = {
    "seed": (0, int, "root seed for every random stream"),
    "mode": ("diversion", str, "diversion | adapt_frozen | scratch"),
    "steps": (5000, int, "optimizer steps for diversion training"),
    "batch_size": (16, int, "items per batch"),
    "dataset_size": (2048, int, "synthetic base images in the bank"),
    "lr": (1e-3, float, "base learning rate"),
    "lr_milestones": ((3500,), _intlist, "comma-separated decay steps"),
    "lr_factor": (0.4, float, "multiplicative decay at each milestone"),
    "weight_decay": (3e-2, float, "decoupled AdamW weight decay"),
    "adam_beta1": (0.9, float, "AdamW first-moment coefficient"),
    "adam_beta2": (0.999, float, "AdamW second-moment coefficient"),
    "adam_eps": (1e-8, float, "AdamW denominator epsilon"),
    "image_size": (16, int, "square image side"),
    "patch_size": (4, int, "square patch side"),
    "token_dim": (64, int, "transformer token width"),
    "mlp_hidden": (128, int, "MLP hidden width"),
    "layers": (4, int, "denoiser transformer layers"),
    "controlnet_layers": (4, int, "condition-branch layers"),
    "timesteps": (100, int, "diffusion timesteps"),
    "beta_start": (1e-4, float, "first beta of the linear schedule"),
    "beta_end": (2e-2, float, "last beta of the linear schedule"),
    "dropout": (0.1, float, "dropout on MLP activations during training"),
    "n_learngene": (32, int, "shared components per projection"),
    "n_tailor": (32, int, "condition-specific components per projection"),
    "top_k": (16, int, "tailors activated per condition"),
    "gate_bias_rate": (1e-3, float, "balance-bias step size"),
    "embed_dim": (64, int, "instruction embedding width"),
    "encoder_seed": (7027, int, "seed of the frozen instruction/vision encoders"),
    "lambda_repa": (0.05, float, "alignment loss weight"),
    "repa_layer": (2, int, "branch layer whose tokens are aligned"),
    "repa_dim": (48, int, "frozen vision-encoder output width"),
    "repa_hidden": (128, int, "alignment MLP hidden width"),
    "adapt_condition": ("shuffle", str, "condition id for few-shot adaptation"),
    "adapt_steps": (500, int, "optimizer steps for adaptation"),
    "adapt_images": (200, int, "few-shot image budget"),
    "adapt_n_tailor": (16, int, "fresh tailor components per projection"),
    "adapt_top_k": (8, int, "active tailors during adaptation"),
    "eval_samples": (128, int, "held-out samples for evaluation metrics"),
}


@dataclass(frozen=True)
class RunConfig:
    seed: int
    mode: str
    steps: int
    batch_size: int
    dataset_size: int
    lr: float
    lr_milestones: tuple
    lr_factor: float
    weight_decay: float
    adam_beta1: float
    adam_beta2: float
    adam_eps: float
    image_size: int
    patch_size: int
    token_dim: int
    mlp_hidden: int
    layers: int
    controlnet_layers: int
    timesteps: int
    beta_start: float
    beta_end: float
    dropout: float
    n_learngene: int
    n_tailor: int
    top_k: int
    gate_bias_rate: float
    embed_dim: int
    encoder_seed: int
    lambda_repa: float
    repa_layer: int
    repa_dim: int
    repa_hidden: int
    adapt_condition: str
    adapt_steps: int
    adapt_images: int
    adapt_n_tailor: int
    adapt_top_k: int
    eval_samples: int

    def __post_init__(self):
        if self.mode not in ("diversion", "adapt_frozen", "scratch"):
            raise ConfigError(f"unknown mode '{self.mode}'")
        if self.lambda_repa < 0:
            raise ConfigError("lambda_repa must be >= 0")

    def denoiser_config(self) -> DenoiserConfig:
        return DenoiserConfig(
            image_size=self.image_size, patch_size=self.patch_size,
            token_dim=self.token_dim, mlp_hidden=self.mlp_hidden,
            layers=self.layers, controlnet_layers=self.controlnet_layers,
            timesteps=self.timesteps, beta_start=self.beta_start,
            beta_end=self.beta_end, repa_layer=self.repa_layer,
            repa_dim=self.repa_dim, repa_hidden=self.repa_hidden,
            lambda_repa=self.lambda_repa, dropout=self.dropout)

    def schedule(self) -> LrSchedule:
        return LrSchedule(base_lr=self.lr, milestones=self.lr_milestones,
                          factor=self.lr_factor)

    def replace(self, **kw) -> "RunConfig":
        current = {f.name: getattr(self, f.name) for f in fields(self)}
        unknown = set(kw) - set(current)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        current.update(kw)
        return RunConfig(**current)


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
    values = {k: default for k, (default, _, _) in CONFIG_KEYS.items()}
    for key, text in parse_config_text(file_text).items():
        _, parser, _ = CONFIG_KEYS[key]
        try:
            values[key] = parser(text)
        except ValueError as e:
            raise ConfigError(f"bad value for '{key}': {text!r}") from e
    for key, val in (overrides or {}).items():
        if key not in CONFIG_KEYS:
            raise ConfigError(f"unknown config key '{key}'")
        values[key] = val
    return RunConfig(**values)


def resolved_text(cfg: RunConfig) -> str:
    lines = [f"{name} = {_format_value(getattr(cfg, name))}"
             for name in sorted(CONFIG_KEYS)]
    return "\n".join(lines) + "\n"


def config_digest(cfg: RunConfig) -> bytes:
    return hashlib.sha256(resolved_text(cfg).encode("utf-8")).digest()


def load_config_file(path, overrides: dict | None = None) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return resolve_config(fh.read(), overrides)
