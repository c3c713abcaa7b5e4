"""Synthetic images, condition transforms, training batches, and metrics.

Images are 16x16 grayscale in [-1, 1]: one to three anti-aliased
primitives (disk, rectangle, line) over a shaded linear-gradient
background, fully regenerable from (seed, index).

The registry pairs each condition with a fixed instruction string; the
instructions carry the routing semantics, so related conditions share
tokens on purpose. Depth/normal-style conditions have no 16x16 analog;
the registry substitutes structurally similar image transforms (edge
maps, blurs, pixelation, masks, posterization, inversion, patch
shuffles) rather than claiming equivalence.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ContractError
from .rng import stream

IMAGE_SIZE = 16
_PERM_SEED = 1337  # fixed root for per-condition patch permutations


# ----------------------------------------------------------------------
# condition registry
# ----------------------------------------------------------------------

TRANSFORM_KINDS = (
    "edge_sobel", "edge_laplacian", "blur_box3", "blur_box5", "pixelate4",
    "mask_border", "posterize4", "invert_gray", "shuffle_patches",
    "checker_mask",
)


@dataclass(frozen=True)
class ConditionSpec:
    condition_id: str
    instruction: str
    transform_kind: str
    shift_class: str  # basic | novel_low | novel_high
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.transform_kind not in TRANSFORM_KINDS:
            raise ConfigError(f"unknown transform_kind '{self.transform_kind}'")


def default_registry() -> list[ConditionSpec]:
    """Eight basic conditions, two low-shift and two high-shift novels."""
    basic = [
        ConditionSpec("edge", "sobel edge map", "edge_sobel", "basic"),
        ConditionSpec("sketch", "binary edge sketch", "edge_sobel", "basic",
                      {"binary": True}),
        ConditionSpec("blur", "soft box blur", "blur_box3", "basic"),
        ConditionSpec("pixel", "coarse pixel grid", "pixelate4", "basic"),
        ConditionSpec("outpaint", "border outpainting mask", "mask_border",
                      "basic", {"keep": "border"}),
        ConditionSpec("window", "center crop window", "mask_border", "basic",
                      {"keep": "center"}),
        ConditionSpec("poster", "flat color posterize", "posterize4", "basic"),
        ConditionSpec("invert", "inverted gray negative", "invert_gray", "basic"),
    ]
    novel_low = [
        ConditionSpec("edge-lap", "laplacian edge map", "edge_laplacian",
                      "novel_low"),
        ConditionSpec("blur-wide", "wide box blur", "blur_box5", "novel_low"),
    ]
    novel_high = [
        ConditionSpec("shuffle", "shuffled patch puzzle", "shuffle_patches",
                      "novel_high"),
        ConditionSpec("checker", "checkerboard dropout mask", "checker_mask",
                      "novel_high"),
    ]
    return basic + novel_low + novel_high


# low-shift novels and their nearest basic condition
NOVEL_LOW_SIBLINGS = {"edge-lap": "edge", "blur-wide": "blur"}


def basic_conditions(registry=None) -> list[ConditionSpec]:
    registry = default_registry() if registry is None else registry
    return [c for c in registry if c.shift_class == "basic"]


def find_condition(condition_id: str, registry=None) -> ConditionSpec:
    registry = default_registry() if registry is None else registry
    for c in registry:
        if c.condition_id == condition_id:
            return c
    raise ConfigError(f"unknown condition '{condition_id}'")


# ----------------------------------------------------------------------
# synthetic image generator
# ----------------------------------------------------------------------

def _sdf_disk(xx, yy, cx, cy, r):
    return np.hypot(xx - cx, yy - cy) - r


def _sdf_rect(xx, yy, cx, cy, hx, hy):
    return np.maximum(np.abs(xx - cx) - hx, np.abs(yy - cy) - hy)


def _sdf_line(xx, yy, x0, y0, x1, y1, halfwidth):
    dx, dy = x1 - x0, y1 - y0
    denom = dx * dx + dy * dy
    t = np.clip(((xx - x0) * dx + (yy - y0) * dy) / max(denom, 1e-12), 0.0, 1.0)
    return np.hypot(xx - (x0 + t * dx), yy - (y0 + t * dy)) - halfwidth


def render_components(seed: int, index: int, size: int = IMAGE_SIZE,
                      image_stream: str = "image"):
    """Return (image, background) for sample ``index``; both in [-1, 1]."""
    gen = stream(seed, image_stream, index)
    ii, jj = np.meshgrid(np.arange(size, dtype=float),
                         np.arange(size, dtype=float), indexing="ij")
    theta = gen.uniform(0, 2 * np.pi)
    ramp = np.cos(theta) * ii + np.sin(theta) * jj
    ramp = (ramp - ramp.min()) / max(ramp.max() - ramp.min(), 1e-12)
    lo = gen.uniform(-0.9, -0.3)
    hi = lo + gen.uniform(0.1, 0.5)
    background = lo + (hi - lo) * ramp
    img = background.copy()
    for _ in range(int(gen.integers(1, 4))):
        kind = gen.integers(0, 3)
        intensity = gen.uniform(0.2, 1.0)
        if kind == 0:
            sdf = _sdf_disk(ii, jj, gen.uniform(3, size - 3), gen.uniform(3, size - 3),
                            gen.uniform(2.0, 4.5))
        elif kind == 1:
            sdf = _sdf_rect(ii, jj, gen.uniform(3, size - 3), gen.uniform(3, size - 3),
                            gen.uniform(1.5, 4.0), gen.uniform(1.5, 4.0))
        else:
            sdf = _sdf_line(ii, jj, gen.uniform(1, size - 1), gen.uniform(1, size - 1),
                            gen.uniform(1, size - 1), gen.uniform(1, size - 1),
                            gen.uniform(0.6, 1.1))
        coverage = np.clip(0.5 - sdf, 0.0, 1.0)  # ~1px anti-aliased falloff
        img = img * (1 - coverage) + intensity * coverage
    return np.clip(img, -1.0, 1.0), background


def generate_image(seed: int, index: int, size: int = IMAGE_SIZE,
                   image_stream: str = "image") -> np.ndarray:
    return render_components(seed, index, size, image_stream)[0]


# ----------------------------------------------------------------------
# transforms
# ----------------------------------------------------------------------

def _conv2_symmetric(img, kernel):
    k = kernel.shape[0] // 2
    padded = np.pad(img, k, mode="symmetric")
    win = np.lib.stride_tricks.sliding_window_view(padded, kernel.shape)
    return np.einsum("ijkl,kl->ij", win, kernel)


_SOBEL_X = np.array([[-1, 0, 1], [-2, 0, 2], [-1, 0, 1]], dtype=float)
_LAPLACE = np.array([[0, 1, 0], [1, -4, 1], [0, 1, 0]], dtype=float)


def _edge_sobel(img, binary=False, threshold=0.25):
    gx = _conv2_symmetric(img, _SOBEL_X)
    gy = _conv2_symmetric(img, _SOBEL_X.T)
    mag = np.clip(np.hypot(gx, gy) / 4.0, 0.0, 1.0)
    if binary:
        return (mag > threshold).astype(float)
    return mag


def _edge_laplacian(img):
    return np.clip(np.abs(_conv2_symmetric(img, _LAPLACE)) / 4.0, 0.0, 1.0)


def _blur_box(img, width):
    kernel = np.full((width, width), 1.0 / (width * width))
    return _conv2_symmetric(img, kernel)


def _pixelate(img, block=4):
    h, w = img.shape
    blocks = img.reshape(h // block, block, w // block, block)
    means = blocks.mean(axis=(1, 3), keepdims=True)
    return np.broadcast_to(means, blocks.shape).reshape(h, w).copy()


def _mask_border(img, width=3, keep="border"):
    out = np.zeros_like(img)
    if keep == "border":
        out[:] = img
        out[width:-width, width:-width] = 0.0
    elif keep == "center":
        out[width:-width, width:-width] = img[width:-width, width:-width]
    else:
        raise ConfigError(f"mask_border keep='{keep}' not recognized")
    return out


def _posterize(img, levels=4):
    unit = (img + 1.0) / 2.0
    q = np.round(unit * (levels - 1)) / (levels - 1)
    return q * 2.0 - 1.0


def _patch_permutation(condition_id: str, n_patches: int) -> np.ndarray:
    return stream(_PERM_SEED, "perm", condition_id).permutation(n_patches)


def _shuffle_patches(img, condition_id, block=4):
    h, w = img.shape
    nh, nw = h // block, w // block
    patches = img.reshape(nh, block, nw, block).transpose(0, 2, 1, 3)
    flat = patches.reshape(nh * nw, block, block)
    perm = _patch_permutation(condition_id, nh * nw)
    shuffled = flat[perm].reshape(nh, nw, block, block).transpose(0, 2, 1, 3)
    return shuffled.reshape(h, w).copy()


def _checker_mask(img, cell=2):
    ii, jj = np.indices(img.shape)
    mask = ((ii // cell + jj // cell) % 2 == 0).astype(float)
    return img * mask


def apply_condition(image: np.ndarray, spec: ConditionSpec) -> np.ndarray:
    """Produce the condition image for ``spec``; same shape, range [-1, 1]."""
    image = np.asarray(image, dtype=np.float64)
    kind, p = spec.transform_kind, spec.params
    if kind == "edge_sobel":
        return _edge_sobel(image, binary=p.get("binary", False),
                           threshold=p.get("threshold", 0.25))
    if kind == "edge_laplacian":
        return _edge_laplacian(image)
    if kind == "blur_box3":
        return _blur_box(image, 3)
    if kind == "blur_box5":
        return _blur_box(image, 5)
    if kind == "pixelate4":
        return _pixelate(image, 4)
    if kind == "mask_border":
        return _mask_border(image, width=p.get("width", 3),
                            keep=p.get("keep", "border"))
    if kind == "posterize4":
        return _posterize(image, 4)
    if kind == "invert_gray":
        return -image
    if kind == "shuffle_patches":
        return _shuffle_patches(image, spec.condition_id, block=p.get("block", 4))
    if kind == "checker_mask":
        return _checker_mask(image, cell=p.get("cell", 2))
    raise ConfigError(f"unknown transform_kind '{kind}'")


# ----------------------------------------------------------------------
# dataset bank and batches
# ----------------------------------------------------------------------

@dataclass
class Batch:
    index: int
    image_idx: np.ndarray
    cond_idx: np.ndarray
    x: np.ndarray        # (B, H, W)
    x_cond: np.ndarray   # (B, H, W)
    condition_ids: list


class DatasetBank:
    """Regenerable image bank with per-condition transform caches."""

    def __init__(self, seed: int, size: int, specs: list,
                 image_size: int = IMAGE_SIZE, image_stream: str = "image"):
        if size < 1 or not specs:
            raise ContractError("bank needs at least one image and one condition")
        self.seed = seed
        self.size = size
        self.specs = list(specs)
        self.image_size = image_size
        self.image_stream = image_stream
        self.images = np.stack([
            generate_image(seed, i, image_size, image_stream) for i in range(size)])
        self._cond_cache: dict = {}

    def condition_images(self, cond_idx: int) -> np.ndarray:
        if cond_idx not in self._cond_cache:
            spec = self.specs[cond_idx]
            self._cond_cache[cond_idx] = np.stack(
                [apply_condition(img, spec) for img in self.images])
        return self._cond_cache[cond_idx]


def _build_batch(bank: DatasetBank, batch_size: int, seed: int, b: int) -> Batch:
    """Batch ``b``: images and conditions drawn uniformly per item.

    It depends only on (seed, b), so any batch of a run can be regenerated.
    """
    gen = stream(seed, "batch", b)
    image_idx = gen.integers(0, bank.size, batch_size)
    cond_idx = gen.integers(0, len(bank.specs), batch_size)
    x = bank.images[image_idx]
    x_cond = np.stack([bank.condition_images(int(c))[int(i)]
                       for i, c in zip(image_idx, cond_idx)])
    return Batch(index=b, image_idx=image_idx, cond_idx=cond_idx, x=x,
                 x_cond=x_cond,
                 condition_ids=[bank.specs[int(c)].condition_id for c in cond_idx])


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------

SSIM_WINDOW = 8
SSIM_K1 = 0.01
SSIM_K2 = 0.03
SSIM_RANGE = 2.0  # images live in [-1, 1]


def metric_ssim(a: np.ndarray, b: np.ndarray) -> float:
    """Mean SSIM over all 8x8 windows, uniform weighting, population moments."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ContractError("metric_ssim expects equal shapes")
    w = SSIM_WINDOW
    wa = np.lib.stride_tricks.sliding_window_view(a, (w, w))
    wb = np.lib.stride_tricks.sliding_window_view(b, (w, w))
    mu_a = wa.mean(axis=(-1, -2))
    mu_b = wb.mean(axis=(-1, -2))
    var_a = (wa * wa).mean(axis=(-1, -2)) - mu_a * mu_a
    var_b = (wb * wb).mean(axis=(-1, -2)) - mu_b * mu_b
    cov = (wa * wb).mean(axis=(-1, -2)) - mu_a * mu_b
    c1 = (SSIM_K1 * SSIM_RANGE) ** 2
    c2 = (SSIM_K2 * SSIM_RANGE) ** 2
    num = (2 * mu_a * mu_b + c1) * (2 * cov + c2)
    den = (mu_a * mu_a + mu_b * mu_b + c1) * (var_a + var_b + c2)
    return float((num / den).mean())


def metric_encoder_sim(head, a: np.ndarray, b: np.ndarray) -> float:
    """Mean per-patch cosine similarity of frozen-encoder embeddings."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ContractError("metric_encoder_sim expects equal shapes")
    ea = head.encode(a)
    eb = head.encode(b)
    num = (ea * eb).sum(axis=1)
    den = np.linalg.norm(ea, axis=1) * np.linalg.norm(eb, axis=1)
    sims = np.where(den > 0, num / np.maximum(den, 1e-300), 0.0)
    return float(sims.mean())
