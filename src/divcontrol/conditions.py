"""Synthetic images, condition transforms, training batches, and metrics.

Images are 16x16 grayscale in [-1, 1]: one to three anti-aliased
primitives (disk, rectangle, line) over a shaded linear-gradient
background, fully regenerable from (seed, index). The renderer and every
transform take and return (N, H, W) stacks; a bank calls them per 256 images.

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
_BLOCK = 256  # images a bank renders or transforms per call; bounds the temporaries
TRANSFORM_BLOCK = 4  # side of the pixelate and patch-shuffle blocks


# ----------------------------------------------------------------------
# condition registry
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ConditionSpec:
    condition_id: str
    instruction: str
    transform_kind: str
    shift_class: str  # basic | novel_low | novel_high
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.transform_kind not in _TRANSFORMS:
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


def basic_conditions() -> list[ConditionSpec]:
    return [c for c in default_registry() if c.shift_class == "basic"]


def find_condition(condition_id: str) -> ConditionSpec:
    for c in default_registry():
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
    t = np.clip(((xx - x0) * dx + (yy - y0) * dy) / np.maximum(denom, 1e-12), 0.0, 1.0)
    return np.hypot(xx - (x0 + t * dx), yy - (y0 + t * dy)) - halfwidth


_SDFS = (_sdf_disk, _sdf_rect, _sdf_line)  # indexed by primitive kind


def render_images(seed: int, start: int, stop: int, size: int = IMAGE_SIZE,
                  image_stream: str = "image") -> np.ndarray:
    """Images ``start`` .. ``stop - 1`` of a stream: an (N, H, W) stack in [-1, 1].

    Image ``i`` makes its draws from ``stream(seed, image_stream, i)`` in a
    fixed order; the geometry is then evaluated for the whole stack, one
    primitive slot and kind at a time.
    """
    ranges = ([(3, size - 3)] * 2 + [(2.0, 4.5)],        # disk: cx, cy, r
              [(3, size - 3)] * 2 + [(1.5, 4.0)] * 2,    # rect: cx, cy, hx, hy
              [(1, size - 1)] * 4 + [(0.6, 1.1)])        # line: x0, y0, x1, y1, halfwidth
    theta, lo, hi = np.empty((3, stop - start, 1, 1))  # per image, broadcast on (H, W)
    prims = [[[], [], []] for _ in range(3)]  # [slot][kind] -> [row, intensity, *params]
    for row, i in enumerate(range(start, stop)):
        gen = stream(seed, image_stream, i)
        theta[row] = gen.uniform(0, 2 * np.pi)
        lo[row] = low = gen.uniform(-0.9, -0.3)
        hi[row] = low + gen.uniform(0.1, 0.5)
        for slot in range(int(gen.integers(1, 4))):
            kind = int(gen.integers(0, 3))
            intensity = gen.uniform(0.2, 1.0)
            prims[slot][kind].append(
                [row, intensity] + [gen.uniform(a, b) for a, b in ranges[kind]])
    ii, jj = np.meshgrid(np.arange(size, dtype=float),
                         np.arange(size, dtype=float), indexing="ij")
    ramp = np.cos(theta) * ii + np.sin(theta) * jj
    r_min = ramp.min(axis=(1, 2), keepdims=True)
    ramp = (ramp - r_min) / np.maximum(ramp.max(axis=(1, 2), keepdims=True) - r_min, 1e-12)
    img = lo + (hi - lo) * ramp
    for slot in prims:
        for sdf, drawn in zip(_SDFS, slot):
            if drawn:
                cols = np.array(drawn).T[:, :, None, None]  # row, intensity, *params
                rows = cols[0].ravel().astype(int)
                coverage = np.clip(0.5 - sdf(ii, jj, *cols[2:]), 0.0, 1.0)  # ~1px anti-aliasing
                img[rows] = img[rows] * (1 - coverage) + cols[1] * coverage
    return np.clip(img, -1.0, 1.0)


# ----------------------------------------------------------------------
# transforms: each maps an (N, H, W) stack to an (N, H, W) stack
# ----------------------------------------------------------------------

def _conv2_symmetric(imgs, kernel):
    k = kernel.shape[0] // 2
    padded = np.pad(imgs, ((0, 0), (k, k), (k, k)), mode="symmetric")
    win = np.lib.stride_tricks.sliding_window_view(padded, kernel.shape, axis=(1, 2))
    return np.einsum("nijkl,kl->nij", win, kernel)


_SOBEL_X = np.array([[-1, 0, 1], [-2, 0, 2], [-1, 0, 1]], dtype=float)
_LAPLACE = np.array([[0, 1, 0], [1, -4, 1], [0, 1, 0]], dtype=float)


def _edge_sobel(imgs, binary):
    gx = _conv2_symmetric(imgs, _SOBEL_X)
    gy = _conv2_symmetric(imgs, _SOBEL_X.T)
    mag = np.clip(np.hypot(gx, gy) / 4.0, 0.0, 1.0)
    if binary:
        return (mag > 0.25).astype(float)
    return mag


def _edge_laplacian(imgs):
    return np.clip(np.abs(_conv2_symmetric(imgs, _LAPLACE)) / 4.0, 0.0, 1.0)


def _blur_box(imgs, width):
    kernel = np.full((width, width), 1.0 / (width * width))
    return _conv2_symmetric(imgs, kernel)


def _pixelate(imgs):
    block = TRANSFORM_BLOCK
    n, h, w = imgs.shape
    blocks = imgs.reshape(n, h // block, block, w // block, block)
    means = blocks.mean(axis=(2, 4), keepdims=True)
    return np.broadcast_to(means, blocks.shape).reshape(n, h, w).copy()


def _mask_border(imgs, keep):
    width = 3
    out = np.zeros_like(imgs)
    if keep == "border":
        out[:] = imgs
        out[:, width:-width, width:-width] = 0.0
    elif keep == "center":
        out[:, width:-width, width:-width] = imgs[:, width:-width, width:-width]
    else:
        raise ConfigError(f"mask_border keep='{keep}' not recognized")
    return out


def _posterize(imgs, levels):
    unit = (imgs + 1.0) / 2.0
    q = np.round(unit * (levels - 1)) / (levels - 1)
    return q * 2.0 - 1.0


def _patch_permutation(condition_id: str, n_patches: int) -> np.ndarray:
    return stream(_PERM_SEED, "perm", condition_id).permutation(n_patches)


def _shuffle_patches(imgs, condition_id):
    block = TRANSFORM_BLOCK
    n, h, w = imgs.shape
    nh, nw = h // block, w // block
    patches = imgs.reshape(n, nh, block, nw, block).transpose(0, 1, 3, 2, 4)
    flat = patches.reshape(n, nh * nw, block, block)
    perm = _patch_permutation(condition_id, nh * nw)
    shuffled = flat[:, perm].reshape(n, nh, nw, block, block).transpose(0, 1, 3, 2, 4)
    return shuffled.reshape(n, h, w)


def _checker_mask(imgs):
    ii, jj = np.indices(imgs.shape[1:])
    mask = ((ii // 2 + jj // 2) % 2 == 0).astype(float)
    return imgs * mask


# transform_kind -> f(images, spec)
_TRANSFORMS = {
    "edge_sobel": lambda imgs, spec: _edge_sobel(imgs, spec.params.get("binary", False)),
    "edge_laplacian": lambda imgs, spec: _edge_laplacian(imgs),
    "blur_box3": lambda imgs, spec: _blur_box(imgs, 3),
    "blur_box5": lambda imgs, spec: _blur_box(imgs, 5),
    "pixelate4": lambda imgs, spec: _pixelate(imgs),
    "mask_border": lambda imgs, spec: _mask_border(imgs, spec.params.get("keep", "border")),
    "posterize4": lambda imgs, spec: _posterize(imgs, 4),
    "invert_gray": lambda imgs, spec: -imgs,
    "shuffle_patches": lambda imgs, spec: _shuffle_patches(imgs, spec.condition_id),
    "checker_mask": lambda imgs, spec: _checker_mask(imgs),
}


def apply_condition(images: np.ndarray, spec: ConditionSpec) -> np.ndarray:
    """Condition images for ``spec`` of an (N, H, W) stack; same shape, range [-1, 1]."""
    images = np.asarray(images, dtype=np.float64)
    if images.ndim != 3:
        raise ContractError(f"apply_condition expects an (N, H, W) stack, got {images.shape}")
    return _TRANSFORMS[spec.transform_kind](images, spec)


# ----------------------------------------------------------------------
# dataset bank and batches
# ----------------------------------------------------------------------

@dataclass
class Batch:
    image_idx: np.ndarray
    cond_idx: np.ndarray
    x: np.ndarray        # (B, H, W)
    x_cond: np.ndarray   # (B, H, W)


class DatasetBank:
    """Regenerable image bank with lazy per-condition transform caches.

    ``images`` and each ``condition_images(c)`` (made on first use) are
    (size, H, W) stacks, filled ``_BLOCK`` = 256 images per call.
    """

    def __init__(self, seed: int, size: int, specs: list,
                 image_size: int = IMAGE_SIZE, image_stream: str = "image"):
        if size < 1 or not specs:
            raise ContractError("bank needs at least one image and one condition")
        self.seed = seed
        self.size = size
        self.specs = list(specs)
        self.image_size = image_size
        self.image_stream = image_stream
        self.images = np.empty((size, image_size, image_size))
        for a in range(0, size, _BLOCK):
            self.images[a:a + _BLOCK] = render_images(
                seed, a, min(a + _BLOCK, size), image_size, image_stream)
        self._cond_cache: dict = {}

    def condition_images(self, cond_idx: int) -> np.ndarray:
        if cond_idx not in self._cond_cache:
            spec = self.specs[cond_idx]
            out = np.empty_like(self.images)
            for a in range(0, self.size, _BLOCK):
                out[a:a + _BLOCK] = apply_condition(self.images[a:a + _BLOCK], spec)
            self._cond_cache[cond_idx] = out
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
    return Batch(image_idx=image_idx, cond_idx=cond_idx, x=x, x_cond=x_cond)


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
