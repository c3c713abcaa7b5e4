"""Per-image renderer and condition transforms: the bit-identity oracles.

``divcontrol.conditions`` renders and transforms whole (N, H, W) stacks.
This is the one-image-at-a-time code it replaced, kept so the tests can
require the stacked path to give the same bytes, image by image.
"""

import numpy as np

from divcontrol.conditions import _PERM_SEED
from divcontrol.errors import ConfigError
from divcontrol.rng import stream


def _sdf_disk(xx, yy, cx, cy, r):
    return np.hypot(xx - cx, yy - cy) - r


def _sdf_rect(xx, yy, cx, cy, hx, hy):
    return np.maximum(np.abs(xx - cx) - hx, np.abs(yy - cy) - hy)


def _sdf_line(xx, yy, x0, y0, x1, y1, halfwidth):
    dx, dy = x1 - x0, y1 - y0
    denom = dx * dx + dy * dy
    t = np.clip(((xx - x0) * dx + (yy - y0) * dy) / max(denom, 1e-12), 0.0, 1.0)
    return np.hypot(xx - (x0 + t * dx), yy - (y0 + t * dy)) - halfwidth


def render_components(seed, index, size=16, image_stream="image"):
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


def _conv2_symmetric(img, kernel):
    k = kernel.shape[0] // 2
    padded = np.pad(img, k, mode="symmetric")
    win = np.lib.stride_tricks.sliding_window_view(padded, kernel.shape)
    return np.einsum("ijkl,kl->ij", win, kernel)


_SOBEL_X = np.array([[-1, 0, 1], [-2, 0, 2], [-1, 0, 1]], dtype=float)
_LAPLACE = np.array([[0, 1, 0], [1, -4, 1], [0, 1, 0]], dtype=float)


def _edge_sobel(img, binary):
    gx = _conv2_symmetric(img, _SOBEL_X)
    gy = _conv2_symmetric(img, _SOBEL_X.T)
    mag = np.clip(np.hypot(gx, gy) / 4.0, 0.0, 1.0)
    if binary:
        return (mag > 0.25).astype(float)
    return mag


def _blur_box(img, width):
    return _conv2_symmetric(img, np.full((width, width), 1.0 / (width * width)))


def _pixelate(img):
    block = 4
    h, w = img.shape
    blocks = img.reshape(h // block, block, w // block, block)
    means = blocks.mean(axis=(1, 3), keepdims=True)
    return np.broadcast_to(means, blocks.shape).reshape(h, w).copy()


def _mask_border(img, keep):
    width = 3
    out = np.zeros_like(img)
    if keep == "border":
        out[:] = img
        out[width:-width, width:-width] = 0.0
    elif keep == "center":
        out[width:-width, width:-width] = img[width:-width, width:-width]
    else:
        raise ConfigError(f"mask_border keep='{keep}' not recognized")
    return out


def _posterize(img, levels):
    unit = (img + 1.0) / 2.0
    q = np.round(unit * (levels - 1)) / (levels - 1)
    return q * 2.0 - 1.0


def _shuffle_patches(img, condition_id):
    block = 4
    h, w = img.shape
    nh, nw = h // block, w // block
    patches = img.reshape(nh, block, nw, block).transpose(0, 2, 1, 3)
    flat = patches.reshape(nh * nw, block, block)
    perm = stream(_PERM_SEED, "perm", condition_id).permutation(nh * nw)
    shuffled = flat[perm].reshape(nh, nw, block, block).transpose(0, 2, 1, 3)
    return shuffled.reshape(h, w).copy()


def _checker_mask(img):
    ii, jj = np.indices(img.shape)
    return img * ((ii // 2 + jj // 2) % 2 == 0).astype(float)


_TRANSFORMS = {
    "edge_sobel": lambda img, spec: _edge_sobel(img, spec.params.get("binary", False)),
    "edge_laplacian": lambda img, spec: np.clip(
        np.abs(_conv2_symmetric(img, _LAPLACE)) / 4.0, 0.0, 1.0),
    "blur_box3": lambda img, spec: _blur_box(img, 3),
    "blur_box5": lambda img, spec: _blur_box(img, 5),
    "pixelate4": lambda img, spec: _pixelate(img),
    "mask_border": lambda img, spec: _mask_border(img, spec.params.get("keep", "border")),
    "posterize4": lambda img, spec: _posterize(img, 4),
    "invert_gray": lambda img, spec: -img,
    "shuffle_patches": lambda img, spec: _shuffle_patches(img, spec.condition_id),
    "checker_mask": lambda img, spec: _checker_mask(img),
}


def apply_condition(image, spec):
    """Condition image of one (H, W) image."""
    return _TRANSFORMS[spec.transform_kind](np.asarray(image, dtype=np.float64), spec)
