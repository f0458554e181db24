"""Procedural apparel silhouettes (the Fashion-MNIST surrogate).

Fashion-MNIST is the paper's "complex" dataset: filled, texture-rich shapes
whose classes share large overlapping regions (t-shirt vs pullover vs coat
vs shirt; sneaker vs sandal vs ankle boot).  That overlap is precisely what
defeats deterministic STDP in Section IV-B — every neuron latches onto the
shared blob and no class-specific features survive.

The surrogate builds each class from filled geometric parts (torso
trapezoids, sleeves, legs, soles, straps...) on the unit frame, then applies
the same affine jitter as the digit generator plus multiplicative low-
frequency texture noise.  The four top-wear classes are intentionally
parameter-neighbours so their silhouettes overlap heavily, and the three
shoe classes likewise.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Sequence, Tuple

import numpy as np

from repro.errors import DatasetError

#: Seed of the fallback generator when :func:`render_fashion` is called
#: without one (determinism rule R1 forbids seedless ``default_rng()``).
DEFAULT_RENDER_SEED = 0

FASHION_CLASS_NAMES = (
    "tshirt",
    "trouser",
    "pullover",
    "dress",
    "coat",
    "sandal",
    "shirt",
    "sneaker",
    "bag",
    "boot",
)

N_CLASSES = 10

# ---------------------------------------------------------------------------
# filled-shape primitives: masks over a normalised coordinate grid
# ---------------------------------------------------------------------------


def _grid(size: int) -> Tuple[np.ndarray, np.ndarray]:
    """Normalised (x, y) coordinate grids, y pointing down."""
    ys, xs = np.mgrid[0:size, 0:size]
    return xs / (size - 1), ys / (size - 1)


def _quad(x, y, corners: Sequence[Tuple[float, float]]) -> np.ndarray:
    """Mask of a convex quadrilateral given corners in clockwise order."""
    mask = np.ones_like(x, dtype=bool)
    pts = list(corners)
    for (x1, y1), (x2, y2) in zip(pts, pts[1:] + pts[:1]):
        # Inside = right of each directed edge (clockwise, y-down frame).
        cross = (x2 - x1) * (y - y1) - (y2 - y1) * (x - x1)
        mask &= cross >= 0
    return mask


def _rect(x, y, x0: float, y0: float, x1: float, y1: float) -> np.ndarray:
    return (x >= x0) & (x <= x1) & (y >= y0) & (y <= y1)


def _ellipse(x, y, cx: float, cy: float, rx: float, ry: float) -> np.ndarray:
    return ((x - cx) / rx) ** 2 + ((y - cy) / ry) ** 2 <= 1.0


def _torso(x, y, shoulder: float, hem: float, top: float, bottom: float) -> np.ndarray:
    """Trapezoid torso: *shoulder* half-width at *top*, *hem* at *bottom*."""
    return _quad(
        x,
        y,
        [
            (0.5 - shoulder, top),
            (0.5 + shoulder, top),
            (0.5 + hem, bottom),
            (0.5 - hem, bottom),
        ],
    )


def _sleeves(x, y, length: float, drop: float, width: float) -> np.ndarray:
    left = _quad(
        x, y,
        [(0.5 - 0.22, 0.24), (0.5 - 0.22, 0.24 + width), (0.5 - 0.22 - length, 0.24 + drop + width), (0.5 - 0.22 - length, 0.24 + drop)],
    )
    right = _quad(
        x, y,
        [(0.5 + 0.22, 0.24), (0.5 + 0.22 + length, 0.24 + drop), (0.5 + 0.22 + length, 0.24 + drop + width), (0.5 + 0.22, 0.24 + width)],
    )
    return left | right


# ---------------------------------------------------------------------------
# class shape definitions
# ---------------------------------------------------------------------------


# The four top-wear classes share this exact torso; they differ only in
# sleeve length, hem extension and collar — small regions relative to the
# shared blob, mirroring the property that defeats deterministic STDP on
# real Fashion-MNIST.
def _shared_torso(x, y) -> np.ndarray:
    return _torso(x, y, 0.22, 0.21, 0.22, 0.76)


# The three shoe classes share this sole + body.
def _shared_shoe(x, y) -> np.ndarray:
    sole = _quad(x, y, [(0.16, 0.68), (0.84, 0.64), (0.86, 0.78), (0.16, 0.82)])
    body = _quad(x, y, [(0.22, 0.52), (0.60, 0.48), (0.82, 0.66), (0.20, 0.70)])
    return sole | body


def _shape_tshirt(x, y) -> np.ndarray:
    return _shared_torso(x, y) | _sleeves(x, y, 0.12, 0.08, 0.10)


def _shape_trouser(x, y) -> np.ndarray:
    waist = _rect(x, y, 0.34, 0.14, 0.66, 0.26)
    left = _quad(x, y, [(0.34, 0.26), (0.49, 0.26), (0.46, 0.90), (0.32, 0.90)])
    right = _quad(x, y, [(0.51, 0.26), (0.66, 0.26), (0.68, 0.90), (0.54, 0.90)])
    return waist | left | right


def _shape_pullover(x, y) -> np.ndarray:
    return _shared_torso(x, y) | _sleeves(x, y, 0.17, 0.30, 0.10)


def _shape_dress(x, y) -> np.ndarray:
    bodice = _torso(x, y, 0.16, 0.13, 0.18, 0.45)
    skirt = _quad(x, y, [(0.5 - 0.13, 0.45), (0.5 + 0.13, 0.45), (0.5 + 0.30, 0.90), (0.5 - 0.30, 0.90)])
    return bodice | skirt


def _shape_coat(x, y) -> np.ndarray:
    hem = _quad(x, y, [(0.5 - 0.21, 0.76), (0.5 + 0.21, 0.76), (0.5 + 0.23, 0.90), (0.5 - 0.23, 0.90)])
    return _shared_torso(x, y) | hem | _sleeves(x, y, 0.17, 0.30, 0.10)


def _shape_sandal(x, y) -> np.ndarray:
    straps = _rect(x, y, 0.30, 0.40, 0.38, 0.56) | _rect(x, y, 0.50, 0.36, 0.58, 0.52)
    return _shared_shoe(x, y) | straps


def _shape_shirt(x, y) -> np.ndarray:
    collar = _quad(x, y, [(0.40, 0.12), (0.60, 0.12), (0.54, 0.24), (0.46, 0.24)])
    return _shared_torso(x, y) | _sleeves(x, y, 0.12, 0.08, 0.10) | collar


def _shape_sneaker(x, y) -> np.ndarray:
    tongue = _rect(x, y, 0.44, 0.38, 0.58, 0.52)
    return _shared_shoe(x, y) | tongue


def _shape_bag(x, y) -> np.ndarray:
    body = _rect(x, y, 0.22, 0.40, 0.78, 0.82)
    handle = _ellipse(x, y, 0.5, 0.38, 0.18, 0.16) & ~_ellipse(x, y, 0.5, 0.38, 0.11, 0.10)
    return body | handle


def _shape_boot(x, y) -> np.ndarray:
    shaft = _rect(x, y, 0.24, 0.22, 0.46, 0.62)
    return _shared_shoe(x, y) | shaft


_SHAPES: Dict[int, Callable] = {
    0: _shape_tshirt,
    1: _shape_trouser,
    2: _shape_pullover,
    3: _shape_dress,
    4: _shape_coat,
    5: _shape_sandal,
    6: _shape_shirt,
    7: _shape_sneaker,
    8: _shape_bag,
    9: _shape_boot,
}


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------


def _texture(size: int, rng: np.random.Generator, strength: float) -> np.ndarray:
    """Smooth multiplicative texture in [1-strength, 1+strength]."""
    coarse = rng.normal(0.0, 1.0, size=(4, 4))
    # Bilinear upsample to full resolution.
    xs = np.linspace(0, 3, size)
    x0 = np.clip(xs.astype(int), 0, 2)
    frac = xs - x0
    rows = coarse[x0, :] * (1 - frac[:, None]) + coarse[np.minimum(x0 + 1, 3), :] * frac[:, None]
    cols = rows[:, x0] * (1 - frac[None, :]) + rows[:, np.minimum(x0 + 1, 3)] * frac[None, :]
    cols = cols / max(np.abs(cols).max(), 1e-9)
    return 1.0 + strength * cols


def render_fashion(
    cls: int,
    size: int = 16,
    rng: Optional[np.random.Generator] = None,
    jitter: float = 1.0,
) -> np.ndarray:
    """Render one jittered apparel sample as a ``uint8`` image.

    Without *rng* a generator seeded with :data:`DEFAULT_RENDER_SEED` is
    used, so repeated calls draw the *same* jitter; pass a shared generator
    (as :func:`generate_fashion` does) for varied samples.
    """
    if cls not in _SHAPES:
        raise DatasetError(f"class must be in 0..9, got {cls}")
    rng = rng if rng is not None else np.random.default_rng(DEFAULT_RENDER_SEED)
    x, y = _grid(size)

    # Affine jitter of the sampling grid (inverse-warp the coordinates).
    angle = rng.normal(0.0, 0.06 * jitter)
    scale = 1.0 + rng.normal(0.0, 0.06 * jitter, size=2)
    shift = rng.normal(0.0, 0.03 * jitter, size=2)
    cos_a, sin_a = np.cos(angle), np.sin(angle)
    xc, yc = x - 0.5, y - 0.5
    xw = (cos_a * xc + sin_a * yc) / scale[0] + 0.5 - shift[0]
    yw = (-sin_a * xc + cos_a * yc) / scale[1] + 0.5 - shift[1]

    mask = _SHAPES[cls](xw, yw)
    base = rng.uniform(170.0, 235.0)
    img = mask.astype(np.float64) * base * _texture(size, rng, 0.15 * jitter)
    img += rng.normal(0.0, 5.0, size=img.shape)
    return np.clip(img, 0, 255).astype(np.uint8)


def generate_fashion(
    n_images: int,
    size: int = 16,
    seed: int = 0,
    jitter: float = 1.0,
    labels: Optional[Sequence[int]] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Generate a balanced apparel set: ``(images, labels)``."""
    if n_images < 1:
        raise DatasetError(f"n_images must be >= 1, got {n_images}")
    if seed < 0:
        raise DatasetError(f"seed must be non-negative, got {seed}")
    rng = np.random.default_rng(seed)
    if labels is None:
        label_arr = np.arange(n_images) % N_CLASSES
        rng.shuffle(label_arr)
    else:
        label_arr = np.asarray(list(labels), dtype=np.int64)
        if label_arr.shape != (n_images,):
            raise DatasetError(f"labels must have length {n_images}, got {label_arr.shape}")
        if label_arr.size and (label_arr.min() < 0 or label_arr.max() >= N_CLASSES):
            raise DatasetError("labels must be in 0..9")
    images = np.stack(
        [render_fashion(int(lbl), size=size, rng=rng, jitter=jitter) for lbl in label_arr]
    )
    return images, label_arr


def class_overlap_matrix(size: int = 32) -> np.ndarray:
    """Pairwise IoU of the clean class silhouettes.

    Documents the built-in "complexity": the top-wear block (tshirt,
    pullover, coat, shirt) shows high mutual IoU, as do the shoe classes.
    Used by tests and by DESIGN.md's substitution argument.
    """
    x, y = _grid(size)
    masks = [_SHAPES[c](x, y) for c in range(N_CLASSES)]
    iou = np.zeros((N_CLASSES, N_CLASSES))
    for i in range(N_CLASSES):
        for j in range(N_CLASSES):
            inter = np.logical_and(masks[i], masks[j]).sum()
            union = np.logical_or(masks[i], masks[j]).sum()
            iou[i, j] = inter / union if union else 0.0
    return iou
