"""Procedural stroke-based digit images (the MNIST surrogate).

Each of the ten digit classes is defined as a set of stroke primitives
(line segments and elliptical arcs) in a unit coordinate frame.  A sample is
rendered by

1. jittering the frame with a small random affine transform (translation,
   anisotropic scale, rotation, shear) — the intra-class variation;
2. sampling dense points along every stroke;
3. splatting a Gaussian pen profile around the stroke skeleton onto the
   pixel grid and scaling to 8-bit intensity with per-sample brightness
   variation.

The result is white-on-black digit images of configurable size whose
statistics (sparse bright strokes, class-specific shapes, heavy intra-class
jitter) match what the paper's WTA/STDP pipeline consumes.  Rendering is
deterministic given the RNG, so datasets are reproducible from a seed.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import DatasetError

#: Seed of the fallback generator when :func:`render_digit` is called
#: without one.  A *fixed* default keeps even ad-hoc rendering
#: reproducible — determinism rule R1 forbids seedless ``default_rng()``.
DEFAULT_RENDER_SEED = 0

# ---------------------------------------------------------------------------
# stroke primitives (unit frame: x right, y down, both in [0, 1])
# ---------------------------------------------------------------------------


def _line(p1: Tuple[float, float], p2: Tuple[float, float], n: int = 32) -> np.ndarray:
    """Points along a straight segment."""
    t = np.linspace(0.0, 1.0, n)[:, None]
    return np.asarray(p1) * (1 - t) + np.asarray(p2) * t


def _arc(
    center: Tuple[float, float],
    rx: float,
    ry: float,
    deg_start: float,
    deg_end: float,
    n: int = 48,
) -> np.ndarray:
    """Points along an elliptical arc (angles in degrees, y-down frame)."""
    theta = np.radians(np.linspace(deg_start, deg_end, n))
    x = center[0] + rx * np.cos(theta)
    y = center[1] + ry * np.sin(theta)
    return np.stack([x, y], axis=1)


#: Stroke skeletons per digit class.  Coordinates tuned by eye to look like
#: handwritten digits when splatted with a ~1-pixel pen.
_DIGIT_STROKES: Dict[int, List[np.ndarray]] = {
    0: [_arc((0.5, 0.5), 0.26, 0.36, 0, 360)],
    1: [_line((0.38, 0.28), (0.54, 0.14)), _line((0.54, 0.14), (0.54, 0.86))],
    2: [
        _arc((0.5, 0.32), 0.22, 0.18, 150, 370),
        _line((0.68, 0.42), (0.30, 0.84)),
        _line((0.30, 0.84), (0.72, 0.84)),
    ],
    3: [
        _arc((0.47, 0.32), 0.20, 0.17, 160, 400),
        _arc((0.47, 0.67), 0.22, 0.19, 320, 560),
    ],
    4: [
        _line((0.58, 0.14), (0.28, 0.60)),
        _line((0.28, 0.60), (0.74, 0.60)),
        _line((0.60, 0.32), (0.60, 0.88)),
    ],
    5: [
        _line((0.68, 0.16), (0.34, 0.16)),
        _line((0.34, 0.16), (0.32, 0.48)),
        _arc((0.48, 0.65), 0.21, 0.21, 250, 480),
    ],
    6: [
        _arc((0.54, 0.30), 0.22, 0.28, 220, 320),
        _line((0.34, 0.24), (0.30, 0.62)),
        _arc((0.48, 0.68), 0.19, 0.18, 0, 360),
    ],
    7: [
        _line((0.28, 0.16), (0.72, 0.16)),
        _line((0.72, 0.16), (0.42, 0.86)),
    ],
    8: [
        _arc((0.5, 0.31), 0.18, 0.16, 0, 360),
        _arc((0.5, 0.66), 0.21, 0.19, 0, 360),
    ],
    9: [
        _arc((0.48, 0.34), 0.19, 0.18, 0, 360),
        _line((0.66, 0.36), (0.62, 0.86)),
    ],
}

N_CLASSES = 10


def digit_skeleton(digit: int) -> np.ndarray:
    """All skeleton points of a digit class, shape ``(k, 2)``, unit frame."""
    if digit not in _DIGIT_STROKES:
        raise DatasetError(f"digit must be in 0..9, got {digit}")
    return np.concatenate(_DIGIT_STROKES[digit], axis=0)


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------


def _jitter_matrix(rng: np.random.Generator, jitter: float) -> np.ndarray:
    """A random 2x2 affine (scale/rotation/shear) scaled by *jitter*."""
    angle = rng.normal(0.0, 0.10 * jitter)
    scale = 1.0 + rng.normal(0.0, 0.08 * jitter, size=2)
    shear = rng.normal(0.0, 0.08 * jitter)
    cos_a, sin_a = np.cos(angle), np.sin(angle)
    rotation = np.array([[cos_a, -sin_a], [sin_a, cos_a]])
    shear_m = np.array([[1.0, shear], [0.0, 1.0]])
    return rotation @ shear_m @ np.diag(scale)


def render_points(
    points: np.ndarray,
    size: int,
    pen_sigma: float,
    peak: float,
) -> np.ndarray:
    """Splat skeleton *points* (unit frame) onto a ``size x size`` float image.

    Intensity at a pixel is ``peak * exp(-d^2 / (2 sigma^2))`` with *d* the
    distance to the nearest skeleton point, giving a smooth pen profile.

    A pixel's ``d^2`` to a point ``(cx, cy)`` is ``(x - cx)^2 + (y - cy)^2``.
    Both squares depend on one pixel axis only, so each is computed once
    per column and once per row, as a ``(k, size)`` array over the *k*
    points, and the two are broadcast-added into the ``(k, size, size)``
    field that the min over the points reduces.  Every ``d^2`` is the same
    IEEE sum of the same two squares as a per-pixel difference gives, so
    the image is bit for bit the same; only ``2 k size`` squares are taken
    instead of ``2 k size^2``.
    """
    if size < 4:
        raise DatasetError(f"image size must be >= 4, got {size}")
    coords = points * (size - 1)
    axis = np.arange(size, dtype=np.float64)
    dx2 = (axis - coords[:, 0:1]) ** 2
    dy2 = (axis - coords[:, 1:2]) ** 2
    # The points lead, so the min is an elementwise minimum of whole planes.
    d2_min = (dx2[:, None, :] + dy2[:, :, None]).min(axis=0)
    return peak * np.exp(-d2_min / (2.0 * pen_sigma**2))


def render_digit(
    digit: int,
    size: int = 16,
    rng: Optional[np.random.Generator] = None,
    jitter: float = 1.0,
    pen_sigma: Optional[float] = None,
) -> np.ndarray:
    """Render one jittered digit sample as a ``uint8`` image.

    Without *rng* a generator seeded with :data:`DEFAULT_RENDER_SEED` is
    used, so repeated calls draw the *same* jitter; pass a shared generator
    (as :func:`generate_digits` does) for varied samples.
    """
    rng = rng if rng is not None else np.random.default_rng(DEFAULT_RENDER_SEED)
    skeleton = digit_skeleton(digit)

    center = skeleton.mean(axis=0)
    matrix = _jitter_matrix(rng, jitter)
    shift = rng.normal(0.0, 0.04 * jitter, size=2)
    transformed = (skeleton - center) @ matrix.T + center + shift
    transformed = np.clip(transformed, 0.02, 0.98)

    if pen_sigma is None:
        pen_sigma = max(size / 16.0, 0.8)
    peak = rng.uniform(200.0, 255.0)
    img = render_points(transformed, size, pen_sigma, peak)
    noise = rng.normal(0.0, 4.0, size=img.shape)
    return np.clip(img + noise, 0, 255).astype(np.uint8)


def generate_digits(
    n_images: int,
    size: int = 16,
    seed: int = 0,
    jitter: float = 1.0,
    labels: Optional[Sequence[int]] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Generate a balanced digit set: ``(images, labels)``.

    Classes cycle 0..9 unless *labels* pins them explicitly.  Returns images
    of shape ``(n_images, size, size)`` dtype ``uint8`` and int labels.
    """
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
            raise DatasetError(
                f"labels must have length {n_images}, got {label_arr.shape}"
            )
        if label_arr.size and (label_arr.min() < 0 or label_arr.max() >= N_CLASSES):
            raise DatasetError("labels must be in 0..9")
    images = np.stack(
        [render_digit(int(lbl), size=size, rng=rng, jitter=jitter) for lbl in label_arr]
    )
    return images, label_arr
