"""Tests for the procedural MNIST / Fashion surrogates."""

import numpy as np
import pytest

from repro.datasets import synthetic_mnist
from repro.datasets.synthetic_fashion import (
    FASHION_CLASS_NAMES,
    class_overlap_matrix,
    generate_fashion,
    render_fashion,
)
from repro.datasets.synthetic_mnist import (
    digit_skeleton,
    generate_digits,
    render_digit,
    render_points,
)
from repro.errors import DatasetError


def _render_points_oracle(points, size, pen_sigma, peak):
    """The per-pixel formulation: an ``(n_pixels, k, 2)`` difference to every
    point, squared and summed, then the min over the points."""
    coords = points * (size - 1)
    ys, xs = np.mgrid[0:size, 0:size]
    pix = np.stack([xs.ravel(), ys.ravel()], axis=1).astype(np.float64)
    d2 = ((pix[:, None, :] - coords[None, :, :]) ** 2).sum(axis=2)
    img = peak * np.exp(-d2.min(axis=1) / (2.0 * pen_sigma**2))
    return img.reshape(size, size)


class TestDigits:
    def test_shapes_and_dtype(self):
        images, labels = generate_digits(30, size=16, seed=0)
        assert images.shape == (30, 16, 16)
        assert images.dtype == np.uint8
        assert labels.shape == (30,)

    def test_balanced_classes(self):
        _, labels = generate_digits(100, seed=0)
        counts = np.bincount(labels, minlength=10)
        assert counts.min() == counts.max() == 10

    def test_deterministic_given_seed(self):
        a, la = generate_digits(10, seed=5)
        b, lb = generate_digits(10, seed=5)
        assert np.array_equal(a, b)
        assert np.array_equal(la, lb)

    def test_different_seeds_differ(self):
        a, _ = generate_digits(10, seed=5)
        b, _ = generate_digits(10, seed=6)
        assert not np.array_equal(a, b)

    def test_intra_class_variation(self):
        images, _ = generate_digits(20, seed=0, labels=[3] * 20)
        flat = images.reshape(20, -1).astype(float)
        assert np.linalg.norm(flat[0] - flat[1]) > 0

    def test_classes_distinguishable_by_centroid(self):
        """Nearest-centroid accuracy well above chance — the surrogate has
        usable class structure (DESIGN.md substitution argument)."""
        train_x, train_y = generate_digits(200, size=16, seed=1)
        test_x, test_y = generate_digits(100, size=16, seed=2)
        x = train_x.reshape(200, -1).astype(float)
        centroids = np.stack([x[train_y == c].mean(0) for c in range(10)])
        tx = test_x.reshape(100, -1).astype(float)
        sims = (tx @ centroids.T) / (
            np.linalg.norm(tx, axis=1, keepdims=True) * np.linalg.norm(centroids, axis=1)
        )
        accuracy = (np.argmax(sims, axis=1) == test_y).mean()
        assert accuracy > 0.6

    def test_explicit_labels(self):
        images, labels = generate_digits(5, labels=[7, 7, 7, 7, 7], seed=0)
        assert (labels == 7).all()

    def test_invalid_label_rejected(self):
        with pytest.raises(DatasetError):
            generate_digits(2, labels=[0, 11])

    def test_negative_seed_rejected(self):
        with pytest.raises(DatasetError, match="non-negative, got -1"):
            generate_digits(5, seed=-1)

    def test_invalid_digit_rejected(self):
        with pytest.raises(DatasetError):
            digit_skeleton(10)

    def test_strokes_bright_background_dark(self):
        img = render_digit(0, size=16, rng=np.random.default_rng(0))
        assert img.max() > 150
        assert np.percentile(img, 25) < 30


class TestRenderPoints:
    """The per-axis renderer against the per-pixel oracle, byte for byte.

    No golden digest is pinned: ``np.exp`` may round differently on another
    CPU, but both formulations call it on the same operands."""

    @pytest.mark.parametrize("size", [4, 5, 16, 28, 64])
    def test_equals_the_per_pixel_oracle(self, size):
        rng = np.random.default_rng(size)
        for digit in range(10):
            skeleton = digit_skeleton(digit)
            points = skeleton + rng.normal(0.0, 0.05, size=skeleton.shape)
            points = np.clip(points, 0.02, 0.98)
            for pen_sigma in (0.5, 0.8, size / 16.0, 3.0):
                peak = rng.uniform(200.0, 255.0)
                got = render_points(points, size, pen_sigma, peak)
                want = _render_points_oracle(points, size, pen_sigma, peak)
                assert got.shape == (size, size)
                assert got.tobytes() == want.tobytes(), (digit, pen_sigma)

    @pytest.mark.parametrize("jitter", [0.0, 1.0, 4.0])
    def test_generate_digits_equals_the_oracle(self, monkeypatch, jitter):
        got = generate_digits(40, size=28, seed=3, jitter=jitter)
        monkeypatch.setattr(synthetic_mnist, "render_points", _render_points_oracle)
        want = generate_digits(40, size=28, seed=3, jitter=jitter)
        assert got[0].tobytes() == want[0].tobytes()
        assert np.array_equal(got[1], want[1])


class TestFashion:
    def test_shapes(self):
        images, labels = generate_fashion(20, size=16, seed=0)
        assert images.shape == (20, 16, 16)
        assert images.dtype == np.uint8

    def test_class_names(self):
        assert len(FASHION_CLASS_NAMES) == 10

    def test_deterministic(self):
        a, _ = generate_fashion(10, seed=3)
        b, _ = generate_fashion(10, seed=3)
        assert np.array_equal(a, b)

    def test_filled_shapes_have_more_saturated_pixels_than_strokes(self):
        fashion, _ = generate_fashion(20, size=16, seed=0)
        digits, _ = generate_digits(20, size=16, seed=0)
        # Filled silhouettes are saturated across their interior; stroke
        # images are bright only along thin skeletons with soft halos.
        assert (fashion > 150).mean() > (digits > 150).mean()

    def test_invalid_class_rejected(self):
        with pytest.raises(DatasetError):
            render_fashion(10)

    def test_negative_seed_rejected(self):
        with pytest.raises(DatasetError, match="non-negative, got -1"):
            generate_fashion(5, seed=-1)

    def test_topwear_overlap_is_high(self):
        """The designed complexity: top-wear classes share most of their
        silhouette (the property that defeats deterministic STDP)."""
        iou = class_overlap_matrix()
        topwear = [0, 2, 4, 6]  # tshirt, pullover, coat, shirt
        for i in topwear:
            for j in topwear:
                if i != j:
                    assert iou[i, j] > 0.55

    def test_distinct_classes_overlap_less(self):
        iou = class_overlap_matrix()
        assert iou[1, 8] < 0.6  # trouser vs bag

    def test_shoe_block_overlap(self):
        iou = class_overlap_matrix()
        assert iou[5, 7] > 0.6  # sandal vs sneaker share sole+body
