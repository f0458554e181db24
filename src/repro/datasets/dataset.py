"""The dataset container and the top-level loader.

:class:`Dataset` bundles train/test images and labels with validation and
convenience views.  :func:`load_dataset` is what examples and benches call:
``"mnist"`` / ``"fashion"`` return the procedural surrogates (or the real
IDX files when a directory containing them is supplied or pointed to by the
``REPRO_MNIST_DIR`` / ``REPRO_FASHION_DIR`` environment variables — see
DESIGN.md §2 on the substitution).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Tuple

import numpy as np

from repro.datasets.idx import load_mnist_pair
from repro.datasets.synthetic_fashion import generate_fashion
from repro.datasets.synthetic_mnist import generate_digits
from repro.datasets.transforms import downsample
from repro.errors import DatasetError

#: Standard IDX file names inside a dataset directory.
_IDX_FILES = {
    "train_images": "train-images-idx3-ubyte",
    "train_labels": "train-labels-idx1-ubyte",
    "test_images": "t10k-images-idx3-ubyte",
    "test_labels": "t10k-labels-idx1-ubyte",
}


@dataclass
class Dataset:
    """Images (`uint8`, ``(n, h, w)``) and integer labels for both splits."""

    name: str
    train_images: np.ndarray
    train_labels: np.ndarray
    test_images: np.ndarray
    test_labels: np.ndarray
    n_classes: int = 10

    def __post_init__(self) -> None:
        for split, images, labels in (
            ("train", self.train_images, self.train_labels),
            ("test", self.test_images, self.test_labels),
        ):
            if images.ndim != 3:
                raise DatasetError(f"{split} images must be 3-D, got shape {images.shape}")
            if labels.shape != (images.shape[0],):
                raise DatasetError(
                    f"{split} labels shape {labels.shape} does not match "
                    f"{images.shape[0]} images"
                )
            if labels.size and (labels.min() < 0 or labels.max() >= self.n_classes):
                raise DatasetError(f"{split} labels out of range [0, {self.n_classes})")

    @property
    def image_shape(self) -> Tuple[int, int]:
        return self.train_images.shape[1], self.train_images.shape[2]

    @property
    def n_pixels(self) -> int:
        h, w = self.image_shape
        return h * w

    def labeling_split(self, n_labeling: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Split the test set per the paper's protocol.

        "the first 1000 images in the test set are used to label all the
        neurons ... The rest of the test set ... are used for inference."
        Returns ``(label_images, label_labels, infer_images, infer_labels)``.
        """
        if not 0 < n_labeling < self.test_images.shape[0]:
            raise DatasetError(
                f"n_labeling must be in (0, {self.test_images.shape[0]}), got {n_labeling}"
            )
        return (
            self.test_images[:n_labeling],
            self.test_labels[:n_labeling],
            self.test_images[n_labeling:],
            self.test_labels[n_labeling:],
        )

    def subset(self, n_train: int, n_test: int) -> "Dataset":
        """A leading subset of both splits (for quick runs)."""
        if n_train > self.train_images.shape[0] or n_test > self.test_images.shape[0]:
            raise DatasetError("subset larger than dataset")
        return Dataset(
            name=self.name,
            train_images=self.train_images[:n_train],
            train_labels=self.train_labels[:n_train],
            test_images=self.test_images[:n_test],
            test_labels=self.test_labels[:n_test],
            n_classes=self.n_classes,
        )


def _idx_dir_for(name: str, data_dir: Optional[str]) -> Optional[Path]:
    if data_dir is not None:
        return Path(data_dir)
    env = {"mnist": "REPRO_MNIST_DIR", "fashion": "REPRO_FASHION_DIR"}.get(name)
    if env and os.environ.get(env):
        return Path(os.environ[env])
    return None


def _load_idx_dataset(name: str, directory: Path, size: Optional[int]) -> Dataset:
    paths = {key: directory / fname for key, fname in _IDX_FILES.items()}
    missing = [str(p) for p in paths.values() if not p.exists()]
    if missing:
        raise DatasetError(f"IDX files missing under {directory}: {missing}")
    train_images, train_labels = load_mnist_pair(paths["train_images"], paths["train_labels"])
    test_images, test_labels = load_mnist_pair(paths["test_images"], paths["test_labels"])
    if size is not None and size != train_images.shape[1]:
        factor = train_images.shape[1] // size
        train_images = downsample(train_images, factor)
        test_images = downsample(test_images, factor)
    return Dataset(
        name=name,
        train_images=train_images,
        train_labels=train_labels.astype(np.int64),
        test_images=test_images,
        test_labels=test_labels.astype(np.int64),
    )


def load_dataset(
    name: str,
    n_train: int = 200,
    n_test: int = 100,
    size: int = 16,
    seed: int = 0,
    jitter: float = 1.0,
    data_dir: Optional[str] = None,
) -> Dataset:
    """Load ``"mnist"`` or ``"fashion"`` at the requested scale.

    Real IDX files are used when available (see module docs); otherwise the
    procedural surrogate generates ``n_train + n_test`` fresh samples.
    Train and test draws use different seeds so the splits never share
    samples.
    """
    if name not in ("mnist", "fashion"):
        raise DatasetError(f"unknown dataset {name!r}; expected 'mnist' or 'fashion'")
    if seed < 0:
        raise DatasetError(f"seed must be non-negative, got {seed}")

    directory = _idx_dir_for(name, data_dir)
    if directory is not None:
        return _load_idx_dataset(name, directory, size).subset(n_train, n_test)

    generator = generate_digits if name == "mnist" else generate_fashion
    train_images, train_labels = generator(n_train, size=size, seed=seed, jitter=jitter)
    test_images, test_labels = generator(n_test, size=size, seed=seed + 10_000, jitter=jitter)
    return Dataset(
        name=name,
        train_images=train_images,
        train_labels=train_labels,
        test_images=test_images,
        test_labels=test_labels,
    )
