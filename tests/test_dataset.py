"""Tests for the Dataset container and loader."""

import numpy as np
import pytest

from repro.datasets.dataset import Dataset, load_dataset
from repro.datasets.idx import write_idx
from repro.errors import DatasetError


class TestContainer:
    def make(self, n_train=10, n_test=6):
        return Dataset(
            name="toy",
            train_images=np.zeros((n_train, 4, 4), dtype=np.uint8),
            train_labels=np.arange(n_train) % 10,
            test_images=np.zeros((n_test, 4, 4), dtype=np.uint8),
            test_labels=np.arange(n_test) % 10,
        )

    def test_properties(self):
        ds = self.make()
        assert ds.image_shape == (4, 4)
        assert ds.n_pixels == 16

    def test_labeling_split_follows_paper_protocol(self):
        ds = self.make(n_test=10)
        label_x, label_y, infer_x, infer_y = ds.labeling_split(3)
        assert label_x.shape[0] == 3
        assert infer_x.shape[0] == 7
        assert np.array_equal(label_y, ds.test_labels[:3])

    def test_labeling_split_bounds(self):
        ds = self.make(n_test=5)
        with pytest.raises(DatasetError):
            ds.labeling_split(5)
        with pytest.raises(DatasetError):
            ds.labeling_split(0)

    def test_subset(self):
        ds = self.make()
        sub = ds.subset(4, 2)
        assert sub.train_images.shape[0] == 4
        assert sub.test_images.shape[0] == 2

    def test_subset_too_large_rejected(self):
        with pytest.raises(DatasetError):
            self.make().subset(100, 1)

    def test_label_shape_mismatch_rejected(self):
        with pytest.raises(DatasetError):
            Dataset(
                name="bad",
                train_images=np.zeros((5, 4, 4), dtype=np.uint8),
                train_labels=np.zeros(4, dtype=np.int64),
                test_images=np.zeros((2, 4, 4), dtype=np.uint8),
                test_labels=np.zeros(2, dtype=np.int64),
            )

    def test_label_range_checked(self):
        with pytest.raises(DatasetError):
            Dataset(
                name="bad",
                train_images=np.zeros((2, 4, 4), dtype=np.uint8),
                train_labels=np.array([0, 12]),
                test_images=np.zeros((2, 4, 4), dtype=np.uint8),
                test_labels=np.array([0, 1]),
            )


class TestLoader:
    def test_synthetic_mnist(self):
        ds = load_dataset("mnist", n_train=15, n_test=8, size=8, seed=0)
        assert ds.train_images.shape == (15, 8, 8)
        assert ds.test_images.shape == (8, 8, 8)

    def test_synthetic_fashion(self):
        ds = load_dataset("fashion", n_train=10, n_test=5, size=8, seed=0)
        assert ds.name == "fashion"

    def test_train_test_disjoint_seeds(self):
        ds = load_dataset("mnist", n_train=10, n_test=10, size=8, seed=0)
        assert not np.array_equal(ds.train_images, ds.test_images)

    def test_unknown_name_rejected(self):
        with pytest.raises(DatasetError):
            load_dataset("cifar")

    def test_negative_seed_rejected(self):
        with pytest.raises(DatasetError, match="non-negative"):
            load_dataset("mnist", n_train=2, n_test=2, size=8, seed=-1)

    def test_idx_directory_loading(self, tmp_path):
        rng = np.random.default_rng(0)
        write_idx(tmp_path / "train-images-idx3-ubyte",
                  rng.integers(0, 255, (20, 16, 16), dtype=np.uint8))
        write_idx(tmp_path / "train-labels-idx1-ubyte",
                  (np.arange(20) % 10).astype(np.uint8))
        write_idx(tmp_path / "t10k-images-idx3-ubyte",
                  rng.integers(0, 255, (10, 16, 16), dtype=np.uint8))
        write_idx(tmp_path / "t10k-labels-idx1-ubyte",
                  (np.arange(10) % 10).astype(np.uint8))
        ds = load_dataset("mnist", n_train=15, n_test=5, size=16, data_dir=str(tmp_path))
        assert ds.train_images.shape == (15, 16, 16)

    def test_idx_directory_missing_files(self, tmp_path):
        with pytest.raises(DatasetError):
            load_dataset("mnist", data_dir=str(tmp_path))

    def test_idx_downsampling(self, tmp_path):
        rng = np.random.default_rng(0)
        write_idx(tmp_path / "train-images-idx3-ubyte",
                  rng.integers(0, 255, (4, 28, 28), dtype=np.uint8))
        write_idx(tmp_path / "train-labels-idx1-ubyte", np.zeros(4, dtype=np.uint8))
        write_idx(tmp_path / "t10k-images-idx3-ubyte",
                  rng.integers(0, 255, (2, 28, 28), dtype=np.uint8))
        write_idx(tmp_path / "t10k-labels-idx1-ubyte", np.zeros(2, dtype=np.uint8))
        ds = load_dataset("mnist", n_train=4, n_test=2, size=14, data_dir=str(tmp_path))
        assert ds.image_shape == (14, 14)
