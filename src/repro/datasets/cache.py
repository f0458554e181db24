"""On-disk caching for generated datasets.

Procedural generation is deterministic and cheap per image (about 0.3 ms
of CPU for a 28 x 28 digit), but a paper-scale set of 70,000 images still
costs about 20 s; repeated runs with identical parameters can reload a
cached ``.npz`` instead.  The cache key encodes every generation
parameter, so differing requests never collide.

Usage::

    from repro.datasets.cache import cached_load_dataset

    ds = cached_load_dataset("mnist", n_train=400, n_test=150, size=16,
                             seed=1, cache_dir="~/.cache/repro")

The cache directory defaults to ``REPRO_CACHE_DIR`` or stays disabled when
neither it nor ``cache_dir`` is set (falling back to plain generation).

Integrity: every cache entry stores a SHA-256 digest over its arrays;
:func:`load_saved_dataset` recomputes and compares it on read, so silent
bit-rot or a torn write surfaces as :class:`~repro.errors.DatasetError`
instead of feeding corrupted images into a run.
:func:`cached_load_dataset` treats that error like any other corrupt entry
— the dataset is regenerated (once) and the entry rewritten.  Writes are
atomic (temp file + rename), matching the checkpoint protocol.
"""

from __future__ import annotations

import hashlib
import json
import os
import zipfile
import zlib
from pathlib import Path
from typing import Optional, Union

import numpy as np

from repro.datasets.dataset import Dataset, load_dataset
from repro.errors import DatasetError

#: Bump when the generators change in ways that invalidate cached images.
#: Version 2 added the stored integrity digest.
CACHE_VERSION = 2


def cache_key(**params) -> str:
    """A stable hash of the generation parameters."""
    payload = json.dumps({"version": CACHE_VERSION, **params}, sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:24]


def _cache_path(cache_dir: Path, name: str, key: str) -> Path:
    return cache_dir / f"{name}-{key}.npz"


def dataset_digest(dataset: Dataset) -> str:
    """SHA-256 over the dataset's arrays and identity (order-pinned)."""
    digest = hashlib.sha256()
    digest.update(dataset.name.encode("utf-8"))
    digest.update(str(dataset.n_classes).encode("utf-8"))
    for arr in (
        dataset.train_images,
        dataset.train_labels,
        dataset.test_images,
        dataset.test_labels,
    ):
        digest.update(str(arr.dtype).encode("utf-8"))
        digest.update(str(arr.shape).encode("utf-8"))
        digest.update(np.ascontiguousarray(arr).tobytes())
    return digest.hexdigest()


def save_dataset(path: Union[str, Path], dataset: Dataset) -> None:
    """Write a dataset (with its integrity digest) atomically to *path*."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as handle:
            np.savez_compressed(
                handle,
                name=np.array(dataset.name),
                train_images=dataset.train_images,
                train_labels=dataset.train_labels,
                test_images=dataset.test_images,
                test_labels=dataset.test_labels,
                n_classes=np.array(dataset.n_classes),
                digest=np.array(dataset_digest(dataset)),
            )
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_saved_dataset(path: Union[str, Path], verify: bool = True) -> Dataset:
    """Load a dataset written by :func:`save_dataset`.

    With *verify* (the default) the stored SHA-256 digest is recomputed
    from the loaded arrays and compared; a missing or mismatching digest
    raises :class:`DatasetError` — the entry is corrupt or predates the
    digest format.
    """
    path = Path(path)
    if not path.exists():
        raise DatasetError(f"no cached dataset at {path}")
    try:
        with np.load(path, allow_pickle=False) as data:
            required = {"name", "train_images", "train_labels", "test_images", "test_labels"}
            if not required <= set(data.files):
                raise DatasetError(f"{path} is not a cached dataset")
            dataset = Dataset(
                name=str(data["name"]),
                train_images=np.array(data["train_images"]),
                train_labels=np.array(data["train_labels"]),
                test_images=np.array(data["test_images"]),
                test_labels=np.array(data["test_labels"]),
                n_classes=int(data["n_classes"]) if "n_classes" in data else 10,
            )
            stored = str(data["digest"]) if "digest" in data else None
    except (
        zipfile.BadZipFile, NotImplementedError, ValueError, OSError, EOFError, zlib.error
    ) as exc:
        # Torn writes and bit-rot usually die in the zip layer (bad CRC,
        # truncated directory, a damaged header naming an unsupported zip
        # version) or in a member's deflate stream before the digest is even
        # reachable; map them onto the same typed error the digest check
        # raises.
        raise DatasetError(f"{path} is truncated or corrupt: {exc}") from exc
    if verify:
        if stored is None:
            raise DatasetError(
                f"{path} has no integrity digest (pre-v{CACHE_VERSION} cache "
                f"entry); regenerate it"
            )
        actual = dataset_digest(dataset)
        if actual != stored:
            raise DatasetError(
                f"{path} failed its integrity check: stored digest "
                f"{stored[:12]}..., recomputed {actual[:12]}... — the cache "
                f"entry is corrupt"
            )
    return dataset


def cached_load_dataset(
    name: str,
    n_train: int = 200,
    n_test: int = 100,
    size: int = 16,
    seed: int = 0,
    jitter: float = 1.0,
    cache_dir: Optional[Union[str, Path]] = None,
) -> Dataset:
    """:func:`repro.datasets.load_dataset` with a transparent disk cache.

    With no usable cache directory this is exactly ``load_dataset``.
    Corrupt cache entries are regenerated, not fatal.
    """
    directory = cache_dir if cache_dir is not None else os.environ.get("REPRO_CACHE_DIR")
    if directory is None:
        return load_dataset(name, n_train=n_train, n_test=n_test, size=size,
                            seed=seed, jitter=jitter)

    directory = Path(directory).expanduser()
    directory.mkdir(parents=True, exist_ok=True)
    key = cache_key(name=name, n_train=n_train, n_test=n_test, size=size,
                    seed=seed, jitter=jitter)
    path = _cache_path(directory, name, key)
    if path.exists():
        try:
            return load_saved_dataset(path)
        except (DatasetError, ValueError, OSError):
            path.unlink(missing_ok=True)

    dataset = load_dataset(name, n_train=n_train, n_test=n_test, size=size,
                           seed=seed, jitter=jitter)
    save_dataset(path, dataset)
    return dataset
