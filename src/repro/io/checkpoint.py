"""Save and restore trained networks and resumable training runs.

Two on-disk formats, both single ``.npz`` files:

- **v1** (``repro-wta-checkpoint-v1``) — the *learned state only*: synapse
  conductances and per-neuron adaptive-threshold offsets, together with the
  JSON-serialised :class:`ExperimentConfig` that produced them and
  (optionally) the neuron labels assigned after training.
  :func:`load_checkpoint` reconstructs a ready-to-infer
  :class:`WTANetwork`.

- **v2** (``repro-wta-checkpoint-v2``) — the *full run state* for resumable
  training: everything v1 stores **plus** the exact bit-generator state of
  every :class:`~repro.engine.rng.RngStreams` stream, the presentation
  index and simulation clock, the :class:`~repro.pipeline.trainer.TrainingLog`
  counters and the weight-normaliser schedule position.  A run killed at a
  presentation boundary and resumed from its latest v2 checkpoint produces
  bit-identical final weights to an uninterrupted run (the contract
  ``tests/test_resilience_resume.py`` pins).

Both formats store the conductances the same way (:func:`_conductance_fields`):
fixed-point configs of at most 16 total bits as uint8/uint16 Q-format codes,
everything else as float64.  v1 files written before codes were stored
(float64 ``conductances`` under any config) still load, bit for bit.
Saving encodes and loading decodes the matrix without a full-matrix
float64 temporary.

Every write is **atomic**: the payload goes to a ``*.tmp`` file in the same
directory, is fsynced, then moved into place with :func:`os.replace` — a
crash mid-save can never leave a truncated file under the real name.
Loaders raise :class:`~repro.errors.CheckpointError` (a
:class:`~repro.errors.DatasetError` subclass) with a diagnostic message on
missing files, foreign/corrupt archives, unknown magic versions and shape
mismatches.
"""

from __future__ import annotations

import json
import os
import tokenize
import zipfile
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, Optional, Sequence, Tuple, Union

import numpy as np

from repro.config.parameters import ExperimentConfig
from repro.config.serialize import config_from_dict, config_to_dict
from repro.errors import CheckpointError, DatasetError
from repro.network.labeling import UNLABELED
from repro.network.wta import WTANetwork
from repro.quantization.codec import codec_for
from repro.quantization.quantizer import ENCODE_BLOCK_ROWS, make_quantizer

if TYPE_CHECKING:
    from repro.resilience.run_state import TrainingRunState

#: Format marker of the learned-state-only checkpoint.
_MAGIC = "repro-wta-checkpoint-v1"
#: Format marker of the resumable full-run-state checkpoint.
_MAGIC_V2 = "repro-wta-checkpoint-v2"

#: Magic values any current loader understands.
KNOWN_MAGICS = (_MAGIC, _MAGIC_V2)


def atomic_savez(path: Union[str, Path], **payload: Any) -> None:
    """``np.savez`` with write-temp-then-rename durability.

    The archive is written to ``<name>.tmp`` in the *same* directory (so
    the final :func:`os.replace` is a same-filesystem atomic rename),
    flushed and fsynced before the rename.  Readers therefore only ever
    observe either the previous complete file or the new complete file —
    never a torn write, which is what makes autosave checkpoints safe to
    take while the run may be killed at any instant.

    Uncompressed deliberately: trained conductances are near-incompressible
    float noise (deflate costs ~10x the raw write for a few percent of
    size), and autosave calls it from inside the training loop.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as handle:
            np.savez(handle, **payload)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _open_payload(
    path: Path, names: Optional[Sequence[str]] = None
) -> Dict[str, np.ndarray]:
    """Read the *names* arrays (every array by default) of the archive at
    *path*, validating its magic.  ``np.load`` reads members lazily, so
    arrays not named are never read."""
    if not path.exists():
        raise CheckpointError(f"checkpoint not found: {path}")
    try:
        with np.load(path, allow_pickle=False) as data:
            wanted = data.files if names is None else [n for n in names if n in data.files]
            # Each member is read into a fresh array; no copy needed.
            payload = {name: data[name] for name in wanted}
    except (
        zipfile.BadZipFile, NotImplementedError, OSError, ValueError, KeyError,
        SyntaxError, tokenize.TokenError,
    ) as exc:
        # zipfile raises NotImplementedError when a damaged header names an
        # unsupported zip version or compression method; numpy parses a
        # member's npy header as a Python literal, so a damaged one raises
        # SyntaxError or tokenize.TokenError.
        raise CheckpointError(
            f"{path} is not a readable checkpoint archive (truncated or "
            f"corrupt): {exc}"
        ) from exc
    if "magic" not in payload:
        raise CheckpointError(
            f"{path} is not a repro checkpoint: no format marker found"
        )
    magic = str(payload["magic"])
    if magic not in KNOWN_MAGICS:
        raise CheckpointError(
            f"{path} carries unknown checkpoint magic {magic!r}; this "
            f"build reads {', '.join(KNOWN_MAGICS)}"
        )
    return payload


def checkpoint_magic(path: Union[str, Path]) -> str:
    """The format marker stored at *path*; reads no other member."""
    return str(_open_payload(Path(path), ("magic",))["magic"])


def _validate_labels(labels: np.ndarray, n_neurons: int) -> np.ndarray:
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != (n_neurons,):
        raise DatasetError(
            f"neuron_labels must have shape ({n_neurons},), got {labels.shape}"
        )
    return labels


def _conductance_fields(
    config: ExperimentConfig, conductances: np.ndarray
) -> Dict[str, np.ndarray]:
    """The conductance fields of a checkpoint of either format.

    Fixed-point configs of at most 16 total bits store the integer
    Q-format codes themselves (``g_codes``) plus the format's fractional
    bit count: the learned state at its native width, a 4x-8x smaller
    array, encoded row block by row block straight into the code array.
    Decoding restores the on-grid float values bit for bit.  Wider and
    float configs store float64 ``conductances``.
    """
    codec = codec_for(make_quantizer(config.quantization))
    if codec is None:
        return {"conductances": conductances}
    codes = np.empty(conductances.shape, dtype=codec.dtype)
    scratch = np.empty((min(ENCODE_BLOCK_ROWS, codes.shape[0]), codes.shape[1]))
    codec.encode_into(conductances, codes, scratch)
    return {"g_codes": codes, "g_frac_bits": np.array(codec.fmt.frac_bits)}


def save_checkpoint(
    path: Union[str, Path],
    network: WTANetwork,
    neuron_labels: Optional[np.ndarray] = None,
) -> None:
    """Write *network*'s learned state (and optional labels) to *path*.

    The write is atomic (see :func:`atomic_savez`).
    """
    payload = {
        "magic": np.array(_MAGIC),
        "config_json": np.array(json.dumps(config_to_dict(network.config))),
        "n_pixels": np.array(network.n_pixels),
        "theta": network.neurons.theta,
        **_conductance_fields(network.config, network.conductances),
    }
    if neuron_labels is not None:
        payload["neuron_labels"] = _validate_labels(
            neuron_labels, network.config.wta.n_neurons
        )
    atomic_savez(Path(path), **payload)


def _stored_conductances(
    payload: Dict[str, np.ndarray], path: Path
) -> Tuple[np.ndarray, Optional[int]]:
    """The stored conductance array and its fractional bit count.

    ``(codes, frac_bits)`` when the checkpoint stores uint8/uint16
    Q-format codes (``g_codes``, see :func:`_conductance_fields`),
    ``(values, None)`` when it stores float64 ``conductances``.
    """
    if "g_codes" not in payload:
        return np.asarray(payload["conductances"], dtype=np.float64), None
    codes = payload["g_codes"]
    if codes.dtype.kind != "u" or codes.dtype.itemsize > 2:
        raise CheckpointError(
            f"{path}: g_codes must be uint8/uint16 Q-format codes, got "
            f"dtype {codes.dtype}"
        )
    frac_bits = int(payload["g_frac_bits"])
    if not 1 <= frac_bits <= 16:
        raise CheckpointError(
            f"{path}: g_frac_bits must be in [1, 16], got {frac_bits}"
        )
    return codes, frac_bits


def _decode_conductances_into(
    fields: Dict[str, Any], path: Path, out: np.ndarray
) -> np.ndarray:
    """Write the stored conductances, decoded, into the float64 array *out*.

    Codes decode by multiplying with the exact power-of-two resolution, so
    on-grid values round-trip bit for bit.  The ufunc casts the codes in
    small buffers, so no full-matrix float64 temporary is made.
    """
    stored, frac_bits = fields["g_stored"], fields["g_frac_bits"]
    if stored.shape != out.shape:
        raise CheckpointError(
            f"{path}: stored conductances {stored.shape} do not match "
            f"the config's network shape {out.shape}"
        )
    if frac_bits is None:
        np.copyto(out, stored)
    else:
        np.multiply(stored, 2.0 ** -frac_bits, out=out, dtype=np.float64)
    return out


#: The members that say which network a checkpoint holds.
_HEADER = ("magic", "config_json", "n_pixels")


def _decode_header(
    payload: Dict[str, np.ndarray], path: Path
) -> Tuple[ExperimentConfig, int]:
    """The stored config and input pixel count, type-checked."""
    try:
        config = config_from_dict(json.loads(str(payload["config_json"])))
        n_pixels = int(payload["n_pixels"])
    except (KeyError, ValueError, TypeError) as exc:
        raise CheckpointError(
            f"{path} is missing or has malformed checkpoint fields: {exc}"
        ) from exc
    return config, n_pixels


def _decode_learned(
    payload: Dict[str, np.ndarray], path: Path, n_neurons: int
) -> Dict[str, Any]:
    """The learned state, type-checked against the config's neuron count.

    Neuron labels, when stored, must be what a save writes: one integer
    per neuron, a class index or ``UNLABELED``.

    The conductances stay in their stored form (``g_stored`` and
    ``g_frac_bits``) until :func:`_decode_conductances_into` writes them
    into their destination.
    """
    try:
        g_stored, g_frac_bits = _stored_conductances(payload, path)
        theta = np.asarray(payload["theta"], dtype=np.float64)
    except (KeyError, ValueError, TypeError) as exc:
        raise CheckpointError(
            f"{path} is missing or has malformed checkpoint fields: {exc}"
        ) from exc
    if theta.shape != (n_neurons,):
        raise CheckpointError(
            f"{path}: stored theta {theta.shape} does not match the "
            f"config's neuron count {(n_neurons,)}"
        )
    labels = payload.get("neuron_labels")
    if labels is not None and (
        labels.dtype.kind not in "iu"
        or labels.shape != (n_neurons,)
        or (labels.size and labels.min() < UNLABELED)
    ):
        raise CheckpointError(
            f"{path}: stored neuron_labels must be {n_neurons} integer labels "
            f">= {UNLABELED} (unlabelled), got {labels.dtype} {labels.shape}"
        )
    return {
        "g_stored": g_stored,
        "g_frac_bits": g_frac_bits,
        "theta": theta,
        "neuron_labels": labels,
    }


def load_checkpoint(
    path: Union[str, Path]
) -> Tuple[WTANetwork, Optional[np.ndarray]]:
    """Rebuild the network stored at *path* (either format).

    Returns ``(network, neuron_labels)`` — labels are ``None`` when the
    checkpoint was saved without them.  The restored network starts in
    learning-enabled mode with the stored conductances and thresholds;
    call :meth:`WTANetwork.freeze` for pure inference.  For a v2
    (resumable) checkpoint only the learned state is applied here; use
    :func:`load_run_checkpoint` to also restore the RNG streams and run
    position for bit-identical training resumption.
    """
    path = Path(path)
    config, n_pixels = _decode_header(_open_payload(path, _HEADER), path)
    # Build first and read the arrays after, and drop the stored matrix
    # once decoded: it is held neither while the network draws its initial
    # matrix nor while the re-quantise below works.
    network = WTANetwork(config, n_pixels)
    fields = _decode_learned(_open_payload(path), path, config.wta.n_neurons)
    g = _decode_conductances_into(fields, path, network.synapses.g)
    del fields["g_stored"]
    # Re-quantise in place: stored values are on the grid, so this changes
    # none of them, but it makes the rounding-stream draws the loader has
    # always made, so every stream ends where it always has.
    network.synapses.set_conductances(g, network.rngs.rounding)
    network.neurons.theta[:] = fields["theta"]
    return network, fields["neuron_labels"]


# ----------------------------------------------------------------------
# v2: resumable full-run-state checkpoints
# ----------------------------------------------------------------------


def save_run_checkpoint(path: Union[str, Path], state: "TrainingRunState") -> None:
    """Persist a :class:`~repro.resilience.run_state.TrainingRunState`.

    Atomic like every checkpoint write; the file is self-describing (config
    travels inside) and also loadable by the plain :func:`load_checkpoint`
    for inference-only use.
    """
    payload = {
        "magic": np.array(_MAGIC_V2),
        "config_json": np.array(json.dumps(config_to_dict(state.config))),
        "n_pixels": np.array(state.n_pixels),
        "theta": state.theta,
        "rng_json": np.array(json.dumps(state.rng_state)),
        "run_json": np.array(json.dumps(state.run_fields())),
        "spikes_per_image": np.asarray(state.spikes_per_image, dtype=np.int64),
        **_conductance_fields(state.config, state.conductances),
    }
    if state.neuron_labels is not None:
        payload["neuron_labels"] = _validate_labels(
            state.neuron_labels, state.config.wta.n_neurons
        )
    atomic_savez(Path(path), **payload)


def load_run_checkpoint(path: Union[str, Path]) -> "TrainingRunState":
    """Load a v2 checkpoint back into a ``TrainingRunState``.

    Raises :class:`CheckpointError` when *path* holds a v1 file (which has
    no run state to resume from) or any corrupt/foreign archive.
    """
    from repro.resilience.run_state import TrainingRunState

    path = Path(path)
    payload = _open_payload(path)
    magic = str(payload["magic"])
    if magic != _MAGIC_V2:
        raise CheckpointError(
            f"{path} is a {magic} checkpoint: it stores learned state only "
            f"and cannot resume a training run (need {_MAGIC_V2})"
        )
    config, n_pixels = _decode_header(payload, path)
    fields = _decode_learned(payload, path, config.wta.n_neurons)
    try:
        rng_state = json.loads(str(payload["rng_json"]))
        run = json.loads(str(payload["run_json"]))
        spikes = [int(s) for s in np.asarray(payload["spikes_per_image"])]
    except (KeyError, ValueError, TypeError) as exc:
        raise CheckpointError(
            f"{path} is missing or has malformed run-state fields: {exc}"
        ) from exc

    shape = (n_pixels, config.wta.n_neurons)
    conductances = _decode_conductances_into(fields, path, np.empty(shape))

    return TrainingRunState.from_payload(
        config=config,
        n_pixels=n_pixels,
        conductances=conductances,
        theta=fields["theta"],
        rng_state=rng_state,
        run=run,
        spikes_per_image=spikes,
        neuron_labels=fields["neuron_labels"],
        source=str(path),
    )
