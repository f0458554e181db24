"""Backend operation handles: the seam between engines and array modules.

An :class:`Ops` bundles everything a kernel needs to be backend-generic:
the array module ``xp`` it should express its math against, and the two
explicit transfer directions.  Engines obtain one from
:func:`repro.backend.backend_ops` at construction time and route *all*
array creation/conversion and host↔device movement through it; plain
``numpy`` remains legal only for host-side state (checkpoints, logs,
label maps).  The engine suites run under the guard backend in CI, which
raises on any host array that meets a device one; lint rule R8 covers
the conversions the guard cannot see.

On the ``numpy`` backend both transfer directions are identity functions
returning the *same* object — host engines bind live network arrays with
zero copies, which is what keeps the host path bit-identical to the
pre-refactor kernels by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.errors import ConfigurationError


def _identity(array: Any) -> Any:
    return array


@dataclass(frozen=True)
class Ops:
    """Array-module handle plus explicit transfer seams for one backend."""

    #: Canonical backend name ("numpy", "guard", "cupy").
    name: str
    #: The array module kernels express math against.
    xp: Any
    #: True when device memory *is* host memory (transfers are identity).
    is_host: bool
    _to_device: Callable[[Any], Any] = field(repr=False)
    _to_host: Callable[[Any], Any] = field(repr=False)

    def to_device(self, array: Any) -> Any:
        """Upload a host array to this backend's device memory."""
        return self._to_device(array)

    def to_host(self, array: Any) -> Any:
        """Download a device array to a plain host ``numpy.ndarray``."""
        return self._to_host(array)


def build_ops(name: str, module: Any) -> Ops:
    """Construct the :class:`Ops` for a resolved backend module."""
    if name == "numpy":
        return Ops(
            name=name, xp=module, is_host=True,
            _to_device=_identity, _to_host=_identity,
        )
    if name == "guard":
        return Ops(
            name=name, xp=module, is_host=False,
            _to_device=module.to_device, _to_host=module.asnumpy,
        )
    if name == "cupy":  # pragma: no cover - requires a CUDA device
        return Ops(
            name=name, xp=module, is_host=False,
            _to_device=module.asarray, _to_host=module.asnumpy,
        )
    raise ConfigurationError(
        f"no ops construction recipe for backend {name!r}"
    )
