"""Guard backend: NumPy semantics with device-discipline enforcement.

This module is an always-available stand-in for a GPU array module.  It
computes everything with NumPy (so results are bit-identical to the
``numpy`` backend by construction) but tags every array it creates as
*device-resident* via the :class:`GuardArray` ndarray subclass and then:

* **raises** :class:`~repro.errors.BackendError` when an operation mixes a
  device array with a plain host array — the bug class that silently works
  on NumPy, crashes on CuPy, and otherwise needs a GPU in CI to catch;
* **counts** allocations and host↔device transfers so benchmarks and tests
  can assert that a kernel's steady-state loop is transfer-free.

The accounting model mirrors CuPy's implicit-transfer behaviour:

* creating a device array (``xp.empty`` … ``xp.linspace``) counts one
  allocation;
* converting a host ndarray (``xp.asarray(host)``, :func:`to_device`)
  counts one host→device transfer;
* indexing or scattering with a *host* index/value array counts one
  host→device transfer (CuPy uploads such operands implicitly — legal,
  but worth measuring);
* :func:`asnumpy` / ``Ops.to_host`` counts one device→host transfer;
* mixing a device array with a host array inside a ufunc or array
  function counts one violation and raises.

Scalar extraction (``float(x)``, ``x.item()``, reductions returning NumPy
scalars) is treated as a synchronisation point, not a counted transfer —
the counters track *array* movement, which is what dominates PCIe cost.

Known blind spots, accepted by design and covered by lint rule R8 plus
the explicit ``Ops`` seams instead: ``np.asarray(device_array)`` called
through the *plain* ``numpy`` namespace strips the guard silently (NumPy's
``asarray`` does not dispatch ``__array_function__`` for subclasses) —
R8 traces device arrays through calls to exactly those conversions — and
``host_array[device_mask]`` dispatches on the host operand.  Kernel code
must therefore route array creation/conversion through ``xp``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Tuple

import numpy as _np

from repro.errors import BackendError

#: Canonical short name reported by ``repro.backend.backend_name()``.
__backend_name__ = "guard"


@dataclass
class TransferStats:
    """Counters accumulated by the guard backend since the last reset."""

    h2d: int = 0
    d2h: int = 0
    allocations: int = 0
    violations: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "h2d": self.h2d,
            "d2h": self.d2h,
            "allocations": self.allocations,
            "violations": self.violations,
        }


_STATS = TransferStats()


def transfer_stats() -> TransferStats:
    """Return a snapshot of the counters (detached from the live state)."""
    return TransferStats(
        h2d=_STATS.h2d,
        d2h=_STATS.d2h,
        allocations=_STATS.allocations,
        violations=_STATS.violations,
    )


def reset_counters() -> None:
    """Zero all guard counters."""
    _STATS.h2d = 0
    _STATS.d2h = 0
    _STATS.allocations = 0
    _STATS.violations = 0


def _violation(context: str, value: Any) -> BackendError:
    _STATS.violations += 1
    shape = getattr(value, "shape", None)
    return BackendError(
        f"implicit host/device mixing in {context!r}: a plain host numpy "
        f"array (shape {shape}) met a guard-device array; upload it "
        "explicitly with Ops.to_device / xp.asarray, or download the "
        "device operand with Ops.to_host / repro.backend.asnumpy"
    )


def _is_host_array(value: Any) -> bool:
    """True for a plain (non-guard) ndarray with at least one dimension.

    Zero-dimensional host arrays and NumPy scalars are allowed to mix —
    CuPy broadcasts those from the host without a kernel-visible upload,
    and treating them as violations would outlaw ``x * np.float64(2.0)``.
    """
    return (
        isinstance(value, _np.ndarray)
        and not isinstance(value, GuardArray)
        and value.ndim > 0
    )


def _check_tree(value: Any, context: str) -> None:
    if _is_host_array(value):
        raise _violation(context, value)
    if isinstance(value, (tuple, list)):
        for item in value:
            _check_tree(item, context)
    elif isinstance(value, dict):
        for item in value.values():
            _check_tree(item, context)


def _unwrap(value: Any) -> Any:
    if isinstance(value, GuardArray):
        return value.view(_np.ndarray)
    if isinstance(value, tuple):
        return tuple(_unwrap(item) for item in value)
    if isinstance(value, list):
        return [_unwrap(item) for item in value]
    if isinstance(value, dict):
        return {key: _unwrap(item) for key, item in value.items()}
    return value


def _wrap(value: Any) -> Any:
    if isinstance(value, _np.ndarray) and not isinstance(value, GuardArray):
        return value.view(GuardArray)
    if isinstance(value, tuple):
        return tuple(_wrap(item) for item in value)
    return value


class GuardArray(_np.ndarray):
    """A NumPy array posing as device memory.

    Participates in all NumPy operations via the ufunc/array-function
    protocols; every operation first checks that no plain host array is
    mixed in, then computes on the underlying base class and re-wraps
    ndarray results so device residency is sticky.
    """

    __slots__ = ()

    def __array_ufunc__(
        self, ufunc: Any, method: str, *inputs: Any, **kwargs: Any
    ) -> Any:
        context = f"{ufunc.__name__}.{method}" if method != "__call__" else ufunc.__name__
        out = kwargs.get("out", ())
        if not isinstance(out, tuple):
            out = (out,)
        for operand in (*inputs, *out):
            if _is_host_array(operand):
                raise _violation(context, operand)
        where = kwargs.get("where", True)
        if where is not True:
            if _is_host_array(where):
                raise _violation(context, where)
            kwargs["where"] = _unwrap(where)
        if out and out[0] is not None:
            kwargs["out"] = tuple(_unwrap(item) for item in out)
        result = getattr(ufunc, method)(*(_unwrap(item) for item in inputs), **kwargs)
        if out and out[0] is not None:
            return out[0] if len(out) == 1 else out
        return _wrap(result)

    def __array_function__(
        self, func: Any, types: Any, args: Any, kwargs: Any
    ) -> Any:
        context = getattr(func, "__name__", str(func))
        _check_tree(args, context)
        _check_tree(kwargs, context)
        return _wrap(func(*_unwrap(args), **_unwrap(kwargs)))

    def __getitem__(self, key: Any) -> Any:
        _count_host_operands(key)
        return super().__getitem__(_unwrap(key))

    def __setitem__(self, key: Any, value: Any) -> None:
        _count_host_operands(key)
        if _is_host_array(value):
            # CuPy uploads a host value array implicitly: legal, counted.
            _STATS.h2d += 1
        super().__setitem__(_unwrap(key), _unwrap(value))


def _count_host_operands(key: Any) -> None:
    """Count host index arrays used against a device array as uploads."""
    items: Tuple[Any, ...] = key if isinstance(key, tuple) else (key,)
    for item in items:
        if _is_host_array(item):
            _STATS.h2d += 1


def asnumpy(array: Any) -> _np.ndarray:
    """Download a device array to the host (counted), copying it.

    Host inputs pass through ``numpy.asarray`` uncounted, mirroring
    ``cupy.asnumpy`` semantics.
    """
    if isinstance(array, GuardArray):
        _STATS.d2h += 1
        return _np.array(array.view(_np.ndarray))
    return _np.asarray(array)


def to_device(array: Any) -> GuardArray:
    """Upload a host array (counted), returning a detached device copy."""
    if isinstance(array, GuardArray):
        return array
    host = _np.asarray(array)
    _STATS.h2d += 1
    return _np.array(host).view(GuardArray)


#: Array-creation functions: count one device allocation each.
_CREATION_FNS = frozenset(
    {
        "empty",
        "zeros",
        "ones",
        "full",
        "empty_like",
        "zeros_like",
        "ones_like",
        "full_like",
        "arange",
        "linspace",
        "eye",
        "identity",
        "fromiter",
    }
)

#: Conversion functions: host ndarray input counts an upload instead.
_CONVERSION_FNS = frozenset(
    {"asarray", "array", "ascontiguousarray", "asfortranarray"}
)


def _make_creation(name: str) -> Any:
    fn = getattr(_np, name)

    def creation(*args: Any, **kwargs: Any) -> Any:
        _STATS.allocations += 1
        return _wrap(fn(*_unwrap(args), **_unwrap(kwargs)))

    creation.__name__ = name
    creation.__qualname__ = name
    return creation


def _make_conversion(name: str) -> Any:
    fn = getattr(_np, name)

    def conversion(obj: Any, *args: Any, **kwargs: Any) -> Any:
        if isinstance(obj, GuardArray):
            # Already on device; numpy.asarray would strip the subclass
            # silently, so re-wrap the result explicitly.
            return _wrap(fn(obj.view(_np.ndarray), *args, **kwargs))
        if _is_host_array(obj):
            _STATS.h2d += 1
        else:
            _STATS.allocations += 1
        return _wrap(fn(obj, *args, **kwargs))

    conversion.__name__ = name
    conversion.__qualname__ = name
    return conversion


def __getattr__(name: str) -> Any:
    """Expose the full NumPy namespace with guarded creation/conversion.

    Everything else is returned raw: ufuncs and array functions applied to
    :class:`GuardArray` operands dispatch through the override protocols
    anyway, so the checks still run; dtypes and scalar types need no
    wrapping at all.
    """
    if name in _CREATION_FNS:
        wrapped = _make_creation(name)
    elif name in _CONVERSION_FNS:
        wrapped = _make_conversion(name)
    else:
        try:
            wrapped = getattr(_np, name)
        except AttributeError:
            raise AttributeError(
                f"module {__name__!r} has no attribute {name!r}"
            ) from None
    globals()[name] = wrapped  # cache for subsequent lookups
    return wrapped
