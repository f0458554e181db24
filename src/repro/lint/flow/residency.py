"""R8 — device-residency flow: Ops-owned arrays must not hit host sinks.

One atom, ``DEVICE``: the value may be an array owned by a backend
:class:`~repro.backend.ops.Ops` (created through its ``xp`` module or
uploaded with ``to_device``).  The guard backend is the runtime ground
truth this pass must agree with: ``GuardArray`` is an ndarray subclass
whose documented blind spot is the ``np.asarray`` conversion family,
which does **not** dispatch ``__array_function__`` and silently strips
residency instead of raising.  Every other misuse — a host array mixed
with a device one in a ufunc or an array function — raises under the
guard backend, which the engine suites run under in CI; R8 covers the
blind spot.  A device array handed directly or through any chain of
analyzed calls into ``np.asarray``/``np.array``/``np.ascontiguousarray``/
``np.asfortranarray`` is flagged at the sink.

``ops.to_host(x)`` / ``asnumpy(x)`` are the sanctioned crossings and
strip the atom; everything else (arithmetic, views, xp calls, unresolved
method calls) propagates it, since backend arrays survive generic numpy
ufuncs via ``__array_function__``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.lint.findings import Finding
from repro.lint.flow.lattices import BOT, Interp, Value, _Ctx, join
from repro.lint.flow.summary import ModuleSummary

DEVICE = "DEVICE"

_DEVICE_VALUE: Value = frozenset({DEVICE})

#: numpy conversions that silently strip ``GuardArray`` residency.
HOST_SINK_FNS = frozenset(
    {"array", "asarray", "ascontiguousarray", "asfortranarray"}
)

#: Sanctioned device->host crossings (drop the atom).
_HOST_CROSSING_METHODS = frozenset({"to_host", "_to_host", "asnumpy", "tolist", "item"})


class ResidencyInterp(Interp):
    rule = "R8"

    # -- atom propagation ----------------------------------------------

    def hook_bin(self, operands: List[Value], ctx: _Ctx) -> Value:
        return join(*operands)

    def hook_attr(self, base: Value, attr: str, ctx: _Ctx) -> Value:
        # Array attribute reads (``.T``, ``.flat``) stay on device; scalar
        # metadata (``.shape``, ``.size``) does not carry residency.
        if attr in ("shape", "size", "ndim", "nbytes", "itemsize", "is_host"):
            return BOT
        return base

    # -- calls ---------------------------------------------------------

    def hook_call(
        self,
        callee: List[Any],
        args: List[Value],
        kwargs: Dict[str, Value],
        arg_descs: List[Any],
        kwarg_descs: Dict[str, Any],
        line: int,
        col: int,
        ctx: _Ctx,
    ) -> Optional[Value]:
        kind = callee[0]
        if kind == "xp":
            # Anything produced by the ops-owned array module is resident.
            return _DEVICE_VALUE
        if kind == "np":
            name = callee[1]
            incoming = join(*args) | join(*kwargs.values()) if (args or kwargs) else BOT
            if name in HOST_SINK_FNS and DEVICE in incoming:
                self.report(
                    ctx, line, col,
                    f"device-resident array may reach host-only np.{name} "
                    "(silently strips backend residency; use ops.to_host "
                    "at the boundary)",
                )
                return BOT
            # Generic numpy ufuncs dispatch __array_function__ and keep
            # the array on its backend.
            return incoming & _DEVICE_VALUE
        if kind == "method":
            name = callee[2]
            if name == "to_device":
                return _DEVICE_VALUE
            if name in _HOST_CROSSING_METHODS:
                return BOT
            return None
        return None

    def hook_opaque_call(
        self,
        callee: List[Any],
        recv: Value,
        args: List[Value],
        kwargs: Dict[str, Value],
        ctx: _Ctx,
    ) -> Value:
        # Unresolved method calls on device arrays (reductions, views)
        # conservatively stay on device.
        if callee[0] == "method" and DEVICE in recv:
            return _DEVICE_VALUE
        return BOT


def check_residency(corpus: Dict[str, ModuleSummary]) -> List[Finding]:
    """Run R8 over one whole-program corpus."""
    return ResidencyInterp(corpus).run()
