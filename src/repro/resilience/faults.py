"""Deterministic fault injection: prove the recovery paths, don't hope.

Every resilience mechanism in this package has a matching injector here,
so the test suite can *demonstrate* recovery instead of asserting it
abstractly:

- :class:`CrashFault` — simulates a SIGKILL at a chosen presentation
  boundary (raises :class:`SimulatedCrash` from the trainer's
  ``on_image_end`` hook), for the kill-and-resume bit-identity tests;
- :class:`WorkerDeathFault` — kills (or raises inside) a sweep worker for
  chosen seeds, exactly *once* per marker directory, for the
  fault-tolerant ``ParameterSweep`` tests;
- :class:`FaultyEngine` + :func:`install_faulty_engine` — a registry
  engine wrapping a real one that raises :class:`InjectedFault` or writes
  NaN/out-of-range values into live state at a scheduled presentation, for
  the sentinel and engine-degradation tests;
- :func:`truncate_file` / :func:`corrupt_file` — deterministic, seeded
  on-disk damage for the checkpoint/cache corruption tests.

Everything is seeded or index-scheduled — a failing resilience test
reproduces exactly.  The heavyweight injections (actually killing spawned
pool workers) are additionally gated behind ``REPRO_FAULTS=1``
(:func:`faults_enabled`), which the dedicated CI fault-injection job sets.
"""

from __future__ import annotations

import itertools
import os
import re
import time
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Any,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.engine.registry import (
    EngineSpec,
    get_engine_spec,
    register_engine,
    unregister_engine,
)
from repro.errors import ConfigurationError
from repro.resilience.degrade import DEGRADATION_CHAIN

#: Environment switch for the heavyweight fault-injection tests (worker
#: process kills).  The lightweight, exception-based injections run in the
#: regular tier-1 suite regardless.
FAULTS_ENV = "REPRO_FAULTS"

#: Accepted spellings for the :data:`FAULTS_ENV` switch (case-insensitive,
#: surrounding whitespace ignored).  Anything else is a configuration
#: error — ``REPRO_FAULTS=off`` silently *enabling* the heavyweight suite
#: is exactly the kind of surprise a fault harness must not have.
FAULTS_ENV_TRUE = frozenset({"1", "true", "yes", "on"})
FAULTS_ENV_FALSE = frozenset({"", "0", "false", "no", "off"})


def faults_enabled() -> bool:
    """Whether the heavyweight fault-injection suite is switched on.

    ``REPRO_FAULTS`` must be one of :data:`FAULTS_ENV_TRUE` (enables) or
    :data:`FAULTS_ENV_FALSE` (disables, same as unset); other values raise
    :class:`~repro.errors.ConfigurationError` instead of guessing.
    """
    raw = os.environ.get(FAULTS_ENV, "")
    value = raw.strip().lower()
    if value in FAULTS_ENV_TRUE:
        return True
    if value in FAULTS_ENV_FALSE:
        return False
    raise ConfigurationError(
        f"{FAULTS_ENV}={raw!r} is not a recognised switch value; use one of "
        f"{sorted(FAULTS_ENV_TRUE)} to enable or "
        f"{sorted(v for v in FAULTS_ENV_FALSE if v)} (or unset) to disable"
    )


class InjectedFault(RuntimeError):
    """An artificial failure raised by an injector.

    Deliberately **not** a :class:`~repro.errors.ReproError`: recovery code
    must handle arbitrary unexpected exceptions, and a library-error
    subclass would let it cheat by catching the friendly base class.
    """


class SimulatedCrash(InjectedFault):
    """Stands in for SIGKILL in tests: aborts the run at a boundary."""


# ----------------------------------------------------------------------
# trainer-side: kill-and-resume
# ----------------------------------------------------------------------


@dataclass
class CrashFault:
    """Raise :class:`SimulatedCrash` after presentation *at_presentation*.

    Use as (or inside) the trainer's ``on_image_end`` hook::

        fault = CrashFault(at_presentation=7)
        with pytest.raises(SimulatedCrash):
            trainer.train(images, autosave=policy, on_image_end=fault)

    The crash fires *after* the boundary's autosave has run — exactly the
    worst-case instant a real SIGKILL could land without losing the
    checkpoint.
    """

    at_presentation: int
    fired: bool = False

    def __call__(self, image_index: int, _log: object = None) -> None:
        if image_index + 1 == self.at_presentation:
            self.fired = True
            raise SimulatedCrash(
                f"injected crash after presentation {self.at_presentation}"
            )


# ----------------------------------------------------------------------
# sweep-side: worker death
# ----------------------------------------------------------------------

#: Monotonic suffix for auto-generated marker run-ids (process-unique
#: together with the pid; deliberately not wall-clock based).
_RUN_ID_COUNTER = itertools.count()


def _next_run_id() -> str:
    """A fresh marker-ownership id: pid + in-process counter, no clocks."""
    return f"{os.getpid()}-{next(_RUN_ID_COUNTER)}"


def _claim_marker(marker: Path, run_id: str) -> bool:
    """Atomically claim a once-only marker file, evicting stale ones.

    The marker stores the owning *run_id*.  An existing marker whose
    content differs from a non-empty *run_id* was left behind by a
    previous (interrupted) run — it is removed and re-claimed, so a fresh
    fault instance starts with its full once-only budget instead of
    silently never firing.  With ``run_id == ""`` any existing marker
    counts as already claimed (explicit shared-claim mode: several
    instances given the same empty or matching id share one budget).
    """
    marker.parent.mkdir(parents=True, exist_ok=True)
    if run_id:
        try:
            stale = marker.read_text() != run_id
        except FileNotFoundError:
            stale = False
        except OSError:
            stale = True
        if stale:
            try:
                marker.unlink()
            except FileNotFoundError:
                pass
    try:
        with open(marker, "x") as handle:
            handle.write(run_id)
        return True
    except FileExistsError:
        return False


@dataclass(frozen=True)
class WorkerDeathFault:
    """Fail a sweep cell for the given seeds, once per marker directory.

    Picklable (it ships to spawn-context pool workers inside the payload).
    ``mode="exception"`` raises :class:`InjectedFault` inside the worker —
    the pool survives, the cell fails cleanly.  ``mode="exit"`` calls
    ``os._exit``, genuinely killing the worker process the way an OOM kill
    would (this breaks the pool; the sweep must rebuild it) — that mode
    requires ``REPRO_FAULTS=1``.

    *marker_dir* provides once-only semantics across retries and across
    processes: the first trigger atomically creates a marker file; later
    attempts on the same cell see it and pass, so a retried cell succeeds.
    Markers store the instance's *run_id* (:func:`WorkerDeathFault.for_seeds`
    generates one per instance); a marker left by a previous interrupted
    run carries a different id, is treated as stale and is cleaned up on
    the next claim.  Pass the same explicit ``run_id`` to several
    instances to share one once-only budget.
    """

    seeds: FrozenSet[int]
    marker_dir: str
    mode: str = "exception"
    variant: Optional[str] = None
    run_id: str = ""

    def __post_init__(self) -> None:
        if self.mode not in ("exception", "exit"):
            raise ConfigurationError(
                f"WorkerDeathFault mode must be 'exception' or 'exit', "
                f"got {self.mode!r}"
            )

    @classmethod
    def for_seeds(
        cls,
        seeds: Iterable[int],
        marker_dir: Union[str, Path],
        mode: str = "exception",
        variant: Optional[str] = None,
        run_id: Optional[str] = None,
    ) -> "WorkerDeathFault":
        return cls(
            seeds=frozenset(int(s) for s in seeds),
            marker_dir=str(marker_dir),
            mode=mode,
            variant=variant,
            run_id=_next_run_id() if run_id is None else str(run_id),
        )

    def _claim(self, variant: str, seed: int) -> bool:
        """Atomically claim the one allowed trigger for this cell."""
        marker = Path(self.marker_dir) / f"fault-{variant}-{seed}.marker"
        return _claim_marker(marker, self.run_id)

    def maybe_trigger(self, variant: str, seed: int) -> None:
        """Called by the sweep worker before running a cell."""
        if seed not in self.seeds:
            return
        if self.variant is not None and variant != self.variant:
            return
        if not self._claim(variant, seed):
            return
        if self.mode == "exit":
            if not faults_enabled():
                raise ConfigurationError(
                    f"WorkerDeathFault(mode='exit') kills real worker "
                    f"processes; set {FAULTS_ENV}=1 to enable it"
                )
            os._exit(13)
        raise InjectedFault(
            f"injected worker death for sweep cell ({variant!r}, seed {seed})"
        )


@dataclass(frozen=True)
class HangFault:
    """Stall a sweep cell for *seconds*, once per marker directory.

    Emulates a hung worker (deadlocked BLAS, stuck I/O) for the sweep's
    ``worker_timeout_s`` detection: the first attempt on a matching cell
    sleeps well past the timeout window, later attempts pass.  Picklable,
    with the same atomic marker-file once-semantics and stale-marker
    cleanup as :class:`WorkerDeathFault`.
    """

    seeds: FrozenSet[int]
    marker_dir: str
    seconds: float = 5.0
    variant: Optional[str] = None
    run_id: str = ""

    @classmethod
    def for_seeds(
        cls,
        seeds: Iterable[int],
        marker_dir: Union[str, Path],
        seconds: float = 5.0,
        variant: Optional[str] = None,
        run_id: Optional[str] = None,
    ) -> "HangFault":
        return cls(
            seeds=frozenset(int(s) for s in seeds),
            marker_dir=str(marker_dir),
            seconds=float(seconds),
            variant=variant,
            run_id=_next_run_id() if run_id is None else str(run_id),
        )

    def maybe_trigger(self, variant: str, seed: int) -> None:
        if seed not in self.seeds:
            return
        if self.variant is not None and variant != self.variant:
            return
        marker = Path(self.marker_dir) / f"hang-{variant}-{seed}.marker"
        if not _claim_marker(marker, self.run_id):
            return
        time.sleep(self.seconds)


# ----------------------------------------------------------------------
# engine-side: step exceptions and state contamination
# ----------------------------------------------------------------------

#: Per-wrapper parameter blocks read by :class:`FaultyEngine` at
#: construction, keyed by registered engine name (the registry's
#: ``module:Class`` factories take only the network, so the schedule
#: travels out of band).  Several wrappers may be installed at once —
#: :func:`install_faulty_chain` registers one per tier.
_FAULTY_PARAMS: Dict[str, Dict[str, Any]] = {}


class FaultyEngine:
    """A registered engine delegating to a real one, with scheduled faults.

    Modes (chosen at :func:`install_faulty_engine` time):

    - ``"raise"`` — the scheduled presentation raises :class:`InjectedFault`
      *before* touching network state (the boundary snapshot stays valid,
      which is what makes degradation + replay exact);
    - ``"nan"`` — the scheduled presentation completes, then a NaN is
      written into the adaptive-threshold array (persistent state, so it
      survives the boundary rest; the sentinel must catch it);
    - ``"g_range"`` — like ``"nan"`` but pushes one conductance far above
      the quantiser's ``g_max`` (the out-of-range invariant).

    ``fail_times`` bounds how many scheduled presentations fault (so a
    degrade-and-replay loop terminates); scheduling counts *this
    instance's* ``run`` calls, so a rebuilt engine starts fresh.

    Each registered wrapper name has its own schedule in
    :data:`_FAULTY_PARAMS` — :func:`install_faulty_engine` installs one,
    :func:`install_faulty_chain` installs a whole ladder of them (the
    ``name`` class attribute on the dynamic subclass selects the block).
    """

    name = "faulty"

    def __init__(self, network: object) -> None:
        params = _FAULTY_PARAMS.get(self.name)
        if params is None:
            raise ConfigurationError(
                f"FaultyEngine {self.name!r} constructed without "
                f"install_faulty_engine(); the fault schedule is undefined"
            )
        from repro.engine.registry import create_engine

        self.network = network
        self.inner_name: str = params["inner"]
        self.fail_at: int = params["fail_at"]
        self.fail_times: int = params["fail_times"]
        self.mode: str = params["mode"]
        self._inner = create_engine(self.inner_name, network)
        self._runs = 0
        self._faults_fired = 0
        #: Consumed by repro.resilience.degrade.next_tier.  An installed
        #: override wins (chain wrappers point at the next wrapper);
        #: otherwise fall back to the real chain below the wrapped engine.
        declared = params.get("degrade_to")
        self.degrade_to = (
            str(declared)
            if declared is not None
            else DEGRADATION_CHAIN.get(self.inner_name)
        )
        self.sentinel = None

    @property
    def spec(self) -> EngineSpec:
        return get_engine_spec(self.name)

    def attach_sentinel(self, sentinel: object) -> "FaultyEngine":
        self.sentinel = sentinel
        if hasattr(self._inner, "attach_sentinel"):
            self._inner.attach_sentinel(sentinel)
        return self

    def run(
        self,
        image: np.ndarray,
        t_ms: float,
        n_steps: int,
        dt_ms: float,
        out_counts: Optional[np.ndarray] = None,
    ) -> Tuple[int, float]:
        self._runs += 1
        scheduled = (
            self._runs == self.fail_at and self._faults_fired < self.fail_times
        )
        if scheduled and self.mode == "raise":
            self._faults_fired += 1
            raise InjectedFault(
                f"injected engine fault in {self.inner_name!r} at "
                f"presentation call {self._runs}"
            )
        result = self._inner.run(image, t_ms, n_steps, dt_ms, out_counts=out_counts)
        if scheduled and self.mode == "nan":
            self._faults_fired += 1
            self.network.neurons.theta[0] = np.nan
        elif scheduled and self.mode == "g_range":
            self._faults_fired += 1
            self.network.conductances[0, 0] = self.network.synapses.g_max + 1e3
        return result

    def collect_responses(
        self,
        images: np.ndarray,
        t_present_ms: float,
        progress: Optional[object] = None,
        label: str = "responses",
    ) -> np.ndarray:
        return self._inner.collect_responses(
            images, t_present_ms, progress=progress, label=label
        )


def _faulty_class_attr(name: str) -> str:
    """The module attribute holding the dynamic subclass for *name*."""
    return "_FaultyEngine_" + re.sub(r"\W", "_", name)


def _faulty_factory(name: str) -> str:
    """A ``module:Class`` factory string for the wrapper named *name*.

    The registry only accepts string factories, and the base class carries
    ``name = "faulty"`` — so every other registered name gets a dynamic
    :class:`FaultyEngine` subclass pinned to this module, whose sole
    override is the ``name`` class attribute selecting its parameter
    block in :data:`_FAULTY_PARAMS`.
    """
    if name == "faulty":
        return "repro.resilience.faults:FaultyEngine"
    attr = _faulty_class_attr(name)
    cls = type(attr.lstrip("_"), (FaultyEngine,), {"name": name})
    globals()[attr] = cls
    return f"repro.resilience.faults:{attr}"


def install_faulty_engine(
    inner: str = "fused",
    fail_at: int = 1,
    fail_times: int = 1,
    mode: str = "raise",
    name: str = "faulty",
    degrade_to: Optional[str] = None,
) -> EngineSpec:
    """Register a :class:`FaultyEngine` wrapping *inner* under *name*.

    Returns the spec; call :func:`uninstall_faulty_engine` (or
    ``unregister_engine(name)``) to clean up.  Each registered *name* has
    its own independent fault schedule, so several wrappers can coexist
    (:func:`install_faulty_chain` builds on that).  *degrade_to* overrides
    the wrapper's fallback tier; by default it degrades into the real
    chain entry below *inner*.
    """
    if mode not in ("raise", "nan", "g_range"):
        raise ConfigurationError(
            f"faulty-engine mode must be 'raise', 'nan' or 'g_range', got {mode!r}"
        )
    if fail_at < 1 or fail_times < 0:
        raise ConfigurationError(
            f"fail_at must be >= 1 and fail_times >= 0, "
            f"got fail_at={fail_at}, fail_times={fail_times}"
        )
    inner_spec = get_engine_spec(inner)
    _FAULTY_PARAMS[name] = {
        "inner": inner,
        "fail_at": fail_at,
        "fail_times": fail_times,
        "mode": mode,
        "degrade_to": degrade_to,
    }
    spec = EngineSpec(
        name=name,
        factory=_faulty_factory(name),
        supports_learning=inner_spec.supports_learning,
        supports_batch=inner_spec.supports_batch,
        equivalence=inner_spec.equivalence,
        backends=inner_spec.backends,
        summary=f"fault-injection wrapper around {inner!r} ({mode} at {fail_at})",
    )
    return register_engine(spec, replace=True)


def uninstall_faulty_engine(name: str = "faulty") -> None:
    """Remove the fault wrapper registered as *name*, and its schedule."""
    _FAULTY_PARAMS.pop(name, None)
    globals().pop(_faulty_class_attr(name), None)
    try:
        unregister_engine(name)
    except ConfigurationError:
        pass


def install_faulty_chain(
    engines: Sequence[str],
    fail_at: int = 1,
    mode: str = "raise",
    prefix: str = "faulty-",
) -> List[str]:
    """Register one fault wrapper per tier so a run walks the whole chain.

    ``install_faulty_chain(["qfused", "fused"], fail_at=3)``
    registers ``faulty-qfused`` → ``faulty-fused``,
    where each wrapper degrades into the *next wrapper* and the last one
    into the real tier below its engine (``reference`` here).  The entry
    wrapper faults at presentation *fail_at*; every inner wrapper faults
    on its first ``run`` call — which is exactly the re-presentation of
    the same image after the boundary rollback — so one presentation
    cascades through every tier in a single degrading run, emitting one
    :class:`~repro.resilience.degrade.EngineDegradedWarning` per hop.

    Returns the registered wrapper names (train with the first); clean up
    with :func:`uninstall_faulty_chain`.
    """
    if not engines:
        raise ConfigurationError("install_faulty_chain needs at least one engine")
    names = [prefix + engine for engine in engines]
    for index, engine in enumerate(engines):
        if index + 1 < len(engines):
            fallback: Optional[str] = names[index + 1]
        else:
            fallback = DEGRADATION_CHAIN.get(engine)
        install_faulty_engine(
            inner=engine,
            fail_at=fail_at if index == 0 else 1,
            fail_times=1,
            mode=mode,
            name=names[index],
            degrade_to=fallback,
        )
    return names


def uninstall_faulty_chain(
    engines: Sequence[str], prefix: str = "faulty-"
) -> None:
    """Remove every wrapper registered by :func:`install_faulty_chain`."""
    for engine in engines:
        uninstall_faulty_engine(prefix + engine)


# ----------------------------------------------------------------------
# file-side: checkpoint / cache damage
# ----------------------------------------------------------------------


def truncate_file(path: Union[str, Path], keep_fraction: float = 0.5) -> int:
    """Truncate *path* to *keep_fraction* of its size; returns bytes kept.

    Emulates a crash mid-write for loaders that must reject torn files
    (the atomic checkpoint protocol makes this unreachable for checkpoints
    written by this library — the test proves the *loader* survives files
    damaged by other means).
    """
    if not 0.0 <= keep_fraction < 1.0:
        raise ConfigurationError(
            f"keep_fraction must be in [0, 1), got {keep_fraction}"
        )
    path = Path(path)
    size = path.stat().st_size
    keep = int(size * keep_fraction)
    with open(path, "r+b") as handle:
        handle.truncate(keep)
    return keep


def corrupt_file(
    path: Union[str, Path], n_bytes: int = 16, seed: int = 0
) -> None:
    """Flip *n_bytes* deterministically chosen bytes of *path* in place."""
    path = Path(path)
    data = bytearray(path.read_bytes())
    if not data:
        raise ConfigurationError(f"cannot corrupt empty file {path}")
    rng = np.random.default_rng(seed)
    positions = rng.integers(0, len(data), size=min(n_bytes, len(data)))
    for pos in positions:
        data[int(pos)] ^= 0xFF
    path.write_bytes(bytes(data))
