"""In-memory spans and the wrappers that record them around layer calls.

A :class:`Tracer` keeps every span in a list (name, start, end, parent) and
writes nothing until the benchmark ends.  :class:`Instrumentation` records
spans around the calls into each layer's public functions by wrapping those
functions for the duration of a ``with`` block and restoring the originals
on exit, so the untraced rounds run the program unmodified.  Nothing under
``src/`` is edited and no kernel ``profiler=`` argument is used.

Layers and the calls wrapped for them:

- ``encoding`` — ``generate_train`` of every encoder class;
- ``engine`` — ``run`` of every registered presentation engine class;
- ``plasticity`` — the column-restricted STDP functions of
  :mod:`repro.engine.plasticity`, wherever a module holds a reference;
- ``quantization`` — every public method of ``QCodec``;
- ``homeostasis`` — ``WeightNormalizer.after_image``;
- ``resilience`` — ``AutosavePolicy.maybe_save``;
- ``network`` — ``Evaluator.label_neurons``, the inference-set
  ``Evaluator.collect_responses`` and ``classify_batch``.

The benchmark opens the ``pipeline``, ``datasets`` and ``io`` spans itself,
around the calls it makes.  A span's self time is its duration minus the
time its child spans cover, so the self times of one round add up to the
round's time.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
import sys
import time
from collections import Counter
from contextlib import contextmanager
from types import FunctionType
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

#: The benchmark's one clock: CPU seconds of this process.  The process is
#: single-threaded (BLAS is pinned to one thread), so this is the time the
#: program ran; wall time on a shared virtual machine also counts the time
#: the hypervisor gave the CPU to others (steal), which reached 15% of a
#: round on a 2-vCPU virtual machine.
clock = time.process_time

#: STDP entry points of :mod:`repro.engine.plasticity` recorded as
#: ``plasticity.stdp`` spans, with the parameter holding the conductance
#: (or code) storage the update writes.
PLASTICITY_FUNCTIONS = {
    "stochastic_rule_columns": "synapses",
    "deterministic_rule_columns": "synapses",
    "quantized_stochastic_columns": "codes",
    "quantized_deterministic_columns": "codes",
}


class Tracer:
    """Spans and counters of one traced phase, kept in memory."""

    def __init__(self) -> None:
        #: ``[name, start, end, parent_index]`` per span, in opening order.
        self.spans: List[list] = []
        self.counters: Counter = Counter()
        self._open: List[int] = []

    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, clock(), 0.0, parent])
        index = len(self.spans) - 1
        self._open.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = clock()
        self._open.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = self.begin(name)
        try:
            yield
        finally:
            self.end(index)

    def self_times(self) -> Dict[str, float]:
        """Seconds of self time per span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: Dict[str, float] = {}
        for (name, start, end, _), covered in zip(self.spans, child):
            totals[name] = totals.get(name, 0.0) + (end - start) - covered
        return totals

    def as_records(self) -> Dict[str, Any]:
        """Compact JSON form: span names interned, times relative to the first span."""
        names = sorted({s[0] for s in self.spans})
        index = {name: i for i, name in enumerate(names)}
        t0 = self.spans[0][1] if self.spans else 0.0
        return {
            "names": names,
            "columns": ["name", "start_s", "end_s", "parent"],
            "spans": [
                [index[name], round(start - t0, 7), round(end - t0, 7), parent]
                for name, start, end, parent in self.spans
            ],
            "counters": dict(self.counters),
        }


def _param_index(func: Callable, name: str) -> int:
    return list(inspect.signature(func).parameters).index(name)


def _argument(args: tuple, kwargs: dict, index: int, name: str) -> Any:
    return args[index] if len(args) > index else kwargs[name]


class Instrumentation:
    """Wraps the layer entry points while the ``with`` block runs."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._saved: List[Tuple[Any, str, Any]] = []

    def __enter__(self) -> "Instrumentation":
        _import_all("repro.engine")
        try:
            self._install()
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self._restore()

    # ------------------------------------------------------------------

    def _patch(self, owner: Any, attr: str, wrapper: Callable) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def _patch_everywhere(self, original: Callable, wrapper: Callable) -> None:
        """Replace *original* in every loaded ``repro`` module that holds it."""
        for module in list(sys.modules.values()):
            name = getattr(module, "__name__", "")
            if not name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, attr, wrapper)

    def _restore(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    def _install(self) -> None:
        from repro.encoding.periodic import PeriodicEncoder
        from repro.encoding.poisson import PoissonEncoder
        from repro.engine import plasticity
        from repro.engine.registry import available_engines, get_engine_spec
        from repro.learning.homeostasis import WeightNormalizer
        from repro.network import inference
        from repro.pipeline.evaluator import Evaluator
        from repro.quantization.codec import QCodec
        from repro.resilience.autosave import AutosavePolicy

        tracer = self.tracer

        for encoder in (PoissonEncoder, PeriodicEncoder):
            self._patch(encoder, "generate_train", _encoding_wrapper(
                tracer, encoder.generate_train))

        engine_classes = set()
        for name in available_engines():
            module_name, _, attr = get_engine_spec(name).factory.partition(":")
            engine_classes.add(getattr(importlib.import_module(module_name), attr))
        for cls in engine_classes:
            if "run" in cls.__dict__:
                self._patch(cls, "run", _engine_wrapper(tracer, cls.__dict__["run"]))

        for fname, storage in PLASTICITY_FUNCTIONS.items():
            original = getattr(plasticity, fname, None)
            if original is not None:
                self._patch_everywhere(original, _plasticity_wrapper(
                    tracer, original, storage))

        for attr, method in list(vars(QCodec).items()):
            if isinstance(method, FunctionType) and not attr.startswith("_"):
                self._patch(QCodec, attr, _counted_wrapper(
                    tracer, method, "quantization.codec", "quantization.codec_calls"))

        self._patch(WeightNormalizer, "after_image", _counted_wrapper(
            tracer, WeightNormalizer.after_image, "homeostasis.normalize",
            "homeostasis.normalizations", count_true=True))
        self._patch(AutosavePolicy, "maybe_save", _counted_wrapper(
            tracer, AutosavePolicy.maybe_save, "resilience.autosave",
            "resilience.saves", count_true=True))

        self._patch(Evaluator, "label_neurons", _counted_wrapper(
            tracer, Evaluator.label_neurons, "network.label", None))
        self._patch(Evaluator, "collect_responses", _collect_wrapper(
            tracer, Evaluator.collect_responses))
        self._patch_everywhere(inference.classify_batch, _counted_wrapper(
            tracer, inference.classify_batch, "network.classify", None))


def _import_all(package_name: str) -> None:
    """Import every submodule of *package_name*, so all references exist."""
    package = importlib.import_module(package_name)
    for info in pkgutil.iter_modules(package.__path__, package_name + "."):
        importlib.import_module(info.name)


def _counted_wrapper(
    tracer: Tracer,
    func: Callable,
    span: str,
    counter: Optional[str],
    count_true: bool = False,
) -> Callable:
    """A span around *func*; *counter* counts calls, or truthy results."""
    begin, end, counters = tracer.begin, tracer.end, tracer.counters

    def wrapper(*args: Any, **kwargs: Any) -> Any:
        index = begin(span)
        try:
            result = func(*args, **kwargs)
        finally:
            end(index)
        if counter is not None and (result if count_true else True):
            counters[counter] += 1
        return result

    return wrapper


def _encoding_wrapper(tracer: Tracer, func: Callable) -> Callable:
    begin, end, counters = tracer.begin, tracer.end, tracer.counters

    def generate_train(*args: Any, **kwargs: Any) -> Any:
        index = begin("encoding.generate_train")
        try:
            raster = func(*args, **kwargs)
        finally:
            end(index)
        host = np.asarray(raster)
        counters["encoding.calls"] += 1
        counters["encoding.raster_cells"] += int(host.size)
        counters["encoding.raster_active_cells"] += int(np.count_nonzero(host))
        return raster

    return generate_train


def _engine_wrapper(tracer: Tracer, func: Callable) -> Callable:
    begin, end, counters = tracer.begin, tracer.end, tracer.counters
    steps_at = _param_index(func, "n_steps")

    def run(self: Any, *args: Any, **kwargs: Any) -> Any:
        stats = getattr(self, "stats", None)
        skipped = stats.steps_skipped if stats is not None else 0
        index = begin("engine.present")
        try:
            result = func(self, *args, **kwargs)
        finally:
            end(index)
        counters["engine.steps"] += int(_argument(args, kwargs, steps_at - 1, "n_steps"))
        counters["engine.output_spikes"] += int(result[0])
        if stats is not None:
            counters["engine.steps_skipped"] += stats.steps_skipped - skipped
        return result

    return run


def _plasticity_wrapper(tracer: Tracer, func: Callable, storage: str) -> Callable:
    begin, end, counters = tracer.begin, tracer.end, tracer.counters
    post_at = _param_index(func, "post")
    storage_at = _param_index(func, storage)

    def stdp(*args: Any, **kwargs: Any) -> Any:
        index = begin("plasticity.stdp")
        try:
            result = func(*args, **kwargs)
        finally:
            end(index)
        columns = int(np.count_nonzero(_argument(args, kwargs, post_at, "post")))
        matrix = _argument(args, kwargs, storage_at, storage)
        matrix = getattr(matrix, "g", matrix)  # ConductanceMatrix -> its array
        counters["plasticity.columns_updated"] += columns
        counters["plasticity.bytes_computed"] += (
            columns * int(matrix.shape[0]) * int(matrix.dtype.itemsize)
        )
        return result

    return stdp


def _collect_wrapper(tracer: Tracer, func: Callable) -> Callable:
    """Spans the inference-set response collection; labeling stays in ``network.label``."""
    begin, end = tracer.begin, tracer.end
    label_at = _param_index(func, "label")

    def collect_responses(*args: Any, **kwargs: Any) -> Any:
        label = args[label_at] if len(args) > label_at else kwargs.get("label", "responses")
        if label == "labeling":
            return func(*args, **kwargs)
        index = begin("network.infer_collect")
        try:
            return func(*args, **kwargs)
        finally:
            end(index)

    return collect_responses
