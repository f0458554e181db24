"""Round-trip configuration objects to plain dictionaries and JSON files.

``config_to_dict`` turns any of the :mod:`repro.config.parameters`
dataclasses (including the aggregate :class:`ExperimentConfig`) into a plain
nested dictionary of JSON-compatible values; ``config_from_dict`` inverts it.
Enum members serialise as their ``value`` string.  Each serialised dictionary
carries a ``"__type__"`` key naming the dataclass so that ``from_dict`` can
reconstruct nested structures without guessing.
"""

from __future__ import annotations

import dataclasses
import enum
import json
from pathlib import Path
from typing import Any, Dict, Type, Union

from repro.config import parameters as _p
from repro.errors import ConfigurationError

#: Dataclasses eligible for (de)serialisation, by class name.
_REGISTRY: Dict[str, type] = {
    cls.__name__: cls
    for cls in (
        _p.LIFParameters,
        _p.AdaptiveThresholdParameters,
        _p.DeterministicSTDPParameters,
        _p.StochasticSTDPParameters,
        _p.QuantizationConfig,
        _p.EncodingParameters,
        _p.WTAParameters,
        _p.SimulationParameters,
        _p.EngineConfig,
        _p.ExperimentConfig,
    )
}

#: Enum types appearing as dataclass fields, by class name.
_ENUMS: Dict[str, Type[enum.Enum]] = {
    "STDPKind": _p.STDPKind,
    "RoundingMode": _p.RoundingMode,
    "LTDMode": _p.LTDMode,
}


def config_to_dict(config: Any) -> Dict[str, Any]:
    """Serialise a config dataclass into a plain nested dictionary."""
    if type(config).__name__ not in _REGISTRY:
        raise ConfigurationError(f"cannot serialise object of type {type(config).__name__}")
    out: Dict[str, Any] = {"__type__": type(config).__name__}
    for f in dataclasses.fields(config):
        value = getattr(config, f.name)
        if dataclasses.is_dataclass(value):
            out[f.name] = config_to_dict(value)
        elif isinstance(value, enum.Enum):
            out[f.name] = {"__enum__": type(value).__name__, "value": value.value}
        else:
            out[f.name] = value
    return out


def config_from_dict(data: Dict[str, Any]) -> Any:
    """Reconstruct a config dataclass serialised by :func:`config_to_dict`."""
    if not isinstance(data, dict) or "__type__" not in data:
        raise ConfigurationError("serialised config must be a dict with a '__type__' key")
    type_name = data["__type__"]
    cls = _REGISTRY.get(type_name)
    if cls is None:
        raise ConfigurationError(f"unknown config type {type_name!r}")
    kwargs: Dict[str, Any] = {}
    for key, value in data.items():
        if key == "__type__":
            continue
        if isinstance(value, dict) and "__type__" in value:
            kwargs[key] = config_from_dict(value)
        elif isinstance(value, dict) and "__enum__" in value:
            enum_cls = _ENUMS.get(value["__enum__"])
            if enum_cls is None:
                raise ConfigurationError(f"unknown enum type {value['__enum__']!r}")
            kwargs[key] = enum_cls(value["value"])
        else:
            kwargs[key] = value
    return cls(**kwargs)


def save_json(config: Any, path: Union[str, Path]) -> None:
    """Write a config dataclass to *path* as indented JSON."""
    payload = config_to_dict(config)
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True))


def load_json(path: Union[str, Path]) -> Any:
    """Load a config dataclass previously written by :func:`save_json`."""
    text = Path(path).read_text()
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"invalid JSON in {path}: {exc}") from exc
    return config_from_dict(payload)
