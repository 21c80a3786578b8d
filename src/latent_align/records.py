"""The one field-type rule, `check_types`, which the config, the feature
schema, the records, the baseline spec and every problem call (the config and
the problem then call `optimizer.check_knobs` for the solve knobs' ranges),
its rule for one value, `_has_type`, which the scalar thresholds of
`evaluation.effort_and_levers` and `optimizer.prox_weighted_l21` apply too,
and the JSON format of the typed per-seed records. A record is a frozen
dataclass that inherits `JSONRecord`. `to_dict` writes every field not marked
`field(metadata={"record": False})`: arrays as nested lists, int, float and
bool fields as that Python type, the rest as is. `from_dict` requires every
key `to_dict` writes, rebuilds arrays with `np.array`, casts nothing, and
builds the record through its constructor, so its checks run again on load.
Field types are read as strings.
"""

from __future__ import annotations

import math
from dataclasses import fields
from numbers import Integral, Real

import numpy as np

# field annotation -> accepted value types
_VALUE_TYPES = {"int": Integral, "float": Real, "bool": bool, "str": str}
_CASTS = {"int": int, "float": float, "bool": bool}


def _has_type(value, kind: str) -> bool:
    if kind == "tuple[int, ...]":
        return isinstance(value, tuple) and all(_has_type(v, "int") for v in value)
    if isinstance(value, bool) != (kind == "bool"):
        return False
    return isinstance(value, _VALUE_TYPES[kind]) and (isinstance(value, Integral | str) or math.isfinite(value))


def check_types(obj, error: type[Exception], prefix: str = "", names: dict | None = None) -> None:
    """Raise error at the first field of dataclass obj whose value breaks the
    rule: an integer is a valid float, a float is finite, only a bool is a
    bool, `| None` allows None and `tuple[int, ...]` checks each item. Other
    annotations are left to the class, and so are fields that are not init
    fields. names renames fields in the message."""
    for f in fields(obj):
        kind, _, optional = f.type.partition(" | ")
        if not f.init or kind not in _VALUE_TYPES and kind != "tuple[int, ...]":
            continue
        value = getattr(obj, f.name)
        if not (value is None and optional == "None" or _has_type(value, kind)):
            raise error(f"{prefix}{(names or {}).get(f.name, f.name)} must be {f.type}, got {value!r}")


class JSONRecord:
    @classmethod
    def _record_fields(cls):
        return [f for f in fields(cls) if f.metadata.get("record", True)]

    def to_dict(self) -> dict:
        out = {}
        for f in self._record_fields():
            value = getattr(self, f.name)
            if isinstance(value, np.ndarray):
                value = value.tolist()
            elif f.type in _CASTS:
                value = _CASTS[f.type](value)
            out[f.name] = value
        return out

    @classmethod
    def from_dict(cls, d: dict):
        kwargs = {}
        for f in cls._record_fields():
            value = d[f.name]
            kwargs[f.name] = np.array(value) if f.type == "np.ndarray" else value
        return cls(**kwargs)
