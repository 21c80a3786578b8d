"""The JSON record format of the typed per-seed artifacts.

A record is a dataclass that inherits `JSONRecord`. `to_dict` writes every
field not marked `field(metadata={"record": False})`: arrays as nested lists,
scalars annotated int, float or bool cast to that type (so a config's
integer 1 for a float field is written as 1.0), anything else as it is.
`from_dict` requires every key `to_dict` writes, rebuilds arrays with
`np.array` and builds the record through its constructor, so the record's
own checks run again on load. The record modules use postponed annotations,
so field types are read as strings.
"""

from __future__ import annotations

from dataclasses import fields

import numpy as np

_CASTS = {"int": int, "float": float, "bool": bool}


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
            if f.type == "np.ndarray":
                value = np.array(value)
            elif f.type in _CASTS:
                value = _CASTS[f.type](value)
            kwargs[f.name] = value
        return cls(**kwargs)
