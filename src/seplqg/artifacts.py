"""JSON artifact files of the pipeline stages.

`save` and `load` are the one save/load of the stage artifacts: the
nominal (`trajopt.NominalTrajectory`), the ROM (`sysid.LtvRom`) and the
controller (`lqg.LqgController`), each of which binds them as its own
`to_json` and `from_json`.  `save` writes every field of the dataclass
except those declared `memory_only`, a nested dataclass (the
controller's ROM) as an object of its stored fields.  `load` rebuilds
each stored field from its declared type: `np.ndarray` as a float
array, `tuple` as a tuple, a dataclass from its object; a memory-only
field gets its default.

`write_json` encodes and `read_json` decodes with orjson, which parses
the megabytes of `rom.json` and `controller.json` about 5x faster than
the stdlib `json`, at a few MB more peak memory.  `write_json` encodes a
whole file in one call, so it holds a file's text at once: on the
heat-optimize benchmark at seed 7 (n_x = 100) a lone `identify`
process, which writes the 3.2 MB `rom.json`, peaks at 58.8 MB, 3 MB
above a slice-by-slice writer, and below the 61.2 MB peak of
`seplqg pipeline`, which evaluate's decode of `controller.json` sets.
The user's experiment config is the one JSON file read with the stdlib
(`config.ExperimentConfig.load`): it is a few KB, and it is read in the
set-up of every `seplqg` process, which would otherwise pay orjson's
import.  A written file reads back to the values `json.dump` would have
written for the payload with its arrays as nested lists: every float
bit-equal, including the sign of zero, and ints and floats kept apart.
The text differs from `json.dump`'s: no spaces after separators, and
floats in their shortest round-trip form (`2.5e17`, not `2.5e+17`)."""

import dataclasses
import math
import typing

import numpy as np

__all__ = ["load", "memory_only", "read_json", "save", "stored_fields", "write_json"]


def memory_only(default_factory):
    """A dataclass field that `save` does not write and `load` leaves at
    `default_factory()`."""
    return dataclasses.field(default_factory=default_factory, repr=False, compare=False,
                             metadata={"memory_only": True})


def _stored(cls):
    return [f for f in dataclasses.fields(cls) if not f.metadata.get("memory_only")]


def stored_fields(obj):
    """{name: value} of the stored fields of dataclass `obj`, in field
    order, with a nested dataclass as the dict of its stored fields."""
    fields = {f.name: getattr(obj, f.name) for f in _stored(obj)}
    return {name: stored_fields(value) if dataclasses.is_dataclass(value) else value
            for name, value in fields.items()}


def save(obj, path):
    """Write the stored fields of dataclass `obj` to the JSON file `path`."""
    write_json(path, stored_fields(obj))


def _build(cls, payload):
    types = typing.get_type_hints(cls)
    kwargs = {}
    for f in _stored(cls):
        value, kind = payload[f.name], types[f.name]
        if kind is np.ndarray:
            value = np.asarray(value, dtype=float)
        elif kind is tuple:
            value = tuple(value)
        elif dataclasses.is_dataclass(kind):
            value = _build(kind, value)
        kwargs[f.name] = value
    return cls(**kwargs)


def load(cls, path):
    """The dataclass `cls` rebuilt from the JSON file `path` that `save`
    wrote."""
    return _build(cls, read_json(path))


def read_json(path):
    """The value of the JSON file at `path`.

    Raises ValueError (orjson.JSONDecodeError, a json.JSONDecodeError)
    on text that is not strict JSON, such as the NaN, Infinity and 1e999
    literals of non-finite floats, which `write_json` refuses to write."""
    import orjson  # here, so that importing seplqg does not pay for it

    with open(path, "rb") as fh:
        return orjson.loads(fh.read())


def _encodable(value, name):
    """`value` with every numpy array made C-contiguous, which is what
    orjson takes; raises ValueError naming the field if a float in it is
    NaN or infinite."""
    if isinstance(value, dict):
        return {key: _encodable(item, f"{name}.{key}" if name else key) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_encodable(item, name) for item in value]
    if isinstance(value, np.ndarray):
        if value.dtype.kind == "f" and not np.isfinite(value).all():
            raise ValueError(f"{name} holds a NaN or infinite value, which JSON cannot store")
        return np.ascontiguousarray(value)
    if isinstance(value, (float, np.floating)) and not math.isfinite(value):
        raise ValueError(f"{name} is {value}, which JSON cannot store")
    return value


def write_json(path, fields):
    """Write the str-keyed dict `fields`, whose values may be numpy arrays
    and nested dicts, as JSON with the arrays as nested lists.

    Raises ValueError naming the field, before the file is opened, if a
    float anywhere in `fields` is NaN or infinite: JSON has no such
    numbers, and orjson would write them as null.

    The payload is encoded by one `orjson.dumps` call, after one walk
    that checks the floats and makes each array C-contiguous, the only
    layout orjson takes; the text is held whole before it is written
    (see the module docstring for the peak it sets).  Float arrays must
    be float64: orjson writes float32 in its own shortest form, which
    reads back as a different double."""
    import orjson  # here, so that importing seplqg does not pay for it

    text = orjson.dumps(_encodable(fields, ""), option=orjson.OPT_SERIALIZE_NUMPY)
    with open(path, "wb") as fh:
        fh.write(text)
