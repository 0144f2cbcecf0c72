"""JSON artifact files of the pipeline stages."""

import json

import numpy as np

__all__ = ["write_json"]


def _write_value(fh, value):
    if isinstance(value, dict):
        fh.write("{")
        for i, (key, item) in enumerate(value.items()):
            fh.write(f"{', ' if i else ''}{json.dumps(key)}: ")
            _write_value(fh, item)
        fh.write("}")
    elif isinstance(value, np.ndarray) and value.ndim > 1:
        fh.write("[")
        for i, row in enumerate(value):
            if i:
                fh.write(", ")
            _write_value(fh, row)
        fh.write("]")
    else:
        fh.write(json.dumps(value.tolist() if isinstance(value, np.ndarray) else value))


def write_json(path, fields):
    """Write the str-keyed dict `fields`, whose values may be numpy arrays
    and nested dicts, as the text `json.dump` writes for it with the
    arrays as nested lists.

    Arrays are converted and encoded one innermost row at a time by
    `json.dumps`, which takes the C encoder where `json.dump` takes the
    pure-Python one, so the whole payload is never held as lists or as
    text."""
    with open(path, "w") as fh:
        _write_value(fh, fields)
