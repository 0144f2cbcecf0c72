import json
import struct
from dataclasses import dataclass

import numpy as np
import pytest

from seplqg.artifacts import load, memory_only, read_json, save, write_json
from seplqg.lqg import LqgController
from seplqg.sysid import LtvRom
from seplqg.trajopt import NominalTrajectory


def as_lists(value):
    if isinstance(value, dict):
        return {k: as_lists(v) for k, v in value.items()}
    return value.tolist() if isinstance(value, np.ndarray) else value


def assert_same_values(got, want, where="payload"):
    """Equal values of equal types, floats bit for bit (sign of zero too)."""
    assert type(got) is type(want), f"{where}: {type(got).__name__} != {type(want).__name__}"
    if isinstance(want, dict):
        assert list(got) == list(want), where
        for key in want:
            assert_same_values(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            assert_same_values(g, w, f"{where}[{i}]")
    elif isinstance(want, float):
        assert struct.pack("<d", got) == struct.pack("<d", want), f"{where}: {got!r} != {want!r}"
    else:
        assert got == want, where


def mixed_fields():
    rng = np.random.default_rng(3)
    return {
        "matrix": rng.standard_normal((4, 3, 2)) * 10.0 ** rng.integers(-300, 300, (4, 3, 2)),
        "vector": np.array([0.1, -0.0, 1e-320, 2.5e17]),
        "empty": np.zeros((0, 3)),
        "count": 7,
        "cost": 1.0 / 3.0,
        "flag": False,
        "pair": [1, 2],
        "text": "café \"quoted\"",
        "nested": {"inner": np.eye(2), "none": None, "deeper": {"x": np.arange(3.0)}},
        "empty_dict": {},
    }


def test_write_json_reads_back_the_same_values(tmp_path):
    fields = mixed_fields()
    written = tmp_path / "written.json"
    write_json(written, fields)
    assert_same_values(read_json(written), as_lists(fields))
    write_json(written, {})
    assert written.read_text() == "{}"


def test_the_stdlib_reader_sees_the_values_read_json_sees(tmp_path):
    # perfbench/checks.py reads the artifacts with the stdlib json
    path = tmp_path / "written.json"
    write_json(path, mixed_fields())
    assert_same_values(json.loads(path.read_text()), read_json(path))


def test_write_json_takes_arrays_that_are_not_c_contiguous(tmp_path):
    grid = np.arange(24.0).reshape(2, 3, 4) / 7.0
    fields = {
        "transposed": grid[0].T,
        "strided": grid[:, ::2, 1::2],
        "axes_moved": grid.transpose(2, 0, 1),
        "vector": grid[1, 2, ::3],
    }
    assert not any(a.flags.c_contiguous for a in fields.values())
    write_json(tmp_path / "out.json", fields)
    assert_same_values(read_json(tmp_path / "out.json"), as_lists(fields))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", ["array", "scalar", "list"])
def test_write_json_rejects_non_finite_floats_before_writing(tmp_path, bad, where):
    arr = np.ones((3, 2))
    inner = {"ok": 1.0, "bad": 2.0, "items": [0.5, 1.5]}
    if where == "array":
        arr[2, 1] = bad
        name = "A"
    elif where == "scalar":
        inner["bad"] = bad
        name = "rom.bad"
    else:
        inner["items"][1] = bad
        name = "rom.items"
    path = tmp_path / "out.json"
    with pytest.raises(ValueError, match=rf"^{name} "):
        write_json(path, {"A": arr, "rom": inner})
    assert not path.exists()


@pytest.mark.parametrize("text", ['{"x": NaN}', '{"x": [1.0, Infinity]}', '{"x": -Infinity}',
                                  '{"x": 1e999}', '{"x": [1.0, 2.'])
def test_read_json_rejects_non_finite_floats_and_truncated_text(tmp_path, text):
    # The stdlib json reads all but the truncated text, as NaN or an
    # infinity; an artifact holds only what write_json writes: strict JSON.
    path = tmp_path / "bad.json"
    path.write_text(text)
    with pytest.raises(ValueError):
        read_json(path)


@dataclass
class Inner:
    matrix: np.ndarray
    span: tuple
    notes: dict = memory_only(dict)


@dataclass
class Outer:
    inner: Inner
    vector: np.ndarray
    count: int
    flag: bool
    history: list = memory_only(list)


def test_save_and_load_round_trip_nested_dataclasses(tmp_path):
    matrix = np.arange(6.0).reshape(2, 3) / 7.0
    obj = Outer(Inner(matrix, (1, 4), {"k": np.ones(2)}), np.arange(3), 5, True, [1.0, 0.5])
    path = tmp_path / "outer.json"
    save(obj, path)
    assert_same_values(read_json(path), {"inner": {"matrix": matrix.tolist(), "span": [1, 4]},
                                         "vector": [0, 1, 2], "count": 5, "flag": True})
    back = load(Outer, path)
    assert type(back.inner) is Inner and back.inner.span == (1, 4)
    assert back.inner.matrix.tobytes() == matrix.tobytes()
    assert back.vector.dtype == np.float64 and np.array_equal(back.vector, [0.0, 1.0, 2.0])
    assert (back.count, back.flag) == (5, True)
    assert back.inner.notes == {} and back.history == []


@pytest.mark.parametrize("cls", [NominalTrajectory, LtvRom, LqgController], ids=lambda cls: cls.__name__)
def test_artifact_classes_bind_to_json_and_from_json_in_their_own_body(cls):
    # perfbench/tracer.py times each class's I/O by patching
    # cls.__dict__["to_json"] and cls.__dict__["from_json"].__func__
    assert "to_json" in cls.__dict__
    assert isinstance(cls.__dict__["from_json"], classmethod)
