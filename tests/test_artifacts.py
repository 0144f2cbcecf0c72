import json

import numpy as np

from seplqg.artifacts import write_json


def test_write_json_matches_json_dump_byte_for_byte(tmp_path):
    rng = np.random.default_rng(3)
    fields = {
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

    def as_lists(value):
        if isinstance(value, dict):
            return {k: as_lists(v) for k, v in value.items()}
        return value.tolist() if isinstance(value, np.ndarray) else value

    expected = tmp_path / "dump.json"
    with open(expected, "w") as fh:
        json.dump(as_lists(fields), fh)
    written = tmp_path / "written.json"
    write_json(written, fields)
    assert written.read_bytes() == expected.read_bytes()
    write_json(written, {})
    assert written.read_text() == "{}"
