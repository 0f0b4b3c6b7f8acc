"""The result writer: json.dumps(doc, indent=2) layout, byte for byte."""

import json

import numpy as np

from gibbsfit import fileio


def as_lists(obj):
    """obj with every array turned into the nested lists json would be
    given: complex entries as [re, im] pairs."""
    if isinstance(obj, np.ndarray):
        if np.iscomplexobj(obj):
            obj = np.stack((obj.real, obj.imag), axis=-1)
        return obj.tolist()
    if isinstance(obj, dict):
        return {k: as_lists(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return type(obj)(as_lists(v) for v in obj)
    return obj


def test_dump_json_matches_indented_json_dumps_byte_for_byte():
    rng = np.random.default_rng(60)
    special = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 1e16, 0.1, -2.5e-300])
    docs = [
        {"theta": special, "empty": np.array([]), "one": np.array([1.5])},
        {
            "matrix": rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)),
            "one_by_one": np.array([[1.0 - 2.0j]]),
            "empty": np.zeros((0, 0), dtype=complex),
            "special": np.array([[complex(np.nan, -0.0), complex(np.inf, 5e-324)], [1e16, -np.inf]]),
            "deep": rng.normal(size=(2, 3, 4)),
            "rows_of_nothing": np.empty((2, 0)),
        },
        {"int": 3, "big": 10**20, "true": True, "false": False, "none": None, "float": 0.1},
        {"nested": {"a": [[], {}, [[]], [{}], [1, [2, [3.0]]]], "b": {"c": {"d": {}}}}},
        {"tuple": (1, (2.5, "x"), ()), "list_of_arrays": [np.arange(3.0), np.ones((1, 2), dtype=complex)]},
        {"text": "héllo ✓ \u0000\u001f\t\n\"\\ /", "ключ": "значение", "": ""},
        {1: "int key", 2.5: "float key", True: "bool key", None: "null key"},
        [special, {"x": special}],
        np.arange(6.0).reshape(2, 3),
        "just a string",
        -0.0,
        None,
        [],
        {},
    ]
    for doc in docs:
        want = json.dumps(as_lists(doc), indent=2) + "\n"
        assert fileio.dump_json(doc) == want, doc
