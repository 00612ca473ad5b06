"""dumps_stable against its definition, json.dumps(indent=2) plus a newline."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sumsetlab.jsonio import dumps_stable


def reference(payload) -> str:
    return json.dumps(payload, indent=2, ensure_ascii=True) + "\n"


TEXT = st.text(st.characters(exclude_categories=()) |           # surrogates too
               st.sampled_from("\x00\x1f\x7f\"\\/ é\ud800\U0001f600"))
FLOATS = st.floats() | st.sampled_from([math.nan, math.inf, -math.inf, -0.0,
                                        1e16, 5e-324])
INTS = st.integers() | st.sampled_from([2**64, -2**64 - 1, 10**40, -1])
SCALARS = st.none() | st.booleans() | INTS | FLOATS | TEXT
PAYLOADS = st.recursive(
    SCALARS | st.lists(INTS) | st.lists(st.lists(INTS, max_size=4), max_size=4),
    lambda inner: (st.lists(inner, max_size=4) | st.tuples(inner, inner)
                   | st.dictionaries(TEXT, inner, max_size=4)),
    max_leaves=12)


@settings(max_examples=100, deadline=None)
@given(PAYLOADS)
def test_dumps_stable_matches_json_dumps(payload):
    assert dumps_stable(payload) == reference(payload)


@pytest.mark.parametrize("payload", [
    {}, [], (), {"a": []}, [[], [1], [[]]], [1, True, 2], [[1, 2], [3, False]],
    [[1, 2], (3, 4)], [1, 2.5, None, "x"], {"k": [[2**70, -3], [0, 1]]},
    [math.nan, math.inf, -math.inf, -0.0, 1e16, 5e-324],
])
def test_dumps_stable_on_named_shapes(payload):
    assert dumps_stable(payload) == reference(payload)


@pytest.mark.parametrize("payload", [
    {"a": np.int64(1)}, {"a": [1, np.int64(2)]}, {"a": [[1], [np.int64(2)]]},
    {"a": {1, 2}}, {"a": b"x"}, {1: 2}, {"a": {(1, 2): 3}},
])
def test_dumps_stable_rejects_other_types_and_keys(payload):
    with pytest.raises(TypeError):
        dumps_stable(payload)
