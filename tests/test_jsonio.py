"""dumps_stable against its definition, json.dumps(indent=2) plus a newline."""

import json
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sumsetlab.engine import verify_exhaustive
from sumsetlab.groups import build_group
from sumsetlab.jsonio import _BLOCK, dumps_stable


def reference(payload) -> str:
    return json.dumps(payload, indent=2, ensure_ascii=True) + "\n"


TEXT = st.text(st.characters(exclude_categories=()) |           # surrogates too
               st.sampled_from("\x00\x1f\x7f\"\\/ é\ud800\U0001f600"))
INTS = st.integers() | st.sampled_from([2**64, -2**64 - 1, 10**40, -1])
SCALARS = st.none() | st.booleans() | INTS | TEXT
# keys that a format template must escape or that the escaper rewrites
KEYS = TEXT | st.sampled_from(["", "%", "%d", "%%s", "a%(x)s", '"', "\\", "é", "\u2603%"])
RUN_INTS = (0, 1, -1, 7, 255, 2**31, -2**63, 2**64, 10**40)


@st.composite
def like_shaped_runs(draw):
    """A list whose items share one int-only shape (ints, int rows of one
    width, or records of such rows under the same keys), from one item to
    past two format blocks, with at most one item or value changed so that
    the run no longer has one shape: a bool, None, 2**70, string, ragged or
    empty row, or a record with its keys reordered."""
    rnd = random.Random(draw(st.integers(0, 2**32)))
    length = draw(st.sampled_from([1, 2, 7, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 3]))
    kind = draw(st.sampled_from(["ints", "rows", "records"]))

    def ints(count):
        return [rnd.choice(RUN_INTS) for _ in range(count)]

    if kind == "ints":
        run = ints(length)
    elif kind == "rows":
        width = draw(st.integers(1, 4))
        run = [rnd.choice((list, tuple))(ints(width)) for _ in range(length)]
    else:
        keys = draw(st.lists(KEYS, min_size=1, max_size=3, unique=True))
        widths = [draw(st.integers(1, 3)) for _ in keys]
        run = [{k: ints(w) for k, w in zip(keys, widths)} for _ in range(length)]
    i = rnd.randrange(length)
    odd = draw(st.sampled_from([True, None, 2**70, "x", [], [1, 2, 3, 4, 5]]))
    where = draw(st.sampled_from(["nowhere", "item", "value", "keys"]))
    if where == "item":
        run[i] = odd
    elif where == "value" and kind == "rows":
        run[i] = list(run[i])
        run[i][rnd.randrange(len(run[i]))] = odd
    elif where == "value" and kind == "records":
        run[i] = {**run[i], rnd.choice(keys): odd}
    elif where == "keys" and kind == "records":
        run[i] = dict(reversed(run[i].items()))
    return draw(st.sampled_from([run, tuple(run), {"%s": run}, [run, 1]]))


PAYLOADS = st.recursive(
    SCALARS | st.lists(INTS) | st.lists(st.lists(INTS, max_size=4), max_size=4)
    | like_shaped_runs(),
    lambda inner: (st.lists(inner, max_size=4) | st.tuples(inner, inner)
                   | st.dictionaries(TEXT, inner, max_size=4)),
    max_leaves=12)


@settings(max_examples=100, deadline=None)
@given(PAYLOADS)
def test_dumps_stable_matches_json_dumps(payload):
    assert dumps_stable(payload) == reference(payload)


@settings(max_examples=300, deadline=None)
@given(like_shaped_runs())
def test_dumps_stable_matches_json_dumps_on_like_shaped_runs(run):
    assert dumps_stable(run) == reference(run)


@pytest.mark.parametrize("payload", [
    {}, [], (), {"a": []}, [[], [1], [[]]], [1, True, 2], [[1, 2], [3, False]],
    [{"": None}], [{"": [1]}, {"": None}], [{}, {}], [{"a": 1}, {"a": 2}],
    [{"a": [1], "b": [2, 3]}, {"b": [2, 3], "a": [1]}], [{"%": [1, 2]}, {"%": [3, 4]}],
    [{"a": [], "b": [1]}, {"a": [], "b": [2]}], [{"a": "xy", "b": [1]}, {"a": "zw", "b": [2]}],
    [{"a": [1], "b": [2]}, {"b": [3], "a": [4]}], [[1, 2], [3]],
    [[1, 2]] * (_BLOCK + 1), [{"k": [1], "j": (2, 3)}] * (2 * _BLOCK + 1), [[]] * 3,
    [[1, 2], (3, 4)], [1, None, "x"], {"k": [[2**70, -3], [0, 1]]},
])
def test_dumps_stable_on_named_shapes(payload):
    assert dumps_stable(payload) == reference(payload)


@pytest.mark.parametrize("payload", [
    {"a": np.int64(1)}, {"a": [1, np.int64(2)]}, {"a": [[1], [np.int64(2)]]},
    {"a": {1, 2}}, {"a": b"x"}, {1: 2}, {"a": {(1, 2): 3}},
    [[1, 2]] * _BLOCK + [[3, np.int64(4)]], [{"k": [1]}] * 3 + [{"k": [np.int64(2)]}],
    [{"k": [1]}, {1: [2]}], [{1: [1]}, {1: [2]}],
])
def test_dumps_stable_rejects_other_types_and_keys(payload):
    with pytest.raises(TypeError):
        dumps_stable(payload)


@pytest.mark.parametrize("value", [1.5, -0.0, math.nan, math.inf, -math.inf])
def test_dumps_stable_rejects_floats(value):
    # json would write inf and nan as Infinity and NaN, which are not JSON
    for payload in ({"a": value}, [1, value], [[1], [value]], [{"k": [value]}] * 2):
        with pytest.raises(TypeError):
            dumps_stable(payload)


def test_trivial_group_torsion_is_written_as_null():
    # the one infinite minimal torsion reaches the writer as None
    text = dumps_stable(verify_exhaustive(build_group("cyclic:1"), "cd").to_json_dict())
    assert '\n  "p_g": null,\n' in text
    assert text == reference(json.loads(text))
