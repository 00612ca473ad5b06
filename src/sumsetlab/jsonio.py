"""Stable JSON emission: fixed key order, fixed formatting, trailing newline.

``record_json`` builds every record's payload: its schema, then its fields in
declaration order, so field order is key order and identical runs serialize
to identical bytes.  ``dumps_stable(payload)`` returns exactly
``json.dumps(payload, indent=2, ensure_ascii=True) + "\\n"`` for every payload
of dicts with ``str`` keys, lists, tuples, ``str``, ``int``, ``float``,
``bool`` and ``None``; any other type, and any non-``str`` key, raises
``TypeError``.  It does not run the pure-Python encoder that ``json`` falls
back to whenever ``indent`` is set: lists of ints, and lists of int lists,
are written with one ``join`` each, and strings are escaped by the C escaper.
"""

from __future__ import annotations

import math
from itertools import chain
from json.encoder import encode_basestring_ascii as _string

from .groups import INFINITY, SubsetMask

_AS_IS = frozenset((bool, int, str, dict, tuple))   # a field tuple holds ints or records


def record_json(record, schema: str | None = None) -> dict:
    """A record's payload: ``schema`` if given, then its fields in declaration
    order, less those that are None.  A ``SubsetMask`` is written as its
    sorted elements, a float (a minimal torsion) as an int or, when infinite,
    null, and a record or a tuple of records as their payloads, by
    ``to_json_dict`` where the record has one (a nested trace keeps its schema)."""
    payload = {} if schema is None else {"schema": schema}
    for name, v in vars(record).items():     # insertion order is field order
        if v is None:
            continue
        t = type(v)
        if t is SubsetMask:
            v = list(v.elements())
        elif t is float:
            v = None if v == INFINITY else int(v)
        elif t is tuple and v and type(v[0]) not in _AS_IS:
            v = tuple(map(_nested, v))
        elif t not in _AS_IS:
            v = _nested(v)
        payload[name] = v
    return payload


def _nested(record) -> dict:
    return record.to_json_dict() if hasattr(record, "to_json_dict") else record_json(record)


def dumps_stable(payload: dict) -> str:
    return _write(payload, "\n") + "\n"


def _write(o, nl: str) -> str:
    """``o`` as json.dumps(indent=2) writes it at the depth that ``nl`` (a
    newline and the indent) marks."""
    if isinstance(o, str):
        return _string(o)
    if o is None or o is True or o is False:
        return "null" if o is None else "true" if o else "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        if o != o:
            return "NaN"
        if abs(o) == math.inf:
            return "Infinity" if o > 0 else "-Infinity"
        return float.__repr__(o)
    inner = nl + "  "
    if isinstance(o, dict):
        body = (_string(k) + ": " + _write(v, inner) for k, v in o.items())
    elif isinstance(o, (list, tuple)):
        kinds = set(map(type, o))
        if kinds == {int}:
            body = map(int.__repr__, o)
        elif kinds == {list} and all(o) and set(map(type, chain.from_iterable(o))) == {int}:
            deeper = inner + "  "
            body = ("[" + deeper + ("," + deeper).join(map(int.__repr__, row)) + inner + "]"
                    for row in o)
        else:
            body = (_write(v, inner) for v in o)
    else:
        raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")
    text = ("," + inner).join(body)
    brackets = "{}" if isinstance(o, dict) else "[]"
    return brackets if not text else brackets[0] + inner + text + nl + brackets[1]
