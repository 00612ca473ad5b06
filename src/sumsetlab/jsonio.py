"""Stable JSON emission: fixed key order, fixed formatting, trailing newline.

Payload dicts are built with deterministic insertion order, so identical runs
serialize to identical bytes.  ``dumps_stable(payload)`` returns exactly
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
