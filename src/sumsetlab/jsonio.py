"""Stable JSON emission: fixed key order, fixed formatting, trailing newline.

``record_json`` builds every record's payload: its schema, then its fields in
declaration order, so field order is key order and identical runs serialize
to identical bytes.  ``dumps_stable(payload)`` returns exactly
``json.dumps(payload, indent=2, ensure_ascii=True) + "\\n"`` for every payload
of dicts with ``str`` keys, lists, tuples, ``str``, ``int``, ``bool`` and
``None``.  Other types, non-``str`` keys and floats (no payload holds one, and
``json`` writes inf and NaN as non-JSON) raise ``TypeError``.  It does not run
the pure-Python encoder that ``json`` falls back to whenever ``indent`` is
set: strings are escaped by the C escaper, and a list of ints, of int rows of
one width, or of dicts with the same keys that hold such rows is filled into
one ``%`` template per ``_BLOCK`` items.
"""

from __future__ import annotations

from itertools import chain
from json.encoder import encode_basestring_ascii as _string

from .groups import INFINITY, SubsetMask

_AS_IS = frozenset((bool, int, str, dict, tuple))   # a field tuple holds ints or records
_BLOCK = 256   # items per template of a like-shaped list, however long the list


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
    inner = nl + "  "
    if isinstance(o, dict):
        body = (_string(k) + ": " + _write(v, inner) for k, v in o.items())
    elif isinstance(o, (list, tuple)):
        body = _like_shaped(o, inner) or (_write(v, inner) for v in o)
    else:
        raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")
    text = ("," + inner).join(body)
    brackets = "{}" if isinstance(o, dict) else "[]"
    return brackets if not text else brackets[0] + inner + text + nl + brackets[1]


def _like_shaped(o, inner: str) -> list[str] | None:
    """``o``'s items as text at the depth ``inner`` marks, one block at a
    time, if they share one int-only shape (see above); else None.  Records
    are turned down by their first one's values, before any key is read."""
    kinds = set(map(type, o))
    if kinds == {int}:
        item, values = "%d", o
    else:
        if kinds == {dict} and set(map(type, o[0].values())) <= {list, tuple}:
            keys, at = tuple(o[0]), inner + "  "
            rows = list(chain.from_iterable(map(dict.values, o)))
            if set(map(tuple, o)) != {keys} or not set(map(type, rows)) <= {list, tuple}:
                return None
        elif kinds and kinds <= {list, tuple}:
            keys, rows, at = (None,), o, inner
        else:
            return None
        widths = [set(map(len, rows[j::len(keys)])) for j in range(len(keys))]
        values = list(chain.from_iterable(rows))
        if set(map(len, widths)) != {1} or {0} in widths or set(map(type, values)) != {int}:
            return None
        deeper = at + "  "
        fields = ["[" + deeper + ("," + deeper).join(["%d"] * w) + at + "]" for (w,) in widths]
        item = fields[0] if kinds != {dict} else "{" + at + ("," + at).join(
            _string(k).replace("%", "%%") + ": " + f for k, f in zip(keys, fields)) + inner + "}"
    sep = "," + inner
    if len(o) <= _BLOCK:    # one block: the same fill without the block loop, for short lists
        return [sep.join([item] * len(o)) % tuple(values)]
    step = _BLOCK * len(values) // len(o)
    blocks = (tuple(values[lo:lo + step]) for lo in range(0, len(values), step))
    return [sep.join([item] * (_BLOCK * len(block) // step)) % block for block in blocks]
