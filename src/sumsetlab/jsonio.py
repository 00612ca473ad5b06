"""Stable JSON emission: fixed key order, fixed formatting, trailing newline.

``record_json`` builds every record's payload: its schema, then its fields in
declaration order, so field order is key order and identical runs serialize
to identical bytes.  ``dumps_stable(payload)`` returns exactly
``json.dumps(payload, indent=2, ensure_ascii=True) + "\\n"`` for every payload
of dicts with ``str`` keys, lists, tuples, ``str``, ``int``, ``bool`` and
``None``.  Other types, non-``str`` keys and floats (no payload holds one, and
``json`` writes inf and NaN as non-JSON) raise ``TypeError``.  It does not run
the pure-Python encoder that ``json`` falls back to whenever ``indent`` is
set.  Strings are escaped by the C escaper, and types are matched exactly (a
subclass goes to ``isinstance``): a dict writes its ``str``, ``int``, ``bool``
and ``None`` values in its own loop, a list of ints is one join of
``int.__repr__``, and a list of int rows of one width, or of dicts with the
same keys that hold such rows, fills one ``%`` template per ``_BLOCK`` items.
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
        t = type(v)
        if t in _AS_IS:                        # the commonest field types first
            if t is tuple and v and type(v[0]) not in _AS_IS:
                v = tuple(map(_nested, v))
        elif v is None:
            continue
        elif t is SubsetMask:
            v = list(v.elements())
        elif t is float:
            v = None if v == INFINITY else int(v)
        else:
            v = _nested(v)
        payload[name] = v
    return payload


def _nested(record) -> dict:
    return record.to_json_dict() if hasattr(record, "to_json_dict") else record_json(record)


def dumps_stable(payload: dict) -> str:
    return _write(payload, "\n", "\n")


def _write(o, nl: str, end: str = "") -> str:
    """``o`` as json.dumps(indent=2) writes it at the depth that ``nl`` (a
    newline and the indent) marks, then ``end``; a subclass is written as its
    base type.  A container is one join: a dict's of its keys and value texts,
    a list's of its items, the brackets put on the first and the last, so a
    long text is copied into its container's once and not again."""
    t = type(o)
    inner = nl + "  "
    sep = "," + inner
    if t is dict:
        parts = []
        for k, v in o.items():           # a scalar value is written in place
            t = type(v)
            if t is str:
                v = _string(v)
            elif t is int:
                v = int.__repr__(v)
            elif t is bool:
                v = "true" if v else "false"
            elif v is None:
                v = "null"
            else:
                v = _write(v, inner)
            parts += (sep, _string(k), ": ", v)
        if not parts:
            return "{}" + end
        parts[0] = "{" + inner
        parts += (nl, "}", end)
        return "".join(parts)
    if t is list or t is tuple:
        kinds = set(map(type, o))
        body = (list(map(int.__repr__, o)) if kinds == {int}
                else _like_shaped(o, inner, kinds) or [_write(v, inner) for v in o])
        if not body:
            return "[]" + end
        body[0] = "[" + inner + body[0]
        body[-1] += nl + "]" + end
        return sep.join(body)
    if o is None or t is bool:
        return ("null" if o is None else "true" if o else "false") + end
    if isinstance(o, (dict, list, tuple)):
        return _write(dict(o.items()) if isinstance(o, dict) else list(o), nl, end)
    if isinstance(o, (str, int)):
        return (_string(o) if isinstance(o, str) else int.__repr__(o)) + end
    raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


def _like_shaped(o, inner: str, kinds: set) -> list[str] | None:
    """``o``'s items, of the types ``kinds``, as text at the depth ``inner``
    marks, one block at a time, if they are int rows of one width or records
    of such rows (see above); else None.  Records are turned down by their
    first one's values, before any key is read."""
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
