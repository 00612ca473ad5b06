"""Dense Cayley-table finite groups on element indices 0..n-1.

Every group here is a concrete multiplication table.  Element 0 is the
identity in all canonical constructors, and every higher layer (subgroups,
quotients, factor systems, sumset search) speaks plain element indices, so
subsets are uniform bit masks regardless of the group family.

A spec names a group: ``parse_group_spec`` checks it against its family's
entry in ``_FAMILIES`` (parameter count, rules, order, table builder),
``build_group`` builds it and ``cached_group`` keeps it.
"""

from __future__ import annotations

import io
import math
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

ORDER_CAP = 4096          # larger orders are refused, so every index fits int16
BLOCK_ROWS = 256          # rows of an n x n table handled at a time

INFINITY = float("inf")
"""Torsion value of the trivial group; compares above every integer."""


class InputError(ValueError):
    """Input the caller got wrong; the command line exits 2 on it."""


class GroupBuildError(InputError):
    """An invalid group spec, or a table that violates the group axioms."""


def iter_bits(bits: int) -> Iterator[int]:
    """Yield the set bit positions of ``bits`` in ascending order."""
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low


@dataclass(frozen=True)
class SubsetMask:
    """A subset of 0..width-1 stored as a bit mask."""

    bits: int
    width: int

    def __post_init__(self):
        if self.width < 0:
            raise InputError("mask width must be nonnegative")
        if self.bits < 0 or self.bits >> self.width:
            raise InputError(
                f"mask 0x{self.bits:x} has bits outside 0..{self.width - 1}"
            )

    @classmethod
    def from_elements(cls, width: int, elements: Iterable[int]) -> "SubsetMask":
        bits = 0
        for x in elements:
            if not 0 <= x < width:
                raise InputError(f"element {x} outside 0..{width - 1}")
            bits |= 1 << x
        return cls(bits, width)

    @classmethod
    def from_member(cls, member: np.ndarray) -> "SubsetMask":
        """The mask whose bit x is ``member[x]``, for a bool array ``member``."""
        bits = int.from_bytes(np.packbits(member, bitorder="little").tobytes(), "little")
        return cls(bits, len(member))

    def elements(self) -> tuple[int, ...]:
        return tuple(iter_bits(self.bits))

    def __len__(self) -> int:
        return self.bits.bit_count()


@dataclass(frozen=True, eq=False)
class FiniteGroup:
    """A finite group given by a dense multiplication table.

    ``op[a, b]`` is the product ab and ``inv[a]`` the inverse of a; both are
    immutable after construction.  ``_cache`` holds what is derived from
    them (plain-list rows, the derived series, ...) keyed by name, and is
    filled only through ``derived``; like ``cached_group`` it is for one
    thread: nothing locks it.
    """

    order: int
    op: np.ndarray
    identity: int
    inv: np.ndarray
    label: str
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        self.op.setflags(write=False)
        self.inv.setflags(write=False)

    def derived(self, key, build):
        """``_cache[key]``, from ``build()`` on the first call for that key."""
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]

    def is_abelian(self) -> bool:
        return self.derived("abelian", lambda: bool((self.op == self.op.T).all()))

    def op_rows(self) -> list[list[int]]:
        """Multiplication rows as plain lists, for tight pure-Python loops."""
        return self.derived("rows", self.op.tolist)

    def __repr__(self) -> str:
        return f"FiniteGroup({self.label!r}, order={self.order})"


def table_group(op: np.ndarray, label: str, identity: int = 0) -> FiniteGroup:
    """The group on a Cayley table, with each inverse read off its row, as int16."""
    op = np.asarray(op, dtype=np.int16)
    return FiniteGroup(order=len(op), op=op, identity=identity,
                       inv=np.argmax(op == identity, axis=1).astype(np.int16),
                       label=label)


# ---------------------------------------------------------------------------
# group specs and the spec DSL


@dataclass(frozen=True)
class GroupSpec:
    """A parsed spec whose parameters passed their family's rules; see
    ``parse_group_spec``.  ``label`` is the canonical spec text, and
    ``order`` the group's order, or None when a table file is involved (its
    order is known only once the file is read)."""

    kind: str
    label: str
    order: int | None
    params: tuple[int, ...] = ()
    children: tuple["GroupSpec", ...] = ()
    table_source: str | None = None


def parse_group_spec(text: str) -> GroupSpec:
    """Parse a spec string and check its parameters against their family's
    rules in ``_FAMILIES``; GroupBuildError names the first error in
    reading order.

    Grammar: ``cyclic:N``, ``quaternion``, ``dihedral:M`` (order 2M),
    ``heisenberg:P``, ``frobenius:P:Q:K``, ``product:SPEC,SPEC,...`` (two or
    more non-product children) and ``table:PATH``.
    """
    text = text.strip()
    if text.startswith("product:"):
        parts = text[len("product:"):].split(",")
        if len(parts) < 2:
            raise GroupBuildError("product spec needs at least two children")
        children = []
        for part in parts:
            if part.startswith("product:"):
                raise GroupBuildError("nested product specs are not supported")
            children.append(parse_group_spec(part))
        orders = [c.order for c in children]
        return GroupSpec("direct_product", "product:" + ",".join(c.label for c in children),
                         None if None in orders else math.prod(orders),
                         children=tuple(children))
    if text.startswith("table:"):
        source = text[len("table:"):]
        if not source:
            raise GroupBuildError("table spec needs a file path")
        return GroupSpec("table", text, None, table_source=source)
    name, _, rest = text.partition(":")
    if name not in _FAMILIES:
        raise GroupBuildError(f"unknown group kind {name!r}")
    try:
        params = tuple(int(p) for p in rest.split(":")) if rest else ()
    except ValueError:
        raise GroupBuildError(
            f"{name} parameters must be integers, got {rest!r}") from None
    count, rules, order, _ = _FAMILIES[name]
    if len(params) != count:
        raise GroupBuildError(f"{name} takes {count} parameter(s), got {len(params)}")
    for holds, error in rules:
        if not holds(*params):
            raise GroupBuildError(error)
    return GroupSpec(name, ":".join((name, *map(str, params))), order(*params),
                     params=params)


def smallest_prime_factor(n: int):
    """Least prime dividing n; INFINITY for n = 1."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n == 1:
        return INFINITY
    for d in range(2, int(math.isqrt(n)) + 1):
        if n % d == 0:
            return d
    return n


def _is_prime(n: int) -> bool:
    return n >= 2 and smallest_prime_factor(n) == n


# ---------------------------------------------------------------------------
# canonical table builders


def _cyclic_table(n: int) -> np.ndarray:
    return _shifts(n)[:n].copy()


def _shifts(m: int) -> np.ndarray:
    """Windows of 0..m-1 twice over: row i reads (i + y) % m for y in 0..m-1,
    so rows [:m] add and rows [m:0:-1] subtract, with no modulo pass."""
    idx = np.arange(m, dtype=np.int16)
    return np.lib.stride_tricks.sliding_window_view(np.concatenate((idx, idx)), m)


def _quaternion_table() -> np.ndarray:
    # index = 2*unit + sign with unit in (1, i, j, k), sign 0 = +, 1 = -; units
    # multiply as u xor v (ij = k, ...), and flip[u, v] marks ii = -1, ik = -j, ...
    flip = np.array([[0, 0, 0, 0], [0, 1, 0, 1], [0, 1, 1, 0], [0, 0, 1, 1]])
    unit, sign = np.arange(8) // 2, np.arange(8) % 2
    u, v = unit[:, None], unit[None, :]
    return (2 * (u ^ v) + (sign[:, None] ^ sign[None, :] ^ flip[u, v])).astype(np.int16)


def _dihedral_table(m: int) -> np.ndarray:
    # index = flip*m + rotation; (f1,a1)(f2,a2) = (f1 xor f2, a2 + (-1)^f2 a1)
    shifts = _shifts(m)
    rotation = np.stack((shifts[:m], shifts[m:0:-1]), axis=1)    # [a1, f2, a2]
    flip = np.array([[0, m], [m, 0]], dtype=np.int16)             # [f1, f2]
    return (flip[:, None, :, None] + rotation[None]).reshape(2 * m, 2 * m)


def _heisenberg_table(p: int) -> np.ndarray:
    # index = a*p^2 + b*p + c for the unitriangular matrix [[1,a,c],[0,1,b],[0,0,1]];
    # the product adds a and b and takes c = c1 + c2 + a1*b2, so the table is
    # the sum of small int16 tables over axes (a1, b1, c1, a2, b2, c2)
    add = _cyclic_table(p)
    r = np.arange(p, dtype=np.int16)
    c = (r[:, None, None, None] * r[None, None, :, None]            # a1 * b2
         + add[None, :, None, :]) % p                                # + c1 + c2
    ab = (add[:, None, None, :, None, None] * (p * p)
          + add[None, :, None, None, :, None] * p)
    return (ab + c[:, None, :, None, :, :]).reshape(p ** 3, p ** 3)


def _frobenius_table(p: int, q: int, k: int) -> np.ndarray:
    # index = x*q + y; (x1,y1)(x2,y2) = (x1 + k^y1 * x2 mod p, y1 + y2 mod q),
    # the sum of Z/p's table read at (x1, k^y1 * x2) and Z/q's read at (y1, y2)
    kpow = np.array([pow(k, e, p) for e in range(q)], dtype=np.int64)
    moved = kpow[:, None] * np.arange(p) % p                       # [y1, x2]
    x_out = _cyclic_table(p)[:, moved] * q
    return (x_out[:, :, :, None] + _cyclic_table(q)[None, :, None, :]).reshape(p * q, p * q)


def _product_table(tables: Sequence[np.ndarray]) -> np.ndarray:
    acc = tables[0]
    for t in tables[1:]:
        na, nb = len(acc), len(t)     # int16 in and out: every value is below na * nb
        acc = (acc[:, None, :, None] * nb + t[None, :, None, :]).reshape(na * nb, na * nb)
    return acc


# kind -> (parameter count, rules: (test, error) pairs checked in order,
#          order from the parameters, table builder)
_FAMILIES = {
    "cyclic": (1, [(lambda n: n >= 1, "cyclic order must be >= 1")],
               lambda n: n, _cyclic_table),
    "quaternion": (0, [], lambda: 8, _quaternion_table),
    "dihedral": (1, [(lambda m: m >= 1, "dihedral parameter must be >= 1")],
                 lambda m: 2 * m, _dihedral_table),
    "heisenberg": (1, [(lambda p: p != 2 and _is_prime(p), "heisenberg needs an odd prime")],
                   lambda p: p ** 3, _heisenberg_table),
    "frobenius": (3, [(lambda p, q, k: _is_prime(p) and _is_prime(q) and q < p,
                       "frobenius needs primes q < p"),
                      (lambda p, q, k: pow(k, q, p) == 1 and k % p != 1,
                       "frobenius multiplier must satisfy k^q = 1 (mod p), k != 1 (mod p)")],
                  lambda p, q, k: p * q, _frobenius_table),
}


def build_group(spec: GroupSpec | str) -> FiniteGroup:
    """Build the canonical group for a spec, a fresh one on every call
    (``cached_group`` keeps built groups).

    Deterministic: identical specs yield bit-identical tables.  Element 0 is
    the identity for every constructor (table files are relabelled to make it
    so, with the relabelling recorded in the group label).
    """
    if isinstance(spec, str):
        spec = parse_group_spec(spec)
    if spec.order is not None and spec.order > ORDER_CAP:
        raise GroupBuildError(f"order {spec.order} exceeds the cap {ORDER_CAP}")
    if spec.kind == "table":
        return _load_table_group(Path(spec.table_source))
    if spec.kind == "direct_product":
        children = [build_group(c) for c in spec.children]
        built_order = math.prod(c.order for c in children)
        if built_order > ORDER_CAP:
            raise GroupBuildError(f"order {built_order} exceeds the cap {ORDER_CAP}")
        op = _product_table([c.op for c in children])
    else:
        op = _FAMILIES[spec.kind][3](*spec.params)
    return table_group(op, spec.label)


CACHE_BYTES = 2 * ORDER_CAP ** 2   # one int16 table of the largest order
_cached: OrderedDict[str, FiniteGroup] = OrderedDict()   # least recent first


def cached_group(spec: str) -> FiniteGroup:
    """The canonical group for a spec, built once per process.

    Groups are kept by canonical label, so ``cyclic:07`` and ``cyclic:7``
    share one, with whatever later calls derive from them in ``_cache``.
    The least recently used go first once the kept tables pass CACHE_BYTES,
    one table of order ORDER_CAP, so every group the loader accepts is kept.
    A spec that names a table file is built afresh on every call, so the
    file is read and checked as it is now, and a failed build raises every
    time.  The cache is for one thread: nothing locks it.
    """
    parsed = parse_group_spec(spec)
    if parsed.order is None:                  # a table file is involved
        return build_group(parsed)
    key = parsed.label
    group = _cached.get(key)
    if group is not None:
        _cached.move_to_end(key)
        return group
    group = _cached[key] = build_group(parsed)
    while sum(g.op.nbytes for g in _cached.values()) > CACHE_BYTES:
        _cached.popitem(last=False)
    return group


# ---------------------------------------------------------------------------
# table files


def _load_table_group(path: Path) -> FiniteGroup:
    """Load a Cayley table file: first line n, then n rows of n indices.

    The identity need not be element 0 in the file; the loader relabels by
    swapping it with 0 and records the swap in the label.  Axiom violations
    are build errors reported with a concrete witness.
    """
    values = _table_values(path)
    n = int(values[0])
    if n < 1 or n > ORDER_CAP:
        raise GroupBuildError(f"table file {path}: order {n} outside 1..{ORDER_CAP}")
    if len(values) != 1 + n * n:
        raise GroupBuildError(
            f"table file {path}: expected {n * n} entries, got {len(values) - 1}"
        )
    entries = values[1:]
    if isinstance(entries, list):            # int() tokens may not fit in int64
        entries = [v if 0 <= v < n else -1 for v in entries]
    op = np.asarray(entries).reshape(n, n)
    if op.min() < 0 or op.max() >= n:
        bad = np.argwhere((op < 0) | (op >= n))[0]
        raise GroupBuildError(
            f"table file {path}: entry op({bad[0]},{bad[1]}) out of range"
        )
    op = op.astype(np.int16)                 # after the check: as int16, 65537 reads 1
    del values, entries                      # one n x n table from here on

    identity = _find_identity(op)
    label = f"table:{path.name}"
    if identity is None:
        raise GroupBuildError(f"table file {path}: no two-sided identity element")
    if identity != 0:
        perm = np.arange(n, dtype=np.int16)
        perm[[0, identity]] = perm[[identity, 0]]
        op = perm[op[perm][:, perm]]  # transposition is its own inverse
        label += f"|identity={identity}->0"

    group = table_group(op, label)
    problems = validate_group(group)
    if problems:
        raise GroupBuildError(f"table file {path}: {problems[0]}")
    return group


_TABLE_BYTES = b"0123456789 \t\n\r\v\f"    # split alike by numpy and str.split


def _table_values(path: Path):
    """The integer tokens of a table file, parsed by numpy when the file holds
    only ASCII digits and whitespace and every value fits in int32.  Any other
    file is split as text and read by ``int`` token by token, which also takes
    signs, underscores and Unicode digits."""
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise GroupBuildError(f"cannot read table file {path}: {exc}") from exc
    digit = np.frombuffer(data, dtype=np.uint8) > ord(" ")
    tokens = np.count_nonzero(digit[1:] & ~digit[:-1]) + digit[:1].sum()
    if tokens and not data.translate(None, _TABLE_BYTES):
        values = np.fromstring(data, dtype=np.int64, sep=" ")
        if len(values) == tokens and values.max() < 2**31:
            return values
    try:
        tokens = io.TextIOWrapper(io.BytesIO(data)).read().split()   # as read_text()
    except UnicodeDecodeError as exc:
        raise GroupBuildError(f"table file {path}: not {exc.encoding} text") from exc
    if not tokens:
        raise GroupBuildError(f"table file {path} is empty")
    try:
        return [int(t) for t in tokens]
    except ValueError as exc:
        raise GroupBuildError(f"table file {path}: non-integer entry") from exc


def _find_identity(op: np.ndarray) -> int | None:
    idx = np.arange(len(op))
    # an identity e has e*0 = 0 = 0*e; check those candidates in full
    cand = np.flatnonzero((op[:, 0] == 0) & (op[0] == 0))
    ok = (op[cand] == idx).all(axis=1) & (op[:, cand].T == idx).all(axis=1)
    return int(cand[ok][0]) if ok.any() else None


# ---------------------------------------------------------------------------
# validation


def validate_group(g: FiniteGroup) -> list[str]:
    """Check the group axioms; return a list of violations (empty if valid).

    The identity and inverse laws, then associativity by Light's test:
    (xs)y = x(sy) for every x, y and each s of ``generating_set(g)``.  Any
    generating set is sound: the s that pass form an op-closed set holding
    the identity, so it holds the set's op-closed hull, all of g.  After a
    failure the ``lowest_first_generators`` are checked in order, so the
    report names the same first failing triple.  A table that passes is a
    group, hence a Latin square, so rows and columns are sorted only after a
    failure; the report lists Latin, identity and inverse violations, or
    else the associativity failure.  Violations are data, not errors.
    """
    op = g.op
    n = g.order
    idx = np.arange(n)

    if op.shape != (n, n) or op.min() < 0 or op.max() >= n:
        return ["table entries out of range"]

    problems: list[str] = []
    e = g.identity
    if not ((op[e] == idx).all() and (op[:, e] == idx).all()):
        bad = int(np.nonzero((op[e] != idx) | (op[:, e] != idx))[0][0])
        problems.append(
            f"identity: element {e} is not a two-sided identity (fails at {bad})"
        )
    left = op[idx, g.inv]
    right = op[g.inv, idx]
    if not ((left == e).all() and (right == e).all()):
        bad = int(np.nonzero((left != e) | (right != e))[0][0])
        problems.append(f"inverse: element {bad} has no valid inverse entry")

    failure = None
    if not problems:
        if all(_first_nonassociative(op, s) is None for s in generating_set(g)):
            return []
        failures = (_first_nonassociative(op, s) for s in lowest_first_generators(g))
        failure = next(f for f in failures if f is not None)
    return _latin_problems(op) + problems or [failure]


def _latin_problems(op: np.ndarray) -> list[str]:
    """Rows, then columns, that are not permutations, sorted BLOCK_ROWS at a time."""
    n = len(op)
    bad = {"row": [], "column": []}
    for lo in range(0, n, BLOCK_ROWS):
        for kind, block in (("row", op[lo:lo + BLOCK_ROWS]),
                            ("column", op[:, lo:lo + BLOCK_ROWS].T)):
            wrong = (np.sort(block, axis=1) != np.arange(n)).any(axis=1)
            bad[kind].extend(lo + np.flatnonzero(wrong))
    return [f"latin: {kind} {i} is not a permutation of 0..{n - 1}"
            for kind, found in bad.items() for i in found]


def _first_nonassociative(op: np.ndarray, s: int) -> str | None:
    """The first (lowest a, then c) failure of (as)c = a(sc), or None.

    Rows a are compared BLOCK_ROWS at a time, so no n x n table is built (two
    of them and their comparison took 144 MB at order 4096)."""
    right = op[s]                                          # right[c] = sc
    for lo in range(0, len(op), BLOCK_ROWS):
        lhs = op[op[lo:lo + BLOCK_ROWS, s]]                # lhs[a - lo, c] = (as)c
        rhs = op[lo:lo + BLOCK_ROWS].take(right, axis=1)   # rhs[a - lo, c] = a(sc)
        if not np.array_equal(lhs, rhs):
            a, c = np.argwhere(lhs != rhs)[0]
            return (f"associativity: op(op({lo + a},{s}),{c}) = {int(lhs[a, c])} "
                    f"but op({lo + a},op({s},{c})) = {int(rhs[a, c])}")
    return None


def closure(g: FiniteGroup, elements, members: np.ndarray | None = None) -> np.ndarray:
    """Membership of the subgroup that ``elements`` generate, as a bool
    array over 0..n-1.

    ``members``, if given, must be the closure of some of the elements; it
    is grown, not rebuilt.  Each element not yet in it (a new letter) is
    first closed by its ``_powers``, in log2(m) + 1 rounds for order m, so a
    long cyclic chain costs no round per power.  Then rounds multiply the
    old members by the new letters, each letter's new powers by every other
    element (a power times its own letter is a power), and every later
    round's new products by every element: each product once, O(n * k) for
    k elements past the powers.  A scratch array marks each round's new
    products, so the frontier holds each element once without a sort.  In a
    group the set grown is the subgroup: finite order makes x^-1 a positive
    power of x.  On any table with an identity whose given elements all
    pass Light's test ((xs)y = x(sy) for all x, y), it is the smallest
    op-closed set that holds them.  Every element added is a product of two
    elements of that op-closed hull, so the set lies in the hull; it holds
    the identity and is closed under right multiplication by each given
    element, which pass (the old members, the hull of some, are op-closed,
    and the powers of a passing x are closed under x: see ``_powers``), so
    it is op-closed: passing elements are closed under products, and
    w(vt) = (wv)t for a passing v.
    """
    gens = np.asarray(elements, dtype=np.intp)
    if members is None:
        member = np.zeros(g.order, dtype=bool)
        member[g.identity] = True
    else:
        member = members.copy()
    letters = gens[~member[gens]]
    if not len(letters):
        return member
    fresh = np.zeros(g.order, dtype=bool)
    fresh[g.op[np.flatnonzero(member)[:, None], letters]] = True
    for x in letters:
        powers = _powers(g, int(x))
        fresh[g.op[np.flatnonzero(powers > member)[:, None], gens[gens != x]]] = True
        member |= powers
    while True:
        np.greater(fresh, member, out=fresh)
        frontier = fresh.nonzero()[0]
        if not len(frontier):
            return member
        fresh[frontier] = False
        member[frontier] = True
        fresh[g.op[frontier[:, None], gens]] = True


def grow_generators(g: FiniteGroup, candidates: np.ndarray, gens: list[int],
                    closed: np.ndarray) -> np.ndarray:
    """Append to ``gens``, in order, each candidate outside ``closed``, the
    closure of gens, and grow it; return the grown closure.  Each appended
    element at least doubles the closure, so gens stays within
    log2(order) + 1 elements of the subgroup it generates, and the closure
    grows with each one, O(n * k) in all."""
    outside = candidates[~closed[candidates]]
    while len(outside):
        gens.append(int(outside[0]))
        closed = closure(g, gens, closed)
        outside = outside[~closed[outside]]
    return closed


def lowest_first_generators(g: FiniteGroup) -> list[int]:
    """The lowest element of g outside the ``closure`` of those before it,
    until none is left: ``grow_generators`` over 0..n-1.  Nothing is cached:
    ``generating_set`` keeps the group's set."""
    gens: list[int] = []
    grow_generators(g, np.arange(g.order), gens, closure(g, gens))
    return gens


def generating_set(g: FiniteGroup) -> tuple[int, ...]:
    """The ``lowest_first_generators`` less each one, in order, that the
    others kept generate; cached in ``g._cache``.  The last lies outside the
    closure of those before it and is kept untested.  Each test set lies
    in the op-closed hull of the others, so on any table with an identity
    the hull of the set kept is all of g."""
    def build():
        kept = lowest_first_generators(g)
        for s in kept[:-1]:
            if closure(g, [t for t in kept if t != s])[s]:
                kept.remove(s)
        return tuple(kept)
    return g.derived("generators", build)


def _powers(g: FiniteGroup, x: int) -> np.ndarray:
    """Membership of the identity and the powers of x, by doubling: those
    below x^(2m) are those below x^m and their products with x^m, so order m
    takes log2(m) + 1 rounds.  Each round adds x^m, so it ends on any table
    with an identity.  For x passing Light's test, x^m acts on the right as
    m steps of x, so r rounds give x^j for j < 2^r, which ends holding
    x^(2^r): closed under right multiplication by x."""
    member = closure(g, ())
    while not member[x]:
        member[g.op[np.flatnonzero(member), x]] = True
        x = g.op[x, x]
    return member


def element_order(g: FiniteGroup, x: int) -> int:
    """Smallest m >= 1 with x^m = identity; ValueError if there is none
    within n steps (so the table is not a group)."""
    if not 0 <= x < g.order:
        raise ValueError(f"element {x} outside 0..{g.order - 1}")
    y = x
    for m in range(1, g.order + 1):
        if y == g.identity:
            return m
        y = int(g.op[y, x])
    raise ValueError(f"element {x} has no power equal to the identity")
