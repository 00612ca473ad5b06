"""Sumset computation and bound verification.

Product sets are bit masks built from Cayley-table rows.  The lower bound
checked everywhere is min(p, |A| + |B| - 1) for plain products and
min(p, |A| + |B| - 3) for products restricted to distinct elements, where p
is the group's minimal torsion (INFINITY for the trivial group, in which case
the minimum is the size term alone).  The restricted bound holds in every
finite group (Balister and Wheeler, Acta Arith. 140, 2009); on Z/p only equal
sizes meet it, as |A| != |B| gives min(p, |A| + |B| - 2) (Alon, Nathanson and
Ruzsa 1996) and arithmetic progressions A = B give 2|A| - 3 (Dias da Silva and
Hamidoune 1994).

``product_set`` and ``restricted_product_set`` follow the definition: one
gather over the Cayley table, marked in a bool mask.  Every scan (exhaustive,
capped, sampled, extremal search) runs one batched kernel: for a batch of sets
A_k it builds the column masks of A_k * y, word-packed in the narrowest word
that holds the group order (uint16, uint32, uint64, or ceil(n / 64) uint64
words above 64 elements).  Exhaustive scans OR the columns over every B by
subset doubling, capped and extremal scans at each B's elements; sampled scans
pack each A_k * B_k directly.  One scoring step compares popcounts with the
bound of each pair's sizes (|A|, |B|).

Capped scans and the extremal search list their sides with one numpy lister
(``_sets_by_size``): size by size, each in ascending mask order, as rows of
the narrowest integer type that holds the group order.  An exhaustive scan's
sets are its masks, unpacked to elements a batch at a time.  A group's
element orders and automorphisms are found once and kept in its memo, so
every later scan of the session reuses them.

Verification covers ordered pairs (A, B) of nonempty subsets; products
need not commute.  Exhaustive and capped scans score one pair per orbit.
|gA * Bh| = |A * B|, so a cd scan lists only the sets A and B that hold
element 0, and on abelian groups (x + g = y + g exactly when x = y) an eh
scan lists only the sets A that hold 0.  An automorphism sigma keeps sizes
and x != y, and sigma(A) * sigma(B) = sigma(A * B), so of those sets A only
the least mask in each orbit of the automorphisms that fix 0 is listed, at
orders up to 62 where the cost rule of ``_Scan.reduce`` allows.  Sampled
scans and the extremal search list every pair.  Counts are weighted back
exactly and each violation is expanded into its orbit, so reports are those
of the full scan.  Pairs are visited A outer, B inner, in listed order: a
capped scan takes the sizes in turn, but its counts are sums and its
witnesses sorted, so its report does not depend on that order; the extremal
search lists one size a side, so it meets pairs in ascending mask order.
Sampled pairs are drawn in sequence from a SplitMix64 stream, computed in
numpy blocks that hold the words the scalar draws would take.  A sampled
pair that its sizes settle is counted without the kernel: a product has at
least max(|A|, |B|) elements, one less when restricted, and a cd pair with
|A| + |B| > |G| has A * B = G (``_Scan.settle``).  Batches are cut by a
fixed memory budget and run in order on the calling thread, and their
results are merged in that order, so a report does not depend on how the
pairs were batched.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from itertools import product
from typing import Callable, Iterable

import numpy as np

from .groups import FiniteGroup, InputError, SubsetMask, iter_bits
from .jsonio import record_json
from .rng import SplitMix64
from .structure import automorphisms, minimal_torsion

THEOREMS = ("cd", "eh")
EXHAUSTIVE_DEFAULT_LIMIT = 11   # (2^11 - 1)^2 pairs is seconds of work
EXHAUSTIVE_HARD_CEILING = 20
EXTREMAL_SEARCH_CAP = 4_000_000   # ordered pairs find_extremal may list
# bytes in the largest array of one batch (2^19 uint16 words): a few MB of
# arrays in all
_BATCH_BYTES = 1 << 20
# listed pairs that one step of the automorphism search or one image of the
# orbit pass costs, about: a kernel pair takes a few ns, an image several
# gathers; below this ratio the reduction lost time on most scans measured
_ORBIT_COST = 16


def _check_theorem(theorem: str) -> str:
    t = theorem.lower()
    if t not in THEOREMS:
        raise InputError(f"theorem must be one of {THEOREMS}, got {theorem!r}")
    return t


def _size_slack(theorem: str) -> int:
    return 1 if theorem == "cd" else 3


def _check_mask(g: FiniteGroup, m: SubsetMask, name: str) -> None:
    if m.width != g.order:
        raise InputError(f"mask {name} has width {m.width}, group order is {g.order}")


# ---------------------------------------------------------------------------
# product sets


def product_set(g: FiniteGroup, a: SubsetMask, b: SubsetMask) -> SubsetMask:
    """The product set {xy : x in a, y in b} as a mask."""
    return _products(g, a, b, distinct=False)


def restricted_product_set(g: FiniteGroup, a: SubsetMask, b: SubsetMask) -> SubsetMask:
    """The product set restricted to pairs of distinct elements (x != y)."""
    return _products(g, a, b, distinct=True)


def _products(g: FiniteGroup, a: SubsetMask, b: SubsetMask, distinct: bool) -> SubsetMask:
    _check_mask(g, a, "a")
    _check_mask(g, b, "b")
    xs = np.array(a.elements(), dtype=np.intp)
    ys = np.array(b.elements(), dtype=np.intp)
    products = g.op[xs[:, None], ys]
    if distinct:
        products = products[xs[:, None] != ys]
    member = np.zeros(g.order, dtype=bool)
    member[products] = True     # table entries lie in 0..order-1
    return SubsetMask.from_member(member)


# ---------------------------------------------------------------------------
# bound checks


@dataclass(frozen=True)
class BoundCheck:
    """One pair's bound evaluation, with the witness masks."""

    group: str
    a: SubsetMask
    b: SubsetMask
    a_size: int
    b_size: int
    product_size: int
    p_g: float
    bound: int
    holds: bool

    def to_json_dict(self) -> dict:
        return record_json(self)


def cd_bound(g: FiniteGroup, a: SubsetMask, b: SubsetMask,
             theorem: str = "cd") -> BoundCheck:
    """Evaluate the product-size lower bound for one pair.

    Plain products require nonempty sets; the restricted variant accepts any
    sets (its bound can be negative, making the check vacuous).
    """
    theorem = _check_theorem(theorem)
    if theorem == "cd" and (len(a) == 0 or len(b) == 0):
        raise InputError("plain product bound requires nonempty sets")
    product = (product_set if theorem == "cd" else restricted_product_set)(g, a, b)
    return _make_check(g, theorem, a.bits, b.bits, len(product),
                       minimal_torsion(g), size_bound(g, len(a), len(b), theorem))


def size_bound(g: FiniteGroup, a_size: int, b_size: int, theorem: str = "cd") -> int:
    """The bound min(p(G), |A| + |B| - s) for sets of the given sizes, where
    s is 1 for plain products and 3 for restricted ones."""
    slack = _size_slack(_check_theorem(theorem))
    return int(min(minimal_torsion(g), a_size + b_size - slack))


# ---------------------------------------------------------------------------
# verification reports


@dataclass(frozen=True)
class Caps:
    """Size caps for capped verification; None means unconstrained."""

    max_a_size: int | None = None
    max_b_size: int | None = None
    sum_cap: int | None = None

    def __post_init__(self):
        for name, least in (("max_a_size", 1), ("max_b_size", 1), ("sum_cap", 2)):
            value = getattr(self, name)
            if value is not None and value < least:
                raise InputError(f"{name} must be at least {least}, got {value}")

    def to_json_dict(self) -> dict:
        return {
            "kind": "size_capped",
            "max_a_size": self.max_a_size,
            "max_b_size": self.max_b_size,
            "sum_cap": self.sum_cap,
        }


@dataclass(frozen=True)
class SamplingPlan:
    """Seeded sampling: ``count`` pairs, uniform over nonempty masks or of
    fixed sizes (|A|, |B|)."""

    seed: int
    count: int
    fixed_sizes: tuple[int, int] | None = None

    def __post_init__(self):
        if self.count < 1:
            raise InputError("count must be >= 1")

    def to_json_dict(self) -> dict:
        dist = ("uniform" if self.fixed_sizes is None
                else {"fixed_sizes": list(self.fixed_sizes)})
        return {"kind": "sampled", "seed": self.seed, "count": self.count,
                "distribution": dist}


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of a verification run."""

    group: str
    group_order: int
    theorem: str
    mode: dict
    p_g: float
    pairs_checked: int
    violations: tuple[BoundCheck, ...]
    extremal_count: int

    def to_json_dict(self) -> dict:
        return record_json(self, "sumsetlab.verification/1")


def _make_check(g, theorem, a_bits, b_bits, size, p, bound) -> BoundCheck:
    a = SubsetMask(a_bits, g.order)
    b = SubsetMask(b_bits, g.order)
    return BoundCheck(group=g.label, a=a, b=b, a_size=len(a), b_size=len(b),
                      product_size=size, p_g=p, bound=bound, holds=size >= bound)


# ---------------------------------------------------------------------------
# the batched product-size kernel


def _padded(member: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sizes and padded element lists of the nonempty rows of a 0/1
    membership array: row k lists row k's elements in ascending order,
    padded to the longest row by repeating its first element, which leaves
    an OR over the row unchanged."""
    n = member.shape[1]
    sizes = member.sum(axis=1, dtype=np.intp)
    # members keep their index, the others sort last as n
    pad = np.where(member.view(bool), np.arange(n), n)
    pad.sort(axis=1)
    pad = pad[:, :sizes.max(initial=1)]
    return sizes, np.where(pad < n, pad, pad[:, :1])


class _Scan:
    """What every batch of one run shares.

    ``bound(sa, sb)`` is the bound for sets of sizes (sa, sb), or ``skip``
    (below every size, so neither extremal nor a violation) where the caps
    leave that size pair out; sizes run to ``max_a`` and ``max_b``.
    ``collect`` picks the pairs to report from (sizes, bounds): ``np.less``
    finds violations, ``np.equal`` extremal pairs (at most ``limit`` a
    batch).  With ``orbits``, ``pivot_a`` and ``pivot_b`` say which sides
    list only the sets that hold element 0, and ``auts`` which automorphisms
    fold the A side (see ``reduce``).

    The scan keeps its batch-sized work arrays for the whole run: made per
    batch, they went back to the OS and were faulted in again whenever
    glibc's trim threshold, set by what the process freed before, sat below
    them (the Z/13 exhaustive scan took 0.15 s or 0.27 s by process).
    """

    skip = np.iinfo(np.int16).min

    def __init__(self, g: FiniteGroup, theorem: str, max_a: int, max_b: int,
                 sum_cap: int | None = None, collect: Callable = np.less,
                 orbits: bool = False, limit: int | None = None):
        self.g = g
        self.theorem = theorem
        self.p = minimal_torsion(g)
        self.collect = collect
        self.limit = limit
        self.orbits = orbits
        self.pivot_a = orbits and (theorem == "cd" or g.is_abelian())
        self.pivot_b = orbits and theorem == "cd"
        # each listed B is weighted lcm / |B|: integers, at most lcm(1..20)
        self.lcm = math.lcm(*range(1, max_b + 1)) if self.pivot_b else 1
        # masks: the narrowest little-endian word that holds n bits, or
        # ceil(n / 64) uint64 words
        word = 16 if g.order <= 16 else 32 if g.order <= 32 else 64
        self.dtype, self.words = np.dtype(f"<u{word // 8}"), -(-g.order // word)
        self.bits = word * self.words
        self.max_a, self.max_b, self.sum_cap = max_a, max_b, sum_cap
        self.slack, self.top = _size_slack(theorem), min(self.p, 2 * g.order)
        self._buffers = {}

    def bound(self, a_sizes, b_sizes) -> np.ndarray:
        """The int16 bounds for sets of sizes ``a_sizes`` and ``b_sizes``
        (broadcast together), ``skip`` where |A| + |B| passes ``sum_cap``."""
        total = np.add(a_sizes, b_sizes)
        bounds = np.minimum(total - self.slack, self.top)
        if self.sum_cap is not None:
            bounds = np.where(total > self.sum_cap, self.skip, bounds)
        return np.asarray(bounds, dtype=np.int16)

    def buffer(self, name: str, shape: tuple[int, ...], dtype) -> np.ndarray:
        """The scan's work array ``name``, viewed as ``shape``; its contents
        are left from the last batch."""
        size = math.prod(shape)
        buf = self._buffers.get(name)
        if buf is None or buf.size < size:
            buf = self._buffers[name] = np.empty(size, dtype=dtype)
        return buf[:size].reshape(shape)

    def popcount(self, words: np.ndarray) -> np.ndarray:
        """The int16 size of each word-packed mask (last axis: its words)."""
        if words.dtype == np.uint16:
            # numpy's uint16 bitwise_count is not vectorised, its uint8 one
            # is: count bytes, then one multiply adds each word's two counts
            octets = words.view(np.uint8)
            counts = np.bitwise_count(
                octets, out=self.buffer("counts", octets.shape, np.uint8)).view(np.uint16)
            counts *= 257
            counts >>= 8
            return counts[..., 0].view(np.int16)
        counts = np.bitwise_count(words, out=self.buffer("counts", words.shape, np.uint8))
        return counts.sum(axis=-1, dtype=np.int16,
                          out=self.buffer("sizes", words.shape[:-1], np.int16))

    def masks(self, a_pad: np.ndarray, b_pad: np.ndarray | None = None) -> np.ndarray:
        """The kernel: word-packed product masks for a batch of sets A_k,
        row k of ``a_pad`` holding A_k's padded elements.

        Without ``b_pad``: the column masks, [k, y] = A_k * y, shaped (K, n,
        words).  With it: [k] = A_k * B_k, shaped (K, words).  For eh the
        product x * y with x == y is left out.  Each product sets a byte of a
        plane with one row per mask (and a spare row for the products left
        out); packing the plane gives the words.
        """
        n = self.g.order
        k = np.arange(len(a_pad))[:, None, None]
        xs = a_pad[:, :, None]
        if b_pad is None:
            ys = np.arange(n)[None, None, :]
            rows, count = k * n + ys, len(a_pad) * n
        else:
            ys = b_pad[:, None, :]
            rows, count = k, len(a_pad)
        if self.theorem == "eh":
            rows = np.where(xs == ys, count, rows)
        plane = self.buffer("plane", (count + 1, self.bits), np.uint8)
        plane.fill(0)
        plane.reshape(-1)[rows * self.bits + self.g.op.reshape(-1).take(xs * n + ys)] = 1
        words = np.packbits(plane[:count], axis=1, bitorder="little").view(self.dtype)
        return words.reshape(len(a_pad), n, self.words) if b_pad is None else words

    def score(self, sizes: np.ndarray, bounds: np.ndarray, rows_of: Callable,
              count: Callable = np.count_nonzero):
        """The extremal count (``count`` of the pairs that meet the bound)
        and the pairs collected from one batch: none, or one tuple of arrays
        (A rows, B rows, sizes, bounds) in row-major order, which is
        ascending (A, B) mask order where each side is one size, as in the
        extremal search; ``rows_of(r, c)`` gives the element rows at r, c."""
        hits = np.equal(sizes, bounds, out=self.buffer("hits", sizes.shape, bool))
        extremal = count(hits)
        hits = self.collect(sizes, bounds, out=hits)
        if not hits.any():
            return extremal, []
        r, c = (index[:self.limit] for index in np.nonzero(hits))
        return extremal, [(*rows_of(r, c), sizes[r, c], bounds[r, c])]

    def settle(self, a_sizes, b_sizes):
        """Which pairs of these sizes are decided by the sizes alone, and how
        many of those meet the bound.  A * y is a translate of A, so |A * B|
        >= max(|A|, |B|), one less for eh (x * y skips only x = y): a pair
        whose bound is below that is neither extremal nor a violation.  A cd
        pair with |A| + |B| > |G| has A * B = G by pigeonhole (A meets every
        g * B^-1), so it is extremal where the bound is |G|."""
        n = self.g.order
        bounds = self.bound(a_sizes, b_sizes)
        full = (a_sizes + b_sizes > n) & (self.theorem == "cd")
        least = np.maximum(a_sizes, b_sizes) - (self.theorem == "eh")
        return full | (least > bounds), int(np.count_nonzero(full & (bounds == n)))

    def reduce(self, keys: np.ndarray | None, a_sets: int, b_sets: int):
        """Which of the ``a_sets`` A sets, with int64 masks ``keys`` (None
        above order 62), are least in their orbit under ``auts``, as a
        row selection, and their orbit sizes: |auts| over the sigma that fix
        the set.  ``auts`` is the automorphisms that fix element 0 when masks
        fit an int64 and the search, candidates * n, and the orbit pass, at
        most candidates * |A side|, each cost at most the listed pairs, a
        step counting ``_ORBIT_COST`` pairs; else the identity row."""
        n = self.g.order
        limit = a_sets * b_sets // (_ORBIT_COST * max(n, a_sets))
        auts = automorphisms(self.g, limit) if limit > 1 and keys is not None else None
        self.auts = np.arange(n)[None] if auts is None else auts[auts[:, 0] == 0]
        if len(self.auts) == 1:
            return slice(None), np.ones(a_sets, dtype=np.int64)
        least = np.ones(len(keys), dtype=bool)
        fixed = np.zeros(len(keys), dtype=np.int64)
        step = max(1, _BATCH_BYTES // (3 * keys.nbytes))
        for lo in range(0, len(self.auts), step):
            image = _mask_images(self.auts[lo:lo + step], keys)
            least &= (image >= keys).all(axis=0)
            fixed += (image == keys).sum(axis=0)
        return least, len(self.auts) // fixed[least]

    def report(self, mode: dict, results: Iterable, pairs: int = 0) -> VerificationReport:
        """Merge batch results, in order, into the run's report, with masks
        of the collected rows; an orbit scan counts pairs from the size table."""
        extremal, found = 0, []
        for batch_extremal, batch_found in results:
            extremal += batch_extremal
            for a_rows, b_rows, sizes, bounds in batch_found:
                found.extend(zip(_row_masks(a_rows), _row_masks(b_rows), sizes.tolist(),
                                 bounds.tolist()))
        if self.orbits:
            pairs, extremal, found = self.unreduce(extremal, found)
        violations = tuple(_make_check(self.g, self.theorem, a_bits, b_bits, size,
                                       self.p, bound)
                           for a_bits, b_bits, size, bound in found)
        return VerificationReport(
            group=self.g.label, group_order=self.g.order, theorem=self.theorem,
            mode=mode, p_g=self.p, pairs_checked=pairs, violations=violations,
            extremal_count=int(extremal))

    def unreduce(self, hits: np.ndarray, found: list) -> tuple[int, int, list]:
        """The pair count, extremal count and violations of the full scan,
        from the listed pairs.

        ``hits[a]`` sums the tight listed pairs with |A| = a, each weighted
        by A's orbit size (sigma maps the pairs of A one to one onto those
        of sigma(A)) and by lcm / |B| where B is reduced.  By double
        counting: exactly |A| of the n translates of a set A hold element 0,
        and each listed set is the translate of n (set, shift) pairs.  So the
        full scan has R(a, b) * n^2 / (a * b) tight pairs of sizes (a, b) for
        cd, R(a, b) * n / a for abelian eh and R(a, b) for other eh, R(a, b)
        counting the weighted ones; a remainder means the listing was wrong.
        """
        n = self.g.order
        sizes = np.ogrid[1:self.max_a + 1, 1:self.max_b + 1]
        cells = np.argwhere(self.bound(*sizes) != self.skip) + 1
        pairs = sum(math.comb(n, a) * math.comb(n, b) for a, b in cells.tolist())
        extremal = 0
        for a, weighted in enumerate(hits.tolist()):
            if weighted:
                tight, left = divmod(weighted * n ** (self.pivot_a + self.pivot_b),
                                     a ** self.pivot_a * self.lcm)
                if left:
                    raise ArithmeticError(f"orbit count for |A| = {a} is not whole")
                extremal += tight
        # every image (sigma(A), sigma(B)) of a witness is one, and so is each
        # translate of those: (gA, Bh) for cd, (A + g, B + g) for abelian eh
        op, orbit = self.g.op, set()
        for a_bits, b_bits, size, bound in found:
            for a, b in zip(_row_masks(self.auts[:, list(iter_bits(a_bits))]),
                            _row_masks(self.auts[:, list(iter_bits(b_bits))])):
                lefts = _row_masks(op[:, list(iter_bits(a))]) if self.pivot_a else [a]
                rights = _row_masks(op[list(iter_bits(b))].T) if self.pivot_a else [b]
                orbit.update((x, y, size, bound) for x, y in
                             (product(lefts, rights) if self.pivot_b else zip(lefts, rights)))
        return pairs, extremal, sorted(orbit)


def _row_masks(rows: np.ndarray) -> list[int]:
    """The mask of each row's elements (a row may repeat one); in int64
    where every element is below 63."""
    if rows.max(initial=0) < 63:
        return np.bitwise_or.reduce(np.left_shift(1, rows, dtype=np.int64), axis=1).tolist()
    return [sum({1 << x for x in row}) for row in rows.tolist()]


def _mask_images(auts: np.ndarray, masks: np.ndarray) -> np.ndarray:
    """[s, r]: the mask of sigma_s(A_r), for the int64 masks of sets A_r of
    at most 62 elements: one table lookup per byte of the mask."""
    count, n = auts.shape
    moved = np.zeros((count, -(-n // 8) * 8), dtype=np.int64)
    moved[:, :n] = np.left_shift(1, auts, dtype=np.int64)
    moved = moved.reshape(count, -1, 8).transpose(1, 0, 2)
    # tables[j, s, v]: sigma_s of the elements in byte j when it reads v, by
    # subset doubling: v with top bit i is v - 2^i plus bit i
    tables = np.zeros((len(moved), count, 256), dtype=np.int64)
    for i in range(8):
        np.bitwise_or(tables[..., :1 << i], moved[..., i:i + 1],
                      out=tables[..., 1 << i:2 << i])
    images = tables[0].take(masks & 255, axis=1)
    for j in range(1, len(tables)):
        images |= tables[j].take((masks >> 8 * j) & 255, axis=1)
    return images


# ---------------------------------------------------------------------------
# exhaustive and capped verification


def verify_exhaustive(
    g: FiniteGroup,
    theorem: str = "cd",
    caps: Caps | None = None,
    *,
    exhaustive_limit: int = EXHAUSTIVE_DEFAULT_LIMIT,
) -> VerificationReport:
    """Check the bound over all ordered pairs of nonempty subsets.

    Without caps the order may not exceed min(``exhaustive_limit``,
    ``EXHAUSTIVE_HARD_CEILING``), the limit its refusal names; with caps only
    pairs with |A| <= max_a_size, |B| <= max_b_size and |A| + |B| <= sum_cap
    are covered, and ``_sets_by_size`` refuses a side too large to list.

    The scan lists one pair per orbit (see the module docstring): of the
    sets A that hold element 0 (every set for non-abelian eh), the least in
    each orbit of the automorphisms that fix 0, if the order is at most 62
    and finding them and the orbit pass each cost at most the pairs listed,
    a step counting as ``_ORBIT_COST`` pairs (``_Scan.reduce``); B runs over
    the sets that hold 0 for cd, every set for eh.  The report is that of
    the full scan: counts are weighted back exactly and violations expanded
    into their orbits.  This holds on groups only; every group that
    reaches the engine is validated or built from a factor system.
    """
    theorem = _check_theorem(theorem)
    n = g.order
    if caps is None:
        if n > (limit := min(exhaustive_limit, EXHAUSTIVE_HARD_CEILING)):
            raise InputError(
                f"order {n} exceeds the exhaustive limit {limit}; use caps or sampling")
        scan = _Scan(g, theorem, n, n, orbits=True)
        b_sizes = np.bitwise_count(np.arange(1, 1 << n, 1 + scan.pivot_b,
                                             dtype=np.uint64)).astype(np.intp)
        keys = np.arange(1, 1 << n, 1 + scan.pivot_a, dtype=np.int64)
        select, a_orbits = scan.reduce(keys, len(keys), len(b_sizes))
        a_masks = keys[select]
        results = _grid_scan(scan, lambda part: _unpacked(a_masks[part], n),
                             a_orbits, b_sizes, None)
        mode = {"kind": "exhaustive"}
    else:
        top = n if caps.sum_cap is None else min(n, caps.sum_cap - 1)
        max_a, max_b = (top if cap is None else min(top, cap)
                        for cap in (caps.max_a_size, caps.max_b_size))
        scan = _Scan(g, theorem, max_a, max_b, caps.sum_cap, orbits=True)
        b_sizes, b_rows, _ = _sets_by_size(n, 1, max_b, scan.pivot_b)
        a_sizes, a_rows, keys = _sets_by_size(n, 1, max_a, scan.pivot_a)
        select, a_orbits = scan.reduce(keys, len(a_sizes), len(b_sizes))
        results = _grid_scan(scan, _listed(a_sizes[select], a_rows[select]), a_orbits,
                             b_sizes, b_rows)
        mode = caps.to_json_dict()
    return scan.report(mode, results)


def _sets_by_size(n: int, min_size: int, max_size: int, pivot: bool = False):
    """Every set of min_size to max_size of the elements 0..n-1 (with
    ``pivot``, those that hold 0), size by size and each size in ascending
    mask order: their sizes, their elements as rows of ``_slot_type(n)``
    (ascending, padded to max_size by repeating the first, as ``_padded``
    pads) and, up to order 62, their int64 masks, else None.

    Ascending mask order within a size is colex order, so the sets whose
    largest element is t are t added to a prefix of the size below, its sets
    below t; nothing is sorted.  It alone refuses a listing: more than
    2^EXHAUSTIVE_HARD_CEILING sets, as many as an exhaustive scan may cover,
    are refused before any is listed, whether or not the scan lists them all.
    """
    count = sum(math.comb(n, size) for size in range(min_size, max_size + 1))
    if count > 1 << EXHAUSTIVE_HARD_CEILING:
        raise InputError(f"{count} sets of size {min_size} to {max_size} of {n} elements "
                         f"exceed the listing limit 2^{EXHAUSTIVE_HARD_CEILING}")
    slot = _slot_type(n)
    # the level: the sets of one size as rows (0 first under pivot), their
    # largest elements and masks, kept to the prefix that min_size - size
    # larger elements can still complete; the next size adds each t in tops
    # to the level's first ends[t - pivot] sets, those below t
    level, last = np.zeros((1, int(pivot)), dtype=slot), np.full(1, pivot - 1)
    masks = np.full(1, pivot, dtype=np.int64) if n <= 62 else None
    sizes, rows, keys = [], [], []
    for size in range(pivot, max_size + 1):
        if size > pivot:
            tops = np.arange(pivot, n - max(min_size - size, 0))
            ends = np.searchsorted(last, tops)
            pick = np.arange(ends.sum()) - np.repeat(np.cumsum(ends) - ends, ends)
            last = np.repeat(tops, ends)
            level = np.concatenate((level[pick], last[:, None].astype(slot)), axis=1)
            masks = None if masks is None else masks[pick] | np.left_shift(1, last)
        if size >= min_size:
            sizes.append(np.full(len(level), size))
            rows.append(np.concatenate(
                (level, np.repeat(level[:, :1], max_size - size, axis=1)), axis=1))
            keys.append(masks)
    return (np.concatenate(sizes), np.concatenate(rows),
            None if masks is None else np.concatenate(keys))


def _unpacked(masks: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """``_padded`` of the sets with these int64 masks."""
    return _padded(((masks[:, None] >> np.arange(n)) & 1).astype(np.uint8))


def _listed(sizes: np.ndarray, rows: np.ndarray) -> Callable:
    """The A side of ``_grid_scan`` for listed sets: a slice's sizes and
    rows, widened to intp (x * n overflows a narrow row)."""
    return lambda part: (sizes[part], rows[part].astype(np.intp))


def _grid_scan(scan: _Scan, a_rows: Callable, a_orbits: np.ndarray,
               b_sizes: np.ndarray, b_rows: np.ndarray | None):
    """Batch results for every pair of an A set and a B set, in order.

    ``a_rows(part)`` gives the sizes and intp padded rows of the A sets in
    slice ``part``; ``a_orbits`` weighs each A's tight pairs in an orbit
    scan.  ``b_rows`` None means the B sets are every nonempty mask in order
    (every odd one with ``pivot_b``).
    """
    n = scan.g.order
    # [sa]: the bound of |A| = sa with each B; listed sides keep the sizes few
    bounds = scan.bound(*np.ogrid[:scan.max_a + 1, :scan.max_b + 1]).take(b_sizes, axis=1)
    # each listed B counts lcm / |B| tight pairs where B is reduced, else 1,
    # in a dtype that holds the sum over a row
    weights = scan.lcm // b_sizes if scan.pivot_b else np.ones_like(b_sizes)
    weights = weights.astype(np.int32 if weights.sum() < 1 << 31 else np.int64)
    # bytes per A: the product words over every B (two arrays of them while
    # gathering B's columns), the kernel's index array and its byte plane
    words = scan.dtype.itemsize * scan.words * (len(b_sizes) + 1)
    row = max(words if b_rows is None else 2 * words, 8 * scan.max_a * n,
              n * scan.bits)
    step = max(1, _BATCH_BYTES // row)
    batches = ((*a_rows(slice(lo, lo + step)), a_orbits[lo:lo + step])
               for lo in range(0, len(a_orbits), step))
    return map(partial(_grid_batch, scan, b_rows, bounds, weights), batches)


def _grid_batch(scan, b_rows, bounds, weights, batch):
    a_sizes, a_pad, a_orbits = batch
    a_bounds = scan.buffer("a_bounds", (len(a_sizes), bounds.shape[1]), np.int16)
    count = (partial(_tight_by_size, scan, a_sizes, weights, a_orbits) if scan.orbits
             else np.count_nonzero)
    return scan.score(_grid_sizes(scan, scan.masks(a_pad), b_rows),
                      bounds.take(a_sizes, axis=0, out=a_bounds, mode="clip"),
                      lambda r, c: (a_pad[r], b_rows[c] if b_rows is not None else
                                    _unpacked(1 + c * (1 + scan.pivot_b), scan.g.order)[1]),
                      count)


def _tight_by_size(scan: _Scan, a_sizes: np.ndarray, weights: np.ndarray,
                   a_orbits: np.ndarray, hits: np.ndarray) -> np.ndarray:
    """The weighted tight pairs of each row, times A's orbit size, summed by
    |A|.  int64 holds the sums, which are those of every A left listed by
    the translations: at most lcm(1..20) * 2^19 * 2^20 / 20 < 2^63 at order 20."""
    by_size = np.zeros(scan.max_a + 1, dtype=np.int64)
    np.add.at(by_size, a_sizes, np.einsum("ij,j->i", hits, weights) * a_orbits)
    return by_size


def _grid_sizes(scan: _Scan, cols: np.ndarray, b_pad: np.ndarray | None) -> np.ndarray:
    """sizes[k, j] = |A_k * B_j| from A_k's column masks."""
    k, n, words = cols.shape
    if b_pad is None:
        unions = scan.buffer("prods", (k, 1 << (n - scan.pivot_b), words), cols.dtype)
        _all_unions(cols, unions, scan.pivot_b)
        return scan.popcount(unions if scan.pivot_b else unions[:, 1:])
    shape = (k, len(b_pad), words)
    prods = np.take(cols, b_pad[:, 0], axis=1, mode="clip",
                    out=scan.buffer("prods", shape, cols.dtype))
    column = scan.buffer("column", shape, cols.dtype)
    for c in range(1, b_pad.shape[1]):
        prods |= np.take(cols, b_pad[:, c], axis=1, out=column, mode="clip")
    return scan.popcount(prods)


def _all_unions(cols: np.ndarray, unions: np.ndarray, pivot: bool) -> None:
    """Fill unions[k, m] with the mask of A_k * B for the set B with mask m,
    by subset doubling: masks with top bit i are those below 2^i OR column i.
    With ``pivot``, B has mask 2m + 1: seeded with column 0, doubled over
    columns 1..n-1."""
    n = cols.shape[1]
    unions[:, 0] = cols[:, 0] if pivot else 0
    for i in range(pivot, n):
        half = 1 << (i - pivot)
        np.bitwise_or(unions[:, :half], cols[:, i:i + 1], out=unions[:, half:2 * half])


# ---------------------------------------------------------------------------
# sampled verification


def verify_sampled(
    g: FiniteGroup,
    theorem: str = "cd",
    plan: SamplingPlan | None = None,
) -> VerificationReport:
    """Check the bound over seeded random pairs.

    Pairs are drawn in sequence from SplitMix64(seed) (A then B per pair,
    as ``nonempty_mask`` or ``subset_of_size`` draw them), one block at a
    time, so identical (seed, group, plan) reproduce identical reports and
    memory stays bounded for any count.
    """
    theorem = _check_theorem(theorem)
    if plan is None:
        raise InputError("sampled verification requires a SamplingPlan")
    n = g.order
    if plan.fixed_sizes is not None:
        sa, sb = plan.fixed_sizes
        if not (1 <= sa <= n and 1 <= sb <= n):
            raise InputError(f"fixed sizes must be in 1..{n}")
    scan = _Scan(g, theorem, n, n)
    # every pair of a fixed-size plan has the same sizes: if they settle it,
    # nothing is drawn
    settled, extremal = scan.settle(*plan.fixed_sizes) if plan.fixed_sizes else (False, 0)
    results = ([(extremal * plan.count, [])] if settled else
               map(partial(_sampled_batch, scan),
                   _sampled_batches(scan, SplitMix64(plan.seed), plan)))
    return scan.report(plan.to_json_dict(), results, plan.count)


def _sampled_batches(scan: _Scan, rng: SplitMix64, plan: SamplingPlan):
    """The plan's pairs in draw order, as (extremal, a_sizes, a_pad,
    b_sizes, b_pad): the extremal count of the pairs that ``scan.settle``
    decides, and the elements of the others.  Blocks are cut so that the
    largest draw array fits the byte budget even if no pair is settled: for
    uniform masks ``_padded``'s int64 sort key, 8n bytes a set; for fixed
    sizes the drawn words, 8 (|A| + |B|) bytes a pair, or the shuffle's
    slots, n a set."""
    n = scan.g.order
    if plan.fixed_sizes is None:
        per_pair, draw = 8 * n, partial(_uniform_pairs, scan)
    else:
        per_pair = max(8 * sum(plan.fixed_sizes), n * _slot_type(n).itemsize)
        draw = partial(_fixed_pairs, sizes=plan.fixed_sizes)
    block = max(1, _BATCH_BYTES // per_pair)
    for lo in range(0, plan.count, block):
        yield from draw(rng, n, min(block, plan.count - lo))


def _uniform_pairs(scan: _Scan, rng: SplitMix64, n: int, count: int):
    """``count`` pairs of uniform nonempty masks, as ``nonempty_mask`` draws
    them: ceil(n / 64) little-endian words per attempt, truncated to n bits,
    zero attempts dropped; accepted masks alternate A, B.  The sizes are
    counted on the words, and only the pairs they leave unsettled are
    unpacked."""
    width = -(-n // 64)
    top = np.uint64((1 << (n - 64 * (width - 1))) - 1)
    drawn, need = [], 2 * count
    while need:
        attempts = rng.words(need * width).reshape(need, width)
        attempts[:, -1] &= top
        attempts = attempts[attempts.any(axis=1)]
        drawn.append(attempts)
        need -= len(attempts)
    masks = np.concatenate(drawn)
    sizes = np.bitwise_count(masks).sum(axis=1, dtype=np.intp)
    settled, extremal = scan.settle(sizes[0::2], sizes[1::2])
    masks = masks[np.repeat(~settled, 2)].astype("<u8", copy=False).view(np.uint8)
    member = np.unpackbits(masks, axis=1, count=n, bitorder="little")
    yield extremal, *_padded(member[0::2]), *_padded(member[1::2])


def _fixed_pairs(rng: SplitMix64, n: int, count: int, sizes: tuple[int, int]):
    """``count`` pairs of masks of the given sizes, as ``subset_of_size``
    draws them: slot i of a partial Fisher-Yates shuffle of 0..n-1 is
    swapped with slot i + below(n - i), A's slots then B's.

    ``below(m)`` rejects a word v >= 2^64 - 2^64 mod m.  That is rare, but
    on one the pair is drawn by the scalar generator at its place in the
    stream, and the block draw resumes after it.
    """
    sa, sb = sizes
    moduli = [n - i for i in range(sa)] + [n - i for i in range(sb)]
    highest = np.array([(1 << 64) - 1 - (1 << 64) % m for m in moduli], dtype=np.uint64)
    moduli = np.array(moduli, dtype=np.uint64)
    while count:
        words = rng.words(count * len(moduli)).reshape(count, len(moduli))
        rejected = (words > highest).any(axis=1)
        good = int(rejected.argmax()) if rejected.any() else count
        if good:
            offsets = (words[:good] % moduli).astype(np.intp)
            yield (0, np.full(good, sa), _shuffled(offsets[:, :sa], n),
                   np.full(good, sb), _shuffled(offsets[:, sa:], n))
        if good < count:
            rng.jump((good - count) * len(moduli))
            a_bits, b_bits = rng.subset_of_size(n, sa), rng.subset_of_size(n, sb)
            yield (0, np.full(1, sa), np.array([list(iter_bits(a_bits))]),
                   np.full(1, sb), np.array([list(iter_bits(b_bits))]))
            good += 1
        count -= good


def _slot_type(n: int) -> np.dtype:
    """The narrowest integer type that holds 0..n-1."""
    return np.min_scalar_type(n - 1)


def _shuffled(offsets: np.ndarray, n: int) -> np.ndarray:
    """Row k: the first slots of a partial Fisher-Yates shuffle of 0..n-1
    that swaps slot i with slot i + offsets[k, i], one step for all rows."""
    count, size = offsets.shape
    perm = np.tile(np.arange(n, dtype=_slot_type(n)), (count, 1))
    rows = np.arange(count)
    for i in range(size):
        j = offsets[:, i] + i
        picked = perm[rows, j]
        perm[rows, j] = perm[:, i]
        perm[:, i] = picked
    return perm[:, :size].astype(np.intp)


def _sampled_batch(scan: _Scan, batch):
    """Score one block of drawn pairs: the extremal count of its settled
    pairs plus the kernel's over the unsettled ones, in batches cut where
    the kernel's padded (K, |A|, |B|) index arrays, two int64 arrays alive
    at a time (16 |A| |B| bytes a pair at the block's widest rows), would
    pass the byte budget.
    """
    extremal, a_sizes, a_pad, b_sizes, b_pad = batch
    found = []
    step = max(1, _BATCH_BYTES // (16 * a_pad.shape[1] * b_pad.shape[1]))
    for lo in range(0, len(a_sizes), step):
        part = slice(lo, lo + step)
        tight, hits = scan.score(
            scan.popcount(scan.masks(a_pad[part], b_pad[part])[:, None]),
            scan.bound(a_sizes[part], b_sizes[part])[:, None],
            lambda r, c: (a_pad[lo + r], b_pad[lo + r]))
        extremal += tight
        found.extend(hits)
    return extremal, found


# ---------------------------------------------------------------------------
# extremal search


def find_extremal(
    g: FiniteGroup,
    size_a: int,
    size_b: int,
    *,
    limit: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """All pairs with the given sizes whose product meets the bound exactly,
    as intp arrays of A rows and of B rows, each a set's sorted elements.

    Pairs come out in ascending mask order (A outer, B inner); ``limit``
    truncates to the first N.  Raises if the search space exceeds
    ``EXTREMAL_SEARCH_CAP`` ordered pairs; ``_sets_by_size`` refuses a side of
    over 2^EXHAUSTIVE_HARD_CEILING sets (the other then has at most three).
    """
    n = g.order
    if not (1 <= size_a <= n and 1 <= size_b <= n):
        raise InputError(f"sizes must be in 1..{n}")
    if limit is not None and limit < 1:
        raise InputError(f"limit must be at least 1, got {limit}")
    space = math.comb(n, size_a) * math.comb(n, size_b)
    if space > EXTREMAL_SEARCH_CAP:
        raise InputError(
            f"search space of {space} pairs exceeds cap {EXTREMAL_SEARCH_CAP}")
    scan = _Scan(g, "cd", size_a, size_b, collect=np.equal, limit=limit)
    a_sizes, a_rows, _ = _sets_by_size(n, size_a, size_a)
    b_sizes, b_rows, _ = _sets_by_size(n, size_b, size_b)
    found = [(a_rows[:0], b_rows[:0], None, None)]     # the result if no pair is tight
    for _, pairs in _grid_scan(scan, _listed(a_sizes, a_rows), np.ones(len(a_sizes)),
                               b_sizes, b_rows):
        found.extend(pairs)
        if limit is not None and sum(len(a) for a, _, _, _ in found) >= limit:
            break
    a_found, b_found, _, _ = zip(*found)
    return tuple(np.concatenate(rows, dtype=np.intp)[:limit] for rows in (a_found, b_found))
