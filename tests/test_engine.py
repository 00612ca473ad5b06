import json
import math
import tracemalloc
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sumsetlab import engine
from sumsetlab.corpus import CORPUS_SPECS
from sumsetlab.engine import (Caps, SamplingPlan, _Scan,
                              cd_bound, find_extremal, product_set,
                              restricted_product_set, size_bound,
                              verify_exhaustive, verify_sampled)
from conftest import run_cli
from reference import extension_from_factor_system, moved_identity
from sumsetlab.factor_system import build_factor_system
from sumsetlab.groups import InputError, SubsetMask, build_group, cached_group
from sumsetlab.jsonio import dumps_stable
from sumsetlab.rng import SplitMix64
from sumsetlab.structure import INFINITY, automorphisms, generated_subgroup


def mask(width, *elements):
    return SubsetMask.from_elements(width, elements)


# a batch budget that cuts most scans below into several batches
SMALL_BUDGET = 1 << 12


def small_and_default(run):
    """``run()`` under ``SMALL_BUDGET``, then under the default budget."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "_BATCH_BYTES", SMALL_BUDGET)
        small = run()
    return small, run()


def extremal_masks(g, size_a, size_b, limit=None):
    """``find_extremal``'s pairs as (A mask, B mask), after checking that it
    returns one row of each side per pair, each row the set's distinct
    elements in ascending order."""
    a_rows, b_rows = find_extremal(g, size_a, size_b, limit=limit)
    assert a_rows.shape == (len(b_rows), size_a) and b_rows.shape == (len(a_rows), size_b)
    pairs = []
    for a, b in zip(a_rows.tolist(), b_rows.tolist()):
        assert a == sorted(set(a)) and b == sorted(set(b))
        pairs.append((sum(1 << x for x in a), sum(1 << x for x in b)))
    return pairs


def naive_product(g, a, b, restricted=False):
    """Oracle: plain double loop into a python set."""
    return {
        g.op[x, y]
        for x in a.elements()
        for y in b.elements()
        if not (restricted and x == y)
    }


def test_product_set_examples():
    q = build_group("quaternion")
    assert product_set(q, mask(8, 2), mask(8, 2)).elements() == (1,)
    z5 = build_group("cyclic:5")
    assert product_set(z5, mask(5, 0, 1), mask(5, 0, 2)).elements() == (0, 1, 2, 3)
    b = mask(5, 1, 3, 4)
    assert product_set(z5, mask(5, 0), b).bits == b.bits


def test_restricted_product_examples():
    z5 = build_group("cyclic:5")
    s = mask(5, 0, 1, 2)
    assert restricted_product_set(z5, s, s).elements() == (1, 2, 3)
    z7 = build_group("cyclic:7")
    assert restricted_product_set(z7, mask(7, 3), mask(7, 3)).elements() == ()
    assert restricted_product_set(z7, mask(7, 0), mask(7, 0, 1)).elements() == (1,)


def test_mask_width_validation():
    z5 = build_group("cyclic:5")
    with pytest.raises(ValueError):
        product_set(z5, mask(6, 0), mask(5, 0))


@settings(max_examples=80)
@given(
    spec=st.sampled_from(["cyclic:7", "quaternion", "heisenberg:3", "dihedral:5"]),
    data=st.data(),
)
def test_product_set_matches_naive_oracle(spec, data):
    g = cached_group(spec) if spec != "dihedral:5" else build_group("dihedral:5")
    top = (1 << g.order) - 1
    a = SubsetMask(data.draw(st.integers(1, top)), g.order)
    b = SubsetMask(data.draw(st.integers(1, top)), g.order)
    assert set(product_set(g, a, b).elements()) == naive_product(g, a, b)
    assert set(restricted_product_set(g, a, b).elements()) == naive_product(
        g, a, b, restricted=True
    )


# orders on each side of a byte of the packed mask, from the trivial group
# up: a cyclic group of each order and, where one exists, a non-abelian one
# (every group of order 7, 9, 15, 17 or 65 is abelian; order 9 has a
# non-cyclic one)
PACKING_SPECS = ["cyclic:1", "cyclic:7", "cyclic:8", "quaternion", "cyclic:9",
                 "product:cyclic:3,cyclic:3", "cyclic:15", "cyclic:16", "dihedral:8",
                 "cyclic:17", "cyclic:63", "product:frobenius:7:3:2,cyclic:3",
                 "cyclic:64", "dihedral:32", "cyclic:65"]


@pytest.mark.parametrize("spec", PACKING_SPECS)
def test_product_sets_match_the_naive_product_at_byte_boundaries(spec):
    g = build_group(spec)
    n = g.order
    assert n in (1, 7, 8, 9, 15, 16, 17, 63, 64, 65)
    top, last = (1 << n) - 1, 1 << (n - 1)
    rng = SplitMix64(n)
    pairs = [(last, last), (top, last), (last, top), (top, top), (1, top)]
    pairs += [(rng.nonempty_mask(n), rng.nonempty_mask(n)) for _ in range(24)]
    for a_bits, b_bits in pairs:
        a, b = SubsetMask(a_bits, n), SubsetMask(b_bits, n)
        for product, restricted in ((product_set, False), (restricted_product_set, True)):
            want = sum(1 << int(x) for x in naive_product(g, a, b, restricted))
            assert product(g, a, b).bits == want


def test_interval_products_in_a_large_cyclic_group():
    # |A + B| = min(n, k + m - 1) for intervals; distinct sums of one
    # interval {0..k-1} fill 1..2k-3
    g = build_group("cyclic:4093")
    k = m = 2000
    a, b = SubsetMask((1 << k) - 1, 4093), SubsetMask((1 << m) - 1, 4093)
    assert product_set(g, a, b).bits == (1 << min(4093, k + m - 1)) - 1
    assert restricted_product_set(g, a, a).bits == (1 << (2 * k - 3)) - 1 << 1


@settings(max_examples=80)
@given(data=st.data())
def test_product_size_bounds_and_identity_laws(data):
    g = cached_group("heisenberg:3")
    top = (1 << 27) - 1
    a = SubsetMask(data.draw(st.integers(1, top)), 27)
    b = SubsetMask(data.draw(st.integers(1, top)), 27)
    prod = product_set(g, a, b)
    assert max(len(a), len(b)) <= len(prod) <= len(a) * len(b)
    ident = mask(27, g.identity)
    assert product_set(g, a, ident).bits == a.bits
    assert product_set(g, ident, b).bits == b.bits
    restricted = restricted_product_set(g, a, b)
    assert restricted.bits & ~prod.bits == 0
    if a.bits & b.bits == 0:
        assert restricted.bits == prod.bits


def test_cd_bound_examples():
    q = build_group("quaternion")
    check = cd_bound(q, mask(8, 2), mask(8, 2))
    assert (check.bound, check.product_size, check.holds) == (1, 1, True)
    # |A| = 3, |B| = 2 pairs: bound = min(2, 4) = 2, always met
    from itertools import combinations
    for a_elts in combinations(range(8), 3):
        for b_elts in combinations(range(8), 2):
            c = cd_bound(q, mask(8, *a_elts), mask(8, *b_elts))
            assert c.bound == 2 and c.holds
    z7 = build_group("cyclic:7")
    c = cd_bound(z7, mask(7, 0, 1, 2, 3), mask(7, 0, 1, 2, 3))
    assert c.product_size == 7 and c.bound == 7 and c.holds


def test_cd_bound_rejects_empty_sets_in_plain_mode():
    z5 = build_group("cyclic:5")
    with pytest.raises(ValueError):
        cd_bound(z5, SubsetMask(0, 5), mask(5, 0))
    # the restricted variant tolerates empty and singleton sets
    c = cd_bound(z5, mask(5, 2), mask(5, 2), theorem="eh")
    assert c.product_size == 0 and c.bound == -1 and c.holds


def test_exhaustive_z5_matches_brute_force_oracle():
    z5 = build_group("cyclic:5")
    report = verify_exhaustive(z5, "cd")
    pairs = violations = extremal = 0
    for am in range(1, 32):
        for bm in range(1, 32):
            a = SubsetMask(am, 5)
            b = SubsetMask(bm, 5)
            size = len(naive_product(z5, a, b))
            bound = min(5, len(a) + len(b) - 1)
            pairs += 1
            violations += size < bound
            extremal += size == bound
    assert report.pairs_checked == pairs == 961
    assert len(report.violations) == violations == 0
    assert report.extremal_count == extremal


def test_exhaustive_eh_z3_counts_nonempty_pairs():
    z3 = build_group("cyclic:3")
    report = verify_exhaustive(z3, "eh")
    assert report.pairs_checked == 49
    assert report.violations == ()


def test_exhaustive_eh_matches_brute_force_on_z5():
    z5 = build_group("cyclic:5")
    report = verify_exhaustive(z5, "eh")
    extremal = 0
    for am in range(1, 32):
        for bm in range(1, 32):
            a = SubsetMask(am, 5)
            b = SubsetMask(bm, 5)
            size = len(naive_product(z5, a, b, restricted=True))
            bound = min(5, len(a) + len(b) - 3)
            assert size >= bound
            extremal += size == bound
    assert report.extremal_count == extremal
    assert report.violations == ()


def test_exhaustive_respects_order_limit():
    c25 = build_group("cyclic:25")
    with pytest.raises(ValueError, match="exhaustive limit"):
        verify_exhaustive(c25, "cd")


def test_exhaustive_quaternion_and_dihedral_have_no_violations():
    for spec in ("quaternion", "dihedral:5"):
        report = verify_exhaustive(build_group(spec), "cd")
        assert report.violations == ()
        assert report.pairs_checked == (2 ** report.group_order - 1) ** 2


def test_capped_counts_match_combinatorics():
    h = build_group("heisenberg:3")
    report = verify_exhaustive(h, "cd", Caps(max_a_size=2, max_b_size=2))
    per_side = math.comb(27, 1) + math.comb(27, 2)
    assert report.pairs_checked == per_side ** 2
    assert report.violations == ()
    assert report.mode["kind"] == "size_capped"


def test_capped_sum_cap_counts():
    z7 = build_group("cyclic:7")
    report = verify_exhaustive(z7, "cd", Caps(max_a_size=3, max_b_size=3, sum_cap=4))
    want = sum(
        math.comb(7, sa) * math.comb(7, sb)
        for sa in range(1, 4)
        for sb in range(1, 4)
        if sa + sb <= 4
    )
    assert report.pairs_checked == want
    assert report.violations == ()


# orders on each side of every word boundary of the kernel's masks
# heisenberg:7 (order 343): x * n + y passes 2^15, where an int16 index wraps
BOUNDARY_SPECS = ["dihedral:8", "cyclic:17", "dihedral:16", "cyclic:33",
                  "dihedral:32", "cyclic:65", "heisenberg:5", "heisenberg:7"]


def _rows(masks, n):
    """Sizes and padded element rows of n-bit masks, as the engine pads
    them."""
    return engine._padded(np.array([[m >> x & 1 for x in range(n)] for m in masks],
                                   dtype=np.uint8))


def _mask_ints(words):
    """Word-packed masks (last axis: little-endian words) as python ints."""
    flat = words.reshape(-1, words.shape[-1])
    return [int.from_bytes(row.tobytes(), "little") for row in flat]


@pytest.mark.parametrize("spec", BOUNDARY_SPECS)
@pytest.mark.parametrize("theorem", ["cd", "eh"])
def test_kernel_matches_the_naive_product_at_word_boundaries(spec, theorem):
    g = build_group(spec)
    n = g.order
    oracle = product_set if theorem == "cd" else restricted_product_set
    rng = SplitMix64(n)
    a_masks = [rng.nonempty_mask(n) for _ in range(12)]
    b_masks = [rng.subset_of_size(n, 1 + rng.below(n)) for _ in range(12)]
    a_masks[0] = b_masks[0] = 1 << (n - 1)
    scan = _Scan(g, theorem, n, n)
    a_sizes, a_pad = _rows(a_masks, n)
    b_sizes, b_pad = _rows(b_masks, n)
    assert list(a_sizes) == [m.bit_count() for m in a_masks]
    pair_masks = _mask_ints(scan.masks(a_pad, b_pad))
    columns = _mask_ints(scan.masks(a_pad))
    sizes = scan.popcount(scan.masks(a_pad, b_pad)[:, None])
    for k, (a_bits, b_bits) in enumerate(zip(a_masks, b_masks)):
        want = oracle(g, SubsetMask(a_bits, n), SubsetMask(b_bits, n))
        assert pair_masks[k] == want.bits
        assert sizes[k, 0] == len(want)
        for y in range(n):
            col = oracle(g, SubsetMask(a_bits, n), SubsetMask(1 << y, n))
            assert columns[k * n + y] == col.bits


def test_scan_work_arrays_are_reused_within_one_scan_only():
    g = build_group("cyclic:5")
    scan, other = _Scan(g, "cd", 5, 5), _Scan(g, "cd", 5, 5)
    first = scan.buffer("work", (4, 8), np.int16)
    assert np.shares_memory(first, scan.buffer("work", (2, 8), np.int16))
    grown = scan.buffer("work", (5, 8), np.int16)
    assert grown.shape == (5, 8)
    assert np.shares_memory(grown, scan.buffer("work", (4, 8), np.int16))
    assert not np.shares_memory(grown, other.buffer("work", (5, 8), np.int16))


def test_capped_mode_works_above_64_elements():
    g = build_group("cyclic:65")
    report = verify_exhaustive(g, "cd", Caps(max_a_size=1, max_b_size=2))
    per_b = 65 + math.comb(65, 2)
    assert report.pairs_checked == 65 * per_b
    assert report.violations == ()
    # |A| = 1 translates B, so every pair meets the bound exactly
    assert report.extremal_count == report.pairs_checked


LISTER_RANGES = {1: [(1, 1)], 2: [(1, 1), (1, 2), (2, 2)],
                 5: [(1, 5), (2, 3), (3, 5), (5, 5)], 13: [(1, 13), (4, 6), (11, 13)],
                 27: [(1, 3), (2, 3), (25, 27)], 62: [(1, 2), (2, 3), (60, 62)],
                 63: [(1, 2), (61, 63)], 64: [(1, 2), (62, 64)], 70: [(1, 2), (68, 70)]}


@pytest.mark.parametrize("pivot", [False, True])
@pytest.mark.parametrize("n", sorted(LISTER_RANGES))
def test_sets_are_listed_in_mask_order_and_padded_as_padded_pads(n, pivot):
    # the oracle: itertools.combinations, 0 put first under pivot, sorted by
    # size, then by mask; each row padded by engine._padded from its
    # membership row
    for min_size, max_size in LISTER_RANGES[n]:
        sets = [(0, *c) if pivot else c for size in range(min_size, max_size + 1)
                for c in combinations(range(pivot, n), size - pivot)]
        sets.sort(key=lambda c: (len(c), sum(1 << x for x in c)))
        masks = [sum(1 << x for x in c) for c in sets]
        assert all(lo < hi for lo, hi, c, d in zip(masks, masks[1:], sets, sets[1:])
                   if len(c) == len(d))
        member = np.zeros((len(sets), n), dtype=np.uint8)
        for row, c in zip(member, sets):
            row[list(c)] = 1
        want_sizes, want_rows = engine._padded(member)
        sizes, rows, keys = engine._sets_by_size(n, min_size, max_size, pivot)
        assert rows.dtype == engine._slot_type(n)
        assert [tuple(sorted(set(row))) for row in rows.tolist()] == sets
        assert sizes.tolist() == want_sizes.tolist() == [len(c) for c in sets]
        assert rows.tolist() == want_rows.tolist()
        assert (keys is None) == (n > 62)
        assert keys is None or keys.tolist() == masks


def _no_listing(*args, **kwargs):
    raise AssertionError("a refused range reached the listing")


@pytest.mark.parametrize("n, min_size, max_size", [(21, 1, 21), (27, 1, 27), (70, 4, 5),
                                                   (70, 1, 70), (64, 30, 34)])
def test_refused_ranges_raise_before_listing(monkeypatch, n, min_size, max_size):
    # the count covers every set of the sizes, with pivot or not
    monkeypatch.setattr(engine.np, "repeat", _no_listing)
    count = sum(math.comb(n, size) for size in range(min_size, max_size + 1))
    for pivot in (False, True):
        with pytest.raises(InputError) as refused:
            engine._sets_by_size(n, min_size, max_size, pivot)
        assert str(refused.value) == (f"{count} sets of size {min_size} to {max_size} of "
                                      f"{n} elements exceed the listing limit 2^20")


@pytest.mark.parametrize("pivot", [False, True])
def test_levels_keep_only_the_sets_that_can_still_be_completed(monkeypatch, pivot):
    # every level of the listing is cut to the sets that enough larger
    # elements can still complete; uncut, the level of 12 of 24 elements
    # would hold C(24, 12) = 2704156 rows on the way to the 20-sets
    want, lengths, repeat = math.comb(24 - pivot, 20 - pivot), [], np.repeat

    def spy(*args, **kwargs):
        out = repeat(*args, **kwargs)
        lengths.append(len(out))
        return out

    monkeypatch.setattr(engine.np, "repeat", spy)
    sizes, rows, keys = engine._sets_by_size(24, 20, 20, pivot)
    assert len(sizes) == len(rows) == len(keys) == want
    assert 0 < max(lengths) <= want


ORDER_FREE_CASES = [("heisenberg:3", "cd", Caps(3, 3)),
                    ("product:cyclic:3,cyclic:9", "eh", Caps(3, 3)),
                    ("dihedral:5", "eh", Caps(4, 3, 6)), ("cyclic:9", "cd", Caps(3, 4)),
                    ("cyclic:64", "cd", Caps(2, 2)), ("frobenius:7:3:2", "cd", Caps(2, 3))]


@pytest.mark.parametrize("torsion_is_order", [False, True])
@pytest.mark.parametrize("spec, theorem, caps", ORDER_FREE_CASES)
def test_capped_reports_do_not_depend_on_listing_order(monkeypatch, spec, theorem, caps,
                                                       torsion_is_order):
    # a capped scan takes the listed sizes in turn: its counts are integer
    # sums and its witnesses are sorted, so listing the sets in any order
    # gives the same report.  Pretending p(G) = |G| makes violations to sort.
    g = build_group(spec)
    if torsion_is_order:
        monkeypatch.setattr(engine, "minimal_torsion", lambda group: group.order)
    want = verify_exhaustive(g, theorem, caps).to_json_dict()
    lister = engine._sets_by_size

    def shuffled(*args):
        sizes, rows, keys = lister(*args)
        perm = np.random.default_rng(7).permutation(len(sizes))
        return sizes[perm], rows[perm], None if keys is None else keys[perm]

    monkeypatch.setattr(engine, "_sets_by_size", shuffled)
    assert verify_exhaustive(g, theorem, caps).to_json_dict() == want


def test_capped_witnesses_above_order_62_match_a_naive_listing(monkeypatch):
    # Above order 62 a mask passes an int64, so a capped scan builds its
    # witness masks from the listed rows in Python.  Pretend p(G) = |G| on
    # Z/64: the pairs of cosets of {0, 32} fall below |A| + |B| - 1.  The
    # oracle forms every product set of sizes 1 and 2 from g.op and counts
    # its distinct elements.
    g = build_group("cyclic:64")
    n = g.order
    monkeypatch.setattr(engine, "minimal_torsion", lambda group: group.order)
    sets = [c for size in (1, 2) for c in combinations(range(n), size)]
    rows = np.array([(c + c)[:2] for c in sets])
    products = np.sort(g.op[rows[:, None, :, None], rows[None, :, None, :]]
                       .reshape(len(sets), len(sets), 4), axis=2)
    sizes = 1 + np.count_nonzero(np.diff(products, axis=2), axis=2)
    lens = np.array([len(c) for c in sets])
    masks = [sum(1 << x for x in c) for c in sets]
    want = sorted((masks[i], masks[j], int(sizes[i, j])) for i, j in
                  np.argwhere(sizes < np.minimum(n, np.add.outer(lens, lens) - 1)).tolist())
    assert len(want) == 32 * 32
    for report in small_and_default(lambda: verify_exhaustive(g, "cd", Caps(2, 2))):
        assert [(v.a.bits, v.b.bits, v.product_size) for v in report.violations] == want
        assert report.pairs_checked == len(sets) ** 2


@pytest.mark.parametrize("size_a, size_b, limit", [(2, 1, 200), (1, 3, 50000)])
def test_find_extremal_above_order_62_takes_the_first_pairs(size_a, size_b, limit):
    # a side of one element makes every pair of Z/67 extremal, so the first
    # pairs in (A, B) mask order are the answer: past the first A for these
    # limits
    g = build_group("cyclic:67")
    n = g.order

    def by_mask(size):
        return sorted(sum(1 << x for x in c) for c in combinations(range(n), size))

    want, b_masks = [], by_mask(size_b)
    for a in by_mask(size_a):
        want.extend((a, b) for b in b_masks[:limit - len(want)])
        if len(want) == limit:
            break
    assert extremal_masks(g, size_a, size_b, limit=limit) == want


def test_sampled_reports_are_reproducible_and_budget_invariant():
    h = build_group("heisenberg:3")
    plan = SamplingPlan(seed=42, count=3000)
    first = verify_sampled(h, "cd", plan)
    small, default = small_and_default(lambda: verify_sampled(h, "cd", plan).to_json_dict())
    assert first.to_json_dict() == small == default
    assert first.pairs_checked == 3000
    assert first.violations == ()


def test_sampled_fixed_sizes_singletons(corpus_member):
    plan = SamplingPlan(seed=5, count=1, fixed_sizes=(1, 1))
    report = verify_sampled(corpus_member, "cd", plan)
    assert report.pairs_checked == 1
    assert report.violations == ()


def test_sampled_large_cyclic_group_cd():
    g = build_group("cyclic:169")
    report = verify_sampled(g, "cd", SamplingPlan(seed=42, count=100000))
    assert report.violations == ()
    assert report.pairs_checked == 100000


@pytest.mark.parametrize("theorem", ["cd", "eh"])
def test_sampled_memory_stays_bounded_at_order_4096(theorem):
    # a table of the bounds of every pair of sizes up to n peaked at 256 MB;
    # each pair's bound comes from its own sizes
    g = build_group("cyclic:4096")
    tracemalloc.start()
    try:
        report = verify_sampled(g, theorem, SamplingPlan(seed=1, count=10))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.pairs_checked == 10
    assert report.violations == ()
    assert peak < 16 * 2**20


def test_sampled_frobenius_eh_finds_no_violations():
    g = build_group("frobenius:7:3:2")
    report = verify_sampled(g, "eh", SamplingPlan(seed=7, count=100000))
    assert report.violations == ()
    assert report.pairs_checked == 100000


def test_sampled_matches_per_pair_bound_checks():
    g = build_group("frobenius:7:3:2")
    plan = SamplingPlan(seed=11, count=50)
    report = verify_sampled(g, "cd", plan)
    rng = SplitMix64(11)
    extremal = 0
    for _ in range(50):
        a = SubsetMask(rng.nonempty_mask(21), 21)
        b = SubsetMask(rng.nonempty_mask(21), 21)
        check = cd_bound(g, a, b)
        assert check.holds
        extremal += check.product_size == check.bound
    assert report.extremal_count == extremal


def test_sampled_plan_validation():
    with pytest.raises(ValueError):
        SamplingPlan(seed=1, count=0)
    g = build_group("cyclic:5")
    with pytest.raises(ValueError):
        verify_sampled(g, "cd", SamplingPlan(seed=1, count=1, fixed_sizes=(6, 1)))
    with pytest.raises(ValueError):
        verify_sampled(g, "cd", None)


def scalar_sampled_report(g, theorem, plan):
    """Oracle: a sampled report drawn pair by pair with the scalar generator
    (A then B) and scored with ``cd_bound``, as bytes."""
    rng = SplitMix64(plan.seed)
    n = g.order
    violations, extremal = [], 0
    for _ in range(plan.count):
        if plan.fixed_sizes is None:
            a, b = rng.nonempty_mask(n), rng.nonempty_mask(n)
        else:
            a = rng.subset_of_size(n, plan.fixed_sizes[0])
            b = rng.subset_of_size(n, plan.fixed_sizes[1])
        check = cd_bound(g, SubsetMask(a, n), SubsetMask(b, n), theorem)
        extremal += check.product_size == check.bound
        if not check.holds:
            violations.append({
                "group": g.label, "a": list(check.a.elements()),
                "b": list(check.b.elements()), "a_size": check.a_size,
                "b_size": check.b_size, "product_size": check.product_size,
                "p_g": None if check.p_g == INFINITY else int(check.p_g),
                "bound": check.bound, "holds": False})
    p = engine.minimal_torsion(g)
    return dumps_stable({
        "schema": "sumsetlab.verification/1", "group": g.label, "group_order": n,
        "theorem": theorem, "mode": plan.to_json_dict(),
        "p_g": None if p == INFINITY else int(p), "pairs_checked": plan.count,
        "violations": violations, "extremal_count": extremal,
    })


def _unshift(y, s):
    """The x with x ^ (x >> s) == y."""
    x = y
    for _ in range(64 // s + 1):
        x = y ^ (x >> s)
    return x


def seed_with_word(word, position):
    """A seed whose SplitMix64 output at ``position`` (from 0) is ``word``:
    every round of the mixer is a bijection on 64-bit words, so invert it."""
    mask64 = (1 << 64) - 1
    z = _unshift(word, 31)
    z = z * pow(0x94D049BB133111EB, -1, 1 << 64) & mask64
    z = _unshift(z, 27)
    z = z * pow(0xBF58476D1F4EE3B9, -1, 1 << 64) & mask64
    return (_unshift(z, 30) - (position + 1) * 0x9E3779B97F4A7C15) & mask64


@pytest.mark.parametrize("position", [0, 5 * 7 + 3, 200 * 7 + 6])
def test_sampled_fixed_sizes_redraw_a_rejected_word_like_the_scalar_generator(
        monkeypatch, position):
    # 2^64 - 1 is rejected by below(m) for every m that is not a power of
    # two; each pair of sizes (3, 4) on Z/12 takes 7 words, of moduli 12,
    # 11, 10 then 12, 11, 10, 9.  Pretending p(G) = |G| makes the bound 6,
    # which many pairs meet and some miss, so the report depends on the
    # pairs drawn.  A small budget cuts the draw into blocks, so the
    # rejection also falls inside a later block.
    g = build_group("cyclic:12")
    seed = seed_with_word((1 << 64) - 1, position)
    rng = SplitMix64(seed)
    rng.jump(position)
    assert rng.next_u64() == (1 << 64) - 1
    monkeypatch.setattr(engine, "minimal_torsion", lambda group: group.order)
    monkeypatch.setattr(engine, "_BATCH_BYTES", SMALL_BUDGET)
    for theorem in ("cd", "eh"):
        plan = SamplingPlan(seed=seed, count=300, fixed_sizes=(3, 4))
        assert (dumps_stable(verify_sampled(g, theorem, plan).to_json_dict())
                == scalar_sampled_report(g, theorem, plan))


@pytest.mark.parametrize("spec", ["cyclic:1", "cyclic:2", "cyclic:3"])
@pytest.mark.parametrize("theorem", ["cd", "eh"])
def test_sampled_uniform_zero_mask_redraws_match_the_scalar_generator(spec, theorem):
    # at these orders a zero attempt is drawn every 2, 4 or 8 attempts
    g = build_group(spec)
    for seed in (0, 1, 2**64 - 1):
        plan = SamplingPlan(seed=seed, count=400)
        assert (dumps_stable(verify_sampled(g, theorem, plan).to_json_dict())
                == scalar_sampled_report(g, theorem, plan))


def test_sampled_cd_scores_pigeonhole_pairs_without_the_kernel(monkeypatch):
    # On Z/2 x Z/4 a pair with |A| + |B| > |G| = 8 is not extremal under the
    # real p(G) = 2; pretending p(G) = |G| makes it extremal (bound 8) and
    # lets other pairs fail.  Each report must also be the same under a
    # small budget, which cuts every run that draws into blocks.
    g = build_group("product:cyclic:2,cyclic:4")
    failing = 0
    for torsion in (engine.minimal_torsion, lambda group: group.order):
        monkeypatch.setattr(engine, "minimal_torsion", torsion)
        for fixed in (None, (1, 8), (2, 3), (4, 4), (5, 4)):
            plan = SamplingPlan(seed=17, count=600, fixed_sizes=fixed)
            want = scalar_sampled_report(g, "cd", plan)
            assert small_and_default(lambda: sampled_bytes(g, "cd", plan)) == (want, want)
            failing += '"violations": []' not in want
    assert failing
    # sizes that sum past |G| never reach the kernel
    monkeypatch.setattr(engine._Scan, "masks", None)
    report = verify_sampled(g, "cd", SamplingPlan(seed=3, count=500, fixed_sizes=(5, 4)))
    assert report.extremal_count == report.pairs_checked == 500


def sampled_bytes(g, theorem, plan):
    return dumps_stable(verify_sampled(g, theorem, plan).to_json_dict())


@pytest.mark.parametrize("spec", ["frobenius:7:3:2", "heisenberg:5"])
@pytest.mark.parametrize("theorem", ["cd", "eh"])
def test_sampled_pairs_settled_by_their_sizes_match_the_scalar_oracle(monkeypatch, spec,
                                                                      theorem):
    # Sizes on both sides of the rule max(|A|, |B|) (less 1 for eh) > bound.
    # On frobenius:7:3:2 (p = 2) cd (1, 2) and (2, 2) and eh (2, 3) sit at
    # the bound, where the kernel decides, and every cd (1, 2) pair meets
    # it; on heisenberg:5 (p = 5) so do cd (1, 5) and eh (2, 4).  The other
    # sizes and the uniform draws are settled.  Each report must also be the
    # same under a small budget, which cuts every run that draws into blocks.
    g = build_group(spec)
    tight = 0
    for fixed in (None, (1, 2), (2, 1), (2, 2), (2, 3), (1, 5), (2, 4), (1, 6), (5, 5)):
        plan = SamplingPlan(seed=23, count=300, fixed_sizes=fixed)
        want = scalar_sampled_report(g, theorem, plan)
        assert small_and_default(lambda: sampled_bytes(g, theorem, plan)) == (want, want)
        tight += '"extremal_count": 0}' not in want
    assert tight


def test_restricted_pair_at_the_settle_rule_is_extremal(monkeypatch):
    # Pretending p(G) = |G| on Z/2 x Z/2: A = G and B = {0, 1} give
    # G ∔ B = G \ {0} (every square is 0), so |A ∔ B| = 3 = max(|A|, |B|) - 1
    # = min(4, 4 + 2 - 3), and so does every (4, 2) pair: the rule must
    # leave them to the kernel.  Pairs of other sizes fail the bound.
    g = build_group("product:cyclic:2,cyclic:2")
    monkeypatch.setattr(engine, "minimal_torsion", lambda group: group.order)
    full, pair = mask(4, 0, 1, 2, 3), mask(4, 0, 1)
    assert len(restricted_product_set(g, full, pair)) == size_bound(g, 4, 2, "eh") == 3
    for fixed in ((4, 2), (2, 4), None):
        plan = SamplingPlan(seed=5, count=400, fixed_sizes=fixed)
        want = scalar_sampled_report(g, "eh", plan)
        assert small_and_default(lambda: sampled_bytes(g, "eh", plan)) == (want, want)
    assert verify_sampled(g, "eh", SamplingPlan(seed=5, count=400,
                                                fixed_sizes=(4, 2))).extremal_count == 400
    assert '"violations": []' not in want


def _refuse(*args, **kwargs):
    raise AssertionError("a settled pair reached the kernel")


@pytest.mark.parametrize("theorem", ["cd", "eh"])
def test_settled_fixed_size_plans_draw_nothing(monkeypatch, theorem):
    # on frobenius:7:3:2 (p = 2) every (5, 5) pair is above its bound
    g = build_group("frobenius:7:3:2")
    plan = SamplingPlan(seed=9, count=500, fixed_sizes=(5, 5))
    want = scalar_sampled_report(g, theorem, plan)
    for name in ("_padded", "_shuffled"):
        monkeypatch.setattr(engine, name, _refuse)
    monkeypatch.setattr(_Scan, "masks", _refuse)
    monkeypatch.setattr(SplitMix64, "words", _refuse)
    assert small_and_default(lambda: sampled_bytes(g, theorem, plan)) == (want, want)


@pytest.mark.parametrize("theorem", ["cd", "eh"])
def test_uniform_draws_pass_the_kernel_exactly_the_unsettled_pairs(monkeypatch, theorem):
    # On Z/7 (p = 7) cd settles only |A| + |B| > 7, and eh only a side of
    # one element; the other pairs go to the kernel, in draw order.
    g = build_group("cyclic:7")
    plan = SamplingPlan(seed=31, count=2000)
    rng, unsettled = SplitMix64(plan.seed), []
    for _ in range(plan.count):
        a, b = rng.nonempty_mask(7), rng.nonempty_mask(7)
        sa, sb = a.bit_count(), b.bit_count()
        full = theorem == "cd" and sa + sb > 7
        if not full and max(sa, sb) - (theorem == "eh") <= size_bound(g, sa, sb, theorem):
            unsettled.append((a, b))
    assert 0 < len(unsettled) < plan.count
    padded, masks, kernel, rows = engine._padded, _Scan.masks, [], []

    def padded_spy(member):
        rows.append(len(member))
        return padded(member)

    def masks_spy(scan, a_pad, b_pad=None):
        kernel.extend(zip(engine._row_masks(a_pad), engine._row_masks(b_pad)))
        return masks(scan, a_pad, b_pad)

    monkeypatch.setattr(engine, "_padded", padded_spy)
    monkeypatch.setattr(_Scan, "masks", masks_spy)
    assert sampled_bytes(g, theorem, plan) == scalar_sampled_report(g, theorem, plan)
    assert kernel == unsettled
    assert sum(rows) == 2 * len(unsettled)


@settings(max_examples=200)
@given(spec=st.sampled_from(CORPUS_SPECS), data=st.data())
def test_products_have_at_least_as_many_elements_as_either_side(spec, data):
    # the premise of the settle rule: A * y is a translate of A, and x * B
    # of B; the restricted product leaves out at most x * x from each
    g = cached_group(spec)
    top = (1 << g.order) - 1
    a = SubsetMask(data.draw(st.integers(1, top)), g.order)
    b = SubsetMask(data.draw(st.integers(1, top)), g.order)
    plain = naive_product(g, a, b)
    assert len(product_set(g, a, b)) == len(plain) >= max(len(a), len(b))
    restricted = naive_product(g, a, b, restricted=True)
    assert (len(restricted_product_set(g, a, b)) == len(restricted)
            >= max(len(a), len(b)) - 1)


@pytest.mark.parametrize("spec, theorem, sizes, count", [
    ("cyclic:169", "cd", (6, 7), 3000),      # p = 13: bound 12; three-word masks
    ("frobenius:7:3:2", "eh", (2, 3), 20000),    # p = 2: bound 2 = 3 - 1
])
def test_sampled_kernel_matches_the_scalar_oracle_on_unsettled_sizes(spec, theorem, sizes,
                                                                      count):
    # the rule settles nearly every uniform pair of these groups; these
    # sizes it cannot, so every pair goes through the kernel
    g = build_group(spec)
    scan = _Scan(g, theorem, g.order, g.order)
    assert not scan.settle(*sizes)[0]
    plan = SamplingPlan(seed=2, count=count, fixed_sizes=sizes)
    want = scalar_sampled_report(g, theorem, plan)
    assert small_and_default(lambda: sampled_bytes(g, theorem, plan)) == (want, want)


def test_exhaustive_report_does_not_depend_on_the_batch_budget():
    z7 = build_group("cyclic:7")
    small, default = small_and_default(lambda: verify_exhaustive(z7, "cd").to_json_dict())
    assert small == default


def test_find_extremal_z7():
    z7 = build_group("cyclic:7")
    pairs = extremal_masks(z7, 2, 3)
    assert (0b11, 0b111) in pairs
    # oracle: brute-force count over all 21 * 35 pairs
    count = 0
    from itertools import combinations
    for a_elts in combinations(range(7), 2):
        for b_elts in combinations(range(7), 3):
            prod = {(x + y) % 7 for x in a_elts for y in b_elts}
            count += len(prod) == 4
    assert len(pairs) == count == 147


def test_find_extremal_singletons_and_limit():
    z5 = build_group("cyclic:5")
    assert len(extremal_masks(z5, 1, 1)) == 25
    assert len(extremal_masks(z5, 1, 1, limit=7)) == 7
    assert (0b111, 0b111) in extremal_masks(z5, 3, 3)


@pytest.mark.parametrize("spec, size_a, size_b", [("cyclic:11", 6, 6), ("dihedral:5", 3, 3),
                                                  ("dihedral:5", 1, 2)])
def test_find_extremal_limit_takes_the_first_pairs(monkeypatch, spec, size_a, size_b):
    # every (6, 6) pair of Z/11 is extremal: a batch holds thousands, of
    # which a limited search turns at most the limit into pairs.  dihedral:5
    # has no (3, 3) pair at the bound 2, and every (1, 2) pair meets it.
    g = build_group(spec)
    every = extremal_masks(g, size_a, size_b)
    score, collected = _Scan.score, []

    def spy(scan, *args, **kwargs):
        extremal, found = score(scan, *args, **kwargs)
        collected.append(sum(len(a_rows) for a_rows, _, _, _ in found))
        return extremal, found

    monkeypatch.setattr(_Scan, "score", spy)
    for k in (1, 7, 1000):
        collected.clear()
        assert extremal_masks(g, size_a, size_b, limit=k) == every[:k]
        assert max(collected) <= k


def test_find_extremal_lists_rows_through_the_scan_without_masks(monkeypatch):
    # the hits reach the caller as the listed element rows: no SubsetMask,
    # no int mask of a pair, and every batch scored by _Scan.score
    def refuse(*args, **kwargs):
        raise AssertionError("a mask was built")

    for name in ("SubsetMask", "_row_masks", "iter_bits"):
        monkeypatch.setattr(engine, name, refuse)
    score, scored = _Scan.score, []

    def spy(scan, *args, **kwargs):
        scored.append(scan)
        return score(scan, *args, **kwargs)

    monkeypatch.setattr(_Scan, "score", spy)
    a_rows, b_rows = find_extremal(build_group("cyclic:67"), 2, 1, limit=500)
    assert a_rows.dtype == b_rows.dtype == np.intp
    assert a_rows.shape == (500, 2) and b_rows.shape == (500, 1)
    assert scored
    a_rows, b_rows = find_extremal(build_group("dihedral:5"), 3, 3)
    assert a_rows.shape == b_rows.shape == (0, 3)


def test_find_extremal_guards():
    z5 = build_group("cyclic:5")
    with pytest.raises(ValueError):
        find_extremal(z5, 0, 1)
    big = build_group("cyclic:30")
    with pytest.raises(ValueError, match="search space"):
        find_extremal(big, 15, 15)


def test_every_corpus_group_is_clean_in_every_mode(corpus_member):
    g = corpus_member
    if g.order <= 11:
        assert verify_exhaustive(g, "cd").violations == ()
    assert verify_exhaustive(g, "cd", Caps(max_a_size=2, max_b_size=2)).violations == ()
    plan = SamplingPlan(seed=8, count=200)
    assert verify_sampled(g, "cd", plan).violations == ()


def test_exhaustive_limit_is_configurable():
    g = build_group("cyclic:12")
    report = verify_exhaustive(g, "cd", exhaustive_limit=12)
    assert report.pairs_checked == (2 ** 12 - 1) ** 2
    assert report.violations == ()


def _no_scan(*args, **kwargs):
    raise AssertionError("an order above the exhaustive limit reached the scan")


@pytest.mark.parametrize("limit", [21, 25])
def test_exhaustive_limit_cannot_lift_the_ceiling(monkeypatch, limit):
    # the refusal names the limit that applies, min(limit, 20), and comes
    # before any scan is set up
    monkeypatch.setattr(engine, "_Scan", _no_scan)
    with pytest.raises(InputError) as refused:
        verify_exhaustive(build_group("cyclic:21"), "cd", exhaustive_limit=limit)
    assert str(refused.value) == ("order 21 exceeds the exhaustive limit 20; "
                                  "use caps or sampling")


def test_theorem_argument_is_validated():
    z5 = build_group("cyclic:5")
    with pytest.raises(ValueError):
        verify_exhaustive(z5, "nope")


def test_bound_check_json_masks_are_sorted_lists():
    z5 = build_group("cyclic:5")
    check = cd_bound(z5, mask(5, 3, 1), mask(5, 4, 0))
    payload = check.to_json_dict()
    assert payload["a"] == [1, 3]
    assert payload["b"] == [0, 4]
    assert payload["p_g"] == 5


def test_report_json_for_trivial_group_uses_null_torsion():
    g = build_group("cyclic:1")
    report = verify_exhaustive(g, "cd")
    payload = report.to_json_dict()
    assert payload["p_g"] is None
    assert payload["pairs_checked"] == 1
    assert report.p_g == INFINITY


def test_verification_is_invariant_under_the_pair_isomorphism():
    # same violation/extremal statistics for a group and its pair-group image
    for spec, gens in [("cyclic:6", (3,)), ("quaternion", (6,))]:
        g = build_group(spec)
        fs = build_factor_system(g, generated_subgroup(g, gens))
        ext = extension_from_factor_system(fs)
        r1 = verify_exhaustive(g, "cd")
        r2 = verify_exhaustive(ext, "cd")
        assert r1.pairs_checked == r2.pairs_checked
        assert len(r1.violations) == len(r2.violations) == 0
        assert r1.extremal_count == r2.extremal_count


def test_multiset_of_sizes_is_invariant_under_the_pair_isomorphism():
    g = build_group("cyclic:6")
    fs = build_factor_system(g, generated_subgroup(g, (3,)))
    ext = extension_from_factor_system(fs)

    def stats(group):
        out = {}
        for am in range(1, 64):
            for bm in range(1, 64):
                a = SubsetMask(am, 6)
                b = SubsetMask(bm, 6)
                key = (len(a), len(b), len(product_set(group, a, b)))
                out[key] = out.get(key, 0) + 1
        return out

    assert stats(g) == stats(ext)


def test_violations_are_exact_and_ordered_for_any_batch_budget(monkeypatch):
    # The bound holds on every real group, so pretend p(G) = |G| on
    # Z/2 x Z/4, where products of subgroup cosets fall below |A| + |B| - 1.
    # A small batch budget splits the full and the sampled scan; each report
    # must be the default budget's.
    g = build_group("product:cyclic:2,cyclic:4")
    n = g.order
    monkeypatch.setattr(engine, "minimal_torsion", lambda group: group.order)

    def naive_witnesses(pairs):
        found = []
        for a_bits, b_bits in pairs:
            size = len(product_set(g, SubsetMask(a_bits, n), SubsetMask(b_bits, n)))
            if size < min(n, a_bits.bit_count() + b_bits.bit_count() - 1):
                found.append((a_bits, b_bits, size))
        return found

    every = [(a, b) for a in range(1, 1 << n) for b in range(1, 1 << n)]
    capped = [(a, b) for a, b in every if a.bit_count() <= 2 and b.bit_count() <= 3]
    rng = SplitMix64(3)
    drawn = [(rng.nonempty_mask(n), rng.nonempty_mask(n)) for _ in range(500)]
    runs = [
        (lambda: verify_exhaustive(g, "cd"), every, True),
        (lambda: verify_exhaustive(g, "cd", Caps(2, 3)), capped, True),
        (lambda: verify_sampled(g, "cd", SamplingPlan(3, 500)), drawn, False),
    ]
    for run, pairs, mask_order in runs:
        one, default = small_and_default(run)
        want = naive_witnesses(pairs)
        assert want
        assert [(v.a.bits, v.b.bits, v.product_size) for v in one.violations] == want
        assert all(not v.holds and v.bound == min(n, v.a_size + v.b_size - 1)
                   for v in one.violations)
        if mask_order:
            assert want == sorted(want)
        assert one.pairs_checked == len(pairs)
        assert dumps_stable(one.to_json_dict()) == dumps_stable(default.to_json_dict())


def force_automorphisms(monkeypatch):
    """Fold automorphisms past the cost rule, which declines small scans:
    pretend that every scan lists 2^62 pairs."""
    reduce = engine._Scan.reduce
    monkeypatch.setattr(engine._Scan, "reduce",
                        lambda scan, keys, a_sets, b_sets: reduce(scan, keys, a_sets,
                                                                  1 << 62))


@pytest.mark.parametrize("spec, theorem", [("product:cyclic:2,cyclic:4", "eh"),
                                           ("dihedral:4", "eh"), ("dihedral:4", "cd"),
                                           ("cyclic:7", "cd"), ("cyclic:7", "eh"),
                                           ("product:cyclic:3,cyclic:3", "cd"),
                                           ("product:cyclic:3,cyclic:3", "eh")])
def test_violations_expand_from_orbits_exactly_for_any_batch_budget(monkeypatch, spec,
                                                                    theorem):
    # The sibling of the test above for the orbit expansion.  Each witness
    # expands into its images (sigma(A), sigma(B)) under the automorphisms
    # that fix element 0, then into translates.  Z/2 x Z/4, Z/7 and Z/3 x
    # Z/3 are abelian, so their eh scans list only the sets A that hold 0 and
    # expand into (A + g, B + g); dihedral:4 is not, so its eh scans fold
    # automorphisms only, and its cd witnesses expand into (gA, Bh), which
    # differs from (gA, hB) there.  Z/7 (where p(G) = |G| already) and eh on
    # Z/3 x Z/3 meet the bound, so their size term is pretended one larger
    # too, which arithmetic progressions miss; the units of Z/7 are its
    # automorphisms.  The cost rule declines most of these scans, so each
    # runs both as the engine takes it and with the rule forced on.
    g = build_group(spec)
    n = g.order
    tighter = spec == "cyclic:7" or (spec, theorem) == ("product:cyclic:3,cyclic:3", "eh")
    slack = engine._size_slack(theorem) - tighter
    assert _Scan(g, theorem, n, n, orbits=True).pivot_a == ((spec, theorem)
                                                            != ("dihedral:4", "eh"))
    monkeypatch.setattr(engine, "minimal_torsion", lambda group: group.order)
    monkeypatch.setattr(engine, "_size_slack", lambda theorem: slack)
    for forced, caps in product((False, True), (None, Caps(3, 4))):
        if forced:
            force_automorphisms(monkeypatch)
        one, default = small_and_default(lambda: verify_exhaustive(g, theorem, caps))
        pairs, extremal, want = brute_force_scan(g, theorem, caps, p=n, slack=slack)
        assert want
        assert [(v.a.bits, v.b.bits, v.product_size) for v in one.violations] == want
        assert all(not v.holds and v.bound == min(n, v.a_size + v.b_size - slack)
                   for v in one.violations)
        assert (one.pairs_checked, one.extremal_count) == (pairs, extremal)
        assert dumps_stable(one.to_json_dict()) == dumps_stable(default.to_json_dict())


def brute_force_scan(g, theorem, caps=None, p=None, slack=None):
    """pairs_checked, extremal_count and the violations (a_bits, b_bits,
    size) of the full scan, in mask order, from g.op with Python sets; ``p``
    and ``slack`` replace p(G) and the size term's slack when given."""
    n = g.order
    rows = g.op.tolist()
    if p is None:
        p = next((d for d in range(2, n + 1) if n % d == 0), math.inf)
    if slack is None:
        slack = 1 if theorem == "cd" else 3
    max_a = n if caps is None or caps.max_a_size is None else caps.max_a_size
    max_b = n if caps is None or caps.max_b_size is None else caps.max_b_size
    sum_cap = math.inf if caps is None or caps.sum_cap is None else caps.sum_cap
    b_sets = {size: list(combinations(range(n), size)) for size in range(1, max_b + 1)}
    pairs = extremal = 0
    violations = []
    for a_size in range(1, max_a + 1):
        for a in combinations(range(n), a_size):
            cols = [{rows[x][y] for x in a if theorem == "cd" or x != y}
                    for y in range(n)]
            for b_size, bs in b_sets.items():
                if a_size + b_size > sum_cap:
                    continue
                bound = min(p, a_size + b_size - slack)
                sizes = [len(set().union(*[cols[y] for y in b])) for b in bs]
                pairs += len(sizes)
                extremal += sizes.count(bound)
                violations.extend((sum(1 << x for x in a), sum(1 << y for y in b), size)
                                  for b, size in zip(bs, sizes) if size < bound)
    return pairs, extremal, sorted(violations)


def assert_scans_match_brute_force(g, theorem):
    """The exhaustive scan up to order 8, capped scans above it."""
    scans = [None] if g.order <= 8 else [Caps(2, 2), Caps(3, 2, sum_cap=4)]
    for caps in scans:
        report = verify_exhaustive(g, theorem, caps, exhaustive_limit=8)
        got = (report.pairs_checked, report.extremal_count,
               [(v.a.bits, v.b.bits, v.product_size) for v in report.violations])
        assert got == brute_force_scan(g, theorem, caps)


@pytest.mark.parametrize("theorem", ["cd", "eh"])
@pytest.mark.parametrize("spec", CORPUS_SPECS)
def test_orbit_reduced_scans_match_brute_force_on_the_corpus(spec, theorem):
    # oracle for the orbit reductions: the full scan, written out
    assert_scans_match_brute_force(cached_group(spec), theorem)


@pytest.mark.parametrize("theorem", ["cd", "eh"])
@pytest.mark.parametrize("spec", CORPUS_SPECS)
def test_forced_automorphism_reduction_matches_brute_force(monkeypatch, spec, theorem):
    # the cost rule declines most scans here
    force_automorphisms(monkeypatch)
    assert_scans_match_brute_force(cached_group(spec), theorem)


@pytest.mark.parametrize("theorem", ["cd", "eh"])
@pytest.mark.parametrize("spec", ["cyclic:7", "product:cyclic:3,cyclic:3", "dihedral:4"])
def test_scans_fold_only_the_automorphisms_that_fix_element_0(monkeypatch, spec, theorem):
    # With the identity moved off element 0, some automorphisms move 0; the
    # sets that hold 0 are closed under the others only.
    g = moved_identity(build_group(spec))
    assert (automorphisms(g)[:, 0] != 0).any()
    force_automorphisms(monkeypatch)
    assert_scans_match_brute_force(g, theorem)


@pytest.mark.parametrize("spec, theorem, caps, folded", [
    ("cyclic:13", "cd", None, 12), ("cyclic:11", "eh", None, 10),
    ("product:cyclic:3,cyclic:9", "eh", Caps(3, 3), 108),
    ("heisenberg:3", "cd", Caps(3, 3), 1), ("dihedral:32", "cd", Caps(1, 2), 1),
    ("product:cyclic:3,cyclic:9", "cd", Caps(3, 3), 1), ("cyclic:67", "cd", Caps(3, 3), 1)])
def test_cost_rule_folds_automorphisms_where_they_pay(monkeypatch, spec, theorem, caps,
                                                      folded):
    # heisenberg:3 has 26^3 candidates for 432 automorphisms; dihedral:32
    # capped at (1, 2) lists 64 pairs; on Z/3 x Z/9, capped cd lists 352 *
    # 352 pairs, under 16 steps for each of 144 candidates times 352 sets;
    # Z/67 would pay for its 66 candidates, but its masks pass an int64
    reduce, used = engine._Scan.reduce, []

    def spy(scan, *args):
        reps = reduce(scan, *args)
        used.append(len(scan.auts))
        return reps

    monkeypatch.setattr(engine._Scan, "reduce", spy)
    verify_exhaustive(build_group(spec), theorem, caps, exhaustive_limit=13)
    assert used == [folded]


def vosper_extremal(p, a, b):
    """Pairs (A, B) of sizes (a, b) in Z/p with |A + B| = min(p, a + b - 1)."""
    if a == 1 or b == 1 or a + b - 1 >= p:
        return math.comb(p, a) * math.comb(p, b)
    if a + b == p:
        return p * math.comb(p, a)
    return p * p * (p - 1) // 2


@pytest.mark.parametrize("p", [17, 19])
def test_extremal_search_matches_vosper_beyond_exhaustive_reach(p):
    g = build_group(f"cyclic:{p}")
    for a, b in [(1, 4), (2, 3), (3, 4), (4, 2), (2, p - 2), (3, p - 2)]:
        keys = extremal_masks(g, a, b)
        assert len(keys) == vosper_extremal(p, a, b)
        assert keys == sorted(keys)


@pytest.mark.parametrize("p", [17, 19])
def test_capped_extremal_counts_match_vosper(p):
    g = build_group(f"cyclic:{p}")
    for caps in (Caps(max_a_size=3, max_b_size=3), Caps(3, 4, sum_cap=6)):
        report = verify_exhaustive(g, "cd", caps)
        sizes = [(a, b) for a in range(1, caps.max_a_size + 1)
                 for b in range(1, caps.max_b_size + 1)
                 if caps.sum_cap is None or a + b <= caps.sum_cap]
        assert report.pairs_checked == sum(math.comb(p, a) * math.comb(p, b)
                                           for a, b in sizes)
        assert report.extremal_count == sum(vosper_extremal(p, a, b) for a, b in sizes)
        assert report.violations == ()


def test_full_z17_scan_gives_the_vosper_total():
    # the units of Z/17 fold its full cd scan into about a second
    report = verify_exhaustive(build_group("cyclic:17"), "cd", exhaustive_limit=17)
    assert report.pairs_checked == (2**17 - 1) ** 2
    assert report.extremal_count == sum(vosper_extremal(17, a, b) for a in range(1, 18)
                                        for b in range(1, 18)) == 7430025577
    assert report.violations == ()


def kappa(n, r, s):
    """min over d | n of (ceil(r / d) + ceil(s / d) - 1) * d."""
    return min((-(-r // d) - (-s // d) - 1) * d for d in range(1, n + 1) if n % d == 0)


@pytest.mark.parametrize("spec", [spec for spec in CORPUS_SPECS
                                  if cached_group(spec).is_abelian()]
                         + ["dihedral:3", "dihedral:4", "dihedral:5"])
def test_extremal_pairs_exist_exactly_where_kappa_meets_the_bound(spec):
    # min |A * B| over |A| = r, |B| = s is kappa_n(r, s) on abelian groups
    # (Eliahou, Kervaire and Plagne 2003) and dihedral ones (Eliahou and
    # Kervaire 2006); the bound min(p, r + s - 1) never exceeds it, so a pair
    # meets the bound exactly when kappa_n equals it.  Cells of at most 3 * 10^4
    # pairs: a cell with no extremal pair is searched in full, and with the
    # cells up to 3 * 10^5 the sweep takes seconds.
    g = build_group(spec)
    n = g.order
    for r in range(1, n + 1):
        for s in range(1, n + 1):
            if math.comb(n, r) * math.comb(n, s) <= 3 * 10**4:
                tight = kappa(n, r, s) == size_bound(g, r, s)
                assert bool(extremal_masks(g, r, s, limit=1)) == tight, (r, s)


EVEN_ORDER_SPECS = ([spec for spec in CORPUS_SPECS if cached_group(spec).order % 2 == 0]
                    + ["dihedral:3", "dihedral:4", "dihedral:6", "dihedral:8", "cyclic:26"])


def involutions(g) -> list[int]:
    return [x for x in range(g.order) if x != g.identity and g.op[x, x] == g.identity]


def even_order_extremal_count(g) -> int:
    """The cd ``extremal_count`` of a full scan of a group of even order n
    with I(G) involutions: n^3 + I(G) * n^2 / 4.

    Proof.  p(G) = 2, so a pair is tight when |A*B| = min(2, |A| + |B| - 1).
    As |A*B| >= max(|A|, |B|), no pair with a side of 3 or more is tight.
    (1, 1): every one of the n^2 pairs, as |{a}{b}| = 1.  (1, 2) and (2, 1):
    every one of the n * C(n, 2) pairs of each, as a single element times a
    2-set is a 2-set: n^2 (n - 1) in all.  (2, 2): A = {a, a'}, B = {b, b'}
    with |A*B| = 2 means aB = a'B, both being 2-sets inside A*B, so
    t = a^-1 a' != 1 has tB = B.  Then tb = b' and tb' = b, so t^2 b = b: t
    is an involution, A = {a, at} and B = {b, tb}.  Conversely, for any
    involution t these give A*B = {ab, atb}, as (at)(tb) = ab.  The set A
    names its t whichever element is called a (a'^-1 a = t^-1 = t); the n/2
    sets {a, at} partition G, and so do the n/2 sets {b, tb}: (n/2)^2 pairs
    per involution, I(G) * n^2 / 4 in all.  Every other cell has none, and
    n^2 + n^2 (n - 1) = n^3."""
    n = g.order
    return n ** 3 + len(involutions(g)) * n * n // 4


@pytest.mark.parametrize("spec", EVEN_ORDER_SPECS)
def test_cd_extremal_count_on_even_order_groups_is_the_closed_form(spec):
    # tight pairs have sides of at most 2, so a scan capped at 3 x 3 counts them all
    g = cached_group(spec)
    report = (verify_exhaustive(g, "cd", exhaustive_limit=12) if g.order <= 12
              else verify_exhaustive(g, "cd", Caps(max_a_size=3, max_b_size=3)))
    assert report.extremal_count == even_order_extremal_count(g)
    assert report.violations == ()


def test_cd_extremal_count_on_a5_is_the_closed_form(alternating_5):
    report = verify_exhaustive(alternating_5, "cd", Caps(max_a_size=3, max_b_size=3))
    assert report.extremal_count == even_order_extremal_count(alternating_5) == 229500


@pytest.mark.parametrize("spec", EVEN_ORDER_SPECS)
def test_tight_2_by_2_pairs_are_cosets_of_one_involution(spec):
    # the (2, 2) cell of even_order_extremal_count's proof, through the command
    g = cached_group(spec)
    result = run_cli("extremal", "--group", spec, "--size-a", "2", "--size-b", "2", "--json")
    assert result.exit_code == 0
    report = json.loads(result.stdout)
    n, inv, op = g.order, g.inv, g.op
    assert report["bound"] == 2
    assert report["count"] == len(involutions(g)) * n * n // 4
    shapes = set()
    for pair in report["pairs"]:
        (a1, a2), (b1, b2) = pair["a"], pair["b"]
        t = op[inv[a1], a2]
        assert op[t, t] == g.identity != t and op[t, b1] == b2
        shapes.add((a1, a2, b1, b2))
    assert len(shapes) == report["count"]


@pytest.mark.parametrize("p", [5, 7, 11])
def test_restricted_bound_on_z_p_is_met_only_by_equal_sizes(p):
    # |A +' B| >= min(p, |A| + |B| - 2) when |A| != |B| (Alon, Nathanson and
    # Ruzsa 1996), so below the p cap no pair of unequal sizes meets the eh
    # bound |A| + |B| - 3; A = B, an arithmetic progression, meets it for every
    # size from 2 (Dias da Silva and Hamidoune 1994).  Per-cell extremal counts
    # by inclusion-exclusion over the capped scans of |A| <= a, |B| <= b.
    g = build_group(f"cyclic:{p}")
    capped = {}

    def count(a, b):
        if a == 0 or b == 0:
            return 0
        if (a, b) not in capped:
            capped[a, b] = verify_exhaustive(g, "eh", Caps(a, b)).extremal_count
        return capped[a, b]

    tight = [(a, b) for a in range(1, p + 1) for b in range(1, p + 1)
             if a + b - 3 < p
             and count(a, b) - count(a - 1, b) - count(a, b - 1) + count(a - 1, b - 1)]
    assert tight == [(a, a) for a in range(2, (p + 2) // 2 + 1)]
