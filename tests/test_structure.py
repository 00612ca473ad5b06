import math
import tracemalloc
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sumsetlab.structure as structure
from reference import moved_identity, normal_subgroup_inventory
from sumsetlab.corpus import CORPUS_SPECS
from sumsetlab.groups import (SubsetMask, build_group, cached_group, closure,
                              element_order, table_group, validate_group)
from sumsetlab.structure import (INFINITY, automorphisms,
                                 choose_decomposition_subgroup,
                                 commutator_subgroup, derived_series,
                                 generated_subgroup, is_normal, is_solvable,
                                 minimal_torsion, quotient,
                                 smallest_prime_factor, solvable_chain,
                                 subgroup_as_group, trivial_subgroup,
                                 whole_subgroup)


def test_generated_by_nothing_is_trivial(corpus_member):
    h = generated_subgroup(corpus_member, ())
    assert h.element_list == (corpus_member.identity,)


def test_generated_subgroups_in_named_groups():
    q = build_group("quaternion")
    assert generated_subgroup(q, (6,)).element_list == (0, 1, 6, 7)
    c25 = build_group("cyclic:25")
    assert generated_subgroup(c25, (5,)).element_list == (0, 5, 10, 15, 20)


def test_generated_subgroup_order_divides_group_order(corpus_member):
    g = corpus_member
    for x in range(g.order):
        h = generated_subgroup(g, (x,))
        assert g.order % h.order == 0


def _worklist_closure(g, gens) -> tuple[int, ...]:
    """Oracle: close {identity} + gens under products, one pair at a time."""
    members = {g.identity, *gens}
    todo = list(members)
    while todo:
        x = todo.pop()
        for y in list(members):
            for v in (g.op[x, y], g.op[y, x]):
                if v not in members:
                    members.add(v)
                    todo.append(v)
    return tuple(sorted(members))


def test_generated_subgroup_matches_a_worklist_closure(corpus_member):
    g = corpus_member
    rng = np.random.default_rng(g.order)
    for size in (1, 1, 2, 2, 3):
        gens = [int(x) for x in rng.integers(0, g.order, size)]
        h = generated_subgroup(g, gens)
        assert h.element_list == _worklist_closure(g, gens), gens
        assert h.members.elements() == h.element_list


def test_generated_subgroup_rejects_generators_outside_the_group():
    g = build_group("cyclic:5")
    with pytest.raises(ValueError, match="generator 5 outside"):
        generated_subgroup(g, (1, 5))
    with pytest.raises(ValueError, match="generator -1 outside"):
        generated_subgroup(g, (-1,))


def test_generated_subgroup_is_closed(corpus_member):
    g = corpus_member
    h = generated_subgroup(g, tuple(range(0, g.order, 3)))
    members = set(h.element_list)
    for a in members:
        assert g.inv[a] in members
        for b in members:
            assert g.op[a, b] in members


def test_normality_of_named_subgroups():
    q = build_group("quaternion")
    assert is_normal(q, generated_subgroup(q, (6,)))
    d5 = build_group("dihedral:5")
    reflection = generated_subgroup(d5, (5,))
    assert reflection.element_list == (0, 5)
    # oracle: brute-force conjugation scan
    conjugates = {d5.op[d5.op[x, 5], d5.inv[x]] for x in range(10)}
    assert not conjugates.issubset({0, 5})
    assert not is_normal(d5, reflection)


def test_every_subgroup_of_an_abelian_group_is_normal():
    g = build_group("cyclic:6")
    for x in range(6):
        assert is_normal(g, generated_subgroup(g, (x,)))


def test_commutator_subgroup_of_abelian_group_is_trivial(corpus_member):
    if corpus_member.is_abelian():
        assert commutator_subgroup(corpus_member).is_trivial()


def test_commutator_subgroup_of_quaternion():
    q = build_group("quaternion")
    assert commutator_subgroup(q).element_list == (0, 1)


def test_commutator_subgroup_of_heisenberg_is_the_center():
    g = build_group("heisenberg:3")
    derived = commutator_subgroup(g)
    center = tuple(
        x for x in range(27)
        if all(g.op[x, y] == g.op[y, x] for y in range(27))
    )
    assert derived.element_list == center
    assert derived.order == 3


def test_derived_subgroup_is_normal_with_abelian_quotient(corpus_member):
    g = corpus_member
    derived = commutator_subgroup(g)
    assert is_normal(g, derived)
    assert quotient(g, derived).table.is_abelian()


def test_derived_series_of_frobenius_group():
    # oracle: commutator closure computed with plain python sets
    g = build_group("frobenius:7:3:2")
    comms = {
        g.op[g.op[g.op[a, b], g.inv[a]], g.inv[b]]
        for a in range(21) for b in range(21)
    }
    closure = {0} | comms
    changed = True
    while changed:
        changed = False
        for a in tuple(closure):
            for b in tuple(closure):
                v = g.op[a, b]
                if v not in closure:
                    closure.add(v)
                    changed = True
    series = derived_series(g)
    assert [s.order for s in series] == [21, 7, 1]
    assert set(series[1].element_list) == closure


def test_cyclic_groups_have_one_step_series():
    series = derived_series(build_group("cyclic:9"))
    assert len(series) == 2
    assert series[1].is_trivial()


def test_every_odd_order_corpus_group_is_solvable(corpus_member):
    if corpus_member.order % 2 == 1:
        assert is_solvable(corpus_member)


def test_alternating_5_is_not_solvable(alternating_5):
    assert validate_group(alternating_5) == []
    assert not is_solvable(alternating_5)
    series = derived_series(alternating_5)
    assert series[-1].order == 60


def test_quotient_of_quaternion_by_k():
    q = build_group("quaternion")
    K = generated_subgroup(q, (6,))
    qt = quotient(q, K)
    assert qt.table.order == 2
    assert qt.blocks == ((0, 1, 6, 7), (2, 3, 4, 5))
    assert element_order(qt.table, 1) == 2


def test_quotient_by_trivial_subgroup_copies_the_table(corpus_member):
    g = corpus_member
    qt = quotient(g, trivial_subgroup(g))
    assert (qt.table.op == g.op).all()


def test_quotient_of_cyclic_25_is_cyclic_5():
    g = build_group("cyclic:25")
    qt = quotient(g, generated_subgroup(g, (5,)))
    z5 = build_group("cyclic:5")
    assert (qt.table.op == z5.op).all()


def test_quotient_projection_is_a_homomorphism(corpus_member):
    g = corpus_member
    for k in normal_subgroup_inventory(g):
        qt = quotient(g, k)
        assert validate_group(qt.table) == []
        assert qt.table.order * k.order == g.order
        for a in range(g.order):
            for b in range(g.order):
                assert qt.project[g.op[a, b]] == qt.table.op[
                    qt.project[a], qt.project[b]
                ]


def test_whole_group_quotient_memory_stays_bounded_at_order_4096():
    # labelling cosets by a minimum over every row of K at once copied
    # |K| x n entries of the table, 64 MiB here
    g = build_group("cyclic:4096")
    whole = whole_subgroup(g)
    tracemalloc.start()
    try:
        q = quotient(g, whole)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert q.blocks == (whole.element_list,)
    assert peak < 16 * 2**20


def test_quotient_rejects_non_normal_kernel():
    d5 = build_group("dihedral:5")
    with pytest.raises(ValueError, match="normal"):
        quotient(d5, generated_subgroup(d5, (5,)))


def test_subgroup_as_group_relabels_to_a_valid_group():
    q = build_group("quaternion")
    K = generated_subgroup(q, (6,))
    kg = subgroup_as_group(K)
    assert kg.order == 4
    assert validate_group(kg) == []
    # position table mirrors parent products
    for i, x in enumerate(K.element_list):
        for j, y in enumerate(K.element_list):
            assert K.element_list[kg.op[i, j]] == q.op[x, y]


def test_minimal_torsion_values():
    assert minimal_torsion(build_group("quaternion")) == 2
    assert minimal_torsion(build_group("frobenius:7:3:2")) == 3
    assert minimal_torsion(build_group("cyclic:1")) == INFINITY


def test_smallest_prime_factor_values():
    assert smallest_prime_factor(8) == 2
    assert smallest_prime_factor(21) == 3
    assert smallest_prime_factor(9) == 3
    assert smallest_prime_factor(13) == 13
    assert smallest_prime_factor(1) == INFINITY
    with pytest.raises(ValueError):
        smallest_prime_factor(0)


def test_minimal_torsion_agrees_with_smallest_prime_factor(corpus_member):
    # oracle: the definition, the least order of a non-identity element
    g = corpus_member
    orders = [element_order(g, x) for x in range(g.order) if x != g.identity]
    least = min(orders) if orders else INFINITY
    assert minimal_torsion(g) == least == smallest_prime_factor(g.order)


def test_commutators_are_computed_once_per_group(monkeypatch):
    calls = []
    real = structure.derived_of
    monkeypatch.setattr(structure, "derived_of",
                        lambda h: calls.append(h.order) or real(h))
    g = build_group("frobenius:7:3:2")
    series = derived_series(g)
    assert is_solvable(g)
    assert commutator_subgroup(g).element_list == series[1].element_list
    choose_decomposition_subgroup(g)
    assert derived_series(g) == series
    assert calls == [21, 7]


def test_infinity_orders_above_every_integer():
    assert min(INFINITY, 7) == 7
    assert INFINITY > 10 ** 12


def test_choose_decomposition_subgroup_policy():
    c25 = build_group("cyclic:25")
    assert choose_decomposition_subgroup(c25).element_list == (0, 5, 10, 15, 20)
    h = build_group("heisenberg:3")
    assert choose_decomposition_subgroup(h).element_list == \
        commutator_subgroup(h).element_list
    q = build_group("quaternion")
    assert choose_decomposition_subgroup(q).element_list == (0, 1)
    # prime cyclic groups fall back to the trivial subgroup
    c3 = build_group("cyclic:3")
    assert choose_decomposition_subgroup(c3).is_trivial()


def test_choose_decomposition_subgroup_is_proper_normal_abelian(corpus_member):
    g = corpus_member
    if g.order == 1:
        return
    k = choose_decomposition_subgroup(g)
    assert k.order < g.order
    assert is_normal(g, k)
    assert quotient(g, k).table.is_abelian()


def test_choose_decomposition_subgroup_errors(alternating_5):
    with pytest.raises(ValueError):
        choose_decomposition_subgroup(build_group("cyclic:1"))
    with pytest.raises(ValueError, match="not solvable"):
        choose_decomposition_subgroup(alternating_5)


def test_solvable_chain_invariants(corpus_member):
    g = corpus_member
    if not is_solvable(g):
        return
    chain = solvable_chain(g)
    assert chain.groups[0].is_trivial()
    assert chain.groups[-1].is_whole()
    assert len(chain.quotient_witnesses) == len(chain.groups) - 1
    for lower, upper, witness in zip(
        chain.groups, chain.groups[1:], chain.quotient_witnesses
    ):
        assert set(lower.element_list) <= set(upper.element_list)
        assert witness.table.is_abelian()
        assert witness.table.order * lower.order == upper.order


def test_solvable_chain_rejects_unsolvable_input(alternating_5):
    with pytest.raises(ValueError, match="not solvable"):
        solvable_chain(alternating_5)


def test_whole_subgroup_and_trivial_subgroup(corpus_member):
    g = corpus_member
    assert whole_subgroup(g).order == g.order
    assert trivial_subgroup(g).element_list == (g.identity,)


def test_subgroup_masks_are_consistent(corpus_member):
    g = corpus_member
    h = generated_subgroup(g, (g.order - 1,))
    assert h.members.elements() == h.element_list
    assert len(h.members) == h.order
    mask = SubsetMask.from_elements(g.order, h.element_list)
    assert mask.bits == h.members.bits


# ---------------------------------------------------------------------------
# oracles: the n^2 definitions that the generating-set layer replaced

ORACLE_SPECS = CORPUS_SPECS + ("heisenberg:13", "dihedral:2048",
                               "product:heisenberg:5,cyclic:5",
                               "alternating:4", "symmetric:4", "alternating:5")


@pytest.fixture(scope="module", params=ORACLE_SPECS)
def oracle_group(request):
    if request.param in ("alternating:4", "symmetric:4", "alternating:5"):
        return request.getfixturevalue("permutation_groups")[request.param]
    return build_group(request.param)


def _squaring_closure(g, elements) -> np.ndarray:
    """The op-closure by squaring the member set until it stops growing."""
    member = np.zeros(g.order, dtype=bool)
    member[g.identity] = True
    member[np.asarray(elements, dtype=np.intp)] = True
    while True:
        s = np.flatnonzero(member)
        for lo in range(0, len(s), 256):
            member[g.op[np.ix_(s[lo:lo + 256], s)]] = True
        if np.count_nonzero(member) == len(s):
            return member


def _n2_derived_series(g) -> list[tuple[int, ...]]:
    """G, G', ... with each G^(i+1) generated by every commutator of G^(i)."""
    series = [np.ones(g.order, dtype=bool)]
    while True:
        m = np.flatnonzero(series[-1])
        comm = np.zeros(g.order, dtype=bool)
        for lo in range(0, len(m), 256):
            a = m[lo:lo + 256, None]
            comm[g.op[g.op[g.op[a, m[None, :]], g.inv[a]], g.inv[m][None, :]]] = True
        nxt = _squaring_closure(g, np.flatnonzero(comm))
        if (nxt == series[-1]).all():
            return [tuple(np.flatnonzero(s).tolist()) for s in series]
        series.append(nxt)


def _n2_is_normal(g, member: np.ndarray) -> bool:
    h = np.flatnonzero(member)
    for lo in range(0, g.order, 256):
        x = np.arange(lo, min(lo + 256, g.order))[:, None]
        if not member[g.op[g.op[x, h[None, :]], g.inv[x]]].all():   # x h_i x^-1
            return False
    return True


def _oracle_element_sets(g):
    rng = np.random.default_rng(g.order)
    sets = [(), (g.order - 1,)]
    sets += [tuple(rng.choice(g.order, size=k).tolist()) for k in (1, 1, 2, 3)]
    return sets


def test_closure_matches_the_squaring_closure(oracle_group):
    g = oracle_group
    for elements in _oracle_element_sets(g):
        expected = _squaring_closure(g, elements)
        assert (closure(g, elements) == expected).all(), elements
        assert generated_subgroup(g, elements).element_list == \
            tuple(np.flatnonzero(expected).tolist())


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_incremental_closure_matches_the_closure_from_scratch(data):
    g = cached_group(data.draw(st.sampled_from(CORPUS_SPECS)))
    elements = data.draw(st.lists(st.integers(0, g.order - 1), max_size=5))
    start = data.draw(st.integers(0, len(elements)))
    grown = closure(g, elements[:start])
    for stop in range(start + 1, len(elements) + 1):     # one element at a time
        grown = closure(g, elements[:stop], grown)
    expected = _squaring_closure(g, elements)
    assert (closure(g, elements) == expected).all()
    assert (grown == expected).all()


def _recorded_subgroups(g):
    yield trivial_subgroup(g)
    yield from derived_series(g)
    yield from normal_subgroup_inventory(g)
    yield generated_subgroup(g, range(g.order))
    yield generated_subgroup(g, range(g.order - 1, -1, -1))
    for term in derived_series(g):
        yield from derived_series(subgroup_as_group(term))
    for x in range(g.order):
        yield generated_subgroup(g, (x,))
    if g.order > 1 and is_solvable(g):
        yield choose_decomposition_subgroup(g)


@pytest.fixture(params=CORPUS_SPECS + ("heisenberg:13", "alternating:4",
                                       "symmetric:4", "alternating:5"))
def generating_set_group(request):
    if request.param in ("alternating:4", "symmetric:4", "alternating:5"):
        return request.getfixturevalue("permutation_groups")[request.param]
    return build_group(request.param)


def test_generating_sets_close_to_exactly_their_subgroups(generating_set_group):
    for h in _recorded_subgroups(generating_set_group):
        gens, elements = h.generators, list(h.element_list)
        member = np.zeros(h.parent.order, dtype=bool)
        member[elements] = True
        assert len(gens) <= h.order.bit_length(), (h, gens)      # log2|H| + 1
        assert (closure(h.parent, gens) == member).all(), (h, gens)
        assert h.positions.dtype == np.int16 and not h.positions.flags.writeable
        assert (h.positions[elements] == np.arange(h.order)).all(), h
        assert ((h.positions == -1) == ~member).all(), h


def test_derived_series_of_a_term_is_the_tail_of_the_series(generating_set_group):
    g = generating_set_group
    series = derived_series(g)
    for depth, term in enumerate(series):
        group = subgroup_as_group(term)
        fresh = table_group(group.op, group.label, group.identity)   # nothing cached
        assert [h.element_list for h in derived_series(group)] == \
            [h.element_list for h in derived_series(fresh)]
        assert len(derived_series(group)) == len(series) - depth


def test_derived_series_matches_the_n2_commutator_definition(oracle_group):
    g = oracle_group
    assert [h.element_list for h in derived_series(g)] == _n2_derived_series(g)


def test_is_normal_matches_the_n2_conjugation_definition(oracle_group):
    g = oracle_group
    subgroups = [_squaring_closure(g, s) for s in _oracle_element_sets(g)]
    subgroups += [h.positions >= 0 for h in derived_series(g)]
    for member in subgroups:
        h = generated_subgroup(g, np.flatnonzero(member))
        assert is_normal(g, h) == _n2_is_normal(g, member)


def _element_order_kernel(g):
    """The abelian branch as a scan: the lowest x with element_order == p."""
    target = minimal_torsion(g)
    x = next(x for x in range(g.order)
             if x != g.identity and element_order(g, x) == target)
    candidate = generated_subgroup(g, (x,))
    return trivial_subgroup(g) if candidate.is_whole() else candidate


@pytest.mark.parametrize("spec", CORPUS_SPECS + ("cyclic:2187",
                                                 "product:cyclic:64,cyclic:64"))
def test_abelian_kernel_choice_matches_the_element_order_scan(spec):
    g = build_group(spec)
    if g.order == 1 or not g.is_abelian():
        return
    assert choose_decomposition_subgroup(g).element_list == \
        _element_order_kernel(g).element_list


# every group of order at most 8, up to isomorphism
SMALL_GROUP_SPECS = ("cyclic:1", "cyclic:2", "cyclic:3", "cyclic:4",
                     "product:cyclic:2,cyclic:2", "cyclic:5", "cyclic:6", "dihedral:3",
                     "cyclic:7", "cyclic:8", "product:cyclic:2,cyclic:4",
                     "product:cyclic:2,cyclic:2,cyclic:2", "dihedral:4", "quaternion")


@pytest.mark.parametrize("moved", [False, True])
@pytest.mark.parametrize("spec", SMALL_GROUP_SPECS)
def test_automorphisms_match_a_search_over_every_permutation(spec, moved):
    g = build_group(spec)
    g = moved_identity(g) if moved else g
    perms = np.array(list(permutations(range(g.order))))
    homomorphic = (perms[:, g.op] == g.op[perms[:, :, None], perms[:, None, :]]).all(axis=(1, 2))
    want = sorted(map(tuple, perms[homomorphic].tolist()))
    assert sorted(map(tuple, automorphisms(g).tolist())) == want


AUTOMORPHISM_COUNTS = {"quaternion": 24, "dihedral:5": 20, "frobenius:7:3:2": 42,
                       "product:cyclic:3,cyclic:3": 48, "product:cyclic:3,cyclic:9": 108,
                       "heisenberg:3": 432}


@pytest.mark.parametrize("spec", CORPUS_SPECS)
def test_automorphism_counts_on_the_corpus(spec):
    g = cached_group(spec)
    n = g.order
    # Aut(Z/n) is the unit group, of phi(n) elements
    want = AUTOMORPHISM_COUNTS.get(spec) or sum(math.gcd(k, n) == 1 for k in range(n))
    auts = automorphisms(g)
    assert len(auts) == want
    assert len({tuple(row) for row in auts.tolist()}) == want
    assert (auts[:, g.identity] == g.identity).all()


def test_automorphism_search_declines_past_its_candidate_limit():
    # heisenberg:3's generating set is 2 elements of order 3, and 26 elements
    # have order 3, so 26^2 candidates
    g = cached_group("heisenberg:3")
    assert automorphisms(g, limit=26**2 - 1) is None
    assert len(automorphisms(g, limit=26**2)) == 432
