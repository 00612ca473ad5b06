import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import run_cli
from reference import (check_factor_system, extension_from_factor_system,
                       normal_subgroup_inventory, pair_products, star,
                       verify_isomorphism)
from sumsetlab.corpus import CORPUS_SPECS
from sumsetlab.factor_system import (FactorSystem, build_factor_system,
                                     decompose_subset, factor_system_json)
from sumsetlab.groups import (GroupBuildError, InputError, SubsetMask, build_group,
                              cached_group, table_group, validate_group)
from sumsetlab.structure import (derived_series, generated_subgroup, quotient,
                                 trivial_subgroup, whole_subgroup)

# pair coordinates of the quaternion elements over the kernel {1,-1,k,-k}
# with coset representatives 1 and j (element indices 0 and 4):
# 1:(1,K) -1:(-1,K) i:(-k,Kj) -i:(k,Kj) j:(1,Kj) -j:(-1,Kj) k:(k,K) -k:(-k,K)
QUATERNION_PAIRS_REP_J = {
    0: (0, 0), 1: (1, 0), 2: (7, 1), 3: (6, 1),
    4: (0, 1), 5: (1, 1), 6: (6, 0), 7: (7, 0),
}


@pytest.fixture(scope="module")
def quaternion_k():
    q = build_group("quaternion")
    return q, generated_subgroup(q, (6,))


def _pair(fs, x):
    """Parent element x as its (kernel element, block) pair."""
    return fs.kernel.element_list[fs.pair_pos[x]], int(fs.pair_block[x])


def _conj(fs, h, x):
    """Kernel element x conjugated by the representative of block h."""
    return fs.kernel.element_list[fs.conj[h, fs.pair_pos[x]]]


def test_quaternion_pair_table_with_representative_j(quaternion_k):
    q, K = quaternion_k
    fs = build_factor_system(q, K, "explicit:0,4")
    assert fs.reps == (0, 4)
    assert {x: _pair(fs, x) for x in range(8)} == QUATERNION_PAIRS_REP_J
    ok, counterexample = verify_isomorphism(fs)
    assert ok and counterexample is None


def test_quaternion_star_squares_minus_k_over_kj(quaternion_k):
    # (-k, Kj) * (-k, Kj) = (-1, K): the pair arithmetic behind i*i = -1
    q, K = quaternion_k
    for policy in ["lowest_index", "explicit:0,4"]:
        fs = build_factor_system(q, K, policy)
        assert star(fs, (7, 1), (7, 1)) == (1, 0)


def test_quaternion_carry_is_nontrivial(quaternion_k):
    # the quaternion group is not a semidirect product of K and the quotient,
    # so the carry of (Kj, Kj) is a non-identity kernel element
    q, K = quaternion_k
    fs = build_factor_system(q, K, "explicit:0,4")
    assert K.element_list[fs.carry[1, 1]] == 1  # element -1


def test_base_p_carry_tables():
    for p in (3, 5):
        g = build_group(f"cyclic:{p * p}")
        fs = build_factor_system(g, generated_subgroup(g, (p,)))
        assert fs.reps == tuple(range(p))
        for b in range(p):
            for d in range(p):
                want = 0 if b + d < p else p
                assert fs.kernel.element_list[fs.carry[b, d]] == want
        # two-digit reading of every element: g = (digit a) * p + (digit b)
        for x in range(p * p):
            k, h = _pair(fs, x)
            assert k == (x // p) * p
            assert h == x % p


def test_whole_group_kernel_gives_identity_pairing(corpus_member):
    g = corpus_member
    fs = build_factor_system(g, whole_subgroup(g))
    assert fs.num_blocks == 1
    for x in range(g.order):
        assert _pair(fs, x) == (x, 0)
    assert fs.kernel.element_list[fs.carry[0, 0]] == g.identity


def test_star_identity_law(quaternion_k):
    q, K = quaternion_k
    fs = build_factor_system(q, K, "explicit:0,4")
    for x in range(8):
        pair = _pair(fs, x)
        assert star(fs, (q.identity, 0), pair) == pair
        assert star(fs, pair, (q.identity, 0)) == pair


def test_star_is_associative_on_all_pair_triples(quaternion_k):
    q, K = quaternion_k
    fs = build_factor_system(q, K, "explicit:0,4")
    pairs = [_pair(fs, x) for x in range(8)]
    for x in pairs:
        for y in pairs:
            for z in pairs:
                assert star(fs, star(fs, x, y), z) == star(fs, x, star(fs, y, z))


def test_conjugation_tables_are_automorphisms_of_the_kernel(corpus_member):
    g = corpus_member
    for k in normal_subgroup_inventory(g):
        fs = build_factor_system(g, k)
        for h in range(fs.num_blocks):
            images = [_conj(fs, h, x) for x in k.element_list]
            assert sorted(images) == list(k.element_list)  # bijective on K
            for x in k.element_list:
                for y in k.element_list:
                    assert _conj(fs, h, g.op[x, y]) == g.op[
                        _conj(fs, h, x), _conj(fs, h, y)
                    ]


@pytest.mark.parametrize("policy", ["lowest_index", "seeded_random:7"])
def test_pair_products_match_star_on_every_pair(corpus_member, policy):
    g = corpus_member
    for k in normal_subgroup_inventory(g):
        fs = build_factor_system(g, k, policy)
        nb = fs.num_blocks
        pos, blk = np.divmod(np.arange(g.order), nb)
        pairs = [(k.element_list[p], int(h)) for p, h in zip(pos, blk)]
        expected = np.array([[int(fs.pair_pos[kx]) * nb + hx
                              for kx, hx in (star(fs, x, y) for y in pairs)]
                             for x in pairs])
        got = pair_products(fs, pos[:, None], blk[:, None], pos, blk)
        assert np.array_equal(got, expected), (g.label, k.order, policy)


def test_carry_identity_row_and_column_are_trivial(corpus_member):
    g = corpus_member
    for k in normal_subgroup_inventory(g):
        fs = build_factor_system(g, k)
        for h in range(fs.num_blocks):
            assert k.element_list[fs.carry[0, h]] == g.identity
            assert k.element_list[fs.carry[h, 0]] == g.identity


def test_isomorphism_holds_for_seeded_representative_choices(quaternion_k):
    q, K = quaternion_k
    seen = set()
    for seed in range(1, 6):
        fs = build_factor_system(q, K, f"seeded_random:{seed}")
        assert fs.reps[0] == q.identity
        seen.add(fs.reps)
        ok, _ = verify_isomorphism(fs)
        assert ok
    assert len(seen) > 1  # different seeds do explore different choices


def test_seeded_policy_is_deterministic(quaternion_k):
    q, K = quaternion_k
    fs1 = build_factor_system(q, K, "seeded_random:9")
    fs2 = build_factor_system(q, K, "seeded_random:9")
    assert fs1.reps == fs2.reps
    assert factor_system_json(fs1) == factor_system_json(fs2)


def test_corrupted_carry_entry_breaks_the_isomorphism(quaternion_k):
    q, K = quaternion_k
    fs = build_factor_system(q, K)
    carry = fs.carry.copy()
    assert carry[1, 1] != 0
    carry[1, 1] = 0  # replace by the identity's kernel position
    broken = FactorSystem(parent=q, kernel=fs.kernel, quot=fs.quot,
                          reps=fs.reps, conj=fs.conj.copy(), carry=carry,
                          pair_pos=fs.pair_pos.copy(), pair_block=fs.pair_block.copy(),
                          policy=fs.policy)
    ok, counterexample = verify_isomorphism(broken)
    assert not ok
    # first failing pair in lexicographic order: both factors in the non-kernel
    # coset, whose smallest element is i = 2
    assert counterexample == (2, 2)


def test_explicit_representative_validation(quaternion_k):
    q, K = quaternion_k
    with pytest.raises(ValueError, match="representatives"):
        build_factor_system(q, K, "explicit:0")
    with pytest.raises(ValueError, match="block"):
        build_factor_system(q, K, "explicit:0,6")   # 6 lies in the kernel block
    with pytest.raises(ValueError, match="identity"):
        build_factor_system(q, K, "explicit:1,4")
    for outside in (-6, 99, 8):       # numpy would wrap -6 onto element 2
        with pytest.raises(ValueError, match=rf"representative {outside} outside 0\.\.7"):
            build_factor_system(q, K, f"explicit:0,{outside}")


def test_extension_round_trip_for_named_pairs():
    cases = [
        ("quaternion", (6,)),
        ("cyclic:25", (5,)),
        ("heisenberg:3", (1,)),   # the order-3 center
        ("frobenius:7:3:2", (3,)),
    ]
    for spec, gens in cases:
        g = build_group(spec)
        k = generated_subgroup(g, gens)
        fs = build_factor_system(g, k)
        ext = extension_from_factor_system(fs)
        assert validate_group(ext) == []
        assert ext.order == g.order
        flat = (fs.pair_pos * fs.num_blocks + fs.pair_block).tolist()
        for a in range(g.order):
            for b in range(g.order):
                flat_ab = flat[g.op[a, b]]
                assert flat_ab == ext.op[flat[a], flat[b]]


def test_trivial_factor_system_rebuilds_the_direct_product():
    g = build_group("product:cyclic:3,cyclic:3")
    k = generated_subgroup(g, (3,))   # the first-factor copy of Z/3
    fs = build_factor_system(g, k)
    for i in range(3):
        for j in range(3):
            assert k.element_list[fs.carry[i, j]] == g.identity
            assert [_conj(fs, i, x) for x in k.element_list] == \
                list(k.element_list)
    ext = extension_from_factor_system(fs)
    assert (ext.op == g.op).all()


def test_hand_built_factor_system_must_be_associative(quaternion_k):
    q, K = quaternion_k
    fs = build_factor_system(q, K)
    conj = fs.conj.copy()
    conj[1] = conj[1][::-1].copy()  # scramble one conjugation row
    broken = FactorSystem(parent=q, kernel=fs.kernel, quot=fs.quot,
                          reps=fs.reps, conj=conj, carry=fs.carry.copy(),
                          pair_pos=fs.pair_pos.copy(), pair_block=fs.pair_block.copy(),
                          policy=fs.policy)
    with pytest.raises(GroupBuildError):
        extension_from_factor_system(broken)


def _kernel_union(dec):
    """The kernel positions (first coordinates) of a decomposed subset."""
    union = 0
    for _, members in dec:
        union |= members.bits
    return SubsetMask(union, dec[0][1].width)


def _sizes(dec):
    return tuple(len(members) for _, members in dec)


def test_decompose_whole_group(quaternion_k):
    q, K = quaternion_k
    fs = build_factor_system(q, K, "explicit:0,4")
    dec = decompose_subset(fs, SubsetMask((1 << 8) - 1, 8))
    assert [h for h, _ in dec] == [0, 1]
    assert _kernel_union(dec).elements() == (0, 1, 2, 3)
    assert _sizes(dec) == (4, 4)


def test_decompose_named_subset_of_quaternion(quaternion_k):
    q, K = quaternion_k
    fs = build_factor_system(q, K, "explicit:0,4")
    dec = decompose_subset(fs, SubsetMask.from_elements(8, (2, 3, 0)))
    assert _sizes(dec) == (2, 1)
    assert dec[0][0] == 1
    # kernel coordinates of {i, -i, 1}: {-k, k, 1} = positions {3, 2, 0}
    assert [K.element_list[p] for p in _kernel_union(dec).elements()] == [0, 6, 7]


def test_decompose_refuses_a_mask_of_another_width(quaternion_k):
    q, K = quaternion_k
    fs = build_factor_system(q, K, "explicit:0,4")
    with pytest.raises(InputError, match="mask width does not match the group order"):
        decompose_subset(fs, SubsetMask(1, 7))


def test_decompose_subset_of_cyclic_25():
    g = build_group("cyclic:25")
    k = generated_subgroup(g, (5,))
    fs = build_factor_system(g, k)
    dec = decompose_subset(fs, SubsetMask.from_elements(25, (0, 1, 2, 5)))
    assert _sizes(dec) == (2, 1, 1)
    assert dec[0][0] == 0
    assert [k.element_list[p] for p in dec[0][1].elements()] == [0, 5]


@settings(max_examples=60)
@given(bits=st.integers(min_value=1, max_value=(1 << 27) - 1))
def test_decomposition_bookkeeping_on_heisenberg(bits):
    g = build_group("heisenberg:3")
    k = generated_subgroup(g, (1,))   # the order-3 center
    fs = build_factor_system(g, k)
    s = SubsetMask(bits, 27)
    dec = decompose_subset(fs, s)
    assert sum(_sizes(dec)) == len(s)
    assert len({h for h, _ in dec}) == len(dec) <= len(s)
    assert sorted(_sizes(dec), reverse=True) == list(_sizes(dec))
    # ties in size are broken by ascending block index
    for (h, m), (h2, m2) in zip(dec, dec[1:]):
        if len(m) == len(m2):
            assert h < h2


@settings(max_examples=80, deadline=None)
@given(spec=st.sampled_from(CORPUS_SPECS), seed=st.none() | st.integers(0, (1 << 64) - 1),
       data=st.data())
def test_decompose_subset_puts_the_subset_back_together(spec, seed, data):
    g = cached_group(spec)
    k = data.draw(st.sampled_from(normal_subgroup_inventory(g)))
    fs = build_factor_system(g, k, "lowest_index" if seed is None else f"seeded_random:{seed}")
    s = SubsetMask(data.draw(st.integers(0, (1 << g.order) - 1)), g.order)
    dec = decompose_subset(fs, s)
    blocks = [h for h, _ in dec]
    assert len(set(blocks)) == len(blocks)
    assert set(blocks) == {int(fs.quot.project[x]) for x in s.elements()}
    for h, members in dec:
        rebuilt = {int(g.op[k.element_list[p], fs.reps[h]]) for p in members.elements()}
        assert rebuilt == {x for x in s.elements() if fs.quot.project[x] == h}


def test_factor_system_json_shape(quaternion_k):
    q, K = quaternion_k
    fs = build_factor_system(q, K, "explicit:0,4")
    payload = factor_system_json(fs)
    assert payload["kernel"] == [0, 1, 6, 7]
    assert payload["representatives"] == [0, 4]
    assert payload["policy"] == {"explicit": [0, 4]}
    assert payload["pairs"][2] == [7, 1]
    assert payload["carry"][1][1] == 1
    lowest = build_factor_system(q, K)
    assert factor_system_json(lowest)["policy"] == "lowest_index"


# ---------------------------------------------------------------------------
# oracles: the loops that structure.quotient and factor_system_json replaced


def _loop_quotient(g, k):
    """(blocks, project, table) from a scan of the right cosets Kx in order of x."""
    members = np.fromiter(k.element_list, dtype=np.int64, count=k.order)
    project = np.full(g.order, -1, dtype=np.int16)
    blocks = []
    for x in range(g.order):
        if project[x] < 0:
            coset = np.sort(g.op[members, x])
            project[coset] = len(blocks)
            blocks.append(tuple(int(v) for v in coset))
    reps = np.array([b[0] for b in blocks], dtype=np.int64)
    return tuple(blocks), project, project[g.op[reps[:, None], reps[None, :]]]


def _loop_payload(fs):
    """factor_system_json with its per-element comprehensions."""
    payload = factor_system_json(fs)
    ke = fs.kernel.element_list
    payload.update({
        "kernel": list(ke),
        "conjugation": [[ke[int(p)] for p in fs.conj[h]] for h in range(fs.num_blocks)],
        "carry": [[ke[int(p)] for p in fs.carry[h]] for h in range(fs.num_blocks)],
        "pairs": [list(_pair(fs, x)) for x in range(fs.parent.order)],
    })
    return payload


def _kernels(g):
    seen = {h.members.bits: h for h in normal_subgroup_inventory(g)}
    seen.update((h.members.bits, h) for h in derived_series(g))   # V4 in S4
    return [seen[bits] for bits in sorted(seen)]


def _policies(blocks):
    return ["lowest_index", "seeded_random:11",
            "explicit:" + ",".join(str(b[-1] if h else b[0]) for h, b in enumerate(blocks))]


def _assert_matches_the_loops(g, kernels):
    for k in kernels:
        blocks, project, table = _loop_quotient(g, k)
        q = quotient(g, k)
        assert q.blocks == blocks, (g.label, k.order)
        assert q.project.dtype == project.dtype and np.array_equal(q.project, project)
        assert np.array_equal(q.table.op, table)
        for policy in _policies(blocks):
            fs = build_factor_system(g, k, policy)
            assert factor_system_json(fs) == _loop_payload(fs), \
                (g.label, k.order, policy)


def test_quotient_and_payload_match_the_loops_on_the_corpus(corpus_member):
    _assert_matches_the_loops(corpus_member, _kernels(corpus_member))


@pytest.mark.parametrize("label", ["alternating:4", "symmetric:4", "alternating:5"])
def test_quotient_and_payload_match_the_loops_on_permutation_groups(
        permutation_groups, label):
    g = permutation_groups[label]
    _assert_matches_the_loops(g, _kernels(g))


def test_quotient_and_payload_match_the_loops_on_heisenberg_13():
    # payloads over the whole group and its centre, the decompose kernel;
    # over the trivial kernel (a carry table of 2197^2 entries) they would
    # take seconds, so that kernel checks the quotient only
    g = build_group("heisenberg:13")
    whole, centre, trivial = derived_series(g)
    _assert_matches_the_loops(g, [whole, centre])
    blocks, project, table = _loop_quotient(g, trivial)
    q = quotient(g, trivial)
    assert q.blocks == blocks and np.array_equal(q.project, project)
    assert np.array_equal(q.table.op, table)


def test_trivial_kernel_factor_system_memory_stays_int16():
    # on Z/1021 the quotient by the trivial kernel has 1021 blocks, so the
    # block table, carry and their gathers are n x n: quotient and factor
    # system peaked at 16 MiB with int32 tables and carry, 9 MiB with int16
    g = build_group("cyclic:1021")
    k = trivial_subgroup(g)
    tracemalloc.start()
    try:
        fs = build_factor_system(g, k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert {t.dtype for t in (fs.conj, fs.carry, fs.pair_pos, fs.pair_block,
                              fs.quot.project, fs.quot.table.op)} == {np.dtype(np.int16)}
    assert peak < 11 * 2**20


def _heisenberg_3_with_identity_22():
    """heisenberg:3 with every element x renamed x - 5 mod 27."""
    h = build_group("heisenberg:3")
    rename = (np.arange(27) - 5) % 27
    op = np.empty_like(h.op)
    op[rename[:, None], rename[None, :]] = rename[h.op]
    return table_group(op, "heisenberg:3 renamed", identity=22)


@pytest.mark.parametrize("policy", ["lowest_index", "seeded_random:3", "explicit"])
def test_block_0_is_the_kernel_when_the_identity_is_not_element_0(policy):
    g = _heisenberg_3_with_identity_22()
    k = derived_series(g)[1]
    q = quotient(g, k)
    assert q.blocks[0] == k.element_list == (22, 23, 24)
    assert [b[0] for b in q.blocks[1:]] == sorted(b[0] for b in q.blocks[1:])
    assert validate_group(q.table) == []
    if policy == "explicit":
        policy = "explicit:" + ",".join(map(str, [22] + [b[-1] for b in q.blocks[1:]]))
    fs = build_factor_system(g, k, policy)
    assert fs.reps[0] == 22
    assert k.element_list[fs.carry[0, 0]] == 22
    assert verify_isomorphism(fs) == (True, None)


# ---------------------------------------------------------------------------
# the sound check of a decompose payload


def _changed_carry(payload):
    """The payload with carry[1][1] moved to the next kernel element."""
    kernel = payload["kernel"]
    carry = [row[:] for row in payload["carry"]]
    carry[1][1] = kernel[(kernel.index(carry[1][1]) + 1) % len(kernel)]
    return {**payload, "carry": carry}


@pytest.mark.parametrize("spec", ["heisenberg:7", "heisenberg:11", "heisenberg:13",
                                  "frobenius:31:5:2", "product:heisenberg:3,cyclic:5"])
def test_decompose_payloads_pass_the_sound_check(spec):
    result = run_cli("decompose", "--group", spec, "--json")
    assert result.exit_code == 0
    payload = json.loads(result.output)
    g = build_group(spec)
    assert check_factor_system(g, payload) == []
    assert check_factor_system(g, _changed_carry(payload)) == ["carry"]


def test_the_sound_check_agrees_with_verify_isomorphism_on_the_corpus():
    # every normal subgroup of the inventory under the three policies; the
    # explicit one takes the largest element of each block but the kernel
    checked = 0
    for spec in CORPUS_SPECS:
        g = cached_group(spec)
        for kernel in normal_subgroup_inventory(g):
            blocks = quotient(g, kernel).blocks
            explicit = ",".join(map(str, [g.identity] + [b[-1] for b in blocks[1:]]))
            for policy in ("lowest_index", "seeded_random:3", f"explicit:{explicit}"):
                fs = build_factor_system(g, kernel, policy)
                payload = factor_system_json(fs)
                assert verify_isomorphism(fs)[0] and check_factor_system(g, payload) == []
                if len(blocks) > 1 and kernel.order > 1:
                    carry = fs.carry.copy()
                    carry[1, 1] = (carry[1, 1] + 1) % kernel.order
                    broken = FactorSystem(parent=g, kernel=fs.kernel, quot=fs.quot,
                                          reps=fs.reps, conj=fs.conj, carry=carry,
                                          pair_pos=fs.pair_pos, pair_block=fs.pair_block,
                                          policy=fs.policy)
                    assert factor_system_json(broken) == _changed_carry(payload)
                    assert not verify_isomorphism(broken)[0]
                    assert check_factor_system(g, _changed_carry(payload)) == ["carry"]
                    checked += 1
    assert checked > 20


def test_the_sound_check_rejects_a_kernel_that_is_not_a_subgroup():
    # {0, 1} and its translate by 2 tile Z/4, and every other part of this
    # payload reads right off the table, but 1 + 1 leaves the kernel, so the
    # product rule sends the pairs of 1 and 1 to (2, 0), which pairs nothing
    payload = {"group_order": 4, "kernel": [0, 1], "representatives": [0, 2],
               "blocks": [[0, 1], [2, 3]], "pairs": [[0, 0], [1, 0], [0, 1], [1, 1]],
               "conjugation": [[0, 1], [0, 1]], "carry": [[0, 0], [0, 0]]}
    assert check_factor_system(build_group("cyclic:4"), payload) == ["kernel"]
