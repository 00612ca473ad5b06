import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sumsetlab.corpus import CORPUS_SPECS, corpus_group
from sumsetlab.groups import (GroupBuildError, SubsetMask, _product_table,
                              as_candidate_group, build_group, element_order,
                              parse_group_spec, validate_group)

QUATERNION_NAMES = ["1", "-1", "i", "-i", "j", "-j", "k", "-k"]


def test_quaternion_multiplication_rules():
    q = build_group("quaternion")
    name = {n: i for i, n in enumerate(QUATERNION_NAMES)}
    assert q.mul(name["i"], name["i"]) == name["-1"]
    assert q.mul(name["j"], name["j"]) == name["-1"]
    assert q.mul(name["k"], name["k"]) == name["-1"]
    assert q.mul(name["i"], name["j"]) == name["k"]
    assert q.mul(name["j"], name["i"]) == name["-k"]
    assert q.mul(name["j"], name["k"]) == name["i"]
    assert q.mul(name["k"], name["j"]) == name["-i"]
    assert q.mul(name["k"], name["i"]) == name["j"]
    assert q.mul(name["i"], name["k"]) == name["-j"]


def test_trivial_group():
    g = build_group("cyclic:1")
    assert g.order == 1
    assert g.mul(0, 0) == 0
    assert validate_group(g) == []


def test_heisenberg_3_matches_matrix_multiplication_oracle():
    # independent oracle: multiply 3x3 unitriangular matrices over Z/3 directly
    p = 3
    g = build_group("heisenberg:3")
    assert g.order == 27
    assert not g.is_abelian()

    def mat(a, b, c):
        return ((1, a, c), (0, 1, b), (0, 0, 1))

    def matmul(m1, m2):
        return tuple(
            tuple(sum(m1[i][k] * m2[k][j] for k in range(3)) % p for j in range(3))
            for i in range(3)
        )

    def idx(m):
        return m[0][1] * p * p + m[1][2] * p + m[0][2]

    for x in range(27):
        for y in range(27):
            mx = mat(x // 9, (x // 3) % 3, x % 3)
            my = mat(y // 9, (y // 3) % 3, y % 3)
            assert g.mul(x, y) == idx(matmul(mx, my))

    orders = {element_order(g, x) for x in range(1, 27)}
    assert orders == {3}


def test_dihedral_5_matches_pentagon_symmetry_oracle():
    # independent oracle: compose symmetries of {0..4} as functions
    m = 5
    g = build_group("dihedral:5")

    def as_function(idx):
        # index f*m + a is the symmetry v -> (-1)^f * (v + a)
        flip, rot = idx // m, idx % m
        if flip:
            return tuple((-v - rot) % m for v in range(m))
        return tuple((v + rot) % m for v in range(m))

    functions = [as_function(i) for i in range(2 * m)]
    index = {f: i for i, f in enumerate(functions)}
    for x in range(2 * m):
        for y in range(2 * m):
            fx, fy = functions[x], functions[y]
            composed = tuple(fx[fy[v]] for v in range(m))
            assert g.mul(x, y) == index[composed]


def test_frobenius_group_of_order_21():
    g = build_group("frobenius:7:3:2")
    assert g.order == 21
    assert not g.is_abelian()
    assert validate_group(g) == []
    # (x1,y1)(x2,y2) = (x1 + 2^y1 x2 mod 7, y1 + y2 mod 3)
    for x1 in range(7):
        for y1 in range(3):
            for x2 in range(7):
                for y2 in range(3):
                    want = ((x1 + pow(2, y1, 7) * x2) % 7) * 3 + (y1 + y2) % 3
                    assert g.mul(x1 * 3 + y1, x2 * 3 + y2) == want


def test_every_corpus_group_satisfies_the_axioms(corpus_member):
    assert validate_group(corpus_member) == []


def test_direct_product_order_and_validity():
    g = build_group("product:cyclic:3,cyclic:9")
    assert g.order == 27
    assert g.is_abelian()
    assert validate_group(g) == []
    h = build_group("product:cyclic:2,dihedral:3")
    assert h.order == 12
    assert validate_group(h) == []


def test_build_group_is_deterministic():
    a = build_group("heisenberg:3")
    b = build_group("heisenberg:3")
    assert a.op.tobytes() == b.op.tobytes()
    assert a.inv.tobytes() == b.inv.tobytes()


def test_element_orders_divide_group_order(corpus_member):
    g = corpus_member
    for x in range(g.order):
        assert g.order % element_order(g, x) == 0
    assert element_order(g, g.identity) == 1


def test_element_order_of_j_in_quaternion_is_4():
    q = build_group("quaternion")
    assert element_order(q, 4) == 4


def test_element_order_raises_on_a_non_group_table():
    # left projection: 1 * 1 = 1 forever, no power of 1 is the identity
    g = as_candidate_group([[0, 0, 0], [1, 1, 1], [2, 2, 2]])
    with pytest.raises(ValueError, match="no power"):
        element_order(g, 1)


def test_validate_flags_constant_row():
    report = validate_group(as_candidate_group([[0, 1], [1, 1]]))
    assert any("row 1" in msg for msg in report)


def test_validate_flags_missing_identity():
    # left projection op(a, b) = a has no two-sided identity
    report = validate_group(as_candidate_group([[0, 0, 0], [1, 1, 1], [2, 2, 2]]))
    assert any(msg.startswith("identity:") for msg in report)


# a Latin square with two-sided identity 0 and two-sided inverses that is not
# associative: (1*1)*2 = 0*2 = 2 but 1*(1*2) = 1*3 = 4
NONASSOCIATIVE_LOOP = [
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 4, 0, 1, 3],
    [3, 2, 4, 0, 1],
    [4, 3, 1, 2, 0],
]


def test_validate_flags_nonassociative_loop():
    report = validate_group(as_candidate_group(NONASSOCIATIVE_LOOP))
    assert report != []
    assert all(msg.startswith("associativity:") for msg in report)


def _brute_force_associative(op: np.ndarray) -> bool:
    return bool((op[op] == op[:, op]).all())   # [a, b, c]: (ab)c vs a(bc)


def _assert_genuine_associativity_witness(op: np.ndarray, message: str):
    match = re.fullmatch(r"associativity: op\(op\((\d+),(\d+)\),(\d+)\) = (\d+) "
                         r"but op\(\1,op\(\2,\3\)\) = (\d+)", message)
    a, b, c, u, v = (int(v) for v in match.groups())
    assert (op[op[a, b], c], op[a, op[b, c]]) == (u, v)
    assert u != v


def _relabelled(op: np.ndarray, rng) -> np.ndarray:
    """The same table with every element but the identity 0 renamed."""
    perm = np.concatenate(([0], 1 + rng.permutation(len(op) - 1)))
    inv = np.argsort(perm)
    return perm[op[inv][:, inv]]


@pytest.mark.parametrize("spec", [s for s in CORPUS_SPECS
                                  if 5 * corpus_group(s).order <= 150])
def test_light_test_matches_brute_force_associativity(spec):
    # oracle: the O(n^3) definition, on the corpus group and on its product
    # with the 5-element loop, both under a random relabelling
    rng = np.random.default_rng(corpus_group(spec).order)
    group_op = corpus_group(spec).op
    for op in (group_op, _product_table([np.array(NONASSOCIATIVE_LOOP), group_op])):
        op = _relabelled(op, rng)
        report = validate_group(as_candidate_group(op))
        if _brute_force_associative(op):
            assert report == []
        else:
            assert len(report) == 1
            _assert_genuine_associativity_witness(op, report[0])


def test_validate_flags_a_nonassociative_loop_of_order_600():
    # an order-5 loop x Z/120: Latin, with identity and inverses, but not
    # associative; the check runs at every order the loader accepts
    op = _product_table([np.array(NONASSOCIATIVE_LOOP), build_group("cyclic:120").op])
    report = validate_group(as_candidate_group(op))
    assert len(report) == 1
    assert report[0].startswith("associativity:")
    _assert_genuine_associativity_witness(op, report[0])


def test_light_test_reports_the_first_failing_triple_past_the_first_row_block():
    # loop x Z/300: rows 0..299 (loop part the identity) pass for every s, so
    # the first failure, lowest a then c, lies past the first 256 rows that
    # are compared at once
    op = _product_table([np.array(NONASSOCIATIVE_LOOP), build_group("cyclic:300").op])
    report = validate_group(as_candidate_group(op))
    assert len(report) == 1
    _assert_genuine_associativity_witness(op, report[0])
    a, s, c = (int(v) for v in re.match(r"associativity: op\(op\((\d+),(\d+)\),(\d+)\)",
                                        report[0]).groups())
    first = np.argwhere(op[op[:, s]] != op[:, op[s]])[0]     # [a, c]: (as)c vs a(sc)
    assert (a, c) == tuple(first.tolist())
    assert a >= 256


def test_light_test_memory_stays_bounded_at_order_4096():
    # two n x n tables per generator took 144 MB here; row blocks leave the
    # closure's n x n gather (64 MB) as the peak
    g = build_group("cyclic:4096")
    tracemalloc.start()
    try:
        assert validate_group(g) == []
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 96 * 2**20


@pytest.mark.parametrize("spec", ["heisenberg:13", "cyclic:4096"])
def test_validate_is_clean_on_the_largest_groups(spec):
    assert validate_group(build_group(spec)) == []


def test_validate_constructor_output_is_clean():
    assert validate_group(build_group("cyclic:6")) == []


def test_spec_parse_errors():
    with pytest.raises(GroupBuildError):
        parse_group_spec("nonsense:3")
    with pytest.raises(GroupBuildError):
        parse_group_spec("cyclic")
    with pytest.raises(GroupBuildError):
        parse_group_spec("product:cyclic:3")
    with pytest.raises(GroupBuildError):
        parse_group_spec("product:product:cyclic:2,cyclic:3,cyclic:5")


def test_spec_parse_rejects_non_integer_parameters():
    with pytest.raises(GroupBuildError, match="must be integers"):
        parse_group_spec("cyclic:abc")
    with pytest.raises(GroupBuildError, match="must be integers"):
        parse_group_spec("frobenius:7:3:x")


def test_spec_validation_errors():
    with pytest.raises(GroupBuildError):
        build_group("cyclic:0")
    with pytest.raises(GroupBuildError):
        build_group("heisenberg:2")
    with pytest.raises(GroupBuildError):
        build_group("heisenberg:4")
    with pytest.raises(GroupBuildError):
        build_group("frobenius:7:3:3")   # 3^3 = 27 = 6 mod 7
    with pytest.raises(GroupBuildError):
        build_group("frobenius:3:7:2")   # q > p
    with pytest.raises(GroupBuildError):
        build_group("cyclic:5000")       # above the order cap


def _write_table(path, op):
    lines = [str(len(op))] + [" ".join(str(v) for v in row) for row in op]
    path.write_text("\n".join(lines) + "\n")


def test_table_file_roundtrip_with_relabelled_identity(tmp_path):
    # Z/4 relabelled so the identity sits at index 2
    perm = [2, 3, 0, 1]  # old -> new
    inv_perm = [2, 3, 0, 1]
    op = [
        [perm[(inv_perm[x] + inv_perm[y]) % 4] for y in range(4)]
        for x in range(4)
    ]
    path = tmp_path / "z4.cay"
    _write_table(path, op)
    g = build_group(f"table:{path}")
    assert g.identity == 0
    assert "identity=2->0" in g.label
    assert validate_group(g) == []
    assert sorted(element_order(g, x) for x in range(4)) == [1, 2, 4, 4]


def test_table_file_already_canonical(tmp_path):
    op = [[(x + y) % 3 for y in range(3)] for x in range(3)]
    path = tmp_path / "z3.cay"
    _write_table(path, op)
    g = build_group(f"table:{path}")
    assert g.label == f"table:{path.name}"
    assert validate_group(g) == []


def test_table_file_rejects_axiom_violations(tmp_path):
    path = tmp_path / "bad.cay"
    _write_table(path, [[0, 1], [1, 1]])
    with pytest.raises(GroupBuildError):
        build_group(f"table:{path}")
    path2 = tmp_path / "loop.cay"
    _write_table(path2, NONASSOCIATIVE_LOOP)
    with pytest.raises(GroupBuildError, match="associativity"):
        build_group(f"table:{path2}")


def test_table_file_rejects_malformed_input(tmp_path):
    path = tmp_path / "short.cay"
    path.write_text("3\n0 1 2\n")
    with pytest.raises(GroupBuildError, match="expected"):
        build_group(f"table:{path}")
    missing = tmp_path / "missing.cay"
    with pytest.raises(GroupBuildError, match="cannot read"):
        build_group(f"table:{missing}")


def test_subset_mask_basics():
    m = SubsetMask.from_elements(8, (2, 3, 0))
    assert m.elements() == (0, 2, 3)
    assert len(m) == 3
    assert 2 in m and 5 not in m
    assert len(SubsetMask.empty(5)) == 0
    assert SubsetMask.full(5).elements() == (0, 1, 2, 3, 4)
    with pytest.raises(ValueError):
        SubsetMask(1 << 8, 8)
    with pytest.raises(ValueError):
        SubsetMask.from_elements(4, (4,))


@given(st.integers(min_value=0, max_value=(1 << 20) - 1))
def test_subset_mask_elements_roundtrip(bits):
    m = SubsetMask(bits, 20)
    assert SubsetMask.from_elements(20, m.elements()).bits == bits
    assert len(m) == bin(bits).count("1")
