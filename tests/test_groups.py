import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sumsetlab.corpus import CORPUS_SPECS
from sumsetlab.factor_system import build_factor_system
from reference import as_candidate_group
from sumsetlab import groups
from sumsetlab.groups import (GroupBuildError, SubsetMask, _product_table,
                              build_group, cached_group, closure, element_order,
                              generating_set, lowest_first_generators,
                              parse_group_spec, validate_group)
from sumsetlab.structure import choose_decomposition_subgroup, whole_subgroup

QUATERNION_NAMES = ["1", "-1", "i", "-i", "j", "-j", "k", "-k"]


def test_quaternion_multiplication_rules():
    q = build_group("quaternion")
    name = {n: i for i, n in enumerate(QUATERNION_NAMES)}
    assert q.op[name["i"], name["i"]] == name["-1"]
    assert q.op[name["j"], name["j"]] == name["-1"]
    assert q.op[name["k"], name["k"]] == name["-1"]
    assert q.op[name["i"], name["j"]] == name["k"]
    assert q.op[name["j"], name["i"]] == name["-k"]
    assert q.op[name["j"], name["k"]] == name["i"]
    assert q.op[name["k"], name["j"]] == name["-i"]
    assert q.op[name["k"], name["i"]] == name["j"]
    assert q.op[name["i"], name["k"]] == name["-j"]


def test_trivial_group():
    g = build_group("cyclic:1")
    assert g.order == 1
    assert g.op[0, 0] == 0
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
            assert g.op[x, y] == idx(matmul(mx, my))

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
            assert g.op[x, y] == index[composed]


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
                    assert g.op[x1 * 3 + y1, x2 * 3 + y2] == want


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
                                  if 5 * cached_group(s).order <= 150])
def test_light_test_matches_brute_force_associativity(spec):
    # oracle: the O(n^3) definition, on the corpus group and on its product
    # with the 5-element loop, both under a random relabelling
    rng = np.random.default_rng(cached_group(spec).order)
    group_op = cached_group(spec).op
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
    # two n x n tables per generator took 144 MB here; Light's test compares
    # 256-row blocks and the closure gathers n x k products, not n x n
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
    assert len(SubsetMask(0, 5)) == 0
    assert SubsetMask((1 << 5) - 1, 5).elements() == (0, 1, 2, 3, 4)
    with pytest.raises(ValueError):
        SubsetMask(1 << 8, 8)
    with pytest.raises(ValueError):
        SubsetMask.from_elements(4, (4,))


@pytest.mark.parametrize("width", [0, 1, 7, 8, 9, 63, 64, 65, 4096])
def test_subset_mask_from_member_matches_from_elements(width):
    # bit x of the mask is member[x], across byte and word boundaries
    rng = np.random.default_rng(width)
    last = np.zeros(width, dtype=bool)
    last[-1:] = True
    for member in (np.zeros(width, dtype=bool), np.ones(width, dtype=bool), last,
                   rng.random(width) < 0.5, rng.random(width) < 0.1):
        want = SubsetMask.from_elements(width, np.flatnonzero(member).tolist())
        assert SubsetMask.from_member(member) == want


@given(st.integers(min_value=0, max_value=(1 << 20) - 1))
def test_subset_mask_elements_roundtrip(bits):
    m = SubsetMask(bits, 20)
    assert SubsetMask.from_elements(20, m.elements()).bits == bits
    assert len(m) == bin(bits).count("1")


# ---------------------------------------------------------------------------
# builders against the n^2 int64 formulas they replaced


def _formula_cyclic(n):
    idx = np.arange(n, dtype=np.int32)
    return (idx[:, None] + idx[None, :]) % n


def _formula_dihedral(m):
    idx = np.arange(2 * m)
    f, a = idx // m, idx % m
    sign = np.where(f[None, :] == 1, -1, 1)
    return ((f[:, None] ^ f[None, :]) * m + (a[None, :] + sign * a[:, None]) % m)


def _formula_heisenberg(p):
    idx = np.arange(p ** 3)
    a, b, c = idx // (p * p), (idx // p) % p, idx % p
    return (((a[:, None] + a[None, :]) % p) * p * p
            + ((b[:, None] + b[None, :]) % p) * p
            + (c[:, None] + c[None, :] + a[:, None] * b[None, :]) % p)


def _formula_frobenius(p, q, k):
    idx = np.arange(p * q)
    x, y = idx // q, idx % q
    kpow = np.array([pow(k, e, p) for e in range(q)], dtype=np.int64)
    return (((x[:, None] + kpow[y][:, None] * x[None, :]) % p) * q
            + (y[:, None] + y[None, :]) % q)


def _formula_quaternion():
    # index = 2*unit + sign with unit in (1, i, j, k): the unit products by rule
    umul = {(0, v): (0, v) for v in range(4)} | {(v, 0): (0, v) for v in range(4)}
    umul |= {(1, 1): (1, 0), (2, 2): (1, 0), (3, 3): (1, 0), (1, 2): (0, 3),
             (2, 1): (1, 3), (2, 3): (0, 1), (3, 2): (1, 1), (3, 1): (0, 2),
             (1, 3): (1, 2)}
    table = np.zeros((8, 8), dtype=np.int64)
    for x in range(8):
        for y in range(8):
            s, u = umul[(x // 2, y // 2)]
            table[x, y] = 2 * u + ((x + y + s) % 2)
    return table


FORMULAS = {"cyclic": _formula_cyclic, "dihedral": _formula_dihedral,
            "heisenberg": _formula_heisenberg, "frobenius": _formula_frobenius,
            "quaternion": _formula_quaternion}


def _formula_product(left, right):
    # index = x*m + y for x in the left factor and y in the right one
    m = len(right)
    idx = np.arange(len(left) * m, dtype=np.int32)
    x, y = idx // m, idx % m
    return left[x[:, None], x[None, :]] * m + right[y[:, None], y[None, :]]


def _formula(spec):
    if spec.startswith("product:"):
        return _formula_product(*map(_formula, spec[len("product:"):].split(",")))
    kind, *params = spec.split(":")
    return FORMULAS[kind](*map(int, params))


@pytest.mark.parametrize("spec", [
    "cyclic:1", "cyclic:2", "cyclic:3", "cyclic:8", "cyclic:25", "cyclic:4096",
    "dihedral:1", "dihedral:2", "dihedral:3", "dihedral:5", "dihedral:32",
    "dihedral:2048",
    "heisenberg:3", "heisenberg:5", "heisenberg:7", "heisenberg:13", "quaternion",
    "frobenius:7:3:2", "frobenius:7:3:4", "frobenius:13:3:3", "frobenius:11:5:3",
    "frobenius:31:5:2", "product:cyclic:64,cyclic:64",
])
def test_canonical_builders_match_their_int64_formulas(spec):
    g = build_group(spec)
    assert g.op.dtype == g.inv.dtype == np.int16
    assert np.array_equal(g.op, _formula(spec))
    assert np.array_equal(g.inv, np.argmax(g.op == 0, axis=1))


def test_structure_path_memory_stays_bounded_at_heisenberg_13():
    # build, validate, decomposition kernel and factor system: 184 MiB when
    # the derived series and the normality test formed n x n products; about
    # 25 MiB once they work on generating sets, most of it the int32 table;
    # about 14 MiB with int16 tables, so an int32 table or copy fails here
    tracemalloc.start()
    try:
        g = build_group("heisenberg:13")
        assert validate_group(g) == []
        build_factor_system(g, choose_decomposition_subgroup(g))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2**20


# ---------------------------------------------------------------------------
# validate_group against the Latin-first version it replaced


def _reference_closure(g, elements) -> np.ndarray:
    member = np.zeros(g.order, dtype=bool)
    member[g.identity] = True
    member[np.asarray(elements, dtype=np.intp)] = True
    while True:
        s = np.flatnonzero(member)
        member[g.op[np.ix_(s, s)]] = True
        if np.count_nonzero(member) == len(s):
            return member


def _reference_validate(g) -> list[str]:
    """Latin rows and columns, then identity and inverses, then Light's test
    over the op-closure by squaring, with the full-table first failure."""
    problems = []
    op, n = g.op, g.order
    idx = np.arange(n)
    if op.shape != (n, n) or op.min() < 0 or op.max() >= n:
        return ["table entries out of range"]
    row_ok = (np.sort(op, axis=1) == idx).all(axis=1)
    for a in np.nonzero(~row_ok)[0]:
        problems.append(f"latin: row {a} is not a permutation of 0..{n - 1}")
    col_ok = (np.sort(op, axis=0) == idx[:, None]).all(axis=0)
    for b in np.nonzero(~col_ok)[0]:
        problems.append(f"latin: column {b} is not a permutation of 0..{n - 1}")
    e = g.identity
    if not ((op[e] == idx).all() and (op[:, e] == idx).all()):
        bad = int(np.nonzero((op[e] != idx) | (op[:, e] != idx))[0][0])
        problems.append(
            f"identity: element {e} is not a two-sided identity (fails at {bad})")
    left, right = op[idx, g.inv], op[g.inv, idx]
    if not ((left == e).all() and (right == e).all()):
        bad = int(np.nonzero((left != e) | (right != e))[0][0])
        problems.append(f"inverse: element {bad} has no valid inverse entry")
    if problems:
        return problems
    closed = _reference_closure(g, ())
    while not closed.all():
        s = int(np.argmin(closed))
        lhs, rhs = op[op[:, s]], op[:, op[s]]        # [a, c]: (as)c, a(sc)
        if not np.array_equal(lhs, rhs):
            a, c = np.argwhere(lhs != rhs)[0]
            return [f"associativity: op(op({a},{s}),{c}) = {int(lhs[a, c])} "
                    f"but op({a},op({s},{c})) = {int(rhs[a, c])}"]
        closed[s] = True
        closed = _reference_closure(g, np.flatnonzero(closed))
    return problems


def _intercalate_switch(op: np.ndarray, rng) -> np.ndarray | None:
    """Swap u and v in a 2x2 subsquare [[u, v], [v, u]] away from row and
    column 0: the table stays Latin with identity 0, and usually stops being
    associative."""
    n = len(op)
    found = [(a, b, x, y)
             for a in range(1, n) for b in range(a + 1, n)
             for x in range(1, n) for y in range(x + 1, n)
             if op[a, x] == op[b, y] and op[a, y] == op[b, x]]
    if not found:
        return None
    a, b, x, y = found[rng.integers(len(found))]
    out = op.copy()
    out[[a, a, b, b], [x, y, x, y]] = op[[a, a, b, b], [y, x, y, x]]
    return out


def _crafted_invalid_tables(rng):
    """(kind, candidate group) pairs; kind names the check meant to fail."""
    groups = [cached_group(s) for s in CORPUS_SPECS if 1 < cached_group(s).order <= 27]
    loop = np.array(NONASSOCIATIVE_LOOP)
    for _ in range(150):
        n = int(rng.integers(1, 8))
        yield "latin", as_candidate_group(rng.integers(0, n, size=(n, n)))
    for g in groups:
        for _ in range(4):
            op = g.op.copy()
            op[rng.integers(g.order), rng.integers(g.order)] = rng.integers(g.order)
            yield "latin", as_candidate_group(op)
        yield "identity", type(g)(order=g.order, op=g.op.copy(), identity=1,
                                  inv=g.inv.copy(), label="moved identity")
        yield "inverse", type(g)(order=g.order, op=g.op.copy(), identity=0,
                                 inv=np.roll(g.inv, 1), label="rolled inverses")
        yield "loop", as_candidate_group(_relabelled(_product_table([loop, g.op]), rng))
        op = g.op
        for _ in range(3):
            op = _intercalate_switch(op, rng) if op is not None else None
            if op is not None:
                yield "loop", as_candidate_group(_relabelled(op, rng))
    yield "range", type(groups[0])(order=2, op=np.array([[0, 1], [1, 2]]), identity=0,
                                   inv=np.array([0, 1]), label="out of range")


def _first_failing(g, gens):
    return next(s for s in gens if groups._first_nonassociative(g.op, s) is not None)


def test_validate_matches_the_latin_first_reference_on_crafted_tables():
    rng = np.random.default_rng(6)
    reached = {}
    for kind, g in _crafted_invalid_tables(rng):
        report = validate_group(g)
        assert report == _reference_validate(g), (kind, g.op.tolist())
        first = report[0].split(":")[0] if report else "clean"
        if report and all(msg.startswith("latin:") for msg in report):
            first = "latin after Light's test"    # identity and inverses held
        reached[first] = reached.get(first, 0) + 1
        if first == "associativity":
            # the pruned set failed, and the lowest-first rerun named the triple
            lowest = tuple(lowest_first_generators(g))
            if generating_set(g) != lowest:
                reached["pruned"] = reached.get("pruned", 0) + 1
                if _first_failing(g, generating_set(g)) != _first_failing(g, lowest):
                    reached["pruned fails elsewhere"] = \
                        reached.get("pruned fails elsewhere", 0) + 1
    # every branch of the report is reached, associativity on loops often;
    # 9 of the 21 associativity failures come from a pruned set, and in 3 of
    # them the pruned set fails first at another generator
    assert reached.get("associativity", 0) >= 20, reached
    assert reached.get("pruned", 0) >= 5, reached
    assert reached.get("pruned fails elsewhere", 0) >= 1, reached
    assert reached.get("latin after Light's test", 0) >= 20, reached
    assert {"latin", "identity", "inverse", "table entries out of range"} \
        <= set(reached)


def test_validate_caches_the_passing_generators(corpus_member):
    g = build_group(corpus_member.label)
    assert validate_group(g) == []
    gens = g._cache["generators"]
    assert len(gens) <= max(1, g.order.bit_length())
    assert closure(g, gens).all()


# the lowest-first sequences as the closure from scratch gave them; validate
# names its first failing triple by these generators, so they must not move
@pytest.mark.parametrize("spec, gens", [
    ("heisenberg:13", (1, 13, 169)), ("heisenberg:7", (1, 7, 49)),
    ("quaternion", (1, 2, 4)), ("frobenius:31:5:2", (1, 5)), ("cyclic:4096", (1,)),
    ("product:heisenberg:3,cyclic:5", (1, 5, 15, 45)),
    ("product:cyclic:64,cyclic:64", (1, 64)),
])
def test_lowest_first_generators_are_unchanged(spec, gens):
    assert tuple(lowest_first_generators(build_group(spec))) == gens


def test_structure_and_validation_share_one_generating_sequence(corpus_member):
    # the cached set is the lowest-first sequence pruned: a subsequence of it
    # whose closure is the whole group
    fresh = build_group(corpus_member.label)
    gens = whole_subgroup(fresh).generators
    assert fresh._cache["generators"] == gens
    lowest = iter(lowest_first_generators(fresh))
    assert all(s in lowest for s in gens)
    assert closure(fresh, gens).all()
    validated = build_group(corpus_member.label)
    validate_group(validated)
    assert validated._cache["generators"] == gens


# the lowest-first sequences less each element that the others generate;
# the last lowest-first element always stays
@pytest.mark.parametrize("spec, gens", [
    ("heisenberg:13", (13, 169)), ("heisenberg:11", (11, 121)),
    ("heisenberg:7", (7, 49)), ("heisenberg:3", (3, 9)), ("quaternion", (2, 4)),
    ("product:heisenberg:3,cyclic:5", (1, 15, 45)), ("cyclic:4096", (1,)),
    ("product:cyclic:2048,cyclic:2", (1, 2)), ("product:cyclic:2,cyclic:2048", (1, 2048)),
    ("dihedral:2048", (1, 2048)), ("product:cyclic:64,cyclic:64", (1, 64)),
])
def test_generating_sets_are_pruned(spec, gens):
    assert generating_set(build_group(spec)) == gens


def _m_round_closure(g, elements, members=None):
    """closure as one round per frontier, with single letters only: a
    cyclic chain of order m takes m rounds."""
    gens = np.asarray(elements, dtype=np.intp)
    member = np.arange(g.order) == g.identity if members is None else members.copy()
    frontier = np.flatnonzero(member)
    while True:
        products = np.unique(g.op[frontier[:, None], gens])
        frontier = products[~member[products]]
        if not len(frontier):
            return member
        member[frontier] = True


def _m_round_lowest_first(g):
    gens, closed = [], _m_round_closure(g, ())
    while not closed.all():
        gens.append(int(np.argmin(closed)))
        closed = _m_round_closure(g, gens, closed)
    return tuple(gens)


def test_new_letters_close_together(corpus_member):
    # two letters new at once: the powers of each meet the other one
    g = corpus_member
    for x in range(1, g.order):
        for y in range(x + 1, g.order):
            assert np.array_equal(closure(g, [x, y]), _m_round_closure(g, [x, y])), (x, y)


def test_powers_by_doubling_give_the_cyclic_subgroup(corpus_member):
    g = corpus_member
    for x in range(g.order):
        rounds = _m_round_closure(g, [x])
        assert np.array_equal(groups._powers(g, x), rounds), x
        assert np.array_equal(closure(g, [x]), rounds), x
        assert np.array_equal(closure(g, [x], closure(g, ())), rounds), x
    assert tuple(lowest_first_generators(g)) == _m_round_lowest_first(g)


@pytest.mark.parametrize("spec", ["cyclic:4096", "dihedral:2048",
                                  "product:cyclic:2048,cyclic:2"])
def test_one_element_closes_by_doubling_at_order_4096(spec):
    g = build_group(spec)
    lowest = tuple(lowest_first_generators(g))
    assert lowest == _m_round_lowest_first(g)
    for x in (*lowest, 2, 3, 4095):
        assert np.array_equal(closure(g, [x]), _m_round_closure(g, [x])), x


def test_a_new_element_closes_by_its_powers_before_the_frontier_rounds():
    # element 2, of order 2048, joins the closure {0, 1} of element 1: grown
    # by right multiplication alone, that took one gather a round for about
    # a thousand rounds
    gathers = []

    class CountingTable(np.ndarray):
        def __getitem__(self, key):
            gathers.append(key)
            out = super().__getitem__(key)
            return out.view(np.ndarray) if isinstance(out, np.ndarray) else out

    g = build_group("product:cyclic:2048,cyclic:2")
    counted = groups.FiniteGroup(g.order, g.op.view(CountingTable), g.identity,
                                 g.inv, g.label)
    assert lowest_first_generators(counted) == [1, 2]
    assert 0 < len(gathers) < 100


def _counting(g, products):
    """g on a view of its table that appends the size of each 2-D gather
    (a frontier round; ``_powers`` gathers one column) to ``products``."""
    class CountingTable(np.ndarray):
        def __getitem__(self, key):
            out = super().__getitem__(key)
            if not isinstance(out, np.ndarray):
                return out
            if out.ndim == 2:
                products.append(out.size)
            return out.view(np.ndarray)

    return groups.FiniteGroup(g.order, g.op.view(CountingTable), g.identity, g.inv,
                              g.label)


@pytest.mark.parametrize("spec", ["dihedral:2048", "product:heisenberg:5,cyclic:5",
                                  "heisenberg:13", "frobenius:31:5:2"])
def test_the_frontier_rounds_take_each_product_once(spec):
    # the chain of closures in lowest_first_generators multiplies each
    # member by each generator at most once: the old members of a call meet
    # only its new letters.  On dihedral:2048 the rotations were multiplied
    # by element 1 a second time when the reflection joined.
    products = []
    g = build_group(spec)
    gens = lowest_first_generators(_counting(g, products))
    assert tuple(gens) == _m_round_lowest_first(g)
    assert 0 < sum(products) <= g.order * len(gens)
    for k in range(1, len(gens) + 1):
        assert np.array_equal(closure(g, gens[:k], closure(g, gens[:k - 1])),
                              _m_round_closure(g, gens[:k]))


@pytest.mark.parametrize("spec, x", [("dihedral:2048", 1), ("dihedral:2048", 2048),
                                     ("cyclic:4096", 3), ("heisenberg:13", 1),
                                     ("frobenius:31:5:2", 40), ("cyclic:1", 0)])
def test_one_element_closes_by_its_powers_alone(spec, x):
    # from the identity the only product past the powers is the identity
    # times x: a power of x times x is a power of x again.  The first round
    # used to multiply every new power by x, 2047 products on dihedral:2048.
    products = []
    g = build_group(spec)
    assert np.array_equal(closure(_counting(g, products), [x]), _m_round_closure(g, [x]))
    assert sum(products) == (x != g.identity)


# ---------------------------------------------------------------------------
# table files: the numpy parse against today's token-by-token parse


def _reference_find_identity(op):
    idx = np.arange(len(op))
    for e in range(len(op)):
        if (op[e] == idx).all() and (op[:, e] == idx).all():
            return e
    return None


def _reference_load(path):
    """(op, label) or the error, as the loader read tables with int()."""
    try:
        tokens = path.read_text().split()
    except OSError as exc:
        raise GroupBuildError(f"cannot read table file {path}: {exc}") from exc
    if not tokens:
        raise GroupBuildError(f"table file {path} is empty")
    try:
        values = [int(t) for t in tokens]
    except ValueError as exc:
        raise GroupBuildError(f"table file {path}: non-integer entry") from exc
    n = values[0]
    if n < 1 or n > 4096:
        raise GroupBuildError(f"table file {path}: order {n} outside 1..4096")
    if len(values) != 1 + n * n:
        raise GroupBuildError(
            f"table file {path}: expected {n * n} entries, got {len(values) - 1}")
    bad = next((i for i, v in enumerate(values[1:]) if not 0 <= v < n), None)
    if bad is not None:                  # before the int32 cast, which may overflow
        raise GroupBuildError(
            f"table file {path}: entry op({bad // n},{bad % n}) out of range")
    op = np.array(values[1:], dtype=np.int32).reshape(n, n)
    identity = _reference_find_identity(op)
    label = f"table:{path.name}"
    if identity is None:
        raise GroupBuildError(f"table file {path}: no two-sided identity element")
    if identity != 0:
        perm = np.arange(n, dtype=np.int32)
        perm[[0, identity]] = perm[[identity, 0]]
        op = perm[op[perm][:, perm]]
        label += f"|identity={identity}->0"
    problems = _reference_validate(as_candidate_group(op))
    if problems:
        raise GroupBuildError(f"table file {path}: {problems[0]}")
    return op, label


Z3 = ["0 1 2", "1 2 0", "2 0 1"]
Z3_AT_1 = ["2 0 1", "0 1 2", "1 2 0"]          # identity at 1
TABLE_FILES = {
    "plain": "3\n" + "\n".join(Z3) + "\n",
    "relabelled": "3\n" + "\n".join(Z3_AT_1) + "\n",
    "tabs": "3\t" + "\t".join(Z3),
    "crlf": "3\r\n" + "\r\n".join(Z3) + "\r\n",
    "vt-ff": "  3\v" + "\f".join(Z3) + "   ",
    "leading zeros": "003\n" + "\n".join(Z3).replace("1", "01"),
    "plus": "+3\n" + "\n".join(Z3).replace("2", "+2"),
    "minus zero": "3\n" + "\n".join(Z3).replace("0", "-0"),
    "underscore": "1_1\n" + "\n".join(" ".join(str((x + y) % 11).replace("10", "1_0")
                                                for y in range(11)) for x in range(11)),
    "unicode digits": "٣\n" + "\n".join(Z3).replace("2", "２"),
    "unicode space": "3 " + "\n".join(Z3),
    "file separator": "3\x1c" + "\n".join(Z3),
    "trailing garbage": "3\n" + "\n".join(Z3) + "\nx\n",
    "trailing digit": "3\n" + "\n".join(Z3) + "\n7\n",
    "empty": "",
    "blank": " \n\t\r\n",
    "zero order": "0\n",
    "huge order": "99999999999999999999999\n0\n",
    "huge entry": "2\n0 1\n1 4294967296\n",
    "huge negative entry": "2\n0 1\n-4294967296000000000000 1\n",
    "huge digits-only entry": "2\n0 1\n1 99999999999999999999999\n",
    "int32 entry": "2\n0 1\n1 2147483647\n",
    "short": "3\n0 1 2\n",
    "no identity": "2\n1 1\n1 1\n",
    "left identities only": "2\n0 1\n0 1\n",
    "not latin": "2\n0 1\n1 1\n",
    "loop": "5\n" + "\n".join(" ".join(map(str, r)) for r in NONASSOCIATIVE_LOOP),
}


@pytest.mark.parametrize("name", TABLE_FILES)
def test_table_file_parse_matches_the_int_token_parse(tmp_path, name):
    path = tmp_path / "t.cay"
    path.write_bytes(TABLE_FILES[name].encode("utf-8"))
    try:
        expected = _reference_load(path)
    except Exception as exc:                         # noqa: BLE001 - compared below
        with pytest.raises(type(exc)) as got:
            build_group(f"table:{path}")
        assert str(got.value) == str(exc)
    else:
        g = build_group(f"table:{path}")
        assert np.array_equal(g.op, expected[0]) and g.label == expected[1]
