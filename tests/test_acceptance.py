"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

Expected values are either fixed small constants checked by hand, outputs of
independent brute-force oracles computed inside the test, or combinatorial
counts computed from first principles.
"""

import time

import pytest

from sumsetlab import engine
from sumsetlab.corpus import CORPUS_SPECS
from sumsetlab.engine import (Caps, SamplingPlan, cd_bound, product_set,
                              verify_exhaustive, verify_sampled)
from conftest import run_cli
from reference import (extension_from_factor_system, normal_subgroup_inventory, star,
                       verify_isomorphism)
from sumsetlab.factor_system import FactorSystem, build_factor_system
from sumsetlab.groups import (SubsetMask, build_group, cached_group, element_order,
                             validate_group)
from sumsetlab.jsonio import dumps_stable
from sumsetlab.replay import replay_solvable_proof
from sumsetlab.rng import SplitMix64
from sumsetlab.structure import (generated_subgroup, minimal_torsion,
                                 smallest_prime_factor)


def report(number, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {detail}")
    assert ok, f"criterion {number} failed: {detail}"


def test_criterion_1_plain_bound_exhaustive_on_cyclic_groups():
    timings = {}
    for n in (3, 5, 7, 9, 11):
        g = build_group(f"cyclic:{n}")
        start = time.perf_counter()
        result = verify_exhaustive(g, "cd")
        timings[n] = time.perf_counter() - start
        assert result.pairs_checked == (2 ** n - 1) ** 2
        assert result.violations == ()
    report(1, timings[11] < 60.0,
           f"0 violations for Z/3..Z/11; Z/11 took {timings[11]:.2f}s (< 60s)")


def test_criterion_2_nonabelian_odd_order_groups():
    start = time.perf_counter()
    outcomes = []
    for spec in ("heisenberg:3", "frobenius:7:3:2"):
        g = build_group(spec)
        capped = verify_exhaustive(g, "cd", Caps(max_a_size=3, max_b_size=3))
        sampled = verify_sampled(g, "cd", SamplingPlan(seed=42, count=100000))
        assert capped.violations == ()
        assert sampled.violations == ()
        assert sampled.pairs_checked == 100000
        outcomes.append(f"{spec}: {capped.pairs_checked} capped + 100000 sampled")
    elapsed = time.perf_counter() - start
    report(2, elapsed < 120.0,
           f"0 violations ({'; '.join(outcomes)}) in {elapsed:.1f}s (< 120s)")


def test_criterion_3_even_order_groups_are_trivially_clean():
    for spec in ("quaternion", "dihedral:5"):
        g = build_group(spec)
        result = verify_exhaustive(g, "cd")
        assert minimal_torsion(g) == 2
        assert result.violations == ()
    report(3, True, "quaternion and dihedral:5 exhaustive runs report 0 violations")


def test_criterion_4_minimal_torsion_equals_smallest_prime_factor():
    for spec in CORPUS_SPECS:
        g = cached_group(spec)
        least = min((element_order(g, x) for x in range(g.order) if x != g.identity),
                    default=float("inf"))
        assert minimal_torsion(g) == least == smallest_prime_factor(g.order), spec
    trivial = cached_group("cyclic:1")
    assert minimal_torsion(trivial) == smallest_prime_factor(1) == float("inf")
    report(4, True,
           f"exact agreement on all {len(CORPUS_SPECS)} corpus groups, "
           "including the trivial group (both infinite)")


def _pair(fs, x):
    """Parent element x as its (kernel element, block) pair."""
    return fs.kernel.element_list[fs.pair_pos[x]], int(fs.pair_block[x])


# pair coordinates of the quaternion elements over the kernel {1,-1,k,-k}
# encoded with coset representatives 1 and j (element indices 0 and 4)
QUATERNION_PAIR_TABLE = {
    0: (0, 0), 1: (1, 0), 2: (7, 1), 3: (6, 1),
    4: (0, 1), 5: (1, 1), 6: (6, 0), 7: (7, 0),
}


def test_criterion_5_quaternion_pair_table_fixture():
    q = build_group("quaternion")
    K = generated_subgroup(q, (6,))
    assert K.element_list == (0, 1, 6, 7)

    fs_j = build_factor_system(q, K, "explicit:0,4")
    table = {x: _pair(fs_j, x) for x in range(8)}
    assert table == QUATERNION_PAIR_TABLE
    assert star(fs_j, (7, 1), (7, 1)) == (1, 0)

    fs_low = build_factor_system(q, K, "lowest_index")
    assert star(fs_low, (7, 1), (7, 1)) == (1, 0)
    report(5, True,
           "pair table reproduced exactly under representatives (1, j); "
           "(-k,Kj)*(-k,Kj) = (-1,K) under both that choice and lowest_index")


@pytest.mark.xfail(
    strict=True,
    reason="the non-kernel coset {i,-i,j,-j} has lowest element index i (2), "
    "so the lowest_index policy cannot encode the fixed pair table, which "
    "requires representative j (4); the table fixture is pinned through "
    "explicit representatives instead",
)
def test_criterion_5_literal_lowest_index_pair_table():
    q = build_group("quaternion")
    K = generated_subgroup(q, (6,))
    fs = build_factor_system(q, K, "lowest_index")
    assert {x: _pair(fs, x) for x in range(8)} == QUATERNION_PAIR_TABLE


def test_criterion_6_base_p_carry_tables():
    for p in (3, 5):
        g = build_group(f"cyclic:{p * p}")
        fs = build_factor_system(g, generated_subgroup(g, (p,)))
        for b in range(p):
            for d in range(p):
                want = 0 if b + d < p else p
                assert fs.kernel.element_list[fs.carry[b, d]] == want
    report(6, True,
           "carry of (b, d) is the identity when b+d < p and the element p "
           "otherwise, for all digit pairs, p in {3, 5}")


def test_criterion_7_isomorphism_suite_and_mutation():
    checked = 0
    for spec in CORPUS_SPECS:
        g = cached_group(spec)
        for kernel in normal_subgroup_inventory(g):
            for policy in ["lowest_index"] + [f"seeded_random:{s}"
                                              for s in range(1, 6)]:
                fs = build_factor_system(g, kernel, policy)
                ok, counterexample = verify_isomorphism(fs)
                assert ok, (spec, kernel.element_list, policy, counterexample)
                checked += 1

    q = build_group("quaternion")
    fs = build_factor_system(q, generated_subgroup(q, (6,)))
    carry = fs.carry.copy()
    carry[1, 1] = 0
    broken = FactorSystem(parent=q, kernel=fs.kernel, quot=fs.quot,
                          reps=fs.reps, conj=fs.conj.copy(), carry=carry,
                          pair_pos=fs.pair_pos.copy(), pair_block=fs.pair_block.copy(),
                          policy=fs.policy)
    ok, counterexample = verify_isomorphism(broken)
    assert not ok and counterexample == (2, 2)
    report(7, True,
           f"{checked} (group, kernel, policy) combinations verified; "
           "corrupted carry entry fails with counterexample (2, 2)")


def test_criterion_8_extension_round_trip():
    checked = 0
    for spec in CORPUS_SPECS:
        g = cached_group(spec)
        for kernel in normal_subgroup_inventory(g):
            fs = build_factor_system(g, kernel)
            ext = extension_from_factor_system(fs)
            assert validate_group(ext) == []
            flat = (fs.pair_pos * fs.num_blocks + fs.pair_block).tolist()
            for a in range(g.order):
                row = g.op_rows()[a]
                for b in range(g.order):
                    assert flat[row[b]] == ext.op[flat[a], flat[b]]
            checked += 1
    report(8, True,
           f"{checked} (group, kernel) extensions validate and reproduce the "
           "original multiplication exactly through the pairing")


def test_criterion_9_proof_replay_on_seeded_pairs():
    audited = 0
    for spec in ("heisenberg:3", "frobenius:7:3:2"):
        g = build_group(spec)
        p = int(minimal_torsion(g))
        rng = SplitMix64(2024)
        for _ in range(1000):
            size_a = 1 + rng.below(p)
            size_b = 1 + rng.below(p + 1 - size_a)
            a = SubsetMask(rng.subset_of_size(g.order, size_a), g.order)
            b = SubsetMask(rng.subset_of_size(g.order, size_b), g.order)
            trace = replay_solvable_proof(g, a, b)
            # independent oracle: the traced bound never exceeds the plain
            # double-loop product size
            direct = len({g.op[x, y] for x in trace.a.elements()
                          for y in trace.b.elements()})
            if trace.kind == "base":
                assert trace.base["product_size"] == direct
            else:
                assert trace.final_chain["product_size"] == direct
                assert trace.final_chain["sum_bound"] <= direct
                assert trace.final_chain["target"] <= trace.final_chain["sum_bound"]
            audited += 1
    report(9, True,
           f"{audited} seeded replays: every traced inequality holds and no "
           "traced bound exceeds the directly computed product size")


def test_criterion_10_restricted_bound_exhaustive():
    for p in (3, 5, 7, 11):
        g = build_group(f"cyclic:{p}")
        result = verify_exhaustive(g, "eh")
        assert result.violations == ()
        assert result.pairs_checked == (2 ** p - 1) ** 2
    z5 = build_group("cyclic:5")
    s = SubsetMask.from_elements(5, (0, 1, 2))
    tight = cd_bound(z5, s, s, theorem="eh")
    assert tight.product_size == tight.bound == 3
    assert verify_exhaustive(z5, "eh").extremal_count >= 1
    report(10, True,
           "0 violations for Z/3, Z/5, Z/7, Z/11; bound attained with "
           "equality at A = B = {0,1,2} in Z/5")


def test_criterion_11_bitset_products_match_the_naive_oracle():
    rng = SplitMix64(31337)
    groups = [cached_group(spec) for spec in CORPUS_SPECS]
    mismatches = 0
    for _ in range(1000):
        g = groups[rng.below(len(groups))]
        a = SubsetMask(rng.nonempty_mask(g.order), g.order)
        b = SubsetMask(rng.nonempty_mask(g.order), g.order)
        naive = {g.op[x, y] for x in a.elements() for y in b.elements()}
        if set(product_set(g, a, b).elements()) != naive:
            mismatches += 1
    report(11, mismatches == 0,
           f"1000 seeded triples across the corpus, {mismatches} discrepancies")


def test_criterion_12_seeded_reports_are_byte_identical(monkeypatch):
    g = build_group("heisenberg:3")
    plan = SamplingPlan(seed=42, count=5000)
    args = ["verify", "--group", "frobenius:7:3:2", "--mode", "sampled",
            "--seed", "7", "--count", "2000", "--json"]

    def reports():
        return (dumps_stable(verify_sampled(g, "cd", plan).to_json_dict()),
                run_cli(*args).output)

    first, again = reports(), reports()
    # a small batch budget cuts both runs into many batches
    monkeypatch.setattr(engine, "_BATCH_BYTES", 1 << 12)
    assert first == again == reports()
    report(12, True,
           "sampled reports byte-identical across repeated runs and batch "
           "budgets, at the library level and through the CLI")
