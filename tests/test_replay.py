import hashlib
import importlib.util
import json
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from sumsetlab import replay, structure
from sumsetlab.engine import cd_bound
from sumsetlab.groups import SubsetMask, build_group, cached_group, table_group
from sumsetlab.jsonio import dumps_stable
from sumsetlab.replay import (ReplayInvariantError, ReplayPreconditionError,
                              _invariant, replay_solvable_proof)
from sumsetlab.rng import SplitMix64
from sumsetlab.structure import minimal_torsion

from conftest import run_cli, symmetric_4_pairs


def mask(width, *elements):
    return SubsetMask.from_elements(width, elements)


def naive_product_size(g, a, b):
    return product_size(g, a.elements(), b.elements())


def product_size(g, a, b):
    """|A * B| by the definition, for element lists A and B."""
    return len({int(g.op[x, y]) for x in a for y in b})


def naive_torsion(g):
    """The least order of a non-identity element, None for the trivial group."""
    def order(x):
        y, m = x, 1
        while y != g.identity:
            y, m = g.op[y, x], m + 1
        return m
    return min((order(x) for x in range(g.order) if x != g.identity), default=None)


def same(payload, expected):
    """Equal dicts with their keys in the same order, as their bytes would be."""
    assert list(payload.items()) == list(expected.items())


def printed(trace):
    """The payload that ``trace --json`` prints for this trace."""
    return json.loads(dumps_stable(trace.to_json_dict()))


BASE_KEYS = ["schema", "group", "group_order", "a", "b", "swapped", "p_g", "target", "kind"]


def audit_trace(g, trace):
    """Re-derive every field of a trace payload, as ``trace --json`` prints
    it, from ``g.op``, ``g.inv`` and the naive definitions, never from the
    replay's own tables, and audit each subtrace on the kernel's table in
    the same way.

    Blocks are the cosets of the kernel numbered by their least element,
    which is also their representative (the replay's lowest_index policy),
    and x has kernel coordinate x * rep(x)^-1.
    """
    a, b, target = trace["a"], trace["b"], len(trace["a"]) + len(trace["b"]) - 1
    assert trace["schema"] == "sumsetlab.proof-trace/1"
    assert (trace["group"], trace["group_order"]) == (g.label, g.order)
    for side in (a, b):
        assert side and side == sorted(set(side)) and 0 <= side[0] <= side[-1] < g.order
    assert type(trace["swapped"]) is bool
    assert (trace["p_g"], trace["target"]) == (naive_torsion(g), target)
    assert trace["p_g"] is None or target <= trace["p_g"]
    size = product_size(g, a, b)
    if trace["kind"] == "base":
        assert list(trace) == BASE_KEYS + ["base"]
        assert (g.op == g.op.T).all()
        same(trace["base"], {"product_size": size, "target": target, "holds": True})
        assert size >= target
        return
    assert list(trace) == BASE_KEYS + [
        "kernel", "alpha", "beta", "a_sizes", "b_sizes", "block_checks", "quotient_check",
        "disjointness_check", "final_chain"]
    assert trace["kind"] == "inductive"
    op, inv, n = g.op, g.inv, g.order
    kernel = np.array(trace["kernel"])
    # a proper normal subgroup, in ascending order, with an abelian quotient
    assert kernel.tolist() == sorted(set(trace["kernel"])) and 1 < len(kernel) < n
    position = np.full(n, -1)
    position[kernel] = np.arange(len(kernel))
    assert position[g.identity] >= 0
    assert (position[op[np.ix_(kernel, kernel)]] >= 0).all()
    assert (position[op[op[:, kernel], inv[:, None]]] >= 0).all()     # x k x^-1
    assert (position[op[op, inv[op.T]]] >= 0).all()                   # (xy)(yx)^-1

    reps, block = np.unique(op[kernel].min(axis=0), return_inverse=True)
    a_count = Counter(int(block[x]) for x in a)
    b_count = Counter(int(block[y]) for y in b)
    a_blocks = sorted(a_count, key=lambda h: (-a_count[h], h))
    b_blocks = sorted(b_count, key=lambda h: (-b_count[h], h))
    alpha, beta = len(a_blocks), len(b_blocks)
    assert trace["a_sizes"] == [a_count[h] for h in a_blocks]
    assert trace["b_sizes"] == [b_count[h] for h in b_blocks]
    assert (trace["alpha"], trace["beta"]) == (alpha, beta)
    assert alpha <= beta

    def kernel_coordinate(x):
        return int(op[x, inv[reps[block[x]]]])

    kernel_group = table_group(position[op[np.ix_(kernel, kernel)]],
                               f"{g.label}|sub<{len(kernel)}>", int(position[g.identity]))
    h1 = a_blocks[0]
    a1 = {kernel_coordinate(x) for x in a if block[x] == h1}
    assert len(trace["block_checks"]) == beta
    for check, hj in zip(trace["block_checks"], b_blocks):
        # B_j moved into the kernel: the kernel coordinates of rep(h1) * B_j
        translated = {kernel_coordinate(op[reps[h1], y]) for y in b if block[y] == hj}
        assert len(translated) == b_count[hj]
        block_size = product_size(g, a1, translated)
        sub = check["subtrace"]
        same(check, {"a_block": h1, "b_block": hj, "a1_size": len(a1), "b_size": b_count[hj],
                     "translated_b": sorted(translated), "product_size": block_size,
                     "lower_bound": len(a1) + b_count[hj] - 1, "holds": True,
                     "subtrace": sub})
        assert check["lower_bound"] <= block_size
        certified = (sub["b"], sub["a"]) if sub["swapped"] else (sub["a"], sub["b"])
        assert certified == (sorted(position[x] for x in a1),
                             sorted(position[y] for y in translated))
        audit_trace(kernel_group, sub)

    quotient_size = len({int(block[op[x, y]]) for x in a for y in b})
    same(trace["quotient_check"], {"product_size": quotient_size,
                                   "lower_bound": alpha + beta - 1, "holds": True})
    assert alpha + beta - 1 <= quotient_size
    seconds = [int(block[op[reps[h1], reps[hj]]]) for hj in b_blocks]
    same(trace["disjointness_check"], {"second_coordinates": seconds, "distinct": True})
    assert len(set(seconds)) == beta
    sum_bound = sum(len(a1) + bj - 1 for bj in trace["b_sizes"]) + alpha - 1
    closed_form = beta * len(a1) + len(b) - beta + alpha - 1
    same(trace["final_chain"], {"product_size": size, "sum_bound": sum_bound,
                                "closed_form": closed_form, "target": target, "holds": True})
    assert size >= sum_bound == closed_form >= target


def test_heisenberg_replay_matches_hand_computation():
    g = build_group("heisenberg:3")
    trace = replay_solvable_proof(g, mask(27, 0, 1), mask(27, 0, 3))
    assert trace.kind == "inductive"
    assert (trace.alpha, trace.beta) == (1, 2)
    assert trace.a_sizes == (2,) and trace.b_sizes == (1, 1)
    assert trace.kernel == (0, 1, 2)
    assert trace.final_chain["product_size"] == 4
    assert trace.final_chain["sum_bound"] == 4
    assert trace.final_chain["target"] == 3
    audit_trace(g, printed(trace))
    for check in trace.block_checks:
        assert check.subtrace.kind == "base"


def test_abelian_replay_is_a_base_case_matching_cd_bound():
    g = build_group("cyclic:7")
    a, b = mask(7, 0, 1), mask(7, 0, 2, 4)
    trace = replay_solvable_proof(g, a, b)
    assert trace.kind == "base"
    check = cd_bound(g, a, b)
    assert trace.base["product_size"] == check.product_size
    assert trace.base["holds"] == check.holds
    audit_trace(g, printed(trace))


def test_frobenius_singleton_replay_is_degenerate():
    g = build_group("frobenius:7:3:2")
    trace = replay_solvable_proof(g, mask(21, 4), mask(21, 9))
    assert trace.kind == "inductive"
    assert (trace.alpha, trace.beta) == (1, 1)
    assert trace.quotient_check["product_size"] == 1
    assert trace.quotient_check["lower_bound"] == 1
    assert trace.final_chain["product_size"] == 1
    assert trace.final_chain["target"] == 1
    audit_trace(g, printed(trace))


def test_replay_swaps_when_first_set_spreads_over_more_blocks():
    g = build_group("heisenberg:3")
    a = mask(27, 0, 3)    # two different blocks
    b = mask(27, 0, 1)    # inside the kernel: one block
    trace = replay_solvable_proof(g, a, b)
    assert trace.swapped
    assert trace.a.bits == b.bits and trace.b.bits == a.bits
    assert trace.alpha <= trace.beta
    audit_trace(g, printed(trace))


@pytest.mark.xfail(
    strict=True,
    reason="a swapped trace certifies |B*A|, which differs from |A*B| in a "
    "non-abelian group; certifying (B^-1, A^-1) instead changes the bytes of "
    "swapped traces, so it waits for proof-trace/2",
)
def test_swapped_trace_certifies_the_product_that_was_asked_about():
    g = build_group("heisenberg:5")
    a = mask(125, 8, 22, 38, 82)
    b = mask(125, 34, 42)
    trace = replay_solvable_proof(g, a, b)
    assert trace.swapped
    assert naive_product_size(g, a, b) == 8 != naive_product_size(g, b, a)
    assert trace.final_chain["product_size"] == 8


def test_replay_preconditions():
    g = build_group("heisenberg:3")
    with pytest.raises(ReplayPreconditionError, match="nonempty"):
        replay_solvable_proof(g, SubsetMask(0, 27), mask(27, 0))
    with pytest.raises(ReplayPreconditionError, match="torsion"):
        replay_solvable_proof(g, mask(27, 0, 1, 3), mask(27, 0, 1))
    with pytest.raises(ReplayPreconditionError, match="width"):
        replay_solvable_proof(g, mask(5, 0), mask(27, 0))


def test_replay_rejects_unsolvable_groups(alternating_5):
    with pytest.raises(ReplayPreconditionError, match="not solvable"):
        replay_solvable_proof(
            alternating_5, mask(60, 0), mask(60, 1)
        )


def test_trivial_group_replay():
    g = build_group("cyclic:1")
    trace = replay_solvable_proof(g, mask(1, 0), mask(1, 0))
    assert trace.kind == "base"
    assert trace.base["product_size"] == 1
    assert trace.target == 1


def test_quaternion_singletons_replay_inductively():
    g = build_group("quaternion")
    trace = replay_solvable_proof(g, mask(8, 2), mask(8, 4))
    assert trace.kind == "inductive"
    assert trace.final_chain["product_size"] >= 1
    audit_trace(g, printed(trace))


def test_replay_trace_serializes_with_nested_subtraces():
    g = build_group("heisenberg:3")
    trace = replay_solvable_proof(g, mask(27, 0, 1), mask(27, 0, 3))
    payload = trace.to_json_dict()
    assert payload["kind"] == "inductive"
    assert payload["a"] == [0, 1]
    assert payload["alpha"] == 1 and payload["beta"] == 2
    assert payload["block_checks"][0]["subtrace"]["kind"] == "base"
    assert payload["final_chain"]["target"] == 3
    text = dumps_stable(payload)
    assert text == dumps_stable(trace.to_json_dict())


def test_seeded_replays_audit_cleanly():
    for spec in ("heisenberg:3", "frobenius:7:3:2"):
        g = build_group(spec)
        p = int(minimal_torsion(g))
        rng = SplitMix64(99)
        for _ in range(100):
            sa = 1 + rng.below(p)
            sb = 1 + rng.below(p + 1 - sa)
            a = SubsetMask(rng.subset_of_size(g.order, sa), g.order)
            b = SubsetMask(rng.subset_of_size(g.order, sb), g.order)
            trace = replay_solvable_proof(g, a, b)
            audit_trace(g, printed(trace))


WORKLOADS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def test_every_trace_of_the_trace_workload_audits_cleanly(monkeypatch):
    # the benchmark's seed-0 trace commands, replayed on their own inputs;
    # its dataclasses need the module in sys.modules while it loads
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PATH)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    tables = {s: cached_group(s).op for s in workloads.groups_used("trace")}
    cmds = workloads.commands("trace", 0, Path("unused"), 1, tables)
    assert {cmd.kind for cmd in cmds} == {"trace"} and len(cmds) == 466
    for cmd in cmds:
        result = run_cli(*cmd.argv)
        assert result.exit_code == 0, result
        trace = json.loads(result.stdout)
        a, b = cmd.expect["a"], cmd.expect["b"]
        assert (trace["a"], trace["b"]) == ((b, a) if trace["swapped"] else (a, b))
        audit_trace(cached_group(cmd.expect["group"]), trace)


def test_invariant_failure_message_names_a_library_bug():
    with pytest.raises(ReplayInvariantError,
                       match="bug in this library.*at recursion depth 2$"):
        _invariant(False, "synthetic failure for the diagnostic test", 2)


def test_only_the_abelian_entry_counts_with_product_set(monkeypatch, permutation_groups):
    # the inductive step counts its products one table read at a time; the
    # numpy product set serves the abelian entry alone, where sets can be large
    calls = []
    real = replay.product_set
    monkeypatch.setattr(replay, "product_set",
                        lambda g, a, b: calls.append(g.label) or real(g, a, b))
    s4 = permutation_groups["symmetric:4"]
    pairs = [(build_group("heisenberg:3"), mask(27, 0, 1), mask(27, 0, 3)),
             (build_group("heisenberg:5"), mask(125, 8, 22, 38, 82), mask(125, 34, 42)),
             (build_group("frobenius:7:3:2"), mask(21, 4), mask(21, 9)),
             *((s4, a, b) for a, b in symmetric_4_pairs(s4))]
    for g, a, b in pairs:
        assert replay_solvable_proof(g, a, b).kind == "inductive"
    assert calls == []
    replay_solvable_proof(build_group("cyclic:25"), mask(25, 0, 1), mask(25, 0, 2))
    assert calls == ["cyclic:25"]


def _nodes(trace, depth=1):
    """(depth, node) for a trace and every subtrace below it."""
    yield depth, trace
    for check in trace.block_checks or ():
        yield from _nodes(check.subtrace, depth + 1)


# SHA-256 of the 300 reports below, recorded before the replay's recursion
# stopped re-checking its preconditions at every level
SYMMETRIC_4_REPORTS = "7be5f8125130e447e0ae220e486d562ed0f9cefb336e7b33555b593dfeb1c8ff"


def test_symmetric_4_replays_recurse_below_the_pinned_mix(permutation_groups):
    # S4 > A4 > V4 > 1: derived length 3, deeper than any group the pinned
    # trace mix replays; p(S4) = 2 allows |A| + |B| <= 3
    g = permutation_groups["symmetric:4"]
    digest = hashlib.sha256()
    shapes = set()
    for a, b in symmetric_4_pairs(g):
        trace = replay_solvable_proof(g, a, b)
        audit_trace(g, printed(trace))
        for depth, node in _nodes(trace):
            assert len(node.a) and len(node.b)
            assert node.a.width == node.b.width == node.group_order
            assert node.target == len(node.a) + len(node.b) - 1 <= node.p_g
            shapes.add((depth, node.kind, node.swapped))
        digest.update(dumps_stable(trace.to_json_dict()).encode())
    assert max(depth for depth, _, _ in shapes) == 3
    assert (2, "inductive", True) in shapes
    assert digest.hexdigest() == SYMMETRIC_4_REPORTS


def test_replay_derives_only_the_input_group(monkeypatch):
    calls = []
    real = structure.derived_of
    monkeypatch.setattr(structure, "derived_of",
                        lambda h: calls.append(h.order) or real(h))
    replay_solvable_proof(build_group("heisenberg:3"), mask(27, 0, 1), mask(27, 0, 3))
    assert calls == [27, 3]
    calls.clear()
    replay_solvable_proof(build_group("cyclic:25"), mask(25, 0, 1), mask(25, 0, 2))
    assert calls == []
