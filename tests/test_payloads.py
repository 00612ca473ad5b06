"""Report payloads pinned byte for byte against literals.

A record's payload is its fields in declaration order, so these literals also
pin the field order of ``BoundCheck``, ``VerificationReport``, ``ProofTrace``
and its check records, and the JSON form of every representative policy.
"""

import json

import pytest

from sumsetlab import engine
from sumsetlab.engine import SamplingPlan, cd_bound, verify_sampled
from sumsetlab.factor_system import build_factor_system, factor_system_json
from sumsetlab.groups import SubsetMask, build_group
from sumsetlab.jsonio import dumps_stable
from sumsetlab.replay import replay_solvable_proof
from sumsetlab.structure import generated_subgroup


def mask(width, *elements):
    return SubsetMask.from_elements(width, elements)


def forced_violation(monkeypatch):
    # Z/5 with the size term pretended one larger: (2, 2) pairs whose sum is
    # an arithmetic progression fall one short
    monkeypatch.setattr(engine, "minimal_torsion", lambda group: group.order)
    monkeypatch.setattr(engine, "_size_slack", lambda theorem: 0)
    plan = SamplingPlan(seed=1, count=4, fixed_sizes=(2, 2))
    return verify_sampled(build_group("cyclic:5"), "cd", plan).to_json_dict()


def decompose(policy):
    q = build_group("quaternion")
    return factor_system_json(build_factor_system(q, generated_subgroup(q, [6]), policy))


S3_BASE = {"schema": "sumsetlab.proof-trace/1", "group": "dihedral:3|sub<3>",
           "group_order": 3, "a": [0], "b": [0], "swapped": False, "p_g": 3,
           "target": 1, "kind": "base",
           "base": {"product_size": 1, "target": 1, "holds": True}}

CASES = {
    "bound_check_finite": (
        lambda mp: cd_bound(build_group("dihedral:3"), mask(6, 0, 1),
                            mask(6, 0, 3)).to_json_dict(),
        {"group": "dihedral:3", "a": [0, 1], "b": [0, 3], "a_size": 2, "b_size": 2,
         "product_size": 4, "p_g": 2, "bound": 2, "holds": True}),
    "bound_check_infinite": (
        lambda mp: cd_bound(build_group("cyclic:1"), mask(1, 0),
                            mask(1, 0)).to_json_dict(),
        {"group": "cyclic:1", "a": [0], "b": [0], "a_size": 1, "b_size": 1,
         "product_size": 1, "p_g": None, "bound": 1, "holds": True}),
    "verification_with_violations": (
        forced_violation,
        {"schema": "sumsetlab.verification/1", "group": "cyclic:5", "group_order": 5,
         "theorem": "cd",
         "mode": {"kind": "sampled", "seed": 1, "count": 4,
                  "distribution": {"fixed_sizes": [2, 2]}},
         "p_g": 5, "pairs_checked": 4,
         "violations": [
             {"group": "cyclic:5", "a": [0, 4], "b": [2, 3], "a_size": 2, "b_size": 2,
              "product_size": 3, "p_g": 5, "bound": 4, "holds": False},
             {"group": "cyclic:5", "a": [0, 1], "b": [3, 4], "a_size": 2, "b_size": 2,
              "product_size": 3, "p_g": 5, "bound": 4, "holds": False}],
         "extremal_count": 2}),
    "base_trace": (
        lambda mp: replay_solvable_proof(build_group("cyclic:5"), mask(5, 0, 1),
                                         mask(5, 0, 2)).to_json_dict(),
        {"schema": "sumsetlab.proof-trace/1", "group": "cyclic:5", "group_order": 5,
         "a": [0, 1], "b": [0, 2], "swapped": False, "p_g": 5, "target": 3,
         "kind": "base", "base": {"product_size": 4, "target": 3, "holds": True}}),
    "inductive_trace": (
        lambda mp: replay_solvable_proof(build_group("dihedral:3"), mask(6, 0),
                                         mask(6, 0, 1)).to_json_dict(),
        {"schema": "sumsetlab.proof-trace/1", "group": "dihedral:3", "group_order": 6,
         "a": [0], "b": [0, 1], "swapped": False, "p_g": 2, "target": 2,
         "kind": "inductive", "kernel": [0, 1, 2], "alpha": 1, "beta": 1,
         "a_sizes": [1], "b_sizes": [2],
         "block_checks": [
             {"a_block": 0, "b_block": 0, "a1_size": 1, "b_size": 2,
              "translated_b": [0, 1], "product_size": 2, "lower_bound": 2,
              "holds": True,
              "subtrace": {"schema": "sumsetlab.proof-trace/1",
                           "group": "dihedral:3|sub<3>", "group_order": 3,
                           "a": [0], "b": [0, 1], "swapped": False, "p_g": 3,
                           "target": 2, "kind": "base",
                           "base": {"product_size": 2, "target": 2, "holds": True}}}],
         "quotient_check": {"product_size": 1, "lower_bound": 1, "holds": True},
         "disjointness_check": {"second_coordinates": [0], "distinct": True},
         "final_chain": {"product_size": 2, "sum_bound": 2, "closed_form": 2,
                         "target": 2, "holds": True}}),
    "swapped_trace": (
        lambda mp: replay_solvable_proof(build_group("dihedral:3"), mask(6, 0, 3),
                                         mask(6, 0)).to_json_dict(),
        {"schema": "sumsetlab.proof-trace/1", "group": "dihedral:3", "group_order": 6,
         "a": [0], "b": [0, 3], "swapped": True, "p_g": 2, "target": 2,
         "kind": "inductive", "kernel": [0, 1, 2], "alpha": 1, "beta": 2,
         "a_sizes": [1], "b_sizes": [1, 1],
         "block_checks": [
             {"a_block": 0, "b_block": 0, "a1_size": 1, "b_size": 1,
              "translated_b": [0], "product_size": 1, "lower_bound": 1, "holds": True,
              "subtrace": S3_BASE},
             {"a_block": 0, "b_block": 1, "a1_size": 1, "b_size": 1,
              "translated_b": [0], "product_size": 1, "lower_bound": 1, "holds": True,
              "subtrace": S3_BASE}],
         "quotient_check": {"product_size": 2, "lower_bound": 2, "holds": True},
         "disjointness_check": {"second_coordinates": [0, 1], "distinct": True},
         "final_chain": {"product_size": 2, "sum_bound": 2, "closed_form": 2,
                         "target": 2, "holds": True}}),
    "decompose_lowest_index": (
        lambda mp: decompose("lowest_index"),
        {"schema": "sumsetlab.factor-system/1", "group": "quaternion",
         "group_order": 8, "policy": "lowest_index", "kernel": [0, 1, 6, 7],
         "blocks": [[0, 1, 6, 7], [2, 3, 4, 5]], "representatives": [0, 2],
         "conjugation": [[0, 1, 6, 7], [0, 1, 7, 6]], "carry": [[0, 0], [0, 1]],
         "pairs": [[0, 0], [1, 0], [0, 1], [1, 1], [6, 1], [7, 1], [6, 0], [7, 0]]}),
    "decompose_seeded_random": (
        lambda mp: decompose("seeded_random:3"),
        {"schema": "sumsetlab.factor-system/1", "group": "quaternion",
         "group_order": 8, "policy": {"seeded_random": 3}, "kernel": [0, 1, 6, 7],
         "blocks": [[0, 1, 6, 7], [2, 3, 4, 5]], "representatives": [0, 3],
         "conjugation": [[0, 1, 6, 7], [0, 1, 7, 6]], "carry": [[0, 0], [0, 1]],
         "pairs": [[0, 0], [1, 0], [1, 1], [0, 1], [7, 1], [6, 1], [6, 0], [7, 0]]}),
    "decompose_explicit": (
        lambda mp: decompose("explicit:0,4"),
        {"schema": "sumsetlab.factor-system/1", "group": "quaternion",
         "group_order": 8, "policy": {"explicit": [0, 4]}, "kernel": [0, 1, 6, 7],
         "blocks": [[0, 1, 6, 7], [2, 3, 4, 5]], "representatives": [0, 4],
         "conjugation": [[0, 1, 6, 7], [0, 1, 7, 6]], "carry": [[0, 0], [0, 1]],
         "pairs": [[0, 0], [1, 0], [7, 1], [6, 1], [0, 1], [1, 1], [6, 0], [7, 0]]}),
}


@pytest.mark.parametrize("name", CASES)
def test_payload_bytes_match_the_pinned_literal(monkeypatch, name):
    build, expected = CASES[name]
    assert dumps_stable(build(monkeypatch)) == json.dumps(expected, indent=2) + "\n"
