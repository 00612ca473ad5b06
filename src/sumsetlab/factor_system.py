"""Group extensions as factor systems.

A normal subgroup K of G, a choice of coset representative for each block of
G/K, the conjugation automorphisms those representatives induce on K, and the
carry table measuring how representatives fail to multiply to representatives.
Together these turn K x G/K into a group isomorphic to G under the pairing
g = k * rep(h)  <->  (k, h), with multiplication

    (k1, h1) * (k2, h2) = (k1 * conj_{h1}(k2) * carry(h1, h2), h1 h2).

The carry table plays the role of "carrying the one" in base-p addition; the
pair-group construction is strictly more general than a semidirect product
(which is the special case carry = identity).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .groups import FiniteGroup, InputError, SubsetMask
from .rng import SplitMix64
from .structure import (QuotientGroup, Subgroup, _conjugates, quotient,
                        subgroup_as_group)

def _normalize_policy(rep_policy: str) -> str | dict:
    """Parses 'lowest_index', 'seeded_random:SEED' or 'explicit:R0,R1,...'
    into its JSON form."""
    if rep_policy == "lowest_index":
        return rep_policy
    try:
        if rep_policy.startswith("seeded_random:"):
            return {"seeded_random": int(rep_policy.split(":", 1)[1])}
        if rep_policy.startswith("explicit:"):
            return {"explicit": [int(v) for v in rep_policy[len("explicit:"):].split(",")]}
    except ValueError as exc:
        raise InputError(str(exc)) from None
    raise InputError(f"unknown representative policy {rep_policy!r}")


@dataclass(frozen=True, eq=False)
class FactorSystem:
    """Representative, conjugation, carry and pairing tables for a normal
    subgroup.

    ``reps[h]`` is the representative element of block h (the identity for
    block 0, by normalization).  ``conj[h, p]``, ``carry[h1, h2]`` and
    ``pair_pos[x]`` are kernel *positions* (indices into
    ``kernel.element_list``): element x is k * reps[pair_block[x]] for the
    kernel element k at position ``pair_pos[x]``.  ``policy`` is in its JSON
    form: "lowest_index", {"seeded_random": SEED} or {"explicit": [R0, ...]}.
    """

    parent: FiniteGroup
    kernel: Subgroup
    quot: QuotientGroup
    reps: tuple[int, ...]
    conj: np.ndarray
    carry: np.ndarray
    pair_pos: np.ndarray
    pair_block: np.ndarray
    policy: str | dict

    def __post_init__(self):
        for table in (self.conj, self.carry, self.pair_pos, self.pair_block):
            table.setflags(write=False)

    @property
    def num_blocks(self) -> int:
        return len(self.reps)


def build_factor_system(g: FiniteGroup, k: Subgroup,
                        rep_policy: str = "lowest_index") -> FactorSystem:
    """Fix coset representatives and build the conjugation/carry tables.

    Policies: ``lowest_index`` takes the smallest element index of each block;
    ``seeded_random:SEED`` draws uniformly per block; ``explicit:R0,R1,...``
    gives one representative per block.  Every policy pins the
    identity as the representative of block 0, the kernel, which forces the
    carry table's identity row and column to be trivial.
    """
    policy = _normalize_policy(rep_policy)
    q = quotient(g, k)  # raises for non-normal kernels
    blocks = q.blocks
    nblocks = len(blocks)

    if policy == "lowest_index":
        reps = (g.identity,) + tuple(b[0] for b in blocks[1:])
    elif "seeded_random" in policy:
        rng = SplitMix64(policy["seeded_random"])
        reps = (g.identity,) + tuple(b[rng.below(len(b))] for b in blocks[1:])
    else:
        reps = tuple(policy["explicit"])
        if len(reps) != nblocks:
            raise InputError(f"expected {nblocks} representatives, got {len(reps)}")
        for h, r in enumerate(reps):
            if not 0 <= r < g.order:
                raise InputError(f"representative {r} outside 0..{g.order - 1}")
            if q.project[r] != h:
                raise InputError(f"representative {r} does not lie in block {h}")
        if reps[0] != g.identity:
            raise InputError("the identity block must be represented by the identity")

    # intp indices: numpy casts an index of any other dtype, a copy per gather
    ke = np.fromiter(k.element_list, dtype=np.intp, count=k.order)
    reps_arr = np.fromiter(reps, dtype=np.intp, count=nblocks)
    conj = k.positions[_conjugates(g, reps_arr, ke)]
    if (conj < 0).any():  # pragma: no cover - normality guarantees membership
        raise ValueError("conjugation left the kernel; kernel is not normal")

    pair_block = q.project
    pair_pos = k.positions[g.op[np.arange(g.order), g.inv[reps_arr[pair_block]]]]
    if (pair_pos < 0).any():  # pragma: no cover - forced by coset arithmetic
        raise ValueError("a kernel coordinate left the kernel")
    # rep(h1) rep(h2) = carry(h1, h2) * rep(h1 h2): its kernel coordinate
    carry = pair_pos[g.op[reps_arr[:, None], reps_arr[None, :]]]
    return FactorSystem(parent=g, kernel=k, quot=q, reps=reps, conj=conj, carry=carry,
                        pair_pos=pair_pos, pair_block=pair_block, policy=policy)


def pair_products(fs: FactorSystem, pos1, blk1, pos2, blk2) -> np.ndarray:
    """Flat indices (kernel position * num_blocks + block) of the products
    (k1, h1) * (k2, h2), for kernel positions and blocks given as arrays
    that broadcast together, on the kernel's own table (its positions are
    those of ``conj`` and ``carry``)."""
    kop = subgroup_as_group(fs.kernel).op
    k_out = kop[kop[pos1, fs.conj[blk1, pos2]], fs.carry[blk1, blk2]]
    return k_out.astype(np.intp) * fs.num_blocks + fs.quot.table.op[blk1, blk2]


def decompose_subset(fs: FactorSystem, s: SubsetMask) -> tuple[tuple[int, SubsetMask], ...]:
    """Split a subset of the parent group along its pair coordinates: one
    (block, mask of kernel positions) pair per block the subset meets,
    largest mask first, ties broken by ascending block index."""
    if s.width != fs.parent.order:
        raise InputError("mask width does not match the group order")
    xs = list(s.elements())
    per_block: dict[int, int] = {}
    for h, pos in zip(fs.pair_block[xs].tolist(), fs.pair_pos[xs].tolist()):
        per_block[h] = per_block.get(h, 0) | (1 << pos)
    ordered = sorted(per_block.items(), key=lambda item: (-item[1].bit_count(), item[0]))
    return tuple((h, SubsetMask(bits, fs.kernel.order)) for h, bits in ordered)


def factor_system_json(fs: FactorSystem) -> dict:
    """Stable JSON payload for a factor system (documented in the README)."""
    ke = np.fromiter(fs.kernel.element_list, dtype=np.int64, count=fs.kernel.order)
    return {
        "schema": "sumsetlab.factor-system/1",
        "group": fs.parent.label,
        "group_order": fs.parent.order,
        "policy": fs.policy,
        "kernel": ke.tolist(),
        "blocks": [list(b) for b in fs.quot.blocks],
        "representatives": list(fs.reps),
        "conjugation": ke[fs.conj].tolist(),
        "carry": ke[fs.carry].tolist(),
        "pairs": np.stack((ke[fs.pair_pos], fs.pair_block), axis=1).tolist(),
    }
