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

from .groups import (FiniteGroup, GroupBuildError, SubsetMask, iter_bits, table_group,
                     validate_group)
from .rng import SplitMix64
from .structure import QuotientGroup, Subgroup, quotient

_ISOMORPHISM_CHUNK = 512    # rows of G per vectorised step of verify_isomorphism


def _normalize_policy(rep_policy) -> tuple:
    """Accepts 'lowest_index', ('seeded_random', seed) or 'seeded_random:SEED',
    and an explicit representative list or 'explicit:R0,R1,...'; returns a
    normalized tuple."""
    if rep_policy == "lowest_index":
        return ("lowest_index",)
    if isinstance(rep_policy, tuple) and len(rep_policy) == 2 and \
            rep_policy[0] == "seeded_random":
        return ("seeded_random", int(rep_policy[1]))
    if isinstance(rep_policy, str) and rep_policy.startswith("seeded_random:"):
        return ("seeded_random", int(rep_policy.split(":", 1)[1]))
    if isinstance(rep_policy, str) and rep_policy.startswith("explicit:"):
        rep_policy = [int(v) for v in rep_policy[len("explicit:"):].split(",")]
    if isinstance(rep_policy, (list, tuple)):
        return ("explicit", tuple(int(r) for r in rep_policy))
    raise ValueError(f"unknown representative policy {rep_policy!r}")


@dataclass(frozen=True, eq=False)
class FactorSystem:
    """Representative, conjugation, and carry tables for a normal subgroup.

    ``reps[h]`` is the representative element of block h (the identity for
    block 0, by normalization).  ``conj[h, p]`` and ``carry[h1, h2]`` are
    kernel *positions* (indices into ``kernel.element_list``); use
    ``conj_element`` / ``carry_element`` for element-space values.
    """

    parent: FiniteGroup
    kernel: Subgroup
    quot: QuotientGroup
    reps: tuple[int, ...]
    conj: np.ndarray
    carry: np.ndarray
    kernel_pos: np.ndarray
    policy: tuple

    def __post_init__(self):
        self.conj.setflags(write=False)
        self.carry.setflags(write=False)
        self.kernel_pos.setflags(write=False)

    @property
    def num_blocks(self) -> int:
        return len(self.reps)

    def conj_element(self, block: int, k_elt: int) -> int:
        """conj_{block}(k) = rep(block) * k * rep(block)^-1, in element space."""
        p = int(self.kernel_pos[k_elt])
        if p < 0:
            raise ValueError(f"element {k_elt} is not in the kernel")
        return self.kernel.element_list[int(self.conj[block, p])]

    def carry_element(self, block1: int, block2: int) -> int:
        return self.kernel.element_list[int(self.carry[block1, block2])]


@dataclass(frozen=True, eq=False)
class PairRepresentation:
    """The bijection g <-> (kernel element, block) induced by a FactorSystem.

    ``pair_k[g]`` and ``pair_block[g]`` give the coordinates of g, with
    g = pair_k[g] * reps[pair_block[g]] exactly.
    """

    fs: FactorSystem
    pair_k: np.ndarray
    pair_block: np.ndarray

    def __post_init__(self):
        self.pair_k.setflags(write=False)
        self.pair_block.setflags(write=False)

    def to_pair(self, g: int) -> tuple[int, int]:
        return int(self.pair_k[g]), int(self.pair_block[g])

    def pair_index(self, k_elt: int, block: int) -> int:
        pos = int(self.fs.kernel_pos[k_elt])
        if pos < 0:
            raise ValueError(f"element {k_elt} is not in the kernel")
        return pos * self.fs.num_blocks + block


def build_factor_system(
    g: FiniteGroup, k: Subgroup, rep_policy="lowest_index"
) -> tuple[FactorSystem, PairRepresentation]:
    """Fix coset representatives and build the conjugation/carry tables.

    Policies: ``lowest_index`` takes the smallest element index of each block;
    ``('seeded_random', seed)`` draws uniformly per block; an explicit
    sequence gives one representative per block.  Every policy pins the
    identity as the representative of block 0, the kernel, which forces the
    carry table's identity row and column to be trivial.
    """
    policy = _normalize_policy(rep_policy)
    q = quotient(g, k)  # raises for non-normal kernels
    blocks = q.blocks
    nblocks = len(blocks)

    if policy[0] == "lowest_index":
        reps = (g.identity,) + tuple(b[0] for b in blocks[1:])
    elif policy[0] == "seeded_random":
        rng = SplitMix64(policy[1])
        chosen = [g.identity]
        for b in blocks[1:]:
            chosen.append(b[rng.below(len(b))])
        reps = tuple(chosen)
    else:
        reps = policy[1]
        if len(reps) != nblocks:
            raise ValueError(f"expected {nblocks} representatives, got {len(reps)}")
        for h, r in enumerate(reps):
            if not 0 <= r < g.order:
                raise ValueError(f"representative {r} outside 0..{g.order - 1}")
            if q.block_of(r) != h:
                raise ValueError(f"representative {r} does not lie in block {h}")
        if reps[0] != g.identity:
            raise ValueError("the identity block must be represented by the identity")

    kernel_pos = np.full(g.order, -1, dtype=np.int32)
    ke = np.fromiter(k.element_list, dtype=np.int64, count=k.order)
    kernel_pos[ke] = np.arange(k.order, dtype=np.int32)

    reps_arr = np.fromiter(reps, dtype=np.int64, count=nblocks)
    conj_elt = g.op[g.op[reps_arr[:, None], ke[None, :]], g.inv[reps_arr][:, None]]
    conj = kernel_pos[conj_elt]
    if (conj < 0).any():  # pragma: no cover - normality guarantees membership
        raise ValueError("conjugation left the kernel; kernel is not normal")

    prod = g.op[reps_arr[:, None], reps_arr[None, :]]
    carry_elt = g.op[prod, g.inv[reps_arr[q.project[prod]]]]
    carry = kernel_pos[carry_elt]
    if (carry < 0).any():  # pragma: no cover - forced by coset arithmetic
        raise ValueError("carry value left the kernel")

    fs = FactorSystem(parent=g, kernel=k, quot=q, reps=reps,
                      conj=conj.astype(np.int32), carry=carry.astype(np.int32),
                      kernel_pos=kernel_pos, policy=policy)

    pair_block = q.project.astype(np.int32)
    pair_k = g.op[np.arange(g.order), g.inv[reps_arr[pair_block]]].astype(np.int32)
    return fs, PairRepresentation(fs=fs, pair_k=pair_k, pair_block=pair_block)


def star(fs: FactorSystem, x: tuple[int, int], y: tuple[int, int]) -> tuple[int, int]:
    """Multiply two (kernel element, block) pairs through the stored tables."""
    k1, h1 = x
    k2, h2 = y
    nb = fs.num_blocks
    if not (0 <= h1 < nb and 0 <= h2 < nb):
        raise ValueError("block index out of range")
    twisted = fs.conj_element(h1, k2)
    carried = fs.carry_element(h1, h2)
    g = fs.parent
    k_out = int(g.op[g.op[k1, twisted], carried])
    return k_out, int(fs.quot.table.op[h1, h2])


def pair_products(fs: FactorSystem, pos1, blk1, pos2, blk2) -> np.ndarray:
    """Flat indices (kernel position * num_blocks + block) of the products
    (k1, h1) * (k2, h2), for kernel positions and blocks given as arrays
    that broadcast together; the vectorised ``star``."""
    g = fs.parent
    ke = np.fromiter(fs.kernel.element_list, dtype=np.int64, count=fs.kernel.order)
    k_out = g.op[g.op[ke[pos1], ke[fs.conj[blk1, pos2]]], ke[fs.carry[blk1, blk2]]]
    return fs.kernel_pos[k_out] * fs.num_blocks + fs.quot.table.op[blk1, blk2]


def verify_isomorphism(
    fs: FactorSystem, pr: PairRepresentation
) -> tuple[bool, tuple[int, int] | None]:
    """Check that the pairing is an isomorphism onto the pair group.

    Verifies the pairing is a bijection satisfying g = k * rep(h), then that
    pair(g1 g2) = pair(g1) * pair(g2) for every ordered pair, returning the
    first failing pair in lexicographic order if any.
    """
    g = fs.parent
    n = g.order
    pos = fs.kernel_pos[pr.pair_k]
    blk = pr.pair_block
    flat = pos * fs.num_blocks + blk
    if len(np.unique(flat)) != n:
        return False, (0, 0)
    rebuilt = g.op[pr.pair_k, np.fromiter(fs.reps, dtype=np.int64)[blk]]
    if not (rebuilt == np.arange(n)).all():
        bad = int(np.nonzero(rebuilt != np.arange(n))[0][0])
        return False, (bad, bad)

    for lo in range(0, n, _ISOMORPHISM_CHUNK):
        hi = min(lo + _ISOMORPHISM_CHUNK, n)
        expected = pair_products(fs, pos[lo:hi, None], blk[lo:hi, None], pos, blk)
        ok = flat[g.op[lo:hi, :]] == expected
        if not ok.all():
            g1, g2 = np.argwhere(~ok)[0]
            return False, (int(g1) + lo, int(g2))
    return True, None


def extension_from_factor_system(fs: FactorSystem) -> FiniteGroup:
    """Build the pair group on flat indices kernel_position * num_blocks + block.

    The result validates as a group (a build error otherwise, which can only
    happen for hand-built factor systems) and is isomorphic to ``fs.parent``
    through the pair representation.
    """
    g = fs.parent
    nb = fs.num_blocks
    pos, blk = np.divmod(np.arange(fs.kernel.order * nb), nb)
    table = pair_products(fs, pos[:, None], blk[:, None], pos, blk)
    ext = table_group(table, f"pairs({g.label})", int(fs.kernel_pos[g.identity]) * nb)
    problems = validate_group(ext)
    if problems:
        raise GroupBuildError(f"factor system does not define a group: {problems[0]}")
    return ext


@dataclass(frozen=True)
class DecompositionBlock:
    """One block of a decomposed subset: kernel positions sitting over a block."""

    block: int
    members: SubsetMask
    size: int


@dataclass(frozen=True)
class SubsetDecomposition:
    """A subset split into kernel-coordinate and block-coordinate parts.

    ``kernel_part`` masks kernel positions (first coordinates), ``block_part``
    masks quotient blocks (second coordinates), and ``blocks`` lists the
    per-block kernel masks sorted by descending size, ties broken by
    ascending block index.
    """

    kernel_part: SubsetMask
    block_part: SubsetMask
    blocks: tuple[DecompositionBlock, ...]

    def sizes(self) -> tuple[int, ...]:
        return tuple(b.size for b in self.blocks)


def decompose_subset(pr: PairRepresentation, s: SubsetMask) -> SubsetDecomposition:
    """Split a subset of the parent group along its pair coordinates."""
    fs = pr.fs
    if s.width != fs.parent.order:
        raise ValueError("mask width does not match the group order")
    per_block: dict[int, int] = {}
    kernel_bits = 0
    for x in iter_bits(s.bits):
        p = int(fs.kernel_pos[pr.pair_k[x]])
        h = int(pr.pair_block[x])
        per_block[h] = per_block.get(h, 0) | (1 << p)
        kernel_bits |= 1 << p
    ordered = sorted(per_block.items(), key=lambda item: (-item[1].bit_count(), item[0]))
    m = fs.kernel.order
    blocks = tuple(
        DecompositionBlock(block=h, members=SubsetMask(bits, m), size=bits.bit_count())
        for h, bits in ordered
    )
    block_bits = 0
    for h in per_block:
        block_bits |= 1 << h
    return SubsetDecomposition(
        kernel_part=SubsetMask(kernel_bits, m),
        block_part=SubsetMask(block_bits, fs.num_blocks),
        blocks=blocks,
    )


def factor_system_json(fs: FactorSystem, pr: PairRepresentation) -> dict:
    """Stable JSON payload for a factor system (documented in the README)."""
    if fs.policy[0] == "lowest_index":
        policy = "lowest_index"
    elif fs.policy[0] == "seeded_random":
        policy = {"seeded_random": fs.policy[1]}
    else:
        policy = {"explicit": list(fs.policy[1])}
    ke = np.fromiter(fs.kernel.element_list, dtype=np.int64, count=fs.kernel.order)
    return {
        "schema": "sumsetlab.factor-system/1",
        "group": fs.parent.label,
        "group_order": fs.parent.order,
        "policy": policy,
        "kernel": ke.tolist(),
        "blocks": [list(b) for b in fs.quot.blocks],
        "representatives": list(fs.reps),
        "conjugation": ke[fs.conj].tolist(),
        "carry": ke[fs.carry].tolist(),
        "pairs": np.stack((pr.pair_k, pr.pair_block), axis=1).tolist(),
    }
