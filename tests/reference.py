"""Reference code that only the tests use: a wrapper that lets the axiom
check see arbitrary tables, a relabelling that moves the identity off
element 0, an inventory of normal subgroups, the factor-system product law
in its scalar form (``star``, through the parent's table) and its
whole-table form (``pair_products``, through the kernel's table), which
check each other, and a sound check of a ``decompose`` payload read
against the group's table."""

import numpy as np

from sumsetlab.factor_system import FactorSystem
from sumsetlab.groups import (FiniteGroup, GroupBuildError, _find_identity, table_group,
                              validate_group)
from sumsetlab.structure import (Subgroup, commutator_subgroup, generated_subgroup,
                                 is_normal, subgroup_as_group, trivial_subgroup,
                                 whole_subgroup)

_ISOMORPHISM_CHUNK = 512    # rows of G per vectorised step of verify_isomorphism


def as_candidate_group(table, label: str = "candidate") -> FiniteGroup:
    """Wrap an arbitrary square table for validation, without checking it.

    Picks the two-sided identity if one exists (else 0) and a best-effort
    inverse table, so ``validate_group`` can report violations as data.
    """
    op = np.asarray(table, dtype=np.int32)
    if op.ndim != 2 or op.shape[0] != op.shape[1]:
        raise ValueError("candidate table must be square")
    n = len(op)
    if n == 0:
        raise ValueError("candidate table must be nonempty")
    identity = _find_identity(op)
    e = 0 if identity is None else identity
    inv = np.arange(n, dtype=np.int32)
    for a in range(n):
        hits = np.nonzero((op[a] == e) & (op[:, a] == e))[0]
        if len(hits):
            inv[a] = hits[0]
    return FiniteGroup(order=n, op=op, identity=e, inv=inv, label=label)


def moved_identity(g: FiniteGroup, shift: int = 1) -> FiniteGroup:
    """g relabelled by x -> x + shift mod n, so the identity is not 0."""
    perm = (np.arange(g.order) + shift) % g.order
    op = np.empty_like(g.op)
    op[perm[:, None], perm] = perm[g.op]
    return table_group(op, f"moved({g.label})", int(perm[g.identity]))


def normal_subgroup_inventory(g: FiniteGroup) -> list[Subgroup]:
    """Deterministic list of normal subgroups: trivial, whole, derived, and
    every normal cyclic subgroup, deduplicated by member mask."""
    seen: dict[int, Subgroup] = {}

    def add(h: Subgroup) -> None:
        seen.setdefault(h.members.bits, h)

    add(trivial_subgroup(g))
    add(whole_subgroup(g))
    add(commutator_subgroup(g))
    for x in range(g.order):
        h = generated_subgroup(g, (x,))
        if is_normal(g, h):
            add(h)
    return [seen[bits] for bits in sorted(seen)]


def star(fs: FactorSystem, x: tuple[int, int], y: tuple[int, int]) -> tuple[int, int]:
    """Multiply two (kernel element, block) pairs through the stored tables,
    computing through the parent's table rather than the kernel's."""
    k1, h1 = x
    k2, h2 = y
    nb = fs.num_blocks
    if not (0 <= h1 < nb and 0 <= h2 < nb):
        raise ValueError("block index out of range")
    if fs.pair_block[k2] != 0:
        raise ValueError(f"element {k2} is not in the kernel")
    ke = fs.kernel.element_list
    twisted = ke[fs.conj[h1, fs.pair_pos[k2]]]
    carried = ke[fs.carry[h1, h2]]
    g = fs.parent
    k_out = int(g.op[g.op[k1, twisted], carried])
    return k_out, int(fs.quot.table.op[h1, h2])


def pair_products(fs: FactorSystem, pos1, blk1, pos2, blk2) -> np.ndarray:
    """Flat indices (kernel position * num_blocks + block) of the products
    (k1, h1) * (k2, h2), for kernel positions and blocks given as arrays
    that broadcast together, on the kernel's own table (its positions are
    those of ``conj`` and ``carry``)."""
    kop = subgroup_as_group(fs.kernel).op
    k_out = kop[kop[pos1, fs.conj[blk1, pos2]], fs.carry[blk1, blk2]]
    return k_out.astype(np.intp) * fs.num_blocks + fs.quot.table.op[blk1, blk2]


def verify_isomorphism(fs: FactorSystem) -> tuple[bool, tuple[int, int] | None]:
    """Check that the pairing is an isomorphism onto the pair group.

    Verifies the pairing is a bijection satisfying g = k * rep(h), then that
    pair(g1 g2) = pair(g1) * pair(g2) for every ordered pair, returning the
    first failing pair in lexicographic order if any.
    """
    g = fs.parent
    n = g.order
    pos = fs.pair_pos
    blk = fs.pair_block
    flat = pos * fs.num_blocks + blk
    if len(np.unique(flat)) != n:
        return False, (0, 0)
    ke = np.fromiter(fs.kernel.element_list, dtype=np.int64, count=fs.kernel.order)
    rebuilt = g.op[ke[pos], np.fromiter(fs.reps, dtype=np.int64)[blk]]
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


def check_factor_system(g: FiniteGroup, payload: dict) -> list[str]:
    """The parts of a ``decompose`` payload that do not describe g, in the
    order checked; an empty list when its product rule is an isomorphism.

    Read against g.op and g.inv: the kernel K is a subgroup (K * K in K,
    |K|^2 reads); each x is k * rep(h) for its pair (k, h) with k in K, so
    the pairing, from |K| * |Q| = n pairs onto G, is a bijection (n); the
    blocks are the pairing's; each conjugation entry is r_h k r_h^-1 and
    lies in K (|K| |Q|); each carry entry is r1 r2 r12^-1, r12 the
    representative of r1 r2's block (|Q|^2).  Then k1 r1 * k2 r2 =
    k1 (r1 k2 r1^-1)(r1 r2 r12^-1) * r12 is the printed product rule.  A
    payload of the wrong shape or with values out of range fails "shape".
    """
    n, op, inv = g.order, g.op.astype(np.int64), g.inv.astype(np.int64)
    kernel, reps, pairs, conj, carry = (
        np.array(payload[key], dtype=np.int64)
        for key in ("kernel", "representatives", "pairs", "conjugation", "carry"))
    m, q = len(kernel), len(reps)
    if not (payload["group_order"] == n == m * q and pairs.shape == (n, 2)
            and conj.shape == (q, m) and carry.shape == (q, q)
            and all(((t >= 0) & (t < n)).all() for t in (kernel, reps, pairs[:, 0], conj, carry))
            and ((pairs[:, 1] >= 0) & (pairs[:, 1] < q)).all()):
        return ["shape"]
    member = np.zeros(n, dtype=bool)
    member[kernel] = True
    blocks = [np.flatnonzero(pairs[:, 1] == h).tolist() for h in range(q)]
    prod = op[np.ix_(reps, reps)]
    r12 = reps[pairs[prod, 1]]
    checks = {
        "kernel": member.sum() == m and member[op[np.ix_(kernel, kernel)]].all(),
        "pairs": (member[pairs[:, 0]].all()
                  and (op[pairs[:, 0], reps[pairs[:, 1]]] == np.arange(n)).all()),
        "blocks": [sorted(b) for b in payload["blocks"]] == blocks,
        "conjugation": ((conj == op[op[reps][:, kernel], inv[reps][:, None]]).all()
                        and member[conj].all()),
        "carry": (carry == op[prod, inv[r12]]).all(),
    }
    return [name for name, ok in checks.items() if not ok]


def extension_from_factor_system(fs: FactorSystem) -> FiniteGroup:
    """Build the pair group on flat indices kernel_position * num_blocks + block.

    The result validates as a group (a build error otherwise, which can only
    happen for hand-built factor systems) and is isomorphic to ``fs.parent``
    through the pairing.
    """
    g = fs.parent
    nb = fs.num_blocks
    pos, blk = np.divmod(np.arange(fs.kernel.order * nb), nb)
    table = pair_products(fs, pos[:, None], blk[:, None], pos, blk)
    ext = table_group(table, f"pairs({g.label})", int(fs.pair_pos[g.identity]) * nb)
    problems = validate_group(ext)
    if problems:
        raise GroupBuildError(f"factor system does not define a group: {problems[0]}")
    return ext
