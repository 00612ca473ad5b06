"""Subgroup machinery: generated subgroups, normality, derived series,
solvability, quotients, and minimal torsion.

Only closure-generated subgroups are ever materialized; nothing here
enumerates the full subgroup lattice.  Each subgroup carries the generating
set it was built from, of at most log2(n) + 1 elements: an element joins
it only from outside the closure of those before it, and the closure grows
with it rather than being rebuilt.  Normality and derived subgroups are
decided on these sets, never on the n x n products of a subgroup (Holt,
Eick & O'Brien, *Handbook of Computational Group Theory*, 2005).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import islice, product
from typing import Iterable

import numpy as np

from .groups import (BLOCK_ROWS, INFINITY, FiniteGroup, InputError, SubsetMask, closure,
                     generating_set, grow_generators, smallest_prime_factor,
                     table_group)


@dataclass(frozen=True, eq=False)
class Subgroup:
    """A subgroup of ``parent`` as a member mask plus sorted element list,
    and the generating set it was built from, of at most log2(order) + 1
    elements.  ``positions[x]`` is the index of x in ``element_list``, or -1
    for an x outside the subgroup (int16, read-only)."""

    parent: FiniteGroup
    members: SubsetMask
    element_list: tuple[int, ...]
    generators: tuple[int, ...] = field(repr=False)
    positions: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.positions.setflags(write=False)

    @property
    def order(self) -> int:
        return len(self.element_list)

    def is_trivial(self) -> bool:
        return self.order == 1

    def is_whole(self) -> bool:
        return self.order == self.parent.order

    def __repr__(self) -> str:
        return f"Subgroup(order={self.order} of {self.parent.label!r})"


def _subgroup(parent: FiniteGroup, member: np.ndarray, generators) -> Subgroup:
    """The subgroup whose members a bool array marks."""
    return Subgroup(parent=parent, members=SubsetMask.from_member(member),
                    element_list=tuple(np.flatnonzero(member).tolist()),
                    generators=tuple(generators),
                    positions=np.where(member, member.cumsum() - 1, -1).astype(np.int16))


def trivial_subgroup(g: FiniteGroup) -> Subgroup:
    return _subgroup(g, closure(g, ()), ())


def whole_subgroup(g: FiniteGroup) -> Subgroup:
    return _subgroup(g, np.ones(g.order, dtype=bool), generating_set(g))


def generated_subgroup(g: FiniteGroup, gens: SubsetMask | Iterable[int]) -> Subgroup:
    """Smallest subgroup containing ``gens``; the trivial one for no generators.
    Its generating set is ``gens`` less each element already generated by
    those before it."""
    elements = np.fromiter(gens.elements() if isinstance(gens, SubsetMask) else gens,
                           dtype=np.intp)
    outside = elements[(elements < 0) | (elements >= g.order)]
    if len(outside):
        raise InputError(f"generator {outside[0]} outside 0..{g.order - 1}")
    kept: list[int] = []
    return _subgroup(g, grow_generators(g, elements, kept, closure(g, kept)), kept)


def _generators(h: Subgroup) -> np.ndarray:
    return np.array(h.generators, dtype=np.intp)


def _conjugates(g: FiniteGroup, by: np.ndarray, elements: np.ndarray) -> np.ndarray:
    return g.op[g.op[by[:, None], elements], g.inv[by][:, None]]   # [i, j]: x_i y_j x_i^-1


def is_normal(g: FiniteGroup, h: Subgroup) -> bool:
    """True iff x h x^-1 is contained in h for every x in g; it suffices that
    g's generators conjugate h's generators into h."""
    by = np.array(generating_set(g), dtype=np.intp)
    return bool((h.positions[_conjugates(g, by, _generators(h))] >= 0).all())


def commutator_subgroup(g: FiniteGroup) -> Subgroup:
    """Subgroup generated by all commutators a b a^-1 b^-1."""
    series = derived_series(g)
    return series[1] if len(series) > 1 else series[0]


def derived_of(h: Subgroup) -> Subgroup:
    """Derived subgroup of a subgroup, inside the same parent: the normal
    closure in h of the commutators a b a^-1 b^-1 of h's generators.

    Its generating set grows with the closure: a commutator, or a conjugate
    of a kept element by h's generators, is kept only when it lies outside
    the closure of those kept before it."""
    g = h.parent
    by = _generators(h)
    a, b = by[:, None], by[None, :]
    candidates = g.op[g.op[g.op[a, b], g.inv[a]], g.inv[b]].ravel()
    gens: list[int] = []
    closed = closure(g, gens)
    while len(candidates):
        closed = grow_generators(g, candidates, gens, closed)
        conj = _conjugates(g, by, np.array(gens, dtype=np.intp))
        candidates = conj[~closed[conj]]
    return _subgroup(g, closed, gens)


def derived_series(g: FiniteGroup) -> list[Subgroup]:
    """G, G', G'', ... until the trivial subgroup or a subgroup that is its
    own derived subgroup, with no entry repeated.

    Computed once per group and cached.
    """
    def build():
        series = [whole_subgroup(g)]
        while not series[-1].is_trivial():
            nxt = derived_of(series[-1])
            if nxt.members.bits == series[-1].members.bits:
                break
            series.append(nxt)
        return tuple(series)
    return list(g.derived("derived_series", build))


def is_solvable(g: FiniteGroup) -> bool:
    """True iff the derived series terminates at the trivial subgroup."""
    return derived_series(g)[-1].is_trivial()


@dataclass(frozen=True, eq=False)
class QuotientGroup:
    """G/K as a block partition plus a group table on block indices.

    Blocks are the right cosets of the kernel; block 0 is the kernel itself,
    whatever the index of the identity, and the remaining blocks are ordered
    by their smallest element.
    """

    parent: FiniteGroup
    kernel: Subgroup
    blocks: tuple[tuple[int, ...], ...]
    table: FiniteGroup
    project: np.ndarray

    def __post_init__(self):
        self.project.setflags(write=False)

    def block_of(self, x: int) -> int:
        return int(self.project[x])

    def __repr__(self) -> str:
        return f"QuotientGroup({self.parent.label!r} / order-{self.kernel.order} kernel)"


def quotient(g: FiniteGroup, k: Subgroup) -> QuotientGroup:
    """Quotient by a normal subgroup; raises InputError if k is not normal."""
    if not is_normal(g, k):
        raise InputError("kernel is not a normal subgroup")
    members = np.fromiter(k.element_list, dtype=np.intp, count=k.order)
    # label each right coset Kx by its least element, a running minimum over
    # BLOCK_ROWS rows of the table at a time; K's own label is its least element
    labels = g.op[members[:BLOCK_ROWS]].min(axis=0)
    for lo in range(BLOCK_ROWS, k.order, BLOCK_ROWS):
        np.minimum(labels, g.op[members[lo:lo + BLOCK_ROWS]].min(axis=0), out=labels)
    reps = np.unique(labels)
    reps = np.concatenate((members[:1], reps[reps != members[0]]))
    index = np.empty(g.order, dtype=np.int16)         # blocks < ORDER_CAP
    index[reps] = np.arange(len(reps), dtype=np.int16)
    project = index[labels]
    blocks = np.argsort(project, kind="stable").reshape(len(reps), k.order)
    quot_group = table_group(project[g.op[reps[:, None], reps[None, :]]],
                             f"{g.label}/<{k.order}>")
    return QuotientGroup(parent=g, kernel=k, blocks=tuple(map(tuple, blocks.tolist())),
                         table=quot_group, project=project)


def subgroup_as_group(h: Subgroup) -> FiniteGroup:
    """Materialize a subgroup as a group on positions 0..|h|-1.

    Positions follow the sorted element list, so the identity lands at
    position 0 whenever it is element 0 of the parent.  The group is cached
    on the parent.
    """
    g = h.parent
    def build():
        m = np.fromiter(h.element_list, dtype=np.int64, count=h.order)
        table = h.positions[g.op[np.ix_(m, m)]]
        if (table < 0).any():
            raise ValueError("member set is not closed under the group operation")
        return table_group(table, f"{g.label}|sub<{h.order}>", int(h.positions[g.identity]))
    return g.derived(("subgroup_as_group", h.members.bits), build)


@dataclass(frozen=True, eq=False)
class SolvableChain:
    """Chain {1} = G_0 <| G_1 <| ... <| G_n = G with abelian quotients."""

    groups: tuple[Subgroup, ...]
    quotient_witnesses: tuple[QuotientGroup, ...]


def solvable_chain(g: FiniteGroup) -> SolvableChain:
    """Reverse the derived series into a chain with abelian step quotients."""
    series = derived_series(g)
    if not series[-1].is_trivial():
        raise InputError(f"{g.label} is not solvable")
    witnesses = []
    for upper in series[:-1]:
        upper_group = subgroup_as_group(upper)
        witnesses.append(quotient(upper_group, derived_series(upper_group)[1]))
    return SolvableChain(groups=tuple(series[::-1]),
                         quotient_witnesses=tuple(witnesses[::-1]))


# ---------------------------------------------------------------------------
# automorphisms


def _element_orders(g: FiniteGroup) -> np.ndarray:
    """The order of every element: the least divisor d of n with x^d = e
    (Lagrange), each power by repeated squaring over the whole table."""
    orders = np.zeros(g.order, dtype=np.intp)
    for d in (d for d in range(g.order, 0, -1) if g.order % d == 0):
        power, base, m = np.full(g.order, g.identity), np.arange(g.order), d
        while m:
            power = g.op[power, base] if m & 1 else power
            base, m = g.op[base, base], m >> 1
        orders[power == g.identity] = d
    return orders


def automorphisms(g: FiniteGroup, limit: int | None = None) -> np.ndarray | None:
    """Every automorphism of g as a row sigma (sigma[x] is the image of x),
    or None when there are more than ``limit`` candidates.

    The candidates map the group's ``generating_set`` to elements of the
    same orders.  For a chunk of them at once, sigma(x s) = sigma(x) sigma(s)
    fills sigma breadth first from the identity, one numpy step per layer,
    and the rows kept are the bijections for which it holds at every x and
    generator s.  By induction on the length of a word w in the generators,
    such a row has sigma(x w) = sigma(x) sigma(w), and every element is a
    word, so the rows kept are exactly the automorphisms.  g's memo keeps
    the element orders and the automorphisms; a declined call stores none.
    """
    n = g.order
    gens = np.array(generating_set(g), dtype=np.intp)
    orders = g.derived("element_orders", lambda: _element_orders(g))
    pools = [np.flatnonzero(orders == orders[s]) for s in gens]
    if limit is not None and math.prod(map(len, pools)) > limit:
        return None
    def search():
        candidates, kept = product(*pools), []
        step = max(1, (1 << 20) // (n * max(1, len(gens))))   # rows of (c, n, k) work
        while chunk := list(islice(candidates, step)):
            images = np.array(chunk, dtype=np.intp).reshape(len(chunk), len(gens))
            sigma = np.empty((len(chunk), n), dtype=g.op.dtype)
            sigma[:, g.identity] = g.identity
            seen, frontier = closure(g, ()), np.array([g.identity])
            while len(frontier):
                targets = g.op[frontier[:, None], gens]
                sigma[:, targets] = g.op[sigma[:, frontier, None], images[:, None, :]]
                frontier = np.unique(targets[~seen[targets]])
                seen[frontier] = True
            bijective = (np.sort(sigma, axis=1) == np.arange(n)).all(axis=1)
            homomorphic = (sigma[:, g.op[:, gens]]
                           == g.op[sigma[:, :, None], images[:, None, :]]).all(axis=(1, 2))
            kept.append(sigma[bijective & homomorphic])
        return np.concatenate(kept)
    return g.derived("automorphisms", search)


# ---------------------------------------------------------------------------
# minimal torsion


def minimal_torsion(g: FiniteGroup):
    """Smallest order of a non-identity element; INFINITY for the trivial group.

    By Cauchy's theorem this is the smallest prime factor of the group order.
    """
    return smallest_prime_factor(g.order)


def choose_decomposition_subgroup(g: FiniteGroup) -> Subgroup:
    """Deterministic proper normal K with an abelian quotient G/K.

    Policy: the derived subgroup when it is proper and nontrivial (always the
    case for nonabelian solvable groups); for abelian groups, the cyclic
    subgroup generated by the lowest-index element of minimal order, falling
    back to the trivial subgroup when that generator spans the whole group.
    """
    if g.order <= 1:
        raise InputError("no decomposition subgroup for the trivial group")
    if not is_solvable(g):
        raise InputError(f"{g.label} is not solvable")
    derived = commutator_subgroup(g)
    if not derived.is_trivial():
        # solvability of a nonabelian group forces derived to be proper
        return derived
    orders = g.derived("element_orders", lambda: _element_orders(g))
    generator = int(np.flatnonzero(orders == minimal_torsion(g))[0])
    candidate = generated_subgroup(g, (generator,))
    if candidate.is_whole():
        return trivial_subgroup(g)
    return candidate
