"""Subgroup machinery: generated subgroups, normality, derived series,
solvability, quotients, and minimal torsion.

Only closure-generated subgroups are ever materialized; nothing here
enumerates the full subgroup lattice.  Normality and derived subgroups are
decided on generating sets of at most log2(n) + 1 elements, never on the
n x n products of a subgroup (Holt, Eick & O'Brien, *Handbook of
Computational Group Theory*, 2005).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .groups import (INFINITY, FiniteGroup, SubsetMask, closure,
                     lowest_first_generators, smallest_prime_factor, table_group)


@dataclass(frozen=True, eq=False)
class Subgroup:
    """A subgroup of ``parent`` as a member mask plus sorted element list."""

    parent: FiniteGroup
    members: SubsetMask
    element_list: tuple[int, ...]

    @property
    def order(self) -> int:
        return len(self.element_list)

    def __contains__(self, x: int) -> bool:
        return x in self.members

    def is_trivial(self) -> bool:
        return self.order == 1

    def is_whole(self) -> bool:
        return self.order == self.parent.order

    def __repr__(self) -> str:
        return f"Subgroup(order={self.order} of {self.parent.label!r})"


def _subgroup_from_members(parent: FiniteGroup, members: Iterable[int]) -> Subgroup:
    element_list = tuple(sorted(set(members)))
    mask = SubsetMask.from_elements(parent.order, element_list)
    return Subgroup(parent=parent, members=mask, element_list=element_list)


def trivial_subgroup(g: FiniteGroup) -> Subgroup:
    return _subgroup_from_members(g, (g.identity,))


def whole_subgroup(g: FiniteGroup) -> Subgroup:
    return _subgroup_from_members(g, range(g.order))


def generated_subgroup(g: FiniteGroup, gens: SubsetMask | Iterable[int]) -> Subgroup:
    """Smallest subgroup containing ``gens``; the trivial one for no generators."""
    elements = np.fromiter(gens.elements() if isinstance(gens, SubsetMask) else gens,
                           dtype=np.intp)
    outside = elements[(elements < 0) | (elements >= g.order)]
    if len(outside):
        raise ValueError(f"generator {outside[0]} outside 0..{g.order - 1}")
    return _subgroup_from_members(g, np.flatnonzero(closure(g, elements)).tolist())


def _members(h: Subgroup) -> np.ndarray:
    member = np.zeros(h.parent.order, dtype=bool)
    member[np.fromiter(h.element_list, dtype=np.intp, count=h.order)] = True
    return member


def _generators(g: FiniteGroup, members: np.ndarray | None = None) -> np.ndarray:
    return np.fromiter(lowest_first_generators(g, members), dtype=np.intp)


def _conjugates(g: FiniteGroup, by: np.ndarray, elements: np.ndarray) -> np.ndarray:
    return g.op[g.op[by[:, None], elements], g.inv[by][:, None]].ravel()   # x y x^-1


def is_normal(g: FiniteGroup, h: Subgroup) -> bool:
    """True iff x h x^-1 is contained in h for every x in g; it suffices that
    g's generators conjugate h's generators into h."""
    inside = _members(h)
    whole = _generators(g)
    return bool(inside[_conjugates(g, whole, _generators(g, inside))].all())


def commutator_subgroup(g: FiniteGroup) -> Subgroup:
    """Subgroup generated by all commutators a b a^-1 b^-1."""
    series = derived_series(g)
    return series[1] if len(series) > 1 else series[0]


def derived_of(h: Subgroup) -> Subgroup:
    """Derived subgroup of a subgroup, inside the same parent: the normal
    closure in h of the commutators a b a^-1 b^-1 of h's generators."""
    g = h.parent
    gens = _generators(g, _members(h))
    a, b = gens[:, None], gens[None, :]
    normal = np.unique(g.op[g.op[g.op[a, b], g.inv[a]], g.inv[b]])
    while True:
        closed = closure(g, normal)
        conj = _conjugates(g, gens, normal)
        if closed[conj].all():
            return _subgroup_from_members(g, np.flatnonzero(closed).tolist())
        normal = np.union1d(normal, conj[~closed[conj]])


def derived_series(g: FiniteGroup) -> list[Subgroup]:
    """G, G', G'', ... until the trivial subgroup or a subgroup that is its
    own derived subgroup, with no entry repeated.

    Computed once per group and cached.
    """
    series = g._cache.get("derived_series")
    if series is None:
        series = [whole_subgroup(g)]
        while not series[-1].is_trivial():
            nxt = derived_of(series[-1])
            if nxt.members.bits == series[-1].members.bits:
                break
            series.append(nxt)
        series = g._cache["derived_series"] = tuple(series)
    return list(series)


def is_solvable(g: FiniteGroup) -> bool:
    """True iff the derived series terminates at the trivial subgroup."""
    return derived_series(g)[-1].is_trivial()


@dataclass(frozen=True, eq=False)
class QuotientGroup:
    """G/K as a block partition plus a group table on block indices.

    Blocks are the right cosets of the kernel; block 0 is the kernel itself
    and the remaining blocks are ordered by their smallest element.
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
    """Quotient by a normal subgroup; raises ValueError if k is not normal."""
    if not is_normal(g, k):
        raise ValueError("kernel is not a normal subgroup")
    members = np.fromiter(k.element_list, dtype=np.intp, count=k.order)
    # label each right coset Kx by its least element; np.unique orders the
    # labels, so the blocks come out ordered by their smallest element
    reps, project = np.unique(g.op[members].min(axis=0), return_inverse=True)
    project = project.astype(np.int32)
    blocks = np.argsort(project, kind="stable").reshape(len(reps), k.order)
    quot_group = table_group(project[g.op[reps[:, None], reps[None, :]]],
                             f"{g.label}/<{k.order}>")
    return QuotientGroup(parent=g, kernel=k, blocks=tuple(map(tuple, blocks.tolist())),
                         table=quot_group, project=project)


def subgroup_as_group(h: Subgroup) -> FiniteGroup:
    """Materialize a subgroup as a group on positions 0..|h|-1.

    Positions follow the sorted element list, so the identity lands at
    position 0 whenever it is element 0 of the parent.
    """
    g = h.parent
    cache_key = ("subgroup_as_group", h.members.bits)
    cached = g._cache.get(cache_key)
    if cached is not None:
        return cached
    m = np.fromiter(h.element_list, dtype=np.int64, count=h.order)
    pos = np.full(g.order, -1, dtype=np.int32)
    pos[m] = np.arange(h.order, dtype=np.int32)
    table = pos[g.op[np.ix_(m, m)]]
    if (table < 0).any():
        raise ValueError("member set is not closed under the group operation")
    group = table_group(table, f"{g.label}|sub<{h.order}>", int(pos[g.identity]))
    g._cache[cache_key] = group
    return group


@dataclass(frozen=True, eq=False)
class SolvableChain:
    """Chain {1} = G_0 <| G_1 <| ... <| G_n = G with abelian quotients."""

    groups: tuple[Subgroup, ...]
    quotient_witnesses: tuple[QuotientGroup, ...]


def solvable_chain(g: FiniteGroup) -> SolvableChain:
    """Reverse the derived series into a chain with abelian step quotients."""
    series = derived_series(g)
    if not series[-1].is_trivial():
        raise ValueError(f"{g.label} is not solvable")
    ascending = series[::-1]
    witnesses = []
    for lower, upper in zip(ascending, ascending[1:]):
        upper_group = subgroup_as_group(upper)
        pos = {x: i for i, x in enumerate(upper.element_list)}
        kernel_in_upper = _subgroup_from_members(
            upper_group, (pos[x] for x in lower.element_list)
        )
        witnesses.append(quotient(upper_group, kernel_in_upper))
    return SolvableChain(groups=tuple(ascending), quotient_witnesses=tuple(witnesses))


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
        raise ValueError("no decomposition subgroup for the trivial group")
    if not is_solvable(g):
        raise ValueError(f"{g.label} is not solvable")
    derived = commutator_subgroup(g)
    if not derived.is_trivial():
        # solvability of a nonabelian group forces derived to be proper
        return derived
    # x has prime order p iff x != e and x^p = e
    idx = power = np.arange(g.order)
    for _ in range(minimal_torsion(g) - 1):
        power = g.op[power, idx]
    generator = int(np.flatnonzero((power == g.identity) & (idx != g.identity))[0])
    candidate = generated_subgroup(g, (generator,))
    if candidate.is_whole():
        return trivial_subgroup(g)
    return candidate
