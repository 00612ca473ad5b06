"""Step-by-step replay of the inductive size bound on solvable groups.

For nonempty subsets A, B of a solvable group G with |A| + |B| - 1 <= p(G),
the replay certifies |A * B| >= |A| + |B| - 1 on the concrete data by walking
the induction: pick a proper normal K with abelian quotient, decompose A and B
into blocks over G/K, recursively certify each block product inside K, check
the quotient bound and block disjointness, and assemble the counting chain

    |A * B| >= sum_j (a1 + b_j - 1) + alpha - 1
             = beta * a1 + |B| - beta + alpha - 1
            >= |A| + |B| - 1.

Abelian groups are a base case checked directly.  The preconditions are
checked once, on the input: each block instance inside K meets them because
K is a subgroup of the solvable G, p(K) >= p(G) as |K| divides |G|, and
|A1| + |B_j| <= |A| + |B|.  Every inequality recorded in a trace is verified
numerically as it is recorded; a failure raises ReplayInvariantError, because
the bound is a theorem on this input regime and a numeric failure can only
mean a bug in this library.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

from .engine import product_set
from .factor_system import build_factor_system, decompose_subset, pair_products
from .groups import FiniteGroup, InputError, SubsetMask
from .jsonio import record_json
from .structure import (choose_decomposition_subgroup, is_solvable, minimal_torsion,
                        subgroup_as_group)


class ReplayPreconditionError(InputError):
    """The input pair is outside the regime the replay certifies."""


class ReplayInvariantError(RuntimeError):
    """An inequality recorded during replay failed numerically."""


def _invariant(condition: bool, detail: str) -> None:
    if not condition:
        raise ReplayInvariantError(
            f"replay consistency failure: {detail}. The checked inequality is "
            "a theorem in this regime, so this indicates a bug in this "
            "library, not a counterexample."
        )


@dataclass(frozen=True)
class BlockCheck:
    """One block product certified inside the kernel.

    ``translated_b`` is the j-th block of B pushed into the kernel: its kernel
    coordinates twisted by the conjugation of A's largest block and multiplied
    by the relevant carry constant (both size-preserving).
    """

    a_block: int
    b_block: int
    a1_size: int
    b_size: int
    translated_b: tuple[int, ...]
    product_size: int
    lower_bound: int
    holds: bool
    subtrace: "ProofTrace"


@dataclass(frozen=True)
class ProofTrace:
    """Complete record of one replay, with recursive subtraces.

    ``a`` and ``b`` are the masks actually certified: when the original first
    set spread over more quotient blocks than the second, the pair is swapped
    (``swapped`` is True) and the trace certifies the swapped instance; the
    target |A| + |B| - 1 is symmetric either way.  A swapped trace certifies
    |B * A|, which in a non-abelian group can differ from the |A * B| that
    was asked about.  Fields of the other kind are None, left out of the payload.
    ``base``, ``quotient_check``, ``disjointness_check`` and ``final_chain``
    are the payload dicts of their checks (keys listed in the README).
    """

    group: str
    group_order: int
    a: SubsetMask
    b: SubsetMask
    swapped: bool
    p_g: float
    target: int
    kind: str                       # "base" or "inductive"
    base: dict | None = None
    kernel: tuple[int, ...] | None = None
    alpha: int | None = None
    beta: int | None = None
    a_sizes: tuple[int, ...] | None = None
    b_sizes: tuple[int, ...] | None = None
    block_checks: tuple[BlockCheck, ...] | None = None
    quotient_check: dict | None = None
    disjointness_check: dict | None = None
    final_chain: dict | None = None

    def to_json_dict(self) -> dict:
        return record_json(self, "sumsetlab.proof-trace/1")


def _replay_context(g: FiniteGroup):
    """The factor system over the decomposition kernel, cached."""
    return g.derived("replay_ctx", lambda: build_factor_system(
        g, choose_decomposition_subgroup(g), "lowest_index"))


def replay_solvable_proof(g: FiniteGroup, a: SubsetMask, b: SubsetMask) -> ProofTrace:
    """Certify |A * B| >= |A| + |B| - 1 step by step on concrete data.

    Preconditions: A, B nonempty, G solvable, |A| + |B| - 1 <= p(G).
    """
    if a.width != g.order or b.width != g.order:
        raise ReplayPreconditionError("mask width does not match the group order")
    if len(a) == 0 or len(b) == 0:
        raise ReplayPreconditionError("both sets must be nonempty")
    if not (g.is_abelian() or is_solvable(g)):
        raise ReplayPreconditionError(f"{g.label} is not solvable")
    p, target = minimal_torsion(g), len(a) + len(b) - 1
    if target > p:
        raise ReplayPreconditionError(
            f"|A| + |B| - 1 = {target} exceeds the minimal torsion {p}"
        )
    return _replay(g, a, b)


def _base_trace(g: FiniteGroup, a: SubsetMask, b: SubsetMask, size: int) -> ProofTrace:
    """The base case on an abelian group, given |A * B|."""
    target = len(a) + len(b) - 1
    _invariant(size >= target, f"{g.label}: base case |A*B| = {size} < {target}")
    return ProofTrace(
        group=g.label, group_order=g.order, a=a, b=b, swapped=False,
        p_g=minimal_torsion(g), target=target, kind="base",
        base={"product_size": size, "target": target, "holds": True},
    )


def _replay(g: FiniteGroup, a: SubsetMask, b: SubsetMask) -> ProofTrace:
    """The replay of an instance whose preconditions hold."""
    if g.is_abelian():
        return _base_trace(g, a, b, len(product_set(g, a, b)))
    p = minimal_torsion(g)
    target = len(a) + len(b) - 1

    fs = _replay_context(g)
    kernel_group = subgroup_as_group(fs.kernel)
    da = decompose_subset(fs, a)
    db = decompose_subset(fs, b)
    swapped = len(da) > len(db)
    if swapped:
        a, b = b, a
        da, db = db, da
    alpha = len(da)
    beta = len(db)
    a_sizes = tuple(len(m) for _, m in da)
    b_sizes = tuple(len(m) for _, m in db)

    h1, top = da[0]
    a1 = len(top)
    ke = fs.kernel.element_list
    # B_j moves into K as the kernel parts of (1, h1) * (k, b_j); one call for all j
    flat = pair_products(fs, fs.pair_pos[g.identity], h1,
                         [pos for _, m in db for pos in m.elements()],
                         [hj for hj, m in db for _ in range(len(m))])
    moved = iter((flat // fs.num_blocks).tolist())
    block_checks = []
    for (hj, _), bj in zip(db, b_sizes):
        where = f"{g.label}: block ({h1},{hj})"
        translated = SubsetMask.from_elements(fs.kernel.order, islice(moved, bj))
        _invariant(len(translated) == bj,
                   f"{where} translation into the kernel changed its size")
        size = len(product_set(kernel_group, top, translated))
        lower = a1 + bj - 1
        _invariant(size >= lower, f"{where} product size {size} < {lower}")
        # an abelian kernel is the base case, on the product just counted
        subtrace = (_base_trace(kernel_group, top, translated, size)
                    if kernel_group.is_abelian()
                    else _replay(kernel_group, top, translated))
        block_checks.append(BlockCheck(
            a_block=h1, b_block=hj, a1_size=a1, b_size=bj,
            translated_b=tuple(ke[pos] for pos in translated.elements()),
            product_size=size, lower_bound=lower, holds=True, subtrace=subtrace,
        ))

    a_quot, b_quot = (SubsetMask.from_elements(fs.num_blocks, (h for h, _ in d))
                      for d in (da, db))
    quot_product = product_set(fs.quot.table, a_quot, b_quot)
    quot_lower = alpha + beta - 1
    _invariant(len(quot_product) >= quot_lower,
               f"{g.label}: quotient product size {len(quot_product)} < {quot_lower}")

    seconds = tuple(fs.quot.table.op[h1, [hj for hj, _ in db]].tolist())
    _invariant(len(set(seconds)) == beta,
               f"{g.label}: block products do not have distinct second coordinates")

    ab_size = len(product_set(g, a, b))
    sum_bound = sum(a1 + bj - 1 for bj in b_sizes) + alpha - 1
    closed_form = beta * a1 + len(b) - beta + alpha - 1
    _invariant(sum_bound == closed_form, f"{g.label}: counting chain arithmetic mismatch")
    _invariant(ab_size >= sum_bound,
               f"{g.label}: |A*B| = {ab_size} < assembled bound {sum_bound}")
    _invariant(sum_bound >= target,
               f"{g.label}: assembled bound {sum_bound} < target {target}")

    return ProofTrace(
        group=g.label, group_order=g.order, a=a, b=b, swapped=swapped,
        p_g=p, target=target, kind="inductive",
        kernel=ke, alpha=alpha, beta=beta,
        a_sizes=a_sizes, b_sizes=b_sizes,
        block_checks=tuple(block_checks),
        quotient_check={"product_size": len(quot_product), "lower_bound": quot_lower,
                        "holds": True},
        disjointness_check={"second_coordinates": seconds, "distinct": True},
        final_chain={"product_size": ab_size, "sum_bound": sum_bound,
                     "closed_form": closed_form, "target": target, "holds": True},
    )
