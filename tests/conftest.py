import contextlib
import io
from itertools import permutations
from typing import NamedTuple

import numpy as np
import pytest

from sumsetlab import cli
from sumsetlab.corpus import CORPUS_SPECS
from sumsetlab.groups import FiniteGroup, SubsetMask, cached_group
from sumsetlab.rng import SplitMix64


class CliResult(NamedTuple):
    exit_code: int
    stdout: str
    stderr: str
    exception: SystemExit | None     # the SystemExit of a nonzero exit code

    @property
    def output(self) -> str:
        return self.stdout + self.stderr


def run_cli(*args) -> CliResult:
    """Run one ``sumsetlab`` command in this process with stdout and stderr
    captured.  Every command ends in SystemExit; any other exception is a
    test failure and propagates."""
    out, err = io.StringIO(), io.StringIO()
    exception = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            cli.main(list(args))
        except SystemExit as exc:
            exception = exc
    code = 0 if exception is None or exception.code is None else exception.code
    return CliResult(code, out.getvalue(), err.getvalue(), exception if code else None)


def symmetric_4_pairs(g):
    """The 300 seeded pairs (A, B) of symmetric:4 with |A| + |B| <= 3 (its
    p(G) = 2) that the replay is checked on."""
    rng = SplitMix64(4)
    for _ in range(300):
        sa = 1 + rng.below(2)
        sb = 1 + rng.below(3 - sa)
        yield (SubsetMask(rng.subset_of_size(g.order, sa), g.order),
               SubsetMask(rng.subset_of_size(g.order, sb), g.order))


@pytest.fixture(scope="session")
def corpus():
    return [cached_group(spec) for spec in CORPUS_SPECS]


@pytest.fixture(scope="session", params=CORPUS_SPECS)
def corpus_member(request):
    return cached_group(request.param)


@pytest.fixture(scope="session")
def alternating_5():
    """A5 built from even permutations: the smallest non-solvable group."""
    return permutation_group(5, even=True, label="alternating:5")


@pytest.fixture(scope="session")
def permutation_groups(alternating_5):
    """Groups whose derived subgroups need a normal closure: in A4 and S4 the
    commutators of two generators generate a subgroup that is not normal."""
    return {"alternating:4": permutation_group(4, even=True, label="alternating:4"),
            "symmetric:4": permutation_group(4, even=False, label="symmetric:4"),
            "alternating:5": alternating_5}


def permutation_group(degree: int, even: bool, label: str) -> FiniteGroup:
    """The (even, if ``even``) permutations of 0..degree-1 in sorted order,
    so the identity is element 0, with (pq)(k) = p(q(k))."""
    elems = sorted(p for p in permutations(range(degree))
                   if not even or _parity(p) == 0)
    index = {p: i for i, p in enumerate(elems)}
    n = len(elems)
    op = np.zeros((n, n), dtype=np.int32)
    for i, p in enumerate(elems):
        for j, q in enumerate(elems):
            op[i, j] = index[tuple(p[q[k]] for k in range(degree))]
    inv = np.argmax(op == 0, axis=1).astype(np.int32)
    return FiniteGroup(order=n, op=op, identity=0, inv=inv, label=label)


def _parity(perm):
    flips = sum(
        1
        for i in range(len(perm))
        for j in range(i + 1, len(perm))
        if perm[i] > perm[j]
    )
    return flips % 2
