"""Seeded workload generator: the fixed command list each workload runs.

Every workload is a list of sumsetlab CLI invocations built from the seed
alone, so the same seed gives the same commands.  Each command carries what
its oracle needs (closed-form pair counts, the input sets of a trace, the
order of a validated table) and a pin key: its argv with the table directory
replaced by ``{tmp}`` and the ``--workers`` flag dropped, since reports are
identical for any worker count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb
from pathlib import Path

import numpy as np

DEFAULT_SEED = 0
WORKLOADS = ("scan-dense", "scan-sparse", "trace", "structure")
TMP = "{tmp}"
_MASK64 = (1 << 64) - 1

# trace mix: (group, minimal torsion p, rounds).  Each round traces one pair
# for every size combination |A| + |B| - 1 <= p, so the sizes are the same at
# every seed and only the elements vary.  The small groups set the median;
# heisenberg:7 (6% of traces, each paying a full replay context build) sets
# the p95.
TRACE_MIX = (
    ("quaternion", 2, 32),
    ("heisenberg:3", 3, 16),
    ("frobenius:7:3:2", 3, 16),
    ("cyclic:25", 5, 6),
    ("heisenberg:5", 5, 2),
    ("frobenius:31:5:2", 5, 2),
    ("heisenberg:7", 7, 1),
)
SAMPLED_PAIRS = 1000             # per sampled scan-sparse command
STRUCTURE_GROUPS = ("heisenberg:7", "heisenberg:11", "heisenberg:13",
                    "frobenius:31:5:2", "product:heisenberg:3,cyclic:5")
# Cayley-table files on both sides of groups.ASSOC_CHECK_CAP (512), as
# (group, file stem).  The file name carries the seed, because the report
# label does and the relabelling depends on it.
TABLE_GROUPS = (("heisenberg:7", "heisenberg-7"),
                ("product:heisenberg:5,cyclic:5", "heisenberg-5-x-cyclic-5"))


class Xorshift64Star:
    """The benchmark's own generator (xorshift64*), independent of the
    program's SplitMix64 so that workload inputs never move with it."""

    def __init__(self, seed: int):
        self._state = ((seed & _MASK64) * 0x9E3779B97F4A7C15 + 1) & _MASK64 or 1

    def next_u64(self) -> int:
        x = self._state
        x ^= x >> 12
        x ^= (x << 25) & _MASK64
        x ^= x >> 27
        self._state = x
        return (x * 0x2545F4914F6CDD1D) & _MASK64

    def below(self, bound: int) -> int:
        limit = (1 << 64) - ((1 << 64) % bound)
        while True:
            v = self.next_u64()
            if v < limit:
                return v % bound

    def shuffle(self, items: list) -> None:
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]

    def sample(self, n: int, k: int) -> list[int]:
        pool = list(range(n))
        for i in range(k):
            j = i + self.below(n - i)
            pool[i], pool[j] = pool[j], pool[i]
        return pool[:k]


@dataclass(frozen=True)
class Command:
    """One CLI invocation and what its oracle expects of the report."""

    argv: tuple[str, ...]
    kind: str                     # verify, extremal, trace, decompose, validate
    key: str                      # pin key, see the module docstring
    threads: int = 1              # the --workers value, 1 without the flag
    parallel: bool = False        # its pool keeps ``threads`` cores busy
    pairs: int = 0                # subset pairs the command checks
    expect: dict = field(default_factory=dict, compare=False)


def _command(template: list[str], kind: str, table_dir: Path, workers: int | None,
             pairs: int = 0, parallel: bool = False, **expect) -> Command:
    """A command, given ``--workers`` unless ``workers`` is None.

    ``parallel`` marks scans whose kernels release the GIL (the numpy bitset
    path), so that ``--workers`` threads keep that many cores busy; the
    sampled and pure-Python paths hold it and stay on one core whatever
    ``--workers`` says (process CPU time within 1.15x of wall time with
    ``--workers 2``, against 1.3-1.45x on the bitset scans).
    """
    key = " ".join(template)
    argv = [t.replace(TMP, str(table_dir)) for t in template]
    if workers is not None:
        argv += ["--workers", str(workers)]
    return Command(argv=tuple(argv), kind=kind, key=key, threads=workers or 1,
                   parallel=parallel, pairs=pairs, expect=expect)


def exhaustive_pairs(n: int) -> int:
    return ((1 << n) - 1) ** 2


def capped_pairs(n: int, max_a: int, max_b: int, sum_cap: int | None = None) -> int:
    return sum(comb(n, a) * comb(n, b)
               for a in range(1, min(max_a, n) + 1)
               for b in range(1, min(max_b, n) + 1)
               if sum_cap is None or a + b <= sum_cap)


def vosper_extremal(p: int, a: int, b: int) -> int:
    """Pairs (A, B) of sizes (a, b) in Z/p with |A+B| = min(p, a+b-1)."""
    if a == 1 or b == 1 or a + b - 1 >= p:
        return comb(p, a) * comb(p, b)
    if a + b == p:
        return p * comb(p, a)
    return p * p * (p - 1) // 2


def vosper_total(p: int) -> int:
    return sum(vosper_extremal(p, a, b)
               for a in range(1, p + 1) for b in range(1, p + 1))


def _scan_dense(table_dir, workers):
    return [
        _command(["verify", "--group", "cyclic:13", "--theorem", "cd",
                  "--exhaustive-limit", "13", "--json"], "verify", table_dir, workers,
                 parallel=True, pairs=exhaustive_pairs(13),
                 pairs_checked=exhaustive_pairs(13), extremal_count=vosper_total(13)),
        _command(["verify", "--group", "cyclic:11", "--theorem", "eh", "--json"],
                 "verify", table_dir, workers, parallel=True,
                 pairs=exhaustive_pairs(11), pairs_checked=exhaustive_pairs(11)),
        _command(["verify", "--group", "heisenberg:3", "--theorem", "cd", "--mode",
                  "capped", "--max-a", "3", "--max-b", "3", "--json"], "verify",
                 table_dir, workers, parallel=True, pairs=capped_pairs(27, 3, 3),
                 pairs_checked=capped_pairs(27, 3, 3)),
        _command(["verify", "--group", "product:cyclic:3,cyclic:9", "--theorem", "eh",
                  "--mode", "capped", "--max-a", "3", "--max-b", "3", "--json"],
                 "verify", table_dir, workers, parallel=True,
                 pairs=capped_pairs(27, 3, 3), pairs_checked=capped_pairs(27, 3, 3)),
    ]


def _scan_sparse(rng, table_dir, workers):
    # 40 sampled commands of SAMPLED_PAIRS pairs each, so that both the
    # median and the p95 of the 42 commands fall in a group of like commands;
    # the capped and extremal commands, each a few times longer, are the two
    # above the p95.  Either alone would set a tail percentile over a handful
    # of commands, and its time swings by a tenth from run to run on a shared
    # host in ways the probe does not follow; the sampled commands also take
    # most of wall_s, so those swings move it little.
    cmds = []
    for _ in range(30):
        cmds.append(_command(
            ["verify", "--group", "frobenius:7:3:2", "--theorem", "cd", "--mode",
             "sampled", "--seed", str(rng.below(1 << 32)), "--count",
             str(SAMPLED_PAIRS), "--json"], "verify", table_dir, workers,
            pairs=SAMPLED_PAIRS, pairs_checked=SAMPLED_PAIRS))
    for _ in range(10):
        cmds.append(_command(
            ["verify", "--group", "heisenberg:5", "--theorem", "eh", "--mode", "sampled",
             "--seed", str(rng.below(1 << 32)), "--count", str(SAMPLED_PAIRS),
             "--fixed-sizes", "3,3", "--json"], "verify", table_dir, workers,
            pairs=SAMPLED_PAIRS, pairs_checked=SAMPLED_PAIRS))
    # order 64 is above the single-word limit (63), so this takes the
    # pure-Python capped path
    capped = capped_pairs(64, 1, 2)
    cmds.append(_command(
        ["verify", "--group", "dihedral:32", "--theorem", "cd",
         "--mode", "capped", "--max-a", "1", "--max-b", "2", "--json"], "verify",
        table_dir, workers, pairs=capped, pairs_checked=capped))
    cmds.append(_command(
        ["extremal", "--group", "cyclic:13", "--size-a", "3", "--size-b", "4", "--json"],
        "extremal", table_dir, None, pairs=comb(13, 3) * comb(13, 4),
        count=vosper_extremal(13, 3, 4)))
    return cmds


def _trace(rng, table_dir, orders):
    cmds = []
    for spec, p, rounds in TRACE_MIX:
        n = orders[spec]
        sizes = [(sa, sb) for sa in range(1, p + 1) for sb in range(1, p + 2 - sa)]
        for size_a, size_b in sizes * rounds:
            a = sorted(rng.sample(n, size_a))
            b = sorted(rng.sample(n, size_b))
            cmds.append(_command(
                ["trace", "--group", spec, "--set-a", ",".join(map(str, a)),
                 "--set-b", ",".join(map(str, b)), "--json"], "trace", table_dir, None,
                group=spec, a=a, b=b))
    rng.shuffle(cmds)
    return cmds


def _table_name(stem: str, seed: int) -> str:
    return f"{stem}-seed{seed}.tbl"


def _structure(table_dir, orders, seed):
    cmds = []
    for spec in STRUCTURE_GROUPS:
        cmds.append(_command(["validate", "--group", spec, "--json"], "validate",
                             table_dir, None, order=orders[spec]))
        cmds.append(_command(["decompose", "--group", spec, "--json"], "decompose",
                             table_dir, None, group=spec))
    for spec, stem in TABLE_GROUPS:
        name = _table_name(stem, seed)
        cmds.append(_command(["validate", "--group", f"table:{TMP}/{name}", "--json"],
                             "validate", table_dir, None, order=orders[spec]))
    return cmds


def groups_used(workload: str) -> tuple[str, ...]:
    """Group specs whose Cayley tables the oracles or table files need."""
    if workload == "trace":
        return tuple(spec for spec, _, _ in TRACE_MIX)
    if workload == "structure":
        return STRUCTURE_GROUPS + tuple(spec for spec, _ in TABLE_GROUPS)
    return ()


def commands(workload: str, seed: int, table_dir: Path, workers: int,
             tables: dict[str, np.ndarray]) -> list[Command]:
    """The command list of ``workload`` for ``seed``.

    ``tables`` maps each spec of ``groups_used(workload)`` to its Cayley
    table; ``workers`` is passed to the commands that take ``--workers``.
    """
    rng = Xorshift64Star(seed)
    orders = {spec: len(op) for spec, op in tables.items()}
    if workload == "scan-dense":
        return _scan_dense(table_dir, workers)
    if workload == "scan-sparse":
        return _scan_sparse(rng, table_dir, workers)
    if workload == "trace":
        return _trace(rng, table_dir, orders)
    if workload == "structure":
        return _structure(table_dir, orders, seed)
    raise ValueError(f"unknown workload {workload!r}")


def write_tables(seed: int, table_dir: Path, tables: dict[str, np.ndarray]) -> None:
    """Write the structure workload's Cayley-table files into ``table_dir``.

    Each table is relabelled by a seeded permutation that moves the identity
    away from 0, so the loader's identity search and relabelling run.
    """
    rng = Xorshift64Star(seed ^ 0x5EED7AB1E)
    for spec, stem in TABLE_GROUPS:
        op = tables[spec]
        n = len(op)
        perm = list(range(n))
        rng.shuffle(perm)
        if perm[0] == 0:
            perm[0], perm[1] = perm[1], perm[0]
        perm = np.array(perm, dtype=np.int64)
        relabelled = np.empty_like(op)
        relabelled[np.ix_(perm, perm)] = perm[op]
        with open(table_dir / _table_name(stem, seed), "w") as fh:
            fh.write(f"{n}\n")
            for row in relabelled:
                fh.write(" ".join(map(str, row.tolist())) + "\n")
