#!/usr/bin/env python3
"""Run bound verification across the whole corpus and print a summary table.

Small groups get full enumeration; larger ones get a size-capped pass plus a
seeded sample.  Exits 1 if any run reports a violation.
"""

import sys
import time

from sumsetlab.corpus import CORPUS_SPECS
from sumsetlab.engine import Caps, SamplingPlan, verify_exhaustive, verify_sampled
from sumsetlab.groups import cached_group
from sumsetlab.structure import INFINITY


def fmt_p(p):
    return "inf" if p == INFINITY else str(int(p))


def main():
    theorem = sys.argv[1] if len(sys.argv) > 1 else "cd"
    print(f"{'group':<28}{'order':>6}  {'p':>4}  {'mode':<22}"
          f"{'pairs':>10}  {'viol':>5}  {'extremal':>9}  {'time':>7}")
    bad = 0
    for spec in CORPUS_SPECS:
        g = cached_group(spec)
        if g.order <= 11:
            runs = [lambda: verify_exhaustive(g, theorem)]
        else:
            runs = [
                lambda: verify_exhaustive(g, theorem, Caps(max_a_size=3, max_b_size=3)),
                lambda: verify_sampled(g, theorem, SamplingPlan(seed=42, count=20000)),
            ]
        for run in runs:
            start = time.perf_counter()
            r = run()
            seconds = time.perf_counter() - start
            mode = r.mode["kind"]
            print(f"{r.group:<28}{r.group_order:>6}  {fmt_p(r.p_g):>4}  "
                  f"{mode:<22}{r.pairs_checked:>10}  {len(r.violations):>5}  "
                  f"{r.extremal_count:>9}  {seconds:>6.2f}s")
            bad += len(r.violations)
    if bad:
        print(f"\n{bad} violation(s) found")
        return 1
    print("\nno violations anywhere in the corpus")
    return 0


if __name__ == "__main__":
    sys.exit(main())
