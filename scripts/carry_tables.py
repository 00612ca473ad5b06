#!/usr/bin/env python3
"""Print the pair encoding and carry table for a few instructive extensions.

Shows base-p addition-with-carry emerging from Z/p^2 over its order-p
subgroup, and the quaternion group over {1, -1, k, -k}, where the carry is
genuinely non-trivial (the group is not a semidirect product).
"""

from sumsetlab.factor_system import build_factor_system
from sumsetlab.groups import build_group
from sumsetlab.structure import generated_subgroup


def show(spec, gens, policy="lowest_index", names=None):
    g = build_group(spec)
    kernel = generated_subgroup(g, gens)
    fs = build_factor_system(g, kernel, policy)
    label = names or (lambda x: str(x))
    print(f"== {spec}, kernel {[label(x) for x in kernel.element_list]}, "
          f"representatives {[label(r) for r in fs.reps]} ==")
    print("element -> (kernel part, block):")
    ke = kernel.element_list
    row = []
    for x in range(g.order):
        k, h = ke[fs.pair_pos[x]], fs.pair_block[x]
        row.append(f"{label(x)}->({label(k)},{h})")
    print("  " + "  ".join(row))
    print("carry table (block x block, entries are kernel elements):")
    for h1 in range(fs.num_blocks):
        entries = [label(ke[fs.carry[h1, h2]]) for h2 in range(fs.num_blocks)]
        print("  " + " ".join(f"{e:>4}" for e in entries))
    print()


def main():
    for p in (3, 5):
        show(f"cyclic:{p * p}", (p,))
    quaternion_names = ["1", "-1", "i", "-i", "j", "-j", "k", "-k"]
    show("quaternion", (6,), policy="explicit:0,4",
         names=lambda x: quaternion_names[x])


if __name__ == "__main__":
    main()
