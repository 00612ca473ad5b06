"""The standard test corpus: small groups covering the families this package
builds.

Odd orders dominate on purpose: even-order groups make the product bound
trivial (minimal torsion 2), so the interesting verification regime lives in
odd order.  Quaternion and dihedral stay in as the even-order checks.
"""

from __future__ import annotations

CORPUS_SPECS: tuple[str, ...] = (
    "cyclic:1",
    "cyclic:2",
    "cyclic:3",
    "cyclic:5",
    "cyclic:6",
    "cyclic:7",
    "cyclic:9",
    "cyclic:11",
    "cyclic:25",
    "dihedral:5",
    "quaternion",
    "heisenberg:3",
    "frobenius:7:3:2",
    "product:cyclic:3,cyclic:3",
    "product:cyclic:3,cyclic:9",
)
