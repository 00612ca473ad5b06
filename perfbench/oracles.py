"""Output oracles: each command's exit code, report and pinned hash.

The checks use closed forms (pair counts, the Vosper extremal counts on Z/p)
and the Cayley tables themselves (naive |A*B|, g = k * rep(h)), never the
program's own kernels.  ``check`` raises OracleError on the first miss.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

from workloads import Command


class OracleError(AssertionError):
    """A command's exit code, report or hash is wrong."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise OracleError(message)


def report_sha256(out: str) -> str:
    return hashlib.sha256(out.encode()).hexdigest()


def naive_product_size(op: np.ndarray, a, b) -> int:
    return len({int(op[x, y]) for x in a for y in b})


def _verify(cmd: Command, report: dict, tables) -> None:
    _require(report["violations"] == [], "verify reported violations")
    _require(report["pairs_checked"] == cmd.expect["pairs_checked"],
             f"pairs_checked {report['pairs_checked']} != closed form "
             f"{cmd.expect['pairs_checked']}")
    if "extremal_count" in cmd.expect:
        _require(report["extremal_count"] == cmd.expect["extremal_count"],
                 f"extremal_count {report['extremal_count']} != Vosper total "
                 f"{cmd.expect['extremal_count']}")


def _extremal(cmd: Command, report: dict, tables) -> None:
    _require(report["count"] == cmd.expect["count"] == len(report["pairs"]),
             f"extremal count {report['count']} != Vosper count {cmd.expect['count']}")


def _trace(cmd: Command, report: dict, tables) -> None:
    a, b = cmd.expect["a"], cmd.expect["b"]
    certified = (b, a) if report["swapped"] else (a, b)
    _require((report["a"], report["b"]) == certified,
             "trace certified a different pair than it was given")
    size = naive_product_size(tables[cmd.expect["group"]], report["a"], report["b"])
    step = report["base"] if report["kind"] == "base" else report["final_chain"]
    _require(step["product_size"] == size,
             f"trace product_size {step['product_size']} != naive |A*B| {size}")


def _decompose(cmd: Command, report: dict, tables) -> None:
    op = tables[cmd.expect["group"]]
    pairs = np.array(report["pairs"], dtype=np.int64)
    reps = np.array(report["representatives"], dtype=np.int64)
    _require(pairs.shape == (len(op), 2), "decompose pairs do not cover the group")
    _require(bool(np.isin(pairs[:, 0], report["kernel"]).all()),
             "decompose pair has a first coordinate outside the kernel")
    _require(bool((op[pairs[:, 0], reps[pairs[:, 1]]] == np.arange(len(op))).all()),
             "decompose pair violates g = k * rep(h)")


def _validate(cmd: Command, report: dict, tables) -> None:
    _require(report["violations"] == [], f"validate reported {report['violations']}")
    _require(report["group_order"] == cmd.expect["order"],
             f"validated order {report['group_order']} != {cmd.expect['order']}")


_CHECKS = {"verify": _verify, "extremal": _extremal, "trace": _trace,
           "decompose": _decompose, "validate": _validate}


def check(cmd: Command, code, out: str, tables: dict, pins: dict) -> None:
    """Raise OracleError unless ``cmd`` exited 0 with a correct report.

    ``pins`` maps pin keys to report SHA-256 digests; a command whose key is
    pinned must reproduce its digest byte for byte.
    """
    _require(code == 0, f"exit code {code!r}, expected 0")
    pinned = pins.get(cmd.key)
    if pinned is not None:
        _require(report_sha256(out) == pinned, "report SHA-256 differs from its pin")
    try:
        report = json.loads(out)
    except ValueError as exc:
        raise OracleError(f"report is not JSON: {exc}") from None
    try:
        _CHECKS[cmd.kind](cmd, report, tables)
    except (KeyError, TypeError, IndexError, ValueError) as exc:
        raise OracleError(f"malformed report: {exc!r}") from None
