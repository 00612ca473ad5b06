"""Command-line front end: one ``argparse`` parser per command, built at
import from the ``@_command`` declarations below, that accepts no abbreviated
flag.  An argv that starts with a command name meets only that command's
parser; the top-level one handles help and unknown commands only.

Each command is ``fn(g, **options) -> (payload, exit code)`` and does no
I/O.  ``main`` alone builds the group, times the command, renders the payload
(``dumps_stable`` for ``--json``, else the command's text renderer, which
reads the payload alone), writes it to ``--out`` or stdout and exits: 0 = no
bound violation, 1 = at least one (the report lists witnesses), 2 = usage,
input or output error (argparse's, or an ``InputError``, a failed write
included, on one ``error:`` line), 3 = internal error (any other exception,
a plain ``ValueError`` included: a bug in this library, named on one stderr
line).

Each command gets its group from ``groups.cached_group``, so a process that
runs several commands builds each canonical group, and what is derived from
it, once, within a memory bound; a table file is read and checked once per
command.  Scans run on the calling thread; ``verify --workers N``, which
older scripts pass, is still accepted as an integer and ignored.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from .engine import (EXHAUSTIVE_DEFAULT_LIMIT, THEOREMS, Caps, SamplingPlan,
                     find_extremal, size_bound, verify_exhaustive,
                     verify_sampled)
from .factor_system import build_factor_system, factor_system_json
from .groups import InputError, SubsetMask, cached_group, validate_group
from .jsonio import dumps_stable
from .replay import replay_solvable_proof
from .structure import choose_decomposition_subgroup, generated_subgroup


_PARSER = argparse.ArgumentParser(prog="sumsetlab", allow_abbrev=False, description=(
    "Finite-group sumset laboratory: verify product-size bounds, decompose groups into "
    "factor systems, search extremal pairs, and replay the solvable-group induction on "
    "concrete sets."))
_COMMANDS = _PARSER.add_subparsers(metavar="COMMAND", required=True)


def main(args=None, prog_name=None):
    """Run the command that ``args`` (default ``sys.argv[1:]``) names, write
    its report and exit with its code; it ends in SystemExit.  Usage lines
    name ``sumsetlab`` whatever ``prog_name`` is."""
    args = sys.argv[1:] if args is None else list(args)
    try:
        if args and args[0] in _COMMANDS.choices:
            namespace, extra = _COMMANDS.choices[args[0]].parse_known_args(args[1:])
            if extra:
                _PARSER.error(f"unrecognized arguments: {' '.join(extra)}")
        else:
            namespace = _PARSER.parse_args(args)
        options = vars(namespace)
        g = cached_group(options.pop("spec"))
        run, text = options.pop("run"), options.pop("text")
        as_json, out_path = options.pop("as_json"), options.pop("out_path")
        start = time.perf_counter()
        payload, code = run(g, **options)
        _write(dumps_stable(payload) if as_json
               else text(payload, time.perf_counter() - start), out_path)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        sys.exit(3)
    sys.exit(code)


main.main = main    # perfbench/run.py calls main.main(args=[...], prog_name=...)


def _write(report: str, out_path: str | None) -> None:
    """Write the report to ``out_path`` (stdout if None); failing, raise InputError."""
    try:
        if out_path:
            with open(out_path, "w") as fh:
                fh.write(report)
        elif sys.stdout is None:
            raise InputError("cannot write stdout: it is closed")
        else:
            sys.stdout.write(report)
            sys.stdout.flush()
    except OSError as exc:
        if not out_path and sys.stdout is sys.__stdout__:
            null = os.open(os.devnull, os.O_WRONLY)  # drop the bytes left buffered, or
            os.dup2(null, sys.stdout.fileno())       # they fail again at exit (exit 120)
            os.close(null)
        raise InputError(f"cannot write {out_path or 'stdout'}: "
                         f"{exc.strerror or exc}") from None


def _command(text, **options):
    """Declare ``fn(g, **values) -> (payload, exit code)`` a subcommand named
    after it, rendered in text mode by ``text(payload, seconds)``.  Its flags
    are --group, one ``--name-with-dashes`` per keyword (whose value holds
    that flag's ``add_argument`` keywords), then --json and --out."""
    def declare(fn):
        sub = _COMMANDS.add_parser(fn.__name__, help=fn.__doc__, description=fn.__doc__,
                                   allow_abbrev=False)
        sub.add_argument("--group", dest="spec", required=True,
                         help="Group spec, e.g. cyclic:7.")
        for name, keywords in options.items():
            sub.add_argument("--" + name.replace("_", "-"), **keywords)
        sub.add_argument("--json", dest="as_json", action="store_true",
                         help="Emit the JSON report.")
        sub.add_argument("--out", dest="out_path", metavar="PATH")
        sub.set_defaults(run=fn, text=text)
        return fn
    return declare


def _parse_elements(raw: str, order: int, name: str) -> SubsetMask:
    try:
        elements = [int(tok) for tok in raw.split(",") if tok.strip() != ""]
    except ValueError:
        raise InputError(f"{name} must be comma-separated element indices") from None
    return SubsetMask.from_elements(order, elements)


def _fmt_p(p) -> str:
    return "infinity" if p is None else str(p)


def _mode_text(mode: dict) -> str:
    """A report's mode in words, e.g. ``sampled (seed 5, 1000 pairs, uniform)``."""
    kind = mode["kind"]
    if kind == "size_capped":
        parts = [f"no {name}" if mode[key] is None else f"{name} {mode[key]}"
                 for key, name in (("max_a_size", "max |A|"), ("max_b_size", "max |B|"),
                                   ("sum_cap", "sum cap"))]
    elif kind == "sampled":
        dist = mode["distribution"]
        parts = [f"seed {mode['seed']}", f"{mode['count']} pairs",
                 dist if dist == "uniform"
                 else "fixed sizes " + ",".join(map(str, dist["fixed_sizes"]))]
    else:
        return kind
    return f"{kind} ({', '.join(parts)})"


def _verify_text(report: dict, seconds: float) -> str:
    violations = report["violations"]
    lines = [
        f"group           {report['group']} (order {report['group_order']})",
        f"theorem         {report['theorem']}",
        f"mode            {_mode_text(report['mode'])}",
        f"minimal torsion {_fmt_p(report['p_g'])}",
        f"pairs checked   {report['pairs_checked']}",
        f"violations      {len(violations)}",
        f"extremal pairs  {report['extremal_count']}",
        f"wall time       {seconds:.3f}s",
        *(f"  VIOLATION a={list(v['a'])} b={list(v['b'])} "
          f"|ab|={v['product_size']} < bound {v['bound']}" for v in violations[:10]),
    ]
    if len(violations) > 10:
        lines.append(f"  ... {len(violations) - 10} more")
    return "\n".join(lines) + "\n"


@_command(
    _verify_text,
    theorem=dict(choices=THEOREMS, default="cd"),
    mode=dict(choices=["exhaustive", "capped", "sampled"], default="exhaustive"),
    seed=dict(type=int, help="Sampled mode seed."),
    count=dict(type=int, help="Sampled mode pair count."),
    fixed_sizes=dict(metavar="SA,SB", help="Sampled mode: sets of these exact sizes."),
    max_a=dict(type=int, help="Capped mode: max |A|."),
    max_b=dict(type=int, help="Capped mode: max |B|."),
    sum_cap=dict(type=int, help="Capped mode: max |A|+|B|."),
    exhaustive_limit=dict(type=int, default=EXHAUSTIVE_DEFAULT_LIMIT,
                          help="Largest order scanned in full (default: %(default)s)."),
    workers=dict(type=int, help=argparse.SUPPRESS),
)
def verify(g, theorem, mode, seed, count, fixed_sizes, max_a, max_b,
           sum_cap, exhaustive_limit, workers):
    """Verify the product-size bound over pairs of subsets."""
    if mode == "exhaustive":
        report = verify_exhaustive(g, theorem, exhaustive_limit=exhaustive_limit)
    elif mode == "capped":
        if max_a is None and max_b is None and sum_cap is None:
            raise InputError("capped mode needs --max-a, --max-b, or --sum-cap")
        caps = Caps(max_a_size=max_a, max_b_size=max_b, sum_cap=sum_cap)
        report = verify_exhaustive(g, theorem, caps)
    else:
        if seed is None or count is None:
            raise InputError("sampled mode needs --seed and --count")
        sizes = None
        if fixed_sizes is not None:
            try:
                sa, sb = (int(v) for v in fixed_sizes.split(","))
            except ValueError:
                raise InputError("--fixed-sizes must be SA,SB") from None
            sizes = (sa, sb)
        plan = SamplingPlan(seed=seed, count=count, fixed_sizes=sizes)
        report = verify_sampled(g, theorem, plan)
    return report.to_json_dict(), 1 if report.violations else 0


def _decompose_text(payload: dict, seconds: float) -> str:
    lines = [
        f"group           {payload['group']} (order {payload['group_order']})",
        f"kernel          {payload['kernel']}",
        f"representatives {payload['representatives']}",
        "pairs (element -> [kernel, block]):",
        *(f"  {x} -> {pair}" for x, pair in enumerate(payload["pairs"])),
        "carry table (rows/columns are blocks):",
        *(f"  {row}" for row in payload["carry"]),
    ]
    return "\n".join(lines) + "\n"


@_command(
    _decompose_text,
    kernel=dict(dest="kernel_raw", metavar="ELEMS",
                help="Comma-separated generators of the kernel subgroup "
                     "(default: the decomposition policy's choice)."),
    rep_policy=dict(default="lowest_index", metavar="POLICY",
                    help="lowest_index, seeded_random:SEED, or explicit:R0,R1,..."),
)
def decompose(g, kernel_raw, rep_policy):
    """Build and print the factor system for a group over a normal subgroup."""
    if kernel_raw is None:
        kernel = choose_decomposition_subgroup(g)
    else:
        kernel = generated_subgroup(g, _parse_elements(kernel_raw, g.order, "--kernel"))
    return factor_system_json(build_factor_system(g, kernel, rep_policy)), 0


def _extremal_text(payload: dict, seconds: float) -> str:
    pairs = payload["pairs"]
    lines = [
        f"group   {payload['group']} (order {payload['group_order']})",
        f"sizes   |A|={payload['size_a']} |B|={payload['size_b']}, "
        f"bound {payload['bound']}",
        f"extremal pairs found: {len(pairs)}",
        *(f"  a={pair['a']} b={pair['b']}" for pair in pairs[:10]),
    ]
    if len(pairs) > 10:
        lines.append(f"  ... {len(pairs) - 10} more")
    return "\n".join(lines) + "\n"


@_command(
    _extremal_text,
    size_a=dict(type=int, required=True),
    size_b=dict(type=int, required=True),
    limit=dict(type=int, help="Stop after this many extremal pairs."),
)
def extremal(g, size_a, size_b, limit):
    """List pairs whose product size meets the bound exactly."""
    a_rows, b_rows = find_extremal(g, size_a, size_b, limit=limit)
    pairs = [{"a": a, "b": b} for a, b in zip(a_rows.tolist(), b_rows.tolist())]
    return {
        "schema": "sumsetlab.extremal/1",
        "group": g.label,
        "group_order": g.order,
        "size_a": size_a,
        "size_b": size_b,
        "bound": size_bound(g, size_a, size_b),
        "count": len(pairs),
        "pairs": pairs,
    }, 0


def _trace_text(t: dict, seconds: float, indent: str = "") -> str:
    lines = [
        f"{indent}group {t['group']} (order {t['group_order']}), "
        f"a={list(t['a'])} b={list(t['b'])}" + (" [swapped]" if t["swapped"] else ""),
        f"{indent}target |A|+|B|-1 = {t['target']}, minimal torsion {_fmt_p(t['p_g'])}",
    ]
    if t["kind"] == "base":
        lines.append(f"{indent}base case: |A*B| = {t['base']['product_size']} "
                     f">= {t['target']}")
    else:
        lines.append(f"{indent}kernel {list(t['kernel'])}; "
                     f"alpha={t['alpha']} beta={t['beta']}; "
                     f"block sizes a={list(t['a_sizes'])} b={list(t['b_sizes'])}")
        for bc in t["block_checks"]:
            lines.append(f"{indent}block ({bc['a_block']},{bc['b_block']}): "
                         f"|A1*B_j| = {bc['product_size']} >= {bc['lower_bound']}")
            lines.append(_trace_text(bc["subtrace"], seconds, indent + "    ").rstrip("\n"))
        q, d, f = t["quotient_check"], t["disjointness_check"], t["final_chain"]
        lines += [
            f"{indent}quotient: |A2*B2| = {q['product_size']} >= {q['lower_bound']}",
            f"{indent}disjoint second coordinates: {list(d['second_coordinates'])}",
            f"{indent}chain: |A*B| = {f['product_size']} >= {f['sum_bound']} "
            f"= {f['closed_form']} >= {f['target']}",
        ]
    return "\n".join(lines) + "\n"


@_command(
    _trace_text,
    set_a=dict(required=True, metavar="ELEMS", help="Comma-separated element indices."),
    set_b=dict(required=True, metavar="ELEMS"),
)
def trace(g, set_a, set_b):
    """Replay the solvable-group induction on one concrete pair."""
    a = _parse_elements(set_a, g.order, "--set-a")
    b = _parse_elements(set_b, g.order, "--set-b")
    return replay_solvable_proof(g, a, b).to_json_dict(), 0


def _validate_text(payload: dict, seconds: float) -> str:
    lines = [f"group {payload['group']} (order {payload['group_order']})"]
    lines.extend(f"  {p}" for p in payload["violations"] or ["all group axioms hold"])
    return "\n".join(lines) + "\n"


@_command(_validate_text)
def validate(g):
    """Build a group and check the group axioms; exit 2 on any violation."""
    # a table file's group comes fresh from its loader, which has checked it
    problems = [] if g.label.startswith("table:") else validate_group(g)
    return {
        "schema": "sumsetlab.validation/1",
        "group": g.label,
        "group_order": g.order,
        "violations": problems,
    }, 2 if problems else 0


if __name__ == "__main__":
    main()
