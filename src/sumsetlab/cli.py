"""Command-line front end.

Exit codes: 0 = success with zero bound violations, 1 = at least one bound
violation found (the report lists witnesses), 2 = usage, input or output
error, 3 = internal error (a failed consistency check or any other
unexpected exception: a bug in this library, named on one stderr line).

Each command gets its group from ``groups.cached_group``, so a process that
runs several commands builds each canonical group, and what is derived from
it, once, within a memory bound; a table file is read and checked once per
command.  Scans run on the calling thread; ``verify --workers N``, which
older scripts pass, is still accepted as an integer and ignored.
"""

from __future__ import annotations

import functools
import sys

import click

from .engine import (EXHAUSTIVE_DEFAULT_LIMIT, Caps, SamplingPlan,
                     find_extremal, size_bound, verify_exhaustive,
                     verify_sampled)
from .factor_system import build_factor_system, factor_system_json
from .groups import GroupBuildError, SubsetMask, cached_group, validate_group
from .jsonio import dumps_stable
from .replay import ReplayPreconditionError, replay_solvable_proof
from .structure import (INFINITY, choose_decomposition_subgroup,
                        generated_subgroup)


class _Main(click.Group):
    """Turns an exception that is not click's own into exit code 3."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (click.ClickException, click.Abort, click.exceptions.Exit):
            raise
        except Exception as exc:
            click.echo(f"internal error: {type(exc).__name__}: {exc}", err=True)
            sys.exit(3)


@click.group(cls=_Main)
def main():
    """Finite-group sumset laboratory: verify product-size bounds, decompose
    groups into factor systems, search extremal pairs, and replay the
    solvable-group induction on concrete sets."""


def _command(fn):
    """A subcommand called with the group that --group names; its options
    start with --group and end with --json and --out."""
    @functools.wraps(fn)
    def run(spec, **options):
        try:
            g = cached_group(spec)
        except GroupBuildError as exc:
            _fail(str(exc))
        return fn(g, **options)

    cmd = main.command(params=[click.Option(["--group", "spec"], required=True,
                                            help="Group spec, e.g. cyclic:7.")])(run)
    cmd.params += [click.Option(["--json", "as_json"], is_flag=True,
                                help="Emit the JSON report."),
                   click.Option(["--out", "out_path"], type=click.Path(dir_okay=False))]
    return cmd


def _fail(message: str):
    click.echo(f"error: {message}", err=True)
    sys.exit(2)


def _emit(text: str, out_path: str | None, code: int = 0):
    """Write the report to ``out_path`` (stdout if None), then exit with ``code``."""
    if out_path:
        try:
            with open(out_path, "w") as fh:
                fh.write(text)
        except OSError as exc:
            _fail(f"cannot write {out_path}: {exc.strerror}")
    else:
        click.echo(text, nl=False)
    sys.exit(code)


def _parse_elements(raw: str, order: int, name: str) -> SubsetMask:
    try:
        elements = [int(tok) for tok in raw.split(",") if tok.strip() != ""]
    except ValueError:
        _fail(f"{name} must be comma-separated element indices")
    try:
        return SubsetMask.from_elements(order, elements)
    except ValueError as exc:
        _fail(str(exc))


def _fmt_p(p) -> str:
    return "infinity" if p == INFINITY else str(int(p))


@_command
@click.option("--theorem", type=click.Choice(["cd", "eh"]), default="cd")
@click.option("--mode", type=click.Choice(["exhaustive", "capped", "sampled"]),
              default="exhaustive")
@click.option("--seed", type=int, default=None, help="Sampled mode seed.")
@click.option("--count", type=int, default=None, help="Sampled mode pair count.")
@click.option("--fixed-sizes", default=None, metavar="SA,SB",
              help="Sampled mode: draw subsets of these exact sizes.")
@click.option("--max-a", type=int, default=None, help="Capped mode: max |A|.")
@click.option("--max-b", type=int, default=None, help="Capped mode: max |B|.")
@click.option("--sum-cap", type=int, default=None, help="Capped mode: max |A|+|B|.")
@click.option("--exhaustive-limit", type=int, default=EXHAUSTIVE_DEFAULT_LIMIT,
              show_default=True,
              help="Largest order allowed for full enumeration.")
@click.option("--workers", type=int, hidden=True, expose_value=False)
def verify(g, theorem, mode, seed, count, fixed_sizes, max_a, max_b,
           sum_cap, exhaustive_limit, as_json, out_path):
    """Verify the product-size bound over pairs of subsets."""
    try:
        if mode == "exhaustive":
            report = verify_exhaustive(g, theorem, exhaustive_limit=exhaustive_limit)
        elif mode == "capped":
            if max_a is None and max_b is None and sum_cap is None:
                raise click.UsageError(
                    "capped mode needs --max-a, --max-b, or --sum-cap")
            caps = Caps(max_a_size=max_a, max_b_size=max_b, sum_cap=sum_cap)
            report = verify_exhaustive(g, theorem, caps)
        else:
            if seed is None or count is None:
                raise click.UsageError("sampled mode needs --seed and --count")
            sizes = None
            if fixed_sizes is not None:
                try:
                    sa, sb = (int(v) for v in fixed_sizes.split(","))
                except ValueError:
                    raise click.UsageError("--fixed-sizes must be SA,SB")
                sizes = (sa, sb)
            plan = SamplingPlan(seed=seed, count=count, fixed_sizes=sizes)
            report = verify_sampled(g, theorem, plan)
    except ValueError as exc:
        _fail(str(exc))

    _emit(dumps_stable(report.to_json_dict()) if as_json else _verify_text(report),
          out_path, 1 if report.violations else 0)


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


def _verify_text(report) -> str:
    lines = [
        f"group           {report.group} (order {report.group_order})",
        f"theorem         {report.theorem}",
        f"mode            {_mode_text(report.mode)}",
        f"minimal torsion {_fmt_p(report.p_g)}",
        f"pairs checked   {report.pairs_checked}",
        f"violations      {len(report.violations)}",
        f"extremal pairs  {report.extremal_count}",
        f"wall time       {report.wall_time:.3f}s",
        *(f"  VIOLATION a={list(v.a.elements())} b={list(v.b.elements())} "
          f"|ab|={v.product_size} < bound {v.bound}" for v in report.violations[:10]),
    ]
    if len(report.violations) > 10:
        lines.append(f"  ... {len(report.violations) - 10} more")
    return "\n".join(lines) + "\n"


@_command
@click.option("--kernel", "kernel_raw", default=None, metavar="ELEMS",
              help="Comma-separated generators of the kernel subgroup "
                   "(default: the decomposition policy's choice).")
@click.option("--rep-policy", default="lowest_index", metavar="POLICY",
              help="lowest_index, seeded_random:SEED, or explicit:R0,R1,...")
def decompose(g, kernel_raw, rep_policy, as_json, out_path):
    """Build and print the factor system for a group over a normal subgroup."""
    try:
        if kernel_raw is None:
            kernel = choose_decomposition_subgroup(g)
        else:
            gens = _parse_elements(kernel_raw, g.order, "--kernel")
            kernel = generated_subgroup(g, gens)
        fs = build_factor_system(g, kernel, rep_policy)
    except ValueError as exc:
        _fail(str(exc))
    payload = factor_system_json(fs)
    _emit(dumps_stable(payload) if as_json else _decompose_text(payload), out_path)


def _decompose_text(payload: dict) -> str:
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


@_command
@click.option("--size-a", type=int, required=True)
@click.option("--size-b", type=int, required=True)
@click.option("--limit", type=int, default=None,
              help="Stop after this many extremal pairs.")
def extremal(g, size_a, size_b, limit, as_json, out_path):
    """List pairs whose product size meets the bound exactly."""
    try:
        pairs = find_extremal(g, size_a, size_b, limit=limit)
    except ValueError as exc:
        _fail(str(exc))
    payload = {
        "schema": "sumsetlab.extremal/1",
        "group": g.label,
        "group_order": g.order,
        "size_a": size_a,
        "size_b": size_b,
        "bound": size_bound(g, size_a, size_b),
        "count": len(pairs),
        "pairs": [
            {"a": list(a.elements()), "b": list(b.elements())} for a, b in pairs
        ],
    }
    _emit(dumps_stable(payload) if as_json else _extremal_text(payload), out_path)


def _extremal_text(payload: dict) -> str:
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


@_command
@click.option("--set-a", "set_a", required=True, metavar="ELEMS",
              help="Comma-separated element indices.")
@click.option("--set-b", "set_b", required=True, metavar="ELEMS")
def trace(g, set_a, set_b, as_json, out_path):
    """Replay the solvable-group induction on one concrete pair."""
    a = _parse_elements(set_a, g.order, "--set-a")
    b = _parse_elements(set_b, g.order, "--set-b")
    try:
        result = replay_solvable_proof(g, a, b)
    except ReplayPreconditionError as exc:
        _fail(str(exc))
    _emit(dumps_stable(result.to_json_dict()) if as_json else _trace_text(result),
          out_path)


def _trace_text(t, indent: str = "") -> str:
    lines = [
        f"{indent}group {t.group} (order {t.group_order}), "
        f"a={list(t.a.elements())} b={list(t.b.elements())}"
        + (" [swapped]" if t.swapped else ""),
        f"{indent}target |A|+|B|-1 = {t.target}, minimal torsion {_fmt_p(t.p_g)}",
    ]
    if t.kind == "base":
        lines.append(
            f"{indent}base case: |A*B| = {t.base.product_size} >= {t.target}"
        )
    else:
        lines.append(
            f"{indent}kernel {list(t.kernel)}; alpha={t.alpha} beta={t.beta}; "
            f"block sizes a={list(t.a_sizes)} b={list(t.b_sizes)}"
        )
        for bc in t.block_checks:
            lines.append(
                f"{indent}block ({bc.a_block},{bc.b_block}): "
                f"|A1*B_j| = {bc.product_size} >= {bc.lower_bound}"
            )
            lines.append(_trace_text(bc.subtrace, indent + "    ").rstrip("\n"))
        q = t.quotient_check
        lines.append(
            f"{indent}quotient: |A2*B2| = {q.product_size} >= {q.lower_bound}"
        )
        d = t.disjointness_check
        lines.append(
            f"{indent}disjoint second coordinates: {list(d.second_coordinates)}"
        )
        f = t.final_chain
        lines.append(
            f"{indent}chain: |A*B| = {f.product_size} >= {f.sum_bound} "
            f"= {f.closed_form} >= {f.target}"
        )
    return "\n".join(lines) + "\n"


@_command
def validate(g, as_json, out_path):
    """Build a group and check the group axioms; exit 2 on any violation."""
    # a table file's group comes fresh from its loader, which has checked it
    problems = [] if g.label.startswith("table:") else validate_group(g)
    payload = {
        "schema": "sumsetlab.validation/1",
        "group": g.label,
        "group_order": g.order,
        "violations": problems,
    }
    _emit(dumps_stable(payload) if as_json else _validate_text(payload), out_path,
          2 if problems else 0)


def _validate_text(payload: dict) -> str:
    lines = [f"group {payload['group']} (order {payload['group_order']})"]
    lines.extend(f"  {p}" for p in payload["violations"]
                 or ["all group axioms hold"])
    return "\n".join(lines) + "\n"


if __name__ == "__main__":
    main()
