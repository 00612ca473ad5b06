import argparse
import contextlib
import errno
import importlib.util
import io
import json
import math
import os
import re
import subprocess
import sys
import threading
import time
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import sumsetlab.cli as cli
import sumsetlab.engine as engine
import sumsetlab.groups as groups
import sumsetlab.replay as replay
from sumsetlab.corpus import CORPUS_SPECS
from sumsetlab.engine import BoundCheck, VerificationReport
from sumsetlab.groups import SubsetMask, build_group, cached_group, parse_group_spec
from sumsetlab.jsonio import dumps_stable
from sumsetlab.structure import minimal_torsion

from conftest import run_cli


def test_verify_exhaustive_cyclic_7():
    result = run_cli("verify", "--group", "cyclic:7", "--theorem", "cd",
                    "--mode", "exhaustive", "--json")
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["pairs_checked"] == 16129
    assert payload["violations"] == []
    assert payload["theorem"] == "cd"


def test_verify_text_output_mentions_pairs():
    result = run_cli("verify", "--group", "cyclic:5")
    assert result.exit_code == 0
    assert "pairs checked   961" in result.output
    assert "violations      0" in result.output


@pytest.mark.parametrize("options, words", [
    ((), "exhaustive"),
    (("--mode", "capped", "--max-a", "3", "--max-b", "3"),
     "size_capped (max |A| 3, max |B| 3, no sum cap)"),
    (("--mode", "capped", "--sum-cap", "4"),
     "size_capped (no max |A|, no max |B|, sum cap 4)"),
    (("--mode", "sampled", "--seed", "5", "--count", "1000"),
     "sampled (seed 5, 1000 pairs, uniform)"),
    (("--mode", "sampled", "--seed", "5", "--count", "10", "--fixed-sizes", "3,3"),
     "sampled (seed 5, 10 pairs, fixed sizes 3,3)"),
])
def test_verify_text_output_names_the_mode_in_words(options, words):
    result = run_cli("verify", "--group", "cyclic:5", *options)
    assert result.exit_code == 0
    assert f"mode            {words}\n" in result.output
    report = json.loads(run_cli("verify", "--group", "cyclic:5", *options,
                               "--json").output)
    assert report["mode"]["kind"] == words.split()[0]


def test_trace_command_emits_a_full_proof_trace():
    result = run_cli("trace", "--group", "heisenberg:3",
                    "--set-a", "0,1", "--set-b", "0,3", "--json")
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["kind"] == "inductive"
    assert payload["final_chain"]["target"] == 3
    assert payload["final_chain"]["holds"]


def test_trace_text_mode_shows_the_chain():
    result = run_cli("trace", "--group", "heisenberg:3",
                    "--set-a", "0,1", "--set-b", "0,3")
    assert result.exit_code == 0
    assert "chain: |A*B| = 4 >= 4 = 4 >= 3" in result.output


def test_decompose_quaternion_with_named_kernel_and_reps():
    result = run_cli("decompose", "--group", "quaternion",
                    "--kernel", "6", "--rep-policy", "explicit:0,4", "--json")
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["kernel"] == [0, 1, 6, 7]
    assert payload["representatives"] == [0, 4]
    assert payload["pairs"] == [
        [0, 0], [1, 0], [7, 1], [6, 1], [0, 1], [1, 1], [6, 0], [7, 0]
    ]
    assert payload["carry"][1][1] == 1


def test_decompose_defaults_to_the_decomposition_policy_kernel():
    result = run_cli("decompose", "--group", "quaternion", "--json")
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["kernel"] == [0, 1]
    assert payload["policy"] == "lowest_index"


def test_decompose_seeded_policy_is_stable():
    first = run_cli("decompose", "--group", "quaternion",
                   "--kernel", "6", "--rep-policy", "seeded_random:3", "--json")
    second = run_cli("decompose", "--group", "quaternion",
                    "--kernel", "6", "--rep-policy", "seeded_random:3", "--json")
    assert first.exit_code == second.exit_code == 0
    assert first.output == second.output


def test_extremal_command_counts_pairs():
    result = run_cli("extremal", "--group", "cyclic:7",
                    "--size-a", "2", "--size-b", "3", "--json")
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["bound"] == 4
    assert payload["count"] == 147
    assert {"a": [0, 1], "b": [0, 1, 2]} in payload["pairs"]


def _naive_extremal_payload(spec, size_a, size_b, limit=None):
    """The extremal report by brute force: every pair of sets of the sizes in
    ascending (A, B) mask order, each product taken as op[A][:, B], the bound
    from the least order of a non-identity element."""
    g = build_group(spec)
    op, n = g.op, g.order

    def order(x):
        y, m = x, 1
        while y != g.identity:
            y, m = op[y, x], m + 1
        return m

    p = min((order(x) for x in range(n) if x != g.identity), default=math.inf)
    bound = int(min(p, size_a + size_b - 1))

    def by_mask(size):
        return sorted(map(list, combinations(range(n), size)),
                      key=lambda c: sum(1 << x for x in c))

    b_sets, pairs = by_mask(size_b), []
    for a in by_mask(size_a):
        rows = op[a]
        pairs.extend({"a": a, "b": b} for b in b_sets if len(set(rows[:, b].flat)) == bound)
        if limit is not None and len(pairs) >= limit:
            del pairs[limit:]
            break
    return {"schema": "sumsetlab.extremal/1", "group": g.label, "group_order": n,
            "size_a": size_a, "size_b": size_b, "bound": bound, "count": len(pairs),
            "pairs": pairs}


@pytest.mark.parametrize("spec, size_a, size_b, limit", [
    ("cyclic:7", 2, 3, None), ("cyclic:7", 3, 3, None), ("dihedral:4", 2, 2, None),
    ("dihedral:4", 3, 3, None),                     # no pair meets the bound 2
    ("heisenberg:3", 2, 2, None), ("heisenberg:3", 3, 1, 1000),
    ("cyclic:67", 2, 1, 300), ("cyclic:63", 2, 2, 2000),   # above order 62
])
def test_extremal_json_matches_a_brute_force_report(spec, size_a, size_b, limit):
    args = ["extremal", "--group", spec, "--size-a", str(size_a), "--size-b", str(size_b)]
    result = run_cli(*args, *(["--limit", str(limit)] if limit else []), "--json")
    assert result.exit_code == 0
    want = _naive_extremal_payload(spec, size_a, size_b, limit)
    assert result.output == json.dumps(want, indent=2) + "\n"
    assert (want["count"] == 0) == (spec == "dihedral:4" and size_a == 3)


_REPEAT = np.repeat


def _short_repeat(*args, **kwargs):
    # the lister's levels are built by np.repeat: a side that got past the
    # refusal fails here, long before its listing takes much memory
    out = _REPEAT(*args, **kwargs)
    assert len(out) <= 1 << 20, "a side over the listing limit reached the listing"
    return out


@pytest.mark.parametrize("sizes, size", [(("7", "30"), 7), (("30", "23"), 23)])
def test_extremal_refuses_a_side_too_large_to_list(monkeypatch, sizes, size):
    # 2035800 pairs is under EXTREMAL_SEARCH_CAP, but C(30, 7) = C(30, 23)
    # sets on one side exceed what a side may list: the lister refuses them
    monkeypatch.setattr(engine.np, "repeat", _short_repeat)
    result = run_cli("extremal", "--group", "cyclic:30",
                    "--size-a", sizes[0], "--size-b", sizes[1])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr == (f"error: 2035800 sets of size {size} to {size} of 30 "
                             "elements exceed the listing limit 2^20\n")


def test_extremal_refuses_a_limit_below_1():
    result = run_cli("extremal", "--group", "cyclic:5", "--size-a", "1", "--size-b", "1",
                     "--limit", "0")
    assert (result.exit_code, result.stdout) == (2, "")
    assert result.stderr == "error: limit must be at least 1, got 0\n"


def test_validate_command_exit_codes(tmp_path):
    good = run_cli("validate", "--group", "quaternion")
    assert good.exit_code == 0
    assert "all group axioms hold" in good.output

    bad_table = tmp_path / "bad.cay"
    bad_table.write_text("2\n0 1\n1 1\n")
    result = run_cli("validate", "--group", f"table:{bad_table}")
    assert result.exit_code == 2


def test_usage_errors_exit_2(tmp_path):
    assert run_cli("verify", "--group", "nonsense:1").exit_code == 2
    assert run_cli("verify", "--group", "cyclic:25").exit_code == 2
    assert run_cli("verify", "--group", "cyclic:5",
                  "--mode", "sampled").exit_code == 2
    assert run_cli("verify", "--group", "cyclic:5",
                  "--mode", "capped").exit_code == 2
    missing = tmp_path / "missing.cay"
    assert run_cli("verify", "--group", f"table:{missing}").exit_code == 2
    assert run_cli("trace", "--group", "heisenberg:3",
                  "--set-a", "0,1,3", "--set-b", "0,1").exit_code == 2
    assert run_cli("trace", "--group", "cyclic:5",
                  "--set-a", "zero", "--set-b", "0").exit_code == 2


# main reads a plain argv off the declared flags and hands every other one to
# the top-level parser; that parser's parse of the same argv is the oracle
_DISPATCH_CORPUS = [
    ("verify", "--group", "cyclic:5", "--mode", "capped", "--max-a", "2", "--json"),
    ("verify", "--group", "cyclic:5", "--mode", "sampled", "--seed", "3", "--count", "9",
     "--fixed-sizes", "2,2", "--workers", "4"),
    ("decompose", "--group", "quaternion", "--kernel", "6", "--rep-policy", "explicit:0,4"),
    ("extremal", "--group", "cyclic:5", "--size-a", "2", "--size-b", "2", "--limit", "3"),
    ("trace", "--group", "quaternion", "--set-a", "1", "--set-b", "2", "--json"),
    ("validate", "--group", "cyclic:5", "--out", "{tmp}/report.txt"),
    ("validate", "--json", "--group", "dihedral:4", "--out={tmp}/report.json"),
    ("verify", "--group", "cyclic:5", "--seed", "1", "--seed", "2"),  # the last one wins
    ("validate", "--group", "cyclic:5", "--json", "--json"),
    ("verify", "--group", "cyclic:5", "--workers", "-3"),           # argparse reads it
    ("trace", "--group", "cyclic:5", "--set-a", "-", "--set-b", "1"),
    ("trace", "--group", "cyclic:5", "--set-a", "", "--set-b", "1"),
    ("extremal", "--group", "cyclic:5", "--size-a", "2", "--size-b"),  # no value
    ("validate", "--group", "--json"),
    ("verify", "--group", "cyclic:5", "--workers", "4.0"),          # a bad int
    ("verify", "--group", "cyclic:5", "--theorem", "plain"),        # a bad choice
    ("extremal", "--group", "cyclic:5", "--size-a", "2"),           # no --size-b
    ("trace", "--set-a", "1", "--set-b", "2"),                      # no --group
    ("trace", "--group", "quaternion", "--set-a", "1", "--set-b", "2", "--bogus"),
    ("trace", "--group", "quaternion", "--set-a", "1", "--bogus=1", "--set-b", "2"),
    ("validate", "--group", "cyclic:5", "extra"),                    # a leftover positional
    ("validate", "--group", "cyclic:5", "--json", "a", "b"),
    ("trace", "--group", "cyclic:5", "--set-a", "--", "0", "--set-b", "1"),
    ("trace", "--group", "cyclic:5", "--set-a", "0", "--set-b", "1", "--", "2"),
    ("validate", "--", "--group", "cyclic:5"),
    ("trace", "--group", "cyclic:5", "--set-a=-0,1", "--set-b", "1"),
    ("trace", "--group", "cyclic:5", "--set-a", "-0,1", "--set-b", "1"),   # read as a flag
    ("verify", "--group", "cyclic:5", "--mode", "every"),
    ("extremal", "--group", "cyclic:5", "--size-a", "two", "--size-b", "2"),
    ("verify", "--group", "cyclic:5", "--max", "2"),                 # no abbreviated flag
    ("-h",),
    ("--help", "verify"),
    ("trace", "-h"),
    ("decompose", "--group", "quaternion", "--help"),
    (),
    ("bogus", "--group", "cyclic:5"),
    ("Validate", "--group", "cyclic:5"),
    ("--json", "validate", "--group", "cyclic:5"),
]


@pytest.fixture
def spied_commands(monkeypatch):
    """Every command's ``run`` and ``text`` replaced by spies, and
    ``cached_group`` by a recorder that builds nothing; returns the list of
    what they were given: a spec, then (the spy run, its options)."""
    seen = []

    def spy_for():
        def spy(g, **options):
            seen.append((spy, options))
            return {"spy": True}, 0
        return spy

    for sub in cli._COMMANDS.choices.values():
        monkeypatch.setitem(sub._defaults, "run", spy_for())
        monkeypatch.setitem(sub._defaults, "text", lambda payload, seconds: "text\n")
    monkeypatch.setattr(cli, "cached_group", seen.append)
    return seen


def _main_agrees_with_the_parser(argv, seen) -> None:
    """``main(argv)`` exits, prints and writes as ``_PARSER.parse_args(argv)``
    does, or runs the command it names with the options it returns."""
    seen.clear()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            expected = vars(cli._PARSER.parse_args(argv))
        except SystemExit as exc:
            result = run_cli(*argv)
            assert (result.exit_code, result.stdout, result.stderr) == (
                exc.code, out.getvalue(), err.getvalue())
            return
    expected.pop("text")
    result = run_cli(*argv)
    as_json, out_path = expected.pop("as_json"), expected.pop("out_path")
    assert (result.exit_code, result.stderr) == (0, "")
    assert seen == [expected.pop("spec"), (expected.pop("run"), expected)]
    report = dumps_stable({"spy": True}) if as_json else "text\n"
    if not out_path:
        assert result.stdout == report
    else:
        assert result.stdout == "" and Path(out_path).read_text() == report


@pytest.mark.parametrize("argv", _DISPATCH_CORPUS, ids=lambda argv: " ".join(argv) or "none")
def test_main_parses_every_argv_as_the_top_level_parser_does(spied_commands, tmp_path, argv):
    _main_agrees_with_the_parser([arg.replace("{tmp}", str(tmp_path)) for arg in argv],
                                 spied_commands)


_ODD_WORDS = ("", "-", "--", "-3", "-x", "-h", "--json", "--group", "--group=cyclic:5",
              "a=b", "x=-1", "cyclic:5", "1,2", "--bogus", "--max")


def _values_of(action):
    """Values that ``action``'s type and choices take."""
    if action.choices is not None:
        return st.sampled_from(action.choices)
    if action.type is int:
        return st.integers(-9, 99).map(str)
    return st.sampled_from(["cyclic:5", "1,2", "0", "2,2", "lowest_index"])


@st.composite
def _argvs_of_declared_flags(draw):
    """A command and its required flags, each optional one in a third of
    cases, in any order, each value mostly of the flag's type or choices,
    else an odd word or a value of another flag; then up to two edits among
    a flag dropped, a flag repeated, a value dropped and a stray word put
    anywhere."""
    command = draw(st.sampled_from(sorted(cli._COMMANDS.choices)))
    actions = cli._COMMANDS.choices[command]._actions[1:]        # not -h
    odd = st.sampled_from(_ODD_WORDS) | st.sampled_from(actions).flatmap(_values_of)

    def flag(action):
        if action.nargs == 0:
            return [action.option_strings[0]]
        return [action.option_strings[0],
                draw(odd if draw(st.integers(0, 5)) == 0 else _values_of(action))]

    flags = [flag(a) for a in actions if a.required or draw(st.integers(0, 2)) == 0]
    for _ in range(draw(st.integers(0, 2))):
        edit = draw(st.sampled_from(["drop", "repeat", "no value", "stray"]))
        at = draw(st.integers(0, len(flags)))
        if edit == "stray":
            flags.insert(at, [draw(st.sampled_from(_ODD_WORDS))])
        elif edit == "repeat":
            flags.insert(at, flag(draw(st.sampled_from(actions))))
        elif flags:
            del flags[at % len(flags)][0 if edit == "drop" else 1:]
    return [command, *(word for words in draw(st.permutations(flags)) for word in words)]


def test_main_parses_declared_flags_in_any_form_as_the_top_level_parser_does(
        spied_commands, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)     # where an --out value writes its report
    read = set()

    @settings(max_examples=400, deadline=None)
    @given(argv=_argvs_of_declared_flags())
    def check(argv):
        plain = cli._read_plain(argv) is not None
        read.add(plain)
        event("read off the flags" if plain else "parsed by argparse")
        _main_agrees_with_the_parser(argv, spied_commands)

    check()
    assert read == {True, False}


# one plain argv of each shape that the benchmark workloads run
_PLAIN_WORKLOAD_ARGVS = [
    ("verify", "--group", "cyclic:5", "--theorem", "cd", "--exhaustive-limit", "5",
     "--json", "--workers", "2"),
    ("verify", "--group", "heisenberg:3", "--theorem", "eh", "--mode", "sampled",
     "--seed", "7", "--count", "50", "--fixed-sizes", "3,3", "--json"),
    ("verify", "--group", "dihedral:4", "--theorem", "cd", "--mode", "capped",
     "--max-a", "1", "--max-b", "2", "--json"),
    ("extremal", "--group", "cyclic:7", "--size-a", "2", "--size-b", "3", "--json"),
    ("trace", "--group", "quaternion", "--set-a", "1,2", "--set-b", "3", "--json"),
    ("decompose", "--group", "heisenberg:3", "--json"),
    ("validate", "--group", "table:{tmp}/quaternion.cay", "--json"),
]


@pytest.mark.parametrize("argv", _PLAIN_WORKLOAD_ARGVS, ids=" ".join)
def test_a_plain_argv_never_reaches_argparse(monkeypatch, tmp_path, argv):
    calls = []
    for name in ("parse_args", "parse_known_args"):
        def counted(self, *args, _name=name, _real=getattr(argparse.ArgumentParser, name),
                    **kwargs):
            calls.append(_name)
            return _real(self, *args, **kwargs)
        monkeypatch.setattr(argparse.ArgumentParser, name, counted)
    (tmp_path / "quaternion.cay").write_bytes(_table_bytes(build_group("quaternion").op.tolist()))
    result = run_cli(*(arg.replace("{tmp}", str(tmp_path)) for arg in argv))
    assert (result.exit_code, result.stderr, calls) == (0, "", [])
    assert json.loads(result.stdout)["group"]


@pytest.mark.parametrize("policy, message", [
    ("explicit:0,x", "invalid literal for int() with base 10: 'x'"),
    ("explicit:", "invalid literal for int() with base 10: ''"),
    ("explicit:0,4,5", "expected 2 representatives, got 3"),
    ("explicit:0,-6", "representative -6 outside 0..7"),
    ("explicit:0,99", "representative 99 outside 0..7"),
    ("seeded_random:q", "invalid literal for int() with base 10: 'q'"),
    ("lowest", "unknown representative policy 'lowest'"),
])
def test_bad_rep_policies_exit_2(policy, message):
    result = run_cli("decompose", "--group", "quaternion",
                    "--kernel", "6", "--rep-policy", policy)
    assert result.exit_code == 2
    assert result.stderr == f"error: {message}\n"


# 32768, 65536 and 65537 would read -32768, 0 and 1 as int16
@pytest.mark.parametrize("entry", ["4294967296", "-4294967296000000000000",
                                   "32768", "65536", "65537"])
def test_table_entries_beyond_int32_exit_2(tmp_path, entry):
    path = tmp_path / "t.tbl"
    path.write_text(f"2\n0 1\n1 {entry}\n")
    result = run_cli("validate", "--group", f"table:{path}")
    assert result.exit_code == 2
    assert result.stderr == f"error: table file {path}: entry op(1,1) out of range\n"


@pytest.mark.parametrize("command, options", [
    ("validate", ()), ("trace", ("--set-a", "0", "--set-b", "1"))])
def test_table_files_that_are_not_text_exit_2(tmp_path, command, options):
    path = tmp_path / "t.tbl"
    path.write_bytes(b"\xff\xfe2\n0 1\n1 0\n")
    result = run_cli(command, "--group", f"table:{path}", *options)
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr.startswith(f"error: table file {path}: not ")
    assert result.stderr.count("\n") == 1


def _table_bytes(rows, header=None) -> bytes:
    return (f"{len(rows) if header is None else header}\n"
            + "".join(" ".join(map(str, r)) + "\n" for r in rows)).encode()


_GROUP_ROWS = st.sampled_from(["cyclic:1", "cyclic:3", "dihedral:3", "quaternion"]).map(
    lambda spec: build_group(spec).op.tolist())
_BIG_VALUES = st.sampled_from([2 ** 15, 2 ** 31, 2 ** 63]).flatmap(
    lambda v: st.sampled_from([v, -v]))
_ODD_BYTES = (lambda d: d.replace(b"\n", b"\r\n"), lambda d: d.replace(b" ", b"\t"),
              lambda d: b"\xef\xbb\xbf" + d, lambda d: d.replace(b"\n", b"\n\0", 1))


@st.composite
def _edited_tables(draw):
    rows = draw(_GROUP_ROWS)
    n = len(rows)
    rows[draw(st.integers(0, n - 1))][draw(st.integers(0, n - 1))] = draw(
        st.integers(-1, n) | _BIG_VALUES)
    return _table_bytes(rows)


@st.composite
def _misheaded_tables(draw):
    rows = draw(_GROUP_ROWS)
    return _table_bytes(rows, draw(st.integers(-1, len(rows) + 2).filter(
        lambda h: h != len(rows))))


# the bytes of a table file, or None for a directory in its place
TABLE_FILES = st.one_of(
    st.binary(max_size=48),
    _edited_tables(),
    _misheaded_tables(),
    st.tuples(_GROUP_ROWS.map(_table_bytes), st.sampled_from(_ODD_BYTES)).map(
        lambda t: t[1](t[0])),
    st.sampled_from([b"", None]),
)


def _reads_as_a_group(path) -> bool:
    """Whether the file's text, split and read by ``int``, is the order n and
    n rows of n entries in 0..n-1 that form a group, by brute force."""
    try:
        n, *entries = map(int, path.read_text().split())
    except ValueError:                   # so also UnicodeDecodeError
        return False
    if not (1 <= n <= groups.ORDER_CAP and len(entries) == n * n
            and all(0 <= v < n for v in entries)):
        return False
    op = [entries[i * n:(i + 1) * n] for i in range(n)]
    ids = [e for e in range(n) if all(op[e][x] == x == op[x][e] for x in range(n))]
    return (bool(ids)
            and all(any(op[x][y] == ids[0] == op[y][x] for y in range(n)) for x in range(n))
            and all(op[op[x][y]][z] == op[x][op[y][z]]
                    for x in range(n) for y in range(n) for z in range(n)))


def test_validate_exits_0_or_2_on_any_table_file(tmp_path, monkeypatch):
    seen = set()
    table_values = groups._table_values

    def spy(path):
        values = table_values(path)
        seen.add(type(values).__name__)
        event(f"_table_values returns a {type(values).__name__}")
        return values

    monkeypatch.setattr(groups, "_table_values", spy)

    @settings(max_examples=200, deadline=None)
    @given(data=TABLE_FILES)
    def check(data):
        path = tmp_path / "t.tbl"
        if data is None:
            path = tmp_path / "a-directory"
            path.mkdir(exist_ok=True)
        else:
            path.write_bytes(data)
        result = run_cli("validate", "--group", f"table:{path}")
        event(f"exit {result.exit_code}")
        assert result.exit_code in (0, 2), result
        assert (result.exit_code == 0) == (data is not None and _reads_as_a_group(path))
        if result.exit_code == 2:
            assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1

    check()
    assert seen == {"ndarray", "list"}    # the numpy parse and the text fallback


def test_sampled_runs_are_byte_identical_across_workers():
    args = ("verify", "--group", "frobenius:7:3:2", "--mode", "sampled",
            "--seed", "42", "--count", "2000", "--json")
    one = run_cli(*args, "--workers", "1")
    three = run_cli(*args, "--workers", "3")
    again = run_cli(*args, "--workers", "1")
    assert one.exit_code == three.exit_code == again.exit_code == 0
    assert one.output == three.output == again.output


def test_exhaustive_json_is_byte_identical_across_runs():
    args = ("verify", "--group", "cyclic:7", "--json")
    assert run_cli(*args).output == run_cli(*args).output


def test_out_flag_writes_the_report_to_a_file(tmp_path):
    out = tmp_path / "report.json"
    result = run_cli("verify", "--group", "cyclic:5", "--json",
                    "--out", str(out))
    assert result.exit_code == 0
    payload = json.loads(out.read_text())
    assert payload["group"] == "cyclic:5"


def test_workers_flag_is_accepted_and_ignored():
    args = ("verify", "--group", "cyclic:7", "--theorem", "eh", "--json")
    plain = run_cli(*args)
    assert plain.exit_code == 0
    for workers in ("0", "-3", "4"):
        result = run_cli(*args, "--workers", workers)
        assert (result.exit_code, result.output) == (0, plain.output)
    result = run_cli(*args, "--workers", "x")
    assert result.exit_code == 2
    assert "argument --workers: invalid int value: 'x'" in result.stderr


IMPORT_CLI = """import sys
before = set(sys.modules)
import sumsetlab.cli
print(sorted({name.partition(".")[0] for name in set(sys.modules) - before}
             - set(sys.stdlib_module_names)))"""


def test_importing_the_cli_loads_only_numpy_beside_the_standard_library():
    src = Path(cli.__file__).parents[1]
    done = subprocess.run([sys.executable, "-c", IMPORT_CLI], capture_output=True,
                          env={**os.environ, "PYTHONPATH": str(src)}, text=True, check=True)
    assert done.stdout == "['numpy', 'sumsetlab']\n"


def test_every_scan_runs_on_the_calling_thread(monkeypatch):
    # With --workers 4 and a budget that cuts every run into several
    # batches, no thread may start, and each report is the one of the plain
    # command under the default budget.
    commands = [
        ("verify", "--group", "cyclic:7", "--json"),
        ("verify", "--group", "dihedral:5", "--theorem", "eh", "--mode", "capped",
         "--max-a", "3", "--max-b", "3", "--json"),
        ("verify", "--group", "frobenius:7:3:2", "--mode", "sampled", "--seed", "3",
         "--count", "500", "--fixed-sizes", "2,3", "--json"),
        ("extremal", "--group", "cyclic:7", "--size-a", "2", "--size-b", "3", "--json"),
    ]
    plain = [run_cli(*argv).output for argv in commands]

    def refuse(thread):
        raise AssertionError(f"a scan started thread {thread.name}")

    batches = []

    def counted(batch):
        def run(*args):
            batches.append(batch.__name__)
            return batch(*args)
        return run

    for name in ("_grid_batch", "_sampled_batch"):
        monkeypatch.setattr(engine, name, counted(getattr(engine, name)))
    monkeypatch.setattr(threading.Thread, "start", refuse)
    monkeypatch.setattr(engine, "_BATCH_BYTES", 1 << 10)
    for argv, want in zip(commands, plain):
        batches.clear()
        flag = ("--workers", "4") if argv[0] == "verify" else ()
        result = run_cli(*argv, *flag)
        assert (result.exit_code, result.output) == (0, want)
        assert len(batches) > 1, argv


def test_violations_drive_exit_code_1(monkeypatch):
    # a genuine failing BoundCheck is not reachable through real verification,
    # so inject a report double carrying one violation
    fake_check = BoundCheck(
        group="cyclic:5", a=SubsetMask.from_elements(5, (0,)),
        b=SubsetMask.from_elements(5, (1,)), a_size=1, b_size=1,
        product_size=0, p_g=5, bound=1, holds=False,
    )
    fake_report = VerificationReport(
        group="cyclic:5", group_order=5, theorem="cd",
        mode={"kind": "exhaustive"}, p_g=5, pairs_checked=1,
        violations=(fake_check,), extremal_count=0,
    )
    monkeypatch.setattr(cli, "verify_exhaustive", lambda *a, **k: fake_report)
    result = run_cli("verify", "--group", "cyclic:5", "--json")
    assert result.exit_code == 1
    payload = json.loads(result.output)
    assert payload["violations"][0]["holds"] is False

    text = run_cli("verify", "--group", "cyclic:5")
    assert text.exit_code == 1
    assert "VIOLATION" in text.output


def test_replay_invariant_failure_exits_3_and_names_the_check(monkeypatch):
    # |A1 * B_j| = 2 meets its bound exactly for this pair, so a product count
    # one short must fail the block check, not pass as a weaker bound
    real = replay._product_size
    monkeypatch.setattr(replay, "_product_size", lambda op, xs, ys: real(op, xs, ys) - 1)
    result = run_cli("trace", "--group", "heisenberg:3",
                    "--set-a", "0,1", "--set-b", "0,3", "--json")
    assert result.exit_code == 3
    assert result.stdout == ""
    assert result.stderr.count("\n") == 1
    assert "ReplayInvariantError" in result.stderr
    assert "heisenberg:3: block (0,0) product size 1 < 2" in result.stderr
    assert result.stderr.endswith("at recursion depth 1\n")


def test_a_large_trace_on_the_abelian_entry_meets_cauchy_davenport_exactly():
    # two intervals of Z/p: |A + B| = |A| + |B| - 1, the equality case
    interval = ",".join(map(str, range(500)))
    result = run_cli("trace", "--group", "cyclic:1021",
                    "--set-a", interval, "--set-b", interval, "--json")
    assert result.exit_code == 0
    payload = json.loads(result.stdout)
    assert payload["kind"] == "base"
    assert payload["base"]["product_size"] == 999 == payload["target"]


def test_unexpected_exceptions_exit_3(monkeypatch):
    def broken(*args, **kwargs):
        raise ArithmeticError("orbit count for |A| = 2 is not whole")

    monkeypatch.setattr(cli, "verify_exhaustive", broken)
    result = run_cli("verify", "--group", "cyclic:5", "--json")
    assert result.exit_code == 3
    assert result.stderr == ("internal error: ArithmeticError: "
                             "orbit count for |A| = 2 is not whole\n")


# each command, and the library call it makes through cli's namespace
_LIBRARY_CALLS = [
    ("verify_exhaustive", ("verify", "--group", "cyclic:5")),
    ("build_factor_system", ("decompose", "--group", "quaternion")),
    ("find_extremal", ("extremal", "--group", "cyclic:5", "--size-a", "2", "--size-b", "2")),
    ("replay_solvable_proof", ("trace", "--group", "cyclic:5", "--set-a", "0", "--set-b", "1")),
    ("validate_group", ("validate", "--group", "cyclic:5")),
]


@pytest.mark.parametrize("call, argv", _LIBRARY_CALLS)
def test_a_plain_value_error_is_an_internal_error(monkeypatch, call, argv):
    def broken(*args, **kwargs):
        raise ValueError("operands could not be broadcast together")

    monkeypatch.setattr(cli, call, broken)
    result = run_cli(*argv)
    assert result.exit_code == 3
    assert result.stdout == ""
    assert result.stderr == ("internal error: ValueError: "
                             "operands could not be broadcast together\n")


@pytest.mark.parametrize("call, argv", _LIBRARY_CALLS)
def test_an_input_error_exits_2_on_one_line(monkeypatch, call, argv):
    def refused(*args, **kwargs):
        raise groups.InputError("x")

    monkeypatch.setattr(cli, call, refused)
    result = run_cli(*argv)
    assert (result.exit_code, result.stdout, result.stderr) == (2, "", "error: x\n")


def test_json_reports_carry_no_wall_time():
    result = run_cli("verify", "--group", "cyclic:5", "--json")
    payload = json.loads(result.output)
    assert "wall_time" not in payload
    assert "wall time" not in result.output.lower()


@pytest.mark.parametrize("caps", [("--max-a", "0"), ("--max-a", "-3"),
                                  ("--max-a", "2", "--max-b", "0"),
                                  ("--sum-cap", "1")])
def test_degenerate_caps_exit_2(caps):
    result = run_cli("verify", "--group", "cyclic:5", "--mode", "capped",
                    *caps)
    assert result.exit_code == 2
    assert "must be at least" in result.output


def test_non_integer_group_parameter_exits_2():
    result = run_cli("verify", "--group", "cyclic:abc")
    assert result.exit_code == 2
    assert "must be integers" in result.output


def test_unwritable_out_path_exits_2(tmp_path):
    out = tmp_path / "missing-dir" / "x.json"
    result = run_cli("validate", "--group", "cyclic:5", "--json",
                    "--out", str(out))
    assert result.exit_code == 2
    assert "cannot write" in result.output
    assert not out.exists()


def test_oversized_capped_scan_exits_2_before_listing(monkeypatch):
    # 2^27 - 1 sets A on heisenberg:3: refused from the count, not listed
    monkeypatch.setattr(engine.np, "repeat", _short_repeat)
    start = time.perf_counter()
    result = run_cli("verify", "--group", "heisenberg:3", "--mode", "capped",
                    "--max-a", "27", "--max-b", "1")
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr == ("error: 134217727 sets of size 1 to 27 of 27 elements "
                             "exceed the listing limit 2^20\n")
    assert time.perf_counter() - start < 5


def _no_scan(*args, **kwargs):
    raise AssertionError("an order above the exhaustive limit reached the scan")


@pytest.mark.parametrize("limit", ["21", "25"])
def test_exhaustive_limit_above_the_ceiling_names_the_ceiling(monkeypatch, limit):
    # an --exhaustive-limit above 20 does not lift the ceiling: cyclic:21 is
    # refused with the limit that applies, before any scan is set up
    monkeypatch.setattr(engine, "_Scan", _no_scan)
    result = run_cli("verify", "--group", "cyclic:21", "--exhaustive-limit", limit)
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr == ("error: order 21 exceeds the exhaustive limit 20; "
                             "use caps or sampling\n")


SMALL_SPECS = {spec: parse_group_spec(spec).order for spec in CORPUS_SPECS
               if parse_group_spec(spec).order <= 12}
SMALL_SPECS["cyclic:x"] = None    # malformed
_maybe_int = st.none() | st.integers(-2, 14)


def _closed_form_pairs(args, n):
    """The pair count a clean verify run must report."""
    if args["--mode"] == "exhaustive":
        return (2 ** n - 1) ** 2
    if args["--mode"] == "sampled":
        return args["--count"]
    top = {k: n if args[k] is None else min(n, args[k]) for k in ("--max-a", "--max-b")}
    cap = math.inf if args["--sum-cap"] is None else args["--sum-cap"]
    return sum(math.comb(n, a) * math.comb(n, b)
               for a in range(1, top["--max-a"] + 1) for b in range(1, top["--max-b"] + 1)
               if a + b <= cap)


@settings(max_examples=150, deadline=None)
@given(spec=st.sampled_from(sorted(SMALL_SPECS)),
       theorem=st.sampled_from(["cd", "eh"]),
       mode=st.sampled_from(["exhaustive", "capped", "sampled"]),
       max_a=_maybe_int, max_b=_maybe_int, sum_cap=_maybe_int,
       seed=st.none() | st.integers(-3, 2 ** 64),
       count=st.none() | st.integers(-2, 300),
       fixed=st.none() | st.tuples(st.integers(-1, 13), st.integers(-1, 13))
       | st.just("3"),
       limit=st.sampled_from([None, 6, 12]),
       workers=st.sampled_from([1, 2]))
def test_verify_exit_codes_hold_for_any_arguments(spec, theorem, mode, max_a, max_b,
                                                  sum_cap, seed, count, fixed, limit,
                                                  workers):
    args = {"--group": spec, "--theorem": theorem, "--mode": mode, "--max-a": max_a,
            "--max-b": max_b, "--sum-cap": sum_cap, "--seed": seed, "--count": count,
            "--fixed-sizes": fixed if not isinstance(fixed, tuple) else "%d,%d" % fixed,
            "--exhaustive-limit": limit, "--workers": workers}
    argv = ["verify", "--json"]
    for flag, value in args.items():
        if value is not None:
            argv += [flag, str(value)]
    result = run_cli(*argv)
    assert result.exception is None or isinstance(result.exception, SystemExit), \
        result.exception
    assert result.exit_code in (0, 1, 2)
    event(f"{mode} exit {result.exit_code}")
    if result.exit_code == 2:
        return
    payload = json.loads(result.stdout)
    assert (result.exit_code == 1) == bool(payload["violations"])
    if result.exit_code == 0:
        assert payload["pairs_checked"] == _closed_form_pairs(args, SMALL_SPECS[spec])


_ELEMENTS = st.sampled_from(["zero", "", "-0,1"]) | st.lists(
    st.integers(-1, 6), max_size=3).map(lambda xs: ",".join(map(str, xs)))


@settings(max_examples=150, deadline=None)
@given(command=st.sampled_from(["verify", "decompose", "extremal", "trace", "validate"]),
       spec=st.sampled_from(sorted(SMALL_SPECS)),
       kernel=st.none() | _ELEMENTS,
       policy=st.none() | st.sampled_from(["lowest_index", "seeded_random:3",
                                           "seeded_random:q", "explicit:0,1", "explicit:",
                                           "lowest"]),
       size_a=st.integers(-1, 6), size_b=st.integers(-1, 6), limit=_maybe_int,
       set_a=_ELEMENTS, set_b=_ELEMENTS,
       extra=st.sampled_from([(), ("--json",)])
       | st.sampled_from([("--ex", "5"), ("--json", "--ex=5"), ("--grou", "cyclic:5"),
                          ("--json", "--js"), ("--out", str(Path(__file__).parent))]))
def test_every_command_exits_0_1_or_2_for_any_arguments(command, spec, kernel, policy,
                                                        size_a, size_b, limit, set_a,
                                                        set_b, extra):
    # element lists and sizes may begin with "-", --out may name a directory,
    # and an abbreviated flag is refused
    options = {"decompose": {"--kernel": kernel, "--rep-policy": policy},
               "extremal": {"--size-a": size_a, "--size-b": size_b, "--limit": limit},
               "trace": {"--set-a": set_a, "--set-b": set_b}}.get(command, {})
    argv = [command, "--group", spec]
    for flag, value in options.items():
        if value is not None:
            argv += [flag, str(value)]
    result = run_cli(*argv, *extra)
    assert result.exception is None or isinstance(result.exception, SystemExit), \
        result.exception
    assert result.exit_code in (0, 1, 2)
    event(f"{command} exit {result.exit_code}")
    if result.exit_code == 2:
        assert "error: " in result.stderr and result.stderr.endswith("\n")
    elif "--json" in extra:
        json.loads(result.stdout)


def _masked(text: str) -> str:
    return re.sub(r"^wall time .*$", "wall time", text, flags=re.MULTILINE)


@st.composite
def _valid_commands(draw):
    """A command line that runs to exit 0: every option in its valid range."""
    command = draw(st.sampled_from(["verify", "decompose", "extremal", "trace", "validate"]))
    spec = draw(st.sampled_from([s for s, n in sorted(SMALL_SPECS.items())
                                 if n and (n > 1 or command != "decompose")]))
    n, argv = SMALL_SPECS[spec], [command, "--group", spec]
    sizes = st.integers(1, min(n, 3))
    if command == "verify":
        argv += ["--theorem", draw(st.sampled_from(["cd", "eh"]))]
        mode = draw(st.sampled_from(["exhaustive", "capped", "sampled"] if n <= 8
                                    else ["capped", "sampled"]))
        if mode == "capped":
            argv += ["--mode", mode, "--max-a", str(draw(sizes)), "--max-b", str(draw(sizes))]
        elif mode == "sampled":
            argv += ["--mode", mode, "--seed", str(draw(st.integers(0, 2 ** 64 - 1))),
                     "--count", str(draw(st.integers(1, 300)))]
            if draw(st.booleans()):
                argv += ["--fixed-sizes", f"{draw(sizes)},{draw(sizes)}"]
    elif command == "decompose":
        argv += ["--rep-policy", draw(st.sampled_from(["lowest_index", "seeded_random:3",
                                                       "seeded_random:8"]))]
    elif command == "extremal":
        argv += ["--size-a", str(draw(sizes)), "--size-b", str(draw(sizes))]
        argv += draw(st.sampled_from([[], ["--limit", "1"], ["--limit", "12"]]))
    elif command == "trace":
        p = int(min(minimal_torsion(cached_group(spec)), n))
        sa = draw(st.integers(1, min(n, 3, p)))
        sb = draw(st.integers(1, min(n, 3, p + 1 - sa)))
        for flag, size in (("--set-a", sa), ("--set-b", sb)):
            elements = draw(st.lists(st.integers(0, n - 1), min_size=size, max_size=size,
                                     unique=True))
            argv += [flag, ",".join(map(str, elements))]
    return argv


@settings(max_examples=80, deadline=None)
@given(argv=_valid_commands())
def test_text_reports_are_rendered_from_the_json_payload(argv):
    # each command's text renderer reads only what the JSON report holds;
    # the wall time, measured around the command, is the one line it adds
    text, report = run_cli(*argv), run_cli(*argv, "--json")
    event(argv[0])
    assert text.exit_code == report.exit_code == 0, (text, report)
    render = cli._COMMANDS.choices[argv[0]].get_default("text")
    assert _masked(text.stdout) == _masked(render(json.loads(report.stdout), 0.0))
    assert ("wall time" in text.stdout) == (argv[0] == "verify")


class _FullSink(io.StringIO):
    """A text sink with room for ``room`` characters that fails once, as a
    full disk does, when it holds more: at ``write``, or at ``flush`` or
    ``close`` as a buffered stream does."""

    def __init__(self, room: int, at: str):
        super().__init__()
        self.room, self.at = room, at

    def write(self, text: str) -> int:
        taken = super().write(text)
        if self.at == "write":
            self.check()
        return taken

    def flush(self):
        self.check()

    def close(self):
        self.check()

    def check(self):
        if self.tell() > self.room:
            self.room = math.inf
            raise OSError(errno.ENOSPC, "No space left on device")


@pytest.mark.parametrize("room", [0, 1, 100])
@pytest.mark.parametrize("at", ["write", "flush"])
@pytest.mark.parametrize("as_json", [True, False])
@pytest.mark.parametrize("to_file", [True, False])
def test_a_failed_write_exits_2_on_one_line(monkeypatch, tmp_path, room, at, as_json,
                                            to_file):
    # stdout used to exit 3 where --out exited 2
    sink = _FullSink(room, at)
    argv = ["verify", "--group", "cyclic:7"] + ["--json"] * as_json
    err = io.StringIO()
    if to_file:
        monkeypatch.setattr(cli, "open", lambda *args, **kwargs: sink, raising=False)
        argv += ["--out", str(tmp_path / "report")]
        name = tmp_path / "report"
    else:
        monkeypatch.setattr(sys, "stdout", sink)
        name = "stdout"
    with contextlib.redirect_stderr(err), pytest.raises(SystemExit) as exit:
        cli.main(argv)
    assert exit.value.code == 2
    assert err.getvalue() == f"error: cannot write {name}: No space left on device\n"


def test_a_closed_stdout_exits_2(monkeypatch):
    monkeypatch.setattr(sys, "stdout", None)
    err = io.StringIO()
    with contextlib.redirect_stderr(err), pytest.raises(SystemExit) as exit:
        cli.main(["validate", "--group", "cyclic:5"])
    assert (exit.value.code, err.getvalue()) == (2, "error: cannot write stdout: it is closed\n")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("argv", [
    ["verify", "--group", "cyclic:5", "--json"],     # fails at flush
    ["verify", "--group", "cyclic:5"],
    ["extremal", "--group", "cyclic:7", "--size-a", "3", "--size-b", "3", "--json"],  # 17 KB
])
def test_a_full_stdout_exits_2_on_one_line_in_a_real_process(argv):
    # With stdout block-buffered, the bytes a failed write leaves in its
    # buffer must not fail again when the interpreter exits, which would
    # print a second error and exit 120.
    env = {name: value for name, value in os.environ.items() if name != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(cli.__file__).parents[1])
    with open("/dev/full", "w") as full:
        done = subprocess.run([sys.executable, "-m", "sumsetlab.cli", *argv], stdout=full,
                              stderr=subprocess.PIPE, text=True, env=env)
    assert (done.returncode, done.stderr) == (
        2, "error: cannot write stdout: No space left on device\n")


CHECK_SESSION = Path(__file__).parents[1] / "scripts" / "check_session.py"


def test_check_session_refuses_a_missing_program_before_any_command(monkeypatch, capsys):
    missing = "sumsetlab-not-installed"
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    done = subprocess.run([sys.executable, str(CHECK_SESSION), missing],
                          capture_output=True, text=True, env=env)
    assert (done.returncode, done.stdout) == (2, "")
    assert len(done.stderr.splitlines()) == 1 and "Traceback" not in done.stderr
    assert missing in done.stderr and "python -m sumsetlab.cli" in done.stderr
    # in process, with every way of running a command made to fail
    spec = importlib.util.spec_from_file_location("check_session", CHECK_SESSION)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    monkeypatch.setattr(script, "cli_main", _no_command)
    monkeypatch.setattr(script, "one_shot", _no_command)
    monkeypatch.setattr(sys, "argv", [str(CHECK_SESSION), missing])
    assert script.main() == 2
    assert capsys.readouterr() == ("", done.stderr)


def _no_command(*args, **kwargs):
    raise AssertionError("a command ran before the program was looked up")
