"""Tests of the benchmark itself: generator, oracles, tracer and output.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import oracles  # noqa: E402
import workloads  # noqa: E402
from run import invoke, run_pass, traced_pass  # noqa: E402
from sumsetlab import build_group  # noqa: E402
from sumsetlab.cli import main as cli_main  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def tables():
    specs = {s for w in workloads.WORKLOADS for s in workloads.groups_used(w)}
    return {spec: build_group(spec).op for spec in specs}


def _argvs(workload, seed, tables, table_dir=Path("t")):
    return [c.argv for c in workloads.commands(workload, seed, table_dir, 2, tables)]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_per_seed(workload, tables):
    assert _argvs(workload, 7, tables) == _argvs(workload, 7, tables)


@pytest.mark.parametrize("workload", ["scan-sparse", "trace", "structure"])
def test_generator_depends_on_the_seed(workload, tables):
    assert _argvs(workload, 7, tables) != _argvs(workload, 8, tables)


def test_trace_pairs_stay_in_the_replay_regime(tables):
    torsion = {spec: p for spec, p, _ in workloads.TRACE_MIX}
    sizes = {}
    for cmd in workloads.commands("trace", 3, Path("t"), 2, tables):
        a, b = cmd.expect["a"], cmd.expect["b"]
        assert len(set(a)) == len(a) and len(set(b)) == len(b)
        assert 1 <= len(a) + len(b) - 1 <= torsion[cmd.expect["group"]]
        sizes.setdefault(cmd.expect["group"], set()).add((len(a), len(b)))
    # every admissible size pair is traced
    assert {g: len(s) for g, s in sizes.items()} == {
        spec: p * (p + 1) // 2 for spec, p, _ in workloads.TRACE_MIX}


def test_table_files_are_deterministic_and_move_the_identity(tables, tmp_path):
    for name in ("one", "two"):
        (tmp_path / name).mkdir()
        workloads.write_tables(5, tmp_path / name, tables)
    for path in (tmp_path / "one").iterdir():
        assert path.read_bytes() == (tmp_path / "two" / path.name).read_bytes()
        rows = path.read_text().split("\n")
        n = int(rows[0])
        op = np.array([r.split() for r in rows[1:n + 1]], dtype=np.int64)
        identity = [e for e in range(n) if (op[e] == np.arange(n)).all()]
        assert identity and identity[0] != 0


def test_closed_forms():
    assert [workloads.vosper_total(p) for p in (7, 11, 13)] == [9857, 1828531, 28718665]
    assert workloads.vosper_extremal(13, 3, 4) == 1014
    n = 6
    brute = sum(1 for a in range(1, 1 << n) for b in range(1, 1 << n)
                if a.bit_count() <= 2 and b.bit_count() <= 3
                and a.bit_count() + b.bit_count() <= 4)
    assert workloads.capped_pairs(n, 2, 3, sum_cap=4) == brute
    assert workloads.exhaustive_pairs(n) == sum(1 for a in range(1, 1 << n)
                                                for b in range(1, 1 << n))


def _command(argv, kind, **expect):
    return workloads.Command(argv=tuple(argv), kind=kind, key=" ".join(argv), expect=expect)


def _run(cmd):
    code, out, *_ = invoke(cli_main, cmd.argv)
    return code, out


def _cases():
    h3 = "heisenberg:3"
    return [
        (_command(["verify", "--group", "cyclic:7", "--exhaustive-limit", "7", "--json"],
                  "verify", pairs_checked=workloads.exhaustive_pairs(7),
                  extremal_count=workloads.vosper_total(7)),
         [("pairs_checked",), ("extremal_count",)], [("violations", [{"a": [0]}])]),
        (_command(["verify", "--group", h3, "--mode", "capped", "--max-a", "1",
                   "--max-b", "2", "--json"], "verify",
                  pairs_checked=workloads.capped_pairs(27, 1, 2)),
         [("pairs_checked",)], []),
        (_command(["extremal", "--group", "cyclic:7", "--size-a", "2", "--size-b", "3",
                   "--json"], "extremal", count=workloads.vosper_extremal(7, 2, 3)),
         [("count",)], [("pairs", [])]),
        (_command(["trace", "--group", h3, "--set-a", "1,5", "--set-b", "2,9", "--json"],
                  "trace", group=h3, a=[1, 5], b=[2, 9]),
         [("final_chain", "product_size"), ("a", 0)], []),
        (_command(["trace", "--group", "cyclic:25", "--set-a", "1,5", "--set-b", "2",
                   "--json"], "trace", group="cyclic:25", a=[1, 5], b=[2]),
         [("base", "product_size")], []),
        (_command(["decompose", "--group", h3, "--json"], "decompose", group=h3),
         [("pairs", 4, 0), ("representatives", 1)], [("pairs", [[0, 0]])]),
        (_command(["validate", "--group", h3, "--json"], "validate", order=27),
         [("group_order",)], [("violations", ["associativity: made up"])]),
    ]


def _bumped(report, path):
    bad = copy.deepcopy(report)
    node = bad
    for step in path[:-1]:
        node = node[step]
    node[path[-1]] += 1
    return bad


@pytest.mark.parametrize("cmd,bumps,replacements", _cases(),
                         ids=lambda c: c.key if isinstance(c, workloads.Command) else "")
def test_every_oracle_rejects_a_wrong_value(cmd, bumps, replacements, tables):
    tables = {**tables, "heisenberg:3": build_group("heisenberg:3").op}
    code, out = _run(cmd)
    pins = {cmd.key: oracles.report_sha256(out)}
    oracles.check(cmd, code, out, tables, pins)
    report = json.loads(out)
    wrong = [json.dumps(_bumped(report, path)) for path in bumps]
    wrong += [json.dumps({**report, key: value}) for key, value in replacements]
    for text in wrong:
        with pytest.raises(oracles.OracleError):
            oracles.check(cmd, code, text, tables, {})
    with pytest.raises(oracles.OracleError, match="exit code"):
        oracles.check(cmd, 1, out, tables, pins)
    with pytest.raises(oracles.OracleError, match="SHA-256"):
        oracles.check(cmd, code, out.replace("\n", " \n", 1), tables, pins)
    with pytest.raises(oracles.OracleError, match="JSON"):
        oracles.check(cmd, code, out[:-3], tables, {})


def test_layer_self_times_add_up_to_the_traced_pass(tables):
    cmds = workloads.commands("trace", 1, Path("t"), 1, tables)[:40]
    tracer = Tracer()
    wall, results = traced_pass(cli_main, cmds, tracer)
    assert all(r[0] == 0 for r in results)
    total = sum(tracer.self_s[layer] for layer in LAYERS + ("bench",))
    assert total == pytest.approx(tracer.incl_s["bench.pass"], rel=1e-9)
    assert wall <= tracer.incl_s["bench.pass"]
    assert tracer.calls["replay.replay_solvable_proof"] == 40
    assert {s[5] for s in tracer.spans} >= set(range(40))
    # uninstall put every original back, so an untraced pass records nothing
    spans = len(tracer.spans)
    run_pass(cli_main, cmds[:2])
    assert len(tracer.spans) == spans


def _bench(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"), ("1", "per_layer")])
def test_printed_metrics_are_the_ones_declared(trace, section):
    done = _bench(ROOT, "--workload", "trace", "--seed", "2", "--seconds", "0.1",
                  "--trace", trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _bench(tmp_path, "--workload", "trace", "--seed", "1", "--seconds", "1")
    assert done.returncode != 0
    assert done.stdout == ""
