"""Every ``BENCH_<n>.json`` at the repository root, as ``scripts/bench.py``
writes it, against the ``sumsetlab.bench/1`` schema (README, Scripts)."""

import copy
import json
import re
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))

SIDE_KEYS = ["commit", "dirty", "src_sha256", "pins_sha256", "nproc", "python", "numpy",
             "metrics", "unscaled_wall_s", "traced", "failed", "attempted"]
COMMIT = re.compile(r"[0-9a-f]{40}")
SHA256 = re.compile(r"[0-9a-f]{64}")


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _spread_problems(where: str, spread: dict, runs: int) -> list[str]:
    values = spread.get("runs")
    if not (isinstance(values, list) and len(values) == runs
            and all(_is_number(v) for v in values)):
        return [f"{where}: runs is not a list of {runs} numbers"]
    if spread["median"] != statistics.median(values):
        return [f"{where}: median is not the median of its runs"]
    if not min(values) <= spread["median"] <= max(values) or not (
            spread["q1"] <= spread["median"] <= spread["q3"]):
        return [f"{where}: quartiles out of order"]
    return []


def _side_problems(where: str, side: dict, runs: int) -> list[str]:
    if list(side) != SIDE_KEYS:
        return [f"{where}: keys {list(side)}"]
    problems = []
    commit = side["commit"]
    if commit is None:
        if side["dirty"] is not None:
            problems.append(f"{where}: dirty without a commit")
    elif not (COMMIT.fullmatch(commit) and isinstance(side["dirty"], bool)):
        problems.append(f"{where}: commit or dirty")
    for key in ("src_sha256", "pins_sha256"):
        if not SHA256.fullmatch(side[key]):
            problems.append(f"{where}: {key}")
    if not (isinstance(side["nproc"], int) and side["nproc"] >= 1
            and isinstance(side["python"], str) and isinstance(side["numpy"], str)):
        problems.append(f"{where}: machine")
    units = {m["name"]: m["unit"] for m in DECLARED["end_to_end"]}
    if list(side["metrics"]) != list(units):
        problems.append(f"{where}: end-to-end metrics {list(side['metrics'])}")
    else:
        for name, metric in side["metrics"].items():
            if (list(metric) != ["unit", "median", "q1", "q3", "runs"]
                    or metric["unit"] != units[name]):
                problems.append(f"{where}: {name} keys or unit")
            else:
                problems += _spread_problems(f"{where}: {name}", metric, runs)
    if list(side["unscaled_wall_s"]) != ["median", "q1", "q3", "runs"]:
        problems.append(f"{where}: unscaled_wall_s keys")
    else:
        problems += _spread_problems(f"{where}: unscaled_wall_s", side["unscaled_wall_s"], runs)
    layers = {m["name"] for m in DECLARED["per_layer"]}
    traced = side["traced"]
    if not (traced and set(traced) <= layers and all(_is_number(v) for v in traced.values())):
        problems.append(f"{where}: traced per-layer metrics")
    if not (isinstance(side["failed"], int) and isinstance(side["attempted"], int)
            and 0 <= side["failed"] <= side["attempted"]):
        problems.append(f"{where}: failed or attempted")
    return problems


def bench_problems(doc: dict, number: int) -> list[str]:
    """What in a BENCH_<number>.json payload breaks the schema; empty if nothing."""
    if list(doc) != ["schema", "bench", "entries"]:
        return [f"top-level keys {list(doc)}"]
    if doc["schema"] != "sumsetlab.bench/1" or doc["bench"] != number:
        return ["schema or bench number"]
    entries = doc["entries"]
    keys = [(e.get("workload"), e.get("seed")) for e in entries]
    if not entries or keys != sorted(set(keys)):
        return ["entries empty, repeated or out of order"]
    workloads = {w["name"] for w in DECLARED["workloads"]}
    problems = []
    for e in entries:
        where = f"{e['workload']} seed {e['seed']}"
        with_parent = "parent" in e.get("sides", {})
        expected = ["workload", "seed", "seconds", "runs", "sides"] + (
            ["change_wins"] if with_parent else [])
        if list(e) != expected:
            problems.append(f"{where}: keys {list(e)}")
            continue
        if not (e["workload"] in workloads and isinstance(e["seed"], int)
                and _is_number(e["seconds"]) and e["seconds"] > 0
                and isinstance(e["runs"], int) and e["runs"] >= 1):
            problems.append(f"{where}: workload, seed, seconds or runs")
            continue
        if list(e["sides"]) not in (["change"], ["change", "parent"]):
            problems.append(f"{where}: sides {list(e['sides'])}")
            continue
        for name, side in e["sides"].items():
            problems += _side_problems(f"{where} {name}", side, e["runs"])
        if with_parent and not problems:
            wins = e["change_wins"]
            if list(wins) != list(e["sides"]["change"]["metrics"]) or not all(
                    isinstance(n, int) and 0 <= n <= e["runs"] for n in wins.values()):
                problems.append(f"{where}: change_wins")
    return problems


def test_bench_files_exist():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_a_committed_bench_file_matches_the_schema(path):
    number = int(re.fullmatch(r"BENCH_(\d+)\.json", path.name).group(1))
    assert bench_problems(json.loads(path.read_text()), number) == []


@pytest.mark.parametrize("path", BENCH_FILES[-1:], ids=lambda p: p.name)
def test_the_schema_check_refuses_a_damaged_file(path):
    doc = json.loads(path.read_text())
    number = int(re.fullmatch(r"BENCH_(\d+)\.json", path.name).group(1))
    assert bench_problems(doc, number + 1)
    damaged = copy.deepcopy(doc)
    damaged["entries"][0]["sides"]["change"]["metrics"]["wall_s"]["median"] = -1.0
    assert bench_problems(damaged, number)
    damaged = copy.deepcopy(doc)
    del damaged["entries"][0]["sides"]["change"]["pins_sha256"]
    assert bench_problems(damaged, number)
    damaged = copy.deepcopy(doc)
    damaged["entries"][0]["sides"]["change"]["failed"] = -1
    assert bench_problems(damaged, number)
