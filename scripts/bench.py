#!/usr/bin/env python3
"""Run the benchmark on a checkout, or on two in alternation, and record it.

    python scripts/bench.py N [--checkout DIR] [--parent DIR] [--workload W ...]
                              [--seed S ...] [--runs K]

For each workload and seed, runs ``perfbench/run.py`` of each checkout as it
is: K untraced runs, alternating with the parent checkout when ``--parent``
is given (the change first in even pairs, the parent first in odd ones),
then one traced run (``--trace 1``) per checkout.  Each run uses the
checkout's own ``perfbench/`` and ``src/``, for ``run_seconds`` of the
checkout's BENCHMARK.json; the workloads default to all of its workloads.

Writes ``BENCH_<N>.json`` at the root of this repository (schema
``sumsetlab.bench/1``, described in README.md).  Entries of an existing file
for other workloads or seeds are kept, so several invocations with
different run counts can fill one file.  Per workload, seed and side
("change" is ``--checkout``, "parent" is ``--parent``) it records the
commit, the machine, the SHA-256 of ``perfbench/pins.json``, the median and
quartiles of every end-to-end metric and of the unscaled wall time with the
value of each run, the traced per-layer metrics, and the failed and
attempted command counts of all of the side's runs.  With a parent, each
end-to-end metric also gets the number of pairs the change won.  A run that
exits nonzero stops the script; a run that reports a failed command makes it
exit 1 after writing the file.
"""

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCHEMA = "sumsetlab.bench/1"


def git(checkout: Path, *args: str) -> str | None:
    done = subprocess.run(["git", "-C", str(checkout), *args], capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else None


def identity(checkout: Path) -> dict:
    """The commit, whether the tree differs from it, and a digest of src/."""
    digest = hashlib.sha256()
    for path in sorted((checkout / "src").rglob("*.py")):
        digest.update(path.relative_to(checkout).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    commit = git(checkout, "rev-parse", "HEAD")
    return {"commit": commit,
            "dirty": None if commit is None else bool(git(checkout, "status", "--porcelain")),
            "src_sha256": digest.hexdigest(),
            "pins_sha256": hashlib.sha256(
                (checkout / "perfbench" / "pins.json").read_bytes()).hexdigest()}


def run_once(checkout: Path, workload: str, seed: int, seconds: float,
             trace: int) -> tuple[dict, dict]:
    """The info and result objects of one perfbench/run.py run."""
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", str(trace)],
                          cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"perfbench/run.py in {checkout} exited {done.returncode}: "
                           f"{done.stderr.strip()[-500:]}")
    return json.loads(lines[-2])["info"], json.loads(lines[-1])


def spread(values: list[float]) -> dict:
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "runs": values}


def side_record(ident: dict, runs: list[tuple[dict, dict]], traced: tuple[dict, dict]) -> dict:
    info = traced[0]
    metrics = {name: {"unit": m["unit"], **spread([r["metrics"][name]["value"] for _, r in runs])}
               for name, m in runs[0][1]["metrics"].items()}
    return {
        **ident,
        "nproc": info["nproc"], "python": info["python"], "numpy": info["numpy"],
        "metrics": metrics,
        "unscaled_wall_s": spread([i["unscaled_wall_s"] for i, _ in runs]),
        "traced": {name: m["value"] for name, m in traced[1]["metrics"].items()},
        "failed": sum(r["failed"] for _, r in runs) + traced[1]["failed"],
        "attempted": sum(r["attempted"] for _, r in runs) + traced[1]["attempted"],
    }


def bench(checkouts: dict[str, Path], workload: str, seed: int, runs: int,
          seconds: float, better: dict[str, str]) -> dict:
    order = list(checkouts)
    results = {side: [] for side in order}
    for i in range(runs):
        for side in (order if i % 2 == 0 else order[::-1]):
            results[side].append(run_once(checkouts[side], workload, seed, seconds, 0))
            value = results[side][-1][1]["metrics"]["wall_s"]["value"]
            print(f"{workload} seed {seed} run {i + 1}/{runs} {side}: wall_s {value:.4f}",
                  file=sys.stderr)
    sides = {side: side_record(identity(path), results[side],
                               run_once(path, workload, seed, seconds, 1))
             for side, path in checkouts.items()}
    entry = {"workload": workload, "seed": seed, "seconds": seconds, "runs": runs,
             "sides": sides}
    if "parent" in sides:
        entry["change_wins"] = {
            name: sum((c < p) if better[name] == "lower" else (c > p)
                      for c, p in zip(sides["change"]["metrics"][name]["runs"],
                                      sides["parent"]["metrics"][name]["runs"]))
            for name in sides["change"]["metrics"]}
    return entry


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("number", type=int, help="N of the BENCH_<N>.json to write")
    parser.add_argument("--checkout", type=Path, default=ROOT)
    parser.add_argument("--parent", type=Path)
    parser.add_argument("--workload", nargs="+")
    parser.add_argument("--seed", type=int, nargs="+", default=[0])
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be at least 1")

    declared = json.loads((args.checkout / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in declared["end_to_end"]}
    workloads = args.workload or [w["name"] for w in declared["workloads"]]
    seconds = declared["run_seconds"]
    checkouts = {"change": args.checkout.resolve()}
    if args.parent:
        checkouts["parent"] = args.parent.resolve()

    out = ROOT / f"BENCH_{args.number}.json"
    entries = json.loads(out.read_text())["entries"] if out.exists() else []
    failed = 0
    for workload in workloads:
        for seed in args.seed:
            entry = bench(checkouts, workload, seed, args.runs, seconds, better)
            failed += sum(side["failed"] for side in entry["sides"].values())
            entries = [e for e in entries if (e["workload"], e["seed"]) != (workload, seed)]
            entries.append(entry)
            entries.sort(key=lambda e: (e["workload"], e["seed"]))
            out.write_text(json.dumps({"schema": SCHEMA, "bench": args.number,
                                       "entries": entries}, indent=2) + "\n")
    print(f"wrote {out.relative_to(ROOT)}; {failed} failed commands")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
