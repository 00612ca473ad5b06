"""sumsetlab benchmark: CLI workloads run in-process, with oracles and traces.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  One client runs the workload's command list (see workloads.py) in
a closed loop through the click entry point, pass after pass, until
``--seconds`` have elapsed.  Every command of every pass is checked by the
oracles in oracles.py.  Scan commands get an explicit ``--workers`` equal to
the cores available, so the thread pool a default run would use is what gets
measured.

``--trace 0`` prints the end-to-end metrics:

- setup_s: median time to import the package and its CLI in a fresh
  interpreter, over SETUP_SAMPLES interpreters and one after every pass;
- wall_s: time to run the whole command list, the sum of each command's
  median time over the passes;
- cmd_ms_p50, cmd_ms_p95: percentiles of those per-command medians;
- peak_rss_mb: peak resident memory of this process.

The times of commands are scaled by a machine-speed probe that runs as they
do: on one thread, or in a pool of as many threads that holds the GIL or, for
the bitset scans of scan-dense, keeps several cores busy (see probe.py).  The
line before the result also gives the unscaled wall time.

``--trace 1`` alternates untraced passes with traced ones (plus, on the scan
workloads, traced ``--workers 1`` passes) and prints the per-layer metrics,
unscaled, as means per traced pass.  It also prints a self-time table on
stderr and writes the spans to .bench_build/perfbench/.  The last line of
stdout is the result object; the line before it records the environment.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np

import oracles
import workloads
from probe import Probe
from tracer import LAYERS, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build" / "perfbench"
PINS = HERE / "pins.json"
SETUP_SAMPLES = 3                 # at the start; one more follows every pass
IMPORT_TIMER = ("import time; t = time.perf_counter(); import sumsetlab, sumsetlab.cli; "
                "print(time.perf_counter() - t)")
SCAN_KINDS = ("verify", "extremal")


# per-layer metric -> (unit, source); sources are read by layer_metrics()
LAYER_METRICS = {
    **{f"{layer}.self_s": ("s", ("self", layer)) for layer in LAYERS + ("bench",)},
    "groups.build_s": ("s", ("incl", "groups.build_group")),
    "groups.table_load_s": ("s", ("incl", "groups.load_table")),
    "groups.validate_s": ("s", ("incl", "groups.validate_group")),
    "structure.derived_series_s": ("s", ("incl", "structure.derived_series")),
    "structure.commutator_subgroup_s": ("s", ("incl", "structure.commutator_subgroup")),
    "structure.generated_subgroup_s": ("s", ("incl", "structure.generated_subgroup")),
    "structure.choose_decomposition_subgroup_s":
        ("s", ("incl", "structure.choose_decomposition_subgroup")),
    "structure.minimal_torsion_s": ("s", ("incl", "structure.minimal_torsion")),
    "factor_system.build_s": ("s", ("incl", "factor_system.build_factor_system")),
    "factor_system.decompose_subset_s": ("s", ("incl", "factor_system.decompose_subset")),
    "engine.exhaustive_s": ("s", ("incl", "engine.verify_exhaustive")),
    "engine.capped_s": ("s", ("incl", "engine.verify_capped")),
    "engine.sampled_s": ("s", ("incl", "engine.verify_sampled")),
    "engine.extremal_s": ("s", ("incl", "engine.find_extremal")),
    "engine.pairs": ("count", ("pairs",)),
    "engine.pairs_per_s": ("1/s", ("pairs_per_s",)),
    "engine.pairs_per_s.workers1": ("1/s", ("pairs_per_s.workers1",)),
    "rng.draw_s": ("s", ("incl", "rng.SplitMix64.nonempty_mask",
                         "rng.SplitMix64.subset_of_size")),
    "rng.masks": ("count", ("calls", "rng.SplitMix64.nonempty_mask",
                            "rng.SplitMix64.subset_of_size")),
    "replay.replay_s": ("s", ("incl", "replay.replay_solvable_proof")),
    "replay.traces": ("count", ("calls", "replay.replay_solvable_proof")),
    "replay.nodes": ("count", ("count", "replay.nodes")),
    "replay.max_depth": ("count", ("max_depth",)),
    "replay.block_checks": ("count", ("count", "replay.block_checks")),
    "jsonio.dumps_s": ("s", ("incl", "jsonio.dumps_stable")),
    "jsonio.bytes": ("B", ("count", "jsonio.bytes")),
    "bench.traced_wall_s": ("s", ("wall", "traced")),
    "bench.untraced_wall_s": ("s", ("wall", "untraced")),
    "bench.trace_overhead_s": ("s", ("wall", "overhead")),
}


def import_seconds() -> float:
    """Time to import the package and its CLI in a fresh interpreter.

    Not scaled by the probe: the import runs in another process, and scaling
    made its spread worse, not better.
    """
    env = dict(os.environ)
    env.pop("SUMSETLAB_WORKERS", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", IMPORT_TIMER], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout)


def invoke(cli_main, argv, tracer: Tracer | None = None):
    """Run one CLI command in-process: (exit code, stdout, stderr, start, end)."""
    out, err = io.StringIO(), io.StringIO()
    start = perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            if tracer is None:
                cli_main.main(args=list(argv), prog_name="sumsetlab")
            else:
                tracer.call(f"cli.{argv[0]}", cli_main.main, args=list(argv),
                            prog_name="sumsetlab")
            code = 0
        except SystemExit as exc:
            code = 0 if exc.code is None else exc.code
        except Exception:
            code = None
            err.write(traceback.format_exc())
    return code, out.getvalue(), err.getvalue(), start, perf_counter()


def run_pass(cli_main, cmds, tracer: Tracer | None = None, probes=()):
    """Run every command once: (pass seconds, per-command results).

    The probes run between commands (see probe.py).  After each
    command its cyclic garbage is collected, as its own process would drop it
    on exit: left to pile up over the passes, it set peak_rss_mb by how many
    passes a run made (72-84 MB over ten trace runs).
    """
    results = []
    start = perf_counter()
    for job, cmd in enumerate(cmds):
        if tracer is not None:
            tracer.job = job
        for probe in probes:
            probe.maybe()
        results.append(invoke(cli_main, cmd.argv, tracer))
        gc.collect()
    return perf_counter() - start, results


def traced_pass(cli_main, cmds, tracer: Tracer):
    tracer.install()
    try:
        return tracer.call("bench.pass", run_pass, cli_main, cmds, tracer)
    finally:
        tracer.uninstall()


class Checker:
    """Runs the oracles over each pass and tallies attempts and failures."""

    def __init__(self, tables, pins):
        self.tables = tables
        self.pins = pins
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def check(self, cmds, results) -> None:
        for cmd, (code, out, err, *_) in zip(cmds, results):
            self.attempted += 1
            try:
                oracles.check(cmd, code, out, self.tables, self.pins)
            except oracles.OracleError as exc:
                self.failed += 1
                if len(self.messages) < 5:
                    self.messages.append(f"{cmd.key}: {exc}\n{err[-2000:]}")


def quantile(values, q: int) -> float:
    """The q-th percentile (inclusive method) of ``values``."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(tracer: Tracer, passes: int, cmds, walls: dict,
                  workers1: Tracer | None, workers1_passes: int) -> dict:
    pairs = sum(c.pairs for c in cmds if c.kind in SCAN_KINDS)

    def engine_rate(t: Tracer | None, n: int) -> float:
        if t is None or not pairs:
            return 0.0
        busy = sum(t.incl_s[name] for name in ("engine.verify_exhaustive",
                   "engine.verify_capped", "engine.verify_sampled", "engine.find_extremal"))
        return pairs * n / busy if busy else 0.0

    derived = {"pairs": pairs, "pairs_per_s": engine_rate(tracer, passes),
               "pairs_per_s.workers1": engine_rate(workers1, workers1_passes)}
    metrics = {}
    for name, (unit, (source, *keys)) in LAYER_METRICS.items():
        if source == "self":
            value = tracer.self_s[keys[0]] / passes
        elif source == "incl":
            value = sum(tracer.incl_s[k] for k in keys) / passes
        elif source == "calls":
            value = sum(tracer.calls[k] for k in keys) / passes
        elif source == "count":
            value = tracer.counts[keys[0]] / passes
        elif source == "max_depth":
            value = tracer.max_depth
        elif source == "wall":
            value = walls[keys[0]]
        else:
            value = derived[source]
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def self_time_table(workload: str, tracer: Tracer, passes: int) -> str:
    wall = tracer.incl_s["bench.pass"] / passes
    rows = [f"self time per traced pass, workload {workload}, {passes} passes",
            f"{'layer':<14} {'s/pass':>10} {'share':>7}"]
    total = 0.0
    for layer in LAYERS + ("bench",):
        s = tracer.self_s[layer] / passes
        total += s
        rows.append(f"{layer:<14} {s:>10.5f} {s / wall:>7.1%}")
    rows.append(f"{'sum':<14} {total:>10.5f}   traced wall_s {wall:.5f}")
    return "\n".join(rows)


def run(args) -> int:
    if not (SRC / "sumsetlab" / "__init__.py").is_file():
        print(f"error: no sumsetlab package under {SRC}", file=sys.stderr)
        return 2
    os.environ.pop("SUMSETLAB_WORKERS", None)
    sys.path.insert(0, str(SRC))
    import sumsetlab
    from sumsetlab import build_group
    from sumsetlab.cli import main as cli_main
    if Path(sumsetlab.__file__).resolve().parent != SRC / "sumsetlab":
        print(f"error: imported sumsetlab from {sumsetlab.__file__}", file=sys.stderr)
        return 2

    pins = json.loads(PINS.read_text())["reports"]
    workers = len(os.sched_getaffinity(0))
    tables = {spec: build_group(spec).op for spec in workloads.groups_used(args.workload)}
    BUILD.mkdir(parents=True, exist_ok=True)
    checker = Checker(tables, pins)
    with tempfile.TemporaryDirectory(dir=BUILD) as tmp:
        table_dir = Path(tmp)
        if args.workload == "structure":
            workloads.write_tables(args.seed, table_dir, tables)
        cmds = workloads.commands(args.workload, args.seed, table_dir, workers, tables)
        gc.freeze()       # the collections after each command skip the set-up
        if args.trace:
            scan = args.workload.startswith("scan-")
            one = (workloads.commands(args.workload, args.seed, table_dir, 1, tables)
                   if scan else None)
            tracer, tracer1 = Tracer(), (Tracer() if scan else None)
            untraced, traced, traced1 = [], [], []
            start = perf_counter()
            while not traced or perf_counter() - start < args.seconds:
                wall, results = run_pass(cli_main, cmds)
                untraced.append(wall)
                checker.check(cmds, results)
                wall, results = traced_pass(cli_main, cmds, tracer)
                traced.append(wall)
                checker.check(cmds, results)
                if scan:
                    wall, results = traced_pass(cli_main, one, tracer1)
                    traced1.append(wall)
                    checker.check(one, results)
        else:
            probes = {(c.threads, c.parallel): Probe(c.threads, c.parallel) for c in cmds}
            import_seconds()                  # may compile bytecode; not counted
            setup = [import_seconds() for _ in range(SETUP_SAMPLES)]
            walls, latencies = [], [[] for _ in cmds]
            start = perf_counter()
            while not walls or perf_counter() - start < args.seconds:
                wall, results = run_pass(cli_main, cmds, probes=probes.values())
                walls.append(wall)
                for samples, (*_, begin, end) in zip(latencies, results):
                    samples.append(end - begin)
                checker.check(cmds, results)
                setup.append(import_seconds())   # spread over the run

    for message in checker.messages:
        print(f"oracle failure: {message}", file=sys.stderr)
    info = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "python": sys.version.split()[0], "numpy": np.__version__,
        "nproc": os.cpu_count(), "cores_available": workers, "workers": workers,
        "commands_per_pass": len(cmds),
        "pairs_per_pass": sum(c.pairs for c in cmds if c.kind in SCAN_KINDS),
        "attempted": checker.attempted, "failed": checker.failed,
        "fail_ratio": checker.failed / checker.attempted,
        "pinned_commands": sum(c.key in pins for c in cmds),
    }
    if args.trace:
        pass_walls = {"traced": statistics.median(traced),
                      "untraced": statistics.median(untraced)}
        pass_walls["overhead"] = pass_walls["traced"] - pass_walls["untraced"]
        metrics = layer_metrics(tracer, len(traced), cmds, pass_walls, tracer1,
                                len(traced1))
        print(self_time_table(args.workload, tracer, len(traced)), file=sys.stderr)
        spans = {"workload": args.workload, "seed": args.seed,
                 "traced": tracer.spans_json(),
                 "workers1": tracer1.spans_json() if tracer1 else None}
        spans_path = BUILD / f"spans-{args.workload}-seed{args.seed}.json"
        spans_path.write_text(json.dumps(spans))
        info.update(traced_passes=len(traced), workers1_passes=len(traced1),
                    spans=len(tracer.spans), spans_dropped=tracer.dropped,
                    spans_file=str(spans_path.relative_to(ROOT)))
    else:
        pairs = info["pairs_per_pass"]
        unscaled = [statistics.median(samples) for samples in latencies]
        typical = [t * probes[cmd.threads, cmd.parallel].factor()
                   for cmd, t in zip(cmds, unscaled)]
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "wall_s": {"value": sum(typical), "unit": "s"},
            "cmd_ms_p50": {"value": 1000 * statistics.median(typical), "unit": "ms"},
            "cmd_ms_p95": {"value": 1000 * quantile(typical, 95), "unit": "ms"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024, "unit": "MB"},
        }
        wall_s = metrics["wall_s"]["value"]
        info.update(passes=len(walls), latency_samples=len(walls) * len(cmds),
                    pairs_per_s=pairs / wall_s if pairs else None,
                    probe_samples={str(k): len(p.secs) for k, p in probes.items()},
                    probe_median_s={str(k): statistics.median(p.secs)
                                    for k, p in probes.items()},
                    unscaled_wall_s=sum(unscaled))
    print(json.dumps({"info": info}))
    print(json.dumps({"correct": checker.failed == 0, "attempted": checker.attempted,
                      "failed": checker.failed, "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
