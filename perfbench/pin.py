"""Record the report SHA-256 of every command at the default seed.

    python3 perfbench/pin.py

Runs each workload's command list once at workloads.DEFAULT_SEED, requires
every oracle except the hash to pass, and writes perfbench/pins.json.  A
report whose bytes change is a behaviour change, so re-pin only together
with a change that means to alter the reports, and say so.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import oracles
import workloads
from run import BUILD, PINS, SRC, run_pass


def main() -> int:
    sys.path.insert(0, str(SRC))
    from sumsetlab import build_group
    from sumsetlab.cli import main as cli_main

    seed = workloads.DEFAULT_SEED
    reports = {}
    BUILD.mkdir(parents=True, exist_ok=True)
    for workload in workloads.WORKLOADS:
        tables = {spec: build_group(spec).op for spec in workloads.groups_used(workload)}
        with tempfile.TemporaryDirectory(dir=BUILD) as tmp:
            if workload == "structure":
                workloads.write_tables(seed, Path(tmp), tables)
            cmds = workloads.commands(workload, seed, Path(tmp), 1, tables)
            for cmd, (code, out, err, *_) in zip(cmds, run_pass(cli_main, cmds)[1]):
                try:
                    oracles.check(cmd, code, out, tables, {})
                except oracles.OracleError as exc:
                    print(f"{cmd.key}: {exc}\n{err}", file=sys.stderr)
                    return 1
                reports[cmd.key] = oracles.report_sha256(out)
    PINS.write_text(json.dumps({"seed": seed, "reports": reports}, indent=1,
                               sort_keys=True) + "\n")
    print(f"pinned {len(reports)} reports in {PINS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
