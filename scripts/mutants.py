#!/usr/bin/env python3
"""Run the mutation suite: each recorded mutant must make its tests fail.

    python scripts/mutants.py

Each entry of ``mutants.json`` (beside this script) names a file of
``src/sumsetlab``, an exact string that occurs in it once, its replacement,
and the pytest ids that must fail with it.  The script copies ``src/``,
``tests/`` and ``perfbench/`` (which some tests read) to a temporary
directory, checks that every listed test passes there, then applies one
mutant at a time and runs its tests.

It exits 1 if a mutant survives, if an entry no longer applies (its string
is missing or not unique, or a listed test is gone), or if a known survivor
is now caught, so that its entry is out of date.  A known survivor (an entry
with ``"survives"``, which says why no test can catch it) that still
survives is printed and does not fail the run.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ENTRIES = Path(__file__).with_name("mutants.json")


def run_tests(work: Path, ids) -> int:
    """pytest's exit code for these test ids on the copy: 0 passed, 1 failed."""
    done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                           *ids], cwd=work, capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(work / "src")})
    return done.returncode


def main() -> int:
    entries = json.loads(ENTRIES.read_text())
    start, bad = time.perf_counter(), 0
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for part in ("src", "tests", "perfbench"):
            shutil.copytree(ROOT / part, work / part,
                            ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        listed = sorted({t for e in entries for t in e["tests"]})
        if run_tests(work, listed) != 0:
            print("the listed tests do not all pass unmutated (or one is gone)")
            return 1
        for e in entries:
            path = work / "src" / "sumsetlab" / e["file"]
            text = path.read_text()
            if text.count(e["old"]) != 1 or not e["tests"]:
                print(f"STALE: {e['name']}: its string occurs {text.count(e['old'])} "
                      f"times, {len(e['tests'])} tests listed")
                bad += 1
                continue
            path.write_text(text.replace(e["old"], e["new"]))
            code = run_tests(work, e["tests"])
            path.write_text(text)
            if code not in (0, 1):
                verdict, failed = f"ERROR (pytest exit {code})", True
            elif "survives" in e:
                verdict, failed = (("known survivor", False) if code == 0
                                   else ("STALE: a known survivor is caught", True))
            else:
                verdict, failed = ("caught", False) if code == 1 else ("SURVIVED", True)
            bad += failed
            print(f"{verdict}: {e['name']}" + (f" ({e['survives']})" if "survives" in e else ""))
    print(f"{len(entries)} mutants, {bad} failing, {time.perf_counter() - start:.0f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
