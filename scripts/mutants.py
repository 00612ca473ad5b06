#!/usr/bin/env python3
"""Run the mutation suite: each recorded mutant must make its tests fail.

    python scripts/mutants.py

Each entry of ``mutants.json`` (beside this script) names a file of
``src/sumsetlab``, an exact string that occurs in it once, its replacement,
and the pytest ids that must fail with it.  The script copies ``src/``,
``tests/`` and ``perfbench/`` (which some tests read) to a temporary
directory, checks that every listed test passes there, then applies one
mutant at a time and runs its tests.

Each listed test must fail on its own: the tests of an entry run without
``-x``, and the script reads every test's outcome from pytest's ``FAILED``
and ``ERROR`` summary lines (``-rfE``).  A listed id that names a
parametrized test fails if one of its cases fails.  Every pytest run has a
timeout of TIMEOUT_S seconds: on a 2-vCPU machine the slowest entry takes
under 3 s, and the unmutated run of every listed test about 11 s.

It exits 1 if a listed test passes under its mutant (SURVIVED, with the ids
of the tests that passed), if a run times out (TIMEOUT; a timed-out run is
never counted as caught), if an entry no longer applies (its string is
missing or not unique, or a listed test is gone), or if a known survivor is
now caught, so that its entry is out of date.  A known survivor (an entry
with ``"survives"``, which says why no test can catch it) whose tests all
still pass is printed and does not fail the run.  Memory is not bounded.
"""

import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ENTRIES = Path(__file__).with_name("mutants.json")
TIMEOUT_S = 60


def run_tests(work: Path, ids) -> tuple[int, set[str]] | None:
    """pytest's exit code for these test ids on the copy and the listed ids
    that failed or errored, or None if the run timed out."""
    with subprocess.Popen([sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider",
                           *ids], cwd=work, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True, start_new_session=True,
                          env={**os.environ, "PYTHONPATH": str(work / "src")}) as proc:
        try:
            out, _ = proc.communicate(timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)   # pytest and whatever it started
            proc.communicate()
            return None
    summary = [line.split(" ", 1)[1] for line in out.splitlines()
               if line.startswith(("FAILED ", "ERROR "))]
    failed = {t for t in ids for line in summary
              if line == t or line.startswith((t + " - ", t + "["))}
    return proc.returncode, failed


def main() -> int:
    entries = json.loads(ENTRIES.read_text())
    start, bad = time.perf_counter(), 0
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for part in ("src", "tests", "perfbench"):
            shutil.copytree(ROOT / part, work / part,
                            ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        listed = sorted({t for e in entries for t in e["tests"]})
        unmutated = run_tests(work, listed)
        if unmutated is None:
            print("TIMEOUT: the listed tests, unmutated")
            return 1
        if unmutated[0] != 0:
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
            run = run_tests(work, e["tests"])
            path.write_text(text)
            if run is None:
                verdict, failed = "TIMEOUT", True
            elif run[0] not in (0, 1):
                verdict, failed = f"ERROR (pytest exit {run[0]})", True
            elif "survives" in e:
                verdict, failed = (("known survivor", False) if run[0] == 0
                                   else ("STALE: a known survivor is caught", True))
            else:
                passed = [t for t in e["tests"] if t not in run[1]]
                verdict, failed = (("caught", False) if not passed
                                   else (f"SURVIVED ({', '.join(passed)} passed)", True))
            bad += failed
            print(f"{verdict}: {e['name']}" + (f" ({e['survives']})" if "survives" in e else ""))
    print(f"{len(entries)} mutants, {bad} failing, {time.perf_counter() - start:.0f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
