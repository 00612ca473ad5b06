#!/usr/bin/env python3
"""Check that a process running many commands reports what one-shot processes do.

    python scripts/check_session.py [PROGRAM ...]

Runs each command of COMMANDS twice in this interpreter through
``sumsetlab.cli.main`` (the second run, and some first ones, find their group
already built), then once each as its own process, ``sumsetlab`` by default or
the PROGRAM given (e.g. ``python -m sumsetlab.cli``).  Exits 1 unless the
exit code, the SHA-256 of stdout and stderr agree for every command; the
last commands are input errors, so their one ``error:`` line is compared too.
"""

import contextlib
import hashlib
import io
import subprocess
import sys

from sumsetlab.cli import main as cli_main

COMMANDS = (
    ("trace", "--group", "quaternion", "--set-a", "3", "--set-b", "5", "--json"),
    ("trace", "--group", "heisenberg:3", "--set-a", "0,1", "--set-b", "0,3", "--json"),
    ("trace", "--group", "heisenberg:5", "--set-a", "8,22,38,82", "--set-b", "34,42"),
    ("decompose", "--group", "heisenberg:5", "--json"),
    ("trace", "--group", "frobenius:7:3:2", "--set-a", "0,4", "--set-b", "1,2", "--json"),
    ("decompose", "--group", "heisenberg:3", "--rep-policy", "seeded_random:3", "--json"),
    ("decompose", "--group", "quaternion", "--kernel", "6", "--rep-policy", "explicit:0,4"),
    ("validate", "--group", "heisenberg:3", "--json"),
    ("validate", "--group", "product:heisenberg:3,cyclic:5"),
    ("validate", "--group", "heisenberg:13", "--json"),
    ("decompose", "--group", "heisenberg:13", "--json"),
    ("validate", "--group", "dihedral:2048"),
    ("verify", "--group", "frobenius:7:3:2", "--mode", "sampled", "--seed", "3",
     "--count", "2000", "--json"),
    ("verify", "--group", "cyclic:25", "--theorem", "eh", "--mode", "sampled",
     "--seed", "1", "--count", "500", "--json"),
    ("verify", "--group", "cyclic:5", "--mode", "capped"),
    ("decompose", "--group", "quaternion", "--kernel", "9"),
    ("extremal", "--group", "cyclic:5", "--size-a", "6", "--size-b", "1"),
    ("trace", "--group", "cyclic:5", "--set-a", ",", "--set-b", "1"),
    ("validate", "--group", "nonsense:3"),
)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def in_process(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            cli_main(list(argv))
            code = 0
        except SystemExit as exc:
            code = 0 if exc.code is None else exc.code
    return code, digest(out.getvalue()), err.getvalue()


def one_shot(program, argv) -> tuple[int, str, str]:
    done = subprocess.run([*program, *argv], capture_output=True, text=True)
    return done.returncode, digest(done.stdout), done.stderr


def main() -> int:
    program = sys.argv[1:] or ["sumsetlab"]
    session = [in_process(argv) for argv in COMMANDS + COMMANDS]
    bad = 0
    for i, argv in enumerate(COMMANDS):
        fresh = one_shot(program, argv)
        for run, got in (("first", session[i]), ("second", session[len(COMMANDS) + i])):
            if got != fresh:
                bad += 1
                print(f"MISMATCH ({run} in-process run) {' '.join(argv)}: "
                      f"exit {got[0]} sha256 {got[1]} stderr {got[2]!r}, one-shot "
                      f"exit {fresh[0]} sha256 {fresh[1]} stderr {fresh[2]!r}")
        print(f"exit {fresh[0]} sha256 {fresh[1][:16]}  {' '.join(argv)}")
    if bad:
        print(f"{bad} mismatch(es)")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
