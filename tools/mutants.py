"""Run the mutant ledger: every mutant must fail the tests it names.

    python3 tools/mutants.py
    python3 tools/mutants.py --ledger FILE

The ledger (tools/mutants.json by default) lists mutants, each with:

- `id`: a short name;
- `file`: a path relative to the repository root;
- `old`: text that occurs exactly once in that file;
- `new`: the text that replaces it;
- `tests`: pytest node ids, as the suite prints them, expected to fail;
- `why`: what the mutant breaks.

The runner copies src/, tests/, bench/ (the tests read
bench/reference.py) and pyproject.toml of the checkout that holds this
file to a temporary directory. It first runs every named test
there unmutated, and they must all pass. Then it applies each mutant in
turn, runs only that mutant's tests and restores the file. A mutant is
killed when every test it names fails. Any other outcome is a survivor:
one of its tests passes or errors, none are collected, or the run
breaks. No bytecode is written, so a mutant of the same size and
timestamp as the original is never read from a stale cache.

The runner prints one line per mutant and exits 1 if the baseline
fails, an `old` text does not occur exactly once, or any mutant
survives.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LEDGER = ROOT / "tools" / "mutants.json"


def pytest_run(copy: Path, tests: list) -> tuple[int, list]:
    """Exit status of pytest on `tests` in the copy, and the node ids
    that failed."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider",
         *tests], cwd=copy, env=env, capture_output=True, text=True, timeout=1800)
    failed = [line.split()[1] for line in proc.stdout.splitlines()
              if line.startswith("FAILED ")]
    return proc.returncode, failed


def unfailed(tests: list, failed: list) -> list:
    """The named tests with no failed node: a name without parameters
    stands for each of its parametrized cases."""
    return [t for t in tests
            if not any(f == t or f.startswith(t + "[") for f in failed)]


def run(mutants: list) -> int:
    """Check the ledger; returns the number of faults (0 when all killed)."""
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        copy = Path(tmp)
        skip = shutil.ignore_patterns("__pycache__", "*.pyc", "out")
        for part in ("src", "tests", "bench"):
            shutil.copytree(ROOT / part, copy / part, ignore=skip)
        shutil.copy2(ROOT / "pyproject.toml", copy / "pyproject.toml")

        tests = sorted({t for m in mutants for t in m["tests"]})
        status, _ = pytest_run(copy, tests)
        if status != 0:
            print(f"BASELINE FAILED: pytest exit {status} on the unmutated copy")
            return 1
        print(f"baseline: {len(tests)} named tests pass unmutated")

        faults = 0
        for m in mutants:
            path = copy / m["file"]
            original = path.read_text(encoding="utf-8")
            count = original.count(m["old"])
            if count != 1:
                print(f"STALE    {m['id']}: old text occurs {count} times in {m['file']}")
                faults += 1
                continue
            path.write_text(original.replace(m["old"], m["new"]), encoding="utf-8")
            try:
                status, failed = pytest_run(copy, m["tests"])
            finally:
                path.write_text(original, encoding="utf-8")
            alive = unfailed(m["tests"], failed)
            if status == 1 and not alive:
                print(f"killed   {m['id']}: {len(failed)} failed")
            else:
                print(f"SURVIVED {m['id']}: pytest exit {status}, "
                      f"not failed: {', '.join(alive)}")
                faults += 1
        return faults


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--ledger", type=Path, default=LEDGER)
    args = parser.parse_args(argv)
    mutants = json.loads(args.ledger.read_text(encoding="utf-8"))["mutants"]
    faults = run(mutants)
    print(f"{len(mutants)} mutants, {faults} fault(s)")
    return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(main())
