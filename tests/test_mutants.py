"""The mutant ledger (tools/mutants.json) and its runner (tools/mutants.py):
every entry applies to the tree exactly once and names tests that exist,
and a mutant that changes nothing is reported as a survivor."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LEDGER = ROOT / "tools" / "mutants.json"


def test_every_ledger_mutant_applies_once():
    mutants = json.loads(LEDGER.read_text(encoding="utf-8"))["mutants"]
    assert len({m["id"] for m in mutants}) == len(mutants)
    for m in mutants:
        assert set(m) == {"id", "file", "old", "new", "tests", "why"}, m["id"]
        assert m["old"] != m["new"], m["id"]
        assert (ROOT / m["file"]).read_text(encoding="utf-8").count(m["old"]) == 1, m["id"]
        assert m["tests"], m["id"]
        for test in m["tests"]:
            path, name = test.split("::")
            assert f"def {name.split('[')[0]}(" in (ROOT / path).read_text(
                encoding="utf-8"), test


def test_planted_no_op_mutant_survives(tmp_path):
    # a comment edit changes no behaviour, so the test it names still passes
    ledger = tmp_path / "ledger.json"
    ledger.write_text(json.dumps({"mutants": [{
        "id": "planted-no-op",
        "file": "src/fnlslab/functionals.py",
        "old": "# samples of the largest quadrature grid",
        "new": "# samples of the biggest quadrature grid",
        "tests": ["tests/test_functionals.py::"
                  "test_quadrature_grid_keeps_its_power_of_two_edge"],
        "why": "none: the runner must report it"}]}), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "mutants.py"), "--ledger",
         str(ledger)], capture_output=True, text=True, timeout=600)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "baseline: 1 named tests pass unmutated" in proc.stdout
    assert "SURVIVED planted-no-op: pytest exit 0" in proc.stdout
    assert proc.stdout.endswith("1 mutants, 1 fault(s)\n")
