"""The byte-identity digest tool (tools/identity.py) on the benchmark's
quick task lists: a rerun digests the same, and a one-ulp change in a CSV
value or a flipped sign of a zero in an array is named by task and field."""

import copy
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]


def _load_tool():
    spec = importlib.util.spec_from_file_location("identity",
                                                  ROOT / "tools" / "identity.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


identity = _load_tool()


@pytest.fixture(scope="module")
def quick(tmp_path_factory):
    """The quick tasks at seed 1, their digests and the scratch directory."""
    named = identity.load_tasks(1, quick=True)
    workdir = tmp_path_factory.mktemp("identity")
    table = {"seed": 1, "tasks": identity.digests(named, workdir)}
    return named, table, workdir


def test_rerun_digests_identically(quick, tmp_path):
    named, table, _ = quick
    assert {name.split("/")[0] for name, _ in named} == {"certify", "orbital", "cli"}
    again = {"seed": 1, "tasks": identity.digests(named, tmp_path)}
    assert identity.compare(table, again) == []
    # the cli fields cover every output file, stdout and the exit code
    fields = table["tasks"]["cli/solve #0"]
    assert fields["output.rc"] == "int 0"
    assert "<work>" in fields["output.log"]
    assert any(key.startswith("output.dir/") and key.endswith(".csv")
               for key in fields)


def test_one_ulp_in_a_csv_value_is_reported(quick, tmp_path):
    _, table, workdir = quick
    out_dir = workdir / "00-solve" / "out"
    path = out_dir / "profile_grid.csv"
    original = path.read_bytes()
    # the real part in the first data row (x,re,im), one ulp up
    header, row, rest = original.decode("utf-8").split("\n", 2)
    x, re, im = row.split(",")
    up = repr(float(np.nextafter(float(re), np.inf)))
    assert up != re and float(up) != float(re)
    try:
        path.write_text("\n".join([header, ",".join([x, up, im]), rest]),
                        encoding="utf-8")
        planted = copy.deepcopy(table)
        planted["tasks"]["cli/solve #0"].update(
            identity.digest(out_dir, "output.dir", {}, workdir))
    finally:
        path.write_bytes(original)
    lines = identity.compare(table, planted)
    assert len(lines) == 1
    assert lines[0].startswith("cli/solve #0: output.dir/profile_grid.csv: file ")
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(table))
    b.write_text(json.dumps(planted))
    assert identity.main(["--compare", str(a), str(a)]) == 0
    assert identity.main(["--compare", str(a), str(b)]) == 1


def test_flipped_sign_of_a_zero_is_reported(quick, tmp_path):
    named, _, _ = quick
    task = dict(named)["orbital/equilibrium a=1.5"]
    out = identity.run_task(task, tmp_path)
    out["final"][0] = 0.0
    before = identity.digest(out, "output", {}, tmp_path)
    out["final"][0] = -0.0
    after = identity.digest(out, "output", {}, tmp_path)
    table = {"seed": 1, "tasks": {"orbital/equilibrium a=1.5": before}}
    flipped = {"seed": 1, "tasks": {"orbital/equilibrium a=1.5": after}}
    lines = identity.compare(table, flipped)
    assert len(lines) == 1
    assert lines[0].startswith("orbital/equilibrium a=1.5: output.final: array ")
