"""The byte-identity digest tool (tools/identity.py) on the benchmark's
quick task lists: a rerun digests the same, a one-ulp change in a CSV
value or a flipped sign of a zero in an array is named by task and field,
and a moved report.json float is named with its values and difference."""

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
    assert identity.compare(table, again)[0] == []
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
    lines, _ = identity.compare(table, planted)
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
    lines, _ = identity.compare(table, flipped)
    assert len(lines) == 1
    assert lines[0].startswith("orbital/equilibrium a=1.5: output.final: array ")


def test_a_moved_report_float_is_named_with_its_delta(quick, tmp_path):
    # report.json is digested by its JSON leaves, so one planted float is
    # one field, printed with both values, |d| and rel, and summarized
    _, table, workdir = quick
    out_dir = workdir / "00-solve" / "out"
    path = out_dir / "report.json"
    original = path.read_bytes()
    report = json.loads(original)
    value = report["results"]["profile"]["omega"]
    report["results"]["profile"]["omega"] = value + 3e-9
    try:
        path.write_text(json.dumps(report), encoding="utf-8")
        planted = copy.deepcopy(table)
        planted["tasks"]["cli/solve #0"].update(
            identity.digest(out_dir, "output.dir", {}, workdir))
    finally:
        path.write_bytes(original)
    lines, text = identity.compare(table, planted)
    key = "cli/solve #0: output.dir/report.json.results.profile.omega"
    d = abs(value + 3e-9 - value)
    rel = f"{d / max(1.0, abs(value)):.3e}"
    assert lines == [f"{key}: float {value!r} -> {value + 3e-9!r}, "
                     f"|d| = {d:.3e}, rel = {rel}"]
    tasks = len(table["tasks"])
    assert text == (f"1 field(s) moved in {tasks} and {tasks} tasks; "
                    f"largest relative float move {rel} ({key})")


def test_a_moved_csv_cell_and_stdout_value_are_named_with_their_deltas(quick,
                                                                       tmp_path):
    # stdout is digested by its `key = value` lines and a CSV by its
    # numeric columns, so one planted cell and one planted value are each
    # named with the largest |d| and rel of what moved
    named, _, _ = quick
    out = identity.run_task(dict(named)["cli/solve #0"], tmp_path)
    before = identity.digest(out, "output", {}, tmp_path)
    assert before["output.log.profile.iterations"].startswith("int ")
    assert "profile.omega" not in before["output.log"]
    line = next(s for s in out["log"].splitlines()
                if s.startswith("profile.omega = "))
    omega = float(line.split(" = ")[1])
    out["log"] = out["log"].replace(line, f"profile.omega = {omega + 3e-9!r}")
    path = out["dir"] / "profile_grid.csv"
    header, row, rest = path.read_text(encoding="utf-8").split("\n", 2)
    x, re, im = row.split(",")
    path.write_text("\n".join([header, ",".join([x, re, repr(float(im) - 2e-7)]),
                               rest]), encoding="utf-8")
    after = identity.digest(out, "output", {}, tmp_path)
    task = "cli/solve #0"
    lines, text = identity.compare({"seed": 1, "tasks": {task: before}},
                                   {"seed": 1, "tasks": {task: after}})
    assert len(lines) == 2
    csv_line = next(s for s in lines if "profile_grid.csv" in s)
    d_im = abs(float(repr(float(im) - 2e-7)) - float(im))
    assert csv_line.startswith(f"{task}: output.dir/profile_grid.csv: file ")
    assert csv_line.endswith(f"; column im max |d| = {d_im:.3e}, "
                             f"max rel = {d_im / max(1.0, abs(float(im))):.3e}")
    d = abs(omega + 3e-9 - omega)
    assert f"{task}: output.log.profile.omega: float {omega!r} -> " \
        f"{omega + 3e-9!r}, |d| = {d:.3e}, rel = {d / max(1.0, abs(omega)):.3e}" in lines
    assert text.startswith("2 field(s) moved in 1 and 1 tasks; largest relative")
