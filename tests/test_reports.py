"""Report assembly and persistence: schema conformance, deterministic
rendering, CSV round trips, the config echo, and the exact text of every
written form."""

import contextlib
import csv
import dataclasses
import io
import json
from unittest import mock

import numpy as np
import pytest

import fnlslab.cli as cli
from fnlslab.config import parse_config
from fnlslab.errors import ValidationError
from fnlslab.reports import ResultBundle, emit, render_report, report_dict

CONFIG = """
[problem]
alpha = 1.5
sigma = 1
gamma = -1
half_period = 3.14159

[run]
command = solve
seed = 12
"""


def bundle(results=None, tables=None):
    cfg = parse_config(CONFIG)
    return ResultBundle(config=cfg, results=results or {"value": 1.5},
                        tables=tables or {})


def test_report_dict_shape_and_provenance():
    d = report_dict(bundle())
    assert d["schema"] == "report-v1"
    assert d["command"] == "solve"
    assert d["provenance"]["seed"] == 12
    assert d["provenance"]["version"]
    assert set(d["provenance"]["tolerances"]) == \
        {"eps_fft", "eps_real", "eps_anti", "profile_tol"}
    assert d["config"]["problem"]["alpha"] == 1.5
    assert d["results"] == {"value": 1.5}


def test_report_has_no_wall_clock():
    # byte-identical reruns forbid timestamps anywhere in the artifact
    text = render_report(bundle())
    assert "time_stamp" not in text and "timestamp" not in text
    assert render_report(bundle()) == text


def test_render_is_sorted_json_with_trailing_newline():
    text = render_report(bundle({"b": 2.0, "a": 1.0}))
    assert text.endswith("\n")
    loaded = json.loads(text)
    keys = list(loaded)
    assert keys == sorted(keys)
    assert text.index('"a"') < text.index('"b"')


def test_numpy_values_are_converted():
    res = {"scalar": np.float64(0.25), "count": np.int64(3),
           "flag": np.bool_(True), "row": np.arange(3.0)}
    loaded = json.loads(render_report(bundle(res)))
    assert loaded["results"] == {"scalar": 0.25, "count": 3, "flag": True,
                                 "row": [0.0, 1.0, 2.0]}


def test_schema_rejects_unknown_command():
    with pytest.raises(ValidationError, match="report-v1"):
        report_dict(ResultBundle(config=dataclasses.replace(
            parse_config(CONFIG), command="frobnicate"), results={}))


def test_schema_rejects_negative_seed():
    cfg = dataclasses.replace(parse_config(CONFIG), seed=-1)
    with pytest.raises(ValidationError, match="report-v1: seed -1"):
        report_dict(ResultBundle(config=cfg, results={}))


def test_schema_rejects_results_that_are_not_a_dict():
    with pytest.raises(ValidationError, match="report-v1: results"):
        report_dict(ResultBundle(config=parse_config(CONFIG), results=[1.5]))


def test_load_schema_identifies_itself(report_schema):
    assert report_schema["$id"].endswith("report-v1")
    assert report_schema["properties"]["schema"]["const"] == "report-v1"


def test_emit_writes_report_echo_and_tables(tmp_path):
    rows = [(0, 0.1, -1.5), (1, 0.2, 2.5e-17)]
    b = bundle(tables={"samples": (("k", "re", "im"), rows)})
    paths = emit(b, tmp_path)
    names = sorted(p.name for p in paths)
    assert names == ["config.ini", "report.json", "samples.csv"]
    assert (tmp_path / "config.ini").read_text(encoding="utf-8") == CONFIG
    loaded = json.loads((tmp_path / "report.json").read_text())
    assert loaded["schema"] == "report-v1"


def test_csv_round_trips_floats_exactly(tmp_path):
    rng = np.random.default_rng(5)
    rows = [(int(k), float(v), float(w)) for k, (v, w)
            in enumerate(rng.standard_normal((40, 2)) * 10.0 ** rng.integers(
                -12, 12, size=(40, 2)))]
    b = bundle(tables={"noise": (("k", "a", "b"), rows)})
    emit(b, tmp_path)
    with open(tmp_path / "noise.csv", newline="", encoding="utf-8") as fh:
        got = list(csv.reader(fh))
    assert got[0] == ["k", "a", "b"]
    for row, (k, a, bb) in zip(got[1:], rows):
        assert int(row[0]) == k
        assert float(row[1]) == a and float(row[2]) == bb


def test_emit_is_deterministic(tmp_path):
    b = bundle(tables={"t": (("x",), [(0.5,), (1.5,)])})
    d1, d2 = tmp_path / "one", tmp_path / "two"
    emit(b, d1)
    emit(b, d2)
    for p in sorted(d1.iterdir()):
        assert p.read_bytes() == (d2 / p.name).read_bytes()


# numpy and Python scalars, keys out of order, None, nested dicts, and
# tuple/array values, which stay in report.json only
MIXED_RESULTS = {
    "zeta": np.float64(1e16),
    "nested": {"b": {"d": np.int32(-3), "c": 0.1}, "a": [1, 2]},
    "alpha": {"small": np.float64(1e-5), "neg_zero": np.float64(-0.0),
              "nan": np.float64(np.nan), "inf": np.float64(np.inf),
              "ninf": -np.inf},
    "count": np.int64(7), "flag": np.bool_(True), "off": False,
    "missing": None, "label": "L_plus even",
    "pair": (np.float64(0.5), 2), "row": np.arange(3.0),
}
MIXED_ROWS = [(0, 1e16, "a,b"), (1, 1e-05, 'say "hi"'), (-2, -0.0, ""),
              (3, float("nan"), "x"), (4, float("-inf"), "")]

GOLDEN_STDOUT = """\
alpha.inf = inf
alpha.nan = nan
alpha.neg_zero = -0.0
alpha.ninf = -inf
alpha.small = 1e-05
count = 7
flag = True
label = L_plus even
missing = none
nested.b.c = 0.1
nested.b.d = -3
off = False
zeta = 1e+16
wrote <out>/config.ini
wrote <out>/mixed.csv
wrote <out>/report.json
"""
GOLDEN_CSV = (b'k,value,label\n0,1e+16,"a,b"\n1,1e-05,"say ""hi"""\n'
              b'-2,-0.0,\n3,nan,x\n4,-inf,\n')
GOLDEN_RESULTS_JSON = """\
  "results": {
    "alpha": {
      "inf": Infinity,
      "nan": NaN,
      "neg_zero": -0.0,
      "ninf": -Infinity,
      "small": 1e-05
    },
    "count": 7,
    "flag": true,
    "label": "L_plus even",
    "missing": null,
    "nested": {
      "a": [
        1,
        2
      ],
      "b": {
        "c": 0.1,
        "d": -3
      }
    },
    "off": false,
    "pair": [
      0.5,
      2
    ],
    "row": [
      0.0,
      1.0,
      2.0
    ],
    "zeta": 1e+16
  },
"""


def test_every_written_form_matches_its_golden_text(tmp_path):
    # the whole path a run's results take: stdout lines, report.json and
    # CSV bytes, pinned byte for byte
    def mixed(config):
        return ResultBundle(config=config, results=MIXED_RESULTS,
                            tables={"mixed": (("k", "value", "label"),
                                              MIXED_ROWS)})

    cfg = tmp_path / "run.ini"
    cfg.write_text(CONFIG)
    out = tmp_path / "out"
    stdout = io.StringIO()
    with mock.patch.dict(cli._DISPATCH, {"solve": mixed}), \
            contextlib.redirect_stdout(stdout):
        rc = cli.main(["--config", str(cfg), "--out", str(out)])
    assert rc == 0
    assert stdout.getvalue().replace(str(out), "<out>") == GOLDEN_STDOUT
    assert (out / "mixed.csv").read_bytes() == GOLDEN_CSV
    text = (out / "report.json").read_text(encoding="utf-8")
    assert GOLDEN_RESULTS_JSON + '  "schema": "report-v1"\n}\n' in text
