"""Command dispatch and the executable entry point: every command
produces a schema-valid bundle, the solve tables reproduce the elliptic
closed form, reruns with one seed are byte-identical, and exit codes
separate validation, convergence, and property failures."""

import ast
import contextlib
import csv
import errno
import functools
import gc
import io
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fnlslab.cli as cli
import fnlslab.errors as errors
from fnlslab.config import COMMANDS, parse_config
from fnlslab.errors import (ConservationDriftExceeded, ConvergenceError,
                            NonConvergence, PropertyViolation,
                            ValidationError)
from fnlslab.reports import emit, report_dict, result_lines
import oracles

T = np.pi

BASE = f"""
[problem]
alpha = 1.5
sigma = 1
gamma = -1
half_period = {T!r}

[solver]
mu = 1
n_modes = 32

[grid]
n_grid = 256
sector_size = 64

[kernels]
n = 256

[evolve]
dt = 1e-3
steps = 200
log_interval = 50

[sweep]
parameter = mu
target = 1.2
steps = 4

[stability]
horizon_periods = 2
dt = 1e-2
epsilons = 1e-4, 1e-3
log_interval = 20

[rearrange]
trials = 20
n_modes = 8
n_grid = 256
"""


def config_for(command, extra="", base=BASE, seed=3):
    return parse_config(base + extra).with_overrides(
        command=command, seed=seed, out=None)


@functools.cache
def run_base(command):
    """The bundle of `command` at the base config, run once and shared by
    the tests that only read it."""
    return cli.run(config_for(command))


def run_python(code):
    """Stdout of `code` in a fresh interpreter that imports this fnlslab."""
    import fnlslab

    src = str(Path(fnlslab.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout


def test_run_requires_a_command():
    with pytest.raises(ValidationError, match="command"):
        cli.run(parse_config(BASE))


def test_solve_reproduces_elliptic_closed_form(tmp_path):
    m = 0.6
    mu = oracles.snoidal_charge(m, T)
    text = f"""
[problem]
alpha = 2.0
sigma = 1
gamma = -1
half_period = {T!r}

[solver]
mu = {mu!r}
n_modes = 48

[grid]
n_grid = 1024
"""
    bundle = cli.run(parse_config(text).with_overrides(
        command="solve", seed=0, out=None))
    _, _, om_true = oracles.snoidal_params(m, T)
    assert abs(bundle.results["profile"]["omega"] - om_true) < 1e-8

    cli.emit(bundle, tmp_path)
    with open(tmp_path / "profile_grid.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["x", "re", "im"]
    xs = np.array([float(r[0]) for r in rows[1:]])
    vals = np.array([float(r[1]) + 1j * float(r[2]) for r in rows[1:]])
    ref = oracles.snoidal_values(xs, m, T)
    assert np.max(np.abs(vals - ref)) < 1e-6


def test_solve_mode_table_is_lossless(tmp_path):
    bundle = run_base("solve")
    header, rows = bundle.tables["profile_modes"]
    assert header == ("k", "re", "im")
    cli.emit(bundle, tmp_path)
    with open(tmp_path / "profile_modes.csv", newline="") as fh:
        got = list(csv.reader(fh))[1:]
    for (k, re, im), row in zip(rows, got):
        assert (int(row[0]), float(row[1]), float(row[2])) == (k, re, im)


def test_spectrum_reports_morse_counts():
    res = run_base("spectrum").results
    assert res["morse_plus"] == 0
    assert res["morse_minus"] == 1
    assert res["ker_plus_residual"] < 1e-6
    assert res["ker_minus_residual"] < 1e-6
    for block in res["ker_alignments"].values():
        assert block["cosine"] > 0.999
    assert res["jordan"]["dQ_dmu"] == pytest.approx(1.0, abs=1e-6)


def test_spectrum_runs_one_sector_pass(monkeypatch):
    import fnlslab.spectrum as spectrum

    calls = {"sector_spectra": 0, "eigensolve": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    sector_spectra = counted("sector_spectra", spectrum.sector_spectra)
    monkeypatch.setattr(cli, "sector_spectra", sector_spectra)
    monkeypatch.setattr(spectrum, "sector_spectra", sector_spectra)
    monkeypatch.setattr(spectrum, "eigensolve",
                        counted("eigensolve", spectrum.eigensolve))
    cli.run(config_for("spectrum"))
    assert calls == {"sector_spectra": 1, "eigensolve": 4}


def test_import_loads_no_scipy():
    # scipy and jsonschema are test-only dependencies; importing either
    # would add a large share of the start-up time of every CLI call.
    # `import fnlslab` loads no numpy either; the checks below run after
    # the first attribute miss has loaded the numeric tier.
    code = ("import sys, fnlslab; "
            "print('numpy' in sys.modules); "
            "fnlslab.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')); "
            "print('concurrent.futures' in sys.modules); "
            "print('jsonschema' in sys.modules)")
    numpy, scipy_modules, pools, schema = run_python(code).split()
    assert numpy == "False"
    assert scipy_modules == "[]"
    assert schema == "False"
    # the package runs everything serially and loads no pool machinery
    assert pools == "False"


# What `from fnlslab import *` binds: 71 exports and 12 submodules, the
# same names the package bound when every module loaded eagerly.
STAR_NAMES = [
    "AntiperiodicField", "COMMANDS", "EPS_ANTI", "EPS_FFT", "EPS_REAL",
    "EvolutionState", "GridSamples", "KernelSamples", "MAX_ITER",
    "NondegeneracyReport", "ProblemParams", "ResultBundle", "RunConfig",
    "StabilityReport", "StandingProfile",
    "Sweep", "TOL_PROFILE", "assemble", "charge", "cli", "coercivity_check",
    "config", "continue_in", "cosine_field", "derivative", "dynamics",
    "eigensolve", "emit", "errors", "evaluate", "evolve", "fields",
    "fractional_laplacian", "fredholm_range_checks", "functionals",
    "gauge_fix", "hamiltonian", "imag_part", "initial_state", "inner",
    "jordan_structure", "kernel_ka", "kernel_kp", "kernels", "kinetic", "lift",
    "main", "momentum", "moving_frame_energy", "n_preserving_perturbation",
    "nondegeneracy_check", "odd_wavenumbers", "orbital_distance", "params",
    "parse_config", "positivity_report", "potential",
    "potential_ordering_check", "profile_residual", "profiles",
    "quadratic_energy", "random_field", "real_part", "rearrange",
    "rearrange_hash", "rearrange_star", "recovered_omega", "render_report",
    "report_dict", "reports", "rotate_phase", "run", "second_variation_form",
    "sector_spectra", "solve_defocusing", "solve_focusing", "spectrum",
    "stability_experiment", "stability_indices", "to_grid", "translate",
    "x_norm", "zero_field"]

# A statement that prints the numpy and fnlslab modules loaded so far.
LOADED = ("print(sorted(m for m in sys.modules "
          "if m.split('.')[0] in ('numpy', 'fnlslab')))")
CONFIG_TIER = str(["fnlslab", "fnlslab.config", "fnlslab.errors",
                   "fnlslab.params"])


def test_config_tier_parses_without_numpy():
    code = f"import sys, fnlslab; fnlslab.parse_config({BASE!r}); {LOADED}"
    assert run_python(code).strip() == CONFIG_TIER


def test_validation_lists_every_bad_window_without_numpy():
    text = (BASE.replace("alpha = 1.5", "alpha = 2.5")
            .replace("sigma = 1", "sigma = 0").replace("gamma = -1", "gamma = 2"))
    code = ("import sys, fnlslab\n"
            "try:\n"
            f"    fnlslab.parse_config({text!r})\n"
            "except fnlslab.errors.ValidationError as exc:\n"
            "    print(repr(str(exc)))\n"
            f"{LOADED}")
    message, loaded = run_python(code).splitlines()
    assert "3 problem(s)" in message
    for key in ("alpha", "sigma", "gamma"):
        assert f"problem.{key}" in message
    assert loaded == CONFIG_TIER


def test_first_miss_loads_the_numeric_tier_whole():
    # the benchmark tracer looks each of its target modules up in
    # sys.modules, so one probe must load them all
    code = ("import sys, fnlslab; "
            f"{LOADED}; "
            "from fnlslab import spectrum; "
            f"{LOADED}; "
            "print(fnlslab.solve_defocusing is fnlslab.profiles.solve_defocusing, "
            "'__getattr__' in vars(fnlslab), '__dir__' in vars(fnlslab))")
    before, after, bound = run_python(code).splitlines()
    assert before == CONFIG_TIER
    loaded = ast.literal_eval(after)
    assert "numpy" in loaded
    for name in ("fields", "functionals", "profiles", "spectrum", "kernels",
                 "rearrange", "dynamics", "config", "reports", "cli"):
        assert f"fnlslab.{name}" in loaded
    # the module hooks are gone: the package is what an eager import builds
    assert bound == "True False False"


def test_star_import_and_dir_bind_every_name():
    star = ("import sys, fnlslab; "
            f"{LOADED}; "
            "ns = {}; exec('from fnlslab import *', ns); "
            "print(sorted(set(ns) - {'__builtins__'}))")
    before, names = run_python(star).splitlines()
    assert before == CONFIG_TIER
    assert ast.literal_eval(names) == STAR_NAMES
    listing = ("import fnlslab; "
               "print([n for n in dir(fnlslab) if not n.startswith('_')])")
    assert ast.literal_eval(run_python(listing)) == STAR_NAMES


def test_unknown_attribute_raises_the_standard_error():
    code = ("import sys, fnlslab\n"
            f"{LOADED}\n"
            "for _ in range(2):\n"
            "    try:\n"
            "        fnlslab.no_such_name\n"
            "    except AttributeError as exc:\n"
            "        print(exc)\n")
    before, first, second = run_python(code).splitlines()
    assert before == CONFIG_TIER
    assert first == second == "module 'fnlslab' has no attribute 'no_such_name'"


def test_every_export_has_a_caller():
    # every name fnlslab exports, every public module-level def and class
    # of the package, and every public method and property of those
    # classes, is read by the package or the benchmark outside its own
    # definition; reads from inside a name that has no such reader do not
    # count, so a dead chain is flagged whole
    import inspect

    import fnlslab

    pkg = Path(fnlslab.__file__).resolve().parent
    bench = Path(__file__).resolve().parents[1] / "bench"
    # the eager tier is imported; the numeric tier is a {module: names} table
    init = ast.parse((pkg / "__init__.py").read_text()).body
    names = {alias.asname or alias.name for node in init
             if isinstance(node, ast.ImportFrom) and node.level
             for alias in node.names}
    numeric = next(node.value for node in init if isinstance(node, ast.Assign)
                   and getattr(node.targets[0], "id", None) == "_NUMERIC")
    names |= {name for exports in ast.literal_eval(numeric).values()
              for name in exports}
    exports = set(names)
    sources = [p for p in sorted(pkg.glob("*.py")) if p.name != "__init__.py"]
    for path in sources:
        for top in ast.parse(path.read_text()).body:
            if not isinstance(top, (ast.FunctionDef, ast.ClassDef)) \
                    or top.name.startswith("_"):
                continue
            names.add(top.name)
            if isinstance(top, ast.ClassDef):
                names |= {node.name for node in top.body
                          if isinstance(node, ast.FunctionDef)
                          and not node.name.startswith("_")}
    sources += sorted(bench.glob("*.py"))
    # name -> top-level definitions that read it (None: module-level code)
    readers = {}
    for path in sources:
        for top in ast.parse(path.read_text()).body:
            owner = getattr(top, "name", None)
            nodes = list(ast.walk(top))
            # names a definition binds itself shadow the module's
            local = set() if owner is None else (
                {n.id for n in nodes if isinstance(n, ast.Name)
                 and not isinstance(n.ctx, ast.Load)}
                | {n.arg for n in nodes if isinstance(n, ast.arg)})
            for n in nodes:
                if isinstance(n, ast.Name) and n.id not in local:
                    readers.setdefault(n.id, set()).add(owner)
                elif isinstance(n, ast.Attribute):
                    readers.setdefault(n.attr, set()).add(owner)
    # the tracer patches its (module, attribute, metric) targets by name
    tracer = ast.parse((bench / "tracer.py").read_text())
    targets = next(node.value for node in tracer.body
                   if isinstance(node, ast.Assign)
                   and getattr(node.targets[0], "id", None) == "_TARGETS")
    for target in targets.elts:
        readers.setdefault(target.elts[1].value, set()).add(None)
    dead = set()
    while True:
        found = {name for name in names
                 if not readers.get(name, set()) - {name} - dead}
        if found == dead:
            break
        dead = found
    assert sorted(dead) == []
    # both tiers were read: all 71 exports of the loaded package
    assert exports == {name for name in dir(fnlslab) if not name.startswith("_")
                       and not inspect.ismodule(getattr(fnlslab, name))}


def test_spectrum_eigenvalue_table_is_sorted_per_sector():
    bundle = run_base("spectrum")
    _, rows = bundle.tables["eigenvalues"]
    by_block = {}
    for op, sector, idx, lam in rows:
        by_block.setdefault((op, sector), []).append((idx, lam))
    assert set(by_block) == {("L_plus", "even"), ("L_plus", "odd"),
                             ("L_minus", "even"), ("L_minus", "odd")}
    for block in by_block.values():
        lams = [lam for _, lam in sorted(block)]
        assert lams == sorted(lams)


def test_kernels_reports_positive_margins():
    res = run_base("kernels").results
    assert res["time_unit"] == pytest.approx((T / np.pi) ** 1.5)
    assert len(res["positivity"]) == 3
    for margins in res["positivity"]:
        for key in ("interior_min", "decrease_min", "even_pair_min",
                    "odd_pair_min"):
            assert margins[key] > 0.0


@pytest.mark.parametrize("t", ["30", "100"])
def test_kernels_past_the_cancellation_floor_exit_2(tmp_path, capsys, t):
    # at T = pi the time unit is 1; both margins read zero at N = 1024
    old = "[kernels]\nn = 256\n"
    assert old in BASE
    cfg = tmp_path / "run.ini"
    cfg.write_text(BASE.replace(old, f"[kernels]\nn = 1024\ntimes = {t}\n"))
    assert cli.main(["--config", str(cfg), "--command", "kernels"]) == 2
    err = capsys.readouterr().err
    assert err.endswith(f"t = {t} is past t = 20.3, the largest this grid resolves\n")


def test_kernels_synthesizes_each_kp_once(tmp_path, monkeypatch):
    # each time's K_a antiperiodizes the K_p the command already holds:
    # three syntheses for three times, and the same files as a K_a
    # synthesized apart from its K_p
    import fnlslab.kernels as kernels

    old = "[kernels]\nn = 256\n"
    assert old in BASE
    text = BASE.replace(old, old + "times = 0.2, 1.0, 5.0\n")
    cfg = tmp_path / "run.ini"
    cfg.write_text(text)
    synth, sizes = kernels.synthesize, []
    monkeypatch.setattr(kernels, "synthesize",
                        lambda *args: sizes.append(args[2]) or synth(*args))
    assert cli.main(["--config", str(cfg), "--command", "kernels",
                     "--out", str(tmp_path / "once")]) == 0
    monkeypatch.undo()
    assert sizes == [256] * 3
    config = parse_config(text).with_overrides(command="kernels")
    emit(oracles.kernels_reference(config), tmp_path / "reference")
    for name in ("kernel_samples.csv", "report.json"):
        assert (tmp_path / "once" / name).read_bytes() == \
            (tmp_path / "reference" / name).read_bytes()


def test_rearrange_randomized_checks_pass():
    res = run_base("rearrange").results
    assert res["polya_szego"]["violations"] == 0
    assert res["potential_ordering"]["satisfied"]
    assert res["potential_ordering"]["direction"] == "nonincreasing"


@pytest.mark.parametrize("seed", [1, 2])
def test_rearrange_files_match_one_field_at_a_time_reference(tmp_path, seed):
    # 130 trials at n_grid = 1024: two full blocks of 64 and a partial one
    old = "trials = 20\nn_modes = 8\nn_grid = 256"
    assert old in BASE
    text = BASE.replace(old, "trials = 130\nn_modes = 16\nn_grid = 1024")
    cfg = tmp_path / "run.ini"
    cfg.write_text(text)
    assert cli.main(["--config", str(cfg), "--command", "rearrange",
                     "--seed", str(seed), "--out", str(tmp_path / "block")]) == 0
    config = parse_config(text).with_overrides(command="rearrange", seed=seed)
    emit(oracles.rearrange_reference(config), tmp_path / "reference")
    for name in ("polya_trials.csv", "report.json"):
        assert (tmp_path / "block" / name).read_bytes() == \
            (tmp_path / "reference" / name).read_bytes()


def test_evolve_stays_on_orbit():
    res = run_base("evolve").results
    assert res["rho_final"] < 1e-5
    assert not res["flagged"]
    assert max(res["drift"].values()) < 1e-9
    assert res["time"] == pytest.approx(0.2)


def test_sweep_walks_to_target():
    bundle = run_base("sweep")
    assert bundle.results["failed_at"] is None
    # anchor profile plus one per step
    assert bundle.results["points"] == 5
    _, rows = bundle.tables["sweep"]
    values = [r[0] for r in rows]
    assert values == sorted(values)
    assert values[0] == pytest.approx(1.0)
    assert values[-1] == pytest.approx(1.2)
    assert all(r[-1] < 1e-8 for r in rows)


def test_sweep_requires_target():
    cfg = config_for("sweep", base=BASE.replace("target = 1.2\n", ""))
    with pytest.raises(ValidationError, match="sweep.target"):
        cli.run(cfg)


def test_report_command_summarizes_stability():
    res = run_base("report").results
    assert res["c_emp"] < 50.0
    assert res["indices"]["dNdc"]["value"] == pytest.approx(3.61, rel=1e-2)
    assert res["coercivity"]["positive"]
    assert len(res["runs"]) == 2
    assert res["runs"][0]["epsilon"] == 1e-4


def test_every_command_is_schema_valid(report_schema):
    for command in COMMANDS:
        d = report_dict(run_base(command))
        jsonschema.validate(d, report_schema)
        assert d["command"] == command


def test_main_out_loads_no_jsonschema(tmp_path):
    # reports check their own envelope; the schema is only for tests and
    # the benchmark to check against
    cfg = tmp_path / "run.ini"
    cfg.write_text(BASE)
    argv = ["--config", str(cfg), "--command", "solve",
            "--out", str(tmp_path / "out")]
    out = run_python("import sys; from fnlslab.cli import main; "
                     f"rc = main({argv!r}); "
                     "print(rc, 'jsonschema' in sys.modules)")
    assert out.splitlines()[-1] == "0 False"
    assert (tmp_path / "out" / "report.json").is_file()


def test_main_success_prints_flat_scalars(tmp_path, capsys):
    cfg = tmp_path / "run.ini"
    cfg.write_text(BASE)
    rc = cli.main(["--config", str(cfg), "--command", "solve"])
    out = capsys.readouterr().out
    assert rc == 0
    lines = [l for l in out.splitlines() if l]
    assert lines == sorted(lines)
    omega = [l for l in lines if l.startswith("profile.omega = ")]
    assert len(omega) == 1
    float(omega[0].split(" = ")[1])


def test_main_seeded_reruns_are_byte_identical(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text(BASE)
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        rc = cli.main(["--config", str(cfg), "--command", "rearrange",
                       "--seed", "9", "--out", str(out)])
        assert rc == 0
        outs.append(out)
    files = sorted(p.name for p in outs[0].iterdir())
    assert "report.json" in files and "config.ini" in files
    for name in files:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_main_validation_exit_code(tmp_path, capsys):
    cfg = tmp_path / "bad.ini"
    cfg.write_text(BASE.replace("alpha = 1.5", "alpha = 2.5"))
    rc = cli.main(["--config", str(cfg), "--command", "solve"])
    assert rc == 2
    assert "(1, 2]" in capsys.readouterr().err


def test_main_focusing_config_without_omega_exits_2(tmp_path, capsys):
    cfg = tmp_path / "focusing.ini"
    cfg.write_text(BASE.replace("gamma = -1", "gamma = 1"))
    rc = cli.main(["--config", str(cfg), "--command", "solve"])
    assert (rc, capsys.readouterr().err) == (
        2, "error: solver.omega is required for the focusing branch\n")


@pytest.mark.parametrize("old, new, keys", [
    ("n_modes = 32", "n_modes = -inf", ["solver.n_modes"]),
    ("[grid]", "[run]\nseed = inf\n\n[grid]", ["run.seed"]),
    ("sector_size = 64", "sector_size = 1e400", ["grid.sector_size"]),
    (f"half_period = {T!r}\n\n[solver]\nmu = 1",
     "half_period = inf\n\n[solver]\nmu = -1",
     ["problem.half_period", "solver.mu"]),
], ids=["n_modes", "seed", "sector_size", "half_period_and_mu"])
def test_main_non_finite_values_exit_2(tmp_path, capsys, old, new, keys):
    cfg = tmp_path / "bad.ini"
    assert old in BASE
    cfg.write_text(BASE.replace(old, new))
    rc = cli.main(["--config", str(cfg), "--command", "solve"])
    assert rc == 2
    err = capsys.readouterr().err
    assert all(key in err for key in keys)


def test_main_report_runs_past_128_modes(tmp_path, capsys):
    # a report past 128 modes steps on a 1024-point grid and folds the
    # 512-bin orbit scan; both must run inside the n_modes window
    cfg = tmp_path / "run.ini"
    cfg.write_text(BASE.replace("n_modes = 32", "n_modes = 130")
                   .replace("horizon_periods = 2", "horizon_periods = 0.01"))
    rc = cli.main(["--config", str(cfg), "--command", "report"])
    assert (rc, capsys.readouterr().err) == (0, "")


def test_main_huge_sector_size_exits_2(tmp_path, capsys):
    # rejected while parsing, before anything is allocated
    cfg = tmp_path / "bad.ini"
    cfg.write_text(BASE.replace("sector_size = 64", "sector_size = 1e15"))
    rc = cli.main(["--config", str(cfg), "--command", "spectrum"])
    assert rc == 2
    assert "grid.sector_size" in capsys.readouterr().err


def test_main_oversized_quadrature_grid_exits_2_before_allocating(tmp_path,
                                                                  capsys):
    # sigma = 1e6 lies in its window (0, inf), but its default grid at 48
    # modes would take 2e6 * 95 + 2 * 95 + 2 = 190000192 samples, 2.8 GiB
    # per complex array; the grid rule refuses it before anything is built
    import tracemalloc

    cfg = tmp_path / "big.ini"
    cfg.write_text(BASE.replace("sigma = 1", "sigma = 1e6")
                   .replace("n_modes = 32", "n_modes = 48"))
    tracemalloc.start()
    try:
        rc = cli.main(["--config", str(cfg), "--command", "solve"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err == (
        "error: sigma = 1000000.0 on the band k_max = 95 needs a "
        "190000192-point quadrature grid, past the cap of 4194304 points\n")
    assert peak < 1 << 24


@pytest.mark.parametrize("command, old, new, message", [
    ("evolve", "steps = 200", "steps = 1e12",
     "evolve.steps must lie in [1, 10000000]"),
    ("report", "horizon_periods = 2", "horizon_periods = 1e9",
     "stability.horizon_periods * T / stability.dt must be at most "
     "10000000 steps, got 3.14159e+11"),
], ids=["evolve", "report"])
def test_main_huge_step_count_exits_2_before_any_work(tmp_path, capsys,
                                                      command, old, new,
                                                      message):
    cfg = tmp_path / "run.ini"
    assert old in BASE
    cfg.write_text(BASE.replace(old, new))
    out = tmp_path / "o"
    with mock.patch.dict(cli._DISPATCH, {command: None}):
        rc = cli.main(["--config", str(cfg), "--command", command,
                       "--out", str(out)])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: configuration has 1 problem(s):\n  - {message}\n"
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("command", ["rearrange", "solve"])
def test_main_negative_seed_flag_exits_2_before_any_work(tmp_path, capsys,
                                                         command):
    cfg = tmp_path / "run.ini"
    cfg.write_text(BASE)
    out = tmp_path / "o"
    rc = cli.main(["--config", str(cfg), "--command", command,
                   "--seed", "-3", "--out", str(out)])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.err == "error: run.seed must be nonnegative\n"
    assert captured.out == ""
    assert not (out / "report.json").exists()


def test_main_rejects_run_workers_key(tmp_path, capsys):
    cfg = tmp_path / "run.ini"
    cfg.write_text(BASE + "\n[run]\nworkers = 2\n")
    rc = cli.main(["--config", str(cfg), "--command", "solve"])
    assert rc == 2
    assert "unknown key run.workers" in capsys.readouterr().err


def test_main_rejects_workers_flag(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text(BASE)
    with pytest.raises(SystemExit) as exc:
        cli.main(["--config", str(cfg), "--command", "solve", "--workers", "2"])
    assert exc.value.code == 2


def test_main_missing_config_exit_code(tmp_path, capsys):
    rc = cli.main(["--config", str(tmp_path / "nope.ini")])
    assert rc == 2
    assert "cannot read" in capsys.readouterr().err


def test_main_closes_the_config_file(tmp_path, capsys):
    cfg = tmp_path / "run.ini"
    cfg.write_text(BASE)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = cli.main(["--config", str(cfg), "--command", "solve"])
        gc.collect()
    assert rc == 0
    assert [str(w.message) for w in caught
            if issubclass(w.category, ResourceWarning)] == []


def test_main_no_command_exit_code(tmp_path, capsys):
    cfg = tmp_path / "run.ini"
    cfg.write_text(BASE)
    rc = cli.main(["--config", str(cfg)])
    assert rc == 2
    assert "command" in capsys.readouterr().err


def test_main_maps_failure_kinds_to_exit_codes(tmp_path, capsys,
                                               monkeypatch):
    cfg = tmp_path / "run.ini"
    cfg.write_text(BASE)

    def boom_convergence(config):
        raise NonConvergence("newton stalled")

    def boom_property(config):
        raise ConservationDriftExceeded("charge drift 1e-3")

    monkeypatch.setitem(cli._DISPATCH, "solve", boom_convergence)
    assert cli.main(["--config", str(cfg), "--command", "solve"]) == 3
    assert "stalled" in capsys.readouterr().err

    monkeypatch.setitem(cli._DISPATCH, "solve", boom_property)
    assert cli.main(["--config", str(cfg), "--command", "solve"]) == 4
    assert "drift" in capsys.readouterr().err


_EXIT_CODES = {ValidationError: 2, ConvergenceError: 3, PropertyViolation: 4}
_FAILURES = [cls for cls in vars(errors).values()
             if isinstance(cls, type) and issubclass(cls, tuple(_EXIT_CODES))]


@pytest.mark.parametrize("cls", _FAILURES, ids=lambda cls: cls.__name__)
@settings(max_examples=10)
@given(message=st.text(max_size=40))
def test_main_maps_every_failure_class_to_its_exit_code(cls, message):
    (code,) = [c for base, c in _EXIT_CODES.items() if issubclass(cls, base)]

    def boom(config):
        raise cls(message)

    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.dict(cli._DISPATCH, {"solve": boom}), \
            contextlib.redirect_stderr(err):
        cfg = Path(tmp) / "run.ini"
        cfg.write_text(BASE)
        rc = cli.main(["--config", str(cfg), "--command", "solve"])
    assert rc == code
    assert err.getvalue() == f"error: {message}\n"


def test_flag_overrides_win_over_config(tmp_path, capsys):
    cfg = tmp_path / "run.ini"
    cfg.write_text(BASE + "\n[run]\ncommand = solve\nseed = 1\n")
    out = tmp_path / "o"
    rc = cli.main(["--config", str(cfg), "--command", "kernels",
                   "--seed", "2", "--out", str(out)])
    assert rc == 0
    assert (out / "kernel_samples.csv").exists()
    report = (out / "report.json").read_text()
    assert '"command": "kernels"' in report
    assert '"seed": 2' in report


FOCUSING = (BASE.replace("gamma = -1", "gamma = 1")
            .replace("mu = 1\n", "omega = 0.5\n")
            .replace("parameter = mu\ntarget = 1.2",
                     "parameter = omega\ntarget = 0.6"))


def test_every_table_cell_is_a_python_scalar():
    # write_csv hands rows to the csv module as they are, which writes a
    # float by repr only for a Python float (np.float64 would print its
    # numpy repr), so every command's tables hold int, float and str only
    bundles = [run_base(command) for command in COMMANDS]
    bundles.append(cli.run(config_for("sweep", base=FOCUSING)))
    for bundle in bundles:
        for name, (header, rows) in bundle.tables.items():
            assert rows, (bundle.command, name)
            for row in rows:
                assert len(row) == len(header), (bundle.command, name)
                kinds = {type(v) for v in row}
                assert kinds <= {int, float, str}, (bundle.command, name, kinds)


@pytest.mark.parametrize("target, code", [("file", errno.EEXIST),
                                          ("file/sub", errno.ENOTDIR)],
                         ids=["file", "under-file"])
def test_main_out_on_a_file_exits_2_before_the_run(tmp_path, capsys, target,
                                                   code):
    cfg = tmp_path / "run.ini"
    cfg.write_text(BASE)
    (tmp_path / "file").write_text("kept")
    out = tmp_path / target

    def never(config):
        raise AssertionError("the command ran")

    with mock.patch.dict(cli._DISPATCH, {"solve": never}):
        rc = cli.main(["--config", str(cfg), "--command", "solve",
                       "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err == (f"error: cannot write output: [Errno {code}] "
                            f"{os.strerror(code)}: {str(out)!r}\n")
    assert captured.out == ""
    assert (tmp_path / "file").read_text() == "kept"


def test_main_write_failure_after_the_run_exits_2(tmp_path, capsys):
    # report.json is a directory, which the pre-run check cannot see: the
    # run prints its results, then the write fails as bad output (exit 2)
    cfg = tmp_path / "run.ini"
    cfg.write_text(BASE)
    report = tmp_path / "out" / "report.json"
    report.mkdir(parents=True)
    rc = cli.main(["--config", str(cfg), "--command", "solve", "--seed", "3",
                   "--out", str(report.parent)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err == (f"error: cannot write output: [Errno {errno.EISDIR}] "
                            f"{os.strerror(errno.EISDIR)}: {str(report)!r}\n")
    assert captured.out.splitlines() == result_lines(run_base("solve"))


@st.composite
def small_runs(draw, command):
    """The INI text of one in-window run of `command` at small sizes."""
    alpha = draw(st.sampled_from([1.5, 2.0, 1.25, 1.9]))
    gamma = draw(st.sampled_from([-1, 1]))
    half_period = draw(st.sampled_from([T, 2.0, 4.5]))
    speed = (np.pi / half_period) ** (alpha - 1)
    omega_max = (np.pi / half_period) ** alpha
    frac = st.floats(-0.9, 0.9)
    parameter = draw(st.sampled_from(["c", "mu"] if gamma == -1 else ["omega"]))
    target = {"c": draw(frac) * speed, "mu": draw(st.floats(0.2, 3.0)),
              "omega": draw(frac) * omega_max}[parameter]
    positive = st.floats(1e-5, 1e-2)
    sections = {
        "problem": {"alpha": alpha, "sigma": draw(st.sampled_from([1, 2, 0.5])),
                    "gamma": gamma, "half_period": half_period},
        "run": {"command": command, "seed": draw(st.integers(0, 100))},
        "solver": {"c": draw(st.sampled_from([0.0, 0.3, -0.6])) * speed,
                   "mu": draw(st.floats(0.2, 3.0)),
                   "omega": draw(frac) * omega_max,
                   "n_modes": draw(st.sampled_from([32, 16, 24])),
                   "tol": draw(st.sampled_from([1e-6, 1e-4, 1e-8]))},
        "grid": {"n_grid": draw(st.sampled_from([128, 256])),
                 "sector_size": draw(st.sampled_from([16, 32]))},
        "kernels": {"n": draw(st.sampled_from([64, 128, 256])),
                    "times": ", ".join(repr(t) for t in draw(st.lists(
                        st.floats(0.05, 20.0), min_size=1, max_size=2)))},
        "evolve": {"dt": draw(positive), "steps": draw(st.integers(1, 100)),
                   "log_interval": draw(st.integers(1, 50))},
        "sweep": {"parameter": parameter, "target": target,
                  "steps": draw(st.integers(1, 3))},
        "stability": {"horizon_periods": draw(st.floats(0.01, 0.1)),
                      "dt": draw(st.floats(1e-3, 1e-2)),
                      "epsilons": ", ".join(repr(e) for e in draw(st.lists(
                          positive, min_size=1, max_size=2))),
                      "log_interval": draw(st.integers(1, 50))},
        "rearrange": {"trials": draw(st.integers(1, 10)),
                      "n_modes": draw(st.integers(1, 8)),
                      "n_grid": draw(st.sampled_from([64, 128]))},
    }
    return "".join(f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
                   + "\n" for name, keys in sections.items())


@pytest.mark.parametrize("command", COMMANDS)
@settings(max_examples=4)
@given(data=st.data())
def test_main_fuzz_exits_cleanly_with_key_value_lines(command, data):
    text = data.draw(small_runs(command), label="config")
    stdout, stderr = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, \
            contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(stderr):
        cfg = Path(tmp) / "run.ini"
        cfg.write_text(text)
        rc = cli.main(["--config", str(cfg), "--out", str(Path(tmp) / "out")])
    assert rc in (0, 2, 3, 4), text
    assert "Traceback" not in stderr.getvalue(), text
    lines = stdout.getvalue().splitlines()
    results = lines[:next((i for i, line in enumerate(lines)
                           if line.startswith("wrote ")), len(lines))]
    for line in results:
        assert re.fullmatch(r"[A-Za-z_][\w.]* = \S.*", line), (line, text)
    assert (rc == 0) == any(line.startswith("wrote ") for line in lines), text
