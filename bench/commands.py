"""Workload `cli`: every fnlslab command through `fnlslab.cli.main --out`.

solve; spectrum defocusing (with Jordan chains) and focusing at sector
size 512; kernels at alpha = 1.5 with n = 4096 and at alpha = 2;
rearrange with 500 trials; evolve; sweeps in c, mu and omega; report
over a short horizon.  The c-sweep stops at c = 0.2: at alpha = 1.5,
mu = 1 the branch reaches the single-mode plane wave near c = 0.28, and
past it every point "converges" in 0 Newton iterations.  This is the
only workload through config, reports, kernels, rearrange and
continuation; it shares the transforms and stepper with `orbital`, one
trajectory at a time on larger grids.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
from pathlib import Path

import numpy as np

import reference as ref
from common import Task, bound, ini, problem, sign_changes

SCHEMA = Path(__file__).resolve().parent.parent / "src" / "fnlslab" / "schema" / "report-v1.json"


def _configs(seed, quick):
    small = {"n_modes": 16} if quick else {}
    size = 64 if quick else 512
    defoc = problem(1.5, 1, -1)
    focus = problem(1.5, 1, 1)
    run = {"seed": seed}
    return [
        ("solve", ini(problem=defoc, run={"command": "solve", **run},
                      solver={"mu": 1, **small}, grid={"n_grid": 1024})),
        ("spectrum", ini(problem=defoc, run={"command": "spectrum", **run},
                         solver={"mu": 1, **small}, grid={"sector_size": size})),
        ("spectrum", ini(problem=focus, run={"command": "spectrum", **run},
                         solver={"omega": 0.5, **small},
                         grid={"sector_size": size})),
        ("kernels", ini(problem=defoc, run={"command": "kernels", **run},
                        kernels={"times": "0.1, 1, 10",
                                 "n": 256 if quick else 4096})),
        ("kernels", ini(problem=problem(2.0, 1, -1),
                        run={"command": "kernels", **run},
                        kernels={"times": "0.1, 1, 10", "n": 1024})),
        ("rearrange", ini(problem=defoc, run={"command": "rearrange", **run},
                          rearrange={"trials": 10 if quick else 500,
                                     "n_modes": 16, "n_grid": 1024})),
        ("evolve", ini(problem=defoc, run={"command": "evolve", **run},
                       solver={"mu": 1, **small},
                       evolve={"dt": 1e-4, "steps": 1000 if quick else 10000,
                               "log_interval": 1000})),
        ("sweep", ini(problem=defoc, run={"command": "sweep", **run},
                      solver={"mu": 1, **small},
                      sweep={"parameter": "c", "target": 0.2,
                             "steps": 2 if quick else 16})),
        ("sweep", ini(problem=defoc, run={"command": "sweep", **run},
                      solver={"mu": 1, **small},
                      sweep={"parameter": "mu", "target": 2,
                             "steps": 2 if quick else 8})),
        ("sweep", ini(problem=focus, run={"command": "sweep", **run},
                      solver={"omega": 0.5},
                      sweep={"parameter": "omega", "target": 0.8,
                             "steps": 2 if quick else 8})),
        ("report", ini(problem=defoc, run={"command": "report", **run},
                       solver={"mu": 1, **small}, grid={"sector_size": 128},
                       stability={"horizon_periods": 0.2 if quick else 2,
                                  "dt": 1e-3, "epsilons": "0.0001, 0.001",
                                  "log_interval": 500})),
    ]


def _runner(index, command):
    def run(config, ctx):
        from fnlslab import cli

        workdir = ctx.workdir / f"{index:02d}-{command}"
        workdir.mkdir(parents=True, exist_ok=True)
        path = workdir / "run.ini"
        path.write_text(config.echo, encoding="utf-8")
        out_dir = workdir / "out"
        sink = io.StringIO()
        with ctx.span(f"cli.{command}"), contextlib.redirect_stdout(sink), \
                contextlib.redirect_stderr(sink):
            rc = cli.main(["--config", str(path), "--out", str(out_dir)])
        return {"rc": rc, "dir": out_dir, "config": config.echo,
                "command": command, "log": sink.getvalue()}
    return run


def _table(out_dir, name):
    with open(out_dir / f"{name}.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], [[float(v) if _is_number(v) else v for v in row]
                     for row in rows[1:]]


def _is_number(text):
    try:
        float(text)
    except ValueError:
        return False
    return True


def check_command(out):
    if out["rc"] != 0:
        return [f"exit code {out['rc']}: {out['log'].strip()[-300:]}"]
    import jsonschema

    problems = []
    d = out["dir"]
    report = json.loads((d / "report.json").read_text(encoding="utf-8"))
    schema = json.loads(SCHEMA.read_text(encoding="utf-8"))
    try:
        jsonschema.validate(report, schema)
    except jsonschema.ValidationError as exc:
        problems.append(f"report.json does not fit the schema: {exc.message}")
    if (d / "config.ini").read_bytes() != out["config"].encode("utf-8"):
        problems.append("config.ini is not a byte-exact echo of the input")
    problems += _CHECKS[out["command"]](report, d)
    return problems


def _check_solve(report, d):
    cfg, res = report["config"], report["results"]
    _, rows = _table(d, "profile_modes")
    k = np.array([int(r[0]) for r in rows])
    coeff = np.array([r[1] + 1j * r[2] for r in rows])
    p = cfg["problem"]
    problems = []
    residual = ref.profile_residual(k, coeff, p["half_period"], p["alpha"],
                                    p["sigma"], p["gamma"], res["profile"]["omega"])
    bound(problems, "direct-sum profile residual", residual, cfg["solver"]["tol"])
    return problems


def _check_spectrum(report, d):
    cfg, res = report["config"], report["results"]
    p = cfg["problem"]
    problems = []
    morse = (0, 1) if p["gamma"] == -1 else (1, 0)
    if (res["morse_plus"], res["morse_minus"]) != morse:
        problems.append(f"Morse counts {(res['morse_plus'], res['morse_minus'])} "
                        f"!= {morse}")
    for which, a in res["ker_alignments"].items():
        if a["near_zero_count"] != 1 or not a["cosine"] >= 0.999:
            problems.append(f"{which}: kernel count {a['near_zero_count']}, "
                            f"cosine {a['cosine']:.6f}")
    _, rows = _table(d, "eigenfunctions")
    ground = {}
    for which, sector, rank, _, coord in rows:
        if rank == 0:
            ground.setdefault((which, sector), []).append(coord)
    for (which, sector), vec in ground.items():
        changes = sign_changes(ref.sector_values(sector, np.array(vec),
                                                 p["half_period"]))
        if changes:
            problems.append(f"{which} {sector}: ground state changes sign "
                            f"{changes} times")
    if p["gamma"] == -1:
        jo = res["jordan"]
        bound(problems, "chain_mu_inf", jo["chain_mu_inf"], 1e-5)
        bound(problems, "chain_c_inf", jo["chain_c_inf"], 1e-5)
        bound(problems, "|dQ/dmu - 1|", abs(jo["dQ_dmu"] - 1.0), 1e-6)
    return problems


def _check_kernels(report, d):
    cfg, res = report["config"], report["results"]
    problems = []
    for margins in res["positivity"]:
        for key in ("interior_min", "decrease_min", "even_pair_min", "odd_pair_min"):
            if not margins[key] > 0.0:
                problems.append(f"t = {margins['t_relative']}: {key} = "
                                f"{margins[key]:.3e} not positive")
    if res["alpha"] == 2.0:
        _, rows = _table(d, "kernel_samples")
        rows = np.array(rows)
        T = cfg["problem"]["half_period"]
        for t in np.unique(rows[:, 0]):
            sel = rows[rows[:, 0] == t]
            err = float(np.max(np.abs(sel[:, 2] - ref.gaussian_lattice_kernel(
                sel[:, 1], t, T))))
            bound(problems, f"t = {t}: alpha = 2 kernel vs lattice sum", err, 1e-10)
    return problems


def _check_rearrange(report, d):
    cfg, res = report["config"], report["results"]
    from fnlslab import fields, rearrange

    problems = []
    if res["polya_szego"]["violations"] or res["potential_ordering"]["violations"]:
        problems.append(f"rearrangement violations: {res['polya_szego']['violations']}"
                        f" kinetic, {res['potential_ordering']['violations']} ordering")
    # the rearrangements are permutations of the samples
    rc = cfg["rearrange"]
    rng = np.random.default_rng(report["provenance"]["seed"])
    T = cfg["problem"]["half_period"]
    for _ in range(3):
        g = fields.to_grid(fields.real_part(fields.random_field(T, rc["n_modes"], rng)),
                           rc["n_grid"])
        for arranged in (rearrange.rearrange_star(g), rearrange.rearrange_hash(g)):
            if not np.array_equal(np.sort(arranged.values.real),
                                  np.sort(g.values.real)):
                problems.append("rearrangement does not preserve the sample multiset")
    return problems


def _check_evolve(report, d):
    res = report["results"]
    problems = []
    bound(problems, "rho_final", res["rho_final"], 1e-8)
    bound(problems, "worst drift", max(res["drift"].values()), 1e-8)
    return problems


def _check_sweep(report, d):
    cfg, res = report["config"], report["results"]
    problems = []
    if res["failed_at"] is not None or res["points"] != cfg["sweep"]["steps"] + 1:
        problems.append(f"sweep stopped at {res['failed_at']} after "
                        f"{res['points']} points")
    _, rows = _table(d, "sweep")
    rows = np.array(rows)
    charge, momentum, residual = rows[:, 4], rows[:, 5], rows[:, 6]
    bound(problems, "sweep residual", float(np.max(residual)), cfg["solver"]["tol"])
    T = cfg["problem"]["half_period"]
    if res["parameter"] in ("c", "mu"):
        # the requested charges, not the profile's own mu (which is Q)
        mu = cfg["solver"]["mu"]
        if res["parameter"] == "mu":
            mu = np.linspace(mu, cfg["sweep"]["target"], cfg["sweep"]["steps"] + 1)
        bound(problems, "|Q - mu| along the sweep",
              float(np.max(np.abs(charge - mu))), 1e-12)
    if res["parameter"] == "c":
        if not np.all(np.diff(momentum) * np.sign(cfg["sweep"]["target"]) > 0):
            problems.append("momentum is not monotone in c")
        # a single mode k = +-1 has |N| = (pi/T) Q exactly
        plane = np.abs(np.abs(momentum) - np.pi / T * charge)
        if not np.all(plane > 1e-3 * charge):
            problems.append("a swept point is the single-mode plane wave")
    return problems


def _check_report(report, d):
    res = report["results"]
    problems = []
    for run in res["runs"]:
        bound(problems, "C_emp", run["c_emp"], 50.0)
        bound(problems, "worst drift", max(run["drift"].values()), 1e-6)
    if not res["coercivity"]["positive"]:
        problems.append("coercivity minima are not all positive")
    return problems


_CHECKS = {"solve": _check_solve, "spectrum": _check_spectrum,
           "kernels": _check_kernels, "rearrange": _check_rearrange,
           "evolve": _check_evolve, "sweep": _check_sweep, "report": _check_report}


def tasks(seed, quick=False):
    """The cli task list; rearrangement trials and report perturbations
    derive from the seed through run.seed."""
    return [Task(f"{command} #{i}", text, _runner(i, command), check_command)
            for i, (command, text) in enumerate(_configs(seed, quick))]
