"""Self-check: every workload's checks on tiny inputs, and on corrupted
outputs, which they must reject.

Run through `python3 bench/run.py --self-check`; takes seconds.
"""

from __future__ import annotations

import copy
import shutil
import sys

import numpy as np

import certify
import commands
import orbital


def _nudge_coefficient(outputs, tasks):
    """certify: a profile coefficient nudged by 1e-6."""
    i = next(i for i, t in enumerate(tasks) if t.check is certify.check_point)
    out = dict(outputs[i])
    coeff = out["coeff"].copy()
    j = int(np.argmax(np.abs(coeff)))
    coeff[j] += 1e-6
    out["coeff"] = coeff
    return tasks[i].check(out), "direct-sum profile residual"


def _negate_kernel_sample(outputs, tasks):
    """cli: one sample of the alpha = 2 kernel table negated on disk."""
    i = next(i for i, t in enumerate(tasks)
             if t.name.startswith("kernels") and "alpha = 2.0" in t.config)
    path = outputs[i]["dir"] / "kernel_samples.csv"
    lines = path.read_text(encoding="utf-8").splitlines()
    row = 1 + int(np.argmax([abs(float(line.split(",")[2])) for line in lines[1:]]))
    cells = lines[row].split(",")
    cells[2] = repr(-float(cells[2]))
    lines[row] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return tasks[i].check(outputs[i]), "kernel vs lattice sum"


def _break_momentum(outputs, tasks):
    """orbital: a perturbation with N(phi + v) != 0."""
    i = next(i for i, t in enumerate(tasks) if t.check is orbital.check_stability)
    out = copy.deepcopy(outputs[i])
    v = out["perturbations"][0]
    v[np.asarray(out["k"]) == 1] += 1e-6
    return tasks[i].check(out), "N(phi + v)"


CASES = [("certify", certify, _nudge_coefficient),
         ("orbital", orbital, _break_momentum),
         ("cli", commands, _negate_kernel_sample)]


def main(context, run_round, check_round, out_dir):
    ok = True
    for name, module, corrupt in CASES:
        tasks = module.tasks(seed=0, quick=True)
        ctx = context(out_dir / f"selfcheck-{name}")
        try:
            wall, _, outputs, errors = run_round(tasks, ctx)
            log = []
            failed, problems = check_round(tasks, outputs, errors, log)
            clean = failed == 0 and not problems
            print(f"{name}: {len(tasks)} tasks in {wall:.2f} s, "
                  f"{'checks pass' if clean else 'CHECKS FAIL'}")
            for line in log + problems:
                print(f"  {line}")
            found, expected = corrupt(outputs, tasks)
            caught = any(expected in p for p in found)
            what = corrupt.__doc__.split(": ", 1)[1].rstrip(".")
            print(f"{name}: corrupted output ({what}) "
                  f"{'rejected' if caught else 'NOT REJECTED'}")
            ok = ok and clean and caught
        finally:
            shutil.rmtree(ctx.workdir, ignore_errors=True)
    print("self-check " + ("passed" if ok else "FAILED"))
    sys.stdout.flush()
    return 0 if ok else 1
