"""fnlslab benchmark: one workload per process, end-to-end or traced.

    python3 bench/run.py --workload certify|orbital|cli --seed N \
        --seconds S --trace 0|1
    python3 bench/run.py --self-check

A run first times SETUP_REPEATS fresh interpreters that import fnlslab
and parse the workload's configs (setup_s is their median), then runs
whole rounds of the workload's tasks, in order, until the next round
would end past --seconds (at least one round).  Every output is checked
after its round, outside the timed region.  With --trace 0 the last
stdout line carries the end-to-end metrics.  With --trace 1 an untraced
warm-up round is followed by alternating traced and untraced rounds, and
the line carries the per-layer metrics of the traced rounds plus the
tracing overhead.  The line before it is the
run record (machine, versions, tasks attempted and failed).  Spans and
records are also written under bench/out/.

No worker pools are used and BLAS runs min(2, nproc) threads.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 7
BLAS_THREADS = min(2, len(os.sched_getaffinity(0)))

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

WORKLOADS = {"certify": "certify", "orbital": "orbital", "cli": "commands"}


class Context:
    """What a task may use besides its config: a scratch directory and,
    in traced rounds, the tracer's spans."""

    def __init__(self, workdir, tracer=None):
        self.workdir = workdir
        self.tracer = tracer

    def span(self, name):
        return self.tracer.span(name) if self.tracer else nullcontext()


def measure_setup(tasks):
    """Median time from spawning a fresh interpreter to its report that
    fnlslab is imported and the configs are parsed (exit not included)."""
    payload = json.dumps([t.config for t in tasks])
    walls, inner = [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, str(HERE / "probe.py"), str(SRC)],
                              stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                              text=True) as proc:
            proc.stdin.write(payload)
            proc.stdin.close()
            line = proc.stdout.readline()
            walls.append(time.perf_counter() - t0)
            proc.stdout.read()
            if proc.wait(timeout=120) != 0 or not line:
                raise RuntimeError("set-up probe failed")
        inner.append(json.loads(line))
    return {"setup_s": statistics.median(walls),
            "import_s": statistics.median(x["import_s"] for x in inner),
            "parse_s": statistics.median(x["parse_s"] for x in inner),
            "samples_s": walls}


def run_round(tasks, ctx):
    """Run every task once; return (wall, task times, outputs, errors)."""
    from fnlslab import config as fconfig
    from fnlslab.errors import FnlslabError

    times, outputs, errors = [], [], []
    start = time.perf_counter()
    for task in tasks:
        t0 = time.perf_counter()
        try:
            out = task.run(fconfig.parse_config(task.config), ctx)
            err = None
        except FnlslabError as exc:
            out, err = None, f"{type(exc).__name__}: {exc}"
        times.append(time.perf_counter() - t0)
        outputs.append(out)
        errors.append(err)
    return time.perf_counter() - start, times, outputs, errors


def check_round(tasks, outputs, errors, log):
    """Check each output; return (failed count, problems)."""
    failed = 0
    problems = []
    for task, out, err in zip(tasks, outputs, errors):
        if err is not None:
            failed += 1
            tag = "known fault" if task.known_fault else "UNEXPECTED failure"
            log.append(f"{task.name}: {tag}: {err}")
            continue
        problems += [f"{task.name}: {p}" for p in task.check(out)]
    return failed, problems


def run_record(args, rounds, attempted, failed, log, setup):
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        openblas = "unknown"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                              capture_output=True, timeout=30)
        commit = proc.stdout.strip() or None
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted((SRC / "fnlslab").rglob("*.py")))
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "rounds": rounds, "attempted": attempted,
        "failed": failed, "failures": sorted(set(log)),
        "setup_samples_s": setup["samples_s"],
        "nproc": os.cpu_count(), "cpu_model": cpu,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "blas": openblas,
        "blas_threads": BLAS_THREADS, "commit": commit,
        "src_lines": src_lines,
    }


def benchmark(args):
    module = importlib.import_module(WORKLOADS[args.workload])
    tasks = module.tasks(args.seed)
    setup = measure_setup(tasks)

    import fnlslab  # noqa: F401  (imported before any round is timed)
    from tracer import Tracer

    OUT.mkdir(parents=True, exist_ok=True)
    ctx = Context(OUT / f"work-{args.workload}-{os.getpid()}")
    tracer = Tracer() if args.trace else None
    walls = {False: [], True: []}
    times, log, problems = [], [], []
    counts = {"attempted": 0, "failed": 0}

    def one_round(traced):
        if traced:
            tracer.install()
            ctx.tracer = tracer
        try:
            wall, t, outputs, errors = run_round(tasks, ctx)
        finally:
            if traced:
                tracer.uninstall()
                ctx.tracer = None
        walls[traced].append(wall)
        times.extend(t)
        counts["attempted"] += len(tasks)
        n_failed, found = check_round(tasks, outputs, errors, log)
        counts["failed"] += n_failed
        problems.extend(found)
        return wall

    try:
        # Traced runs open with an untraced round that is left out of the
        # overhead, so first-call costs do not count against either side.
        if tracer:
            one_round(False)
        while True:
            step = (one_round(True) if tracer else 0.0) + one_round(False)
            if sum(walls[False]) + sum(walls[True]) + step > args.seconds:
                break
    finally:
        shutil.rmtree(ctx.workdir, ignore_errors=True)
    attempted, failed = counts["attempted"], counts["failed"]

    rounds = len(walls[False]) + len(walls[True])
    record = run_record(args, rounds, attempted, failed, log, setup)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer:
        overhead = (statistics.median(walls[True])
                    - statistics.median(walls[False][1:]))
        metrics = tracer.metrics(len(walls[True]), setup, overhead)
        tracer.dump(OUT / f"spans-{tag}.jsonl")
    else:
        metrics = {
            "setup_s": {"value": setup["setup_s"], "unit": "s"},
            "wall_s": {"value": statistics.median(walls[False]), "unit": "s"},
            "task_p50_s": {"value": statistics.median(times), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0, "unit": "MB"},
        }
    record["round_walls_s"] = {"untraced": walls[False], "traced": walls[True]}
    record["task_times_s"] = times
    record["problems"] = problems[:50]
    (OUT / f"record-{tag}.json").write_text(json.dumps(record, indent=2) + "\n",
                                            encoding="utf-8")
    for line in problems[:50]:
        print(f"check failed: {line}", file=sys.stderr)
    print("record " + json.dumps(record))
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true",
                        help="run every workload's checks on tiny inputs and "
                             "show that they reject corrupted outputs")
    args = parser.parse_args(argv)
    if not (SRC / "fnlslab" / "__init__.py").is_file():
        print(f"error: no fnlslab sources under {SRC}", file=sys.stderr)
        return 2
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    sys.path.insert(0, str(SRC))
    if args.self_check:
        import selfcheck
        return selfcheck.main(Context, run_round, check_round, OUT)
    if args.workload is None:
        parser.error("--workload is required")
    return benchmark(args)


if __name__ == "__main__":
    sys.exit(main())
