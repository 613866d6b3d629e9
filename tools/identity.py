"""Digest every task output of the benchmark workloads, and compare digests.

    python3 tools/identity.py --write FILE --seed N
    python3 tools/identity.py --compare A B

`--write` runs each task of the certify, orbital and cli workloads once,
from the task lists under bench/ (imported, never changed), against the
fnlslab under src/ of the checkout that holds this file.  It records one
digest per output field:

- arrays by dtype, shape and the sha256 of their bytes;
- floats by `float.hex`, ints, bools and strings verbatim;
- dataclasses field by field, dicts by key, lists and tuples by index;
- a package error by its type and text;
- an output directory (the cli tasks) by the sha256 of each file.

The scratch directory is written as <work> in every string, so the cli
stdout compares across runs.  BLAS runs the benchmark's thread count.

`--compare A B` prints each task and field whose digests differ and exits
1 if any do.  To check a change against its parent, run a copy of this
file in a checkout of the parent commit with the same seed, then compare
the two files.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import importlib
import json
import os
import sys
import tempfile
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = {"certify": "certify", "orbital": "orbital", "cli": "commands"}
MASK = "<work>"


class _Context:
    """What a benchmark task may use besides its config: a scratch
    directory; spans are not recorded."""

    def __init__(self, workdir):
        self.workdir = workdir

    def span(self, name):
        return nullcontext()


def _sha256(data):
    return hashlib.sha256(data).hexdigest()


def digest(value, path, out, workdir):
    """Add one entry to `out` per leaf of `value`, keyed by its field path."""
    import numpy as np  # here, so main sets the BLAS threads before numpy loads

    if isinstance(value, (bool, np.bool_)):
        out[path] = f"bool {bool(value)}"
    elif isinstance(value, (int, np.integer)):
        out[path] = f"int {int(value)}"
    elif isinstance(value, (float, np.floating)):
        out[path] = f"float {float(value).hex()}"
    elif isinstance(value, (complex, np.complexfloating)):
        out[path] = f"complex {float(value.real).hex()} {float(value.imag).hex()}"
    elif isinstance(value, str):
        out[path] = "str " + value.replace(str(workdir), MASK)
    elif value is None:
        out[path] = "None"
    elif isinstance(value, np.ndarray):
        if value.dtype.hasobject:
            raise TypeError(f"{path}: object array has no byte digest")
        data = np.ascontiguousarray(value).tobytes()
        out[path] = f"array {value.dtype.str} {value.shape} {_sha256(data)}"
    elif isinstance(value, Path):
        if not value.is_dir():
            out[path] = "path " + str(value).replace(str(workdir), MASK)
        for file in sorted(p for p in value.rglob("*") if p.is_file()):
            out[f"{path}/{file.relative_to(value).as_posix()}"] = \
                f"file {_sha256(file.read_bytes())}"
    elif isinstance(value, BaseException):
        text = str(value).replace(str(workdir), MASK)
        out[path] = f"raised {type(value).__name__}: {text}"
    elif dataclasses.is_dataclass(value) and not isinstance(value, type):
        for f in dataclasses.fields(value):
            digest(getattr(value, f.name), f"{path}.{f.name}", out, workdir)
    elif isinstance(value, dict):
        for key, item in value.items():
            label = f".{key}" if isinstance(key, str) else f"[{key!r}]"
            digest(item, path + label, out, workdir)
    elif isinstance(value, (list, tuple)):
        for i, item in enumerate(value):
            digest(item, f"{path}[{i}]", out, workdir)
    else:
        raise TypeError(f"{path}: no digest for {type(value).__name__}")
    return out


def load_tasks(seed, quick=False):
    """(workload/task name, task) for every task of the three workloads."""
    for path in (ROOT / "bench", ROOT / "src"):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    named = []
    for workload, module in WORKLOADS.items():
        for task in importlib.import_module(module).tasks(seed, quick=quick):
            named.append((f"{workload}/{task.name}", task))
    return named


def run_task(task, workdir):
    """The task's output, or the package error it raised."""
    from fnlslab.config import parse_config
    from fnlslab.errors import FnlslabError

    try:
        return task.run(parse_config(task.config), _Context(workdir))
    except FnlslabError as exc:
        return exc


def digests(named, workdir):
    """{task name: {field path: digest}} with each task run once."""
    table = {}
    for name, task in named:
        if name in table:
            raise ValueError(f"task name {name!r} is not unique")
        table[name] = digest(run_task(task, workdir), "output", {}, workdir)
    return table


def compare(a, b):
    """One line per task or field whose digests differ between a and b."""
    lines = []
    if a["seed"] != b["seed"]:
        lines.append(f"seed: {a['seed']} != {b['seed']}")
    ta, tb = a["tasks"], b["tasks"]
    for task in list(ta) + [t for t in tb if t not in ta]:
        if task not in ta or task not in tb:
            lines.append(f"{task}: only in {'A' if task in ta else 'B'}")
            continue
        fa, fb = ta[task], tb[task]
        for field in list(fa) + [f for f in fb if f not in fa]:
            if fa.get(field) != fb.get(field):
                lines.append(f"{task}: {field}: {fa.get(field)} != {fb.get(field)}")
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--write", metavar="FILE", type=Path)
    mode.add_argument("--compare", nargs=2, metavar=("A", "B"), type=Path)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    if args.compare:
        a, b = (json.loads(p.read_text(encoding="utf-8")) for p in args.compare)
        lines = compare(a, b)
        for line in lines:
            print(line)
        print(f"{len(lines)} difference(s) in {len(a['tasks'])} and "
              f"{len(b['tasks'])} tasks")
        return 1 if lines else 0
    threads = str(min(2, len(os.sched_getaffinity(0))))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = threads
    with tempfile.TemporaryDirectory() as tmp:
        table = digests(load_tasks(args.seed), Path(tmp))
    args.write.write_text(json.dumps({"seed": args.seed, "tasks": table},
                                     indent=1) + "\n", encoding="utf-8")
    fields = sum(len(t) for t in table.values())
    print(f"{len(table)} tasks, {fields} fields -> {args.write}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
