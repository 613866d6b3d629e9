"""Digest every task output of the benchmark workloads, and compare digests.

    python3 tools/identity.py --write FILE --seed N
    python3 tools/identity.py --compare A B

`--write` runs each task of the certify, orbital and cli workloads once,
from the task lists under bench/ (imported, never changed), against the
fnlslab under src/ of the checkout that holds this file.  It records one
digest per output field:

- arrays by dtype, shape and the sha256 of their bytes, float and complex
  arrays with their values as well;
- floats by `float.hex`, ints, bools and strings verbatim;
- dataclasses field by field, dicts by key, lists and tuples by index;
- a cli task's stdout (its `log`) by its `key = value` lines, each the
  field log.key holding an int, a float or a string; the other lines stay
  one string;
- a package error by its type and text;
- an output directory (the cli tasks) by the sha256 of each file, a CSV
  file with the values of each numeric column as well, except each
  `report.json`, which is digested by its JSON leaves as above.

A digest that carries values is written as a [digest, {column: values}]
pair, the values as the base64 of their bytes.

The scratch directory is written as <work> in every string, so the cli
stdout compares across runs.  BLAS runs the benchmark's thread count.

`--compare A B` prints each task and field whose digests differ and exits
1 if any do.  A float that moved is printed with its value in A and in B,
|d| = |B - A| and rel = |d| / max(1, |A|); a float array or a numeric CSV
column that moved, with the largest |d| and rel over its entries.  The
last line counts the moved fields and names the largest relative move.
To check a change against its parent, run a copy of this file in a
checkout of the parent commit with the same seed, then compare the two
files.
"""

from __future__ import annotations

import argparse
import base64
import csv
import dataclasses
import hashlib
import importlib
import io
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


def _packed(values):
    """[dtype, base64 of the bytes] of a numeric array."""
    data = values.ravel()
    return [data.dtype.str, base64.b64encode(data.tobytes()).decode("ascii")]


def _unpacked(packed):
    import numpy as np

    return np.frombuffer(base64.b64decode(packed[1]), dtype=packed[0])


def _csv_columns(text):
    """{header: packed float64 values} of each numeric column of a CSV."""
    import numpy as np

    rows = list(csv.reader(io.StringIO(text)))
    if len(rows) < 2 or len({len(row) for row in rows}) != 1:
        return {}
    columns = {}
    for name, *cells in zip(*rows):
        try:
            columns[name] = _packed(np.array([float(c) for c in cells]))
        except ValueError:
            continue
    return columns


def _scalar(text):
    """An int or a float if the text spells one, else the text."""
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def _digest_stdout(text, path, out, workdir):
    """One field path.key per `key = value` line of stdout (a key without
    blanks, first occurrence); the other lines stay one string at path."""
    rest = []
    for line in text.splitlines(keepends=True):
        key, sep, raw = line.rstrip("\n").partition(" = ")
        label = f"{path}.{key}"
        if sep and key.split() == [key] and label not in out:
            digest(_scalar(raw), label, out, workdir)
        else:
            rest.append(line)
    digest("".join(rest), path, out, workdir)


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
        data = np.ascontiguousarray(value)
        text = f"array {value.dtype.str} {value.shape} {_sha256(data.tobytes())}"
        out[path] = [text, {"": _packed(data)}] if value.dtype.kind in "fc" else text
    elif isinstance(value, Path):
        if not value.is_dir():
            out[path] = "path " + str(value).replace(str(workdir), MASK)
        for file in sorted(p for p in value.rglob("*") if p.is_file()):
            label = f"{path}/{file.relative_to(value).as_posix()}"
            if file.name == "report.json":
                digest(json.loads(file.read_text(encoding="utf-8")), label, out, workdir)
                continue
            text = f"file {_sha256(file.read_bytes())}"
            columns = (_csv_columns(file.read_text(encoding="utf-8"))
                       if file.suffix == ".csv" else {})
            out[label] = [text, columns] if columns else text
    elif isinstance(value, BaseException):
        text = str(value).replace(str(workdir), MASK)
        out[path] = f"raised {type(value).__name__}: {text}"
    elif dataclasses.is_dataclass(value) and not isinstance(value, type):
        for f in dataclasses.fields(value):
            digest(getattr(value, f.name), f"{path}.{f.name}", out, workdir)
    elif isinstance(value, dict):
        for key, item in value.items():
            label = f".{key}" if isinstance(key, str) else f"[{key!r}]"
            if key == "log" and isinstance(item, str):
                _digest_stdout(item, path + label, out, workdir)
            else:
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


def _float(entry):
    """The value of a float digest, else None."""
    if isinstance(entry, str) and entry.startswith("float "):
        return float.fromhex(entry.split()[1])
    return None


def float_move(da, db):
    """(A, B, |d|, rel) of two float digests, else None."""
    fa, fb = _float(da), _float(db)
    if fa is None or fb is None:
        return None
    d = abs(fb - fa)
    return fa, fb, d, d / max(1.0, abs(fa))


def column_moves(da, db):
    """(column, largest |d|, largest rel) of each packed column of two
    digests whose values moved, keeping its length; the column of an
    array is named ""."""
    import numpy as np

    ca = da[1] if isinstance(da, list) else {}
    cb = db[1] if isinstance(db, list) else {}
    moves = []
    for name, packed in ca.items():
        if name not in cb or cb[name] == packed:
            continue
        va, vb = _unpacked(packed), _unpacked(cb[name])
        if va.shape == vb.shape and va.size:
            d = np.abs(vb - va)
            moves.append((name, float(np.max(d)),
                          float(np.max(d / np.maximum(1.0, np.abs(va))))))
    return moves


def _text(entry):
    return entry[0] if isinstance(entry, list) else entry


def compare(a, b):
    """One line per task or field whose digests differ between a and b (a
    moved float with its values, |d| and rel; a moved float array or
    numeric CSV column with its largest |d| and rel), and the closing
    summary line: the fields moved and the largest relative move."""
    lines = []
    if a["seed"] != b["seed"]:
        lines.append(f"seed: {a['seed']} != {b['seed']}")
    ta, tb = a["tasks"], b["tasks"]
    moves = []
    for task in list(ta) + [t for t in tb if t not in ta]:
        if task not in ta or task not in tb:
            lines.append(f"{task}: only in {'A' if task in ta else 'B'}")
            continue
        fa, fb = ta[task], tb[task]
        for field in list(fa) + [f for f in fb if f not in fa]:
            da, db = fa.get(field), fb.get(field)
            if da == db:
                continue
            if da is None or db is None:
                side = "A" if db is None else "B"
                lines.append(f"{task}: {field}: only in {side}: {_text(da or db)}")
                continue
            move = float_move(da, db)
            if move is None:
                line = f"{task}: {field}: {_text(da)} != {_text(db)}"
                for name, d, rel in column_moves(da, db):
                    column = f" column {name}" if name else ""
                    line += f";{column} max |d| = {d:.3e}, max rel = {rel:.3e}"
                    moves.append((rel, f"{task}: {field}{column}"))
                lines.append(line)
            else:
                lines.append(f"{task}: {field}: float {move[0]!r} -> {move[1]!r}, "
                             f"|d| = {move[2]:.3e}, rel = {move[3]:.3e}")
                moves.append((move[3], f"{task}: {field}"))
    text = f"{len(lines)} field(s) moved in {len(ta)} and {len(tb)} tasks"
    if moves:
        text += "; largest relative float move {:.3e} ({})".format(*max(moves))
    return lines, text


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--write", metavar="FILE", type=Path)
    mode.add_argument("--compare", nargs=2, metavar=("A", "B"), type=Path)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    if args.compare:
        a, b = (json.loads(p.read_text(encoding="utf-8")) for p in args.compare)
        lines, text = compare(a, b)
        for line in lines:
            print(line)
        print(text)
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
