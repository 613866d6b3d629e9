"""Result bundles, and the one place where a result becomes text.

Results leave a run as sorted `key = value` stdout lines
(`result_lines`), `report.json` with sorted keys, and one CSV per table
(`write_csv`).  `_pyify` is the only numpy-to-Python normalizer, table
rows hold Python int, float and str only, and every float is written by
repr (shortest round-trip), so identical config + seed reproduces every
byte.  Reports carry no wall-clock information for the same reason;
provenance records the package version, seed, and tolerances.
Reports follow the versioned schema shipped in fnlslab/schema.  The
config and its windows already fix every value the schema bounds, so
`report_dict` checks only what a library caller can set freely: the
command, the seed, and that the results are a mapping.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .config import _SECTIONS, COMMANDS, RunConfig
from .errors import ValidationError
from .params import EPS_ANTI, EPS_FFT, EPS_REAL

SCHEMA_NAME = "report-v1"


@dataclass(frozen=True)
class ResultBundle:
    """Everything one run produced: scalars, tables, and the config echo.

    `results` holds JSON-serializable scalars and small structures;
    `tables` maps a table name to (header, rows) destined for CSV.  The
    command is the config's.
    """

    config: RunConfig
    results: dict
    tables: dict = field(default_factory=dict)


def _pyify(obj):
    """Python bools, ints, floats, lists and str-keyed dicts in place of
    numpy scalars, arrays and tuples, for every written form."""
    if isinstance(obj, dict):
        return {str(k): _pyify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_pyify(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_pyify(v) for v in obj.tolist()]
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    return obj


def report_dict(bundle: ResultBundle) -> dict:
    """Schema-shaped report; raises ValidationError if it does not fit."""
    cfg = bundle.config
    if cfg.command not in COMMANDS:
        problem = f"command {cfg.command!r} is not one of {', '.join(COMMANDS)}"
    elif cfg.seed < 0:
        problem = f"seed {cfg.seed} is negative"
    elif not isinstance(bundle.results, dict):
        problem = f"results are a {type(bundle.results).__name__}, not a dict"
    else:
        problem = None
    if problem:
        raise ValidationError(f"report does not fit {SCHEMA_NAME}: {problem}")
    return {
        "schema": SCHEMA_NAME,
        "command": cfg.command,
        "provenance": {
            "version": _package_version(),
            "seed": int(cfg.seed),
            "tolerances": {
                "eps_fft": EPS_FFT,
                "eps_real": EPS_REAL,
                "eps_anti": EPS_ANTI,
                "profile_tol": float(cfg.solver["tol"]),
            },
        },
        "config": {name: _pyify(vars(cfg.problem) if name == "problem" else
                                getattr(cfg, name))
                   for name in _SECTIONS if name != "run"},
        "results": _pyify(bundle.results),
    }


def render_report(bundle: ResultBundle) -> str:
    return json.dumps(report_dict(bundle), sort_keys=True, indent=2) + "\n"


def result_lines(bundle: ResultBundle) -> list[str]:
    """The stdout form of the results: one `key = value` line per scalar,
    keys dotted and sorted, None as `none`; lists stay in report.json."""
    lines = []

    def walk(prefix, obj):
        if isinstance(obj, dict):
            for k in sorted(obj):
                walk(f"{prefix}{k}.", obj[k])
        elif obj is None:
            lines.append(f"{prefix[:-1]} = none")
        elif isinstance(obj, (str, int, float)):
            lines.append(f"{prefix[:-1]} = {obj}")

    walk("", _pyify(bundle.results))
    return lines


def write_csv(path: Path, header, rows) -> None:
    """A header row, then `rows`, whose cells are Python int, float and
    str only: the csv module writes a float by repr and an int by str."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def emit(bundle: ResultBundle, out_dir) -> list[Path]:
    """Write report.json, config.ini, and one CSV per table.

    Returns the written paths, sorted.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    report_path = out / "report.json"
    report_path.write_text(render_report(bundle), encoding="utf-8")
    written.append(report_path)
    echo_path = out / "config.ini"
    echo_path.write_text(bundle.config.echo, encoding="utf-8")
    written.append(echo_path)
    for name, (header, rows) in bundle.tables.items():
        path = out / f"{name}.csv"
        write_csv(path, header, rows)
        written.append(path)
    return sorted(written)


def _package_version() -> str:
    from . import __version__
    return __version__
