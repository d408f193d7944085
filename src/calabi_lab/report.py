"""Report envelopes and deterministic serialization.

A report is a plain dict with a fixed key set; identical configurations
produce byte-identical json and csv output (sorted keys, shortest
round-trip float repr, no timestamps, deterministic record order).
"""

from __future__ import annotations

import csv
import fractions
import io
import json
import os
from typing import Any

import numpy as np

from . import __version__

SCHEMA_VERSION = 1

__all__ = [
    "record",
    "verdict",
    "make_envelope",
    "to_json",
    "to_csv",
    "to_table",
    "validate_report",
    "thread_count",
]


def verdict(residual: float, tolerance: float) -> str:
    """The pass rule of a check record: pass iff the residual is within its
    tolerance."""
    return "pass" if residual <= tolerance else "fail"


def record(name: str, anchor: str, values, status: str = "info", **measured) -> dict:
    """A report record.  ``residual`` is None unless ``measured`` gives it;
    ``measured`` adds any other measured field (a check's ``tolerance``)."""
    return {"name": name, "anchor": anchor, "status": status, "residual": None,
            **measured, "values": values}


def make_envelope(command: str, config: dict, records: list[dict]) -> dict:
    passed = all(r.get("status") != "fail" for r in records)
    return {
        "tool": "calabi-lab",
        "version": __version__,
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "config": config,
        "records": records,
        "passed": passed,
    }


def _json_default(obj: Any) -> Any:
    """json.dumps hook for the values json cannot encode itself: numpy arrays
    and scalars, fractions and complex numbers."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, fractions.Fraction):
        return {"num": obj.numerator, "den": obj.denominator}
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _dumps(obj: Any, **kwargs) -> str:
    return json.dumps(obj, sort_keys=True, default=_json_default, **kwargs)


def to_json(env: dict) -> str:
    return _dumps(env, separators=(",", ":"), allow_nan=False) + "\n"


CSV_COLUMNS = ["name", "anchor", "status", "residual", "value"]


def to_csv(env: dict) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for r in env["records"]:
        values = {k: v for k, v in r.items()
                  if k not in ("name", "anchor", "status", "residual")}
        writer.writerow([
            r.get("name", ""),
            r.get("anchor", ""),
            r.get("status", ""),
            repr(float(r["residual"])) if r.get("residual") is not None else "",
            _dumps(values, separators=(",", ":"), allow_nan=False),
        ])
    return out.getvalue()


def to_table(env: dict) -> str:
    lines = [f"calabi-lab {env['version']}  command={env['command']}"]
    cfg = " ".join(f"{k}={v}" for k, v in sorted(env["config"].items()) if v is not None)
    lines.append(f"config: {cfg}")
    lines.append("-" * 72)
    for r in env["records"]:
        status = r.get("status", "")
        resid = f"{r['residual']:.3e}" if r.get("residual") is not None else ""
        lines.append(f"{status:>4}  {r.get('name', ''):40} {resid}")
        extra = {k: v for k, v in r.items()
                 if k not in ("name", "anchor", "status", "residual", "tolerance", "values")}
        vals = r.get("values") or {}
        merged = {**extra, **(vals if isinstance(vals, dict) else {"values": vals})}
        for k, v in merged.items():
            text = _dumps(v) if isinstance(v, (dict, list, tuple)) else v
            lines.append(f"        {k}: {text}")
    lines.append("-" * 72)
    lines.append("PASS" if env["passed"] else "FAIL")
    return "\n".join(lines) + "\n"


_REQUIRED_TOP = {
    "tool": str, "version": str, "schema_version": int, "command": str,
    "config": dict, "records": list, "passed": bool,
}
_REQUIRED_RECORD = {"name": str, "anchor": str, "status": str}
_STATUSES = ("pass", "fail", "info")


def validate_report(obj: dict) -> list[str]:
    """Structural validation against the shipped schema; returns problems."""
    problems = []
    for key, typ in _REQUIRED_TOP.items():
        if key not in obj:
            problems.append(f"missing top-level key {key!r}")
        elif not isinstance(obj[key], typ):
            problems.append(f"key {key!r} has type {type(obj[key]).__name__}, wanted {typ.__name__}")
    for i, rec in enumerate(obj.get("records", [])):
        # a plain dict with str name, anchor and a valid status has no
        # problem; only the others are examined key by key
        if (type(rec) is dict and type(rec.get("name")) is str
                and type(rec.get("anchor")) is str and type(rec.get("status")) is str
                and rec["status"] in _STATUSES):
            continue
        problems += _record_problems(i, rec)
    return problems


def _record_problems(i: int, rec) -> list[str]:
    if not isinstance(rec, dict):
        return [f"record {i} is not an object"]
    problems = []
    for key, typ in _REQUIRED_RECORD.items():
        if key not in rec:
            problems.append(f"record {i} missing {key!r}")
        elif not isinstance(rec[key], typ):
            problems.append(f"record {i} key {key!r} has wrong type")
    if rec.get("status") not in _STATUSES:
        problems.append(f"record {i} has invalid status {rec.get('status')!r}")
    return problems


def thread_count() -> int:
    """CALABI_LAB_THREADS: 0 = auto (cpu count), default 1."""
    raw = os.environ.get("CALABI_LAB_THREADS", "1")
    try:
        k = int(raw)
    except ValueError:
        return 1
    if k == 0:
        return os.cpu_count() or 1
    return max(k, 1)


def parallel_map(fn, items):
    """Map preserving input order; fans out over CALABI_LAB_THREADS threads.

    Each item must be independent; results are aggregated in input order so
    the output is identical whatever the thread count.
    """
    items = list(items)
    k = thread_count()
    if k <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=min(k, len(items))) as pool:
        return list(pool.map(fn, items))
