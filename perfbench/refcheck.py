"""Exact output check against stored radius-1 reports.

`refs/` holds, for each job type and curvature sign, the bytes that
`symheat compute` printed for the radius-1 job (see make_refs.py).  A job
at radius r must render exactly the reference with every a_k scaled by
r^(-2k); the twist block of the flat(2) jobs scales like a curvature, so
the law holds there too.  The check uses only fractions and json, so it
shares no code with the program it checks.
"""
from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

REF_DIR = Path(__file__).resolve().parent / "refs"


def ref_path(type_name: str, sign: int) -> Path:
    return REF_DIR / f"{type_name}.{'sphere' if sign > 0 else 'hyperbolic'}.json"


def render(report: dict) -> str:
    """The bytes `symheat compute` writes for a report (JSON output)."""
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def load_refs(types) -> dict:
    """{(type name, sign): radius-1 report} for the given job types."""
    refs = {}
    for t in types:
        for sign in (1, -1):
            refs[(t.name, sign)] = json.loads(ref_path(t.name, sign).read_text())
    return refs


def _fmt(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _scale_entry(entry, c: Fraction):
    if isinstance(entry, dict):
        return {part: _fmt(Fraction(v) * c) for part, v in entry.items()}
    return _fmt(Fraction(entry) * c)


def expected_report(ref: dict, radius: Fraction) -> dict:
    """The radius-r report implied by a_k(r) = r^(-2k) a_k(1)."""
    out = dict(ref)
    out["a"] = []
    for item in ref["a"]:
        c = radius ** (-2 * item["k"])
        out["a"].append({
            "k": item["k"],
            "matrix": [[_scale_entry(x, c) for x in row] for row in item["matrix"]],
        })
    return out


def report_matches(text: str, ref: dict, radius: Fraction) -> bool:
    return text == render(expected_report(ref, radius))
