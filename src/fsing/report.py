"""Deterministic report rendering.

Reports are plain dictionaries serialized with sorted keys, polynomials
in canonical term order, rationals as num/den pairs, and field elements
as their base-p digit encodings.  Running the same command on the same
input with the same seed must reproduce the same bytes, so nothing
time- or path-dependent belongs in here.
"""

from __future__ import annotations

import json
from fractions import Fraction

VERSION = "0.1.0"


def render_fraction(x: Fraction):
    return {"num": x.numerator, "den": x.denominator}


def render_point(field, point):
    return [field.encode(a) for a in point]


def render_witness(varctx, w):
    if w is None:
        return None
    return {"e": w.e, "q": w.q, "witness": varctx.monomial_str(w.witness)}


def render_certificate(varctx, cert, verified=None):
    out = {
        "stages": [
            {
                "inverted_var": varctx.names[st.inverted_var],
                "e": st.e,
                "multiplier": varctx.monomial_str(st.multiplier),
                "witness": varctx.monomial_str(st.witness),
            }
            for st in cert.stages
        ],
        "base": [
            {"factor": i, "unit_monomial": varctx.monomial_str(mono)}
            for i, mono in cert.base
        ],
        "notes": list(cert.notes),
    }
    if verified is not None:
        out["verified"] = verified
    return out


def render_invariants(field, rep):
    out = {
        "point": render_point(field, rep.point),
        "ord": rep.ord,
        "mult": rep.mult,
        "dim": rep.dim,
        "dfpt": rep.dfpt,
        "fpt": render_fraction(rep.fpt),
        "t": rep.t,
    }
    if rep.exact is not None:
        out["exact"] = rep.exact
        out["budget_exceeded"] = rep.budget_exceeded
    return out


def render_fpt_sample(sample):
    return {
        "e": sample.e,
        "q": sample.q,
        "b": sample.b,
        "lambda": render_fraction(sample.lam),
    }


STATUSES = ("pass", "counterexample", "error")


def build_report(field_info, varnames, input_info, results, status):
    if status not in STATUSES:
        raise ValueError(f"report status must be one of {STATUSES}, got {status!r}")
    return {
        "version": VERSION,
        "field": field_info,
        "vars": list(varnames),
        "input": input_info,
        "results": results,
        "status": status,
    }


def to_json(report) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def text_summary(report) -> str:
    """Short human readable digest of a report."""
    lines = [f"status: {report['status']}"]
    field = report.get("field")
    if isinstance(field, dict) and "p" in field:
        lines.append(f"field: p={field['p']} s={field.get('s', 1)}")
    results = report.get("results", {})
    for key in sorted(results):
        val = results[key]
        if isinstance(val, (str, int, bool)) or val is None:
            lines.append(f"{key}: {val}")
        elif isinstance(val, dict):
            inner = ", ".join(f"{k}={val[k]}" for k in sorted(val) if not isinstance(val[k], (dict, list)))
            lines.append(f"{key}: {inner}" if inner else f"{key}: ...")
        elif isinstance(val, list):
            lines.append(f"{key}: {len(val)} entries")
    return "\n".join(lines) + "\n"
