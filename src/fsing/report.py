"""Deterministic report rendering.

Reports are plain dictionaries serialized with sorted keys, polynomials
in canonical term order, rationals as num/den pairs, and field elements
as their base-p digit encodings.  Running the same command on the same
input with the same seed must reproduce the same bytes, so nothing
time- or path-dependent belongs in here.
"""

from __future__ import annotations

from fractions import Fraction
from json.encoder import encode_basestring_ascii

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


STATUSES = ("pass", "counterexample")


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
    """The bytes of ``json.dumps(report, sort_keys=True, indent=2) + "\\n"``.

    With an indent, ``json.dumps`` runs its pure-Python encoder; this one
    renders only what reports hold (str, int, bool, None, lists, dicts
    with str keys) and raises TypeError on anything else.
    """
    return _encode(report, "\n") + "\n"


# renderers of the scalar types, looked up by exact type; subclasses take
# the isinstance tests at the end of _encode
_LEAVES = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
}


def _encode(value, newline):
    """JSON text of value, its nested lines indented past newline."""
    leaf = _LEAVES.get(type(value))
    if leaf is not None:
        return leaf(value)
    inner = newline + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        for key in value:
            if not isinstance(key, str):
                raise TypeError(f"report keys must be str, got {type(key).__name__}")
        parts = []
        for key in sorted(value):
            item = value[key]
            leaf = _LEAVES.get(type(item))
            parts.append(encode_basestring_ascii(key) + ": "
                         + (leaf(item) if leaf else _encode(item, inner)))
        return "{" + inner + ("," + inner).join(parts) + newline + "}"
    if isinstance(value, list):
        if not value:
            return "[]"
        parts = []
        for item in value:
            leaf = _LEAVES.get(type(item))
            parts.append(leaf(item) if leaf else _encode(item, inner))
        return "[" + inner + ("," + inner).join(parts) + newline + "]"
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if isinstance(value, int):
        return int.__repr__(value)
    raise TypeError(f"a report cannot hold {type(value).__name__}")


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
