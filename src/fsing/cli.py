"""Command line interface.

Subcommands: check (witness + certificate + invariants for each
polynomial in a file), factor, fpt, matroid (exchange axiom plus the
basis polynomial pipeline), modify (the linear-form modification), and
suite (randomized theorem checking).  Each subcommand returns its
report; main writes it and maps its status to the exit code.

Exit codes: 0 every requested test passed, 1 a theorem-level check
failed (counterexample material), 2 bad input or usage.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .errors import (
    CertificateSearchExhausted,
    FsingError,
    NotSquareFreeSupportedError,
    ParseError,
    PointNotOnVarietyError,
    TheoremContradictionError,
    ZeroOrConstantError,
)
from .field import build_field
from .frobenius import (
    build_regularity_certificate,
    fsplit_witness,
    split_witness,
    verify_regularity_certificate,
)
from .invariants import dfpt_at, fpt_crosscheck, global_invariants
from .io import (
    matroid_basis_polynomial,
    parse_matroid_file,
    parse_point,
    parse_poly_file,
    verify_exchange,
)
from .pipeline import SUITE_MAX_N, SuiteConfig, modification_build, theorem_suite
from .report import (
    build_report,
    render_certificate,
    render_fpt_sample,
    render_invariants,
    render_point,
    render_witness,
    text_summary,
    to_json,
)
from .structure import disjoint_factorization, squarefree_offender

EXIT_PASS = 0
EXIT_COUNTEREXAMPLE = 1
EXIT_INPUT = 2
# fpt reports one sample for every e up to --e-max, each with q = p^e
# and b near n*q written out in full: at e = 64 and p = 65521 that is
# about 309 digits per number, while q passes Python's 4300-digit
# int-to-string limit near e = 893 there (e = 14285 at p = 2)
FPT_MAX_E = 64


def _field_info(field):
    info = {"p": field.p, "s": field.s}
    if field.s > 1:
        info["modulus"] = field.modulus_str()
    return info


def _emit(report, args) -> None:
    text = text_summary(report) if args.text else to_json(report)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _select_polys(parsed, wanted):
    if wanted is None:
        return list(parsed.polys.items())
    if wanted not in parsed.polys:
        raise FsingError(f"no polynomial named {wanted!r} in the input file")
    return [(wanted, parsed.polys[wanted])]


def _file_report(args, input_info, run):
    """Report on the polynomials of args.file that --poly selects.

    run(field, varctx, name, f, args) gives each one's (entry, status);
    the report passes when every entry does.
    """
    parsed = parse_poly_file(args.file)
    entries, status = [], "pass"
    for name, f in _select_polys(parsed, args.poly):
        entry, st = run(parsed.field, parsed.varctx, name, f, args)
        entries.append(entry)
        if st != "pass":
            status = st
    return build_report(
        _field_info(parsed.field),
        parsed.varctx.names,
        {"file": args.file, **input_info},
        {"polys": entries},
        status,
    )


def _render_search_point(base_field, rep):
    """Encode a report whose point may live in an extension field."""
    big = base_field if len(rep.point[0]) == base_field.s else build_field(
        base_field.p, len(rep.point[0])
    )
    out = render_invariants(big, rep)
    out["point_field_ext"] = big.s
    return out


def _crosscheck_rows(Q, rep, e_list):
    """Rendered threshold samples with their discrepancies against the
    origin report rep, and whether every discrepancy is zero."""
    rows, ok = [], True
    for sample, diff in fpt_crosscheck(Q, rep, e_list):
        row = render_fpt_sample(sample)
        row["discrepancy"] = {"num": diff.numerator, "den": diff.denominator}
        rows.append(row)
        ok = ok and diff == 0
    return rows, ok


# --------------------------------------------------------------------------
# check
# --------------------------------------------------------------------------

def _check_poly(field, varctx, name, f, args):
    """Run the requested tests on one polynomial; returns (entry, status)."""
    entry = {"name": name, "poly": str(f)}
    tests = args.tests
    if f.is_zero() or f.is_constant():
        raise ZeroOrConstantError(f"polynomial {name} is zero or constant")
    off = squarefree_offender(f)
    if off is not None:
        if tests == "fsplit":
            w = fsplit_witness(f)
            entry["fsplit"] = render_witness(varctx, w) if w else "NotSplit"
            return entry, "pass"
        raise NotSquareFreeSupportedError(
            f"polynomial {name} is not square-free supported"
            f" at {varctx.monomial_str(off)}",
            off,
        )
    Q = disjoint_factorization(f)
    entry["factors"] = [str(g) for g in Q.factors]
    entry["t"] = Q.t
    status = "pass"
    if tests in ("all", "fsplit"):
        entry["fsplit"] = render_witness(varctx, split_witness(Q))
        if tests == "fsplit":
            return entry, status
    if tests in ("all", "certificate"):
        try:
            cert = build_regularity_certificate(Q)
        except CertificateSearchExhausted as exc:
            entry["certificate"] = {"search_error": str(exc)}
            return entry, "counterexample"
        ok = verify_regularity_certificate(Q, cert)
        entry["certificate"] = render_certificate(varctx, cert, verified=ok)
        if not ok:
            status = "counterexample"
        if tests == "certificate":
            return entry, status
    origin = tuple(field.zero for _ in range(varctx.n))
    point = parse_point(field, args.point, varctx.n) if args.point is not None else origin
    try:
        rep = dfpt_at(Q, point)
        entry["invariants"] = render_invariants(field, rep)
    except PointNotOnVarietyError:
        if args.point is not None:
            raise
        rep = global_invariants(Q, s_max=args.s_max)
        entry["invariants"] = _render_search_point(field, rep)
        entry["note"] = "origin not on the variety; searched for a maximizer"
        point = None
    if point is not None and all(a == field.zero for a in point):
        entry["fpt"], ok = _crosscheck_rows(Q, rep, (1, 2))
        if not ok:
            status = "counterexample"
    return entry, status


def _cmd_check(args) -> dict:
    return _file_report(args, {"tests": args.tests}, _check_poly)


# --------------------------------------------------------------------------
# factor
# --------------------------------------------------------------------------

def _factor_poly(field, varctx, name, f, args):
    """The factorization of one polynomial; returns (entry, "pass")."""
    Q = disjoint_factorization(f)
    entry = {
        "name": name,
        "poly": str(f),
        "constant": field.scalar_str(Q.constant),
        "factors": [str(g) for g in Q.factors],
        "t": Q.t,
    }
    return entry, "pass"


def _cmd_factor(args) -> dict:
    return _file_report(args, {}, _factor_poly)


# --------------------------------------------------------------------------
# fpt
# --------------------------------------------------------------------------

def _fpt_poly(field, varctx, name, f, args):
    """Origin invariants and crosschecked threshold samples up to --e-max
    of one polynomial; returns (entry, status)."""
    Q = disjoint_factorization(f)
    origin = tuple(field.zero for _ in range(varctx.n))
    try:
        rep = dfpt_at(Q, origin)
    except PointNotOnVarietyError:
        raise PointNotOnVarietyError(
            f"the origin does not lie on the vanishing locus of {name}"
        ) from None
    samples, ok = _crosscheck_rows(Q, rep, range(1, args.e_max + 1))
    entry = {
        "name": name,
        "poly": str(f),
        "t": Q.t,
        "invariants": render_invariants(field, rep),
        "samples": samples,
    }
    return entry, "pass" if ok else "counterexample"


def _cmd_fpt(args) -> dict:
    return _file_report(args, {}, _fpt_poly)


# --------------------------------------------------------------------------
# matroid
# --------------------------------------------------------------------------

def _cmd_matroid(args) -> dict:
    m = parse_matroid_file(args.file)
    ok, detail = verify_exchange(m)
    field = build_field(args.p)
    if not ok:
        return build_report(
            _field_info(field),
            [f"x{i + 1}" for i in range(m.n)],
            {"file": args.file, "bases": len(m.bases)},
            {"exchange": False, "detail": detail},
            "counterexample",
        )
    f = matroid_basis_polynomial(m, field)
    entry, status = _check_poly(field, f.vars, "basis_polynomial", f, args)
    return build_report(
        _field_info(field),
        f.vars.names,
        {"file": args.file, "bases": len(m.bases), "exchange": True},
        {"polys": [entry]},
        status,
    )


# --------------------------------------------------------------------------
# modify
# --------------------------------------------------------------------------

def _cmd_modify(args) -> dict:
    parsed = parse_poly_file(args.file)
    field = parsed.field
    if args.g not in parsed.polys or args.h not in parsed.polys:
        raise FsingError("the modify command needs --g and --h naming file polynomials")
    g = parsed.polys[args.g]
    h = parsed.polys[args.h]
    n = parsed.varctx.n
    coeffs = (
        parse_point(field, args.a, n) if args.a is not None
        else tuple(field.zero for _ in range(n))
    )
    result = modification_build(g, h, coeffs, s_max=args.s_max, max_points=args.max_points)
    status = "pass"
    if not result.verified or any(not c["ok"] for c in result.point_checks):
        status = "counterexample"
    results = {
        "f": str(result.f),
        "homogenized": str(result.ftilde),
        "transformed": str(result.transformed),
        "fsplit": render_witness(result.transformed.vars, result.witness),
        "certificate": render_certificate(
            result.transformed.vars, result.certificate, verified=result.verified
        ),
        "max_mult": result.max_mult,
        "dfpt": result.dfpt,
        "point_checks": result.point_checks,
        "budget_exceeded": result.budget_exceeded,
    }
    return build_report(
        _field_info(field),
        parsed.varctx.names,
        {"file": args.file, "g": args.g, "h": args.h,
         "a": render_point(field, coeffs)},
        results,
        status,
    )


# --------------------------------------------------------------------------
# suite
# --------------------------------------------------------------------------

def _cmd_suite(args) -> dict:
    if args.count < 1:
        raise FsingError(f"--count must be at least 1, got {args.count}")
    if not 2 <= args.n <= SUITE_MAX_N:
        raise FsingError(f"--n must lie in 2..{SUITE_MAX_N}, got {args.n}")
    if not 1 <= args.max_factors <= args.n:
        raise FsingError(
            f"--max-factors must be between 1 and --n = {args.n}, got {args.max_factors}"
        )
    extra = ()
    varnames = []
    if args.file:
        parsed = parse_poly_file(args.file)
        extra = tuple(parsed.polys.values())
        varnames = parsed.varctx.names
    try:
        p_list = tuple(int(x) for x in args.p_list.split(","))
    except ValueError:
        raise FsingError(
            f"--p-list must be comma separated primes, got {args.p_list!r}"
        ) from None
    config = SuiteConfig(
        p_list=p_list,
        n=args.n,
        max_terms=args.max_terms,
        max_factors=args.max_factors,
        count=args.count,
        seed=args.seed,
        extra_inputs=extra,
    )
    results, status = theorem_suite(config)
    return build_report(
        {"p_list": list(config.p_list)},
        varnames,
        {"kind": "randomized suite"},
        results,
        status,
    )


# --------------------------------------------------------------------------
# parser
# --------------------------------------------------------------------------

def _positive_int(text):
    """argparse type for exponents, levels, budgets and term counts: an integer >= 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _e_max(text):
    """argparse type for fpt's --e-max: an integer in 1..FPT_MAX_E."""
    value = _positive_int(text)
    if value > FPT_MAX_E:
        raise argparse.ArgumentTypeError(f"must be at most {FPT_MAX_E}, got {value}")
    return value


@functools.cache
def _build_parser():
    """The argument parser, built on the first call and reused by every
    later one: parsing leaves it unchanged, and building its six
    subparsers takes over a millisecond, a tenth of a small modify run."""
    parser = argparse.ArgumentParser(
        prog="fsing",
        description="Frobenius splitting, regularity certificates, and "
        "threshold defects for square-free supported polynomials.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", default=True,
                        help="emit a JSON report (default)")
    common.add_argument("--text", action="store_true",
                        help="emit a short text summary instead of JSON")
    common.add_argument("--out", metavar="FILE", help="write the report to FILE")
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("check", parents=[common],
                       help="witness, certificate and invariants for file polynomials")
    c.add_argument("file")
    c.add_argument("--poly", help="restrict to one named polynomial")
    c.add_argument("--tests", choices=("all", "fsplit", "certificate"),
                   default="all", help="which layer of tests to run")
    c.add_argument("--s-max", type=_positive_int, default=3, dest="s_max",
                   help="largest degree over the coefficient field searched for maximizers")
    c.add_argument("--point", help="comma separated point encodings for invariants")
    c.set_defaults(func=_cmd_check)

    fc = sub.add_parser("factor", parents=[common],
                        help="variable-disjoint irreducible factorization")
    fc.add_argument("file")
    fc.add_argument("--poly")
    fc.set_defaults(func=_cmd_factor)

    fp = sub.add_parser("fpt", parents=[common],
                        help="threshold samples and origin invariants")
    fp.add_argument("file")
    fp.add_argument("--poly")
    fp.add_argument("--e-max", type=_e_max, default=2, dest="e_max",
                    help="sample every level up to this exponent")
    fp.set_defaults(func=_cmd_fpt)

    mt = sub.add_parser("matroid", parents=[common],
                        help="exchange axiom check plus the basis polynomial pipeline")
    mt.add_argument("file")
    mt.add_argument("--p", type=int, default=2, help="characteristic (default 2)")
    mt.add_argument("--tests", choices=("all", "fsplit", "certificate"), default="all")
    mt.add_argument("--s-max", type=_positive_int, default=2, dest="s_max")
    mt.add_argument("--point", default=None)
    mt.set_defaults(func=_cmd_matroid)

    md = sub.add_parser("modify", parents=[common],
                        help="build g*(1+sum a_i x_i)+h and certify the result")
    md.add_argument("file")
    md.add_argument("--g", required=True, help="name of the divisor polynomial")
    md.add_argument("--h", required=True, help="name of the added form")
    md.add_argument("--a", help="comma separated linear form coefficients")
    md.add_argument("--s-max", type=_positive_int, default=2, dest="s_max")
    md.add_argument("--max-points", type=_positive_int, default=20, dest="max_points")
    md.set_defaults(func=_cmd_modify)

    st = sub.add_parser("suite", parents=[common],
                        help="randomized verification of the splitting theorems")
    st.add_argument("--count", type=int, default=200)
    st.add_argument("--p-list", default="2,3,5", dest="p_list")
    st.add_argument("--n", type=int, default=8)
    st.add_argument("--max-terms", type=_positive_int, default=8, dest="max_terms")
    st.add_argument("--max-factors", type=int, default=3, dest="max_factors")
    st.add_argument("--seed", type=int, default=0,
                    help="seed of the random sample stream (default 0)")
    st.add_argument("--file", help="poly file of extra inputs to include")
    st.set_defaults(func=_cmd_suite)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else EXIT_INPUT
    try:
        report = args.func(args)
        _emit(report, args)
    except TheoremContradictionError as exc:
        payload = {"error": str(exc), "dump": exc.dump}
        sys.stderr.write(json.dumps(payload, sort_keys=True, indent=2, default=str) + "\n")
        return EXIT_COUNTEREXAMPLE
    except (FsingError, OSError, ValueError) as exc:
        prefix = "parse error" if isinstance(exc, ParseError) else "error"
        sys.stderr.write(f"{prefix}: {exc}\n")
        return EXIT_INPUT
    return EXIT_PASS if report["status"] == "pass" else EXIT_COUNTEREXAMPLE


if __name__ == "__main__":
    sys.exit(main())
