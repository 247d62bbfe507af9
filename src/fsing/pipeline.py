"""Randomized theorem checking and the modification construction.

The suite draws seeded random square-free supported polynomials with a
planted number of variable-disjoint irreducible factors, then runs the
whole verification chain on each: factorization, splitting witness,
regularity certificate, invariant report at the origin, and exact
threshold crosschecks.  Any failure is minimized by greedy single
removals (drop a term, or set a variable to one) before being reported.
"""

from __future__ import annotations

import random
from itertools import combinations

from .errors import (
    BudgetExceededError,
    CertificateSearchExhausted,
    FsingError,
    HypothesisViolatedError,
    PointNotOnVarietyError,
    TheoremContradictionError,
)
from .field import Field, build_field
from .frobenius import (
    build_regularity_certificate,
    split_witness,
    verify_regularity_certificate,
)
from .invariants import dfpt_at, fpt_crosscheck, hypersurface_point_checks
from .poly import Poly, VarCtx, exact_divide
from .record import Record
from .structure import (
    disjoint_factorization,
    is_irreducible_sqfree,
    squarefree_offender,
)

REJECTION_CAP = 10**4
# _random_factor lists every subset of a factor's variable block before
# it draws the factor's terms, so its time and memory double with each
# variable; random_sqfree and the suite refuse n above this
SUITE_MAX_N = 16


# --------------------------------------------------------------------------
# random generation
# --------------------------------------------------------------------------

def _random_factor(field, varctx, block, m, rng):
    """Random irreducible square-free supported polynomial on the block."""
    subsets = []
    for size in range(1, len(block) + 1):
        subsets.extend(combinations(block, size))
    m = min(m, len(subsets))
    if m == 1:
        return Poly.variable(field, varctx, rng.choice(sorted(block)))
    for _ in range(REJECTION_CAP):
        chosen = rng.sample(subsets, m)
        terms = {}
        for sub in chosen:
            exps = tuple(1 if i in sub else 0 for i in range(varctx.n))
            terms[exps] = field.decode(rng.randrange(1, field.order))
        cand = Poly(field, varctx, terms)
        if is_irreducible_sqfree(cand):
            return cand
    raise BudgetExceededError(
        f"no irreducible factor found in {REJECTION_CAP} rejection trials"
    )


def random_sqfree(field: Field, n: int, max_terms: int, t: int, seed: int = 0) -> Poly:
    """Seeded random product of t variable-disjoint irreducible factors.

    Every support monomial has positive degree, so the result vanishes
    at the origin.  Raises ValueError when t factors cannot fit in n
    variables or n exceeds SUITE_MAX_N, and BudgetExceededError when
    rejection sampling stalls.
    """
    if n > SUITE_MAX_N:
        raise ValueError(f"at most {SUITE_MAX_N} variables, got {n}")
    if t < 1:
        raise ValueError("factor count must be positive")
    if t > n:
        raise ValueError(f"cannot place {t} disjoint nonempty blocks in {n} variables")
    rng = random.Random(seed)
    varctx = VarCtx(tuple(f"x{i + 1}" for i in range(n)))
    order = list(range(n))
    rng.shuffle(order)
    cuts = sorted(rng.sample(range(1, n), t - 1)) if t > 1 else []
    blocks = []
    prev = 0
    for cut in cuts + [n]:
        blocks.append(order[prev:cut])
        prev = cut
    factors = []
    terms_used = 1
    for block in blocks:
        room = max(1, max_terms // terms_used)
        m = rng.randint(1, room)
        fac = _random_factor(field, varctx, block, m, rng)
        terms_used *= len(fac.terms)
        factors.append(fac)
    result = Poly.constant(field, varctx, 1)
    for fac in factors:
        result = result * fac
    return result


# --------------------------------------------------------------------------
# one-sample verification chain
# --------------------------------------------------------------------------

def check_sqfree_sample(f: Poly, t_planted=None) -> dict:
    """Run the full chain on one square-free supported polynomial.

    Returns a record with ok/failure plus the artifacts produced along
    the way; never raises for a theory failure, so the caller can
    minimize and report.
    """
    rec = {"poly": str(f), "ok": True, "failure": None}

    def fail(reason):
        rec["ok"] = False
        rec["failure"] = reason
        return rec

    try:
        Q = disjoint_factorization(f)
    except FsingError as exc:
        return fail(f"factorization error: {exc}")
    rec["t"] = Q.t
    rec["factors"] = [str(g) for g in Q.factors]
    if t_planted is not None and Q.t != t_planted:
        return fail(f"recovered {Q.t} factors, planted {t_planted}")
    try:
        w = split_witness(Q)
    except TheoremContradictionError:
        return fail("splitting witness failed its replay")
    rec["witness"] = Q.vars.monomial_str(w.witness)
    try:
        cert = build_regularity_certificate(Q)
    except CertificateSearchExhausted as exc:
        return fail(f"certificate search exhausted: {exc}")
    if not verify_regularity_certificate(Q, cert):
        return fail("certificate failed verification")
    rec["stages"] = len(cert.stages)
    origin = tuple(Q.field.zero for _ in range(Q.vars.n))
    try:
        rep = dfpt_at(Q, origin)
    except PointNotOnVarietyError:
        rec["origin_on_variety"] = False
        return rec
    rec["origin_on_variety"] = True
    rec["dfpt"] = rep.dfpt
    cc = fpt_crosscheck(Q, rep, (1, 2))
    rec["lambda"] = [
        {"e": s.e, "num": s.lam.numerator, "den": s.lam.denominator} for s, _ in cc
    ]
    if any(d != 0 for _, d in cc):
        return fail("threshold crosscheck discrepancy is nonzero")
    return rec


def minimize_failure(f: Poly) -> Poly:
    """Greedy single-removal shrink preserving some pipeline failure."""

    def still_fails(g):
        if g.is_zero() or g.is_constant() or squarefree_offender(g) is not None:
            return False
        return not check_sqfree_sample(g)["ok"]

    cur = f
    changed = True
    while changed:
        changed = False
        for exps, _ in cur.sorted_terms():
            cand = Poly(
                cur.field, cur.vars, {e: c for e, c in cur.terms.items() if e != exps}
            )
            if still_fails(cand):
                cur = cand
                changed = True
                break
        if changed:
            continue
        for i in sorted(cur.vars_used()):
            cand = cur.substitute({i: cur.field.one})
            if still_fails(cand):
                cur = cand
                changed = True
                break
    return cur


# --------------------------------------------------------------------------
# theorem suite
# --------------------------------------------------------------------------

class SuiteConfig(Record):
    """Parameters of the randomized suite; extra_inputs holds Poly instances,
    validated before use."""

    __slots__ = ("p_list", "n", "max_terms", "max_factors", "count", "seed",
                 "extra_inputs")

    def __init__(self, p_list: tuple = (2, 3, 5), n: int = 8, max_terms: int = 8,
                 max_factors: int = 3, count: int = 200, seed: int = 0,
                 extra_inputs: tuple = ()):
        self.p_list, self.n, self.max_terms = p_list, n, max_terms
        self.max_factors, self.count, self.seed = max_factors, count, seed
        self.extra_inputs = extra_inputs

    def as_dict(self):
        return {
            "p_list": list(self.p_list),
            "n": self.n,
            "max_terms": self.max_terms,
            "max_factors": self.max_factors,
            "count": self.count,
            "seed": self.seed,
        }


def theorem_suite(config: SuiteConfig):
    """Run the randomized verification chain.

    Returns (results block, status).  The caller wraps both into a full
    report; status is pass unless a sample fails, in which case a
    minimized reproducer is attached to the failures list.  Raises
    ValueError, before any sample, when config.n exceeds SUITE_MAX_N.
    """
    if config.n > SUITE_MAX_N:
        raise ValueError(f"at most {SUITE_MAX_N} variables, got {config.n}")
    samples = []
    failures = []
    skipped = []
    for k, extra in enumerate(config.extra_inputs):
        if extra.is_zero() or extra.is_constant():
            skipped.append({"input": str(extra), "reason": "zero or constant"})
            continue
        off = squarefree_offender(extra)
        if off is not None:
            skipped.append(
                {
                    "input": str(extra),
                    "reason": f"not square-free supported at {extra.vars.monomial_str(off)}",
                }
            )
            continue
        rec = check_sqfree_sample(extra)
        rec["index"] = f"extra-{k}"
        samples.append(rec)
        if not rec["ok"]:
            mini = minimize_failure(extra)
            failures.append(
                {"index": rec["index"], "failure": rec["failure"], "minimized": str(mini)}
            )
    for i in range(config.count):
        rng = random.Random(config.seed * 1_000_003 + i)
        p = config.p_list[i % len(config.p_list)]
        t = rng.randint(1, config.max_factors)
        n_i = rng.randint(max(t, 2), config.n)
        field = build_field(p)
        f = random_sqfree(field, n_i, config.max_terms, t, seed=rng.randrange(2**30))
        rec = check_sqfree_sample(f, t)
        rec["index"] = i
        rec["p"] = p
        rec["n"] = n_i
        samples.append(rec)
        if not rec["ok"]:
            mini = minimize_failure(f)
            failures.append(
                {"index": i, "failure": rec["failure"], "poly": str(f), "minimized": str(mini)}
            )
    passed = sum(1 for r in samples if r["ok"])
    results = {
        "config": config.as_dict(),
        "count": len(samples),
        "passed": passed,
        "samples": samples,
        "failures": failures,
        "skipped": skipped,
    }
    status = "pass" if not failures else "counterexample"
    return results, status


# --------------------------------------------------------------------------
# modification construction
# --------------------------------------------------------------------------

class ModificationResult(Record):
    """What modification_build made and checked."""

    __slots__ = ("f", "ftilde", "transformed", "witness", "certificate", "verified",
                 "dfpt", "max_mult", "point_checks", "budget_exceeded")

    def __init__(self, f: Poly, ftilde: Poly, transformed: Poly, witness, certificate,
                 verified: bool, dfpt: int, max_mult: int, point_checks: list | None = None,
                 budget_exceeded: bool = False):
        self.f, self.ftilde, self.transformed = f, ftilde, transformed
        self.witness, self.certificate, self.verified = witness, certificate, verified
        self.dfpt, self.max_mult, self.budget_exceeded = dfpt, max_mult, budget_exceeded
        self.point_checks = [] if point_checks is None else point_checks


def _fresh_name(base: str, taken):
    if base not in taken:
        return base
    k = 0
    while f"{base}{k}" in taken:
        k += 1
    return f"{base}{k}"


def _extend(poly: Poly, new_ctx: VarCtx) -> Poly:
    pad = (0,) * (new_ctx.n - poly.vars.n)
    return Poly(poly.field, new_ctx, {e + pad: c for e, c in poly.terms.items()})


def _is_homogeneous(f: Poly) -> bool:
    degs = {sum(e) for e in f.terms}
    return len(degs) == 1


def modification_build(g: Poly, h: Poly, ell_coeffs, s_max: int = 2,
                       max_points: int = 20) -> ModificationResult:
    """Build f = g*(1 + sum a_i x_i) + h and certify its singularity data.

    Preconditions, checked in order: g and h nonzero, square-free
    supported, homogeneous, deg h = deg g + 1, g irreducible, g does
    not divide h.  The homogenization of f agrees with g*(z + sum a_i
    x_i) + h, and replacing that linear form by a fresh variable gives
    the square-free supported irreducible model whose certificate and
    invariants transfer back to f.
    """
    if g.is_zero():
        raise HypothesisViolatedError("g is zero", "g_zero")
    if h.is_zero():
        raise HypothesisViolatedError("h is zero", "h_zero")
    g._compat(h)
    for name, poly in (("g", g), ("h", h)):
        off = squarefree_offender(poly)
        if off is not None:
            raise HypothesisViolatedError(
                f"{name} is not square-free supported", f"{name}_not_squarefree"
            )
        if not _is_homogeneous(poly):
            raise HypothesisViolatedError(f"{name} is not homogeneous", f"{name}_not_homogeneous")
    if h.total_degree() != g.total_degree() + 1:
        raise HypothesisViolatedError("deg h must be deg g + 1", "degree_gap")
    if g.is_constant():
        raise HypothesisViolatedError("g must be nonconstant", "g_constant")
    if not is_irreducible_sqfree(g):
        raise HypothesisViolatedError("g is reducible", "g_reducible")
    if exact_divide(h, g) is not None:
        raise HypothesisViolatedError("g divides h", "g_divides_h")
    fld = g.field
    n = g.vars.n
    coeffs = [fld.scalar(c) if isinstance(c, int) else c for c in ell_coeffs]
    if len(coeffs) != n:
        raise HypothesisViolatedError("wrong number of linear form coefficients", "ell_arity")
    ell_terms = {(0,) * n: fld.one}
    for i, c in enumerate(coeffs):
        ell_terms[tuple(1 if j == i else 0 for j in range(n))] = c
    ell = Poly(fld, g.vars, ell_terms)
    f = g * ell + h

    zname = _fresh_name("z0", g.vars.names)
    ftilde = f.homogenize(zname)
    ctx_z = ftilde.vars
    # ell with its constant term 1 sent to z
    ell_tilde = Poly(
        fld, ctx_z, {e + ((0,) if any(e) else (1,)): c for e, c in ell.terms.items()}
    )
    if ftilde != _extend(g, ctx_z) * ell_tilde + _extend(h, ctx_z):
        raise TheoremContradictionError(
            "homogenization does not match the linear-form model",
            dump={"f": str(f), "ftilde": str(ftilde)},
        )

    yname = _fresh_name("y", g.vars.names)
    ctx_y = VarCtx(g.vars.names + (yname,))
    y_poly = Poly.variable(fld, ctx_y, n)
    transformed = _extend(g, ctx_y) * y_poly + _extend(h, ctx_y)
    Qt = disjoint_factorization(transformed)
    if Qt.t != 1:
        raise TheoremContradictionError(
            "transformed model is reducible", dump={"transformed": str(transformed)}
        )
    witness = split_witness(Qt)
    cert = build_regularity_certificate(Qt)
    verified = verify_regularity_certificate(Qt, cert)

    max_mult, checks, flagged = hypersurface_point_checks(
        f, s_max=s_max, max_points=max_points
    )
    return ModificationResult(
        f=f,
        ftilde=ftilde,
        transformed=transformed,
        witness=witness,
        certificate=cert,
        verified=verified,
        dfpt=max_mult - 1,
        max_mult=max_mult,
        point_checks=checks,
        budget_exceeded=flagged,
    )
