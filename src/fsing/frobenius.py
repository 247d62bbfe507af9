"""Frobenius splitting tests, regularity certificates, threshold samples.

Splitting tests and certificates reduce to one kernel: f^(p^e - 1)
modulo a bracket ideal, computed by
:func:`fsing.poly.frobenius_power_mod_bracket`.  For an ideal generated
by variable-disjoint factors the colon ideal of the bracket power is
generated by f^(p^e-1) together with the bracket itself (Fedder's
criterion), so splitting at the origin is the survival of a single
reduced power.

Regularity certificates need that kernel only at e = 1 and without
localization (the stage lemma).  Let f be square-free supported,
q = p^e, S a set of inverted variables and v not in S.  (a) Every
exponent of f^(q-1) is at most q-1 (the digit lemma below), so the
bracket, localized at S or not, discards nothing.  (b) The x_v-free
part of f^(q-1) is (f|x_v=0)^(q-1), nonzero exactly when x_v does not
divide f; when f = x_v*A every term carries x_v^(q-1) and dies after
multiplying by x_v.  So x_v*f^(q-1) has a surviving monomial iff x_v
does not divide f, whatever e and S are, and a stage that fails at
e = 1 fails at every e.  (c) The preferred variable of an offending
irreducible factor never divides f: if it did, the factor would be
that variable, whose monomial has un-inverted degree 1.

Threshold samples of square-free supported input need that kernel only
at e = 1 (the digit lemma).  Write q = p^e.  In characteristic p,
f^(q-1) = prod_{i<e} (f^(p-1))^(p^i), and the i-th factor is f^(p-1)
with exponents scaled by p^i.  When f is square-free supported every
exponent of f^(p-1) is at most p-1, so each product monomial
sum_i p^i a_i (a_i in supp f^(p-1)) is a base-p expansion: distinct
digit tuples give distinct monomials, so nothing cancels, and no
exponent reaches q, so nothing hits the bracket.  Hence supp f^(q-1) is
the digit product of e copies of supp f^(p-1), and its least total
degree is (q-1)/(p-1) times the least total degree on supp f^(p-1).

Threshold samples of other input, such as a shifted polynomial in the
modification point checks, are read off the initial form (the
initial-form lemma).  Let d be the order of f at the origin and in(f)
its part of degree d.  Every monomial of f^(q-1) has degree at least
d(q-1), and the part of degree d(q-1) is in(f)^(q-1), nonzero because
the polynomial ring is a domain.  Reduction modulo the monomial ideal
(x_i^q) keeps or drops each monomial on its own, so it respects total
degree: when in(f)^(q-1) survives the bracket, its survivors are the
survivors of least degree d(q-1), and b = (n - d)(q - 1), that is
lambda(e) = n - d.  Conversely lambda(e) = n - d forces a survivor of
degree d(q-1), a term of in(f)^(q-1).  Only when in(f)^(q-1) dies is
f^(q-1) itself reduced, and then lambda(e) < n - d.

When in(f) is square-free supported, in(f)^(q-1) always survives (the
digit lemma), so b = (n - d)(q - 1), and it is read off in(f)^(p-1) at
e = 1 like any square-free supported input: in(f) is homogeneous of
degree d, so the least degree on supp in(f)^(p-1) is (p-1)d.  This is
the same sample as the digit path gives for a square-free supported f
of order d, whose least degree on supp f^(p-1) is also (p-1)d.  So
lambda(e) = n - d at every e, and the modify point checks
(:func:`fsing.invariants.hypersurface_point_checks`) write their records
in closed form without reducing any power.  At a smooth point a of a
hypersurface, in(f(x + a)) is the linear form sum_i d_i f(a) * x_i (the
Taylor lemma in :mod:`fsing.invariants`), which is square-free
supported, so lambda(e) = n - 1 as soon as some first partial is
nonzero at a, and f is not shifted.  At a singular point, f is shifted
and lambda(e) = n - d whenever in(f(x + a)) is square-free supported.
Only a checked point whose initial form is not square-free supported
reaches the kernel, through :func:`_threshold_samples`.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from fractions import Fraction

from .errors import (
    CertificateSearchExhausted,
    TheoremContradictionError,
    ZeroInputError,
)
from .poly import (
    Poly,
    bracket_exponent,
    canon_key,
    frobenius_power_mod_bracket,
    frobenius_q,
    multiply_monomial_truncated,
)
from .structure import CIdeal, is_squarefree_supported


@dataclass(frozen=True)
class SplitWitness:
    """Monomial surviving the reduced Frobenius power at level e."""

    e: int
    q: int
    witness: tuple

    def __post_init__(self):
        if not all(0 <= v <= self.q - 1 for v in self.witness):
            raise TheoremContradictionError(
                "split witness has an exponent outside 0..q-1",
                dump={"e": self.e, "q": self.q, "witness": list(self.witness)},
            )


@dataclass(frozen=True)
class RegStage:
    """One localization step of a regularity certificate."""

    inverted_var: int
    e: int
    multiplier: tuple
    witness: tuple


@dataclass
class RegCertificate:
    """Chain of localization stages plus base-case unit monomials."""

    stages: list
    base: list  # (factor index, unit monomial) pairs
    notes: list = dc_field(default_factory=list)


@dataclass(frozen=True)
class FptSample:
    """One oracle sample of the F-pure threshold at q = p^e."""

    e: int
    q: int
    b: int
    lam: Fraction


def fsplit_witness(f: Poly):
    """Splitting witness of f at the origin, or None when f is not split.

    Fedder's criterion at e = 1: the least monomial of f^(p-1) outside
    the bracket ideal (x_i^p : all i), in canonical order.
    """
    reduced = frobenius_power_mod_bracket(f, 1)
    if reduced.is_zero():
        return None
    return SplitWitness(1, f.field.p, reduced.least_monomial())


def verify_split_witness(Q: CIdeal, w: SplitWitness) -> bool:
    """Re-check that a reported witness really survives the reduction."""
    reduced = frobenius_power_mod_bracket(Q.product(), w.e)
    return w.witness in reduced.terms


def _shifted_power(f: Poly, e: int, mult) -> Poly:
    """x^mult * f^(p^e-1) modulo the bracket ideal (x_i^(p^e) : all i)."""
    reduced = frobenius_power_mod_bracket(f, e)
    return multiply_monomial_truncated(reduced, mult, f.field.p**e)


# --------------------------------------------------------------------------
# regularity certificates
# --------------------------------------------------------------------------

def _uninverted_degree(exps, inverted):
    return sum(v for i, v in enumerate(exps) if i not in inverted)


def _discharged(factor: Poly, inverted) -> bool:
    """A factor is a unit in the localization once some support monomial
    has every variable inverted."""
    return any(_uninverted_degree(e, inverted) == 0 for e in factor.terms)


def _active_product(factors, active):
    head = factors[active[0]]
    result = head
    for i in active[1:]:
        result = result * factors[i]
    return result


def _stage_witness(f: Poly, var: int):
    """First surviving monomial of x_var * f^(p-1) in canonical order, or None.

    By the stage lemma in the module docstring this decides the stage at
    every e and localization: None means x_var divides f.
    """
    shifted = _shifted_power(f, 1, tuple(1 if i == var else 0 for i in range(f.vars.n)))
    return None if shifted.is_zero() else shifted.least_monomial()


def build_regularity_certificate(Q: CIdeal) -> RegCertificate:
    """Construct a chain of variable inversions ending in unit monomials.

    Mirrors an induction on the factor supports: while some factor has
    all support monomials of un-inverted degree two or more, invert one
    of its variables after exhibiting a surviving witness.  The base
    case requires every remaining factor to contain a support monomial
    whose un-inverted part is a single variable.

    Stage selection is deterministic: the least-index offending factor
    and its greatest-index un-inverted variable, with the witness taken
    at e = 1.  The stage lemma in the module docstring shows that this
    witness exists for irreducible factors; a missing one means a
    reducible factor and raises CertificateSearchExhausted.
    """
    inverted: set = set()
    stages: list = []
    notes: list = []
    active = list(range(len(Q.factors)))

    def discharge():
        nonlocal active
        kept = []
        for i in active:
            if _discharged(Q.factors[i], inverted):
                notes.append(
                    f"factor {i} became a unit after inverting "
                    f"{sorted(inverted)} and was discharged"
                )
            else:
                kept.append(i)
        active = kept

    while True:
        discharge()
        if not active:
            return RegCertificate(stages, [], notes)
        base = []
        offending = None
        for i in active:
            units = [
                e for e in Q.factors[i].terms if _uninverted_degree(e, inverted) == 1
            ]
            if units:
                base.append((i, min(units, key=canon_key)))
            elif offending is None:
                offending = i
        if offending is None:
            return RegCertificate(stages, base, notes)
        f = _active_product(Q.factors, active)
        g = Q.factors[offending]
        # an offending factor has no monomial of un-inverted degree 0 or 1,
        # so it has an un-inverted variable
        var = max(v for v in g.vars_used() if v not in inverted)
        witness = _stage_witness(f, var)
        if witness is None:
            raise CertificateSearchExhausted(
                f"{Q.vars.names[var]} divides the factor {g}, so no stage witness "
                "exists; the factor is reducible, which only "
                "CIdeal.from_factors(..., check_irreducible=False) admits"
            )
        mult = tuple(1 if i == var else 0 for i in range(Q.vars.n))
        stages.append(RegStage(var, 1, mult, witness))
        inverted.add(var)


def _verify_explain(Q: CIdeal, cert: RegCertificate):
    p = Q.field.p
    inverted: set = set()
    active = list(range(len(Q.factors)))

    def discharge():
        nonlocal active
        active = [i for i in active if not _discharged(Q.factors[i], inverted)]

    for k, stage in enumerate(cert.stages):
        discharge()
        if stage.inverted_var in inverted:
            return False, f"stage {k}: variable already inverted"
        expected_mult = tuple(
            1 if i == stage.inverted_var else 0 for i in range(Q.vars.n)
        )
        if tuple(stage.multiplier) != expected_mult:
            return False, f"stage {k}: multiplier is not the inverted variable"
        if not active:
            return False, f"stage {k}: no factors remain to localize"
        q = p**stage.e
        if any(
            v > q - 1 for i, v in enumerate(stage.witness) if i not in inverted
        ):
            return False, f"stage {k}: witness has an un-inverted exponent >= p^e"
        # the plain bracket equals the localized one here (stage lemma)
        f = _active_product(Q.factors, active)
        shifted = _shifted_power(f, stage.e, tuple(stage.multiplier))
        if tuple(stage.witness) not in shifted.terms:
            return False, f"stage {k}: witness does not survive the reduction"
        inverted.add(stage.inverted_var)
    discharge()
    recorded = {i for i, _ in cert.base}
    if recorded != set(active):
        return False, "base: recorded factors do not match the remaining ones"
    unit_vars = set()
    for i, mono in cert.base:
        mono = tuple(mono)
        if mono not in Q.factors[i].terms:
            return False, f"base: monomial not in the support of factor {i}"
        units = [j for j, v in enumerate(mono) if v and j not in inverted]
        if _uninverted_degree(mono, inverted) != 1 or len(units) != 1:
            return False, f"base: monomial for factor {i} is not a unit monomial"
        if units[0] in unit_vars:
            return False, "base: unit variables are not distinct"
        unit_vars.add(units[0])
    return True, None


def verify_regularity_certificate(Q: CIdeal, cert: RegCertificate) -> bool:
    """Deterministically replay a certificate against the ideal."""
    ok, _ = _verify_explain(Q, cert)
    return ok


# --------------------------------------------------------------------------
# F-pure threshold oracle
# --------------------------------------------------------------------------

def _threshold_samples(f: Poly, e_list, initial=None):
    """Yield the threshold sample of f at each e in e_list, None when unsplit.

    Square-free supported f, and f whose initial form is square-free
    supported, reduce one power at e = 1 for every e (the digit lemma and
    the initial-form lemma in the module docstring), so p^e may exceed
    the kernel's 16-bit exponent range.  Other input reduces
    in(f)^(p^e-1) per e, and f^(p^e-1) only where that dies.  initial,
    when given, is in(f), so f's initial form is not taken again.
    """
    if f.is_zero():
        raise ZeroInputError("threshold sample of the zero polynomial")
    fld = f.field
    n = f.vars.n
    if initial is None and not is_squarefree_supported(f):
        initial = f.order_and_initial()[1]
    if initial is None:
        digits = f
    else:
        digits = initial if is_squarefree_supported(initial) else None
    low = None  # least total degree on supp digits^(p-1), once a sample needs it
    for e in e_list:
        if digits is not None:
            q = frobenius_q(fld, e)
            if low is None:
                low = min(sum(w) for w in frobenius_power_mod_bracket(digits, 1).terms)
            b = n * (q - 1) - (q - 1) // (fld.p - 1) * low
        else:
            q = bracket_exponent(fld, e)
            # initial-form lemma: survivors of in(f)^(q-1), when there are
            # any, are the survivors of least degree
            reduced = frobenius_power_mod_bracket(initial, e)
            if reduced.is_zero():
                reduced = frobenius_power_mod_bracket(f, e)
            if reduced.is_zero():
                yield None
                continue
            b = max(n * (q - 1) - sum(w) for w in reduced.terms)
        yield FptSample(e, q, b, Fraction(b, q - 1))


def fpt_sample_poly(f: Poly, e: int):
    """Threshold sample of a bare polynomial at q = p^e, or None when unsplit.

    b is the largest total degree of a monomial multiplier keeping the
    reduced power outside the bracket ideal: for a surviving monomial w
    the best multiplier fills every exponent up to q-1, so b is the
    maximal coordinate slack n(q-1) - |w| of the survivors.  For
    square-free supported f every monomial of f^(q-1) survives, and b is
    read off f^(p-1) alone as n(q-1) - (q-1)/(p-1) * min |a| over
    supp f^(p-1), at every e.  For other input of order d, b is
    (n - d)(q - 1) exactly when the initial form's in(f)^(q-1) survives
    the bracket, which it always does when in(f) is square-free
    supported; only when it dies is f^(q-1) itself reduced.
    """
    return next(_threshold_samples(f, (e,)))
