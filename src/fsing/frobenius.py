"""Frobenius splitting tests, regularity certificates, threshold samples.

Everything here rests on f^(q-1), q = p^e, modulo the bracket ideal
(x_i^q : all i), which :func:`fsing.poly.frobenius_power_mod_bracket`
(the kernel) computes.  For an ideal generated by variable-disjoint
factors the colon ideal of the bracket power is generated by f^(q-1)
together with the bracket itself (Fedder's criterion), so splitting at
the origin is the survival of a single reduced power.

Splitting witnesses and threshold samples are read off one monomial:
the least survivor, the least monomial in canonical order of f^(q-1)
outside (x_i^q).  The witness is the least survivor at e = 1.  The
sample's b is the largest total degree of a monomial multiplier keeping
the reduced power outside the bracket; a surviving w leaves room
n(q-1) - |w|, and canonical order is graded, so b = n(q-1) - |w| for the
least survivor w.  Let d be the order of f at the origin and in(f) its
part of degree d.  Every monomial of f^(q-1) has degree at least d(q-1),
and the part of degree d(q-1) is in(f)^(q-1), nonzero because the
polynomial ring is a domain.  Reduction modulo the monomial ideal
(x_i^q) keeps or drops each monomial on its own.  So
:func:`_least_survivors` decides by four rules, in turn:

1. The degree bound.  A survivor has every exponent below q, so its
   degree is at most n(q-1); when d > n nothing survives.
2. The closed form.  When in(f) is square-free supported, let m be its
   least monomial and c_m the coefficient.  The coefficient of
   x^((q-1)m) in in(f)^(q-1) is c_m^(q-1), which is nonzero, because
   q-1 vectors with 0/1 entries that add up to (q-1)m must each equal m.
   Every exponent of in(f)^(q-1) is at most q-1, so nothing in it meets
   the bracket, and canonical order is graded and compatible with
   multiplication, so (q-1)m is the least monomial of in(f)^(q-1), the
   part of least degree, and hence the least survivor of f^(q-1).
   Square-free supported f always takes this rule, since its order is
   at most n.
3. The initial form.  Otherwise in(f)^(q-1) is reduced; a survivor of
   it has the least degree d(q-1) among all monomials of f^(q-1), so its
   least survivor is the least survivor of f^(q-1).
4. The whole power.  Only when in(f)^(q-1) dies is f^(q-1) itself
   reduced, and then b < (n - d)(q - 1).

Rules 1 and 2 build no power, so there p^e may exceed the kernel's
16-bit exponent range.  A witness from rule 2 is a formula, not a
measurement: :func:`split_witness`, the one way the package certifies
an ideal's splitting, replays it with :func:`verify_split_witness`.
The replay builds no power either, yet shares nothing with rule 2: the
factors use disjoint variables, so the coefficient of x^w in f^(q-1) is
the product over the factors g of the coefficient of w's part in
g^(q-1), which :func:`fsing.poly.power_coefficient` sums over the
compositions of q-1 among the terms of g, each multinomial taken mod p
by Lucas' theorem.  At a smooth point a of a
hypersurface, in(f(x + a)) is the linear form sum_i d_i f(a) * x_i (the
Taylor lemma in :mod:`fsing.invariants`), which is square-free
supported, so the modify point checks
(:func:`fsing.invariants.hypersurface_point_checks`) write
lambda(e) = n - 1 without shifting f; a singular point's shifted
polynomial goes through the rules with its initial form.

Regularity certificates build no power.  Let f be square-free
supported, q = p^e, S a set of inverted variables and v not in S (the
stage lemma).  (a) Every exponent of f^(q-1) is at most q-1, as in
rule 2, so the bracket, localized at S or not, discards nothing.  (b)
The x_v-free part of f^(q-1) is (f|x_v=0)^(q-1), nonzero exactly when
x_v does not divide f; when f = x_v*A every term carries x_v^(q-1) and
dies after multiplying by x_v.  So x_v*f^(q-1) has a surviving monomial
iff x_v does not divide f, whatever e and S are, and a stage that fails
at e = 1 fails at every e.  (c) The preferred variable of an offending
irreducible factor never divides f: if it did, the factor would be that
variable, whose monomial has un-inverted degree 1.

The stage witness, the first survivor of x_v*f^(p-1), is read off the
factors' terms (the k in {0, p-2} lemma).  Write f = x_v*A + B with A
and B free of x_v, as f is square-free supported.  The terms of f^(p-1)
of x_v-degree k are binom(p-1, k) x_v^k A^k B^(p-1-k), and
binom(p-1, k) = (-1)^k is nonzero mod p.  x_v times such a term
survives exactly when k <= p-2.  Canonical order is graded and
compatible with multiplication, so the least monomial of a product is
the product of the least monomials, and the least monomial at degree k
is k lm(x_v A) + (p-1-k) lm(B), one step of lm(x_v A) - lm(B) per k;
its least over 0 <= k <= p-2 sits at k = 0 or k = p-2.  Distinct k give
distinct x_v-degrees, so nothing cancels.  For f = g * prod(h) over the
active factors, g the offending one with g = x_v*A_g + B_g, lm(B) is
lm(B_g) plus the sum of the lm(h), and lm(x_v A) is lm(x_v A_g) plus
the same sum.  B = 0, that is x_v dividing g, leaves no stage.  The
replay (:func:`_verify_explain`) shares nothing with this formula: it
checks that the witness minus x_v survives in f^(p-1) by
:func:`_survives`, the per-factor coefficient test of the split replay.

The threshold crosscheck (:func:`fsing.invariants.fpt_crosscheck`)
checks rule 2's samples by the degree bound.  A sample depends on the
least survivor w only through its degree, b = n(q-1) - |w|, and no
monomial of f^(q-1) has degree below (q-1)d.  So a survivor of degree
(q-1)d fixes b exactly, whichever monomial of that degree it is.  The
crosscheck replays the least survivor at q = p^e on the factors with
:func:`_survives`, which builds no power and shares nothing with rule 2,
and compares the sample with n - d for the order d of the origin
report, which shares nothing with either.  So on square-free supported
input no power is built: the kernel runs only in rules 3 and 4, on
input that is not square-free supported.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add, mul

from .errors import (
    CertificateSearchExhausted,
    TheoremContradictionError,
    ZeroInputError,
)
from .poly import (
    Poly,
    canon_key,
    frobenius_power_mod_bracket,
    frobenius_q,
    power_coefficient,
)
from .record import FrozenRecord, Record
from .structure import CIdeal, is_squarefree_supported

_set = object.__setattr__  # writes a field of a frozen record in its __init__


class SplitWitness(FrozenRecord):
    """Monomial surviving the reduced Frobenius power at level e."""

    __slots__ = ("e", "q", "witness")

    def __init__(self, e: int, q: int, witness: tuple):
        if not all(0 <= v <= q - 1 for v in witness):
            raise TheoremContradictionError(
                "split witness has an exponent outside 0..q-1",
                dump={"e": e, "q": q, "witness": list(witness)},
            )
        _set(self, "e", e)
        _set(self, "q", q)
        _set(self, "witness", witness)


class RegStage(FrozenRecord):
    """One localization step of a regularity certificate."""

    __slots__ = ("inverted_var", "e", "multiplier", "witness")

    def __init__(self, inverted_var: int, e: int, multiplier: tuple, witness: tuple):
        _set(self, "inverted_var", inverted_var)
        _set(self, "e", e)
        _set(self, "multiplier", multiplier)
        _set(self, "witness", witness)


class RegCertificate(Record):
    """Chain of localization stages plus base-case unit monomials; base
    holds (factor index, unit monomial) pairs."""

    __slots__ = ("stages", "base", "notes")

    def __init__(self, stages: list, base: list, notes: list | None = None):
        self.stages, self.base = stages, base
        self.notes = [] if notes is None else notes


class FptSample(FrozenRecord):
    """One oracle sample of the F-pure threshold at q = p^e."""

    __slots__ = ("e", "q", "b", "lam")

    def __init__(self, e: int, q: int, b: int, lam: Fraction):
        _set(self, "e", e)
        _set(self, "q", q)
        _set(self, "b", b)
        _set(self, "lam", lam)


def _least_survivors(f: Poly, e_list, initial=None):
    """Yield (e, w) for each e in e_list: w is the least survivor of
    f^(p^e - 1), its least monomial in canonical order outside
    (x_i^(p^e)), or None.

    The four rules in the module docstring decide, in turn: the degree
    bound, the closed form, the reduced in(f)^(q-1), the reduced f^(q-1).
    initial, when given, is in(f), so f's initial form is not taken again.
    """
    if f.is_zero():
        raise ZeroInputError("Frobenius power of the zero polynomial")
    if initial is None:
        initial = f.order_and_initial()[1]
    # in(f) is homogeneous, so its least monomial in canonical order is
    # its lexicographically largest
    least = max(initial.terms)
    closed = is_squarefree_supported(initial)
    for e in e_list:
        q = frobenius_q(f.field, e)
        if sum(least) > f.vars.n:
            w = None
        elif closed:
            w = tuple((q - 1) * v for v in least)
        else:
            reduced = frobenius_power_mod_bracket(initial, e)
            if reduced.terms:
                w = max(reduced.terms)  # homogeneous like in(f)
            else:
                reduced = frobenius_power_mod_bracket(f, e)
                w = reduced.least_monomial() if reduced.terms else None
        yield e, w


def fsplit_witness(f: Poly):
    """Splitting witness of f at the origin, or None when f is not split.

    Fedder's criterion at e = 1: the least survivor of f^(p-1) outside
    the bracket ideal (x_i^p : all i), by the rules of the module
    docstring.
    """
    _, w = next(_least_survivors(f, (1,)))
    return None if w is None else SplitWitness(1, f.field.p, w)


def _survives(factors, q: int, u) -> bool:
    """Whether x^u is a monomial of f^(q-1) outside (x_i^q), f the product
    of the variable-disjoint factors.

    Every exponent of u must be below q.  The factors use disjoint
    variables, so the coefficient of x^u in f^(q-1) is zero when u has an
    exponent outside every factor, and otherwise the product over the
    factors g of the coefficient of u's part on vars(g) in g^(q-1), which
    :func:`fsing.poly.power_coefficient` reads off g's terms.  No power is
    built.
    """
    u = tuple(u)
    if len(u) != factors[0].vars.n or not all(0 <= v < q for v in u):
        return False
    # u's part on vars(g): a variable of g has a nonzero column in g's terms
    parts = [tuple(map(mul, u, map(any, zip(*g.terms)))) for g in factors]
    # the parts are disjoint, so u is zero outside the factors exactly
    # when they add up to u
    if sum(map(sum, parts)) != sum(u):
        return False
    zero = factors[0].field.zero
    return all(power_coefficient(g, q - 1, part) != zero for g, part in zip(factors, parts))


def verify_split_witness(Q: CIdeal, w: SplitWitness) -> bool:
    """Replay a witness on the factors of Q, with q = p^(w.e): x^w must
    survive (x_i^q) in f^(q-1), f the product of Q's factors, which
    :func:`_survives` decides per factor.  Nothing here reuses the closed
    form behind w.
    """
    return _survives(Q.factors, frobenius_q(Q.field, w.e), w.witness)


def _replay_failure(message: str, Q: CIdeal, e: int, **extra):
    """The TheoremContradictionError of a replay on Q's factors at q = p^e
    that rejected what the theory guarantees; its dump holds e, q, the
    product, the factors and the extra entries."""
    dump = {"e": e, "q": Q.field.p**e, "poly": str(Q.product()),
            "factors": [str(g) for g in Q.factors], **extra}
    return TheoremContradictionError(message, dump=dump)


def split_witness(Q: CIdeal) -> SplitWitness:
    """The splitting witness of Q's product, replayed on the reduced power.

    The product of square-free supported factors always splits, and its
    witness survives the reduction, so a missing or rejected witness
    raises TheoremContradictionError with the product and its factors.
    """
    w = fsplit_witness(Q.product())
    if w is None or not verify_split_witness(Q, w):
        raise _replay_failure("square-free supported input failed the splitting test", Q, 1)
    return w


# --------------------------------------------------------------------------
# regularity certificates
# --------------------------------------------------------------------------

def _uninverted_degree(exps, inverted):
    return sum(v for i, v in enumerate(exps) if i not in inverted)


def _discharged(factor: Poly, inverted) -> bool:
    """A factor is a unit in the localization once some support monomial
    has every variable inverted."""
    return any(_uninverted_degree(e, inverted) == 0 for e in factor.terms)


def _stage_witness(g: Poly, others, var: int):
    """First surviving monomial of x_var * f^(p-1) in canonical order, or
    None, for f = g * prod(others): square-free supported factors on
    disjoint variables, x_var one of g's or of none.

    By the k in {0, p-2} lemma in the module docstring: with
    g = x_var*A + B, A and B free of x_var, and H = prod(others), it is
    x_var times the lesser of (p-1)*lm(B H) and
    (p-2)*lm(x_var A H) + lm(B H), where lm, the least monomial, takes
    products to sums; None when B = 0, that is, when x_var divides g.
    """
    p = g.field.p
    free = [a for a in g.terms if not a[var]]
    if not free:
        return None
    low = [0] * g.vars.n
    for h in others:
        low = list(map(add, low, h.least_monomial()))
    b = tuple(map(add, min(free, key=canon_key), low))
    candidates = [tuple((p - 1) * y for y in b)]
    tied = [a for a in g.terms if a[var]]
    if tied:
        a = tuple(map(add, min(tied, key=canon_key), low))
        candidates.append(tuple((p - 2) * x + y for x, y in zip(a, b)))
    w = min(candidates, key=canon_key)
    return w[:var] + (w[var] + 1,) + w[var + 1:]


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
        g = Q.factors[offending]
        # an offending factor has no monomial of un-inverted degree 0 or 1,
        # so it has an un-inverted variable
        var = max(v for v in g.vars_used() if v not in inverted)
        others = [Q.factors[i] for i in active if i != offending]
        witness = _stage_witness(g, others, var)
        if witness is None:
            raise CertificateSearchExhausted(
                f"{Q.vars.names[var]} divides the factor {g}, so no stage witness "
                "exists; the factor is reducible, which only a directly built "
                "CIdeal(...) admits"
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
        # the plain bracket equals the localized one here (stage lemma), and
        # the witness survives x_v * f^(q-1) iff witness - x_v survives in
        # f^(q-1), f the product of the active factors: x_v, not yet
        # inverted, passed the exponent test above
        rest = tuple(w - m for w, m in zip(stage.witness, expected_mult))
        if not _survives([Q.factors[i] for i in active], q, rest):
            return False, f"stage {k}: witness does not survive the bracket"
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

def _survivor_sample(n: int, e: int, q: int, w) -> FptSample:
    """The threshold sample at q = p^e off a least survivor w of an
    n-variable f^(q-1): b = n(q-1) - |w| (the module docstring)."""
    b = n * (q - 1) - sum(w)
    return FptSample(e, q, b, Fraction(b, q - 1))


def _threshold_samples(f: Poly, e_list, initial=None):
    """Yield the threshold sample of f at each e in e_list, None when unsplit.

    The sample is :func:`_survivor_sample` of the least survivor
    (:func:`_least_survivors`, whose initial argument this passes on).
    """
    for e, w in _least_survivors(f, e_list, initial):
        yield None if w is None else _survivor_sample(f.vars.n, e, f.field.p**e, w)


def fpt_sample_poly(f: Poly, e: int):
    """Threshold sample of a bare polynomial at q = p^e, or None when unsplit.

    b is the largest total degree of a monomial multiplier keeping the
    reduced power outside the bracket ideal, read off the least survivor
    (the module docstring).  For f of order d whose initial form is
    square-free supported, square-free supported f among them, that gives
    b = (n - d)(q - 1) at every e without reducing any power.
    """
    return next(_threshold_samples(f, (e,)))
