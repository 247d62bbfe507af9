"""Square-free support and variable-disjoint irreducible factorization.

A polynomial is square-free supported when no variable appears with
exponent above one in any support monomial.  Such a polynomial factors,
uniquely up to scalars, into irreducible polynomials on pairwise
disjoint variable sets; the quotient by those factors is then a complete
intersection.  This module computes that factorization and the derived
irreducibility predicate.

The factorization is exact and deterministic.  Write a multilinear f as
f = a*x_i*x_j + b*x_i + c*x_j + d with a, b, c, d free of x_i and x_j.
Then f * d_i d_j f - (d_i f)(d_j f) = ad - bc, which vanishes exactly
when the matrix [[a, b], [c, d]] has rank one; over a UFD that means
f = (g1*x_i + g2)(h1*x_j + h2).  So x_i and x_j are uncoupled (the
difference vanishes) exactly when they lie in different irreducible
factors: coupling is an equivalence relation whose classes are the
factor supports.  Each factor is then read off the term table: the
terms of f sharing one fixed monomial outside a block are that block's
factor times a single coefficient of the cofactor.  Re-expanding the
product of the factors reproduces f, which proves the result.

Extension stability is a lemma, so nothing here checks it.  A field
embedding F -> K is an injective ring map: it sends ad - bc over F to
the same expression over K and keeps it zero or nonzero, so coupling,
the factor supports and the factor count are the same over K as over
F.  The leading monomial does not change either, so each factor over K
is the embedded factor over F, and the constant is the embedded
constant.  Hence a square-free supported polynomial that is irreducible
over F_{p^k} stays irreducible over every extension F_{p^(k*s)}.
"""

from __future__ import annotations

from operator import sub

from .errors import (
    FsingError,
    NotSquareFreeSupportedError,
    TheoremContradictionError,
    ZeroOrConstantError,
)
from .poly import Poly, canon_key


def squarefree_offender(f: Poly):
    """First support monomial (canonical order) with an exponent above one."""
    offenders = [e for e in f.terms if any(v > 1 for v in e)]
    if not offenders:
        return None
    return min(offenders, key=canon_key)


def is_squarefree_supported(f: Poly) -> bool:
    return all(v <= 1 for e in f.terms for v in e)


class CIdeal:
    """A complete-intersection presentation by variable-disjoint factors.

    Holds monic irreducible factors with pairwise disjoint variable
    sets, together with the scalar making the product equal the input.
    The factors are multiplied once, here, in the ideal's own context, so
    a factor from another context raises ContextMismatchError and every
    reader of :meth:`product` shares one polynomial.
    """

    __slots__ = ("field", "vars", "factors", "constant", "_product")

    # No fallback path exists; the attribute stays for code that still reads it.
    used_fallback = False

    def __init__(self, field, varctx, factors, constant):
        self.field = field
        self.vars = varctx
        self.factors = list(factors)
        self.constant = constant
        seen = set()
        for g in self.factors:
            off = squarefree_offender(g)
            if off is not None:
                raise NotSquareFreeSupportedError(
                    f"factor {g} is not square-free supported", off
                )
            if g.is_constant():
                raise ZeroOrConstantError("constant factor in complete intersection")
            vs = g.vars_used()
            if seen & vs:
                raise FsingError("factor variable sets are not pairwise disjoint")
            seen |= vs
        product = Poly.constant(field, varctx, 1)
        for g in self.factors:
            product = product * g
        self._product = product

    @property
    def t(self) -> int:
        return len(self.factors)

    def product(self) -> Poly:
        """The product of the factors, built once by the constructor."""
        return self._product

    def __repr__(self):
        inner = ", ".join(str(g) for g in self.factors)
        return f"CIdeal({inner})"


# --------------------------------------------------------------------------
# factorization
# --------------------------------------------------------------------------

def _coupled(f: Poly, i: int, j: int) -> bool:
    """Whether ad != bc, writing f = a*x_i*x_j + b*x_i + c*x_j + d.

    ad - bc equals f * d_i d_j f - (d_i f)(d_j f); it vanishes exactly
    when f = (g1*x_i + g2)(h1*x_j + h2), that is, when x_i and x_j lie
    in different irreducible factors.
    """
    parts = {(1, 1): {}, (1, 0): {}, (0, 1): {}, (0, 0): {}}
    for e, coeff in f.terms.items():
        rest = list(e)
        rest[i] = rest[j] = 0
        parts[e[i], e[j]][tuple(rest)] = coeff
    a, b, c, d = (Poly(f.field, f.vars, parts[k]) for k in ((1, 1), (1, 0), (0, 1), (0, 0)))
    return a * d != b * c


def _coupling_components(f: Poly):
    """Partition vars(f) into the variable sets of its irreducible factors.

    Coupling (see :func:`_coupled`) holds exactly between variables of
    the same irreducible factor, so it is an equivalence relation whose
    classes are the factor supports: each block is its least variable
    plus every remaining variable coupled with it.
    """
    rest = sorted(f.vars_used())
    blocks = []
    while rest:
        pivot, rest = rest[0], rest[1:]
        block, left = [pivot], []
        for j in rest:
            (block if _coupled(f, pivot, j) else left).append(j)
        blocks.append(block)
        rest = left
    return blocks


def _block_factor(f: Poly, block) -> Poly:
    """The monic factor of f on the variables of ``block``.

    The terms of f whose exponents outside the block equal those of the
    leading monomial are the block's factor times one cofactor coefficient.
    """
    inside = set(block)

    def outside(exps):
        return tuple(0 if i in inside else v for i, v in enumerate(exps))

    w0 = outside(f.leading_monomial())
    terms = {tuple(map(sub, e, w0)): c for e, c in f.terms.items() if outside(e) == w0}
    return Poly(f.field, f.vars, terms).monic()


def disjoint_factorization(f: Poly) -> CIdeal:
    """Factor a square-free supported polynomial into disjoint irreducibles.

    Factors are monic, square-free supported, on pairwise disjoint
    variable sets and sorted by least variable; their product times the
    recorded constant is checked to reproduce the input exactly.
    """
    if f.is_zero() or f.is_constant():
        raise ZeroOrConstantError("factorization needs a nonconstant input")
    off = squarefree_offender(f)
    if off is not None:
        raise NotSquareFreeSupportedError(
            f"input is not square-free supported at {f.vars.monomial_str(off)}", off
        )
    factors = [_block_factor(f, block) for block in _coupling_components(f)]
    constant = f.terms[f.leading_monomial()]
    ideal = CIdeal(f.field, f.vars, factors, constant)
    if ideal.product().scale(constant) != f:
        raise TheoremContradictionError(
            "factorization failed the re-expansion check",
            {"input": str(f), "factors": [str(g) for g in factors]},
        )
    return ideal


def is_irreducible_sqfree(f: Poly) -> bool:
    """Irreducibility over the coefficient field, via the factor count."""
    return disjoint_factorization(f).t == 1
