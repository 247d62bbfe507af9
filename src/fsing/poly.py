"""Sparse multivariate polynomials over the contexts of :mod:`fsing.field`.

A polynomial is a table mapping exponent vectors (tuples of small
non-negative integers, one slot per variable of the ambient
:class:`VarCtx`) to nonzero field scalars.  Zero is the empty table.
Polynomials are treated as immutable once built; all operations return
fresh objects.

Two orderings on monomials are used throughout:

* the graded-lex order (total degree, then exponent vector), whose
  maximum is the leading term used for division and monic scaling;
* the canonical reading order used for serialization and witness
  selection: lower total degree first, ties broken so that the
  lexicographically largest exponent vector comes first.  "First in
  canonical order" is what reports and witness-picking functions mean
  by the least monomial.
"""

from __future__ import annotations

import math
import operator
from functools import reduce

from .errors import (
    ContextMismatchError,
    ExponentOverflowError,
    NameCollisionError,
    TheoremContradictionError,
    ZeroDivisorError,
    ZeroInputError,
)
from .field import MAX_CHAR, Field, embedding_basis

Monomial = tuple  # exponent vector, one entry per variable


def grlex_key(exps):
    return (sum(exps), exps)


def canon_key(exps):
    return (sum(exps), tuple(-x for x in exps))


class VarCtx:
    """An ordered tuple of distinct variable names."""

    __slots__ = ("names",)

    def __init__(self, names):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise NameCollisionError(f"duplicate variable names in {names!r}")
        self.names = names

    @property
    def n(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        return self.names.index(name)

    def monomial_str(self, exps) -> str:
        parts = []
        for name, e in zip(self.names, exps):
            if e == 1:
                parts.append(name)
            elif e > 1:
                parts.append(f"{name}^{e}")
        return "*".join(parts) if parts else "1"

    def __eq__(self, other):
        return isinstance(other, VarCtx) and self.names == other.names

    def __hash__(self):
        return hash(self.names)

    def __repr__(self):
        return f"VarCtx{self.names!r}"


class Poly:
    """Sparse polynomial; see the module docstring for the representation."""

    __slots__ = ("field", "vars", "terms")

    def __init__(self, field: Field, varctx: VarCtx, terms=None):
        self.field = field
        self.vars = varctx
        clean = {}
        n = varctx.n
        zero = field.zero
        for exps, c in (terms or {}).items():
            if len(exps) != n:
                raise ContextMismatchError(
                    f"exponent vector {exps!r} has wrong arity for {varctx!r}"
                )
            if c != zero:
                clean[exps] = c
        self.terms = clean

    @classmethod
    def _clean(cls, field, varctx, terms):
        """A polynomial on terms a ring operation built: every exponent
        vector has the arity of varctx and no coefficient is zero, so
        nothing is checked again.  The dict is kept, not copied."""
        self = object.__new__(cls)
        self.field, self.vars, self.terms = field, varctx, terms
        return self

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, field, varctx):
        return cls(field, varctx, {})

    @classmethod
    def constant(cls, field, varctx, value):
        c = field.scalar(value) if isinstance(value, int) else value
        return cls(field, varctx, {(0,) * varctx.n: c})

    @classmethod
    def variable(cls, field, varctx, i: int):
        exps = tuple(1 if j == i else 0 for j in range(varctx.n))
        return cls(field, varctx, {exps: field.one})

    @classmethod
    def make(cls, field, varctx, mapping):
        """Build from a mapping with integer or scalar coefficients."""
        terms = {}
        for exps, c in mapping.items():
            exps = tuple(int(e) for e in exps)
            if any(e < 0 or e >= MAX_CHAR for e in exps):
                raise ExponentOverflowError(f"exponent out of range in {exps!r}")
            scal = field.scalar(c) if isinstance(c, int) else field.from_coords(c)
            if scal != field.zero:
                terms[exps] = scal
        return cls(field, varctx, terms)

    # -- basic queries ---------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(sum(e) == 0 for e in self.terms)

    def total_degree(self) -> int:
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def vars_used(self) -> frozenset:
        used = set()
        for e in self.terms:
            for i, v in enumerate(e):
                if v:
                    used.add(i)
        return frozenset(used)

    def leading_monomial(self):
        """Graded-lex maximal monomial, used for division and scaling."""
        if not self.terms:
            raise ZeroInputError("zero polynomial has no leading monomial")
        return max(self.terms, key=grlex_key)

    def least_monomial(self):
        """First monomial in canonical reading order."""
        if not self.terms:
            raise ZeroInputError("zero polynomial has no monomials")
        return min(self.terms, key=canon_key)

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: canon_key(kv[0]))

    # -- ring operations ---------------------------------------------------

    def _compat(self, other):
        if self.field != other.field or self.vars != other.vars:
            raise ContextMismatchError("operands live in different contexts")

    def __add__(self, other):
        self._compat(other)
        fld = self.field
        out = dict(self.terms)
        for e, c in other.terms.items():
            cur = out.get(e)
            if cur is None:
                out[e] = c
            else:
                merged = fld.add(cur, c)
                if merged == fld.zero:
                    del out[e]
                else:
                    out[e] = merged
        return Poly._clean(fld, self.vars, out)

    def __neg__(self):
        fld = self.field
        return Poly._clean(fld, self.vars, {e: fld.neg(c) for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._compat(other)
        fld = self.field
        mul, add, zero = fld.mul, fld.add, fld.zero
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        out = {}
        for ea, ca in a.items():
            for eb, cb in b.items():
                e = tuple(map(operator.add, ea, eb))
                c = mul(ca, cb)
                cur = out.get(e)
                if cur is None:
                    out[e] = c
                else:
                    merged = add(cur, c)
                    if merged == zero:
                        del out[e]
                    else:
                        out[e] = merged
        return Poly._clean(fld, self.vars, out)

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power of a polynomial")
        result = Poly.constant(self.field, self.vars, 1)
        for _ in range(k):
            result = result * self
        return result

    def scale(self, c):
        fld = self.field
        if c == fld.zero:
            return Poly.zero(fld, self.vars)
        return Poly._clean(fld, self.vars, {e: fld.mul(v, c) for e, v in self.terms.items()})

    def monic(self):
        lc = self.terms[self.leading_monomial()]
        if lc == self.field.one:
            return self
        return self.scale(self.field.inv(lc))

    def __eq__(self, other):
        return (
            isinstance(other, Poly)
            and self.field == other.field
            and self.vars == other.vars
            and self.terms == other.terms
        )

    # -- calculus and evaluation -------------------------------------------

    def hasse_layer(self, k: int) -> dict:
        """The nonzero Hasse derivatives of order k, keyed by alpha, |alpha| = k.

        D^alpha f = sum_e binom(e, alpha) * c_e * x^(e - alpha), where
        binom(e, alpha) = prod_i binom(e_i, alpha_i) mod p, so that
        D^alpha f(a) is the coefficient of x^alpha in f(x + a) (Taylor's
        formula, which holds in every characteristic).  At k = 1 the layer
        holds the nonzero first partials.  The binomials lie in F_p, so
        the layer has its coefficients in the field of f.  One pass over
        the terms builds the whole layer, listing the alpha <= e of a term
        once per tuple of nonzero exponents; the keys come in decreasing
        lexicographic order, d_0 f first at k = 1.  No two terms meet: for
        a fixed alpha the key e - alpha determines e, and c_e * binom(e,
        alpha) is never 0, the binomials kept being nonzero mod p.
        """
        fld = self.field
        mul, p = fld.mul, fld.p
        n = self.vars.n
        lowerings = {}  # nonzero exponents of e -> [(alpha on them, binom mod p)]

        def lower(vs):
            partial = [((), 1, k)]  # (alpha so far, binom so far, degree left)
            for v in vs:
                grown = []
                for js, b, left in partial:
                    for j in range(min(v, left) + 1):
                        bj = b * math.comb(v, j) % p
                        if bj:
                            grown.append((js + (j,), bj, left - j))
                partial = grown
            rows = lowerings[vs] = [(js, b) for js, b, left in partial if not left]
            return rows

        layers = {}
        for e, c in self.terms.items():
            support = [i for i, v in enumerate(e) if v]
            vs = tuple(e[i] for i in support)
            for js, b in lowerings.get(vs) or lower(vs):
                alpha = [0] * n
                for i, j in zip(support, js):
                    alpha[i] = j
                alpha = tuple(alpha)
                rest = tuple(map(operator.sub, e, alpha))
                layers.setdefault(alpha, {})[rest] = c if b == 1 else mul(c, fld.scalar(b))
        return {
            alpha: Poly._clean(fld, self.vars, layers[alpha])
            for alpha in sorted(layers, reverse=True)
        }

    def evaluate(self, point):
        fld = self.field
        if len(point) != self.vars.n:
            raise ContextMismatchError("point arity does not match variable context")
        total = fld.zero
        for e, c in self.terms.items():
            val = c
            for a, k in zip(point, e):
                if k:
                    val = fld.mul(val, fld.pow(a, k))
            total = fld.add(total, val)
        return total

    def substitute(self, assignments: dict) -> "Poly":
        """Replace the given variables (index -> scalar) by constants."""
        fld = self.field
        out = {}
        for e, c in self.terms.items():
            coeff = c
            ne = list(e)
            for i, a in assignments.items():
                k = e[i]
                if k:
                    coeff = fld.mul(coeff, fld.pow(a, k))
                    ne[i] = 0
            if coeff == fld.zero:
                continue
            ne = tuple(ne)
            cur = out.get(ne)
            if cur is None:
                out[ne] = coeff
            else:
                merged = fld.add(cur, coeff)
                if merged == fld.zero:
                    del out[ne]
                else:
                    out[ne] = merged
        return Poly(fld, self.vars, out)

    def shift(self, point) -> "Poly":
        """Substitute x_i -> x_i + a_i; exact round trip with the negated point.

        Each variable's expansion rows, the coefficients binom(k, j) *
        a_i^(k-j) of x_i^j in (x_i + a_i)^k, are built once per call; a
        term's expansion has distinct monomials, so only terms are merged.
        The origin moves no variable and returns the polynomial itself.
        """
        fld = self.field
        if len(point) != self.vars.n:
            raise ContextMismatchError("point arity does not match variable context")
        mul, add, zero, one, p = fld.mul, fld.add, fld.zero, fld.one, fld.p
        moved = [i for i, a in enumerate(point) if a != zero]
        if not moved:
            return self
        rows = {}  # (i, k) -> [(j, coefficient of x_i^j)], binom(k, j) != 0 mod p

        def expansion_row(i, k):
            a = point[i]
            row = []
            for j in range(k + 1):
                binom = math.comb(k, j) % p
                if binom:
                    w = fld.pow(a, k - j)
                    row.append((j, w if binom == 1 else mul(w, fld.scalar(binom))))
            rows[i, k] = row
            return row

        result = {}
        for e, c in self.terms.items():
            expansion = [(e, c)]
            for i in moved:
                k = e[i]
                if not k:
                    continue
                row = rows.get((i, k)) or expansion_row(i, k)
                expansion = [
                    (ce[:i] + (j,) + ce[i + 1 :], cc if w == one else mul(cc, w))
                    for ce, cc in expansion
                    for j, w in row
                ]
            for ne, nc in expansion:
                prev = result.get(ne)
                if prev is None:
                    result[ne] = nc
                else:
                    merged = add(prev, nc)
                    if merged == zero:
                        del result[ne]
                    else:
                        result[ne] = merged
        return Poly._clean(fld, self.vars, result)

    def homogenize(self, name: str) -> "Poly":
        """Add a fresh last variable raising every term to the top degree."""
        if name in self.vars.names:
            raise NameCollisionError(f"variable {name!r} already present")
        new_vars = VarCtx(self.vars.names + (name,))
        d = self.total_degree()
        out = {e + (d - sum(e),): c for e, c in self.terms.items()}
        return Poly._clean(self.field, new_vars, out)

    def order_and_initial(self):
        """Order at the origin and the sum of minimal-degree terms."""
        if self.is_zero():
            raise ZeroInputError("order of the zero polynomial is undefined")
        ordv = min(sum(e) for e in self.terms)
        init = {e: c for e, c in self.terms.items() if sum(e) == ordv}
        return ordv, Poly._clean(self.field, self.vars, init)

    def embed(self, big: Field) -> "Poly":
        """Reinterpret the polynomial over an extension big of its field.

        t of F_{p^k} goes to the first root of its modulus in big's
        encoding order (:func:`fsing.field.embedding_basis`).  Each distinct
        coefficient is mapped once.
        """
        small = self.field
        if big == small:
            return self
        if big.p != small.p or big.s % small.s:
            raise ContextMismatchError(f"{big!r} is not an extension of {small!r}")
        basis = embedding_basis(small, big)
        image = {
            c: reduce(big.add, map(big.mul, map(big.scalar, c), basis))
            for c in set(self.terms.values())
        }
        return Poly._clean(big, self.vars, {e: image[c] for e, c in self.terms.items()})

    # -- formatting --------------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        fld = self.field
        parts = []
        for e, c in self.sorted_terms():
            mono = self.vars.monomial_str(e)
            cs = fld.scalar_str(c)
            if fld.s > 1 and ("+" in cs):
                cs = f"({cs})"
            if mono == "1":
                parts.append(cs)
            elif c == fld.one:
                parts.append(mono)
            else:
                parts.append(f"{cs}*{mono}")
        return " + ".join(parts)

    def __repr__(self):
        return f"Poly({self})"


# --------------------------------------------------------------------------
# division
# --------------------------------------------------------------------------

def exact_divide(f: Poly, g: Poly):
    """Quotient f/g when the division is exact, else None.

    Long division by the graded-lex leading term of g; since there is a
    single divisor, the first non-divisible leading term already proves
    that no exact quotient exists.  The result is verified by
    re-multiplication before being returned.
    """
    f._compat(g)
    if g.is_zero():
        raise ZeroDivisorError("division by the zero polynomial")
    fld = f.field
    if f.is_zero():
        return Poly.zero(fld, f.vars)
    lt_g = g.leading_monomial()
    inv_lc = fld.inv(g.terms[lt_g])
    rem = dict(f.terms)
    quo = {}
    while rem:
        lt_r = max(rem, key=grlex_key)
        diff = tuple(map(operator.sub, lt_r, lt_g))
        if any(d < 0 for d in diff):
            return None
        c = fld.mul(rem[lt_r], inv_lc)
        quo[diff] = c
        for e, v in g.terms.items():
            ne = tuple(map(operator.add, e, diff))
            cur = rem.get(ne)
            stepped = fld.mul(v, c)
            if cur is None:
                rem[ne] = fld.neg(stepped)
            else:
                merged = fld.sub(cur, stepped)
                if merged == fld.zero:
                    del rem[ne]
                else:
                    rem[ne] = merged
    q = Poly(fld, f.vars, quo)
    if q * g != f:
        raise TheoremContradictionError(
            "exact division failed re-multiplication check",
            dump={"dividend": str(f), "divisor": str(g), "quotient": str(q)},
        )
    return q


# --------------------------------------------------------------------------
# Frobenius kernel
# --------------------------------------------------------------------------

def frobenius_q(fld: Field, e) -> int:
    """q = p^e for a Frobenius exponent e, which must be a positive integer."""
    if not isinstance(e, int) or e < 1:
        raise ValueError(f"Frobenius exponent must be a positive integer, got {e!r}")
    return fld.p**e


def bracket_exponent(fld: Field, e) -> int:
    """q = p^e (:func:`frobenius_q`) for a kernel that builds f^(q-1), so
    p^e must lie inside the supported 16-bit exponent range."""
    q = frobenius_q(fld, e)
    if q >= MAX_CHAR:
        raise ExponentOverflowError(f"p^e = {q} leaves the supported exponent range")
    return q


def frobenius_power_mod_bracket(f: Poly, e: int) -> Poly:
    """f^(p^e - 1) reduced modulo the bracket ideal (x_i^(p^e) : all i).

    Computed through the factorization
    f^(p^e-1) = prod_{i<e} (f^(p-1)) with exponents scaled by p^i and
    coefficients pushed through i Frobenius twists.  Each product is
    reduced modulo the bracket before the next one, and so are f and each
    twisted factor; exponents only grow under multiplication, so a dropped
    monomial never feeds a surviving one and nothing is lost from the
    final reduced result.

    Only input that is not square-free supported comes here, through
    rules 3 and 4 of :func:`fsing.frobenius._least_survivors`: for
    square-free supported f no term reaches the bracket (the stage lemma
    in :mod:`fsing.frobenius`), so the package takes the plain power.
    """
    if f.is_zero():
        raise ZeroInputError("Frobenius power of the zero polynomial")
    fld = f.field
    q = bracket_exponent(fld, e)

    def bracket(g):
        return Poly(fld, g.vars, {x: c for x, c in g.terms.items() if all(v < q for v in x)})

    power = base = bracket(f)
    for _ in range(fld.p - 2):
        power = bracket(power * base)
    result = power
    for i in range(1, e):
        scale = fld.p**i
        twisted = {tuple(v * scale for v in x): fld.pow(c, scale) for x, c in power.terms.items()}
        result = bracket(result * bracket(Poly(fld, f.vars, twisted)))
    return result


def lucas_multinomial(parts, p: int) -> int:
    """multinomial(sum(parts); parts) mod p, by Lucas' theorem.

    Modulo p the multinomial is the product, over base-p digit positions,
    of the multinomial of the parts' digits there, and it vanishes exactly
    when adding the parts in base p carries (Kummer), that is, when some
    position's digits add up to p or more.  The digit multinomial is the
    product of the binomials C(d_1 + ... + d_i, d_i), all below p, so no
    factorial of the sum is built.
    """
    result = 1
    parts = [k for k in parts if k]
    while parts:
        total = 0
        for k in parts:
            d = k % p
            total += d
            if total >= p:
                return 0
            result = result * math.comb(total, d) % p
        parts = [k // p for k in parts if k >= p]
    return result


def _clip(lo, hi, alpha, beta):
    """Narrow lo..hi to the integers k with k * alpha <= beta."""
    if alpha > 0:
        return lo, min(hi, beta // alpha)
    if alpha < 0:
        return max(lo, -(beta // -alpha)), hi  # ceil(beta / alpha)
    return (lo, hi) if beta >= 0 else (lo, lo - 1)


def _compositions(terms, k, u):
    """Every way to write x^u as a product of k terms c*x^a of terms, each
    a <= u in every coordinate and terms sorted by degree, largest first:
    tuples of pairs (c, k_t), k_t > 0, in the order of terms.

    Each level picks the next term to take a positive multiplicity k_t, so
    a term left out costs no recursion.  The terms after it must reach
    degree |u| - k_t |a| with k - k_t factors, so that degree lies between
    k - k_t times their least and their largest degree; this bounds k_t to
    an interval.  The same holds for each coordinate on its own, which
    fixes k_t outright when the later terms miss a variable of this one,
    however large k is.  The last term takes what is left.  A later term
    takes part only while it stays below what is left of u.
    """
    if not k:
        if not any(u):
            yield ()
        return
    degree = sum(u)
    for i, (a, c) in enumerate(terms):
        d, rest = sum(a), terms[i + 1:]
        hi = min([k, *(r // v for v, r in zip(a, u) if v)])
        if rest:
            high, low = sum(rest[0][0]), sum(rest[-1][0])
            lo, hi = _clip(1, hi, high - d, k * high - degree)
            lo, hi = _clip(lo, hi, d - low, degree - k * low)
            for v, r, col in zip(a, u, zip(*(b for b, _ in rest))):
                top, bottom = max(col), min(col)
                lo, hi = _clip(lo, hi, top - v, k * top - r)
                lo, hi = _clip(lo, hi, v - bottom, r - k * bottom)
        else:
            lo = k
        for kt in range(lo, hi + 1):
            left = tuple(r - kt * v for v, r in zip(a, u))
            later = [(b, cb) for b, cb in rest if all(map(operator.le, b, left))]
            for tail in _compositions(later, k - kt, left):
                yield ((c, kt), *tail)


def power_coefficient(g: Poly, k: int, u):
    """The coefficient of x^u in g^k, read off the terms of g without
    building any power.

    By the multinomial theorem it is the sum, over multiplicities k_t of
    the terms c_t x^(a_t) of g with sum k_t = k and sum k_t a_t = u, of
    multinomial(k; k_t) prod c_t^(k_t).  Only terms with a_t <= u in every
    coordinate can take a multiplicity, so :func:`_compositions` walks
    those alone, and each multinomial is taken mod p by
    :func:`lucas_multinomial`.
    """
    if k < 0:
        raise ValueError("negative power of a polynomial")
    u = tuple(u)
    if len(u) != g.vars.n:
        raise ContextMismatchError(f"exponent vector {u!r} has wrong arity for {g.vars!r}")
    fld = g.field
    if k == 1:  # p = 2, e = 1: the coefficient is g's own
        return g.terms.get(u, fld.zero)
    terms = [(a, c) for a, c in g.terms.items() if all(map(operator.le, a, u))]
    terms.sort(key=lambda term: -sum(term[0]))
    total = fld.zero
    for chosen in _compositions(terms, k, u):
        m = lucas_multinomial([kt for _, kt in chosen], fld.p)
        if m:
            coeff = fld.scalar(m)
            for c, kt in chosen:
                coeff = fld.mul(coeff, fld.pow(c, kt))
            total = fld.add(total, coeff)
    return total
