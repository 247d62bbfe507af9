"""Local numerical invariants at rational points of the zero set.

For a hypersurface, the multiplicity at a point is the order of the
shifted polynomial.  For a complete intersection cut out by
variable-disjoint factors the multiplicities multiply along a tensor
decomposition, so on the additive scale used here the order
contributions of the factors sum.  The defect of the F-pure threshold
then has the closed form mult - t, with dim = n - t and
fpt = dim - dfpt = n - mult.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .errors import PointNotOnVarietyError, ZeroInputError
from .field import level_field
from .frobenius import _threshold_samples
from .structure import CIdeal

SEARCH_BUDGET = 10**7


@dataclass
class InvariantReport:
    """Numerical invariants measured at one rational point."""

    point: tuple
    ord: int
    mult: int
    dim: int
    dfpt: int
    fpt: Fraction
    t: int
    exact: bool | None = None
    budget_exceeded: bool = False


def dfpt_at(Q: CIdeal, point) -> InvariantReport:
    """Invariant report of the complete intersection at a given point."""
    orders = []
    for g in Q.factors:
        if g.evaluate(point) != Q.field.zero:
            raise PointNotOnVarietyError(
                f"factor {g} does not vanish at the given point"
            )
        ordv, _ = g.shift(point).order_and_initial()
        orders.append(ordv)
    mult = sum(orders)
    t = Q.t
    n = Q.vars.n
    dim = n - t
    dfpt = mult - t
    return InvariantReport(
        point=tuple(point),
        ord=mult,
        mult=mult,
        dim=dim,
        dfpt=dfpt,
        fpt=Fraction(dim - dfpt),
        t=t,
    )


class _Memo(dict):
    """A dict that fills a missing key from ``fill`` on first lookup, so a
    per-element table over a large field holds only the elements used."""

    __slots__ = ("fill",)

    def __init__(self, fill):
        super().__init__()
        self.fill = fill

    def __missing__(self, key):
        value = self[key] = self.fill(key)
        return value


def _power_table(big, top):
    """a -> [a^0, ..., a^top] for the elements a of big looked up."""
    return _Memo(lambda a: [big.pow(a, k) for k in range(top + 1)])


def _top_exponent(polys):
    return max((k for g in polys for e in g.terms for k in e), default=0)


def level_zeros(polys, base, s):
    """Common zeros of polys that are new at level s of a search over base.

    The polynomials live over big = ``level_field(base, s)``, the degree-s
    extension of base = F_{p^k}, and the points come in grid order: point
    ``index`` has coordinate i equal to ``big.decode((index // q**i) % q)``
    with q = big.order, so coordinate 0 is the least significant.  A point
    with every coordinate in one proper subfield F_{p^(k*d)}, d | s and
    d < s, belongs to the earlier level d and is skipped.

    The walk substitutes x_(n-1) first and x_0 last.  A subtree shares the
    partial substitution of its prefix and is pruned as soon as some
    polynomial becomes a nonzero constant; a polynomial that becomes zero
    drops out, and once none is left every completion is a zero.  When no
    polynomial has x_0 to a power above 1, each one left at the last step
    is A*x_0 + B with A nonzero, and x_0 = -B/A is solved for instead of
    walking the field.  Zero polynomials impose no condition.
    """
    big = level_field(base, s)
    n = polys[0].vars.n
    zero, add, mul = big.zero, big.add, big.mul
    elements = big.elements
    powers = _power_table(big, _top_exponent(polys))
    subfields = [base.order**d for d in range(1, s) if s % d == 0]
    # bit j of mask[a]: a lies in the j-th proper subfield
    mask = _Memo(lambda a: sum(
        1 << j for j, order in enumerate(subfields) if big.pow(a, order) == a
    ))
    coords = [zero] * n
    # substitution never raises a degree, so linear in x_0 stays linear
    linear = all(e[0] <= 1 for g in polys for e in g.terms if e)

    def free(length, m):
        # every completion of coordinates 0 .. length-1, x_0 fastest
        for tail in product(elements(), repeat=length):
            mm = m
            for i, a in enumerate(reversed(tail)):
                coords[i] = a
                mm &= mask[a]
            if not mm:
                yield tuple(coords)

    def last(parts, m):
        # parts are univariate in x_0, none zero or a nonzero constant
        if linear:
            root = None
            for d in parts:
                b = d.get((0,))
                r = zero if b is None else big.neg(mul(b, big.inv(d[(1,)])))
                if root is None:
                    root = r
                elif r != root:
                    return
            if not m & mask[root]:
                coords[0] = root
                yield tuple(coords)
            return
        for a in elements():
            if m & mask[a]:
                continue
            pw = powers[a]
            for d in parts:
                total = zero
                for (k,), c in d.items():
                    total = add(total, mul(c, pw[k]))
                if total != zero:
                    break
            else:
                coords[0] = a
                yield tuple(coords)

    def walk(length, parts, m):
        if not parts:
            yield from free(length, m)
            return
        if length == 1:
            yield from last(parts, m)
            return
        i = length - 1
        split = [[(e[:i], e[i], c) for e, c in d.items()] for d in parts]
        unit = (0,) * i
        for a in elements():
            pw = powers[a]
            nxt = []
            for items in split:
                out = {}
                for rest, k, c in items:
                    if k:
                        w = pw[k]
                        if w == zero:
                            continue
                        c = mul(c, w)
                    cur = out.get(rest)
                    if cur is None:
                        out[rest] = c
                    else:
                        c = add(cur, c)
                        if c == zero:
                            del out[rest]
                        else:
                            out[rest] = c
                if len(out) == 1 and unit in out:
                    break  # a nonzero constant: no zero below this prefix
                if out:
                    nxt.append(out)
            else:
                coords[i] = a
                yield from walk(i, nxt, m & mask[a])

    parts = [g.terms for g in polys if g.terms]
    if any(len(d) == 1 and (0,) * n in d for d in parts):
        return
    yield from walk(n, parts, (1 << len(subfields)) - 1)


def order_finder(g):
    """Order of g at its zeros, as a function of the point.

    The order is 1 exactly where some first partial of g is nonzero (the
    degree-one coefficients of g(x + a) are the partials at a); only where
    they all vanish is g shifted to read the order off.
    """
    fld = g.field
    zero, add, mul = fld.zero, fld.add, fld.mul
    partials = [
        [(c, [(i, k) for i, k in enumerate(e) if k]) for e, c in d.terms.items()]
        for d in (g.derivative(i) for i in range(g.vars.n))
        if d.terms
    ]
    powers = _power_table(fld, _top_exponent([g]))

    def order(point):
        for terms in partials:
            total = zero
            for c, factors in terms:
                for i, k in factors:
                    c = mul(c, powers[point[i]][k])
                total = add(total, c)
            if total != zero:
                return 1
        return g.shift(point).order_and_initial()[0]

    return order


def global_invariants(Q: CIdeal, s_max: int = 3, budget: int = SEARCH_BUDGET):
    """Maximize the multiplicity over rational points of bounded height.

    Searches the origin, then the points of V(Q) level by level for
    s <= s_max, level s being the degree-s extension of the coefficient
    field (:func:`fsing.field.level_field`).  Within a level the points
    come in grid order and skip those of earlier levels
    (:func:`level_zeros`); a skipped point repeats an earlier
    multiplicity, and only a strictly larger one replaces the best, so
    the maximizer is the first in search order either way.  Orders come
    from first partials where possible (:func:`order_finder`).  A level
    whose full grid exceeds the budget, or whose degree leaves the
    supported range, is skipped and flagged.  The report is exact when
    every factor is homogeneous (the maximum then sits at the origin);
    otherwise it is a lower bound over the searched set.
    """
    best = None
    budget_exceeded = False
    n, t = Q.vars.n, Q.t
    origin = tuple(Q.field.zero for _ in range(n))
    if all(g.evaluate(origin) == Q.field.zero for g in Q.factors):
        best = dfpt_at(Q, origin)
    for s in range(1, s_max + 1):
        # the grid is sized first, so a level past the budget builds no field
        big = level_field(Q.field, s) if Q.field.order ** (s * n) <= budget else None
        if big is None:
            budget_exceeded = True
            continue
        factors = [g.embed(big) for g in Q.factors]
        orders = [order_finder(g) for g in factors]
        for point in level_zeros(factors, Q.field, s):
            mult = sum([order(point) for order in orders])
            if best is None or mult > best.mult:
                best = InvariantReport(
                    point=point,
                    ord=mult,
                    mult=mult,
                    dim=n - t,
                    dfpt=mult - t,
                    fpt=Fraction(n - mult),
                    t=t,
                )
    if best is None:
        raise PointNotOnVarietyError(
            "no rational point of the zero set found within the search budget"
        )
    best.exact = all(g.total_degree() == g.order_and_initial()[0] for g in Q.factors)
    best.budget_exceeded = budget_exceeded
    return best


def fpt_crosscheck(Q: CIdeal, e_list):
    """Compare oracle threshold samples against the closed form at the origin.

    Returns (sample, discrepancy) pairs with exact rational
    discrepancies lam(e) - (n - mult); the closed form predicts zero.

    Q is square-free supported, so every sample comes from one reduced
    f^(p-1) of f = Q.product() (see :func:`fsing.frobenius.fpt_sample_poly`):
    the e = 1 sample is measured, and the e >= 2 samples are derived from
    it by the digit lemma, which makes them a consistency check rather
    than independent evidence.  The independent check of the e >= 2
    powers is the full-expansion oracle ``naive_kernel`` in the tests.
    """
    origin = tuple(Q.field.zero for _ in range(Q.vars.n))
    report = dfpt_at(Q, origin)
    expected = Fraction(Q.vars.n - report.mult)
    e_list = tuple(e_list)
    out = []
    for e, sample in zip(e_list, _threshold_samples(Q.product(), e_list)):
        if sample is None:
            raise ZeroInputError(
                f"reduced power vanished at e={e}; no threshold sample"
            )
        out.append((sample, sample.lam - expected))
    return out
