"""Local numerical invariants at rational points of the zero set.

For a hypersurface, the multiplicity at a point is the order of the
shifted polynomial.  For a complete intersection cut out by
variable-disjoint factors the multiplicities multiply along a tensor
decomposition, so on the additive scale used here the order
contributions of the factors sum.  The defect of the F-pure threshold
then has the closed form mult - t, with dim = n - t and
fpt = dim - dfpt = n - mult.

Points of high order (the Taylor lemma).  For every exponent vector
alpha, the coefficient of x^alpha in g(x + a) is the Hasse derivative
D^alpha g(a), where D^alpha g = sum_e binom(e, alpha) * c_e * x^(e - alpha)
and binom(e, alpha) = prod_i binom(e_i, alpha_i) mod p
(:meth:`fsing.poly.Poly.hasse_layer`).  This is Taylor's formula with
binomials in place of factorials, so it holds in every characteristic:
(x_i + a_i)^e_i contributes binom(e_i, alpha_i) * a_i^(e_i - alpha_i) *
x_i^alpha_i.  So a zero a of g has order above b only where D^alpha g(a)
= 0 for every |alpha| = b, and the zeros of order above b lie in the
common zeros V(g, D^alpha g : |alpha| = b) of g and its layer of order
b.  At b = 1 the layer is the first partials, which gives the singular
locus: a zero has order 1 exactly where some first partial is nonzero.
For t factors the multiplicity is the sum of the factors' orders, each
at least 1, so it exceeds m only where some factor g_j has order at
least floor(m/t) + 1: a point of V(g_1, ..., g_t) with mult > m lies in
the union over j of V(g_1, ..., g_t, D^alpha g_j : |alpha| = floor(m/t)),
and only factors of degree above floor(m/t) can contribute.  The
binomials lie in F_p, so every layer has its coefficients in the field
of g and the orbit lemma below applies to it.  One point search,
:func:`maximize`, serves :func:`global_invariants` and
:func:`hypersurface_point_checks`: it walks these sets for multiplicities
above the best one found, and the checks take no order at a smooth zero.

Conjugate points share their orders (the orbit lemma).  Let the
coefficients of g lie in base = F_{p^k} and let phi(a) = a^(p^k) on an
extension of base.  phi is a ring automorphism that fixes base, so
applying it to the coordinates of a point a and to the coefficients of
g(x + a) gives g(x + phi(a)): g vanishes at phi(a) exactly when it
vanishes at a, with the same order, and so do its Hasse derivatives,
whose coefficients lie in base too.  A search over the level
F_{p^(k*s)} that only maximizes an order therefore needs one point per
orbit {a, phi(a), ..., phi^(s-1)(a)}, and the walks of the Taylor lemma
take the member of least grid index, which is also the point a search
in grid order meets first.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice, product

from .errors import PointNotOnVarietyError
from .field import MAX_DEGREE, level_field
from .frobenius import _digit_samples, _threshold_samples
from .poly import Poly
from .record import Record
from .structure import CIdeal

SEARCH_BUDGET = 10**7


class InvariantReport(Record):
    """Numerical invariants measured at one rational point."""

    __slots__ = ("point", "ord", "mult", "dim", "dfpt", "fpt", "t", "exact",
                 "budget_exceeded")

    def __init__(self, point: tuple, ord: int, mult: int, dim: int, dfpt: int,
                 fpt: Fraction, t: int, exact: bool | None = None,
                 budget_exceeded: bool = False):
        self.point, self.ord, self.mult = point, ord, mult
        self.dim, self.dfpt, self.fpt = dim, dfpt, fpt
        self.t, self.exact, self.budget_exceeded = t, exact, budget_exceeded


def dfpt_at(Q: CIdeal, point) -> InvariantReport:
    """Invariant report of the complete intersection at a given point."""
    for g in Q.factors:
        if g.evaluate(point) != Q.field.zero:
            raise PointNotOnVarietyError(
                f"factor {g} does not vanish at the given point"
            )
    return _report(point, _order_sum(Q.factors, point), Q.vars.n, Q.t)


def _report(point, mult: int, n: int, t: int) -> InvariantReport:
    """Report at a point of multiplicity mult on t factors in n variables:
    dim = n - t, dfpt = mult - t and fpt = dim - dfpt = n - mult."""
    return InvariantReport(
        point=tuple(point),
        ord=mult,
        mult=mult,
        dim=n - t,
        dfpt=mult - t,
        fpt=Fraction(n - mult),
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


def level_zeros(polys, base, s, orbits=False):
    """Common zeros of polys that are new at level s of a search over base.

    The polynomials live over big = ``level_field(base, s)``, the degree-s
    extension of base = F_{p^k}, and the points come in grid order: point
    ``index`` has coordinate i equal to ``big.decode((index // q**i) % q)``
    with q = big.order, so coordinate 0 is the least significant.  Let
    phi(a) = a^(p^k), which generates the automorphisms of big over base.
    A point fixed by some phi^j, 0 < j < s, has every coordinate in the
    proper subfield F_{p^(k*gcd(j, s))}, so it belongs to an earlier level
    and is skipped: bit j - 1 of the walk's mask says that phi^j fixes
    every coordinate substituted so far, and a point is new exactly when
    the mask ends at 0.

    With orbits set, the walk yields one point per Frobenius orbit: the
    member of least grid index (the orbit lemma in the module docstring
    says its conjugates share its zeros and orders when the polynomials
    have coefficients in base).  Since coordinates are substituted from
    the most significant one down, a point has a conjugate of smaller
    index exactly when, at the first coordinate where they differ, some
    phi^j still in the mask maps the coordinate to a smaller encoding; the
    branch is pruned there.

    The walk substitutes x_(n-1) first and x_0 last.  A subtree shares the
    partial substitution of its prefix and is pruned as soon as some
    polynomial becomes a nonzero constant, the polynomials being tried in
    the order given; a polynomial that becomes zero drops out, and once
    none is left every completion is a zero.  The inputs of degree at most
    1, such as a layer of order deg g - 1 of the Taylor lemma in the
    module docstring, are replaced by the reduced echelon basis of their
    span, which has the same common zeros, and go first, the row of the
    highest pivot leading.  Each row has its pivot, with coefficient 1,
    on its lowest-index variable, so it becomes a constant as soon as its
    pivot is substituted and prunes every value but one there; a span
    that holds a nonzero constant has no zeros, and the walk yields
    nothing.  When no polynomial has x_0 to a power above 1, each one left
    at the last step is A*x_0 + B with A nonzero, and x_0 = -B/A is solved
    for instead of walking the field.  Zero polynomials impose no
    condition.
    """
    big = level_field(base, s)
    n = polys[0].vars.n
    zero, add, mul = big.zero, big.add, big.mul
    elements = big.elements
    powers = _power_table(big, _top_exponent(polys))

    def conjugate_masks(a):
        # (fixed, smaller): bit j - 1 set where phi^j(a) = a, and where
        # phi^j(a) encodes below a (only kept with orbits)
        fixed = smaller = 0
        code = big.encode(a)
        for j in range(1, s):
            b = big.pow(a, base.order**j)
            if b == a:
                fixed |= 1 << (j - 1)
            elif orbits and big.encode(b) < code:
                smaller |= 1 << (j - 1)
        return fixed, smaller

    masks = _Memo(conjugate_masks)

    def kept(a, m):
        # a as the last coordinate leaves the point new and, with orbits,
        # the least of its orbit
        fixed, smaller = masks[a]
        return not m & (fixed | smaller)

    coords = [zero] * n
    # substitution never raises a degree, so linear in x_0 stays linear
    linear = all(e[0] <= 1 for g in polys for e in g.terms if e)

    def free(length, m):
        # every completion of coordinates 0 .. length-1, x_0 fastest
        if not m:
            for tail in product(elements(), repeat=length):
                coords[:length] = tail[::-1]
                yield tuple(coords)
            return
        if length:
            for a in elements():
                fixed, smaller = masks[a]
                if not m & smaller:
                    coords[length - 1] = a
                    yield from free(length - 1, m & fixed)

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
            if not m or kept(root, m):
                coords[0] = root
                yield tuple(coords)
            return
        for a in elements():
            if m and not kept(a, m):
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
            mm = 0
            if m:
                fixed, smaller = masks[a]
                if m & smaller:
                    continue  # a conjugate of this branch comes first
                mm = m & fixed
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
                yield from walk(i, nxt, mm)

    parts = [g.terms for g in polys if g.terms]
    rows = _linear_echelon([d for d in parts if _is_linear(d)], big, n)
    if rows is None:
        return
    parts = rows + [d for d in parts if not _is_linear(d)]
    yield from walk(n, parts, (1 << (s - 1)) - 1)


def _is_linear(terms):
    return all(sum(e) <= 1 for e in terms)


def _linear_echelon(linear, big, n):
    """Reduced echelon basis of the span of the term tables in linear, all
    of degree at most 1 over big, as term tables, or None when the span
    holds a nonzero constant.

    Each row has coefficient 1 on its pivot, the lowest-index variable it
    has, and 0 on the pivots of the other rows; the rows come in
    decreasing pivot order.
    """
    zero, mul, sub = big.zero, big.mul, big.sub
    rows = {}  # pivot -> coefficients of x_0, ..., x_(n-1) and of 1
    for d in linear:
        v = [zero] * (n + 1)
        for e, c in d.items():
            v[e.index(1) if any(e) else n] = c
        for piv, row in rows.items():
            c = v[piv]
            if c != zero:
                v = [sub(a, mul(c, b)) for a, b in zip(v, row)]
        piv = next((i for i, a in enumerate(v) if a != zero), None)
        if piv is None:
            continue  # in the span already
        if piv == n:
            return None
        inv = big.inv(v[piv])
        v = [mul(inv, a) for a in v]
        for other in list(rows):
            c = rows[other][piv]
            if c != zero:
                rows[other] = [sub(a, mul(c, b)) for a, b in zip(rows[other], v)]
        rows[piv] = v
    monomials = [tuple(int(j == i) for j in range(n)) for i in range(n)] + [(0,) * n]
    return [
        {e: c for e, c in zip(monomials, rows[piv]) if c != zero}
        for piv in sorted(rows, reverse=True)
    ]


def search_levels(base, n: int, s_max: int, budget: int):
    """(levels, flag): the levels s <= s_max a point search over base walks.

    levels lists (s, level_field(base, s)) for each level whose full grid
    of (p^(k*s))^n points fits the budget, base being F_{p^k}.  A level
    past the budget or past the supported degree (:func:`level_field`) is
    left out and sets the flag.  A level's grid is sized before its field
    is built, and s stops at the last supported degree, so neither a
    large s_max nor a large grid costs anything.
    """
    top = min(s_max, MAX_DEGREE // base.s)
    levels = [
        (s, level_field(base, s)) for s in range(1, top + 1)
        if base.order ** (s * n) <= budget
    ]
    return levels, len(levels) < s_max


def smooth_at(g):
    """Predicate on the zeros a of g: some first partial of g is nonzero
    at a, so a is a smooth zero of order 1 (the Taylor lemma in the module
    docstring at b = 1).

    The partials, the layer of order 1 (:meth:`fsing.poly.Poly.hasse_layer`),
    are summed from per-element power tables without shifting g, the
    fewest-term ones first, and the sum stops at the first nonzero one.
    """
    fld = g.field
    zero, add, mul = fld.zero, fld.add, fld.mul
    partials = sorted(g.hasse_layer(1).values(), key=lambda d: len(d.terms))
    terms = [
        [(c, [(i, k) for i, k in enumerate(e) if k]) for e, c in d.terms.items()]
        for d in partials
    ]
    powers = _power_table(fld, _top_exponent(partials))

    def smooth(point):
        for items in terms:
            total = zero
            for c, factors in items:
                for i, k in factors:
                    c = mul(c, powers[point[i]][k])
                total = add(total, c)
            if total != zero:
                return True
        return False

    return smooth


def _order_sum(factors, point):
    """Multiplicity at a common zero of factors: the sum of their orders."""
    return sum(g.shift(point).order_and_initial()[0] for g in factors)


def maximize(factors, base, levels, known):
    """(mult, point): the largest multiplicity on V(factors) and the first
    point in search order that has it, or (0, None) when there is none.

    factors have their coefficients in base, and levels come from
    :func:`search_levels`.  known maps the points examined before, in
    search order, to their multiplicities: they start the maximum, come
    first in search order and are never shifted again.  Within a level the
    points come in grid order and skip those of earlier levels
    (:func:`level_zeros`).  While no point is known, a level's first zero
    is taken.  Past it only a point of multiplicity above the best one m
    can win, and at such a point some factor g_j has order above k =
    floor(m/t) (the Taylor lemma in the module docstring).  So each level
    walks V(factors, D^alpha g_j : |alpha| = k) for every j with deg g_j > k
    (at m = t the singular loci of the factors) and keeps, among the points
    of the level's largest multiplicity, the one of least grid index.
    Conjugate points share their multiplicity (the orbit lemma in the
    module docstring), so the walks yield only the least-index member of
    each Frobenius orbit, which is the point kept when its orbit holds the
    maximum; the layer comes first in a walk, so a constant in it prunes
    before the factors are substituted.  Only a strictly larger
    multiplicity replaces the best, so the point returned is the first
    maximizer in search order.
    """
    t = len(factors)
    point = max(known, key=known.get, default=None)
    best = known.get(point, 0)
    for s, big in levels:
        embedded = [g.embed(big) for g in factors]
        found = {}
        if point is None:
            point = next(level_zeros(embedded, base, s), None)
            if point is None:
                continue
            best = found[point] = _order_sum(embedded, point)
        k = best // t
        for g in embedded:
            if g.total_degree() <= k:
                continue  # the order of g is at most its degree
            layer = list(g.hasse_layer(k).values())
            for z in level_zeros(layer + embedded, base, s, orbits=True):
                if z not in found and z not in known:
                    found[z] = _order_sum(embedded, z)
        top = max(found.values(), default=0)
        if top > best:
            q = big.order
            best, point = top, min(
                (z for z, mult in found.items() if mult == top),
                key=lambda z: sum(big.encode(a) * q**i for i, a in enumerate(z)),
            )
    return best, point


def global_invariants(Q: CIdeal, s_max: int = 3, budget: int = SEARCH_BUDGET):
    """Maximize the multiplicity over rational points of bounded height.

    Checks the origin, then searches the levels s <= s_max of the
    coefficient field (:func:`search_levels`) with :func:`maximize`, so the
    report is at the first maximizer in search order.  A level whose full
    grid exceeds the budget, or whose degree leaves the supported range,
    is skipped and flagged.  The report is exact when every factor is
    homogeneous (the maximum then sits at the origin); otherwise it is a
    lower bound over the searched set.
    """
    origin = tuple(Q.field.zero for _ in range(Q.vars.n))
    known = {}
    if all(g.evaluate(origin) == Q.field.zero for g in Q.factors):
        known[origin] = _order_sum(Q.factors, origin)
    levels, budget_exceeded = search_levels(Q.field, Q.vars.n, s_max, budget)
    mult, point = maximize(Q.factors, Q.field, levels, known)
    if point is None:
        raise PointNotOnVarietyError(
            "no rational point of the zero set found within the search budget"
        )
    best = _report(point, mult, Q.vars.n, Q.t)
    best.exact = all(g.total_degree() == g.order_and_initial()[0] for g in Q.factors)
    best.budget_exceeded = budget_exceeded
    return best


def hypersurface_point_checks(
    f: Poly, s_max: int = 2, max_points: int = 20, budget: int = SEARCH_BUDGET
):
    """Search V(f) over small extensions; check lam(e) = n - ord pointwise.

    The first max_points zeros in search order (:func:`maximize`) get a
    check record; the records stop in the first level with a zero left
    over, and :func:`maximize` takes the maximum order from that level on,
    starting from the recorded orders.

    Each check record holds the threshold samples at e = 1 and e = 2.  A
    checked point where some first partial is nonzero (:func:`smooth_at`)
    has order 1 and a linear initial form, so lam(e) = n - 1 there in
    closed form (rule 2 in :mod:`fsing.frobenius`) and f is not shifted.
    A checked point where every partial vanishes is shifted, and the
    shifted polynomial and its initial form go to
    :func:`fsing.frobenius._threshold_samples`, whose rules decide: a
    square-free supported initial form gives lam(e) = n - d in closed
    form, and only any other initial form reaches the Frobenius kernel.
    A record's ok bit holds exactly when lam(e) = n - ord at e = 1 and
    e = 2, that is, when in(f)^(q-1) survives the bracket.  Returns (max
    multiplicity seen, list of per-point check records, budget flag).
    The threshold identity is exact for every point by the supporting
    theory, so each record carries an ok bit instead of a tolerance.
    """
    base = f.field
    levels, budget_exceeded = search_levels(base, f.vars.n, s_max, budget)
    checks, known = [], {}
    first = 0  # the level the records stop in
    for s, big in levels:
        if len(checks) == max_points:
            break
        fe = f.embed(big)
        smooth = smooth_at(fe)
        zeros = level_zeros([fe], base, s)
        for point in islice(zeros, max_points - len(checks)):
            checks.append(_point_check(fe, s, point, smooth(point)))
            known[point] = checks[-1]["ord"]
        if next(zeros, None) is not None:
            break
        first += 1
    best, _ = maximize([f], base, levels[first:], known)
    return best, checks, budget_exceeded


def _point_check(fe: Poly, s: int, point, smooth: bool) -> dict:
    """Check record of a zero of fe at level s, smooth there or not: its
    order, threshold samples at e = 1, 2 and ok bit."""
    big, n = fe.field, fe.vars.n
    if smooth:
        # a linear initial form: the closed form lam(e) = n - 1, an int,
        # which has a numerator and a denominator like a Fraction
        ordv, lams = 1, [n - 1] * 2
    else:
        shifted = fe.shift(point)
        ordv, initial = shifted.order_and_initial()
        samples = _threshold_samples(shifted, (1, 2), initial)
        lams = [None if x is None else x.lam for x in samples]
    return {
        "point": [big.encode(a) for a in point],
        "s": s,
        "ord": ordv,
        "samples": [
            {"e": e, "num": lam.numerator, "den": lam.denominator}
            for e, lam in zip((1, 2), lams) if lam is not None
        ],
        "ok": all(lam == n - ordv for lam in lams),
    }


def fpt_crosscheck(Q: CIdeal, rep: InvariantReport, e_list):
    """Compare oracle threshold samples against the closed form at the origin.

    rep is Q's :func:`dfpt_at` report at the origin; a report at any
    other point raises ValueError.  Returns (sample, discrepancy) pairs
    with exact rational discrepancies lam(e) - (n - rep.mult); the closed
    form predicts zero.

    The samples are measured, not derived from the order: every one is
    read off one reduced f^(p-1) of f = Q.product() by the digit lemma
    (:func:`fsing.frobenius._digit_samples`), which holds because Q is
    square-free supported.  So the e = 1 sample is independent evidence
    for n - mult, and the e >= 2 samples are a consistency check of it.
    The independent check of the e >= 2 powers is the full-expansion
    oracle ``naive_kernel`` in the tests.  On square-free supported input
    this f^(p-1) is the only power the package reduces: splitting
    witnesses, certificate stages and both replays read the factors'
    terms instead.
    """
    if any(a != Q.field.zero for a in rep.point):
        raise ValueError("the crosscheck needs the invariant report at the origin")
    expected = Fraction(Q.vars.n - rep.mult)
    return [
        (sample, sample.lam - expected)
        for sample in _digit_samples(Q.product(), e_list)
    ]
