"""Multiplicity, defect of the threshold, and global maximizer search."""

import random
from fractions import Fraction
from itertools import product

import pytest

from conftest import mk
from fsing import (
    CIdeal,
    Poly,
    VarCtx,
    build_field,
    dfpt_at,
    disjoint_factorization,
    fpt_crosscheck,
    global_invariants,
)
from fsing.errors import PointNotOnVarietyError, ZeroInputError, ZeroOrConstantError
from fsing.field import level_field
from fsing.invariants import (
    SEARCH_BUDGET,
    _order_sum,
    level_zeros,
    search_levels,
    smooth_at,
)
from fsing.pipeline import random_sqfree

F2 = build_field(2)
F3 = build_field(3)
F4 = build_field(2, 2)
F9 = build_field(3, 2)
XYZW = VarCtx(("x", "y", "z", "w"))


def quadric(fld=F2):
    return mk(fld, XYZW, {(1, 1, 0, 0): 1, (0, 0, 1, 1): 1})


def exhaustive_max_mult(Q, s):
    """Independent maximizer search: loop the full grid in the test."""
    fld = level_field(Q.field, s)
    factors = [g.embed(fld) for g in Q.factors]
    best = None
    for point in product(list(fld.elements()), repeat=Q.vars.n):
        if any(g.evaluate(point) != fld.zero for g in factors):
            continue
        mult = sum(g.shift(point).order_and_initial()[0] for g in factors)
        if best is None or mult > best:
            best = mult
    return best


def test_multiplicity_examples():
    f = quadric()
    Q = disjoint_factorization(f)
    origin = (F2.zero,) * 4
    assert dfpt_at(Q, origin).mult == 2
    off_center = (F2.one, F2.zero, F2.zero, F2.zero)
    assert dfpt_at(Q, off_center).mult == 1
    with pytest.raises(PointNotOnVarietyError):
        dfpt_at(Q, (F2.one, F2.one, F2.zero, F2.zero))
    # the constructor rejects a zero factor, and the order sum a zero one
    with pytest.raises(ZeroOrConstantError):
        CIdeal(F2, XYZW, [Poly.zero(F2, XYZW)], F2.one)
    with pytest.raises(ZeroInputError):
        _order_sum([Poly.zero(F2, XYZW)], origin)


def test_dfpt_quadric():
    Q = disjoint_factorization(quadric())
    rep = dfpt_at(Q, (F2.zero,) * 4)
    assert (rep.mult, rep.dim, rep.dfpt, rep.t) == (2, 3, 1, 1)
    assert rep.fpt == Fraction(2)


def test_dfpt_two_factors():
    ctx = VarCtx(("x", "y", "z", "w", "a", "b", "c", "d"))
    g1 = mk(F2, ctx, {(1, 1, 0, 0, 0, 0, 0, 0): 1, (0, 0, 1, 1, 0, 0, 0, 0): 1})
    g2 = mk(F2, ctx, {(0, 0, 0, 0, 1, 1, 0, 0): 1, (0, 0, 0, 0, 0, 0, 1, 1): 1})
    Q = disjoint_factorization(g1 * g2)
    rep = dfpt_at(Q, (F2.zero,) * 8)
    assert (rep.mult, rep.dim, rep.dfpt, rep.t) == (4, 6, 2, 2)
    assert rep.fpt == Fraction(4)
    # orders add along the factors: both quadrics vanish to order 2
    assert rep.ord == 4


def test_dfpt_smooth_point():
    ctx = VarCtx(("x", "y", "z"))
    Q = disjoint_factorization(mk(F2, ctx, {(1, 0, 0): 1, (0, 1, 1): 1}))
    rep = dfpt_at(Q, (F2.zero,) * 3)
    assert (rep.mult, rep.dfpt) == (1, 0)
    assert rep.fpt == Fraction(2)


def test_dfpt_point_off_variety():
    ctx = VarCtx(("x", "y"))
    Q = disjoint_factorization(mk(F2, ctx, {(1, 0): 1}) * mk(F2, ctx, {(0, 1): 1}))
    with pytest.raises(PointNotOnVarietyError):
        dfpt_at(Q, (F2.zero, F2.one))


def test_global_invariants_matches_exhaustive():
    ctx = VarCtx(("x", "y", "z", "w"))
    f = mk(F2, ctx, {(1, 1, 0, 0): 1, (0, 0, 1, 1): 1, (1, 0, 1, 1): 1})
    Q = disjoint_factorization(f)
    rep = global_invariants(Q, s_max=2)
    expected = max(exhaustive_max_mult(Q, 1), exhaustive_max_mult(Q, 2))
    assert rep.mult == expected
    assert rep.dfpt == rep.mult - 1
    assert not rep.budget_exceeded
    # mixed-degree support: the report is flagged as a searched bound
    assert rep.exact is False


def test_global_invariants_homogeneous_exact():
    Q = disjoint_factorization(quadric())
    rep = global_invariants(Q, s_max=1)
    assert rep.exact is True
    assert rep.mult == 2
    assert rep.point == (F2.zero,) * 4


def test_global_invariants_budget_flag():
    Q = disjoint_factorization(quadric())
    rep = global_invariants(Q, s_max=3, budget=10)
    assert rep.budget_exceeded
    assert rep.point == (F2.zero,) * 4  # falls back to the origin report


def test_global_invariants_no_point():
    ctx = VarCtx(("x", "y"))
    # x + 1 has no zero over F_2 and the budget blocks the extensions
    f = mk(F2, ctx, {(1, 0): 1, (0, 0): 1})
    Q = CIdeal(F2, ctx, [f], F2.one)
    with pytest.raises(PointNotOnVarietyError):
        global_invariants(Q, s_max=1, budget=3)


def test_global_invariants_non_homogeneous_agrees_with_exhaustive():
    ctx = VarCtx(("x", "y", "z"))
    f = mk(F3, ctx, {(1, 1, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1})
    Q = disjoint_factorization(f)
    rep = global_invariants(Q, s_max=1)
    assert rep.mult == exhaustive_max_mult(Q, 1)


def test_fpt_crosscheck_zero_discrepancy():
    Q = disjoint_factorization(quadric())
    for sample, diff in fpt_crosscheck(Q, dfpt_at(Q, (F2.zero,) * 4), (1, 2, 3)):
        assert diff == 0
        assert sample.lam == Fraction(2)
    ctx = VarCtx(("x", "y", "z"))
    Qs = disjoint_factorization(mk(F3, ctx, {(1, 0, 0): 1, (0, 1, 1): 1}))
    for sample, diff in fpt_crosscheck(Qs, dfpt_at(Qs, (F3.zero,) * 3), (1, 2)):
        assert diff == 0
        assert sample.lam == Fraction(2)


def test_fpt_crosscheck_takes_the_origin_report():
    Q = disjoint_factorization(quadric())
    away = dfpt_at(Q, (F2.one, F2.zero, F2.one, F2.zero))
    with pytest.raises(ValueError, match="origin"):
        fpt_crosscheck(Q, away, (1,))


def test_fpt_crosscheck_char5_product():
    F5 = build_field(5)
    ctx = VarCtx(("x", "y", "z"))
    Q = disjoint_factorization(
        mk(F5, ctx, {(1, 0, 0): 1}) * mk(F5, ctx, {(0, 1, 1): 1, (0, 1, 0): 1, (0, 0, 1): 1})
    )
    for sample, diff in fpt_crosscheck(Q, dfpt_at(Q, (F5.zero,) * 3), (1,)):
        assert diff == 0


# --------------------------------------------------------------------------
# the zero walker shared by both point searches
# --------------------------------------------------------------------------

def brute_zeros(polys, base, s):
    """Common zeros by a plain loop over the grid, coordinate 0 least
    significant, without the points whose coordinates all lie in one
    proper subfield (those belong to an earlier level)."""
    big = level_field(base, s)
    n = polys[0].vars.n
    subfields = [base.order**d for d in range(1, s) if s % d == 0]
    out = []
    for combo in product(list(big.elements()), repeat=n):
        point = combo[::-1]
        if any(all(big.pow(a, q) == a for a in point) for q in subfields):
            continue
        if all(g.evaluate(point) == big.zero for g in polys):
            out.append(point)
    return out


def random_part(fld, ctx, rng, block, max_exp, terms):
    """Random polynomial on the variables of block, constant term allowed."""
    out = {}
    for _ in range(terms):
        exps = tuple(rng.randint(0, max_exp) if i in block else 0 for i in range(ctx.n))
        out[exps] = fld.decode(rng.randrange(1, fld.order))
    return Poly(fld, ctx, out)


# (base field, level, variables): grids of at most 729 points; levels 3
# and 4 have Frobenius orbits of length 3 and 4
LEVELS = [(F2, 1, 4), (F3, 1, 4), (F4, 1, 4), (F9, 1, 3), (F2, 2, 4), (F3, 2, 3),
          (F2, 3, 3), (F2, 4, 2), (F4, 2, 2)]
LEVEL_IDS = ["F2", "F3", "F4", "F9", "F2-level2", "F3-level2",
             "F2-level3", "F2-level4", "F4-level2"]


def random_linear(fld, ctx, rng):
    """Random polynomial of degree at most 1, constant term allowed."""
    n = ctx.n
    out = {(0,) * n: fld.decode(rng.randrange(fld.order))}
    for i in rng.sample(range(n), rng.randint(1, n)):
        out[tuple(int(j == i) for j in range(n))] = fld.decode(rng.randrange(1, fld.order))
    return Poly(fld, ctx, out)


def walker_cases(base, s, n, seed):
    """Lists of polynomials over the level field: one factor, disjoint
    factors, modify-shaped ones with squared variables, a zero part, a
    pure p-th power, and linear ones that are redundant, reordered,
    inconsistent or mixed with nonlinear ones."""
    rng = random.Random(seed)
    big = level_field(base, s)
    ctx = VarCtx(tuple(f"x{i}" for i in range(n)))
    everything = set(range(n))
    cases = []
    for _ in range(6):
        cases.append([random_part(base, ctx, rng, everything, 1, 5)])
        cut = rng.randint(1, n - 1)
        blocks = [set(range(cut)), set(range(cut, n))]
        rng.shuffle(blocks)
        cases.append([random_part(base, ctx, rng, b, 1, 3) for b in blocks])
        cases.append([random_part(base, ctx, rng, everything, 2, 6)])
        cases.append([random_part(base, ctx, rng, {0, 1}, 1, 3), Poly.zero(base, ctx)])
    if n >= 3:
        # g*(1 + x0 + x2) + h in the shape of the modification construction
        g = mk(base, ctx, {(1, 1) + (0,) * (n - 2): 1, (0, 0, 1) + (0,) * (n - 3): 1})
        ell = mk(base, ctx, {(0,) * n: 1, (1,) + (0,) * (n - 1): 1, (0, 0, 1) + (0,) * (n - 3): 1})
        h = mk(base, ctx, {(1, 1, 1) + (0,) * (n - 3): 1})
        cases.append([g * ell + h])
    # (x0 + x1)^2 is singular all along x0 = -x1, new points included
    line = Poly.variable(base, ctx, 0) + Poly.variable(base, ctx, 1)
    cases.append([line * line])
    cases.append([Poly.zero(base, ctx)])
    # x0^p has order p at x0 = 0, where every first partial vanishes
    x0 = Poly.variable(base, ctx, 0)
    cases.append([x0 ** base.p])
    for _ in range(3):
        l1, l2 = random_linear(base, ctx, rng), random_linear(base, ctx, rng)
        redundant = [l1, l2, l1 + l2, l2.scale(base.decode(rng.randrange(1, base.order)))]
        cases.append(redundant)
        cases.append(redundant[::-1])
        cases.append([random_part(base, ctx, rng, everything, 2, 4), l1])
        cases.append([l2, random_part(base, ctx, rng, everything, 1, 4), l1])
    cases.append([x0, x0 + Poly.constant(base, ctx, 1)])
    cases.append([random_part(base, ctx, rng, everything, 2, 4), x0 + Poly.constant(base, ctx, 1), x0])
    return [[g.embed(big) for g in polys] for polys in cases]


@pytest.mark.parametrize("base, s, n", LEVELS, ids=LEVEL_IDS)
def test_level_zeros_match_brute_force_in_grid_order(base, s, n):
    for k, polys in enumerate(walker_cases(base, s, n, seed=31 * s + base.order)):
        assert list(level_zeros(polys, base, s)) == brute_zeros(polys, base, s), k


def grid_index(big, point):
    return sum(big.encode(a) * big.order**i for i, a in enumerate(point))


@pytest.mark.parametrize("base, s, n", LEVELS, ids=LEVEL_IDS)
def test_orbit_walk_yields_the_least_member_of_each_orbit(base, s, n):
    # phi(a) = a^|base| fixes the coefficients, so the zeros new at level s
    # fall into orbits of s conjugates; the orbit walk keeps, in grid
    # order, the one of least grid index, and at s = 1 it is the full walk
    big = level_field(base, s)
    for k, polys in enumerate(walker_cases(base, s, n, seed=13 * s + base.order)):
        zeros = brute_zeros(polys, base, s)
        least = []
        for point in zeros:
            conjugates = [tuple(big.pow(a, base.order**j) for a in point) for j in range(s)]
            assert len(set(conjugates)) == s and all(c in zeros for c in conjugates)
            if grid_index(big, point) == min(grid_index(big, c) for c in conjugates):
                least.append(point)
        orbits = list(level_zeros(polys, base, s, orbits=True))
        assert orbits == least and len(zeros) == s * len(orbits), k
        if s == 1:
            assert orbits == list(level_zeros(polys, base, s)), k


def degree_part(g, k):
    """alpha -> coefficient of x^alpha in g, over the terms of degree k."""
    return {e: c for e, c in g.terms.items() if sum(e) == k}


@pytest.mark.parametrize("base, s, n", LEVELS, ids=LEVEL_IDS)
def test_hasse_layers_are_the_taylor_coefficients(base, s, n):
    # the Taylor lemma: at every zero a of g, the layer of order k takes
    # at a the degree-k coefficients of g(x + a), for k = 1, 2, 3
    big = level_field(base, s)
    pth_power = 0
    for polys in walker_cases(base, s, n, seed=19 * s + base.order):
        for g in (g for g in polys if not g.is_zero()):
            layers = {k: g.hasse_layer(k) for k in (1, 2, 3)}
            for point in brute_zeros([g], base, s):
                shifted = g.shift(point)
                for k, layer in layers.items():
                    values = {alpha: d.evaluate(point) for alpha, d in layer.items()}
                    values = {alpha: c for alpha, c in values.items() if c != big.zero}
                    assert values == degree_part(shifted, k)
            if not layers[1] and g.total_degree() == base.p:
                # x0^p (and (x0 + x1)^2 in characteristic 2): no first
                # partial at all, and order p at the origin
                origin = (big.zero,) * n
                assert g.shift(origin).order_and_initial()[0] == base.p
                pth_power += 1
    assert pth_power


@pytest.mark.parametrize("base, s, n", LEVELS, ids=LEVEL_IDS)
def test_first_partials_order_matches_shift(base, s, n):
    # a zero is smooth exactly where the shift has a degree-one part, and
    # the walk of V(g, layer k) is exactly the zeros whose shift has no
    # part of degree k; at k = 1 those are the zeros of order >= 2
    seen = set()
    for polys in walker_cases(base, s, n, seed=17 * s + base.order):
        for g in (g for g in polys if not g.is_zero()):
            smooth = smooth_at(g)
            zeros = brute_zeros([g], base, s)
            shifted = {point: g.shift(point) for point in zeros}
            for point in zeros:
                assert smooth(point) == bool(degree_part(shifted[point], 1))
                order = shifted[point].order_and_initial()[0]
                seen.add(order)
                assert (order >= 2) == (not smooth(point))
            for k in (1, 2, 3):
                layer = list(g.hasse_layer(k).values())
                expected = [pt for pt in zeros if not degree_part(shifted[pt], k)]
                assert list(level_zeros([g] + layer, base, s)) == expected
                assert list(level_zeros(layer + [g], base, s)) == expected
    assert 1 in seen and max(seen) >= 2  # smooth and singular zeros both met


def first_maximizer(Q, s_max):
    """(mult, point) of the first point of maximal multiplicity in search
    order: the origin, then each level's full grid, coordinate 0 least
    significant, subfield points included; None without any point."""
    best = None
    origin = (Q.field.zero,) * Q.vars.n
    levels = [(Q.field, [origin])] + [
        (fld, [c[::-1] for c in product(list(fld.elements()), repeat=Q.vars.n)])
        for fld in (level_field(Q.field, s) for s in range(1, s_max + 1))
    ]
    for fld, points in levels:
        factors = [g.embed(fld) for g in Q.factors]
        for point in points:
            if any(g.evaluate(point) != fld.zero for g in factors):
                continue
            mult = sum(g.shift(point).order_and_initial()[0] for g in factors)
            if best is None or mult > best[0]:
                best = (mult, point)
    return best


@pytest.mark.parametrize("order, seed", [(2, 1), (2, 2), (3, 3), (3, 4), (4, 5)])
def test_global_invariants_match_exhaustive_on_products(order, seed):
    # a constant term moves the first factor off the origin, so the search runs
    fld = {2: F2, 3: F3, 4: F4}[order]
    Q0 = disjoint_factorization(random_sqfree(fld, 4, 6, 2, seed=seed))
    moved = [Q0.factors[0] + Poly.constant(fld, Q0.vars, 1)] + Q0.factors[1:]
    for factors in (Q0.factors, moved):
        Q = CIdeal(fld, Q0.vars, factors, fld.one)
        # level 3 over F_2 has orbits of prime length 3; F_27^4 is too large
        # a grid for the brute force, and F_4 has no level 3
        for s_max in (1, 2, 3) if order == 2 else (1, 2):
            expected = first_maximizer(Q, s_max)
            if expected is None:
                with pytest.raises(PointNotOnVarietyError):
                    global_invariants(Q, s_max=s_max)
                continue
            rep = global_invariants(Q, s_max=s_max)
            assert (rep.mult, rep.point) == expected
            found = [exhaustive_max_mult(Q, s) for s in range(1, s_max + 1)]
            assert rep.mult == max(m for m in found if m is not None)


def test_level_zeros_large_level_field():
    # level 2 over F_3001 is F_(3001^2), a 9*10^6-point grid inside the
    # budget: the linear step solves x = -1, a point of level 1, so level 2
    # yields nothing without walking the field or tabulating its elements
    fld = build_field(3001)
    ctx = VarCtx(("x",))
    f = mk(fld, ctx, {(1,): 1, (0,): 1})
    assert list(level_zeros([f], fld, 1)) == [(fld.scalar(-1),)]
    assert list(level_zeros([f.embed(level_field(fld, 2))], fld, 2)) == []
    rep = global_invariants(disjoint_factorization(f), s_max=3)
    assert (rep.point, rep.mult, rep.budget_exceeded) == ((fld.scalar(-1),), 1, True)


def test_search_levels_stop_at_the_last_supported_degree():
    # over F_4 only F_4 and F_16 are supported levels: a huge s_max is
    # flagged and sizes no grid past them; within range only the budget
    # leaves a level out
    levels, flagged = search_levels(F4, 3, 10**9, SEARCH_BUDGET)
    assert ([(s, big.order) for s, big in levels], flagged) == ([(1, 4), (2, 16)], True)
    levels, flagged = search_levels(F2, 3, 4, SEARCH_BUDGET)
    assert ([s for s, _ in levels], flagged) == ([1, 2, 3, 4], False)
    levels, flagged = search_levels(F2, 3, 4, 100)
    assert ([s for s, _ in levels], flagged) == ([1, 2], True)
