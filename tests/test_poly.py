"""Sparse polynomial arithmetic, division, the reduced Frobenius power and
its coefficient extractor."""

import itertools
import math
import random

import pytest

import fsing.poly
from conftest import mk, naive_kernel
from fsing import (
    Field,
    Poly,
    VarCtx,
    build_field,
    exact_divide,
    frobenius_power_mod_bracket,
)
from fsing.field import embedding_basis
from fsing.poly import lucas_multinomial, power_coefficient
from fsing.errors import (
    ContextMismatchError,
    ExponentOverflowError,
    NameCollisionError,
    ZeroDivisorError,
    ZeroInputError,
)

F2 = build_field(2)
F3 = build_field(3)
F5 = build_field(5)
XY = VarCtx(("x", "y"))
XYZW = VarCtx(("x", "y", "z", "w"))


def random_poly(fld, ctx, rng, max_terms=4, max_exp=2):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        exps = tuple(rng.randint(0, max_exp) for _ in range(ctx.n))
        terms[exps] = fld.decode(rng.randrange(1, fld.order))
    return Poly(fld, ctx, terms)


def test_construction_drops_zero_coefficients():
    f = Poly(F3, XY, {(1, 0): F3.scalar(0), (0, 1): F3.scalar(2)})
    assert f.terms == {(0, 1): F3.scalar(2)}
    assert Poly(F3, XY, {}).is_zero()


def test_construction_validation():
    with pytest.raises(ContextMismatchError):
        Poly(F3, XY, {(1, 0, 0): F3.one})
    with pytest.raises(ExponentOverflowError):
        Poly.make(F3, XY, {(1 << 16, 0): 1})
    with pytest.raises(NameCollisionError):
        VarCtx(("x", "x"))


def test_square_example_char3():
    f = mk(F3, XY, {(1, 0): 1, (0, 1): 1})
    assert (f * f) == mk(F3, XY, {(2, 0): 1, (1, 1): 2, (0, 2): 1})


def test_add_sub_scale_monic():
    f = mk(F5, XY, {(1, 0): 3, (0, 1): 2})
    g = mk(F5, XY, {(1, 0): 2, (0, 0): 1})
    assert f + g == mk(F5, XY, {(0, 1): 2, (0, 0): 1})  # 3x + 2x = 0
    assert f - f == Poly.zero(F5, XY)
    assert f.scale(F5.scalar(2)) == mk(F5, XY, {(1, 0): 1, (0, 1): 4})
    assert f.monic() == mk(F5, XY, {(1, 0): 1, (0, 1): 4})  # lc = 3, 3^-1 = 2


def test_pow_matches_repeated_mul():
    f = mk(F3, XY, {(1, 0): 1, (0, 1): 2, (0, 0): 1})
    acc = Poly.constant(F3, XY, 1)
    for k in range(5):
        assert f**k == acc
        acc = acc * f


def test_degree_and_leading_monomials():
    f = mk(F2, XYZW, {(1, 1, 0, 0): 1, (0, 0, 1, 1): 1})
    assert f.total_degree() == 2
    assert f.leading_monomial() == (1, 1, 0, 0)
    assert f.least_monomial() == (1, 1, 0, 0)
    g = mk(F2, XYZW, {(1, 0, 0, 0): 1, (0, 1, 1, 0): 1})
    assert g.leading_monomial() == (0, 1, 1, 0)  # higher total degree wins
    assert g.least_monomial() == (1, 0, 0, 0)  # lower total degree first
    assert Poly.zero(F2, XY).total_degree() == -1
    with pytest.raises(ZeroInputError):
        Poly.zero(F2, XY).leading_monomial()


def test_str_canonical_order():
    f = mk(F2, XYZW, {(0, 0, 1, 1): 1, (1, 1, 0, 0): 1})
    assert str(f) == "x*y + z*w"
    g = mk(F3, XY, {(0, 0): 2, (1, 1): 1, (2, 0): 2})
    assert str(g) == "2 + 2*x^2 + x*y"
    F9 = build_field(3, 2)
    h = Poly(F9, XY, {(1, 0): (1, 1)})
    assert str(h) == "(t+1)*x"


def test_hasse_layer_of_order_one_is_the_first_partials():
    f = mk(F3, XY, {(2, 1): 1, (0, 1): 2})
    assert f.hasse_layer(1) == {
        (1, 0): mk(F3, XY, {(1, 1): 2}),
        (0, 1): mk(F3, XY, {(2, 0): 1, (0, 0): 2}),
    }
    # char-p annihilation: d/dx x^3 = 3x^2 = 0 over F_3, so the layer of
    # order 1 is empty while the one of order 3 holds D^(3,0) x^3 = 1
    cube = mk(F3, XY, {(3, 0): 1})
    assert cube.hasse_layer(1) == {} and cube.hasse_layer(2) == {}
    assert cube.hasse_layer(3) == {(3, 0): mk(F3, XY, {(0, 0): 1})}


def test_evaluate_and_substitute():
    f = mk(F5, XY, {(1, 1): 2, (0, 1): 1})
    pt = (F5.scalar(3), F5.scalar(4))
    assert f.evaluate(pt) == F5.scalar(2 * 3 * 4 + 4)
    g = f.substitute({0: F5.scalar(3)})
    assert g == mk(F5, XY, {(0, 1): 2 * 3 + 1})


def test_shift_matches_substitution_expansion():
    rng = random.Random(7)
    for fld in (F2, F3, F5, build_field(2, 2), build_field(3, 2)):
        ctx = VarCtx(("x", "y", "z"))
        xs = [Poly.variable(fld, ctx, i) for i in range(3)]
        for _ in range(25):
            f = random_poly(fld, ctx, rng, max_terms=4, max_exp=3)
            a = tuple(fld.decode(rng.randrange(fld.order)) for _ in range(3))
            # expand f(x + a) by direct power computation
            expected = Poly.zero(fld, ctx)
            for exps, c in f.terms.items():
                term = Poly.constant(fld, ctx, 1).scale(c)
                for i, v in enumerate(exps):
                    shifted_var = xs[i] + Poly.constant(fld, ctx, 1).scale(a[i])
                    term = term * shifted_var**v
                expected = expected + term
            assert f.shift(a) == expected


def test_shift_round_trip():
    rng = random.Random(11)
    ctx = VarCtx(("x", "y"))
    for _ in range(20):
        f = random_poly(F3, ctx, rng)
        a = tuple(F3.decode(rng.randrange(3)) for _ in range(2))
        back = tuple(F3.neg(v) for v in a)
        assert f.shift(a).shift(back) == f


def test_char2_square_shift():
    f = mk(F2, XY, {(2, 0): 1})
    shifted = f.shift((F2.one, F2.zero))
    assert shifted == mk(F2, XY, {(2, 0): 1, (0, 0): 1})  # (x+1)^2 = x^2 + 1


def test_homogenize():
    f = mk(F2, XYZW, {(1, 1, 0, 0): 1, (0, 0, 1, 0): 1})
    h = f.homogenize("v")
    assert h.vars.names == ("x", "y", "z", "w", "v")
    assert h == mk(F2, h.vars, {(1, 1, 0, 0, 0): 1, (0, 0, 1, 0, 1): 1})
    with pytest.raises(NameCollisionError):
        f.homogenize("x")


def test_order_and_initial():
    f = mk(F2, XYZW, {(1, 1, 0, 0): 1, (0, 0, 1, 1): 1, (1, 0, 1, 1): 1})
    order, initial = f.order_and_initial()
    assert order == 2
    assert initial == mk(F2, XYZW, {(1, 1, 0, 0): 1, (0, 0, 1, 1): 1})
    with pytest.raises(ZeroInputError):
        Poly.zero(F2, XY).order_and_initial()


def test_order_multiplicative():
    rng = random.Random(3)
    ctx = VarCtx(("x", "y", "z"))
    for _ in range(20):
        f = random_poly(F3, ctx, rng)
        g = random_poly(F3, ctx, rng)
        of, inf_f = f.order_and_initial()
        og, inf_g = g.order_and_initial()
        prod = f * g
        if prod.is_zero():
            continue
        op, inf_p = prod.order_and_initial()
        assert op == of + og
        assert inf_p == inf_f * inf_g


def test_exact_divide_examples():
    f1 = mk(F2, XYZW, {(1, 1, 0, 0): 1, (0, 0, 1, 1): 1})
    g1 = mk(F2, XYZW, {(1, 0, 0, 0): 1, (0, 1, 0, 0): 1})  # x + y
    prod = f1 * g1
    assert exact_divide(prod, g1) == f1
    assert exact_divide(prod, f1) == g1
    assert exact_divide(f1, g1) is None
    assert exact_divide(f1, mk(F2, XYZW, {(1, 0, 0, 0): 1})) is None
    with pytest.raises(ZeroDivisorError):
        exact_divide(f1, Poly.zero(F2, XYZW))


def test_exact_divide_constant_and_self():
    f = mk(F5, XY, {(1, 1): 3, (0, 1): 1})
    assert exact_divide(f, Poly.constant(F5, XY, 2)) == f.scale(F5.inv(F5.scalar(2)))
    assert exact_divide(f, f) == Poly.constant(F5, XY, 1)
    assert exact_divide(Poly.zero(F5, XY), f) == Poly.zero(F5, XY)


def test_exact_divide_random_products():
    rng = random.Random(19)
    ctx = VarCtx(("x", "y", "z", "w"))
    for trial in range(200):
        fld = (F2, F3, F5)[trial % 3]
        f = random_poly(fld, ctx, rng, max_terms=3, max_exp=1)
        g = random_poly(fld, ctx, rng, max_terms=3, max_exp=1)
        assert exact_divide(f * g, g) == f


def test_kernel_frozen_examples():
    # p=3, e=1: the square survives untruncated
    f = mk(F3, XY, {(1, 0): 1, (0, 1): 1})
    assert frobenius_power_mod_bracket(f, 1) == mk(
        F3, XY, {(2, 0): 1, (1, 1): 2, (0, 2): 1}
    )
    # p=2, e=2: cube of xy + zw with exponents capped below 4
    g = mk(F2, XYZW, {(1, 1, 0, 0): 1, (0, 0, 1, 1): 1})
    assert frobenius_power_mod_bracket(g, 2) == mk(
        F2,
        XYZW,
        {
            (3, 3, 0, 0): 1,
            (2, 2, 1, 1): 1,
            (1, 1, 2, 2): 1,
            (0, 0, 3, 3): 1,
        },
    )
    # a square dies immediately at p=2, e=1
    sq = mk(F2, XY, {(2, 0): 1})
    assert frobenius_power_mod_bracket(sq, 1).is_zero()


def test_kernel_exponent_bound():
    f = mk(F2, XY, {(1, 0): 1, (0, 1): 1})
    with pytest.raises(ZeroInputError):
        frobenius_power_mod_bracket(Poly.zero(F2, XY), 1)
    with pytest.raises(ExponentOverflowError):
        frobenius_power_mod_bracket(f, 16)  # 2^16 reaches the exponent cap


def test_kernel_matches_naive_oracle():
    rng = random.Random(23)
    ctx = VarCtx(("x", "y", "z"))
    cases = 0
    for fld in (F2, F3):
        for e in (1, 2):
            for _ in range(40):
                f = random_poly(fld, ctx, rng, max_terms=3, max_exp=2)
                assert frobenius_power_mod_bracket(f, e) == naive_kernel(f, e)
                cases += 1
    assert cases == 160
    # p = 5, e = 2: f^4 holds x^8, so the twisted copy holds x^40 past q = 25
    f = mk(F5, XY, {(2, 0): 1, (1, 1): 1, (0, 1): 1})
    assert max(x for exps in (f**4).terms for x in exps) * 5 >= 25
    assert frobenius_power_mod_bracket(f, 2) == naive_kernel(f, 2)


def test_kernel_reduces_every_product(monkeypatch):
    # x^4 + y^4 + x*y^2 + x^2*y is not square-free supported: f^4 reaches
    # x^16 past q = 13 at e = 1, and f^12 scaled by 13 reaches past 169 at
    # e = 2, so both operands of every product are reduced beforehand
    F13 = build_field(13)
    f = mk(F13, XY, {(4, 0): 1, (0, 4): 1, (1, 2): 1, (2, 1): 1})
    mul = Poly.__mul__
    for e in (1, 2):
        q = 13**e
        operands = []

        def recording(a, b):
            operands.extend((a, b))
            return mul(a, b)

        with monkeypatch.context() as m:
            m.setattr(Poly, "__mul__", recording)
            frobenius_power_mod_bracket(f, e)
        assert len(operands) == 2 * (11 + e - 1)  # p - 2 powers, e - 1 twists
        assert all(v < q for g in operands for exps in g.terms for v in exps)


def test_kernel_frobenius_twist_on_extension_coefficients():
    # over F_4, (t*x + y)^3 mod bracket at e=2: coefficients get twisted
    F4 = build_field(2, 2)
    f = Poly(F4, XY, {(1, 0): (0, 1), (0, 1): (1, 0)})
    assert frobenius_power_mod_bracket(f, 2) == naive_kernel(f, 2)


def _integer_compositions(k):
    """Every composition of k into positive parts, [] for k = 0."""
    if k == 0:
        yield []
        return
    for first in range(1, k + 1):
        for rest in _integer_compositions(k - first):
            yield [first, *rest]


def _digit_sum(k, p):
    total = 0
    while k:
        k, d = divmod(k, p)
        total += d
    return total


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_lucas_multinomial_matches_factorials(p):
    # a carry, some digit position whose digits add up to p or more, shows
    # as a digit sum of the parts above that of k (Legendre), and gives 0
    carries = 0
    for k in range(13):
        for parts in _integer_compositions(k):
            exact = math.factorial(k)
            for part in parts:
                exact //= math.factorial(part)
            value = lucas_multinomial(parts, p)
            assert value == exact % p
            carry = sum(_digit_sum(part, p) for part in parts) > _digit_sum(k, p)
            assert (value == 0) == carry
            carries += carry
    assert carries
    assert lucas_multinomial([0, 5, 0], p) == 1


def _box(q, n, rng, count):
    """count random exponent vectors with every entry below q."""
    return [tuple(rng.randrange(q) for _ in range(n)) for _ in range(count)]


@pytest.mark.parametrize(
    "p, s, n_max",
    [(2, 1, 4), (3, 1, 3), (2, 2, 3), (5, 1, 2), (3, 2, 2)],
    ids=["F2", "F3", "F4", "F5", "F9"],
)
def test_power_coefficient_against_naive_kernel(p, s, n_max):
    # inside the box of exponents below q = p^e the bracket drops nothing,
    # so the coefficient of x^u in f^(q-1) is the naive kernel's, and 0 off
    # its support; exponents up to 2 make most inputs not square-free
    fld = build_field(p, s)
    rng = random.Random(100 * p + s)
    checked = {True: 0, False: 0}
    for e in (1, 2):
        q = p**e
        for _ in range(12):
            ctx = VarCtx(f"x{i}" for i in range(rng.randint(1, n_max)))
            f = random_poly(fld, ctx, rng, max_terms=4, max_exp=2)
            naive = naive_kernel(f, e)
            for u, c in naive.terms.items():
                assert power_coefficient(f, q - 1, u) == c
            for u in _box(q, ctx.n, rng, 20):
                if u not in naive.terms:
                    assert power_coefficient(f, q - 1, u) == fld.zero
            checked[all(v <= 1 for exps in f.terms for v in exps)] += 1
    assert checked[True] and checked[False]


@pytest.mark.parametrize(
    "p, s", [(2, 1), (3, 1), (2, 2), (5, 1), (3, 2)], ids=["F2", "F3", "F4", "F5", "F9"]
)
def test_power_coefficient_multiplies_over_disjoint_factors(p, s):
    # g on x0, x1 and h on x2, x3: the coefficient of x^u in the expanded
    # (g*h)^k is the product of the coefficients of u's blocks in g^k, h^k
    fld = build_field(p, s)
    rng = random.Random(7 * p + s)
    for e in (1, 2):
        q = p**e
        for _ in range(6):
            g = random_poly(fld, XYZW, rng, max_terms=3, max_exp=1)
            h = random_poly(fld, XYZW, rng, max_terms=3, max_exp=1)
            g = Poly(fld, XYZW, {x[:2] + (0, 0): c for x, c in g.terms.items()})
            h = Poly(fld, XYZW, {(0, 0) + x[2:]: c for x, c in h.terms.items()})
            naive = naive_kernel(g * h, e)
            for u in [*naive.terms, *_box(q, 4, rng, 20)]:
                split = fld.mul(
                    power_coefficient(g, q - 1, u[:2] + (0, 0)),
                    power_coefficient(h, q - 1, (0, 0) + u[2:]),
                )
                assert split == naive.terms.get(u, fld.zero)


def test_power_coefficient_edge_cases():
    f = mk(F3, XY, {(1, 0): 1, (0, 1): 1})
    assert power_coefficient(f, 0, (0, 0)) == F3.one
    assert power_coefficient(f, 0, (1, 0)) == F3.zero
    assert power_coefficient(f, 2, (1, 1)) == F3.scalar(2)
    assert power_coefficient(f, 3, (1, 1)) == F3.zero  # degree 2 is not 3
    # x^(p^2 - 1) * y^(p^2 - 1) at p = 65521 is one forced composition
    F = build_field(65521)
    g = mk(F, XY, {(1, 1): 5, (1, 0): 1, (0, 0): 1})
    k = 65521**2 - 1
    assert power_coefficient(g, k, (k, k)) == F.pow(F.scalar(5), k) == F.one
    # U(3,6)'s basis polynomial: x1*...*x6 in g^2 pairs each 3-set with its
    # complement, 10 unordered pairs of multinomial 2
    ctx = VarCtx(f"x{i}" for i in range(6))
    g = Poly(F3, ctx, {m: F3.one for m in itertools.product((0, 1), repeat=6) if sum(m) == 3})
    assert power_coefficient(g, 2, (1,) * 6) == F3.scalar(20)
    with pytest.raises(ValueError):
        power_coefficient(f, -1, (0, 0))
    with pytest.raises(ContextMismatchError):
        power_coefficient(f, 1, (1, 0, 0))


def test_power_coefficient_fixes_a_multiplicity_per_coordinate(monkeypatch):
    # the certificate stage x1*x2*x3^65519*x4^65519 of x1*x2 + x3*x4 + x1*x3
    # at p = 65521: only x1*x2 carries x2 and only x3*x4 carries x4, so each
    # multiplicity is fixed by one coordinate although the two terms share
    # their degree, and the walk takes a few steps, not one per k_t
    F = build_field(65521)
    ctx = VarCtx(("x1", "x2", "x3", "x4"))
    g = mk(F, ctx, {(1, 1, 0, 0): 2, (0, 0, 1, 1): 3, (1, 0, 1, 0): 1})
    walk = fsing.poly._compositions
    steps = []

    def recording(terms, k, u):
        steps.append(k)
        return walk(terms, k, u)

    monkeypatch.setattr(fsing.poly, "_compositions", recording)
    k = 65520
    # one composition: x1*x2 once, x3*x4 k - 1 times, multinomial k = -1
    expected = F.mul(F.scalar(k), F.mul(F.scalar(2), F.pow(F.scalar(3), k - 1)))
    assert power_coefficient(g, k, (1, 1, k - 1, k - 1)) == expected != F.zero
    assert len(steps) <= 4
    # x1*x3 cannot take part (x1 and x3 are spent elsewhere), and a
    # vector off every composition reads 0 with as few steps
    steps.clear()
    assert power_coefficient(g, k, (2, 1, k - 2, k - 1)) == F.zero
    assert len(steps) <= 4


def test_embed():
    f = mk(F3, XY, {(1, 1): 2, (0, 1): 1})
    F9 = build_field(3, 2)
    g = f.embed(F9)
    assert g.field == F9
    assert g.terms == {(1, 1): (2, 0), (0, 1): (1, 0)}


def test_embed_extension_field_respects_products():
    F4, F16 = build_field(2, 2), build_field(2, 4)
    image = {
        a: Poly.constant(F4, XY, a).embed(F16).terms.get((0, 0), F16.zero)
        for a in F4.elements()
    }
    assert len(set(image.values())) == 4
    for a in F4.elements():
        for b in F4.elements():
            assert image[F4.mul(a, b)] == F16.mul(image[a], image[b])
            assert image[F4.add(a, b)] == F16.add(image[a], image[b])
    # t goes to the first root of t^2 + t + 1 in F_16's encoding order
    roots = [
        a for a in F16.elements()
        if F16.add(F16.add(F16.mul(a, a), a), F16.one) == F16.zero
    ]
    assert image[(0, 1)] == roots[0]
    rng = random.Random(31)
    for _ in range(10):
        f = random_poly(F4, XY, rng, max_terms=3, max_exp=2)
        g = random_poly(F4, XY, rng, max_terms=3, max_exp=2)
        assert (f * g).embed(F16) == f.embed(F16) * g.embed(F16)
    with pytest.raises(ContextMismatchError):
        Poly.constant(F4, XY, 1).embed(build_field(2, 3))


@pytest.mark.parametrize("p, k, s", [(2, 1, 2), (3, 1, 2), (2, 2, 4)])
def test_embed_matches_the_basis_formula_term_by_term(p, k, s):
    # the image of c is sum_i c_i * basis_i, whether or not c repeats
    small, big = build_field(p, k), build_field(p, s)
    basis = embedding_basis(small, big)
    rng = random.Random(p * 100 + s)
    for _ in range(10):
        f = random_poly(small, XYZW, rng, max_terms=8)
        g = f.embed(big)
        assert g.field == big and set(g.terms) == set(f.terms)
        for e, c in f.terms.items():
            expected = big.zero
            for ci, b in zip(c, basis):
                expected = big.add(expected, big.mul(big.scalar(ci), b))
            assert g.terms[e] == expected


def test_embed_maps_each_distinct_coefficient_once(monkeypatch):
    F4 = build_field(2, 2)
    muls = []
    mul = Field.mul
    monkeypatch.setattr(Field, "mul", lambda self, a, b: muls.append(a) or mul(self, a, b))
    f = mk(F2, XYZW, {(1, 0, 0, 0): 1, (0, 1, 0, 0): 1, (1, 1, 1, 1): 1})
    assert f.embed(F4).terms == {e: F4.one for e in f.terms}
    assert len(muls) == 1


def test_vars_used_and_degree_in():
    f = mk(F2, XYZW, {(1, 0, 2, 0): 1, (0, 0, 1, 1): 1})
    assert f.vars_used() == {0, 2, 3}
    assert max(e[2] for e in f.terms) == 2
    assert max(e[1] for e in f.terms) == 0
