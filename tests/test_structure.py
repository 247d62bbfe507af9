"""Variable-disjoint factorization and square-free support utilities."""

import random

import pytest

from conftest import mk, oracle_factorization
from fsing import (
    CIdeal,
    Poly,
    VarCtx,
    build_field,
    disjoint_factorization,
    is_irreducible_sqfree,
    is_squarefree_supported,
    squarefree_offender,
)
from fsing.errors import (
    ContextMismatchError,
    DegreeRangeError,
    FsingError,
    NotSquareFreeSupportedError,
    TheoremContradictionError,
    ZeroOrConstantError,
)
from fsing.field import level_field
from fsing.invariants import level_zeros

F2 = build_field(2)
F3 = build_field(3)
F5 = build_field(5)


def random_planted_product(fld, n, t, rng):
    """Product of t irreducible factors over disjoint variable blocks."""
    ctx = VarCtx(tuple(f"x{i}" for i in range(n)))
    order = list(range(n))
    rng.shuffle(order)
    cuts = sorted(rng.sample(range(1, n), t - 1)) if t > 1 else []
    blocks, prev = [], 0
    for cut in cuts + [n]:
        blocks.append(sorted(order[prev:cut]))
        prev = cut
    factors = []
    for block in blocks:
        while True:
            m = rng.randint(1, min(3, 2 ** len(block) - 1))
            subsets = rng.sample(
                [s for s in range(1, 2 ** len(block))], m
            )
            terms = {}
            for s in subsets:
                exps = [0] * n
                for j, v in enumerate(block):
                    if s >> j & 1:
                        exps[v] = 1
                terms[tuple(exps)] = fld.decode(rng.randrange(1, fld.order))
            cand = Poly(fld, ctx, terms)
            if is_irreducible_sqfree(cand):
                factors.append(cand)
                break
    prod = Poly.constant(fld, ctx, 1)
    for g in factors:
        prod = prod * g
    return prod, factors


def test_squarefree_offender():
    ctx = VarCtx(("x", "y", "z"))
    f = mk(F2, ctx, {(2, 1, 0): 1, (1, 0, 1): 1})
    assert squarefree_offender(f) == (2, 1, 0)
    assert not is_squarefree_supported(f)
    g = mk(F2, ctx, {(1, 1, 0): 1, (0, 0, 1): 1})
    assert squarefree_offender(g) is None
    assert is_squarefree_supported(g)


def test_factorization_frozen_examples():
    ctx = VarCtx(("x", "y", "z", "w"))
    # (x + y)(z + w) expanded
    f = mk(F2, ctx, {(1, 0, 1, 0): 1, (1, 0, 0, 1): 1, (0, 1, 1, 0): 1, (0, 1, 0, 1): 1})
    Q = disjoint_factorization(f)
    assert Q.t == 2
    assert [str(g) for g in Q.factors] == ["x + y", "z + w"]
    assert Q.constant == F2.one
    # xy + zw is irreducible
    g = mk(F2, ctx, {(1, 1, 0, 0): 1, (0, 0, 1, 1): 1})
    Qg = disjoint_factorization(g)
    assert Qg.t == 1
    assert Qg.factors[0] == g


def test_factorization_nested_example():
    ctx = VarCtx(("x", "y", "z", "u", "v", "w"))
    # (x + yz)(u + vw) expanded
    f = mk(
        F2,
        ctx,
        {
            (1, 0, 0, 1, 0, 0): 1,
            (1, 0, 0, 0, 1, 1): 1,
            (0, 1, 1, 1, 0, 0): 1,
            (0, 1, 1, 0, 1, 1): 1,
        },
    )
    Q = disjoint_factorization(f)
    assert [str(g) for g in Q.factors] == ["x + y*z", "u + v*w"]


def test_factorization_single_variable_and_monomials():
    ctx = VarCtx(("x", "y", "z"))
    Q = disjoint_factorization(mk(F2, ctx, {(1, 0, 0): 1}))
    assert [str(g) for g in Q.factors] == ["x"]
    Q3 = disjoint_factorization(mk(F2, ctx, {(1, 1, 1): 1}))
    assert [str(g) for g in Q3.factors] == ["x", "y", "z"]


def test_factorization_constant_scaling():
    ctx = VarCtx(("x", "y", "z", "w"))
    f = mk(F5, ctx, {(1, 0, 1, 0): 2, (1, 0, 0, 1): 2, (0, 1, 1, 0): 2, (0, 1, 0, 1): 2})
    Q = disjoint_factorization(f)
    assert Q.constant == F5.scalar(2)
    assert Q.product().scale(Q.constant) == f


def test_factorization_rejects_bad_inputs():
    ctx = VarCtx(("x", "y"))
    with pytest.raises(ZeroOrConstantError):
        disjoint_factorization(Poly.zero(F2, ctx))
    with pytest.raises(ZeroOrConstantError):
        disjoint_factorization(Poly.constant(F2, ctx, 1))
    with pytest.raises(NotSquareFreeSupportedError):
        disjoint_factorization(mk(F2, ctx, {(2, 0): 1}))


def test_factorization_matches_oracle_random():
    rng = random.Random(101)
    for trial in range(100):
        fld = (F2, F3, F5)[trial % 3]
        n = rng.randint(2, 6)
        ctx = VarCtx(tuple(f"x{i}" for i in range(n)))
        terms = {}
        for _ in range(rng.randint(1, 5)):
            exps = tuple(rng.randint(0, 1) for _ in range(n))
            terms[exps] = fld.decode(rng.randrange(1, fld.order))
        f = Poly(fld, ctx, terms)
        if f.is_zero() or f.is_constant():
            continue
        expect_const, expect_factors = oracle_factorization(f)
        Q = disjoint_factorization(f)
        assert Q.constant == expect_const
        assert Q.factors == expect_factors


def test_factorization_recovers_planted_factors():
    rng = random.Random(202)
    for trial in range(60):
        fld = (F2, F3)[trial % 2]
        n = rng.randint(3, 7)
        t = rng.randint(1, 3)
        if t > n:
            continue
        prod, planted = random_planted_product(fld, n, t, rng)
        Q = disjoint_factorization(prod)
        assert Q.t == t
        assert sorted(Q.factors, key=str) == sorted(
            [g.monic() for g in planted], key=str
        )


@pytest.mark.parametrize("fld", [build_field(2, 2), build_field(3, 2)], ids=["F4", "F9"])
def test_factorization_matches_oracle_extension_fields(fld):
    # products of random pieces on the two sides of a random cut, so that
    # many inputs split and the coefficients leave the prime subfield
    rng = random.Random(303 + fld.order)
    split = 0
    for _ in range(60):
        n = rng.randint(2, 6)
        ctx = VarCtx(tuple(f"x{i}" for i in range(n)))
        cut = rng.randint(1, n)
        f = Poly.constant(fld, ctx, 1)
        for block in (range(cut), range(cut, n)):
            terms = {}
            for _ in range(rng.randint(1, 3)):
                exps = tuple(rng.randint(0, 1) if i in block else 0 for i in range(n))
                terms[exps] = fld.decode(rng.randrange(1, fld.order))
            f = f * Poly(fld, ctx, terms)
        if f.is_constant():
            continue
        expect_const, expect_factors = oracle_factorization(f)
        Q = disjoint_factorization(f)
        assert Q.constant == expect_const
        assert Q.factors == expect_factors
        split += Q.t > 1
    assert split >= 20


def test_reexpansion_failure_raises(monkeypatch):
    ctx = VarCtx(("x", "y"))
    f = mk(F2, ctx, {(1, 0): 1, (0, 1): 1})
    monkeypatch.setattr(CIdeal, "product", lambda self: Poly.constant(self.field, self.vars, 1))
    with pytest.raises(TheoremContradictionError):
        disjoint_factorization(f)


def test_is_irreducible():
    ctx = VarCtx(("x", "y", "z", "w"))
    assert is_irreducible_sqfree(mk(F2, ctx, {(1, 1, 0, 0): 1, (0, 0, 1, 1): 1}))
    assert not is_irreducible_sqfree(
        mk(F2, ctx, {(1, 0, 1, 0): 1, (1, 0, 0, 1): 1, (0, 1, 1, 0): 1, (0, 1, 0, 1): 1})
    )
    assert is_irreducible_sqfree(mk(F2, ctx, {(1, 0, 0, 0): 1}))
    assert not is_irreducible_sqfree(mk(F2, ctx, {(1, 1, 0, 0): 1}))


def test_cideal_validates_its_factors():
    ctx = VarCtx(("x", "y", "z", "w"))
    g1 = mk(F5, ctx, {(1, 1, 0, 0): 2, (0, 0, 0, 0): 0, (1, 0, 0, 0): 1})
    g2 = mk(F5, ctx, {(0, 0, 1, 1): 3})
    Q = CIdeal(F5, ctx, [g1, g2], F5.one)
    assert Q.t == 2
    assert Q.product() == g1 * g2
    with pytest.raises(FsingError, match="disjoint"):
        CIdeal(F5, ctx, [g1, g1], F5.one)  # shared variables
    with pytest.raises(ZeroOrConstantError):
        CIdeal(F5, ctx, [g1, Poly.constant(F5, ctx, 2)], F5.one)


def test_cideal_multiplies_its_factors_once():
    Q = disjoint_factorization(mk(F5, VarCtx(("x", "y")), {(1, 1): 2, (1, 0): 1}))
    assert Q.product() is Q.product()


def test_cideal_rejects_factors_from_two_contexts():
    ctx = VarCtx(("x", "y", "z", "w"))
    other = VarCtx(("a", "b", "c", "d"))
    g1 = mk(F5, ctx, {(1, 1, 0, 0): 1, (1, 0, 0, 0): 1})
    g2 = mk(F5, other, {(0, 0, 1, 1): 1, (0, 0, 1, 0): 1})
    with pytest.raises(ContextMismatchError):
        CIdeal(F5, ctx, [g1, g2], F5.one)


def _assert_stable_over(f, s):
    # the embedded polynomial factors as the oracle says, into as many
    # factors as over the base field
    big = level_field(f.field, s)
    g = f.embed(big)
    Q = disjoint_factorization(g)
    constant, factors = oracle_factorization(g)
    assert Q.constant == constant
    assert Q.factors == factors
    assert Q.t == disjoint_factorization(f).t


def test_extension_stability():
    ctx = VarCtx(("x", "y", "z", "w"))
    f = mk(F2, ctx, {(1, 1, 0, 0): 1, (0, 0, 1, 1): 1})
    prod = mk(F2, ctx, {(1, 0, 1, 0): 1, (1, 0, 0, 1): 1, (0, 1, 1, 0): 1, (0, 1, 0, 1): 1})
    g = mk(F3, VarCtx(("x", "y", "z")), {(1, 1, 0): 2, (1, 0, 0): 1, (0, 0, 1): 1})
    for poly in (f, prod, g):
        for s in (2, 3):
            _assert_stable_over(poly, s)


def test_extension_stability_over_extension_field():
    # s counts degrees over the coefficient field: F_4 at s = 2 is F_16
    F4 = build_field(2, 2)
    ctx = VarCtx(("x", "y", "z"))
    t, t1 = (0, 1), (1, 1)  # a generator t of F_4 and t + 1
    f = mk(F4, ctx, {(1, 1, 0): 1, (1, 0, 0): 1, (0, 1, 0): 1})
    coupled = mk(F4, ctx, {(1, 0, 1): t, (1, 0, 0): t1, (0, 1, 1): 1, (0, 1, 0): 1})
    prod = mk(F4, ctx, {(1, 0, 1): 1, (1, 0, 0): t1, (0, 1, 1): t, (0, 1, 0): 1})
    assert disjoint_factorization(prod).t == 2  # (x + t*y)(z + t + 1)
    for poly in (f, coupled, prod):
        _assert_stable_over(poly, 2)
    assert level_field(F4, 2) == build_field(2, 4)
    with pytest.raises(DegreeRangeError):  # F_64 is past the supported degree 4
        level_field(F4, 3)
    with pytest.raises(DegreeRangeError):
        list(level_zeros([f.embed(build_field(2, 4))], F4, 3))
