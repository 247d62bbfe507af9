"""Splitting witnesses, localization certificates, threshold samples."""

import itertools
import json
import os
import random
from fractions import Fraction

import pytest

import fsing.frobenius

from conftest import kernel_spy, mk, naive_kernel, random_modified
from fsing import (
    CIdeal,
    FptSample,
    Poly,
    RegCertificate,
    RegStage,
    SplitWitness,
    VarCtx,
    build_field,
    build_regularity_certificate,
    canon_key,
    dfpt_at,
    disjoint_factorization,
    fpt_crosscheck,
    fpt_sample_poly,
    frobenius_power_mod_bracket,
    fsplit_witness,
    modification_build,
    parse_point,
    parse_poly_file,
    random_sqfree,
    split_witness,
    squarefree_offender,
    verify_regularity_certificate,
    verify_split_witness,
)
from fsing.field import level_field
from fsing.errors import (
    CertificateSearchExhausted,
    ExponentOverflowError,
    TheoremContradictionError,
    ZeroInputError,
)
from fsing.cli import main
from fsing.frobenius import (
    _discharged,
    _least_survivors,
    _threshold_samples,
    _verify_explain,
)
from fsing.pipeline import hypersurface_point_checks

F2 = build_field(2)
F3 = build_field(3)
XYZW = VarCtx(("x", "y", "z", "w"))


def quadric(fld=F2):
    return mk(fld, XYZW, {(1, 1, 0, 0): 1, (0, 0, 1, 1): 1})


def quadric_ideal(fld=F2):
    return disjoint_factorization(quadric(fld))


def two_quadrics():
    ctx = VarCtx(("x", "y", "z", "w", "a", "b", "c", "d"))
    g1 = mk(F2, ctx, {(1, 1, 0, 0, 0, 0, 0, 0): 1, (0, 0, 1, 1, 0, 0, 0, 0): 1})
    g2 = mk(F2, ctx, {(0, 0, 0, 0, 1, 1, 0, 0): 1, (0, 0, 0, 0, 0, 0, 1, 1): 1})
    return disjoint_factorization(g1 * g2)


def test_fedder_witness_quadric():
    w = fsplit_witness(quadric_ideal().product())
    assert w == SplitWitness(1, 2, (1, 1, 0, 0))
    assert verify_split_witness(quadric_ideal(), w)


def test_fedder_witness_two_factors():
    Q = two_quadrics()
    w = fsplit_witness(Q.product())
    assert w.witness == (1, 1, 0, 0, 1, 1, 0, 0)
    assert verify_split_witness(Q, w)


def test_fedder_witness_mixed_degrees():
    ctx = VarCtx(("x", "y", "z"))
    Q = disjoint_factorization(mk(F2, ctx, {(1, 0, 0): 1, (0, 1, 1): 1}))
    w = fsplit_witness(Q.product())
    assert w.witness == (1, 0, 0)  # the lower-degree monomial is preferred


def test_fedder_witness_char3():
    f = mk(F3, VarCtx(("x", "y")), {(1, 0): 1, (0, 1): 1})
    w = fsplit_witness(f)
    assert w == SplitWitness(1, 3, (2, 0))


def test_square_is_not_split():
    f = mk(F2, VarCtx(("x",)), {(2,): 1})
    assert fsplit_witness(f) is None
    assert frobenius_power_mod_bracket(f, 2).is_zero()


def test_fsplit_witness_against_naive_kernel():
    # the witness is the least survivor of the fully expanded f^(p-1), and
    # None exactly when nothing survives; squares of square-free f often fail
    rng = random.Random(61)
    for fld in (F2, F3, build_field(2, 2), build_field(5)):
        outcomes = set()
        for _ in range(30):
            f = _random_sqfree_poly(fld, rng.randint(1, 4), rng)
            if rng.random() < 0.4:
                f = f * f
            naive = naive_kernel(f, 1)
            expected = None
            if not naive.is_zero():
                expected = SplitWitness(1, fld.p, min(naive.terms, key=canon_key))
            assert fsplit_witness(f) == expected
            outcomes.add(expected is None)
        assert outcomes == {True, False}


def test_witness_respects_exponent_bound():
    with pytest.raises(TheoremContradictionError):
        SplitWitness(1, 2, (2, 0))


def test_verify_split_witness_rejects_fake():
    fake = SplitWitness(1, 2, (0, 0, 1, 1))
    # zw does not survive: (zw)^1 * ... the reduced power is xy + zw, and
    # zw is a survivor, so tamper with a monomial that is absent instead
    assert verify_split_witness(quadric_ideal(), fake)
    absent = SplitWitness(1, 2, (1, 0, 1, 0))
    assert not verify_split_witness(quadric_ideal(), absent)


def test_verify_split_witness_rejects_bad_exponents(monkeypatch):
    # q comes from w.e: (2, 2) passes a witness that claims q = 4 at e = 1,
    # but at p = 2 every exponent must stay below 2, which rejects it
    # before any coefficient is read
    Q = quadric_ideal()
    extractor = fsing.frobenius.power_coefficient
    reads = []

    def recording(g, k, u):
        reads.append(u)
        return extractor(g, k, u)

    monkeypatch.setattr(fsing.frobenius, "power_coefficient", recording)
    assert not verify_split_witness(Q, SplitWitness(1, 4, (2, 2, 0, 0)))
    assert not verify_split_witness(Q, SplitWitness(1, 4, (3, 3, 0, 0)))
    assert reads == []
    assert verify_split_witness(Q, SplitWitness(2, 4, (3, 3, 0, 0)))
    assert reads == [(3, 3, 0, 0)]
    # x*y + z*w in five variables: v is outside every factor, so x*y*v is
    # no monomial of f^(p-1), although each factor's block of it is
    ctx = VarCtx(("x", "y", "z", "w", "v"))
    Q5 = disjoint_factorization(mk(F2, ctx, {(1, 1, 0, 0, 0): 1, (0, 0, 1, 1, 0): 1}))
    assert verify_split_witness(Q5, SplitWitness(1, 2, (1, 1, 0, 0, 0)))
    assert not verify_split_witness(Q5, SplitWitness(1, 2, (1, 1, 0, 0, 1)))
    assert not verify_split_witness(Q5, SplitWitness(1, 2, (1, 1, 0, 0)))  # arity


def test_verify_split_witness_rejects_cancelling_compositions():
    # over F_3 the irreducible x1*x2 + x1*x3 + 2*x2*x4 + x3*x4 reaches
    # x1*x2*x3*x4 in f^2 two ways, (x1*x2)(x3*x4) and (x1*x3)(2*x2*x4), with
    # coefficients 2*1 and 2*2, which cancel; an absent monomial fails too
    ctx = VarCtx(("x1", "x2", "x3", "x4"))
    f = mk(F3, ctx, {(1, 1, 0, 0): 1, (1, 0, 1, 0): 1, (0, 1, 0, 1): 2, (0, 0, 1, 1): 1})
    Q = disjoint_factorization(f)
    assert Q.t == 1
    u = (1, 1, 1, 1)
    assert u not in naive_kernel(f, 1).terms
    assert not verify_split_witness(Q, SplitWitness(1, 3, u))
    assert not verify_split_witness(Q, SplitWitness(1, 3, (2, 0, 0, 0)))
    assert verify_split_witness(Q, split_witness(Q))


@pytest.mark.parametrize("p, s", [(2, 1), (3, 1), (2, 2), (5, 1)], ids=["F2", "F3", "F4", "F5"])
def test_verify_split_witness_against_naive_kernel(p, s):
    # a witness passes exactly when it is a monomial of the naive kernel's
    # reduced product, at e = 1 and e = 2: up to 30 of its monomials and 30
    # random exponent vectors below q per product
    fld = build_field(p, s)
    rng = random.Random(31 * p + s)
    verdicts = set()
    for e in (1, 2)[: 2 if p < 5 else 1]:
        q = p**e
        for _ in range(8):
            ctx = VarCtx(f"x{i}" for i in range(5))
            blocks = [(0, 1), (2, 3), (4,)][: rng.randint(1, 3)]
            f = Poly.constant(fld, ctx, 1)
            for block in blocks:
                g = _random_sqfree_poly(fld, len(block), rng)
                g = Poly(fld, ctx, {
                    tuple(x[block.index(i)] if i in block else 0 for i in range(5)): c
                    for x, c in g.terms.items()
                })
                if not g.is_constant():
                    f = f * g
            if f.is_constant():
                continue
            Q = disjoint_factorization(f)
            naive = naive_kernel(Q.product(), e)
            support = sorted(naive.terms)
            some = rng.sample(support, min(30, len(support)))
            box = [tuple(rng.randrange(q) for _ in range(5)) for _ in range(30)]
            for u in [*some, *box]:
                verdict = verify_split_witness(Q, SplitWitness(e, q, u))
                assert verdict == (u in naive.terms)
                verdicts.add(verdict)
    assert verdicts == {True, False}


def test_split_witness_reduces_no_power(monkeypatch):
    # the witness is the closed form and its replay reads coefficients off
    # each factor, so no kernel call runs, on three factors as on one
    calls = kernel_spy(monkeypatch)
    ctx = VarCtx(("a", "b", "c", "d", "x", "y", "z", "w", "v"))
    g1 = mk(F3, ctx, {(1, 1, 0, 0, 0, 0, 0, 0, 0): 1, (0, 0, 1, 1, 0, 0, 0, 0, 0): 2})
    g2 = mk(F3, ctx, {(0, 0, 0, 0, 1, 1, 0, 0, 0): 1, (0, 0, 0, 0, 0, 0, 1, 0, 0): 1})
    g3 = mk(F3, ctx, {(0, 0, 0, 0, 0, 0, 0, 1, 1): 1, (0, 0, 0, 0, 0, 0, 0, 1, 0): 1,
                      (0, 0, 0, 0, 0, 0, 0, 0, 1): 1})
    for Q in (quadric_ideal(F3), disjoint_factorization(g1 * g2 * g3)):
        w = split_witness(Q)
        assert w.witness in naive_kernel(Q.product(), 1).terms
    assert Q.t == 3
    assert calls == []


def test_split_at_higher_levels():
    # the kernel keeps the quadric split above e = 1 and the square unsplit
    square = mk(F2, VarCtx(("x",)), {(2,): 1})
    for e in (2, 3):
        assert not frobenius_power_mod_bracket(quadric(), e).is_zero()
        assert frobenius_power_mod_bracket(square, e).is_zero()


def test_certificate_quadric_frozen():
    Q = quadric_ideal()
    cert = build_regularity_certificate(Q)
    assert cert.stages == [RegStage(3, 1, (0, 0, 0, 1), (1, 1, 0, 1))]
    assert cert.base == [(0, (0, 0, 1, 1))]
    assert cert.notes == []
    assert verify_regularity_certificate(Q, cert)


def test_certificate_two_factors_frozen():
    Q = two_quadrics()
    cert = build_regularity_certificate(Q)
    assert [ (st.inverted_var, st.e) for st in cert.stages ] == [(3, 1), (7, 1)]
    assert cert.stages[0].witness == (1, 1, 0, 1, 1, 1, 0, 0)
    assert cert.stages[1].witness == (1, 1, 0, 0, 1, 1, 0, 1)
    assert cert.base == [(0, (0, 0, 1, 1, 0, 0, 0, 0)), (1, (0, 0, 0, 0, 0, 0, 1, 1))]
    assert verify_regularity_certificate(Q, cert)


def test_certificate_base_case_only():
    ctx = VarCtx(("x", "y", "z"))
    Q = disjoint_factorization(mk(F2, ctx, {(1, 0, 0): 1, (0, 1, 1): 1}))
    cert = build_regularity_certificate(Q)
    assert cert.stages == []
    assert cert.base == [(0, (1, 0, 0))]
    assert verify_regularity_certificate(Q, cert)
    Qvar = disjoint_factorization(mk(F2, ctx, {(1, 0, 0): 1}))
    cvar = build_regularity_certificate(Qvar)
    assert cvar.stages == [] and cvar.base == [(0, (1, 0, 0))]
    assert verify_regularity_certificate(Qvar, cvar)


def test_certificate_deterministic():
    Q = two_quadrics()
    assert build_regularity_certificate(Q) == build_regularity_certificate(Q)


def test_certificate_char3_and_char5():
    for p in (3, 5):
        fld = build_field(p)
        Q = disjoint_factorization(quadric(fld))
        cert = build_regularity_certificate(Q)
        assert verify_regularity_certificate(Q, cert)


def test_certificate_of_reducible_factor_raises():
    # z*(x + y) passes as one factor only in a directly built ideal; its
    # preferred variable z divides it, so no stage witness exists
    ctx = VarCtx(("x", "y", "z"))
    Q = CIdeal(F2, ctx, [mk(F2, ctx, {(1, 0, 1): 1, (0, 1, 1): 1})], F2.one)
    with pytest.raises(CertificateSearchExhausted, match="reducible"):
        build_regularity_certificate(Q)


def test_corrupted_certificates_fail():
    Q = quadric_ideal()
    good = build_regularity_certificate(Q)

    wrong_mult = RegCertificate(
        [RegStage(3, 1, (0, 0, 1, 0), (1, 1, 0, 1))], list(good.base)
    )
    ok, reason = _verify_explain(Q, wrong_mult)
    assert not ok and "multiplier" in reason

    fake_witness = RegCertificate(
        [RegStage(3, 1, (0, 0, 0, 1), (1, 1, 1, 1))], list(good.base)
    )
    ok, reason = _verify_explain(Q, fake_witness)
    assert not ok and "survive" in reason

    big_exponent = RegCertificate(
        [RegStage(3, 1, (0, 0, 0, 1), (2, 1, 0, 1))], list(good.base)
    )
    ok, reason = _verify_explain(Q, big_exponent)
    assert not ok and "exponent" in reason

    # z*w^2 is w times zw, a monomial of the reduced power, but w^2 hits
    # the bracket (x_i^2)
    forged = RegCertificate(
        [RegStage(3, 1, (0, 0, 0, 1), (0, 0, 1, 2))], list(good.base)
    )
    assert not verify_regularity_certificate(Q, forged)

    missing_base = RegCertificate(list(good.stages), [])
    ok, reason = _verify_explain(Q, missing_base)
    assert not ok and "base" in reason

    non_unit_base = RegCertificate(list(good.stages), [(0, (1, 1, 0, 0))])
    ok, reason = _verify_explain(Q, non_unit_base)
    assert not ok and "unit" in reason

    repeat_stage = RegCertificate(
        [good.stages[0], good.stages[0]], list(good.base)
    )
    ok, reason = _verify_explain(Q, repeat_stage)
    assert not ok and "already inverted" in reason


def test_stage_replay_uses_only_the_active_factors():
    # inverting w and then z discharges x*y + z*w; a later stage's witness
    # must survive in the power of the active factor a*b + c*d alone, so
    # x*y*a*b*d, a monomial of the whole product's power times d, fails
    # while a*b*d passes
    ctx = VarCtx(("x", "y", "z", "w", "a", "b", "c", "d"))
    g1 = mk(F2, ctx, {(1, 1, 0, 0, 0, 0, 0, 0): 1, (0, 0, 1, 1, 0, 0, 0, 0): 1})
    g2 = mk(F2, ctx, {(0, 0, 0, 0, 1, 1, 0, 0): 1, (0, 0, 0, 0, 0, 0, 1, 1): 1})
    Q = disjoint_factorization(g1 * g2)
    unit = [tuple(int(j == i) for j in range(8)) for i in range(8)]
    stages = [
        RegStage(3, 1, unit[3], (1, 1, 0, 1, 1, 1, 0, 0)),
        RegStage(2, 1, unit[2], (1, 1, 1, 0, 1, 1, 0, 0)),
        RegStage(7, 1, unit[7], (0, 0, 0, 0, 1, 1, 0, 1)),
    ]
    base = [(1, (0, 0, 0, 0, 0, 0, 1, 1))]
    assert _verify_explain(Q, RegCertificate(stages, base)) == (True, None)
    touched = stages[:2] + [RegStage(7, 1, unit[7], (1, 1, 0, 0, 1, 1, 0, 1))]
    assert (1, 1, 0, 0, 1, 1, 0, 0) in naive_kernel(Q.product(), 1).terms
    ok, reason = _verify_explain(Q, RegCertificate(touched, base))
    assert not ok and reason.startswith("stage 2") and "survive" in reason


def test_stage_replay_rejects_cancelling_compositions():
    # the split replay's F_3 input: x1*x2*x3*x4 is reached in f^2 two ways
    # whose coefficients cancel, so x1*x2*x3*x4^2 is no stage witness for x4
    ctx = VarCtx(("x1", "x2", "x3", "x4"))
    f = mk(F3, ctx, {(1, 1, 0, 0): 1, (1, 0, 1, 0): 1, (0, 1, 0, 1): 2, (0, 0, 1, 1): 1})
    Q = disjoint_factorization(f)
    good = build_regularity_certificate(Q)
    assert good.stages[0].inverted_var == 3
    assert _verify_explain(Q, good) == (True, None)
    forged = RegCertificate(
        [RegStage(3, 1, (0, 0, 0, 1), (1, 1, 1, 2))] + good.stages[1:], list(good.base)
    )
    ok, reason = _verify_explain(Q, forged)
    assert not ok and "survive" in reason


@pytest.mark.parametrize("p, s", [(2, 1), (3, 1), (5, 1), (2, 2)], ids=["F2", "F3", "F5", "F4"])
def test_certificates_reduce_no_power(monkeypatch, p, s):
    # stage witnesses are read off the factors' terms and replayed per
    # factor, so building and verifying a certificate makes no kernel
    # call, on products with stages as on those without
    fld = build_field(p, s)
    calls = kernel_spy(monkeypatch)
    staged = 0
    for seed in range(12):
        Q = disjoint_factorization(random_sqfree(fld, 6, 8, 1 + seed % 3, seed))
        cert = build_regularity_certificate(Q)
        assert verify_regularity_certificate(Q, cert)
        staged += bool(cert.stages)
    assert staged and calls == []


def test_duplicate_unit_variables_rejected():
    ctx = VarCtx(("x", "y"))
    x = mk(F2, ctx, {(1, 0): 1})
    fake_q = CIdeal(F2, ctx, [x], F2.one)
    fake_q.factors = [x, x]  # the constructor rejects a repeated factor
    cert = RegCertificate([], [(0, (1, 0)), (1, (1, 0))])
    ok, reason = _verify_explain(fake_q, cert)
    assert not ok and "distinct" in reason


def test_discharged_helper():
    ctx = VarCtx(("x", "y"))
    f = mk(F2, ctx, {(1, 1): 1, (1, 0): 1})
    assert not _discharged(f, set())
    assert _discharged(f, {0})  # the monomial x becomes a unit
    assert _discharged(f, {0, 1})


def test_fpt_samples_frozen():
    Q = quadric_ideal()
    assert fpt_sample_poly(Q.product(), 1) == FptSample(1, 2, 2, Fraction(2))
    assert fpt_sample_poly(Q.product(), 2) == FptSample(2, 4, 6, Fraction(2))
    Q3 = disjoint_factorization(quadric(F3))
    assert fpt_sample_poly(Q3.product(), 1) == FptSample(1, 3, 4, Fraction(2))
    x_in_two = mk(F2, VarCtx(("x", "y")), {(1, 0): 1})
    assert fpt_sample_poly(x_in_two, 2) == FptSample(2, 4, 3, Fraction(1))


def test_fpt_sample_zero_and_unsplit():
    ctx = VarCtx(("x",))
    with pytest.raises(ZeroInputError):
        fpt_sample_poly(Poly.zero(F2, ctx), 1)
    assert fpt_sample_poly(mk(F2, ctx, {(2,): 1}), 1) is None


def _sample_by_definition(f, e):
    q = f.field.p**e
    reduced = naive_kernel(f, e)
    if reduced.is_zero():
        return None
    b = max(f.vars.n * (q - 1) - sum(w) for w in reduced.terms)
    return FptSample(e, q, b, Fraction(b, q - 1))


def _random_sqfree_poly(fld, n, rng):
    """Random square-free supported f on n variables, constant term allowed."""
    monomials = [tuple((k >> i) & 1 for i in range(n)) for k in range(2**n)]
    chosen = rng.sample(monomials, rng.randint(1, min(4, len(monomials))))
    return Poly(fld, VarCtx(f"x{i}" for i in range(n)),
                {m: fld.decode(rng.randrange(1, fld.order)) for m in chosen})


@pytest.mark.parametrize(
    "p, s, n_max, e",
    [(2, 1, 4, 2), (3, 1, 4, 2), (2, 2, 4, 2), (3, 2, 4, 2), (5, 1, 3, 2), (2, 1, 4, 3)],
    ids=["F2", "F3", "F4", "F9", "F5", "F2-e3"],
)
def test_fpt_sample_digit_path_matches_full_expansion(p, s, n_max, e):
    # square-free f: supp f^(q-1) is the digit product of e copies of
    # supp f^(p-1), so the sample read off f^(p-1) must equal the one
    # taken from the fully expanded power
    fld = build_field(p, s)
    rng = random.Random(1000 * p + 10 * s + e)
    for _ in range(30):
        f = _random_sqfree_poly(fld, rng.randint(1, n_max), rng)
        assert len(naive_kernel(f, e).terms) == len(naive_kernel(f, 1).terms) ** e
        assert fpt_sample_poly(f, e) == _sample_by_definition(f, e)
        # x0 * f squares x0 wherever f uses it: the general kernel's path
        g = f * Poly.variable(fld, f.vars, 0)
        assert fpt_sample_poly(g, e) == _sample_by_definition(g, e)


def _modify_shaped(fld, ctx, rng):
    """g*l + h as modify builds it, l = 1 + sum a_i x_i with seeded a_i."""
    n = ctx.n
    g = mk(fld, ctx, {(1, 1) + (0,) * (n - 2): 1, (0, 0) + (1,) * (n - 2): 1})
    h = mk(fld, ctx, {(1, 0) + (1,) * (n - 2): 1})
    ell = Poly.constant(fld, ctx, 1)
    for i in range(n):
        ell = ell + Poly.variable(fld, ctx, i).scale(fld.decode(rng.randrange(fld.order)))
    return g * ell + h


@pytest.mark.parametrize(
    "p, s, n", [(2, 1, 4), (3, 1, 4), (2, 2, 4), (3, 2, 3)], ids=["F2", "F3", "F4", "F9"]
)
def test_fpt_sample_at_zeros_matches_full_expansion(p, s, n):
    # shifted polynomials at zeros are what the modify point checks sample;
    # the initial-form lemma must give the fully expanded power's samples
    # at smooth and at singular zeros alike
    fld = build_field(p, s)
    ctx = VarCtx(("x", "y", "z", "w")[:n])
    rng = random.Random(100 * p + s)
    f = _modify_shaped(fld, ctx, rng)
    elements = [fld.decode(k) for k in range(fld.order)]
    singular, smooth = [], []
    for point in itertools.product(elements, repeat=n):
        if f.evaluate(point) == fld.zero:
            shifted = f.shift(point)
            (singular if shifted.order_and_initial()[0] >= 2 else smooth).append(shifted)
    assert singular and smooth  # the origin is singular
    sampled = singular[:4] + smooth[:4]
    assert any(squarefree_offender(g) is not None for g in sampled)
    for shifted in sampled:
        expected = [_sample_by_definition(shifted, e) for e in (1, 2)]
        assert [fpt_sample_poly(shifted, e) for e in (1, 2)] == expected
        # the point checks hand over the initial form they already hold
        initial = shifted.order_and_initial()[1]
        assert list(_threshold_samples(shifted, (1, 2), initial)) == expected


def _recording_kernel(monkeypatch):
    kernel = fsing.frobenius.frobenius_power_mod_bracket
    calls = []

    def recording(f, e):
        calls.append((f, e))
        return kernel(f, e)

    monkeypatch.setattr(fsing.frobenius, "frobenius_power_mod_bracket", recording)
    return calls


def test_fpt_sample_falls_back_when_the_initial_power_vanishes(monkeypatch):
    # in(f) = x^2 dies in the bracket at e = 1, 2, so only f^(q-1) itself
    # decides: x^2 + x*y*z keeps (x*y*z)^(q-1) with no slack, x^2 keeps nothing
    ctx = VarCtx(("x", "y", "z"))
    calls = _recording_kernel(monkeypatch)
    f = mk(F2, ctx, {(2, 0, 0): 1, (1, 1, 1): 1})
    initial = mk(F2, ctx, {(2, 0, 0): 1})
    for e in (1, 2):
        calls.clear()
        sample = fpt_sample_poly(f, e)
        assert sample == _sample_by_definition(f, e)
        assert sample.b == 0 and sample.lam == 0
        assert calls == [(initial, e), (f, e)]
        assert fpt_sample_poly(initial, e) is None
        assert _sample_by_definition(initial, e) is None


def _random_unsquarefree(fld, rng):
    """Random f on 1-3 variables that is not square-free supported: 1-3
    terms of one degree d <= 4, so that in(f) often has several terms, and
    up to two terms of degree d + 1 or d + 2."""
    n = rng.randint(1, 3)
    ctx = VarCtx(f"x{i}" for i in range(n))
    while True:
        d = rng.randint(1, 4)
        degrees = [d] * rng.randint(1, 3) + [rng.randint(d + 1, d + 2)
                                             for _ in range(rng.randint(0, 2))]
        terms = {}
        for k in degrees:
            cuts = sorted(rng.randint(0, k) for _ in range(n - 1))
            exps = tuple(b - a for a, b in zip([0, *cuts], [*cuts, k]))
            terms[exps] = fld.decode(rng.randrange(1, fld.order))
        f = Poly(fld, ctx, terms)
        if squarefree_offender(f) is not None:
            return f


@pytest.mark.parametrize("p, s", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1)],
                         ids=["F2", "F3", "F4", "F5", "F7"])
def test_least_survivors_against_naive_kernel(monkeypatch, p, s):
    # the least survivor is the least monomial of the fully expanded
    # f^(q-1) outside the bracket; each rule decides some case, and the
    # kernel runs only where the rule needs it: never for the degree bound
    # and the closed form, on in(f) for the initial form, on in(f) and f
    # for the whole power
    fld = build_field(p, s)
    rng = random.Random(10 * p + s)
    calls = _recording_kernel(monkeypatch)
    kernel_calls = {"degree bound": 0, "closed form": 0, "initial form": 1, "whole power": 2}
    decided, unsplit = set(), 0
    for e in (1, 2):
        for _ in range(20):
            f = _random_unsquarefree(fld, rng)
            d, initial = f.order_and_initial()
            naive = naive_kernel(f, e)
            expected = min(naive.terms, key=canon_key) if naive.terms else None
            calls.clear()
            assert list(_least_survivors(f, (e,))) == [expected]
            if d > f.vars.n:
                rule = "degree bound"
            elif squarefree_offender(initial) is None:
                rule = "closed form"
            elif not naive_kernel(initial, e).is_zero():
                rule = "initial form"
            else:
                rule = "whole power"
            assert calls == [(initial, e), (f, e)][:kernel_calls[rule]]
            decided.add(rule)
            unsplit += expected is None
    assert decided == set(kernel_calls) and unsplit


def test_fsplit_large_p_reduces_at_most_the_initial_form(monkeypatch, tmp_path, capsys):
    # the degree bound decides x^4 + y^4 + x*y^2 + x^2*y (order 3 in two
    # variables) and the closed form x1*x2 + x3*x4 + x1^3 (a square-free
    # initial form), with no kernel call; x^2 + y^2 + z^2 + x*y*z reduces
    # only its initial form
    calls = _recording_kernel(monkeypatch)
    cases = [
        (211, "x y", "x^4 + y^4 + x*y^2 + x^2*y", [], "NotSplit"),
        (1009, "x1 x2 x3 x4", "x1*x2 + x3*x4 + x1^3", [],
         {"e": 1, "q": 1009, "witness": "x1^1008*x2^1008"}),
        (101, "x y z", "x^2 + y^2 + z^2 + x*y*z", ["x^2 + y^2 + z^2"],
         {"e": 1, "q": 101, "witness": "x^100*y^100"}),
    ]
    for p, names, poly, reduced, fsplit in cases:
        path = tmp_path / f"p{p}.poly"
        path.write_text(f"p {p}\nvars {names}\npoly f: {poly}\n")
        calls.clear()
        assert main(["check", str(path), "--tests", "fsplit"]) == 0
        assert [(str(g), e) for g, e in calls] == [(g, 1) for g in reduced]
        assert json.loads(capsys.readouterr().out)["results"]["polys"][0]["fsplit"] == fsplit


PINNED = os.path.join(os.path.dirname(os.path.abspath(__file__)), "pinned")
# pinned modify inputs: the linear form's coefficients, s_max, max_points
PINNED_MODIFY = {
    "modify": ("1,1,0,1", 3, 1),
    "modify20-f2": ("1,0,0,0", 2, 20),
    "modify20-f3": ("1,0,0,0", 2, 20),
}
RANDOM_MODIFY = {"random-F2": (F2, 4), "random-F3": (F3, 3), "random-F4": (build_field(2, 2), 3)}
POINT_CHECK_INPUTS = list(PINNED_MODIFY) + list(RANDOM_MODIFY)


def _point_check_inputs(name):
    """(f, s_max, max_points, records) for the modify point checks: the f
    of a pinned modify input with the records modification_build made,
    or six random g*l + h with no records."""
    if name in PINNED_MODIFY:
        a, s_max, max_points = PINNED_MODIFY[name]
        parsed = parse_poly_file(os.path.join(PINNED, f"{name}.poly"))
        coeffs = parse_point(parsed.field, a, parsed.varctx.n)
        result = modification_build(parsed.polys["g"], parsed.polys["h"], coeffs,
                                    s_max=s_max, max_points=max_points)
        return [(result.f, s_max, max_points, result.point_checks)]
    fld, n = RANDOM_MODIFY[name]
    rng = random.Random(fld.order)
    return [(random_modified(fld, n, rng), 2, 20, None) for _ in range(6)]


def _checked_points(f, checks):
    """(check, point, f shifted to it) for each check record."""
    for check in checks:
        big = level_field(f.field, check["s"])
        point = tuple(big.decode(k) for k in check["point"])
        yield check, point, f.embed(big).shift(point)


@pytest.mark.parametrize("name", POINT_CHECK_INPUTS, ids=POINT_CHECK_INPUTS)
def test_point_checks_reduce_only_initial_forms(monkeypatch, name):
    # a smooth checked point, and a singular one whose initial form is
    # square-free supported, get their samples in closed form and never
    # reach the kernel; any other checked point reaches it on in(shifted)
    # at e = 1 and e = 2, and on the shifted polynomial where the initial
    # power dies.  No order is taken at a smooth point, and each shifted
    # point, checked or past the checks, is shifted once and has its order
    # taken once, and it is singular
    kinds = set()
    for f, s_max, max_points, records in _point_check_inputs(name):
        calls = _recording_kernel(monkeypatch)
        shifted_at, orders = [], []
        shift, order_and_initial = Poly.shift, Poly.order_and_initial

        def recording_shift(self, point):
            shifted_at.append(tuple(point))
            return shift(self, point)

        def recording_order(self):
            orders.append(order_and_initial(self)[0])
            return order_and_initial(self)

        monkeypatch.setattr(Poly, "shift", recording_shift)
        monkeypatch.setattr(Poly, "order_and_initial", recording_order)
        _, checks, _ = hypersurface_point_checks(f, s_max=s_max, max_points=max_points)
        monkeypatch.undo()
        assert len(checks) == max_points and all(c["ok"] for c in checks)
        assert records is None or checks == records
        n = f.vars.n
        units = [tuple(int(j == i) for j in range(n)) for i in range(n)]
        expected = []
        for check, point, shifted in _checked_points(f, checks):
            if any(u in shifted.terms for u in units):
                kinds.add("smooth")
                assert check["ord"] == 1 and point not in shifted_at
                continue
            initial = shifted.order_and_initial()[1]
            assert check["ord"] == sum(next(iter(initial.terms))) >= 2
            assert point in shifted_at
            if squarefree_offender(initial) is None:
                kinds.add("singular, square-free initial form")
                continue
            kinds.add("singular")
            for e in (1, 2):
                expected.append((initial, e))
                if naive_kernel(initial, e).is_zero():
                    expected.append((shifted, e))
        assert calls == expected
        assert len(set(shifted_at)) == len(shifted_at) == len(orders)
        assert min(orders, default=2) >= 2
    if name in PINNED_MODIFY:
        # no checked point of the pinned inputs reaches the kernel
        assert "singular" not in kinds and "singular, square-free initial form" in kinds
    else:
        assert len(kinds) == 3


@pytest.mark.parametrize("name", POINT_CHECK_INPUTS, ids=POINT_CHECK_INPUTS)
def test_point_check_records_match_full_expansion(name):
    # the closed-form records rest on the digit and initial-form lemmas;
    # recompute every checked point's samples from the shifted polynomial,
    # through the kernel with no initial form handed over and by fully
    # expanding its powers
    for f, s_max, max_points, _ in _point_check_inputs(name):
        _, checks, _ = hypersurface_point_checks(f, s_max=s_max, max_points=max_points)
        for check, point, shifted in _checked_points(f, checks):
            assert check["ord"] == shifted.order_and_initial()[0]
            by_kernel = list(_threshold_samples(shifted, (1, 2)))
            by_definition = [_sample_by_definition(shifted, e) for e in (1, 2)]
            assert by_kernel == by_definition
            assert check["samples"] == [
                {"e": x.e, "num": x.lam.numerator, "den": x.lam.denominator}
                for x in by_definition
            ]


def test_crosscheck_reduces_only_the_first_power(monkeypatch):
    calls = _recording_kernel(monkeypatch)
    Q = two_quadrics()
    out = fpt_crosscheck(Q, dfpt_at(Q, (F2.zero,) * Q.vars.n), (1, 2, 3))
    assert [e for _, e in calls] == [1]
    assert [sample.e for sample, _ in out] == [1, 2, 3]
    assert all(diff == 0 for _, diff in out)


def test_fpt_sample_exponent_range():
    # the degree bound and the closed form never build f^(q-1), so p^e may
    # pass 2^16; the kernel, reached by an initial form that is not
    # square-free and not past the degree bound, keeps the range check
    F257, ctx = build_field(257), VarCtx(("x",))
    x = mk(F257, ctx, {(1,): 1})
    assert fpt_sample_poly(x, 1) == FptSample(1, 257, 0, Fraction(0))
    assert fpt_sample_poly(x, 2) == FptSample(2, 66049, 0, Fraction(0))
    assert fpt_sample_poly(mk(F257, ctx, {(2,): 1}), 2) is None
    with pytest.raises(ExponentOverflowError):
        fpt_sample_poly(mk(F257, VarCtx(("x", "y")), {(2, 0): 1}), 2)
    with pytest.raises(ValueError):
        fpt_sample_poly(x, 0)


def test_fpt_lambda_within_unit_interval_scaled():
    # for square-free supported inputs the threshold is n - mult, so the
    # sampled value never exceeds the ambient dimension
    Q = two_quadrics()
    for e in (1, 2):
        s = fpt_sample_poly(Q.product(), e)
        assert 0 < s.lam <= Q.vars.n


def test_stage_witness_against_naive_localization():
    # the first stage of the quadric certificate, recomputed naively
    f = quadric()
    reduced = naive_kernel(f, 1, frozenset({3}))
    shifted = reduced * mk(F2, XYZW, {(0, 0, 0, 1): 1})
    kept = {
        e
        for e in shifted.terms
        if all(v < 2 for i, v in enumerate(e) if i != 3)
    }
    assert (1, 1, 0, 1) in kept


def _localized_first(power, v, inverted):
    """First monomial, in canonical order, of x_v * power under the bracket
    (x_i^p) localized at inverted, or None; power is the unreduced
    f^(p-1), and a monomial past the bracket stays past it times x_v."""
    q = power.field.p
    shifted = (w[:v] + (w[v] + 1,) + w[v + 1:] for w in power.terms)
    kept = [w for w in shifted if all(k < q for i, k in enumerate(w) if i not in inverted)]
    return min(kept, key=canon_key) if kept else None


@pytest.mark.parametrize(
    "p, s, n_max, cases, products",
    [(2, 1, 4, 60, 40), (3, 1, 4, 40, 40), (2, 2, 3, 40, 30), (3, 2, 3, 20, 15),
     (5, 1, 3, 20, 30), (7, 1, 3, 30, 20)],
    ids=["F2", "F3", "F4", "F9", "F5", "F7"],
)
def test_stage_lemma_against_localized_oracle(p, s, n_max, cases, products):
    # x_v * f^(q-1) under the bracket localized at S (the oracle keeps
    # inverted exponents) survives iff x_v does not divide f, and equals the
    # plain kernel's product, so certificate stages need neither e >= 2 nor
    # a localized kernel; at e = 1 its first monomial is the closed-form
    # stage witness, on one factor and on random_sqfree products of 2-3
    # factors, for every variable of every factor
    fld = build_field(p, s)
    rng = random.Random(100 * p + s)
    outcomes = set()
    for e in (1, 2)[: 2 if p < 7 else 1]:
        q = p**e
        for _ in range(cases):
            n = rng.randint(1, n_max)
            f = _random_sqfree_poly(fld, n, rng)
            inverted = frozenset(i for i in range(n) if rng.random() < 0.4)
            v = rng.choice([i for i in range(n) if i not in inverted] or [n - 1])
            inverted -= {v}
            x_v = Poly.variable(fld, f.vars, v)
            local = naive_kernel(f, e, inverted) * x_v
            local = Poly(fld, f.vars, {
                w: c for w, c in local.terms.items()
                if all(k < q for i, k in enumerate(w) if i not in inverted)
            })
            divides = all(w[v] for w in f.terms)
            assert local.is_zero() == divides
            plain = frobenius_power_mod_bracket(f, e) * x_v
            assert local == Poly(fld, f.vars, {
                w: c for w, c in plain.terms.items() if max(w) < q
            })
            if e == 1:
                first = None if local.is_zero() else local.least_monomial()
                assert fsing.frobenius._stage_witness(f, [], v) == first
            outcomes.add(divides)
    assert outcomes == {True, False}
    stages = 0
    for seed in range(products):
        n = rng.randint(2, 6)
        f = random_sqfree(fld, n, 8, rng.randint(2, min(3, n)), seed)
        Q = disjoint_factorization(f)
        # every variable inverted: the oracle's full, unreduced f^(p-1)
        power = naive_kernel(f, 1, frozenset(range(n)))
        for j, g in enumerate(Q.factors):
            others = Q.factors[:j] + Q.factors[j + 1:]
            for v in sorted(g.vars_used()):
                inverted = frozenset(i for i in range(n) if i != v and rng.random() < 0.4)
                witness = fsing.frobenius._stage_witness(g, others, v)
                assert witness == _localized_first(power, v, inverted)
                stages += witness is not None
    assert stages
