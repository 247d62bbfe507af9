"""Acceptance gate: one test per criterion, one printed verdict line each.

Every tolerance here is exact: the quantities are integers or rationals
and the supporting theory predicts them with no error term, so any
nonzero discrepancy is a failure.
"""

import json
import random
import time
from fractions import Fraction
from itertools import combinations

import pytest

from conftest import mk, naive_kernel, oracle_factorization
from fsing import (
    Poly,
    RegCertificate,
    RegStage,
    SuiteConfig,
    VarCtx,
    build_field,
    build_regularity_certificate,
    dfpt_at,
    disjoint_factorization,
    fpt_crosscheck,
    frobenius_power_mod_bracket,
    fsplit_witness,
    matroid_basis_polynomial,
    modification_build,
    parse_matroid_source,
    random_sqfree,
    theorem_suite,
    verify_exchange,
    verify_regularity_certificate,
)
from fsing.cli import main
from fsing.field import level_field

F2 = build_field(2)
F3 = build_field(3)


def _report(num: int, ok: bool, detail: str = ""):
    tail = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num} {'PASS' if ok else 'FAIL'}{tail}")
    assert ok, f"acceptance criterion {num} failed{tail}"


def test_acceptance_1_randomized_witness_and_certificate():
    """200 seeded samples, p in {2,3,5}, n <= 8, <= 8 terms, 1-3 factors:
    every sample splits at e=1 and carries a verifying certificate."""
    started = time.monotonic()
    results, status = theorem_suite(
        SuiteConfig(p_list=(2, 3, 5), n=8, max_terms=8, max_factors=3,
                    count=200, seed=0)
    )
    elapsed = time.monotonic() - started
    ok = (
        status == "pass"
        and results["count"] == 200
        and results["passed"] == 200
        and all(r["witness"] for r in results["samples"])
        and elapsed < 60.0
    )
    _report(1, ok, f"{results['passed']}/200 in {elapsed:.1f}s")


def curated_inputs(fld):
    """At least ten structurally distinct square-free supported inputs."""
    out = []
    ctx4 = VarCtx(("x", "y", "z", "w"))
    out.append(mk(fld, ctx4, {(1, 1, 0, 0): 1, (0, 0, 1, 1): 1}))
    ctx8q = VarCtx(("x", "y", "z", "w", "u", "v", "r", "s"))
    out.append(
        mk(fld, ctx8q, {
            (1, 1, 0, 0, 0, 0, 0, 0): 1,
            (0, 0, 1, 1, 0, 0, 0, 0): 1,
            (0, 0, 0, 0, 1, 1, 0, 0): 1,
            (0, 0, 0, 0, 0, 0, 1, 1): 1,
        })
    )
    ctx8 = VarCtx(("x", "y", "z", "w", "a", "b", "c", "d"))
    q1 = mk(fld, ctx8, {(1, 1, 0, 0, 0, 0, 0, 0): 1, (0, 0, 1, 1, 0, 0, 0, 0): 1})
    q2 = mk(fld, ctx8, {(0, 0, 0, 0, 1, 1, 0, 0): 1, (0, 0, 0, 0, 0, 0, 1, 1): 1})
    out.append(q1 * q2)
    ctx3 = VarCtx(("x", "y", "z"))
    out.append(mk(fld, ctx3, {(1, 0, 0): 1, (0, 1, 1): 1}))
    out.append(mk(fld, VarCtx(("x", "y")), {(1, 0): 1}))
    out.append(mk(fld, ctx3, {(1, 1, 1): 1}))
    out.append(mk(fld, ctx4, {(1, 1, 0, 0): 1, (0, 0, 1, 1): 1, (1, 0, 1, 1): 1}))
    ctx6 = VarCtx(("x", "y", "z", "u", "v", "w"))
    out.append(
        mk(fld, ctx6, {(1, 0, 0, 0, 0, 0): 1, (0, 1, 1, 0, 0, 0): 1, (0, 0, 0, 1, 1, 1): 1})
    )
    f1 = mk(fld, ctx6, {(1, 0, 0, 0, 0, 0): 1, (0, 1, 1, 0, 0, 0): 1})
    f2 = mk(fld, ctx6, {(0, 0, 0, 1, 0, 0): 1, (0, 0, 0, 0, 1, 1): 1})
    out.append(f1 * f2)
    u12 = parse_matroid_source("matroid\nn 2\nbasis 1\nbasis 2\n")
    out.append(matroid_basis_polynomial(u12, fld))
    tri = parse_matroid_source("matroid\nn 3\nbasis 1 2\nbasis 1 3\nbasis 2 3\n")
    out.append(matroid_basis_polynomial(tri, fld))
    lines = ["matroid", "n 4"] + [
        f"basis {i} {j}" for i in range(1, 5) for j in range(i + 1, 5)
    ]
    u24 = parse_matroid_source("\n".join(lines))
    out.append(matroid_basis_polynomial(u24, fld))
    out.append(k4_tree_polynomial(fld))
    return out


def k4_tree_polynomial(fld):
    """Basis polynomial of the graphic matroid of the complete graph K4."""
    edges = list(combinations(range(4), 2))  # 6 edges
    lines = ["matroid", "n 6"]
    for triple in combinations(range(6), 3):
        verts = set()
        for e in triple:
            verts |= set(edges[e])
        # 3 edges on 4 vertices form a spanning tree exactly when acyclic
        parent = list(range(4))

        def find(v):
            while parent[v] != v:
                parent[v] = parent[parent[v]]
                v = parent[v]
            return v

        acyclic = True
        for e in triple:
            a, b = (find(v) for v in edges[e])
            if a == b:
                acyclic = False
                break
            parent[a] = b
        if acyclic and len(verts) == 4:
            lines.append("basis " + " ".join(str(e + 1) for e in triple))
    m = parse_matroid_source("\n".join(lines))
    assert len(m.bases) == 16  # Cayley count 4^(4-2)
    ok, _ = verify_exchange(m)
    assert ok
    return matroid_basis_polynomial(m, fld)


def test_acceptance_2_invariant_identities_on_curated_inputs():
    """At the origin mult is the least degree of a term of f, dfpt =
    mult - t with t counted by the bipartition oracle, and fpt = dim - dfpt;
    exact threshold crosschecks for e in {1,2}; on at least ten curated
    inputs over F_2 and F_3."""
    started = time.monotonic()
    count = 0
    ok = True
    for fld in (F2, F3):
        inputs = curated_inputs(fld)
        assert len(inputs) >= 10
        for f in inputs:
            Q = disjoint_factorization(f)
            origin = (fld.zero,) * Q.vars.n
            rep = dfpt_at(Q, origin)
            mult = min(sum(exps) for exps in f.terms)
            t = len(oracle_factorization(f)[1])
            dim = f.vars.n - t
            if (rep.mult, rep.dim, rep.dfpt) != (mult, dim, mult - t):
                ok = False
            if rep.fpt != Fraction(dim - (mult - t)):
                ok = False
            for sample, diff in fpt_crosscheck(Q, rep, (1, 2)):
                if diff != 0:
                    ok = False
            count += 1
    elapsed = time.monotonic() - started
    ok = ok and count >= 20 and elapsed < 30.0
    _report(2, ok, f"{count} input/field pairs in {elapsed:.1f}s")


def test_acceptance_3_kernel_against_naive_oracle():
    """The truncated Frobenius power equals full expansion plus filtering
    on 504 randomized cases."""
    rng = random.Random(2024)
    cases = 0
    ok = True
    for fld in (F2, F3):
        for e in (1, 2):
            for _ in range(126):
                n = rng.randint(1, 3)
                ctx = VarCtx(("x", "y", "z")[:n])
                terms = {}
                for _ in range(rng.randint(1, 3)):
                    exps = tuple(rng.randint(0, 2) for _ in range(n))
                    terms[exps] = fld.decode(rng.randrange(1, fld.order))
                f = Poly(fld, ctx, terms)
                if frobenius_power_mod_bracket(f, e) != naive_kernel(f, e):
                    ok = False
                cases += 1
    ok = ok and cases >= 500
    _report(3, ok, f"{cases} cases")


def test_acceptance_4_factorization_against_oracle():
    """Factorization agrees with the bipartition oracle on 100 random
    inputs and recovers the planted factor count on 200 products."""
    rng = random.Random(4096)
    ok = True
    oracle_cases = 0
    while oracle_cases < 100:
        fld = (F2, F3)[oracle_cases % 2]
        n = rng.randint(2, 6)
        ctx = VarCtx(tuple(f"x{i}" for i in range(n)))
        terms = {}
        for _ in range(rng.randint(1, 5)):
            exps = tuple(rng.randint(0, 1) for _ in range(n))
            terms[exps] = fld.decode(rng.randrange(1, fld.order))
        f = Poly(fld, ctx, terms)
        if f.is_zero() or f.is_constant():
            continue
        want_const, want_factors = oracle_factorization(f)
        Q = disjoint_factorization(f)
        if Q.constant != want_const or Q.factors != want_factors:
            ok = False
        oracle_cases += 1
    planted_cases = 0
    for trial in range(200):
        fld = (F2, F3, build_field(5))[trial % 3]
        t = rng.randint(1, 3)
        n = rng.randint(max(t, 2), 8)
        f = random_sqfree(fld, n, 8, t, seed=trial)
        if disjoint_factorization(f).t != t:
            ok = False
        planted_cases += 1
    ok = ok and oracle_cases >= 90 and planted_cases == 200
    _report(4, ok, f"{oracle_cases} oracle + {planted_cases} planted")


def test_acceptance_5_extension_stability():
    """Over F_{p^2} and F_{p^3}, the factorization of 50 random samples
    matches the bipartition oracle (constant and monic factors), and the
    factor count equals the one over the base field."""
    ok = True
    cases = 0
    for trial in range(50):
        fld = (F2, F3)[trial % 2]
        rng = random.Random(900 + trial)
        t = rng.randint(1, 2)
        n = rng.randint(max(t, 2), 6)
        f = random_sqfree(fld, n, 6, t, seed=900 + trial)
        base_t = disjoint_factorization(f).t
        for s in (2, 3):
            g = f.embed(level_field(fld, s))
            Q = disjoint_factorization(g)
            if (Q.constant, Q.factors) != oracle_factorization(g) or Q.t != base_t:
                ok = False
        cases += 1
    ok = ok and cases == 50
    _report(5, ok, f"{cases} samples, s in {{2,3}}")


def test_acceptance_6_modification_pipeline():
    """g = xy+zw, h = xzw, linear-form coefficients 0 and (1,0,0,0),
    over F_2 and F_3: the transformed model is square-free supported and
    irreducible, its certificate verifies, and the defect equals the
    maximal multiplicity minus one with exact threshold checks at
    twenty searched points."""
    ctx = VarCtx(("x", "y", "z", "w"))
    ok = True
    built = 0
    for fld in (F2, F3):
        g = mk(fld, ctx, {(1, 1, 0, 0): 1, (0, 0, 1, 1): 1})
        h = mk(fld, ctx, {(1, 0, 1, 1): 1})
        for coeffs in ((0, 0, 0, 0), (1, 0, 0, 0)):
            r = modification_build(g, h, coeffs)
            if not r.verified:
                ok = False
            if r.dfpt != r.max_mult - 1 or r.max_mult < 2:
                ok = False
            if len(r.point_checks) < 20 or not all(c["ok"] for c in r.point_checks):
                ok = False
            if r.max_mult < max(c["ord"] for c in r.point_checks):
                ok = False
            built += 1
    ok = ok and built == 4
    _report(6, ok, f"{built} builds")


def test_acceptance_7_negative_controls(tmp_path, capsys):
    """A square is not split, non-square-free input is rejected by the
    theorem pipeline, and corrupted certificates fail verification."""
    ok = True
    square = mk(F2, VarCtx(("x",)), {(2,): 1})
    if fsplit_witness(square) is not None:
        ok = False
    path = tmp_path / "sq.poly"
    path.write_text("p 2\nvars x\npoly f: x^2\n")
    if main(["check", str(path), "--tests", "fsplit"]) != 0:
        ok = False
    out = capsys.readouterr().out
    if "NotSplit" not in out:
        ok = False
    if main(["check", str(path)]) != 2:
        ok = False
    capsys.readouterr()
    quadric = mk(F2, VarCtx(("x", "y", "z", "w")), {(1, 1, 0, 0): 1, (0, 0, 1, 1): 1})
    Q = disjoint_factorization(quadric)
    cert = build_regularity_certificate(Q)
    if not verify_regularity_certificate(Q, cert):
        ok = False
    corrupted = RegCertificate(
        [RegStage(3, 1, (0, 0, 0, 1), (1, 1, 1, 1))], list(cert.base)
    )
    if verify_regularity_certificate(Q, corrupted):
        ok = False
    scrambled_base = RegCertificate(list(cert.stages), [(0, (1, 1, 0, 0))])
    if verify_regularity_certificate(Q, scrambled_base):
        ok = False
    _report(7, ok)
