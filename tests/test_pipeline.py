"""Input formats, random generation, the suite, modification, and the CLI."""

import json
import os
import random
import subprocess
import sys
from itertools import combinations, product

import pytest

import fsing.cli
import fsing.frobenius
import fsing.invariants
import fsing.pipeline
from conftest import kernel_spy, mk, pow_spy, random_modified
from fsing import (
    CIdeal,
    Poly,
    VarCtx,
    build_field,
    check_sqfree_sample,
    disjoint_factorization,
    matroid_basis_polynomial,
    minimize_failure,
    modification_build,
    parse_matroid_source,
    parse_point,
    parse_poly_source,
    random_sqfree,
    theorem_suite,
    verify_exchange,
    SuiteConfig,
    build_report,
)
from fsing.cli import main
from fsing.errors import (
    BadFieldSpecError,
    HypothesisViolatedError,
    MatroidFormatError,
    ParseError,
    TheoremContradictionError,
    UnknownVariableError,
)
from fsing.field import level_field
from fsing.io import MatroidInput
from fsing.pipeline import hypersurface_point_checks

F2 = build_field(2)
F3 = build_field(3)
F5 = build_field(5)


# --------------------------------------------------------------------------
# polynomial file format
# --------------------------------------------------------------------------

def test_parse_simple_file():
    parsed = parse_poly_source("p 5\nvars x\npoly f: 7*x\n")
    assert parsed.field.p == 5 and parsed.field.s == 1
    assert parsed.varctx.names == ("x",)
    f = parsed.polys["f"]
    assert f == mk(F5, parsed.varctx, {(1,): 2})  # 7 reduces to 2


def test_parse_expression_forms():
    src = """
# a comment line
p 3
vars x y z

poly a: x^2*y + 2*z - 1
poly b: -x + 2
poly c: x + x          # terms merge; 2x over F_3
poly d: x*x
"""
    parsed = parse_poly_source(src)
    ctx = parsed.varctx
    assert parsed.polys["a"] == mk(F3, ctx, {(2, 1, 0): 1, (0, 0, 1): 2, (0, 0, 0): 2})
    assert parsed.polys["b"] == mk(F3, ctx, {(1, 0, 0): 2, (0, 0, 0): 2})
    assert parsed.polys["c"] == mk(F3, ctx, {(1, 0, 0): 2})
    assert parsed.polys["d"] == mk(F3, ctx, {(2, 0, 0): 1})


def test_parse_extension_field():
    parsed = parse_poly_source("p 2\next 2\nvars x y\npoly f: x + y\n")
    assert parsed.field.order == 4
    assert parsed.polys["f"].terms[(1, 0)] == parsed.field.one


def test_parse_cancellation_to_zero():
    parsed = parse_poly_source("p 2\nvars x\npoly f: x + x\n")
    assert parsed.polys["f"].is_zero()


def test_parse_nonprime_characteristic():
    with pytest.raises(BadFieldSpecError) as err:
        parse_poly_source("p 6\nvars x\npoly f: x\n")
    assert err.value.line == 1 and err.value.column == 3
    assert "line 1, column 3" in str(err.value)


def test_parse_unknown_variable():
    with pytest.raises(UnknownVariableError) as err:
        parse_poly_source("p 2\nvars x\npoly f: x + q\n")
    assert err.value.line == 3


def test_parse_error_positions_and_rules():
    with pytest.raises(ParseError):
        parse_poly_source("p 2\nvars x\npoly f: x^70000\n")
    with pytest.raises(ParseError, match="exponent 80000 out of range"):
        parse_poly_source("p 2\nvars x\npoly f: x^40000*x^40000\n")
    with pytest.raises(ParseError, match="front of a term"):
        parse_poly_source("p 2\nvars x\npoly f: x*2\n")
    with pytest.raises(ParseError, match="duplicate poly"):
        parse_poly_source("p 2\nvars x\npoly f: x\npoly f: x\n")
    with pytest.raises(BadFieldSpecError, match="before p"):
        parse_poly_source("vars x\npoly f: x\np 2\n")
    with pytest.raises(ParseError, match="before vars"):
        parse_poly_source("p 2\npoly f: x\nvars x\n")
    with pytest.raises(BadFieldSpecError, match="missing p"):
        parse_poly_source("vars x\n")
    with pytest.raises(ParseError, match="missing vars"):
        parse_poly_source("p 2\n")
    with pytest.raises(ParseError, match="unknown directive"):
        parse_poly_source("p 2\nvars x\nfoo bar\n")
    with pytest.raises(ParseError, match="unexpected character"):
        parse_poly_source("p 2\nvars x\npoly f: x % 2\n")
    with pytest.raises(BadFieldSpecError, match="duplicate p"):
        parse_poly_source("p 2\np 3\nvars x\npoly f: x\n")
    with pytest.raises(ParseError, match="after polynomials"):
        parse_poly_source("p 2\nvars x\npoly f: x\next 2\n")


def test_parse_point():
    assert parse_point(F3, "0, 1, 2", 3) == (F3.zero, F3.one, F3.scalar(2))
    F4 = build_field(2, 2)
    assert parse_point(F4, "2,3", 2) == ((0, 1), (1, 1))
    with pytest.raises(ValueError):
        parse_point(F3, "0,1", 3)
    with pytest.raises(ValueError):
        parse_point(F3, "0,one,2", 3)
    for out_of_range in ("0,3,2", "0,-1,2"):
        with pytest.raises(ValueError, match=r"0\.\.2"):
            parse_point(F3, out_of_range, 3)


# --------------------------------------------------------------------------
# matroids
# --------------------------------------------------------------------------

def test_matroid_u12():
    m = parse_matroid_source("matroid\nn 2\nbasis 1\nbasis 2\n")
    ok, _ = verify_exchange(m)
    assert ok
    f = matroid_basis_polynomial(m, F2)
    assert str(f) == "x1 + x2"


def test_matroid_triangle():
    m = parse_matroid_source(
        "matroid\nn 3\nbasis 1 2\nbasis 1 3\nbasis 2 3\n"
    )
    ok, _ = verify_exchange(m)
    assert ok
    f = matroid_basis_polynomial(m, F2)
    assert f == mk(F2, f.vars, {(1, 1, 0): 1, (1, 0, 1): 1, (0, 1, 1): 1})


def test_matroid_uniform_2_4():
    lines = ["matroid", "n 4"]
    for i in range(1, 5):
        for j in range(i + 1, 5):
            lines.append(f"basis {i} {j}")
    m = parse_matroid_source("\n".join(lines))
    ok, _ = verify_exchange(m)
    assert ok
    f = matroid_basis_polynomial(m, F3)
    assert len(f.terms) == 6


def test_matroid_exchange_counterexample():
    m = parse_matroid_source("matroid\nn 4\nbasis 1 2\nbasis 3 4\n")
    ok, detail = verify_exchange(m)
    assert not ok
    assert "exchange fails" in detail


def _pairwise_exchange(m):
    """The exchange axiom checked pair by pair, the reference scan order."""
    basis_set = {frozenset(b) for b in m.bases}
    for b1 in basis_set:
        for b2 in basis_set:
            for e in b1 - b2:
                if not any((b1 - {e}) | {f} in basis_set for f in b2 - b1):
                    return False, f"exchange fails for {sorted(b1)}, {sorted(b2)} at {e}"
    return True, None


def _graphic_bases(vertices, edges):
    """Bases of the graphic matroid: the spanning forests of the graph."""
    def acyclic(chosen):
        root = list(range(vertices))

        def find(v):
            while root[v] != v:
                v = root[v]
            return v

        for k in chosen:
            a, b = find(edges[k][0]), find(edges[k][1])
            if a == b:
                return False
            root[a] = b
        return True

    forests = [c for r in range(len(edges), 0, -1)
               for c in combinations(range(len(edges)), r) if acyclic(c)]
    rank = len(forests[0]) if forests else 0
    return [tuple(k + 1 for k in c) for c in forests if len(c) == rank]


def test_bitmask_exchange_matches_the_pairwise_scan():
    # matroids (graphic, and those with one basis removed, which mostly are
    # not) and random set families; the detail text must match as well,
    # so the first failing e in b1 - b2 is the pairwise scan's
    rng = random.Random(505)
    families = []
    for _ in range(150):
        vertices = rng.randint(2, 5)
        pairs = list(combinations(range(vertices), 2))
        edges = rng.sample(pairs, rng.randint(1, min(7, len(pairs))))
        bases = _graphic_bases(vertices, edges)
        if bases:
            families.append((len(edges), bases))
            if len(bases) > 1:
                families.append((len(edges), [b for b in bases if b != rng.choice(bases)]))
    for _ in range(300):
        n = rng.randint(4, 7)
        r = rng.randint(2, n - 2)
        subsets = list(combinations(range(1, n + 1), r))
        families.append((n, rng.sample(subsets, rng.randint(1, len(subsets)))))
    for _ in range(100):  # elements past 8 iterate out of sorted order in a set
        subsets = list(combinations(range(1, 13), 4))
        families.append((12, rng.sample(subsets, rng.randint(2, 12))))
    verdicts = []
    for n, bases in families:
        m = MatroidInput(n, sorted(bases))
        verdict = verify_exchange(m)
        assert verdict == _pairwise_exchange(m)
        verdicts.append(verdict[0])
    assert verdicts.count(True) >= 100 and verdicts.count(False) >= 100


def test_matroid_format_errors():
    with pytest.raises(MatroidFormatError, match="header"):
        parse_matroid_source("n 2\nbasis 1\n")
    with pytest.raises(MatroidFormatError, match="before n"):
        parse_matroid_source("matroid\nbasis 1\n")
    with pytest.raises(MatroidFormatError, match="empty basis"):
        parse_matroid_source("matroid\nn 2\nbasis\n")
    with pytest.raises(MatroidFormatError, match="basis index"):
        parse_matroid_source("matroid\nn 2\nbasis 3\n")
    with pytest.raises(MatroidFormatError, match="repeated element"):
        parse_matroid_source("matroid\nn 2\nbasis 1 1\n")
    with pytest.raises(MatroidFormatError, match="duplicate basis"):
        parse_matroid_source("matroid\nn 2\nbasis 1\nbasis 1\n")
    with pytest.raises(MatroidFormatError, match="one cardinality"):
        parse_matroid_source("matroid\nn 2\nbasis 1\nbasis 1 2\n")
    with pytest.raises(MatroidFormatError, match="no bases"):
        parse_matroid_source("matroid\nn 2\n")
    with pytest.raises(MatroidFormatError, match="bad basis entry"):
        parse_matroid_source("matroid\nn 2\nbasis a\n")


# --------------------------------------------------------------------------
# random generation
# --------------------------------------------------------------------------

def test_random_sqfree_deterministic():
    a = random_sqfree(F3, 6, 8, 2, seed=5)
    b = random_sqfree(F3, 6, 8, 2, seed=5)
    assert a == b
    c = random_sqfree(F3, 6, 8, 2, seed=6)
    assert a != c


def test_random_sqfree_planted_count_recovered():
    rng = random.Random(17)
    for trial in range(40):
        fld = (F2, F3, F5)[trial % 3]
        t = rng.randint(1, 3)
        n = rng.randint(max(t, 2), 7)
        f = random_sqfree(fld, n, 8, t, seed=trial)
        Q = disjoint_factorization(f)
        assert Q.t == t
        # vanishes at the origin: no constant monomial is ever drawn
        origin = (fld.zero,) * n
        assert f.evaluate(origin) == fld.zero


def test_random_sqfree_pigeonhole():
    with pytest.raises(ValueError):
        random_sqfree(F2, 3, 8, 4)
    with pytest.raises(ValueError):
        random_sqfree(F2, 3, 8, 0)


def test_random_sqfree_bounds_n(monkeypatch):
    # _random_factor lists every subset of a variable block, 2^20 of them
    # for one block at n = 20, so n above SUITE_MAX_N is refused before
    # any factor is drawn, from the library as from the CLI
    def no_listing(*args):
        raise AssertionError("a factor was drawn")

    monkeypatch.setattr(fsing.pipeline, "_random_factor", no_listing)
    with pytest.raises(ValueError, match="at most 16 variables"):
        random_sqfree(build_field(2), 20, 4, 1)
    with pytest.raises(ValueError, match="at most 16 variables"):
        theorem_suite(SuiteConfig(n=17, count=1))
    monkeypatch.undo()
    assert random_sqfree(F2, 16, 4, 16).vars.n == 16


# --------------------------------------------------------------------------
# sample pipeline and minimizer
# --------------------------------------------------------------------------

def test_check_sample_pass():
    ctx = VarCtx(("x", "y", "z", "w"))
    f = mk(F2, ctx, {(1, 1, 0, 0): 1, (0, 0, 1, 1): 1})
    rec = check_sqfree_sample(f, t_planted=1)
    assert rec["ok"]
    assert rec["witness"] == "x*y"
    assert rec["stages"] == 1
    assert rec["dfpt"] == 1
    assert [d["num"] for d in rec["lambda"]] == [2, 2]


def test_check_sample_reduces_no_power(monkeypatch):
    # the witness, the certificate, the threshold samples and their
    # replays are read off the factors' terms: no kernel, no power
    calls, powers = kernel_spy(monkeypatch), pow_spy(monkeypatch)
    ctx = VarCtx(("x", "y", "z", "w"))
    f = mk(F3, ctx, {(1, 1, 0, 0): 1, (0, 0, 1, 1): 1})
    rec = check_sqfree_sample(f, t_planted=1)
    assert rec["ok"] and rec["stages"] == 1 and rec["origin_on_variety"]
    assert calls == [] and powers == []


def test_check_and_matroid_reduce_no_power(monkeypatch, tmp_path, capsys):
    calls, powers = kernel_spy(monkeypatch), pow_spy(monkeypatch)
    poly = tmp_path / "pair.poly"
    poly.write_text("p 3\nvars a b c d x y\npoly f: a*b + c*d\npoly g: x*y + x + y\n")
    matroid = tmp_path / "u36.matroid"
    matroid.write_text("matroid\nn 6\n" + "".join(
        "basis " + " ".join(map(str, b)) + "\n" for b in combinations(range(1, 7), 3)))
    assert main(["check", str(poly), "--s-max", "1"]) == 0
    assert main(["matroid", str(matroid), "--p", "3", "--s-max", "1"]) == 0
    assert main(["fpt", str(poly), "--poly", "f", "--e-max", "4"]) == 0
    capsys.readouterr()
    assert calls == [] and powers == []


def test_check_sample_detects_planted_mismatch():
    ctx = VarCtx(("x", "y", "z", "w"))
    f = mk(F2, ctx, {(1, 1, 0, 0): 1, (0, 0, 1, 1): 1})
    rec = check_sqfree_sample(f, t_planted=2)
    assert not rec["ok"]
    assert "factor" in rec["failure"]


def test_check_sample_fails_when_the_witness_replay_rejects(monkeypatch):
    # the witness is a formula; the sample replays it on the reduced power
    monkeypatch.setattr(fsing.frobenius, "verify_split_witness", lambda Q, w: False)
    ctx = VarCtx(("x", "y", "z", "w"))
    rec = check_sqfree_sample(mk(F2, ctx, {(1, 1, 0, 0): 1, (0, 0, 1, 1): 1}))
    assert not rec["ok"]
    assert rec["failure"] == "splitting witness failed its replay"


def test_minimizer_no_failure_returns_input():
    ctx = VarCtx(("x", "y"))
    f = mk(F2, ctx, {(1, 0): 1, (0, 1): 1})
    assert minimize_failure(f) == f


def test_minimizer_shrinks_with_fake_predicate(monkeypatch):
    import fsing.pipeline as pl

    def fake_check(f, t_planted=None):
        return {"ok": len(f.terms) <= 3, "failure": None}

    monkeypatch.setattr(pl, "check_sqfree_sample", fake_check)
    ctx = VarCtx(tuple("abcdef"))
    terms = {}
    for i in range(6):
        exps = [0] * 6
        exps[i] = 1
        terms[tuple(exps)] = F2.one
    f = Poly(F2, ctx, terms)
    shrunk = pl.minimize_failure(f)
    assert len(shrunk.terms) == 4  # one drop away from passing


# --------------------------------------------------------------------------
# theorem suite
# --------------------------------------------------------------------------

def test_suite_small_run_passes():
    results, status = theorem_suite(SuiteConfig(count=10))
    assert status == "pass"
    assert results["passed"] == results["count"] == 10
    assert results["failures"] == []


def test_suite_reports_are_reproducible():
    cfg = SuiteConfig(count=8, seed=3)
    r1, s1 = theorem_suite(cfg)
    r2, s2 = theorem_suite(cfg)
    assert s1 == s2
    assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)


def test_build_report_rejects_an_unknown_status():
    # an exit code is read off the status, so a bad one must fail loudly,
    # also under python -O, which strips asserts; main maps every status
    # but pass to exit 1, which means a counterexample and nothing else,
    # so there is no error status
    report = build_report({"p": 2}, ["x"], {}, {}, "pass")
    assert report["status"] == "pass"
    for status in ("passed", "error"):
        with pytest.raises(ValueError, match="status"):
            build_report({"p": 2}, ["x"], {}, {}, status)


def test_suite_extra_inputs_and_skips():
    ctx = VarCtx(("x", "y"))
    good = mk(F2, ctx, {(1, 0): 1, (0, 1): 1})
    square = mk(F2, ctx, {(2, 0): 1})
    const = Poly.constant(F2, ctx, 1)
    results, status = theorem_suite(
        SuiteConfig(count=2, extra_inputs=(good, square, const))
    )
    assert status == "pass"
    assert len(results["skipped"]) == 2
    reasons = " ".join(s["reason"] for s in results["skipped"])
    assert "square-free" in reasons and "constant" in reasons
    extra_recs = [r for r in results["samples"] if r["index"] == "extra-0"]
    assert len(extra_recs) == 1 and extra_recs[0]["ok"]


# --------------------------------------------------------------------------
# modification construction
# --------------------------------------------------------------------------

def mod_inputs():
    ctx = VarCtx(("x", "y", "z", "w"))
    g = mk(F2, ctx, {(1, 1, 0, 0): 1, (0, 0, 1, 1): 1})
    h = mk(F2, ctx, {(1, 1, 0, 1): 1, (1, 0, 1, 1): 1})
    return g, h


def test_modification_valid_build():
    g, h = mod_inputs()
    r = modification_build(g, h, (0, 0, 0, 0))
    assert r.f == g + h
    assert r.transformed.vars.names == ("x", "y", "z", "w", "y0")
    assert r.verified
    assert r.max_mult == 2 and r.dfpt == 1
    assert len(r.point_checks) == 20
    assert all(c["ok"] for c in r.point_checks)
    assert not r.budget_exceeded


def test_modification_with_linear_form():
    g, h = mod_inputs()
    r = modification_build(g, h, (1, 0, 0, 1))
    assert r.verified
    # f = g * (1 + x + w) + h contains the degree-3 part g*(x+w) + h
    assert r.f.total_degree() == 3
    assert all(c["ok"] for c in r.point_checks)


def test_modification_raises_when_the_witness_replay_rejects(monkeypatch):
    monkeypatch.setattr(fsing.frobenius, "verify_split_witness", lambda Q, w: False)
    g, h = mod_inputs()
    with pytest.raises(TheoremContradictionError):
        modification_build(g, h, (0, 0, 0, 0))


def test_modification_hypothesis_violations():
    ctx = VarCtx(("x", "y", "z", "w"))
    g, h = mod_inputs()
    zero = Poly.zero(F2, ctx)
    cases = [
        (zero, h, "g_zero"),
        (g, zero, "h_zero"),
        (g, mk(F2, ctx, {(2, 0, 0, 1): 1}), "h_not_squarefree"),
        (g, mk(F2, ctx, {(1, 1, 1, 0): 1, (1, 0, 0, 0): 1}), "h_not_homogeneous"),
        (g, mk(F2, ctx, {(1, 1, 1, 1): 1}), "degree_gap"),
        (
            mk(F2, ctx, {(1, 0, 1, 0): 1, (1, 0, 0, 1): 1}),  # x(z + w)
            mk(F2, ctx, {(1, 1, 1, 0): 1, (0, 1, 1, 1): 1}),
            "g_reducible",
        ),
    ]
    for gg, hh, reason in cases:
        with pytest.raises(HypothesisViolatedError) as err:
            modification_build(gg, hh, (0, 0, 0, 0))
        assert err.value.reason == reason


def test_modification_rejects_divisible_h():
    ctx = VarCtx(("x", "y", "z", "w", "u"))
    g = mk(F2, ctx, {(1, 1, 0, 0, 0): 1, (0, 0, 1, 1, 0): 1})
    h = g * mk(F2, ctx, {(0, 0, 0, 0, 1): 1})
    with pytest.raises(HypothesisViolatedError) as err:
        modification_build(g, h, (0,) * 5)
    assert err.value.reason == "g_divides_h"


def test_modification_wrong_coefficient_arity():
    g, h = mod_inputs()
    with pytest.raises(HypothesisViolatedError) as err:
        modification_build(g, h, (0, 0))
    assert err.value.reason == "ell_arity"


def test_point_checks_direct():
    ctx = VarCtx(("x", "y", "z", "w"))
    f = mk(F2, ctx, {(1, 1, 0, 0): 1, (0, 0, 1, 1): 1})
    best, checks, flagged = hypersurface_point_checks(f, s_max=1, max_points=5)
    assert best == 2
    assert len(checks) == 5
    assert all(c["ok"] for c in checks)
    assert not flagged


def test_point_checks_walk_each_level_once():
    # over F_8 a coordinate encoding means a different element than over F_4,
    # so level 3 skips exactly the points with every coordinate in F_2
    ctx = VarCtx(("x", "y", "z"))
    f = mk(F2, ctx, {(1, 1, 0): 1, (0, 1, 1): 1, (1, 0, 1): 1, (1, 0, 0): 1, (0, 1, 0): 1})
    best, checks, flagged = hypersurface_point_checks(f, s_max=3, max_points=10**3)
    assert not flagged and all(c["ok"] for c in checks)
    by_level = {s: {tuple(c["point"]) for c in checks if c["s"] == s} for s in (1, 2, 3)}
    assert {(2, 0, 1), (3, 0, 1), (0, 2, 1), (0, 3, 1), (0, 0, 2)} <= by_level[3]
    F8 = build_field(2, 3)
    on_f8 = [
        pt for pt in product(range(8), repeat=3)
        if f.embed(F8).evaluate(tuple(F8.decode(a) for a in pt)) == F8.zero
    ]
    assert by_level[3] == {pt for pt in on_f8 if max(pt) > 1}
    assert len(by_level[1]) == 4 and len(by_level[2]) == 12


def test_point_checks_hand_maximize_the_levels_from_the_stop_level(monkeypatch):
    # f has degree 3 and order at most 2, so maximize walks a layer at every
    # level it is handed; its 12 zeros over F_2 all get records, and the
    # 13th record stops the walk in level 2, so level 1 is walked once, by
    # the record walk, and never with orbits by maximize
    f = mk(F2, VarCtx(("x", "y", "z", "w")),
           {(1, 1, 0, 0): 1, (0, 0, 1, 1): 1, (2, 1, 0, 0): 1, (1, 1, 0, 1): 1})
    real, walks = fsing.invariants.level_zeros, []

    def counted(polys, base, s, orbits=False):
        walks.append((s, orbits))
        return real(polys, base, s, orbits)

    monkeypatch.setattr(fsing.invariants, "level_zeros", counted)
    best, checks, flagged = hypersurface_point_checks(f, s_max=2, max_points=13)
    assert (best, flagged) == (2, False)
    assert [c["s"] for c in checks] == [1] * 12 + [2]
    assert [w for w in walks if w[0] == 1] == [(1, False)]
    assert (2, True) in walks


@pytest.mark.parametrize("fld, n, s_max", [(F2, 4, 3), (F3, 3, 2), (build_field(2, 2), 3, 2)],
                         ids=["F2", "F3", "F4"])
def test_point_checks_best_is_the_maximum_order(fld, n, s_max):
    # past the checked points only the singular locus is walked; the
    # maximum must still be the largest shift order over every zero of
    # every searched level, however few points get a record, also when
    # none does and when the records end on a level boundary
    rng = random.Random(7 * fld.order + n)
    raised = 0
    for _ in range(6):
        f = random_modified(fld, n, rng)
        expected, level_one = 0, 0
        for s in range(1, s_max + 1):
            big = level_field(fld, s)
            fe = f.embed(big)
            for point in product(list(big.elements()), repeat=n):
                if fe.evaluate(point) == big.zero:
                    expected = max(expected, fe.shift(point).order_and_initial()[0])
                    level_one += s == 1
        for max_points in (0, 1, 5, 20, 10**3, level_one):
            best, checks, flagged = hypersurface_point_checks(
                f, s_max=s_max, max_points=max_points
            )
            assert (best, flagged) == (expected, False)
            assert len(checks) <= max_points and all(c["ok"] for c in checks)
            if max_points == level_one:
                assert [c["s"] for c in checks] == [1] * level_one
            if checks:
                raised += best > max(c["ord"] for c in checks)
    assert raised  # some maximum came from the walk past the checked points


@pytest.mark.parametrize("max_points", [0, 1])
def test_point_checks_without_a_level_one_zero(max_points):
    # x^2 + x + 1 has no zero over F_2 and two conjugate smooth zeros over F_4
    f = mk(F2, VarCtx(("x",)), {(2,): 1, (1,): 1, (0,): 1})
    assert hypersurface_point_checks(f, s_max=1, max_points=max_points)[0] == 0
    best, checks, flagged = hypersurface_point_checks(f, s_max=2, max_points=max_points)
    assert (best, flagged) == (1, False)
    assert checks == [
        {"point": [2], "s": 2, "ord": 1, "ok": True,
         "samples": [{"e": 1, "num": 0, "den": 1}, {"e": 2, "num": 0, "den": 1}]}
    ][:max_points]


# --------------------------------------------------------------------------
# command line interface
# --------------------------------------------------------------------------

@pytest.fixture
def poly_file(tmp_path):
    path = tmp_path / "input.poly"
    path.write_text("p 2\nvars x y z w\npoly f: x*y + z*w\npoly g: x + y*z\n")
    return str(path)


def test_cli_check_pass(poly_file, capsys):
    assert main(["check", poly_file]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "pass"
    names = [e["name"] for e in report["results"]["polys"]]
    assert names == ["f", "g"]
    cert = report["results"]["polys"][0]["certificate"]
    assert cert["verified"] is True


def test_cli_check_off_origin_extension_field(tmp_path, capsys):
    # the origin misses 1 + z*w, so the maximizer search embeds F_4 into F_16
    path = tmp_path / "ext.poly"
    path.write_text("p 2\next 2\nvars x y z w\npoly f: x*z*w + x + y*z*w + y\n")
    assert main(["check", str(path)]) == 0
    entry = json.loads(capsys.readouterr().out)["results"]["polys"][0]
    assert entry["note"] == "origin not on the variety; searched for a maximizer"
    assert entry["invariants"]["budget_exceeded"] is True  # level 3 is F_64


def test_cli_check_quadric_beyond_kernel_exponent_range(tmp_path, capsys):
    # at p = 257 the e = 2 crosscheck sample has p^2 > 2^16; square-free
    # input replays its least survivor per factor, building no power, so
    # no kernel range check applies
    path = tmp_path / "q257.poly"
    path.write_text("p 257\nvars x1 x2 x3 x4\npoly f: x1*x2 + x3*x4\n")
    assert main(["check", str(path)]) == 0
    entry = json.loads(capsys.readouterr().out)["results"]["polys"][0]
    assert [row["q"] for row in entry["fpt"]] == [257, 66049]


def test_cli_check_single_poly(poly_file, capsys):
    assert main(["check", poly_file, "--poly", "g", "--tests", "certificate"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert len(report["results"]["polys"]) == 1
    assert main(["check", poly_file, "--poly", "missing"]) == 2


def test_cli_check_at_the_largest_extension(tmp_path, capsys):
    # F_(65521^4): the modulus search and the splitting test stay cheap
    path = tmp_path / "big.poly"
    path.write_text("p 65521\next 4\nvars x y\npoly f: x*y\n")
    assert main(["check", str(path), "--tests", "fsplit"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["field"]["modulus"] == "t^4+17"
    assert report["results"]["polys"][0]["fsplit"]["witness"] == "x^65520*y^65520"


def test_cli_factor_and_fpt(poly_file, capsys):
    assert main(["factor", poly_file]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["results"]["polys"][0]["t"] == 1
    assert main(["fpt", poly_file, "--poly", "f", "--e-max", "2"]) == 0
    report = json.loads(capsys.readouterr().out)
    samples = report["results"]["polys"][0]["samples"]
    assert [s["lambda"]["num"] for s in samples] == [2, 2]
    assert all(s["discrepancy"]["num"] == 0 for s in samples)


def test_cli_square_negative_controls(tmp_path, capsys):
    path = tmp_path / "sq.poly"
    path.write_text("p 2\nvars x\npoly f: x^2\n")
    assert main(["check", str(path), "--tests", "fsplit"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["results"]["polys"][0]["fsplit"] == "NotSplit"
    assert main(["check", str(path)]) == 2
    err = capsys.readouterr().err
    assert "square-free" in err


def test_cli_split_tripwire_dumps_to_stderr(tmp_path, capsys, monkeypatch):
    # a square-free supported input without a splitting witness, or with a
    # witness its replay on the reduced power rejects, would contradict the
    # theory: exit 1, no report, a JSON dump on stderr
    path = tmp_path / "quadric.poly"
    path.write_text("p 2\nvars x y z w\npoly f: x*y + z*w\n")
    for name, broken in (("fsplit_witness", lambda f: None),
                         ("verify_split_witness", lambda Q, w: False)):
        with monkeypatch.context() as patch:
            patch.setattr(fsing.frobenius, name, broken)
            assert main(["check", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        dump = json.loads(captured.err)["dump"]
        assert dump == {"e": 1, "q": 2, "poly": "x*y + z*w", "factors": ["x*y + z*w"]}


def _forged_survivors(f, e_list):
    # for x*y + z*w over F_3: the least survivor's degree 2(q-1), on
    # x^(q-1)*z^(q-1), whose coefficient in f^(q-1) is zero
    for e in e_list:
        yield e, (3**e - 1, 0, 3**e - 1, 0)


def test_crosscheck_rejects_a_forged_survivor(tmp_path, capsys, monkeypatch):
    # the crosscheck replays the survivor it reads each sample off, so a
    # same-degree monomial that does not survive fails the sample, the
    # check and fpt: exit 1, no report, a JSON dump on stderr
    monkeypatch.setattr(fsing.invariants, "_least_survivors", _forged_survivors)
    ctx = VarCtx(("x", "y", "z", "w"))
    rec = check_sqfree_sample(mk(F3, ctx, {(1, 1, 0, 0): 1, (0, 0, 1, 1): 1}))
    assert not rec["ok"]
    assert rec["failure"] == "threshold sample's least survivor failed its replay"
    path = tmp_path / "quadric.poly"
    path.write_text("p 3\nvars x y z w\npoly f: x*y + z*w\n")
    for argv in (["check", str(path)], ["fpt", str(path)]):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err)["dump"] == {
            "e": 1, "q": 3, "poly": "x*y + z*w", "factors": ["x*y + z*w"],
            "witness": [2, 0, 2, 0],
        }


def test_cli_crosscheck_discrepancy_is_a_counterexample(poly_file, capsys, monkeypatch):
    # check and fpt render every crosscheck row and report any nonzero one
    real = fsing.cli.fpt_crosscheck
    monkeypatch.setattr(
        fsing.cli, "fpt_crosscheck",
        lambda Q, rep, e_list: [(s, d + 1) for s, d in real(Q, rep, e_list)],
    )
    for argv, key in ((["check", poly_file, "--poly", "f"], "fpt"),
                      (["fpt", poly_file, "--poly", "f"], "samples")):
        assert main(argv) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["status"] == "counterexample"
        rows = report["results"]["polys"][0][key]
        assert [row["discrepancy"] for row in rows] == [{"num": 1, "den": 1}] * 2


def test_cli_parse_errors(tmp_path, capsys):
    bad = tmp_path / "bad.poly"
    bad.write_text("p 6\nvars x\npoly f: x\n")
    assert main(["check", str(bad)]) == 2
    assert "line 1, column 3" in capsys.readouterr().err
    assert main(["check", str(tmp_path / "missing.poly")]) == 2
    assert main([]) == 2  # no subcommand


@pytest.mark.parametrize("command", ["check", "factor", "fpt"])
def test_cli_file_without_a_polynomial_exits_2(tmp_path, capsys, command):
    # a report on no polynomial would pass on no work; modify already
    # rejects such a file through its --g and --h lookups
    path = tmp_path / "empty.poly"
    path.write_text("p 2\nvars x y z w\n")
    assert main([command, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "no polynomial" in captured.err and "empty.poly" in captured.err
    assert "Traceback" not in captured.err


def test_cli_matroid(tmp_path, capsys):
    good = tmp_path / "u24.matroid"
    lines = ["matroid", "n 4"]
    for i in range(1, 5):
        for j in range(i + 1, 5):
            lines.append(f"basis {i} {j}")
    good.write_text("\n".join(lines) + "\n")
    assert main(["matroid", str(good)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["input"]["exchange"] is True
    assert report["status"] == "pass"

    broken = tmp_path / "broken.matroid"
    broken.write_text("matroid\nn 4\nbasis 1 2\nbasis 3 4\n")
    assert main(["matroid", str(broken)]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "counterexample"
    assert main(["matroid", str(broken), "--text"]) == 1
    assert "status: counterexample" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv",
    [["check", "{poly}"], ["modify", "{poly}", "--g", "f", "--h", "h"],
     ["matroid", "{broken}"]],
    ids=["check", "modify", "matroid-exchange-fails"],
)
def test_cli_out_into_a_missing_directory_exits_2(tmp_path, capsys, argv):
    # main writes every report, the failing exchange axiom's too, inside the
    # handler that turns an unwritable --out into exit 2
    paths = {"poly": tmp_path / "in.poly", "broken": tmp_path / "broken.matroid"}
    paths["poly"].write_text("p 2\nvars x y z w\npoly f: x*y + z*w\npoly h: x*y*w + x*z*w\n")
    paths["broken"].write_text("matroid\nn 4\nbasis 1 2\nbasis 3 4\n")
    out = tmp_path / "missing" / "report.json"
    assert main([a.format(**paths) for a in argv] + ["--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "Traceback" not in captured.err
    assert not out.parent.exists()


@pytest.mark.parametrize(
    "argv, named",
    [
        (["check", "{poly}", "--e-max", "0"], "unrecognized arguments"),
        (["fpt", "{poly}", "--e-max", "0"], "--e-max"),
        (["fpt", "{poly}", "--e-max", "65"], "--e-max"),
        (["matroid", "{matroid}", "--e-max", "0"], "unrecognized arguments"),
        (["modify", "{poly}", "--g", "f", "--h", "h", "--e-max", "0"],
         "unrecognized arguments"),
        (["suite", "--count", "1", "--e-max", "0"], "unrecognized arguments"),
        (["check", "{poly}", "--seed", "3"], "--seed"),
        (["matroid", "{bad_matroid}"], "basis index"),
        (["suite", "--count", "1", "--n", "1"], "--n"),
        (["suite", "--count", "1", "--n", "17"], "2..16"),
        (["suite", "--count", "1", "--max-terms", "0"], "--max-terms"),
        (["suite", "--count", "1", "--max-factors", "0"], "--max-factors"),
        (["suite", "--count", "1", "--n", "2", "--max-factors", "3"], "--max-factors"),
        (["suite", "--count", "-1"], "--count"),
        (["check", "{off_origin}", "--s-max", "0"], "--s-max"),
        (["matroid", "{matroid}", "--s-max", "0"], "--s-max"),
        (["modify", "{poly}", "--g", "f", "--h", "h", "--s-max", "0"], "--s-max"),
        (["modify", "{poly}", "--g", "f", "--h", "h", "--max-points", "-1"],
         "--max-points"),
        (["check", "{poly}", "--poly", "f", "--point", "9,0,0,0"], "0..1"),
        (["modify", "{poly}", "--g", "f", "--h", "h", "--a", "0,0,-1,0"], "0..1"),
        (["suite", "--p-list", ",2"], "--p-list"),
        (["check", "{poly}", "--poly", "f", "--point", ""], "expected 4 coordinates"),
        (["matroid", "{matroid}", "--point", ""], "expected 3 coordinates"),
        (["modify", "{poly}", "--g", "f", "--h", "h", "--a", ""], "expected 4 coordinates"),
    ],
    ids=[
        "check", "fpt", "fpt-e-max-above-64", "matroid", "modify", "suite", "check-seed",
        "basis-index",
        "suite-n", "suite-n-range", "suite-max-terms", "suite-max-factors-0",
        "suite-max-factors-above-n", "suite-count",
        "check-s-max", "matroid-s-max", "modify-s-max", "modify-max-points",
        "check-point-range", "modify-a-range", "suite-p-list",
        "check-point-empty", "matroid-point-empty", "modify-a-empty",
    ],
)
def test_cli_usage_errors_exit_2(tmp_path, capsys, argv, named):
    files = {
        "poly": "p 2\nvars x y z w\npoly f: x*y + z*w\npoly h: x*y*w + x*z*w\n",
        "matroid": "matroid\nn 3\nbasis 1 2\nbasis 1 3\nbasis 2 3\n",
        "bad_matroid": "matroid\nn 2\nbasis 3\n",
        "off_origin": "p 2\nvars x y\npoly f: x*y + 1\n",
    }
    paths = {}
    for key, text in files.items():
        paths[key] = tmp_path / key
        paths[key].write_text(text)
    assert main([a.format(**paths) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err
    assert named in captured.err


def test_cli_modify(tmp_path, capsys):
    path = tmp_path / "mod.poly"
    path.write_text(
        "p 2\nvars x y z w\n"
        "poly g: x*y + z*w\n"
        "poly h: x*y*w + x*z*w\n"
        "poly hbad: x*y*w + x\n"
    )
    assert main(["modify", str(path), "--g", "g", "--h", "h"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "pass"
    assert report["results"]["dfpt"] == 1
    capsys.readouterr()
    assert main(["modify", str(path), "--g", "g", "--h", "hbad", "--a", "1,0,0,0"]) == 2


PINNED = os.path.join(os.path.dirname(os.path.abspath(__file__)), "pinned")
SRC = os.path.dirname(os.path.dirname(os.path.abspath(fsing.cli.__file__)))


@pytest.mark.parametrize(
    "name, argv",
    [
        ("chain4", ["check", "chain4.poly"]),
        ("chain5", ["check", "chain5.poly"]),
        ("chain7", ["check", "chain7.poly"]),
        ("chain10", ["check", "chain10.poly"]),
        ("ext2", ["check", "ext2.poly"]),
        ("ext257", ["check", "ext257.poly"]),
        ("ext257-fpt", ["fpt", "ext257.poly", "--e-max", "2"]),
        ("three", ["check", "three.poly", "--s-max", "2"]),
        ("modify", ["modify", "modify.poly", "--g", "g", "--h", "h", "--a", "1,1,0,1",
                    "--s-max", "3", "--max-points", "1"]),
        ("modify20-f2", ["modify", "modify20-f2.poly", "--g", "g", "--h", "h",
                         "--a", "1,0,0,0", "--s-max", "2"]),
        ("modify20-f3", ["modify", "modify20-f3.poly", "--g", "g", "--h", "h",
                         "--a", "1,0,0,0", "--s-max", "2"]),
    ],
    ids=["chain4", "chain5", "chain7", "chain10", "ext2", "ext257", "ext257-fpt", "three",
         "modify", "modify20-f2", "modify20-f3"],
)
def test_cli_point_search_reports_pinned(monkeypatch, capsys, name, argv):
    # tests/pinned/NAME.json holds the report of the exhaustive grid loop that
    # evaluated and shifted at every point; the zero walker, first-partials
    # orders and subfield skipping must reproduce it byte for byte.  The
    # modify20 reports, 20 checked points each, were taken while every
    # threshold sample still reduced the whole shifted power; samples read
    # off the initial form must reproduce them too.  The ext257 reports,
    # taken while F_{257^2} multiplied through its own reduction rows, pin
    # the field path past 2^16
    monkeypatch.chdir(PINNED)
    assert main(argv) == 0
    with open(f"{name}.json", encoding="utf-8") as handle:
        assert capsys.readouterr().out == handle.read()


@pytest.mark.parametrize("name", ["fsplit-xyz101", "fsplit-cubic101", "fsplit-quartic101",
                                  "fsplit-quadric1009"])
def test_cli_fsplit_reports_pinned(monkeypatch, capsys, name):
    # tests/pinned/NAME.json holds the check --tests fsplit report taken
    # while every splitting witness reduced the whole f^(p-1), or, for the
    # square-free quadric, while its replay did; the least survivor rules
    # and the per-factor replay must reproduce it byte for byte
    monkeypatch.chdir(PINNED)
    assert main(["check", f"{name}.poly", "--tests", "fsplit"]) == 0
    with open(f"{name}.json", encoding="utf-8") as handle:
        assert capsys.readouterr().out == handle.read()


def test_cli_fsplit_at_the_largest_prime(monkeypatch, capsys):
    # at p = 65521 the kernel could not even build f^(p-1) (p^e must stay
    # below 2^16 there); the closed-form witness and its per-factor replay
    # need no kernel call
    calls = kernel_spy(monkeypatch)
    monkeypatch.chdir(PINNED)
    assert main(["check", "fsplit-quadric65521.poly", "--tests", "fsplit"]) == 0
    entry = json.loads(capsys.readouterr().out)["results"]["polys"][0]
    assert entry["fsplit"] == {"e": 1, "q": 65521, "witness": "x1^65520*x2^65520"}
    assert calls == []


def test_cli_threshold_samples_at_the_largest_prime():
    # x1*x2 + x3*x4 at p = 65521: fpt up to e = 64 and check with every
    # test replay the closed-form survivors per factor, building no power,
    # so neither waits on the size of p
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, env.get("PYTHONPATH"))))
    for argv, key, e_max in (
        (["fpt", "fsplit-quadric65521.poly", "--e-max", "64"], "samples", 64),
        (["check", "fsplit-quadric65521.poly"], "fpt", 2),
    ):
        run = subprocess.run(
            [sys.executable, "-m", "fsing.cli", *argv],
            cwd=PINNED, env=env, capture_output=True, text=True, timeout=60,
        )
        assert run.returncode == 0, run.stderr
        entry = json.loads(run.stdout)["results"]["polys"][0]
        expected = {"num": 4 - entry["invariants"]["ord"], "den": 1}
        assert [row["e"] for row in entry[key]] == list(range(1, e_max + 1))
        assert all(row["lambda"] == expected for row in entry[key])


@pytest.mark.parametrize(
    "name, argv",
    [
        ("cert-quadric1009", ["check", "cert-quadric1009.poly", "--tests", "certificate"]),
        ("modify257", ["modify", "modify257.poly", "--g", "g", "--h", "h"]),
    ],
    ids=["cert-quadric1009", "modify257"],
)
def test_cli_certificate_reports_pinned(monkeypatch, capsys, name, argv):
    # tests/pinned/NAME.json holds the report taken while every stage
    # witness and its replay reduced f^(p-1) of the active product; the
    # closed-form witnesses and their per-factor replay must reproduce it
    # byte for byte, without a kernel call
    calls = kernel_spy(monkeypatch)
    monkeypatch.chdir(PINNED)
    assert main(argv) == 0
    with open(f"{name}.json", encoding="utf-8") as handle:
        assert capsys.readouterr().out == handle.read()
    assert calls == []


def test_cli_certificate_at_the_largest_prime(monkeypatch, capsys):
    # the stage witness and its replay build no power, so the certificate
    # at p = 65521 needs no kernel call either
    calls = kernel_spy(monkeypatch)
    monkeypatch.chdir(PINNED)
    assert main(["check", "fsplit-quadric65521.poly", "--tests", "certificate"]) == 0
    cert = json.loads(capsys.readouterr().out)["results"]["polys"][0]["certificate"]
    assert cert["verified"] is True
    assert [st["witness"] for st in cert["stages"]] == ["x1^65520*x2^65520*x4"]
    assert calls == []


@pytest.mark.parametrize(
    "argv, searched",
    [
        (["check", "chain10.poly"], True),
        (["matroid", "{matroid}"], False),
        (["modify", "modify20-f2.poly", "--g", "g", "--h", "h", "--a", "1,0,0,0"], True),
    ],
    ids=["check", "matroid", "modify"],
)
def test_cli_s_max_past_the_last_level(monkeypatch, capsys, tmp_path, argv, searched):
    # levels stop at the last supported degree, so a huge --s-max reports
    # what --s-max 5 does, flagged, without sizing a grid per level; a
    # basis polynomial vanishes at the origin, so matroid searches nothing
    matroid = tmp_path / "u24.matroid"
    matroid.write_text("matroid\nn 4\n" + "".join(
        f"basis {i} {j}\n" for i in range(1, 5) for j in range(i + 1, 5)
    ))
    monkeypatch.chdir(PINNED)
    outs = []
    for s_max in ("5", "100000"):
        assert main([a.format(matroid=matroid) for a in argv] + ["--s-max", s_max]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    assert ('"budget_exceeded": true' in outs[0]) == searched


def test_cli_runs_in_one_process_match_fresh_processes(monkeypatch, capsys):
    # main builds its parser once per process; a usage error, then a check
    # and a modify through the same parser, must each exit and report as a
    # fresh interpreter does
    monkeypatch.chdir(PINNED)
    runs = [
        ["modify", "modify.poly", "--g", "g", "--h", "h", "--s-max", "0"],
        ["check", "chain4.poly"],
        ["modify", "modify.poly", "--g", "g", "--h", "h", "--a", "1,1,0,1",
         "--s-max", "3", "--max-points", "1"],
    ]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, env.get("PYTHONPATH"))))
    codes = []
    for argv in runs:
        code = main(argv)
        captured = capsys.readouterr()
        fresh = subprocess.run(
            [sys.executable, "-m", "fsing.cli", *argv],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert (code, captured.out, captured.err) == (
            fresh.returncode, fresh.stdout, fresh.stderr
        )
        codes.append(code)
    assert codes == [2, 0, 0]


def test_cli_suite_and_output_file(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["suite", "--count", "3", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["status"] == "pass"
    assert report["results"]["passed"] == 3
    assert main(["suite", "--count", "2", "--text"]) == 0
    text = capsys.readouterr().out
    assert "status: pass" in text
