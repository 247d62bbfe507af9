"""Shared brute-force oracles and inputs used by several test modules.

These are deliberately written against the most direct definitions, so
they stay independent of the package's optimized implementations: the
kernel oracle expands the full (p^e - 1)-th power by repeated
multiplication before filtering, and the factorization oracle tries
every variable bipartition and checks the rank-one coefficient
condition on the support table.
"""

import sys
from itertools import combinations, product

import fsing.poly
from fsing import Poly, VarCtx


def mk(field, ctx, terms):
    return Poly.make(field, ctx, terms)


def random_modified(fld, n, rng):
    """g*(1 + sum a_i x_i) + h with random square-free supported forms g
    of degree 1 or 2 and h of one degree more, as modify builds them."""
    ctx = VarCtx(tuple(f"x{i}" for i in range(n)))

    def form(d):
        monomials = [m for m in product((0, 1), repeat=n) if sum(m) == d]
        chosen = rng.sample(monomials, rng.randint(1, len(monomials)))
        return Poly(fld, ctx, {m: fld.decode(rng.randrange(1, fld.order)) for m in chosen})

    ell = Poly.constant(fld, ctx, 1)
    for i in range(n):
        ell = ell + Poly.variable(fld, ctx, i).scale(fld.decode(rng.randrange(fld.order)))
    d = rng.randint(1, 2)
    return form(d) * ell + form(d + 1)


def kernel_spy(monkeypatch):
    """Record every call of fsing.poly.frobenius_power_mod_bracket, through
    whichever fsing module's binding it comes; returns the (f, e) list."""
    kernel = fsing.poly.frobenius_power_mod_bracket
    calls = []

    def recording(f, e):
        calls.append((f, e))
        return kernel(f, e)

    for name, module in list(sys.modules.items()):
        binding = getattr(module, "frobenius_power_mod_bracket", None)
        if name.split(".")[0] == "fsing" and binding is kernel:
            monkeypatch.setattr(module, "frobenius_power_mod_bracket", recording)
    return calls


def naive_kernel(f, e, inverted=frozenset()):
    """f^(p^e - 1) with monomials dropped once any un-inverted exponent
    reaches p^e, computed by full expansion first."""
    q = f.field.p**e
    g = Poly.constant(f.field, f.vars, 1)
    for _ in range(q - 1):
        g = g * f
    kept = {
        exps: c
        for exps, c in g.terms.items()
        if all(v < q for i, v in enumerate(exps) if i not in inverted)
    }
    return Poly(f.field, f.vars, kept)


def _rank_one_split(f):
    """One split f = g * h over disjoint variable blocks, or None."""
    fld = f.field
    vs = sorted(f.vars_used())
    if len(vs) < 2:
        return None
    pivot, rest = vs[0], vs[1:]
    for size in range(0, len(rest)):
        for extra in combinations(rest, size):
            left = {pivot, *extra}
            right = set(vs) - left
            table = {}
            for exps, c in f.terms.items():
                u = tuple(v if i in left else 0 for i, v in enumerate(exps))
                w = tuple(v if i in right else 0 for i, v in enumerate(exps))
                table[(u, w)] = c
            us = sorted({u for u, _ in table})
            ws = sorted({w for _, w in table})
            if len(table) != len(us) * len(ws):
                continue
            if any((u, w) not in table for u in us for w in ws):
                continue
            u0, w0 = us[0], ws[0]
            if not all(
                fld.mul(table[(u, w)], table[(u0, w0)])
                == fld.mul(table[(u, w0)], table[(u0, w)])
                for u in us
                for w in ws
            ):
                continue
            g = Poly(fld, f.vars, {u: table[(u, w0)] for u in us})
            scale = fld.inv(table[(u0, w0)])
            h = Poly(
                fld, f.vars, {w: fld.mul(table[(u0, w)], scale) for w in ws}
            )
            assert g * h == f
            return g, h
    return None


def oracle_factorization(f):
    """(constant, monic factors sorted by least variable) by brute force."""
    fld = f.field
    stack = [f]
    factors = []
    while stack:
        cur = stack.pop()
        split = _rank_one_split(cur)
        if split is None:
            factors.append(cur)
        else:
            stack.extend(split)
    constant = fld.one
    monics = []
    for g in factors:
        constant = fld.mul(constant, g.terms[g.leading_monomial()])
        monics.append(g.monic())
    monics.sort(key=lambda g: min(g.vars_used()))
    return constant, monics
