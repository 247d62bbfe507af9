"""Seeded input generation for the fsing benchmark.

Everything here is plain Python on integers and frozensets and imports
nothing from fsing, so a change to the program cannot silently change a
workload's inputs.  A polynomial is a dict mapping a frozenset of
variable indices (a square-free monomial) to a nonzero residue mod p.

Each workload is a fixed, repeating schedule of input families ("slots");
the seed only draws the input that fills each slot.  So every run, under
every seed, processes the same mix of families in the same order, and the
run-to-run spread of the timings reflects the program rather than the
luck of the draw.  Families are interleaved evenly across the cycle, and a
run ends on a cycle boundary.
"""

from __future__ import annotations

import itertools
import random

WORKLOADS = ("suite", "modify")

# ---------------------------------------------------------------------------
# square-free polynomial helpers
# ---------------------------------------------------------------------------


def _rank_one(terms, left, p):
    """Whether ``terms`` factors as a(left vars) * b(other vars) over F_p."""
    table = {(mono & left, mono - left): c for mono, c in terms.items()}
    rows = {u for u, _ in table}
    cols = {w for _, w in table}
    if len(table) != len(rows) * len(cols):
        return False
    (u0, w0), c0 = next(iter(table.items()))
    return all(
        table[(u, w)] * c0 % p == table[(u, w0)] * table[(u0, w)] % p
        for u in rows
        for w in cols
    )


def irreducible(terms, p):
    """Irreducibility of a square-free supported polynomial over F_p.

    Such a polynomial can only factor into pieces on disjoint variable
    sets, and it factors along a variable bipartition exactly when its
    coefficient table over that bipartition has rank one.
    """
    if any(not mono for mono in terms):
        raise ValueError("irreducible() expects a polynomial without constant term")
    vs = sorted(set().union(*terms))
    pivot, rest = vs[0], vs[1:]
    for size in range(len(rest)):
        for extra in itertools.combinations(rest, size):
            if _rank_one(terms, frozenset((pivot, *extra)), p):
                return False
    return True


def e1_support(terms, p):
    """Number of distinct exponent vectors among products of p-1 terms.

    This bounds the support of f^(p-1), whose square the Frobenius kernel
    at e = 2 walks through, so it predicts the cost of a suite input.
    """
    monos = list(terms)
    sums = set()
    for pick in itertools.combinations_with_replacement(range(len(monos)), p - 1):
        counts = {}
        for i in pick:
            for v in monos[i]:
                counts[v] = counts.get(v, 0) + 1
        sums.add(frozenset(counts.items()))
    return len(sums)


def poly_text(terms):
    """Render a polynomial in the .poly expression syntax over x1..xn."""
    return " + ".join(
        f"{c}*" + "*".join(f"x{i + 1}" for i in sorted(mono))
        for mono, c in sorted(terms.items(), key=lambda mc: (len(mc[0]), sorted(mc[0])))
    )


def poly_file(p, n, polys):
    lines = [f"p {p}", "vars " + " ".join(f"x{i + 1}" for i in range(n))]
    lines += [f"poly {name}: {expr}" for name, expr in polys]
    return "\n".join(lines) + "\n"


def _nonzero(rng, p):
    return rng.randrange(1, p)


def spread(counts):
    """Interleave ``counts`` (key -> multiplicity) evenly into one cycle."""
    placed = []
    for order, (key, c) in enumerate(counts):
        placed.extend(((j + 0.5) / c, order, key) for j in range(c))
    return [key for _, _, key in sorted(placed)]


# ---------------------------------------------------------------------------
# suite: random products of 1-3 variable-disjoint square-free factors
# ---------------------------------------------------------------------------

SUITE_N, SUITE_TERMS, SUITE_FACTORS = 8, 8, 3

# Cost of a p = 5 input grows steeply with e1_support (from about 1 ms at
# 1 to about 0.5 s at 330), so p = 5 slots are stratified on it.  Each
# stratum is (low, high, slots per cycle), the slot counts following the
# generator's own frequencies over 6000 draws.  p = 2 and p = 3 inputs cost
# a few ms at most and are drawn unstratified.
SUITE_P5_STRATA = (
    (1, 1, 10),
    (2, 10, 5),
    (11, 20, 13),
    (21, 50, 5),
    (51, 100, 12),
    (101, 150, 7),
    (151, 200, 3),
    (201, 280, 3),
    (281, 10**9, 2),
)
SUITE_PER_PRIME = sum(c for _, _, c in SUITE_P5_STRATA)


def _suite_factor(block, m, p, rng):
    subsets = [
        frozenset(c)
        for size in range(1, len(block) + 1)
        for c in itertools.combinations(block, size)
    ]
    m = min(m, len(subsets))
    if m == 1:
        return {frozenset([rng.choice(block)]): _nonzero(rng, p)}
    while True:
        terms = {mono: _nonzero(rng, p) for mono in rng.sample(subsets, m)}
        if irreducible(terms, p):
            return terms


def suite_draw(rng, p):
    """One random product; returns (n, planted factor count, terms)."""
    t = rng.randint(1, SUITE_FACTORS)
    n = rng.randint(max(t, 2), SUITE_N)
    order = list(range(n))
    rng.shuffle(order)
    cuts = sorted(rng.sample(range(1, n), t - 1))
    blocks = [sorted(order[a:b]) for a, b in zip([0, *cuts], [*cuts, n])]
    product = {frozenset(): 1}
    used = 1
    for block in blocks:
        m = rng.randint(1, max(1, SUITE_TERMS // used))
        factor = _suite_factor(block, m, p, rng)
        used *= len(factor)
        product = {
            a | b: ca * cb % p for a, ca in product.items() for b, cb in factor.items()
        }
    return n, t, product


def suite_cycle():
    strata = spread([((lo, hi), c) for lo, hi, c in SUITE_P5_STRATA])
    slots = []
    for k in range(SUITE_PER_PRIME):
        slots += [(2, None), (3, None), (5, strata[k])]
    return slots


def suite_inputs(seed):
    """Suite inputs, one cycle's list at a time, without end: dicts with p,
    n, planted t and the polynomial's terms.

    Every p = 5 draw is kept in the bin of its stratum until a slot of that
    stratum takes it, so filling the strata wastes no draws.
    """
    rng = random.Random(f"suite/{seed}")
    bins = {(lo, hi): [] for lo, hi, _ in SUITE_P5_STRATA}
    while True:
        out = []
        for p, stratum in suite_cycle():
            if stratum is None:
                n, t, terms = suite_draw(rng, p)
            else:
                while not bins[stratum]:
                    drawn = suite_draw(rng, p)
                    size = e1_support(drawn[2], p)
                    bins[next(k for k in bins if k[0] <= size <= k[1])].append(drawn)
                n, t, terms = bins[stratum].pop(0)
            out.append({"p": p, "n": n, "t": t, "terms": terms})
        yield out


# ---------------------------------------------------------------------------
# modify: (g, h, a) triples for g*(1 + sum a_i x_i) + h
# ---------------------------------------------------------------------------

# (p, n, slots per cycle).  F_3 with n = 4 costs about 3 s an input and
# F_2 with n = 5 about 0.5 s, against about 0.1 s for F_2 with n = 4, so
# they get few slots; otherwise a run could not reach 100 inputs.  The seven
# n = 5 slots put p90 inside that family, and the family is held
# to f = g*(1 + sum a_i x_i) + h with 15 to 23 terms, because its cost
# grows with the term count (about 0.3 s at 10 terms, 1 s at 30).
MODIFY_MIX = ((2, 4, 42), (2, 5, 7), (3, 4, 1))
F2_N5_TERMS = (15, 23)


def _homogeneous(rng, p, n, degree):
    monos = [frozenset(c) for c in itertools.combinations(range(n), degree)]
    chosen = rng.sample(monos, rng.randint(1, len(monos)))
    return {mono: _nonzero(rng, p) for mono in chosen}


def _divides(g, h, p, n):
    """Whether g * l == h for some linear form l (deg h = deg g + 1).

    h is square-free, so l may only use variables that g does not: any
    other x_i in l puts x_i^2 into the product with a nonzero coefficient.
    """
    free = [i for i in range(n) if not any(i in mono for mono in g)]
    for coeffs in itertools.product(range(p), repeat=len(free)):
        prod = {}
        for mono, c in g.items():
            for i, a in zip(free, coeffs):
                if a:
                    key = mono | {i}
                    prod[key] = (prod.get(key, 0) + c * a) % p
        if {m: c for m, c in prod.items() if c} == h:
            return True
    return False


def _modified_terms(g, h, a, p):
    """Number of terms of f = g*(1 + sum a_i x_i) + h."""
    f = {}
    for mono, c in g.items():
        key = tuple(sorted(mono))
        f[key] = (f.get(key, 0) + c) % p
        for i, ai in enumerate(a):
            if ai:
                key = tuple(sorted((*mono, i)))
                f[key] = (f.get(key, 0) + c * ai) % p
    for mono, c in h.items():
        key = tuple(sorted(mono))
        f[key] = (f.get(key, 0) + c) % p
    return sum(1 for c in f.values() if c)


def modify_draw(rng, p, n):
    while True:
        while True:
            g = _homogeneous(rng, p, n, 2)
            if len(g) > 1 and irreducible(g, p):
                break
        while True:
            h = _homogeneous(rng, p, n, 3)
            if not _divides(g, h, p, n):
                break
        a = [rng.randrange(p) for _ in range(n)]
        if (p, n) != (2, 5) or F2_N5_TERMS[0] <= _modified_terms(g, h, a, p) <= F2_N5_TERMS[1]:
            return g, h, a


def modify_cycle():
    return spread([((p, n), c) for p, n, c in MODIFY_MIX])


def modify_inputs(seed):
    """Modify inputs, one cycle's list at a time, without end: dicts with
    the CLI arguments and the .poly file text."""
    rng = random.Random(f"modify/{seed}")
    while True:
        out = []
        for p, n in modify_cycle():
            g, h, a = modify_draw(rng, p, n)
            out.append({
                "family": f"F{p} n={n}",
                "argv": ["modify", "--g", "g", "--h", "h", "--a", ",".join(map(str, a)),
                         "--s-max", "2"],
                "text": poly_file(p, n, [("g", poly_text(g)), ("h", poly_text(h))]),
            })
        yield out
