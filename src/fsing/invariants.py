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

from .errors import PointNotOnVarietyError, ZeroInputError
from .field import level_field
from .frobenius import _threshold_samples
from .poly import Poly
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


def multiplicity_hypersurface(f: Poly, point) -> int:
    """Order of f at a point of its zero set."""
    if f.is_zero():
        raise ZeroInputError("multiplicity of the zero polynomial")
    if f.evaluate(point) != f.field.zero:
        raise PointNotOnVarietyError(f"point is not on the hypersurface {f}")
    ordv, _ = f.shift(point).order_and_initial()
    return ordv


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


def global_invariants(Q: CIdeal, s_max: int = 3, budget: int = SEARCH_BUDGET):
    """Maximize the multiplicity over rational points of bounded height.

    Searches the origin plus every point of V(Q), in grid order, with
    coordinates in the degree-s extension of the coefficient field for
    s <= s_max (:func:`fsing.field.level_field`), skipping any level whose
    full grid exceeds the budget or whose degree leaves the supported
    range.  The report is exact when every factor is homogeneous (the
    maximum then sits at the origin); otherwise it is a lower bound over
    the searched set.
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
        order = big.order
        for index in range(order**n):
            point = tuple(big.decode((index // order**i) % order) for i in range(n))
            if any(g.evaluate(point) != big.zero for g in factors):
                continue
            mult = sum(g.shift(point).order_and_initial()[0] for g in factors)
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
