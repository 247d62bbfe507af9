"""Field arithmetic: modulus selection, frozen values, exhaustive axioms."""

import random
from itertools import product

import pytest

from fsing import build_field, is_prime
from fsing.field import MAX_CHAR
from fsing.errors import DegreeRangeError, FieldMismatchError, NotPrimeError


def oracle_modulus(p, s):
    """First monic irreducible of degree s, by sieving out all products.

    Independent of the trial-division route used by the package: every
    monic polynomial that factors as a product of two smaller monic
    polynomials is generated explicitly, and the answer is the smallest
    remaining candidate in the integer encoding sum(c_i p^i).
    """

    def mul(a, b):
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
        return tuple(out)

    def monics(d):
        for tail in product(range(p), repeat=d):
            yield tuple(tail) + (1,)

    reducible = set()
    for d in range(1, s):
        for a in monics(d):
            for b in monics(s - d):
                reducible.add(mul(a, b))
    for m in range(p**s):
        cand = tuple((m // p**i) % p for i in range(s)) + (1,)
        if cand not in reducible:
            return cand
    raise AssertionError("every monic candidate was reducible")


def test_modulus_matches_enumeration_oracle():
    for p, s in [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (5, 2), (7, 2)]:
        assert build_field(p, s).modulus == oracle_modulus(p, s)


def test_modulus_frozen_values():
    # values computed by oracle_modulus and frozen
    assert build_field(2, 2).modulus == (1, 1, 1)  # t^2 + t + 1
    assert build_field(3, 2).modulus == (1, 0, 1)  # t^2 + 1
    assert build_field(2, 3).modulus == (1, 1, 0, 1)  # t^3 + t + 1
    assert build_field(2).modulus is None
    # large characteristic, where trial division by every monic divisor of
    # degree <= 2 took seconds to hours; these were computed that way
    assert build_field(257, 4).modulus == (3, 0, 0, 0, 1)  # t^4 + 3
    assert build_field(1009, 4).modulus == (11, 0, 0, 0, 1)  # t^4 + 11
    assert build_field(4093, 4).modulus == (2, 0, 0, 0, 1)  # t^4 + 2
    assert build_field(65521, 3).modulus == (2, 0, 0, 1)  # t^3 + 2


def test_modulus_at_the_largest_field():
    # p = 65521 is 1 mod 4, so -4 is a fourth power and t^4 + c is
    # irreducible exactly when -c is not a square (Capelli); 17 is the
    # least c with -c a non-residue, and t^4 + c with c < 17 come first
    p = 65521
    assert build_field(p, 4).modulus == (17, 0, 0, 0, 1)
    assert [c for c in range(1, 18) if pow(-c % p, (p - 1) // 2, p) == p - 1] == [17]


def test_modulus_str():
    assert build_field(2, 2).modulus_str() == "t^2+t+1"
    assert build_field(3, 2).modulus_str() == "t^2+1"
    assert build_field(2, 3).modulus_str() == "t^3+t+1"


def test_prime_field_frozen_values():
    F5 = build_field(5)
    assert F5.inv(F5.scalar(2)) == F5.scalar(3)
    assert F5.add(F5.scalar(4), F5.scalar(3)) == F5.scalar(2)
    assert F5.mul(F5.scalar(4), F5.scalar(4)) == F5.scalar(1)
    assert F5.neg(F5.scalar(2)) == F5.scalar(3)


def test_f4_frozen_values():
    F4 = build_field(2, 2)
    t = (0, 1)
    assert F4.mul(t, t) == (1, 1)  # t^2 = t + 1
    assert F4.pow(t, F4.p) == (1, 1)
    assert F4.mul(t, (1, 1)) == F4.one  # t * (t+1) = t^2 + t = 1
    assert F4.inv(t) == (1, 1)


def test_encode_decode_roundtrip():
    for p, s in [(2, 1), (3, 1), (2, 2), (3, 2), (2, 3)]:
        fld = build_field(p, s)
        for m in range(fld.order):
            assert fld.encode(fld.decode(m)) == m
        assert len(list(fld.elements())) == fld.order


@pytest.mark.parametrize("p,s", [(2, 1), (3, 1), (5, 1), (7, 1), (2, 2), (3, 2)])
def test_field_axioms_exhaustive(p, s):
    fld = build_field(p, s)
    elems = list(fld.elements())
    for a in elems:
        assert fld.add(a, fld.zero) == a
        assert fld.mul(a, fld.one) == a
        assert fld.add(a, fld.neg(a)) == fld.zero
        if a != fld.zero:
            assert fld.mul(a, fld.inv(a)) == fld.one
    for a in elems:
        for b in elems:
            assert fld.add(a, b) == fld.add(b, a)
            assert fld.mul(a, b) == fld.mul(b, a)
            # the p-power map is additive
            assert fld.pow(fld.add(a, b), p) == fld.add(fld.pow(a, p), fld.pow(b, p))
    for a in elems:
        for b in elems:
            for c in elems:
                assert fld.mul(a, fld.add(b, c)) == fld.add(
                    fld.mul(a, b), fld.mul(a, c)
                )
                assert fld.mul(fld.mul(a, b), c) == fld.mul(a, fld.mul(b, c))


def test_pow_matches_repeated_multiplication():
    fld = build_field(3, 2)
    for a in fld.elements():
        acc = fld.one
        for k in range(9):
            assert fld.pow(a, k) == acc
            acc = fld.mul(acc, a)


def test_frobenius_order_divides_s():
    fld = build_field(2, 3)
    for a in fld.elements():
        b = a
        for _ in range(fld.s):
            b = fld.pow(b, fld.p)
        assert b == a


def test_scalar_reduction_and_from_coords():
    F7 = build_field(7)
    assert F7.scalar(9) == F7.scalar(2)
    assert F7.scalar(-1) == F7.scalar(6)
    F4 = build_field(2, 2)
    assert F4.from_coords([1, 1]) == (1, 1)
    with pytest.raises(FieldMismatchError):
        F4.from_coords([1])
    with pytest.raises(FieldMismatchError):
        F4.from_coords([2, 0])


def test_is_prime_small_values():
    primes = [n for n in range(60) if is_prime(n)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]


def test_bad_field_parameters():
    with pytest.raises(NotPrimeError):
        build_field(6)
    with pytest.raises(NotPrimeError):
        build_field(1)
    with pytest.raises(NotPrimeError):
        build_field(65537)  # prime but at the 2^16 boundary
    with pytest.raises(DegreeRangeError):
        build_field(2, 0)
    with pytest.raises(DegreeRangeError):
        build_field(2, 5)


def test_arity_mismatch_rejected():
    F4 = build_field(2, 2)
    F2 = build_field(2)
    with pytest.raises(FieldMismatchError):
        F4.add(F4.one, F2.one)
    with pytest.raises(ZeroDivisionError):
        F2.inv(F2.zero)


def convolution_pow(fld, a, k):
    """a^k, k >= 0, by repeated squaring over the retained convolution."""
    result = fld.one
    while k:
        if k & 1:
            result = fld._convolve(result, a)
        a = fld._convolve(a, a)
        k >>= 1
    return result


def assert_table_ops_match_convolution(fld, a, b, k):
    assert fld.mul(a, b) == fld._convolve(a, b)
    if a == fld.zero:
        return
    assert fld._convolve(a, fld.inv(a)) == fld.one
    assert fld.pow(a, k) == convolution_pow(fld, a, k)
    assert fld._convolve(fld.pow(a, -k), convolution_pow(fld, a, k)) == fld.one


@pytest.mark.parametrize(
    "p,s", [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (3, 4), (5, 2), (7, 2)]
)
def test_tables_match_convolution_exhaustive(p, s):
    fld = build_field(p, s)
    q = fld.order
    elems = list(fld.elements())
    for a in elems:
        for k, b in enumerate(elems):
            assert_table_ops_match_convolution(fld, a, b, k)
    # the generator is the first element in decode order of order q - 1
    def period(a):
        power, k = a, 1
        while power != fld.one:
            power, k = fld._convolve(power, a), k + 1
        return k

    assert fld._exp[1] == next(a for a in elems[1:] if period(a) == q - 1)
    assert len(fld._exp) == 2 * (q - 1) and len(fld._log) == q


@pytest.mark.parametrize("p,s", [(5, 3), (5, 4), (7, 4), (251, 2)])
def test_tables_match_convolution_random(p, s):
    fld = build_field(p, s)
    rng = random.Random(p * 10 + s)
    for _ in range(2000):
        a, b = (fld.decode(rng.randrange(fld.order)) for _ in range(2))
        assert_table_ops_match_convolution(fld, a, b, rng.randrange(3 * fld.order))


def assert_additive_ops_match_coordinates(fld, a, b):
    p = fld.p
    assert fld.add(a, b) == tuple((x + y) % p for x, y in zip(a, b))
    assert fld.sub(a, b) == tuple((x - y) % p for x, y in zip(a, b))
    assert fld.neg(a) == tuple(-x % p for x in a)
    assert fld.add(a, fld.neg(a)) == fld.zero
    assert fld.sub(a, a) == fld.zero


@pytest.mark.parametrize("p,s", [(2, 2), (2, 3), (3, 2), (2, 4), (3, 3), (3, 4)])
def test_zech_addition_matches_coordinates_exhaustive(p, s):
    fld = build_field(p, s)
    assert fld._zech is not None
    elems = list(fld.elements())
    for a in elems:
        for b in elems:
            assert_additive_ops_match_coordinates(fld, a, b)


@pytest.mark.parametrize("p,s", [(5, 4), (251, 2)])
def test_zech_addition_matches_coordinates_random(p, s):
    fld = build_field(p, s)
    rng = random.Random(p * 10 + s)
    for _ in range(3000):
        a, b = (fld.decode(rng.randrange(fld.order)) for _ in range(2))
        assert_additive_ops_match_coordinates(fld, a, b)
        assert_additive_ops_match_coordinates(fld, a, fld.zero)
        assert_additive_ops_match_coordinates(fld, fld.zero, b)


@pytest.mark.parametrize("p,s", [(2, 2), (3, 2), (2, 4), (5, 2), (7, 3), (251, 2)])
def test_zech_table_is_the_log_of_one_plus_a_power(p, s):
    fld = build_field(p, s)
    q = fld.order
    assert len(fld._zech) == q - 1
    assert fld._log_neg_one == (0 if p == 2 else (q - 1) // 2)
    assert fld._exp[fld._log_neg_one] == fld.scalar(-1)
    for k, z in enumerate(fld._zech):
        one_plus = ((fld._exp[k][0] + 1) % p,) + fld._exp[k][1:]
        if one_plus == fld.zero:
            assert z is None and k == fld._log_neg_one
        else:
            assert z == fld._log[one_plus]


@pytest.mark.parametrize("p,s", [(2, 1), (5, 1), (65521, 1), (257, 2)])
def test_prime_fields_and_large_extensions_keep_their_paths(p, s):
    # no tables: prime fields use residue arithmetic, F_{257^2} lies past
    # 2^16 and adds coordinatewise; both check the arity only
    fld = build_field(p, s)
    assert fld._log is fld._exp is fld._zech is fld._log_neg_one is None
    rng = random.Random(p + s)
    for _ in range(200):
        a, b = (fld.decode(rng.randrange(fld.order)) for _ in range(2))
        assert_additive_ops_match_coordinates(fld, a, b)
        k = rng.randrange(-3 * fld.order, 3 * fld.order)
        if s == 1:
            assert fld.mul(a, b) == ((a[0] * b[0]) % p,)
            if a != fld.zero or k >= 0:
                assert fld.pow(a, k) == (pow(a[0], k, p),)
        else:
            assert fld.mul(a, b) == fld._convolve(a, b)
            if a != fld.zero:
                assert fld.pow(a, abs(k)) == convolution_pow(fld, a, abs(k))
                assert fld._convolve(fld.pow(a, -abs(k)), fld.pow(a, abs(k))) == fld.one
    wrong = fld.zero + (0,)
    for call in (
        lambda: fld.add(wrong, fld.one),
        lambda: fld.sub(fld.one, wrong),
        lambda: fld.neg(wrong),
        lambda: fld.mul(fld.one, wrong),
        lambda: fld.pow(wrong, 2),
        lambda: fld.inv(wrong),
    ):
        with pytest.raises(FieldMismatchError):
            call()


@pytest.mark.parametrize("p,s", [(3, 1), (3, 2), (257, 2)])
def test_pow_and_inv_of_zero(p, s):
    # F_{257^2} lies past 2^16 and keeps the convolution path
    fld = build_field(p, s)
    assert (fld._log is None) == (s == 1 or fld.order > MAX_CHAR)
    assert fld.pow(fld.zero, 0) == fld.one
    assert fld.pow(fld.zero, 5) == fld.zero
    with pytest.raises(ZeroDivisionError):
        fld.pow(fld.zero, -1)
    with pytest.raises(ZeroDivisionError):
        fld.inv(fld.zero)


@pytest.mark.parametrize("bad", [(1,), (1, 0, 0), (3, 0), (0, -1)])
def test_table_ops_reject_foreign_tuples(bad):
    F9 = build_field(3, 2)
    for call in (
        lambda: F9.add(bad, F9.one),
        lambda: F9.add(F9.one, bad),
        lambda: F9.add(bad, F9.zero),
        lambda: F9.sub(bad, F9.one),
        lambda: F9.sub(F9.zero, bad),
        lambda: F9.neg(bad),
        lambda: F9.mul(bad, F9.one),
        lambda: F9.mul(F9.one, bad),
        lambda: F9.pow(bad, 2),
        lambda: F9.pow(bad, 0),
        lambda: F9.inv(bad),
    ):
        with pytest.raises(FieldMismatchError):
            call()


def test_field_identity_and_hash():
    assert build_field(3, 2) is build_field(3, 2)
    assert build_field(3) == build_field(3)
    assert build_field(3) != build_field(5)
    assert hash(build_field(2, 2)) == hash(build_field(2, 2))
