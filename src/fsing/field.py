"""Arithmetic contexts for prime fields and their small extensions.

A field F_{p^s} (p prime below 2^16, 1 <= s <= 4) is represented by a
:class:`Field` object.  Elements are plain tuples of ``s`` residues, the
coordinates with respect to the power basis 1, t, ..., t^(s-1) of the
quotient F_p[t]/(modulus).  The context object owns all arithmetic, so
element tuples stay cheap to hash and compare and can serve directly as
coefficient values in sparse polynomial tables.

The modulus is not user supplied: construction picks the first monic
irreducible polynomial of degree s when monic candidates are enumerated
by their coefficient sequence, higher-degree coefficients most
significant.  A monic f of degree s is irreducible exactly when it has
no monic factor of degree at most s/2.  For s <= 4 every such degree
divides k = floor(s/2), and x^(p^k) - x is the product of the monic
irreducibles of degree dividing k, so f is irreducible exactly when
gcd(f, x^(p^k) - x) = 1.  That costs O(k log p) products modulo f,
where trial division by every monic divisor of degree <= s/2 costs
about p^2 divisions at s = 4.

Elements stay tuples throughout.  Arithmetic takes one of three paths,
fixed by the field at construction:

- Extensions with s > 1 and p^s <= 2^16 fill log/antilog tables over the
  powers of a fixed generator g at construction, by multiplying out
  polynomials modulo the modulus.  mul, pow and inv add, scale or negate
  logarithms.  add uses the Zech logarithm Z(k) = log(1 + g^k): for
  nonzero a and b, a + b = a * (1 + b/a), so log(a + b) = log a +
  Z(log b - log a), with no Z where 1 + g^k = 0, that is b = -a.  neg
  adds log(-1), which is (q-1)/2 for odd p and 0 for p = 2, and sub adds
  -b.  Each operation looks its operands up in the logarithm table, so
  a tuple that is not a reduced element of the field (a foreign arity,
  an unreduced or negative residue) raises FieldMismatchError.
- Prime fields use direct modular arithmetic on the single residue.  They
  build no tables, which at p = 65521 would take about 0.3 s and 10 MB
  for what one modular operation already does, and they check the arity
  only.
- Extensions past 2^16, such as F_{257^2}, keep coordinate-wise addition
  and polynomial multiplication per call.  They check the arity only.
"""

from __future__ import annotations

import functools
from itertools import product

from .errors import DegreeRangeError, FieldMismatchError, NotPrimeError

MAX_CHAR = 1 << 16
MAX_DEGREE = 4
_FOREIGN = "scalar does not belong to this field"


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _prime_divisors(n: int):
    d = 2
    while d * d <= n:
        if n % d == 0:
            yield d
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        yield n


# ----------------------------------------------------------------------
# dense univariate helpers over F_p, ascending coefficient lists
# ----------------------------------------------------------------------

def _utrim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _uremainder(a, b, p):
    """Remainder of a modulo b; b must be monic."""
    r = list(a)
    _utrim(r)
    db = len(b) - 1
    while len(r) - 1 >= db and r:
        shift = len(r) - 1 - db
        c = r[-1]
        for i in range(db + 1):
            r[shift + i] = (r[shift + i] - c * b[i]) % p
        _utrim(r)
    return r


def _umulmod(a, b, f, p):
    """a * b modulo the monic f."""
    prod = [0] * (len(a) + len(b))
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    return _uremainder([c % p for c in prod], f, p)


def _is_irreducible(coeffs, p):
    """Whether a monic polynomial f of degree 2 <= s <= 4 is irreducible
    over F_p: gcd(f, x^(p^k) - x) = 1 with k = floor(s/2) (the module
    docstring)."""
    power = [0, 1]  # x, already reduced modulo f
    for _ in range((len(coeffs) - 1) // 2):  # power <- power^p, square-and-multiply
        base, result, k = power, [1], p
        while k:
            if k & 1:
                result = _umulmod(result, base, coeffs, p)
            base = _umulmod(base, base, coeffs, p)
            k >>= 1
        power = result
    power += [0] * (2 - len(power))
    power[1] = (power[1] - 1) % p
    a, b = list(coeffs), _utrim(power)
    while b:  # Euclid, making each divisor monic for _uremainder
        inv = pow(b[-1], p - 2, p)
        a, b = b, _uremainder(a, [c * inv % p for c in b], p)
    return len(a) == 1


def _smallest_irreducible(p, s):
    # candidates enumerated with the degree-(s-1) coefficient most significant
    for m in range(p**s):
        coeffs = [(m // p**i) % p for i in range(s)] + [1]
        if _is_irreducible(coeffs, p):
            return tuple(coeffs)
    raise AssertionError("no irreducible polynomial found, impossible")


def _t_str(coeffs) -> str:
    """Ascending coefficients as a sum of c*t^k, highest power first;
    "" when every coefficient is zero."""
    parts = []
    for k in range(len(coeffs) - 1, -1, -1):
        c = coeffs[k]
        if not c:
            continue
        if k == 0:
            parts.append(str(c))
        else:
            head = "" if c == 1 else f"{c}*"
            parts.append(f"{head}t" if k == 1 else f"{head}t^{k}")
    return "+".join(parts)


@functools.lru_cache(maxsize=None)
def build_field(p: int, s: int = 1) -> "Field":
    """Construct (and cache) the field F_{p^s}."""
    return Field(p, s)


def level_field(base: "Field", s: int) -> "Field":
    """Field of level s in a point search over base = F_{p^k}: its degree-s
    extension F_{p^(k*s)}; DegreeRangeError past the supported degree
    MAX_DEGREE = 4."""
    return build_field(base.p, base.s * s)


@functools.lru_cache(maxsize=None)
def embedding_basis(small: "Field", big: "Field"):
    """Images in big of the power basis 1, t, ..., t^(k-1) of small = F_{p^k}.

    t goes to the first root of small's modulus in big's encoding order,
    so a -> sum a_i * image_i is a field embedding.  big must have the same
    characteristic and a degree divisible by k.
    """
    if small.s == 1:
        return (big.one,)

    def modulus_at(a):  # Horner, leading coefficient first
        value = big.zero
        for c in reversed(small.modulus):
            value = big.add(big.mul(value, a), big.scalar(c))
        return value

    root = next(a for a in big.elements() if modulus_at(a) == big.zero)
    return tuple(big.pow(root, i) for i in range(small.s))


class Field:
    """Arithmetic context for F_{p^s}; see the module docstring."""

    __slots__ = (
        "p", "s", "order", "modulus", "zero", "one",
        "_reduction", "_exp", "_log", "_zech", "_log_neg_one",
    )

    def __init__(self, p: int, s: int = 1):
        if not isinstance(p, int) or not is_prime(p) or p >= MAX_CHAR:
            raise NotPrimeError(f"characteristic must be a prime below 2^16, got {p!r}")
        if not isinstance(s, int) or not 1 <= s <= MAX_DEGREE:
            raise DegreeRangeError(
                f"extension degree must lie in 1..{MAX_DEGREE}, got {s!r}"
            )
        self.p = p
        self.s = s
        self.order = p**s
        self.modulus = None if s == 1 else _smallest_irreducible(p, s)
        self.zero = (0,) * s
        self.one = (1,) + (0,) * (s - 1)
        self._reduction = self._build_reduction() if s > 1 else None
        self._exp = self._log = self._zech = self._log_neg_one = None
        if s > 1 and self.order <= MAX_CHAR:
            self._build_tables()

    def _build_reduction(self):
        # coordinates of t^k for k in s..2s-2
        p, s = self.p, self.s
        rows = []
        cur = [(-c) % p for c in self.modulus[:s]]  # t^s
        rows.append(tuple(cur))
        for _ in range(s - 2):
            top = cur[-1]
            cur = [0] + cur[:-1]
            for i in range(s):
                cur[i] = (cur[i] + top * rows[0][i]) % p
            rows.append(tuple(cur))
        return rows

    def _build_tables(self):
        # g is the first element in decode order with g^((q-1)/r) != 1 for
        # every prime r | q - 1, a generator of the multiplicative group
        # (pow still runs by repeated squaring here).  _exp lists g^0 ..
        # g^(q-2) twice, so mul indexes it by a sum of two logarithms
        # without a modulo; zero's logarithm is -q, which keeps every sum
        # with it negative.  _zech[k] is the Zech logarithm log(1 + g^k),
        # None where 1 + g^k = 0, and _log_neg_one is log(-1): (q-1)/2 for
        # odd p, 0 for p = 2.
        p, q = self.p, self.order
        cofactors = [(q - 1) // r for r in _prime_divisors(q - 1)]
        g = next(
            a for a in map(self.decode, range(1, q))
            if all(self.pow(a, c) != self.one for c in cofactors)
        )
        powers = [self.one]
        for _ in range(q - 2):
            powers.append(self._convolve(powers[-1], g))
        self._exp = powers + powers
        log = self._log = {a: k for k, a in enumerate(powers)}
        log[self.zero] = -q
        neg_one = self._log_neg_one = log[self.scalar(-1)]
        self._zech = [log[((a[0] + 1) % p,) + a[1:]] for a in powers]
        self._zech[neg_one] = None  # 1 + g^k = 0 exactly at g^k = -1

    # -- element construction ------------------------------------------

    def scalar(self, value: int):
        """Embed an integer into the prime subfield."""
        return (value % self.p,) + (0,) * (self.s - 1)

    def from_coords(self, coords):
        coords = tuple(int(c) for c in coords)
        if len(coords) != self.s:
            raise FieldMismatchError(f"expected {self.s} coordinates, got {len(coords)}")
        if any(not 0 <= c < self.p for c in coords):
            raise FieldMismatchError("coordinates must be reduced residues")
        return coords

    def decode(self, index: int):
        """Element with the given base-p digit encoding, 0 <= index < p^s."""
        p = self.p
        return tuple((index // p**i) % p for i in range(self.s))

    def encode(self, a) -> int:
        return sum(c * self.p**i for i, c in enumerate(a))

    def elements(self):
        """Every element, in encoding order: decode(0), decode(1), ..."""
        # product varies its last slot fastest; coordinate 0 is the lowest digit
        return (c[::-1] for c in product(range(self.p), repeat=self.s))

    # -- arithmetic ----------------------------------------------------
    #
    # Each of add, sub, neg, mul, pow and inv runs its whole computation
    # inline and calls none of the others, so one call does one operation.
    # Table fields validate through the _log lookup; prime fields and
    # extensions past 2^16 check the arity only.

    def add(self, a, b):
        log = self._log
        if log is not None:
            try:
                i = log[a]
                j = log[b]
            except KeyError:
                raise FieldMismatchError(_FOREIGN) from None
            if i < 0:
                return self._exp[j] if j >= 0 else self.zero
            if j < 0:
                return self._exp[i]
            # a + b = a * (1 + b/a); j - i lies in -(q-2)..q-2, and a
            # negative index wraps modulo len(_zech) = q - 1
            z = self._zech[j - i]
            return self.zero if z is None else self._exp[i + z]
        if self.s == 1:
            try:
                (x,), (y,) = a, b
            except ValueError:
                raise FieldMismatchError(_FOREIGN) from None
            return ((x + y) % self.p,)
        if len(a) != self.s or len(b) != self.s:
            raise FieldMismatchError(_FOREIGN)
        p = self.p
        return tuple((x + y) % p for x, y in zip(a, b))

    def sub(self, a, b):
        log = self._log
        if log is not None:
            try:
                i = log[a]
                j = log[b]
            except KeyError:
                raise FieldMismatchError(_FOREIGN) from None
            if j < 0:
                return self._exp[i] if i >= 0 else self.zero
            # log(-b) = j + log(-1) modulo q - 1, and 2 log(-1) = 0 there
            h = self._log_neg_one
            j = j - h if j >= h else j + h
            if i < 0:
                return self._exp[j]
            z = self._zech[j - i]
            return self.zero if z is None else self._exp[i + z]
        if self.s == 1:
            try:
                (x,), (y,) = a, b
            except ValueError:
                raise FieldMismatchError(_FOREIGN) from None
            return ((x - y) % self.p,)
        if len(a) != self.s or len(b) != self.s:
            raise FieldMismatchError(_FOREIGN)
        p = self.p
        return tuple((x - y) % p for x, y in zip(a, b))

    def neg(self, a):
        log = self._log
        if log is not None:
            try:
                i = log[a]
            except KeyError:
                raise FieldMismatchError(_FOREIGN) from None
            # i + log(-1) <= (q-2) + (q-1)/2, inside the doubled _exp
            return self._exp[i + self._log_neg_one] if i >= 0 else self.zero
        if self.s == 1:
            try:
                (x,) = a
            except ValueError:
                raise FieldMismatchError(_FOREIGN) from None
            return ((-x) % self.p,)
        if len(a) != self.s:
            raise FieldMismatchError(_FOREIGN)
        p = self.p
        return tuple((-x) % p for x in a)

    def mul(self, a, b):
        log = self._log
        if log is not None:
            try:
                k = log[a] + log[b]
            except KeyError:
                raise FieldMismatchError(_FOREIGN) from None
            return self._exp[k] if k >= 0 else self.zero
        if self.s == 1:
            try:
                (x,), (y,) = a, b
            except ValueError:
                raise FieldMismatchError(_FOREIGN) from None
            return ((x * y) % self.p,)
        if len(a) != self.s or len(b) != self.s:
            raise FieldMismatchError(_FOREIGN)
        return self._convolve(a, b)

    def _convolve(self, a, b):
        """Product of two elements of an extension field by polynomial
        multiplication modulo the modulus; fills the tables."""
        p, s = self.p, self.s
        conv = [0] * (2 * s - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    conv[i + j] += x * y
        out = [c % p for c in conv[:s]]
        for k in range(s, 2 * s - 1):
            c = conv[k] % p
            if c:
                row = self._reduction[k - s]
                for i in range(s):
                    out[i] = (out[i] + c * row[i]) % p
        return tuple(out)

    def _convolve_pow(self, a, k: int):
        """a^k for k >= 0 by repeated squaring over _convolve."""
        result = self.one
        while k:
            if k & 1:
                result = self._convolve(result, a)
            a = self._convolve(a, a)
            k >>= 1
        return result

    def pow(self, a, k: int):
        log = self._log
        if log is not None:
            try:
                i = log[a]
            except KeyError:
                raise FieldMismatchError(_FOREIGN) from None
            if i >= 0:
                return self._exp[i * k % (self.order - 1)]
            if k < 0:
                raise ZeroDivisionError("inverse of zero")
            return self.one if k == 0 else self.zero
        if len(a) != self.s:
            raise FieldMismatchError(_FOREIGN)
        if k < 0:
            if a == self.zero:
                raise ZeroDivisionError("inverse of zero")
            k = k % (self.order - 1)
        if self.s == 1:
            return (pow(a[0], k, self.p),)
        return self._convolve_pow(a, k)

    def inv(self, a):
        if a == self.zero:
            raise ZeroDivisionError("inverse of zero")
        log = self._log
        if log is not None:
            try:
                return self._exp[self.order - 1 - log[a]]
            except KeyError:
                raise FieldMismatchError(_FOREIGN) from None
        if len(a) != self.s:
            raise FieldMismatchError(_FOREIGN)
        if self.s == 1:
            return (pow(a[0], self.p - 2, self.p),)
        return self._convolve_pow(a, self.order - 2)

    # -- formatting ----------------------------------------------------

    def scalar_str(self, a) -> str:
        return _t_str(a) or "0"

    def modulus_str(self) -> str:
        return _t_str(self.modulus or ())

    def __eq__(self, other):
        return (
            isinstance(other, Field)
            and self.p == other.p
            and self.s == other.s
            and self.modulus == other.modulus
        )

    def __hash__(self):
        return hash((self.p, self.s, self.modulus))

    def __repr__(self):
        if self.s == 1:
            return f"Field({self.p})"
        return f"Field({self.p}^{self.s}, t: {self.modulus_str()})"
