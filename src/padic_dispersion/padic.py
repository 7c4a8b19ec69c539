"""Exact p-adic scalars, the additive character and balls of Q_p^n.

Scalars are elements of Z[1/p], read once as unit * p^val with the unit
coprime to p and then only read: callers do their arithmetic on Fractions.
The field is fixed to K = Q_p, so the local parameter is p and the residue
field has q = p elements.  Complex numbers enter only when a root of unity
is finally evaluated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import DomainError

DEFAULT_ENUMERATION_CAP = 10**8

Rational = int | Fraction


def _check_prime(p: int) -> None:
    if p < 2:
        raise DomainError(f"prime must be >= 2, got {p}")


def _remove_p(n: int, p: int) -> tuple[int, int]:
    """(k, n / p^k) for the largest k with p^k | n, n != 0, in O(log k) divisions:
    divide by p, p^2, p^4, ... while they divide, then by the same powers
    from the top down, each where it still divides."""
    if n % p:
        return 0, n
    powers = []
    while not (qr := divmod(n, p))[1]:
        n = qr[0]
        powers.append(p)
        p *= p
    k = (1 << len(powers)) - 1
    for i in range(len(powers) - 1, -1, -1):
        q, r = divmod(n, powers[i])
        if not r:
            n, k = q, k + (1 << i)
    return k, n


def int_valuation(n: int, p: int) -> int:
    """Largest k with p^k | n, for n != 0."""
    if n == 0:
        raise DomainError("valuation of 0 is +infinity; handle separately")
    return _remove_p(n, p)[0]


def split_p_part(x: Rational, p: int) -> tuple[int, int]:
    """Write x = unit * p^val with p coprime to unit.

    The denominator of x must be a power of p; anything else is outside the
    a * p^v domain and is rejected.  Returns (unit, val); (0, 0) for x = 0.
    """
    x = Fraction(x)
    if x == 0:
        return 0, 0
    dv, den = _remove_p(x.denominator, p)
    if den != 1:
        raise DomainError(
            f"denominator of {x} is not a power of p={p}"
        )
    nv, unit = _remove_p(x.numerator, p)
    return unit, nv - dv


class PadicRational:
    """An element a * p^v of Q_p with a in Z coprime to p, exact and read-only.

    The zero element stores unit 0 and val 0 and reports valuation +infinity.
    It equals only PadicRationals: it hashes apart from the int or Fraction it
    was built from, so it does not compare equal to them either.
    """

    __slots__ = ("prime", "unit", "_val")

    def __init__(self, prime: int, value: Rational | "PadicRational" = 0):
        _check_prime(prime)
        if isinstance(value, PadicRational):
            if value.prime != prime:
                raise DomainError("prime mismatch")
            unit, val = value.unit, value._val
        else:
            unit, val = split_p_part(value, prime)
        self.prime = prime
        self.unit = unit
        self._val = val

    @property
    def is_zero(self) -> bool:
        return self.unit == 0

    @property
    def val(self) -> int | float:
        """v(x); +infinity for x = 0."""
        return math.inf if self.unit == 0 else self._val

    def as_fraction(self) -> Fraction:
        if self.unit == 0:
            return Fraction(0)
        v = self._val
        if v >= 0:
            return Fraction(self.unit * self.prime**v)
        return Fraction(self.unit, self.prime**-v)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PadicRational):
            return NotImplemented
        return (self.prime, self.unit, self._val) == (other.prime, other.unit, other._val)

    def __hash__(self) -> int:
        return hash((self.prime, self.unit, self._val))

    def __repr__(self) -> str:
        if self.is_zero:
            return f"PadicRational({self.prime}, 0)"
        return f"PadicRational({self.prime}, {self.unit}*{self.prime}^{self._val})"


class RootOfUnity:
    """exp(2*pi*i * r / p^m), stored canonically with p coprime to r for m > 0."""

    __slots__ = ("prime", "numerator", "level")

    def __init__(self, prime: int, numerator: int, level: int):
        _check_prime(prime)
        if level < 0:
            raise DomainError("level must be >= 0")
        r = numerator % prime**level if level > 0 else 0
        while level > 0 and r % prime == 0:
            r //= prime
            level -= 1
        if level == 0:
            r = 0
        self.prime = prime
        self.numerator = r
        self.level = level

    def __mul__(self, other: "RootOfUnity") -> "RootOfUnity":
        if not isinstance(other, RootOfUnity):
            return NotImplemented
        if other.prime != self.prime:
            raise DomainError("prime mismatch")
        m = max(self.level, other.level)
        p = self.prime
        r = (
            self.numerator * p ** (m - self.level)
            + other.numerator * p ** (m - other.level)
        )
        return RootOfUnity(p, r, m)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RootOfUnity):
            return NotImplemented
        return (self.prime, self.numerator, self.level) == (
            other.prime,
            other.numerator,
            other.level,
        )

    def __hash__(self) -> int:
        return hash((self.prime, self.numerator, self.level))

    def __repr__(self) -> str:
        if self.level == 0:
            return f"RootOfUnity({self.prime}, 1)"
        return f"RootOfUnity({self.prime}, e(2pi*{self.numerator}/{self.prime}^{self.level}))"


def character(x: PadicRational | Rational, p: int | None = None) -> RootOfUnity:
    """The standard additive character Psi(x) = exp(2*pi*i * {x}_p).

    Psi is trivial on Z_p and nontrivial on p^(-1) Z_p; it is additive:
    character(x + y) = character(x) * character(y).  p may be left out for a
    PadicRational, which carries its prime.
    """
    if p is None:
        if not isinstance(x, PadicRational):
            raise DomainError("prime required when x is a plain rational")
        p = x.prime
    x = PadicRational(p, x)
    if x.is_zero or x._val >= 0:
        return RootOfUnity(p, 0, 0)
    m = -x._val
    return RootOfUnity(p, x.unit % p**m, m)


@dataclass(frozen=True)
class Ball:
    """The set center + (p^e Z_p)^n; volume p^(-n e) under vol(Z_p^n) = 1."""

    prime: int
    center: tuple[PadicRational, ...]
    radius_exp: int

    def __post_init__(self):
        _check_prime(self.prime)
        if not self.center:
            raise DomainError("ball needs at least one coordinate")
        for c in self.center:
            if c.prime != self.prime:
                raise DomainError("center component prime mismatch")

    @classmethod
    def of(
        cls, prime: int, center: Sequence[Rational | PadicRational], radius_exp: int
    ) -> "Ball":
        return cls(prime, tuple(PadicRational(prime, c) for c in center), radius_exp)

    @property
    def dim(self) -> int:
        return len(self.center)

    @property
    def volume(self) -> Fraction:
        e, n = self.radius_exp, self.dim
        if e >= 0:
            return Fraction(1, self.prime ** (n * e))
        return Fraction(self.prime ** (-n * e))

    def center_fractions(self) -> tuple[Fraction, ...]:
        return tuple(c.as_fraction() for c in self.center)

    def contains_point(self, point: Sequence[Rational]) -> bool:
        for c, x in zip(self.center, point, strict=True):
            d = Fraction(x) - c.as_fraction()
            if d != 0 and split_p_part(d, self.prime)[1] < self.radius_exp:
                return False
        return True

    def is_disjoint(self, other: "Ball") -> bool:
        # Ultrametric: two balls are nested or disjoint.
        if other.radius_exp >= self.radius_exp:
            return not self.contains_point(other.center_fractions())
        return not other.contains_point(self.center_fractions())

    def is_integral(self) -> bool:
        """True when the ball sits inside Z_p^n."""
        return self.radius_exp >= 0 and all(
            c.is_zero or c._val >= 0 for c in self.center
        )
