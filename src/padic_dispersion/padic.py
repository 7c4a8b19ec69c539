"""Exact p-adic scalars, the additive character and balls of Q_p^n.

A scalar is an element of Z[1/p] held as a plain Fraction: `padic_fraction`
is its one check (a p-power denominator), `split_p_part` reads it as
unit * p^val, and `over_p_power` writes many over one least power of p.
The field is fixed to K = Q_p, so the local parameter is p and the residue
field has q = p elements.  Complex numbers enter only when a root of unity
is finally evaluated.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

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
    if p < 2:  # inline, not _check_prime: this runs for every scalar read
        raise DomainError(f"prime must be >= 2, got {p}")
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


def padic_fraction(p: int, x: Rational) -> Fraction:
    """x as a Fraction, checked once: DomainError unless p >= 2 and x lies in Z[1/p]."""
    _check_prime(p)
    x = Fraction(x)
    split_p_part(x, p)
    return x


def over_p_power(values: Iterable[Rational], p: int, floor: int = 0) -> tuple[list[int], int]:
    """(nums, Q): values_i = nums_i / p^Q with the least Q >= floor; DomainError
    unless p >= 2 and every denominator is a power of p."""
    _check_prime(p)
    parts = [split_p_part(x, p) for x in values]
    Q = max([floor] + [-v for u, v in parts if u])
    return [unit * p ** (v + Q) for unit, v in parts], Q


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


def character(x: Rational, p: int) -> RootOfUnity:
    """The standard additive character Psi(x) = exp(2*pi*i * {x}_p).

    Psi is trivial on Z_p and nontrivial on p^(-1) Z_p; it is additive:
    character(x + y) = character(x) * character(y).
    """
    _check_prime(p)
    unit, val = split_p_part(x, p)
    if val >= 0:
        return RootOfUnity(p, 0, 0)
    return RootOfUnity(p, unit % p**-val, -val)


@dataclass(frozen=True)
class Ball:
    """The set center + (p^e Z_p)^n; volume p^(-n e) under vol(Z_p^n) = 1."""

    prime: int
    center: tuple[Fraction, ...]
    radius_exp: int

    def __post_init__(self):
        _check_prime(self.prime)
        if not self.center:
            raise DomainError("ball needs at least one coordinate")
        center = tuple(padic_fraction(self.prime, c) for c in self.center)
        object.__setattr__(self, "center", center)

    @classmethod
    def of(cls, prime: int, center: Sequence[Rational], radius_exp: int) -> "Ball":
        return cls(prime, tuple(center), radius_exp)

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
        return self.center

    def contains_point(self, point: Sequence[Rational]) -> bool:
        for c, x in zip(self.center, point, strict=True):
            d = Fraction(x) - c
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
        return self.radius_exp >= 0 and all(c.denominator == 1 for c in self.center)
