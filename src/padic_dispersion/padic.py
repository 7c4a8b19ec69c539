"""The prime, exact p-adic scalars, the additive character and balls of Q_p^n.

`check_prime` is the one decision of which p the engine answers for.  A
scalar is an element of Z[1/p] held as a plain Fraction: `padic_fraction` is
its one check (a p-power denominator), `split_p_part` reads it as
unit * p^val, and `over_p_power` writes many over one least power of p.
The field is fixed to K = Q_p, so the local parameter is p and the residue
field has q = p elements.  `character` gives the exact angle of Psi; complex
numbers enter only when a root of unity is finally evaluated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import DomainError

DEFAULT_ENUMERATION_CAP = 10**8

Rational = int | Fraction


MODULUS_LIMIT = 2**31 - 1  # int32 holds every residue; products of two fit in int64


@cache
def check_prime(p: int) -> None:
    """DomainError unless p is a prime no larger than MODULUS_LIMIT: the one
    decision of which p the engine answers for."""
    if not 2 <= p <= MODULUS_LIMIT:
        raise DomainError(f"prime must lie in [2, 2^31), got {p}")
    if any(p % k == 0 for k in range(2, math.isqrt(p) + 1)):
        raise DomainError(f"{p} is not a prime")


def _remove_p(n: int, p: int) -> tuple[int, int]:
    """(k, n / p^k) for the largest k with p^k | n, n != 0, in O(log k) divisions:
    divide by p, p^2, p^4, ... while they divide, then by the same powers
    from the top down, each where it still divides."""
    if p < 2:  # inline, not check_prime: this runs for every scalar read
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
    """x as a Fraction, checked once: DomainError unless p is a prime and x lies in Z[1/p]."""
    check_prime(p)
    x = Fraction(x)
    split_p_part(x, p)
    return x


def over_p_power(values: Iterable[Rational], p: int, floor: int = 0) -> tuple[list[int], int]:
    """(nums, Q): values_i = nums_i / p^Q with the least Q >= floor; DomainError
    unless p is a prime and every denominator is a power of p."""
    check_prime(p)
    parts = [split_p_part(x, p) for x in values]
    Q = max([floor] + [-v for u, v in parts if u])
    return [unit * p ** (v + Q) for unit, v in parts], Q


def character(x: Rational, p: int) -> Fraction:
    """The angle {x}_p in [0, 1) of the standard additive character
    Psi(x) = exp(2*pi*i * {x}_p): trivial on Z_p, nontrivial on p^(-1) Z_p,
    and additive, {x + y}_p = {x}_p + {y}_p mod 1."""
    x = padic_fraction(p, x)
    return x - math.floor(x)


@dataclass(frozen=True)
class Ball:
    """The set center + (p^e Z_p)^n; volume p^(-n e) under vol(Z_p^n) = 1."""

    prime: int
    center: tuple[Fraction, ...]
    radius_exp: int

    def __post_init__(self):
        check_prime(self.prime)
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
