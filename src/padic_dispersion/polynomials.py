"""Sparse multivariate polynomials with integer coefficients, plus the ASCII
parser used by the CLI.

Grammar (whitespace insignificant):

    poly   := term {('+' | '-') term}
    term   := [sign] (integer ['*' factors] | factors)
    factors:= factor {'*' factor}
    factor := var ['^' positive-integer]
    var    := 'x' [index]        -- bare 'x' means 'x1'

A bare integer term is accepted as a constant; operations that require
f(0) = 0 reject such polynomials themselves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import DomainError, PolynomialSyntaxError, ResourceCapError
from .padic import Rational, int_valuation, over_p_power

Exponents = tuple[int, ...]


@dataclass(frozen=True)
class SparsePolynomial:
    """Integer-coefficient polynomial as a canonical term list.

    Terms are (exponent vector, coefficient) pairs, sorted by exponent
    vector, with like terms merged and zero coefficients dropped.
    """

    nvars: int
    terms: tuple[tuple[Exponents, int], ...]

    @classmethod
    def from_terms(
        cls, nvars: int, terms: Mapping[Exponents, int] | Iterable[tuple[Exponents, int]]
    ) -> "SparsePolynomial":
        if nvars < 1:
            raise DomainError("polynomial needs at least one variable")
        merged: dict[Exponents, int] = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        for exps, coeff in items:
            exps = tuple(int(e) for e in exps)
            if len(exps) != nvars:
                raise DomainError(f"exponent vector {exps} has wrong length")
            if any(e < 0 for e in exps):
                raise DomainError(f"negative exponent in {exps}")
            if not isinstance(coeff, int):
                raise DomainError(f"non-integer coefficient {coeff!r}")
            merged[exps] = merged.get(exps, 0) + coeff
        kept = tuple(
            (e, c) for e, c in sorted(merged.items()) if c != 0
        )
        return cls(nvars, kept)

    # -- structure ---------------------------------------------------------

    def support(self) -> frozenset[Exponents]:
        return frozenset(e for e, _ in self.terms)

    def coefficient(self, exps: Exponents) -> int:
        for e, c in self.terms:
            if e == exps:
                return c
        return 0

    @property
    def constant_term(self) -> int:
        return self.coefficient((0,) * self.nvars)

    def is_constant(self) -> bool:
        return all(sum(e) == 0 for e, _ in self.terms)

    def total_degree(self) -> int:
        return max((sum(e) for e, _ in self.terms), default=0)

    def degree_in(self, j: int) -> int:
        return max((e[j] for e, _ in self.terms), default=0)

    # -- evaluation --------------------------------------------------------

    def evaluate(self, point: Sequence[Fraction | int]) -> Fraction | int:
        total: Fraction | int = 0
        for exps, coeff in self.terms:
            term: Fraction | int = coeff
            for x, a in zip(point, exps, strict=True):
                if a:
                    term *= x**a
            total += term
        return total

    def partial(self, j: int) -> "SparsePolynomial":
        terms = {}
        for exps, coeff in self.terms:
            if exps[j] == 0:
                continue
            lowered = exps[:j] + (exps[j] - 1,) + exps[j + 1 :]
            terms[lowered] = terms.get(lowered, 0) + coeff * exps[j]
        return SparsePolynomial.from_terms(self.nvars, terms)

    def gradient(self) -> tuple["SparsePolynomial", ...]:
        return tuple(self.partial(j) for j in range(self.nvars))

    def scale(self, factor: Fraction | int) -> dict[Exponents, Fraction]:
        """factor * f as an exponent -> Fraction coefficient map."""
        return {e: Fraction(c) * factor for e, c in self.terms}

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for exps, coeff in self.terms:
            factors = [
                f"x{j + 1}" + (f"^{a}" if a > 1 else "")
                for j, a in enumerate(exps)
                if a > 0
            ]
            mag = abs(coeff)
            if not factors:
                body = str(mag)
            elif mag == 1:
                body = "*".join(factors)
            else:
                body = "*".join([str(mag)] + factors)
            parts.append(("- " if coeff < 0 else "+ ") + body)
        out = " ".join(parts)
        return out[2:] if out.startswith("+ ") else "-" + out[2:]


def compose_affine(
    coeffs: Mapping[Exponents, Rational], center: Sequence[Rational], step: Rational
) -> dict[Exponents, Rational]:
    """Expand sum_a c_a * prod_i (center_i + step*y_i)^(a_i) in y.

    The y^k term of a monomial, c_a prod_i C(a_i, k_i) center_i^(a_i-k_i)
    step^k_i, is multiplied out in the numbers given: integer inputs give
    integer coefficients."""
    out: dict[Exponents, Rational] = {}
    for exps, coeff in coeffs.items():
        if not coeff:
            continue
        terms = [((), coeff)]
        for ci, ai in zip(center, exps, strict=True):
            powers = [(k, w) for k in range(ai + 1)
                      if (w := math.comb(ai, k) * ci ** (ai - k) * step**k)]
            terms = [(stem + (k,), c * w) for stem, c in terms for k, w in powers]
        for key, c in terms:
            out[key] = out[key] + c if key in out else c
    return {e: c for e, c in out.items() if c != 0}


def lattice_form(
    phase: Mapping[Exponents, Rational], center: Sequence[Rational], step: Rational, p: int
) -> tuple[dict[Exponents, int], int]:
    """(terms, K): integer terms and the least K >= 0 with
    phase(center + step*y) = terms(y) / p^K; DomainError unless every
    coefficient lies in Z[1/p].

    With the coefficients over one p^Q and the centre and step over one p^D,
    c_a = N_a / p^Q, center = m / p^D, step = s / p^D, and top the largest
    degree, p^(Q + D top) phase(center + step*y) is the integer expansion of
    sum_a N_a p^(D (top - |a|)) prod_i (m_i + s y_i)^(a_i)."""
    nums, Q = over_p_power(phase.values(), p)
    (*m, s), D = over_p_power([*center, step], p)
    top = max(map(sum, phase), default=0)
    g = compose_affine({a: c * p ** (D * (top - sum(a))) for a, c in zip(phase, nums)}, m, s)
    T = Q + D * top
    K = max([0] + [T - int_valuation(c, p) for c in g.values()])
    up, down = p**K, p**T
    return {e: c * up // down for e, c in g.items()}, K


def _powmod_vector(base: np.ndarray | int, exp: int, modulus: int) -> np.ndarray:
    """base^exp mod modulus in a fresh array, squared and reduced in place."""
    b = np.remainder(base, modulus)
    result = np.ones_like(b)
    e = exp
    while e:
        if e & 1:
            result *= b
            result %= modulus
        e >>= 1
        if e:
            b *= b
            b %= modulus
    return result


MODULUS_LIMIT = 2**31 - 1  # int32 holds every residue; products of two fit in int64


def checked_modulus(modulus: int, what: str) -> int:
    """`modulus` itself, or ResourceCapError when it passes MODULUS_LIMIT."""
    if modulus > MODULUS_LIMIT:
        raise ResourceCapError(modulus, MODULUS_LIMIT, what=what)
    return modulus


def poly_residues(
    terms: Iterable[tuple[Exponents, int]],
    coords: Sequence[np.ndarray | int],
    modulus: int,
) -> np.ndarray:
    """sum c * prod coords^a mod modulus, broadcast over the coordinates.

    Each coordinate is an int64 array or a Python int; with modulus <=
    MODULUS_LIMIT every product of two reduced residues stays inside int64.
    """
    total = np.zeros(np.broadcast_shapes(*map(np.shape, coords)), dtype=np.int64)
    for exps, coeff in terms:
        term = coeff % modulus
        for x, a in zip(coords, exps):
            if a:
                power = _powmod_vector(x, a, modulus)
                if np.shape(power) == np.broadcast_shapes(np.shape(power), np.shape(term)):
                    power *= term  # power is fresh and already the product's shape
                    power %= modulus
                    term = power
                else:
                    term = term * power % modulus
        total += term
        total %= modulus
    return total


# -- parsing ---------------------------------------------------------------


class _Tokens:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str | None:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else None

    def take(self) -> str:
        ch = self.peek()
        if ch is None:
            raise PolynomialSyntaxError("unexpected end of input", self.pos)
        self.pos += 1
        return ch

    def integer(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise PolynomialSyntaxError("expected an integer", start)
        if self.pos < len(self.text) and self.text[self.pos] in "./":
            raise PolynomialSyntaxError("non-integer coefficient", start)
        return int(self.text[start : self.pos])


def parse_polynomial(text: str, nvars: int | None = None) -> SparsePolynomial:
    """Parse polynomial text into canonical form.

    `nvars` may force a wider variable set than the text mentions (useful
    when a phase polynomial ignores some coordinates).
    """
    toks = _Tokens(text)
    raw_terms: list[tuple[dict[int, int], int]] = []  # ({var index: exp}, coeff)
    sign = 1
    first = True
    while True:
        ch = toks.peek()
        if ch is None:
            if first:
                raise PolynomialSyntaxError("empty polynomial", toks.pos)
            break
        if not first:
            if ch == "+":
                sign = 1
            elif ch == "-":
                sign = -1
            else:
                raise PolynomialSyntaxError(f"expected '+' or '-', got {ch!r}", toks.pos)
            toks.take()
        else:
            if ch in "+-":
                sign = -1 if ch == "-" else 1
                toks.take()
            first = False
        raw_terms.append(_parse_term(toks, sign))
        sign = 1

    max_var = max((max(d, default=0) for d, _ in raw_terms), default=0)
    width = max(max_var, nvars or 1)
    if nvars is not None and max_var > nvars:
        raise PolynomialSyntaxError(
            f"variable x{max_var} exceeds the declared {nvars} variables", 0
        )
    terms = []
    for powers, coeff in raw_terms:
        exps = tuple(powers.get(j, 0) for j in range(1, width + 1))
        terms.append((exps, coeff))
    return SparsePolynomial.from_terms(width, terms)


def _parse_term(toks: _Tokens, sign: int) -> tuple[dict[int, int], int]:
    coeff = 1
    powers: dict[int, int] = {}
    ch = toks.peek()
    if ch is not None and ch.isdigit():
        coeff = toks.integer()
        ch = toks.peek()
        if ch == "*":
            toks.take()
            _parse_factor(toks, powers)
        elif ch == "x":
            raise PolynomialSyntaxError("missing '*' between coefficient and variable", toks.pos)
        else:
            return powers, sign * coeff  # constant term
    else:
        _parse_factor(toks, powers)
    while toks.peek() == "*":
        toks.take()
        _parse_factor(toks, powers)
    return powers, sign * coeff


def _parse_factor(toks: _Tokens, powers: dict[int, int]) -> None:
    pos = toks.pos
    ch = toks.peek()
    if ch != "x":
        raise PolynomialSyntaxError(f"expected a variable, got {ch!r}", pos)
    toks.take()
    index = 1
    nxt = toks.text[toks.pos] if toks.pos < len(toks.text) else None
    if nxt is not None and nxt.isdigit():
        index = toks.integer()
        if index < 1:
            raise PolynomialSyntaxError("variable indices start at 1", pos)
    exp = 1
    if toks.peek() == "^":
        toks.take()
        exp = toks.integer()
        if exp < 1:
            raise PolynomialSyntaxError("exponent must be positive", toks.pos)
    powers[index] = powers.get(index, 0) + exp
