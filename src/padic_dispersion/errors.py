"""Exception types shared across the package."""

from __future__ import annotations


class DomainError(ValueError):
    """Input outside the exact-arithmetic domain (e.g. a denominator that is
    not a power of p, a polynomial with nonzero constant term where f(0)=0 is
    required, or z = 0 where a character level is needed)."""


class DegenerateInputError(DomainError):
    """Geometric input admits no answer (e.g. no facet with m(a) != 0)."""


class PolynomialSyntaxError(ValueError):
    """Polynomial text rejected; carries the 0-based offset of the problem."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class ResourceCapError(RuntimeError):
    """An enumeration would exceed the configured cap; `required` names the
    number of points the request would have needed.  The message writes a
    count of 2^100 or more by its power of two, since deep levels need counts
    past the digits Python converts to text."""

    def __init__(self, required: int, cap: int, what: str = "residue points"):
        count = required if required < 1 << 100 else f"more than 2^{required.bit_length() - 1}"
        super().__init__(f"enumeration of {count} {what} exceeds the cap of {cap}")
        self.required = required
        self.cap = cap


class CertificateUnavailableError(RuntimeError):
    """A stationary-phase certificate cannot exist: the critical set meets
    the requested region.  `residue_class` is the offending (center, level)."""

    def __init__(self, residue_class):
        center, level = residue_class
        center = ", ".join(map(str, center))
        super().__init__(f"critical point detected in residue class ({center}) mod p^{level}")
        self.residue_class = residue_class


class CertificateIndeterminate(RuntimeError):
    """Residue-class refinement hit the depth cap before the gradient
    valuation stabilised; no verdict either way."""
