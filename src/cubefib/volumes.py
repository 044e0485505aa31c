"""Volume constants for ball slices, kept in exact form q * pi^(e/2).

The Beta-product form (product of Gamma-quotient wedge integrals) with the
signed-u integration domain is the frozen convention: it reproduces the
exact l-ball volume identically, which is the calibration oracle
(`VolumeConstantTable.calibration_matches`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class PiMonomial:
    """Exact value rational * pi^(half_exponent / 2)."""

    rational: Fraction
    half_exponent: int

    def __mul__(self, other: "PiMonomial") -> "PiMonomial":
        return PiMonomial(self.rational * other.rational, self.half_exponent + other.half_exponent)

    def scale(self, c) -> "PiMonomial":
        return PiMonomial(self.rational * Fraction(c), self.half_exponent)

    def float_value(self) -> float:
        return float(self.rational) * math.pi ** (self.half_exponent / 2)

    def __eq__(self, other):
        return (
            isinstance(other, PiMonomial)
            and self.rational == other.rational
            and (self.half_exponent == other.half_exponent or self.rational == 0)
        )


def gamma_half(k: int) -> PiMonomial:
    """Gamma(k/2) for k >= 1 as an exact pi-monomial."""
    if k < 1:
        raise ValueError("argument must be >= 1/2")
    if k % 2 == 0:
        return PiMonomial(Fraction(math.factorial(k // 2 - 1)), 0)
    n = (k - 1) // 2
    # Gamma(n + 1/2) = (2n)! / (4^n n!) sqrt(pi)
    return PiMonomial(Fraction(math.factorial(2 * n), 4 ** n * math.factorial(n)), 1)


def beta_factor(j: int) -> PiMonomial:
    """The wedge integral of cos^j, as Gamma(1/2) Gamma((j+1)/2) / Gamma(j/2 + 1)."""
    num = gamma_half(1) * gamma_half(j + 1)
    den = gamma_half(j + 2)
    return PiMonomial(num.rational / den.rational, num.half_exponent - den.half_exponent)


def beta_product(l: int) -> PiMonomial:
    """prod_{j=0}^{l-2} of the cos^j wedge integrals; equals pi^(l/2)/Gamma(l/2)."""
    out = PiMonomial(Fraction(1), 0)
    for j in range(l - 1):
        out = out * beta_factor(j)
    return out


def ball_volume_exact(l: int) -> PiMonomial:
    """Unit l-ball volume pi^(l/2) / Gamma(l/2 + 1), the calibration oracle."""
    if l == 0:
        return PiMonomial(Fraction(1), 0)
    g = gamma_half(l + 2)
    return PiMonomial(Fraction(1) / g.rational, l - g.half_exponent)


class VolumeConstantTable:
    """c(l) with V(l, B) = c(l) (B^2 - a^2)^(l/2); c(0) = 1."""

    def __init__(self, max_l: int = 16):
        self._table = {0: PiMonomial(Fraction(1), 0)}
        for l in range(1, max_l + 1):
            # signed-u domain: the final u-integral is over |u| <= radius,
            # contributing the factor 2/l
            self._table[l] = beta_product(l).scale(Fraction(2, l))

    def constant(self, l: int) -> PiMonomial:
        if l not in self._table:
            raise ValueError(f"dimension {l} beyond table size")
        return self._table[l]

    def constant_float(self, l: int) -> float:
        return self.constant(l).float_value()

    def calibration_matches(self, l: int) -> bool:
        """Exact symbolic equality with the l-ball volume oracle."""
        return self.constant(l) == ball_volume_exact(l)


_DEFAULT_TABLE = VolumeConstantTable()

