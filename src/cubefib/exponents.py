"""Predicted growth exponents for the point-count lower bounds, as exact
rationals in (n, h, r, eps)."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

SHAPES = ("h1", "not-h1", "linear-fibres", "general")


@dataclass(frozen=True)
class ExponentPrediction:
    n: int
    h: int
    r: int
    shape: str
    gamma: Optional[Fraction]
    delta: Optional[Fraction]
    beta: Fraction
    alpha: Fraction
    total_exponent: Fraction     # exponent of the N(B) lower bound for the shape
    ingredients: Dict[str, Fraction]
    warnings: Tuple[str, ...]


def predicted_exponents(
    n: int, h: int, r: int, eps: Fraction | float | str = Fraction(1, 100),
    shape: str = "general",
) -> ExponentPrediction:
    """gamma, delta, beta, alpha and the applicable total exponent.

    gamma = min((h-5)/2, (r-n+3h-8)/3)
    delta = 2(r-4)(h-1)/(r+2m) - 2 - eps       if r even and 2r - m < 8
            2(r-3)(h-1)/(r+2m+1) - 2 - eps     otherwise       (m = n-h)
    beta  = 2(h-1)(n-h-7)/(3(n-h)-3) - 2 - eps
    alpha = min((h-5)/2, (2h-12)/3, beta)
    """
    if shape not in SHAPES:
        raise ValueError(f"shape must be one of {SHAPES}")
    if not (n > h >= 1):
        raise ValueError("need n > h >= 1")
    if not (0 <= r <= n - h):
        raise ValueError("need 0 <= r <= n-h")
    eps = Fraction(eps)
    m = n - h
    warnings: List[str] = []

    half_h5 = Fraction(h - 5, 2)
    gamma = min(half_h5, Fraction(r - n + 3 * h - 8, 3))
    if r % 2 == 0 and 2 * r - m < 8:
        delta = Fraction(2 * (r - 4) * (h - 1), r + 2 * m) - 2 - eps
        delta_case = "even-small"
    else:
        delta = Fraction(2 * (r - 3) * (h - 1), r + 2 * m + 1) - 2 - eps
        delta_case = "generic"
    beta = Fraction(2 * (h - 1) * (n - h - 7), 3 * (n - h) - 3) - 2 - eps
    alpha = min(half_h5, Fraction(2 * h - 12, 3), beta)

    # per-route ingredient exponents
    ingredients = {
        "route_y1_divides": Fraction(r - 2) + Fraction(2 * (n - r - 1), 3),
        "route_y1_coprime": Fraction(n - h - 2) + Fraction(h - 1, 2),
        "delta_case": Fraction(0 if delta_case == "generic" else 1),
    }

    if shape == "h1":
        if r < 5:
            warnings.append("h1 route requires fibration rank >= 5")
        total = n - h + gamma
    elif shape == "not-h1":
        if h < 6:
            warnings.append("not-h1 route requires h >= 6")
        if r < min(5, n - h - 4):
            warnings.append("not-h1 route requires r >= min(5, n-h-4)")
        total = n - h + delta
    elif shape == "linear-fibres":
        if h < 8:
            warnings.append("linear-fibre route requires h >= 8")
        total = Fraction(n - 3) - eps
    else:
        if h < 8:
            warnings.append("general lower bound requires h >= 8")
        if n < h + 17:
            warnings.append("general lower bound requires n >= h + 17")
        total = n - h + alpha
    return ExponentPrediction(
        n, h, r, shape, gamma, delta, beta, alpha, total, ingredients, tuple(warnings)
    )
