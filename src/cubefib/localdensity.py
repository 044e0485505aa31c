"""Local densities sigma_p, exponential-sum coefficients S_{p^k}, truncated
singular series and lower-bound certificates for quadratic fibre
polynomials.

sigma_p is always computed from exact solution counts N(p^t); the
character-sum definition of S_q survives only as a small-q cross-check
oracle (Ramanujan sums, still exact integers).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from fractions import Fraction
from math import gcd, isqrt
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import gridcount
from .fibration import FalsificationAlarm
from .finitefield import (
    PadicWitness,
    count_quadric_mod_p_closed_form,
    count_witnesses,
    find_padic_nonsingular,
)
from .gridcount import BudgetExceeded
from .lattice import _isqrt64
from .linalg import QuadraticPolynomial, bareiss
from .nt import prime_factors, prime_sieve, primes_up_to, squarefree_divisors


@dataclass(frozen=True)
class LocalDensityEstimate:
    p: int
    t: int
    sigma: Fraction            # N(p^t) / p^(t(m-1)), exact
    counts: Tuple[int, ...]    # N(p^0), ..., N(p^t)
    method: str                # "recursion" or "enumeration"
    stable: bool

    def report_record(self) -> dict:
        return {
            "p": self.p,
            "t": self.t,
            "numerator": self.sigma.numerator,
            "denominator": self.sigma.denominator,
            "stable": self.stable,
        }


def _critical_data(F: QuadraticPolynomial, p: int):
    """The unique singular residue x* mod p, the solution of 2Q x = -B, for
    p not dividing det(2Q): x* = -adj(2Q) B det(2Q)^-1 mod p."""
    _, _, det, adj = bareiss(F.two_q, adjugate=True)
    if det % p == 0:
        raise ValueError("2Q singular mod p")
    inv = pow(det, -1, p)
    return [-sum(a * b for a, b in zip(row, F.B)) * inv % p for row in adj]


def counts_good_prime(F: QuadraticPolynomial, p: int, t: int,
                      nonsingular: int | None = None) -> List[int]:
    """Exact N(p^k), k = 0..t, for odd p not dividing det(2Q).

    Nonsingular residues lift with multiplicity p^(m-1) per level; the
    single critical residue recurses with modulus dropped by p^2. The
    closed-form nonsingular count mod p is computed unless given.
    """
    if p == 2:
        raise ValueError("p = 2 has no closed-form path")
    m = F.m
    if F.disc() % p == 0:
        raise ValueError("p divides the discriminant")
    counts = [1] * (t + 1)
    if t == 0:
        return counts
    ns = count_quadric_mod_p_closed_form(F, p).nonsingular if nonsingular is None else nonsingular
    xstar = _critical_data(F, p)
    poly = F.to_polynomial()
    cstar = poly.evaluate(xstar)
    counts[1] = ns + (1 if cstar % p == 0 else 0)
    if t == 1:
        return counts
    sub_counts = None
    if cstar % (p * p) == 0:
        grad = [g.evaluate(xstar) for g in poly.gradient()]
        if any(v % p for v in grad):
            raise FalsificationAlarm(f"gradient {grad} at the critical residue is nonzero mod {p}")
        # F(x* + p y) / p^2 = Q(y) + (grad / p).y + F(x*) / p^2
        G = QuadraticPolynomial(F.two_q, [v // p for v in grad], cstar // (p * p))
        sub_counts = counts_good_prime(G, p, t - 2)
    for k in range(2, t + 1):
        counts[k] = ns * p ** ((k - 1) * (m - 1))
        if sub_counts is not None:
            counts[k] += p ** m * sub_counts[k - 2]
    return counts


def _drop_free_variables(F: QuadraticPolynomial) -> Tuple[QuadraticPolynomial, int]:
    """(G, d) with #{F = 0 mod q} = q^d #{G = 0 mod q} for every q. With U
    of `rank_split`, F(U x) = Q'(x') + B'.x' + L.x'' + N, x' the first r
    coordinates; a unimodular change of x'' alone makes L.x'' = gcd(L) z,
    so G = Q' + B'.x' + gcd(L) z + N, without z when L = 0 (a constant F
    keeps one variable), and the other d coordinates are free."""
    u, s = F.rank_split()
    r = len(s)
    b = [sum(x * y for x, y in zip(col, F.B)) for col in zip(*u)]
    g = gcd(*b[r:])
    keep = max(r + (g != 0), 1)
    two_q = [[s[i][j] if i < r and j < r else 0 for j in range(keep)] for i in range(keep)]
    return QuadraticPolynomial(two_q, (b[:r] + [g])[:keep], F.N), F.m - keep


def sigma_p(
    F: QuadraticPolynomial, p: int, t: int, budget: int | None = None
) -> LocalDensityEstimate:
    """Exact truncated local density sigma_p^(t) = N(p^t) / p^(t(m-1)).

    A rank-deficient F is counted as G of `_drop_free_variables`, the
    counts scaled back by p^(k d). Then three paths: exact value 1 when
    the reduced linear part has a unit coefficient outside the rank block
    (the unit survives every power), the critical-point recursion when p
    does not divide det(2Q), and enumeration otherwise.
    """
    if t < 1:
        raise ValueError("truncation level must be >= 1")
    if F.disc() == 0:
        G, free = _drop_free_variables(F)
        if free:
            est = sigma_p(G, p, t, budget)
            return replace(est, counts=tuple(c * p ** (k * free) for k, c in enumerate(est.counts)))
    m = F.m
    if p != 2:
        closed = count_quadric_mod_p_closed_form(F, p)
        if closed.data.case == "linear-unit":
            counts = tuple(p ** (k * (m - 1)) for k in range(t + 1))
            return LocalDensityEstimate(
                p, t, Fraction(1), counts, "linear-unit", True
            )
    if p != 2 and F.disc() % p != 0:
        counts = counts_good_prime(F, p, t + 1, closed.nonsingular)
        method = "recursion"
    else:
        poly = F.to_polynomial()
        counts = [1]
        for k in range(1, t + 1):
            counts.append(gridcount.count_zeros_mod_q(poly, p ** k, budget))
        method = "enumeration"
    sig = [Fraction(counts[k], p ** (k * (m - 1))) for k in range(len(counts))]
    if method == "recursion":
        stable = sig[t + 1] == sig[t]
        counts = counts[: t + 1]
    else:
        stable = sig[t] == sig[t - 1]
    return LocalDensityEstimate(p, t, sig[t], tuple(counts), method, stable)


def S_pk_extract(F: QuadraticPolynomial, p: int, k: int, counts: Sequence[int]) -> int:
    """S_{p^k} recovered from the exact counts of F mod p^0, ..., p^k; an
    integer by construction."""
    if k == 0:
        return 1
    m = F.m
    val = Fraction(counts[k], p ** (k * (m - 1))) - Fraction(counts[k - 1], p ** ((k - 1) * (m - 1)))
    out = val * p ** (k * m)
    if out.denominator != 1:
        raise FalsificationAlarm(f"S_{p}^{k} = {out} from exact counts is not an integer")
    return int(out)


def S_q_character_sum(F: QuadraticPolynomial, q: int) -> int:
    """Direct S_q = sum*_a sum_b e_q(a F(b)) via Ramanujan sums, exact."""
    hist = gridcount.value_counts(F.to_polynomial(), q)
    # Ramanujan sum c_q(v) = sum_{d | gcd(v, q)} d mu(q/d)
    c = np.zeros(q, dtype=np.int64)
    for e, mu in squarefree_divisors(q):   # mu(q/d) = 0 unless q/d = e is squarefree
        c[::q // e] += q // e * mu
    return int((hist * c).sum())


@dataclass(frozen=True)
class SingularSeriesEstimate:
    locals_: Tuple[LocalDensityEstimate, ...]
    product: Fraction
    certified: bool
    tail_lower: Optional[Fraction]    # lower bound on the omitted factors


# frozen after measurement: max observed |sigma_p - 1| on the rank-5
# calibration suite is ~ p^-2 + p^-3, well under 4 p^(-3/2)
SIGMA_TAIL_CONSTANT = 4

_TAIL_SIEVE_TO = 10 ** 6
_TAIL_SCALE = 1 << 40


def _tail_terms_fp(n: int) -> int:
    """sum over primes q <= n of ceil(2^40 / (q isqrt(q))), exact: since
    isqrt rounds down, each term overestimates 2^40 q^(-3/2)."""
    q = np.flatnonzero(np.frombuffer(prime_sieve(n), dtype=np.uint8)).astype(np.int64)
    return int((-(-_TAIL_SCALE // (q * _isqrt64(q)))).sum())


@functools.cache
def _tail_sum_fp() -> int:
    return _tail_terms_fp(_TAIL_SIEVE_TO)


def _tail_lower_bound(P: int) -> Fraction:
    """Rational lower bound for prod_{p > P} (1 - 4 p^(-3/2)).

    Fixed-point accumulation (2^40 scale, rounded up per term) keeps the
    overestimate of the sum rigorous while avoiding huge denominators. The
    sum over all primes up to _TAIL_SIEVE_TO is taken once per module; each
    call subtracts the terms of the primes up to P.
    """
    total_fp = _tail_sum_fp() - _tail_terms_fp(min(P, _TAIL_SIEVE_TO))
    total = Fraction(total_fp, _TAIL_SCALE) + Fraction(2, isqrt(_TAIL_SIEVE_TO - 1))
    return 1 - SIGMA_TAIL_CONSTANT * total


# the truncation of sigma_p at a good prime, and the largest valuation v of
# the witness search at a bad one, in singular_series
_SERIES_T = 2
_SERIES_V_MAX = 3


def singular_series(
    F: QuadraticPolynomial, P_max: int, budget: int | None = None
) -> SingularSeriesEstimate:
    """Truncated singular series prod_{p <= P_max} sigma_p^(t_p).

    Good primes use truncation _SERIES_T; primes dividing 2 disc use 2 v_p
    + 1 from a witness search up to v = _SERIES_V_MAX (capped by the
    budget). The certificate flag requires rank >= 5 and every prime of 2
    disc below P_max.
    """
    rank, support = F.rank_support()
    locals_ = []
    product = Fraction(1)
    bad = set(prime_factors(2 * support))
    for p in primes_up_to(P_max):
        if p in bad:
            tp = 2 * _SERIES_V_MAX + 1
            try:
                wit = find_padic_nonsingular(F.to_polynomial(), p, _SERIES_V_MAX, budget=budget)
                tp = (2 * wit.v + 1) if wit else tp
            except (ValueError, BudgetExceeded):
                wit = None
            try:
                est = sigma_p(F, p, tp, budget)
            except BudgetExceeded:
                est = sigma_p(F, p, max(1, min(tp, 2)), budget)
        else:
            est = sigma_p(F, p, _SERIES_T, budget)
        locals_.append(est)
        product *= est.sigma
    certified = rank >= 5 and all(p <= P_max for p in bad)
    tail = _tail_lower_bound(P_max) if certified else None
    return SingularSeriesEstimate(tuple(locals_), product, certified, tail)


@dataclass(frozen=True)
class SeriesLowerBound:
    value: Fraction
    bad_factors: Dict[int, Fraction]
    medium_factors: Dict[int, Fraction]
    tail_lower: Fraction
    P_tail: int


def series_lower_bound_certificate(
    F: QuadraticPolynomial,
    witnesses: Dict[int, PadicWitness],
    medium_primes: Sequence[int] = (),
    budget: int | None = None,
    witness_count_budget: int = 10 ** 6,
    P_min: int = 100,
) -> SeriesLowerBound:
    """Positive rational L with singular series >= L.

    Three-factor assembly: witness floors at the bad primes, exact
    nonsingular-count floors at the medium primes (rank >= 3 mod p
    required), and the frozen tail product beyond them. Every factor is
    a genuine lower bound for the corresponding sigma_p.
    """
    m = F.m
    rank, support = F.rank_support()
    if rank < 5:
        raise ValueError("certificate requires rank >= 5 over Q")
    bad_needed = set(prime_factors(2 * support))
    for p in sorted(bad_needed):
        if p not in witnesses and p not in medium_primes:
            raise ValueError(f"missing witness for bad prime {p}")
    poly = F.to_polynomial()
    bad_factors: Dict[int, Fraction] = {}
    for p, wit in witnesses.items():
        if not wit.verify(poly):
            raise ValueError(f"witness at p={p} fails re-verification")
        v = wit.v
        if p ** ((2 * v - 1) * m) <= witness_count_budget:
            W = count_witnesses(poly, p, v, budget=witness_count_budget)
        else:
            W = 1
        bad_factors[p] = Fraction(W, p ** ((2 * v - 1) * (m - 1)))
    medium_factors: Dict[int, Fraction] = {}
    covered = set(witnesses) | set(bad_needed)
    for p in medium_primes:
        if p in bad_factors:
            continue
        if p == 2:
            raise ValueError("p = 2 needs a witness, not a closed-form floor")
        ns = count_quadric_mod_p_closed_form(F, p)
        if ns.data.case == "gauss" and ns.data.r < 3:
            raise ValueError(f"rank < 3 mod {p}: no closed floor available")
        if ns.nonsingular <= 0:
            raise ValueError(f"sigma_{p} floor is zero: no certificate")
        medium_factors[p] = Fraction(ns.nonsingular, p ** (m - 1))
        covered.add(p)
    # the generic (1 - 4 p^(-3/2)) tail is only useful past P_min, so every
    # prime below that gets an explicit closed-form floor
    P_tail = max([int(p) for p in covered] + [P_min])
    for p in primes_up_to(P_tail):
        if p in covered:
            continue
        ns = count_quadric_mod_p_closed_form(F, p)
        if ns.nonsingular <= 0:
            raise ValueError(f"sigma_{p} floor is zero: no certificate")
        medium_factors[p] = Fraction(ns.nonsingular, p ** (m - 1))
    tail = _tail_lower_bound(P_tail)
    if tail <= 0:
        tail = Fraction(0)
    value = tail
    for f in bad_factors.values():
        value *= f
    for f in medium_factors.values():
        value *= f
    return SeriesLowerBound(value, bad_factors, medium_factors, tail, P_tail)
