"""Admissible sets from local conditions: bad-prime congruence classes from
p-adic witnesses, good-prime minor conditions, box membership, density
estimation, and the bounded point search on quadric fibres.

Each spec keeps one integer plan (`AdmissibleSetSpec.plan`): the box test,
the corner extremes of its bounding box and the CRT class of its bad-prime
congruences. Enumeration walks that class inside the bounding box, so a
point off the class is never visited; `membership` decides every visited
point.

The good-prime conjunction over *all* primes is decided exactly per point:
a point fails at a good prime p iff p divides the gcd of the defining
values (the Q_i(y) for linear fibres, the order-3 minors for quadric
fibres), so factoring one integer settles the infinite conjunction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iproduct
from math import ceil, floor, gcd, lcm
from operator import mul
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .finitefield import PadicWitness, find_padic_nonsingular
from .fibration import build_fibration, linear_fibre_parts, order3_minors
from .gridcount import box_point_count, check_budget, eval_on_box
from .linalg import QuadraticPolynomial, bareiss, congruence_diagonalize
from .nt import prime_factors
from .polynomials import IntPolynomial, VariableSplit


@dataclass
class LocalConditionSet:
    bad_primes: Dict[int, PadicWitness]         # p -> witness (full residues)
    good_polys: List[IntPolynomial]             # define L: all must vanish mod p to fail
    y_indices: Tuple[int, ...]                  # positions of y in the witness residues
    insoluble_at: Optional[int] = None          # prime where witness search failed

    def y_residue(self, p: int) -> Tuple[int, ...]:
        """The y-part of the witness residues mod p^(2v-1)."""
        w = self.bad_primes[p]
        return tuple(w.residues[i] for i in self.y_indices)


@dataclass
class AdmissibleSetSpec:
    k: int
    box: List[Tuple[Fraction, Fraction]]        # per-coordinate interval of Omega_infty
    conditions: LocalConditionSet
    box_change: Optional[List[List[Fraction]]] = None   # y = T z with z in the box; None: T = I
    good_primes_only: Optional[Tuple[int, ...]] = None  # restrict the predicate

    def __post_init__(self):
        if len(self.box) != self.k:
            raise ValueError(f"box has {len(self.box)} intervals, expected k = {self.k}")

    def plan(self):
        """The Y-independent data of `membership` and `enumerate_admissible`,
        computed once per spec: (rows, corner_min, corner_max, moduli, residues).

        rows is the box test in integers: T^-1 = A / d with integer A and
        d = lcm of the denominators of T^-1, and per box coordinate
        (A_i, d lo_num, lo_den, d hi_num, hi_den), so that
        lo Y <= (T^-1 y)_i <= hi Y iff d lo_num Y <= (A_i . y) lo_den and
        (A_i . y) hi_den <= d hi_num Y (both denominators and d are > 0).
        T^-1 = D adj(D T) / det(D T), D the lcm of the denominators of T.

        corner_min and corner_max are the per-axis extremes of the corners
        of T box, as Fractions; the corners of T (Y box) are Y times them.

        moduli and residues are the bad-prime congruences of `membership`,
        y_i = r_p,i mod p^(2v-1) for every bad prime p, joined by the CRT
        into one class y_i = residues[i] mod moduli[i] per coordinate."""
        cached = getattr(self, "_plan", None)
        if cached is None:
            t = self.box_change
            if t is None:  # a plain box is the box change T = I
                t = [[Fraction(int(i == j)) for j in range(self.k)] for i in range(self.k)]
            D = lcm(*(x.denominator for row in t for x in row))
            e = bareiss([[int(x * D) for x in row] for row in t], adjugate=True)
            if e.adjugate is None:
                raise ValueError("singular box change")
            inv = [[Fraction(D * x, e.det) for x in row] for row in e.adjugate]
            d = lcm(*(x.denominator for row in inv for x in row))
            rows = []
            for row, (lo, hi) in zip(inv, self.box):
                lo, hi = Fraction(lo), Fraction(hi)
                A_i = tuple(x.numerator * (d // x.denominator) for x in row)
                rows.append((A_i, d * lo.numerator, lo.denominator,
                             d * hi.numerator, hi.denominator))
            axes = list(zip(*([sum(map(mul, row, signs)) for row in t]
                              for signs in iproduct(*self.box))))
            moduli, residues = [1] * self.k, [0] * self.k
            for p, wit in self.conditions.bad_primes.items():
                q = p ** (2 * wit.v - 1)
                for i, r in zip(range(self.k), self.conditions.y_residue(p)):
                    residues[i] += moduli[i] * ((r - residues[i]) * pow(moduli[i], -1, q) % q)
                    moduli[i] *= q
            cached = (tuple(rows), tuple(map(min, axes)), tuple(map(max, axes)),
                      tuple(moduli), tuple(residues))
            object.__setattr__(self, "_plan", cached)
        return cached


@dataclass
class MembershipResult:
    member: bool
    reason: str = ""


def build_conditions(
    C: IntPolynomial,
    split: VariableSplit,
    mode: str,
    budget: int | None = None,
) -> LocalConditionSet:
    """Bad primes (those of 2 times the content of the good polynomials)
    get witness residue classes via the p-adic search to level 3; good
    primes get the minor / Q_i vanishing predicate."""
    if mode not in ("pi", "pi_prime"):
        raise ValueError("mode must be pi or pi_prime")
    n = C.num_vars
    xs, ys = split.x_indices, split.y_indices
    if mode == "pi_prime":
        if len(xs) < 2 or len(ys) < 2:
            raise ValueError("pi_prime mode needs k >= 2 and n-k >= 2")
        q_list, _ = linear_fibre_parts(C, split)
        good = [q for q in q_list if not q.is_zero()]
        if not good:
            raise ValueError("all Q_i vanish: not a pi_prime bundle")
    else:
        fd = build_fibration(C, split)
        if fd.rank < 3:
            raise ValueError("pi mode needs fibration rank >= 3 for order-3 minors")
        good = order3_minors(fd.M2)
    coeff_gcd = gcd(*(q.content() for q in good))
    M = 2 * coeff_gcd if coeff_gcd else 2
    bad: Dict[int, PadicWitness] = {}
    for p in prime_factors(M):
        wit = find_padic_nonsingular(C, p, 3, x_indices=xs, budget=budget)
        if wit is None:
            return LocalConditionSet({}, good, ys, insoluble_at=p)
        bad[p] = wit
    return LocalConditionSet(bad, good, ys)


def _good_prime_ok(spec: AdmissibleSetSpec, y: Sequence[int]) -> Tuple[bool, str]:
    if not spec.conditions.good_polys:
        return True, ""
    if spec.good_primes_only is not None:
        for p in spec.good_primes_only:
            if all(g.evaluate_mod(list(y), p) == 0 for g in spec.conditions.good_polys):
                return False, f"good prime {p} kills all predicate values"
        return True, ""
    vals = [g.evaluate(list(y)) for g in spec.conditions.good_polys]
    d = gcd(*vals)
    if d == 0:
        return False, "good-prime predicate fails at every prime (all values zero)"
    bad_set = set(spec.conditions.bad_primes)
    for p in prime_factors(d):
        if p not in bad_set:
            return False, f"good prime {p} divides all predicate values"
    return True, ""


def membership(y: Sequence[int], spec: AdmissibleSetSpec, Y: int) -> MembershipResult:
    """Deterministic membership with the first failed predicate as a reason.

    The box test is integer cross-multiplication (the rows of
    `AdmissibleSetSpec.plan`), exactly lo Y <= (T^-1 y)_i <= hi Y, with T = I
    for a plain box."""
    y = list(y)
    for row, lo_n, lo_d, hi_n, hi_d in spec.plan()[0]:
        u = sum(map(mul, row, y))  # d (T^-1 y)_i
        if not (lo_n * Y <= u * lo_d and u * hi_d <= hi_n * Y):
            return MembershipResult(False, "box")
    for p, wit in spec.conditions.bad_primes.items():
        q = p ** (2 * wit.v - 1)
        ys = spec.conditions.y_residue(p)
        if any((yi - ri) % q for yi, ri in zip(y, ys)):
            return MembershipResult(False, f"bad-prime congruence mod {p}^{2 * wit.v - 1}")
    ok, why = _good_prime_ok(spec, y)
    if not ok:
        return MembershipResult(False, why)
    return MembershipResult(True, "")


def enumerate_admissible(spec: AdmissibleSetSpec, Y: int,
                         budget: int | None = None) -> Iterator[Tuple[int, ...]]:
    """Lexicographic stream of admissible y in the scaled box: the integer
    points of the bounding box of the corners of T (Y box) that pass
    `membership`. An empty scaled interval admits nothing and charges nothing.

    Only the bad-prime class of `AdmissibleSetSpec.plan` is visited: per
    coordinate the ascending progression residues[i] + moduli[i] Z inside the
    bounding box, and their product is still in lexicographic order. The
    points left out all fail `membership`'s congruence, so the stream is the
    filtered box; the budget is still charged for the whole bounding box."""
    if any(lo * Y > hi * Y for lo, hi in spec.box):
        return
    # Y < 0 gets here only for a one-point box, whose extremes agree
    _, cmin, cmax, moduli, residues = spec.plan()
    lows, highs = [ceil(Y * c) for c in cmin], [floor(Y * c) for c in cmax]
    check_budget(box_point_count(lows, highs), budget)
    for y in iproduct(*[range(lo + (r - lo) % q, hi + 1, q)
                        for lo, hi, q, r in zip(lows, highs, moduli, residues)]):
        if membership(y, spec, Y).member:
            yield y


def admissible_points_lines(points: Iterator[Tuple[int, ...]]) -> str:
    """Line-delimited integer tuples, the export format for admissible sets."""
    return "\n".join(" ".join(str(v) for v in y) for y in points)


@dataclass
class DensityEstimate:
    rows: List[Tuple[int, int, Fraction, Optional[Fraction]]]  # (Y, count, density, delta)

    def to_csv(self) -> str:
        lines = ["Y,count,density,delta"]
        for Y, count, dens, delta in self.rows:
            d = "" if delta is None else repr(float(delta))
            lines.append(f"{Y},{count},{float(dens)!r},{d}")
        return "\n".join(lines)


def density_estimate(
    spec: AdmissibleSetSpec, Y_list: Sequence[int], budget: int | None = None
) -> DensityEstimate:
    """#C_k(Y) / Y^k for each Y, with successive differences as a Cauchy
    monitor."""
    rows = []
    prev: Optional[Fraction] = None
    for Y in Y_list:
        count = sum(1 for _ in enumerate_admissible(spec, Y, budget))
        dens = Fraction(count, Y ** spec.k)
        delta = None if prev is None else abs(dens - prev)
        rows.append((Y, count, dens, delta))
        prev = dens
    return DensityEstimate(rows)


# ---------------------------------------------------------------------------
# quadric fibre points


def quadric_fibre_point(fibre: IntPolynomial, bound: int) -> Optional[Tuple[int, ...]]:
    """The first zero of the quadric fibre in [-b, b]^m in lexicographic
    order, b the largest width <= min(bound, 6) whose box holds at most 10^6
    points. When there is none and a wider box within bound holds at most
    10^6 points, the first zero in the widest such box, but only on a fibre
    whose quadric has rank < 5; that rank is computed only here. None when
    the searches find no zero."""
    first, w = _widest_box(fibre.num_vars, min(bound, 6)), _widest_box(fibre.num_vars, bound)
    pt = _search_integer_point(fibre, first)
    if pt is None and w > first and QuadraticPolynomial.from_polynomial(fibre).rank_support()[0] < 5:
        pt = _search_integer_point(fibre, w)
    return pt


def _widest_box(m: int, bound: int) -> int:
    """The largest w <= bound with (2w + 1)^m <= 10^6; the float root starts
    at most one above it."""
    w = min(bound, int(10 ** (6 / m) + 1) // 2)
    while (2 * w + 1) ** m > 10 ** 6:
        w -= 1
    return w


def _search_integer_point(f: IntPolynomial, bound: int) -> Optional[Tuple[int, ...]]:
    """The first zero of f in [-bound, bound]^m in lexicographic order, or
    None when there is none or the box has more than 10^6 points."""
    lows, highs = [-bound] * f.num_vars, [bound] * f.num_vars
    if box_point_count(lows, highs) > 10 ** 6:
        return None
    # blocks come in lexicographic order and are C-ordered inside
    for blo, vals in eval_on_box(f, lows, highs):
        hits = np.flatnonzero(vals == 0)
        if hits.size:
            return tuple(int(b + i) for b, i in zip(blo, np.unravel_index(hits[0], vals.shape)))
    return None


# ---------------------------------------------------------------------------
# Omega_infty construction with |Q_1| >> P^2


@dataclass
class LargeQBox:
    change: List[List[Fraction]]       # y = T z
    intervals: List[Tuple[Fraction, Fraction]]
    c_frozen: Fraction                 # verified |Q_1(y)| >= c P^2 on samples
    samples_checked: int


def box_with_large_Q(Q1: IntPolynomial, P: int = 100) -> LargeQBox:
    """Rational box (after a rational congruence change) on which the first
    quadratic stays >> P^2, with the constant measured on the integer
    sample points and frozen."""
    if Q1.is_zero():
        raise ValueError("Q_1 must be nonzero")
    k = Q1.num_vars
    Fq = QuadraticPolynomial.from_polynomial(Q1)
    t, diag = congruence_diagonalize(Fq.two_q)
    diag = [d / 2 for d in diag]   # T^t 2Q T = diag(2 d)
    nonzero = [(i, d) for i, d in enumerate(diag) if d != 0]
    pos = [(i, d) for i, d in nonzero if d > 0]
    neg = [(i, d) for i, d in nonzero if d < 0]
    main, small = (pos, neg) if len(pos) >= len(neg) else (neg, pos)
    intervals: List[Tuple[Fraction, Fraction]] = []

    def inv_sqrt(a: Fraction, up: bool) -> Fraction:
        # rational 1/sqrt(a), exact when a is a rational square, else
        # rounded inward by 1/1024; a > 0
        from math import isqrt

        rn, rd = isqrt(a.numerator), isqrt(a.denominator)
        if rn * rn == a.numerator and rd * rd == a.denominator:
            return Fraction(rd, rn)
        val = 1.0 / float(a) ** 0.5
        n = int(val * 1024)
        return Fraction(n + (1 if up else 0), 1024)

    # inward rounding: the lower endpoint rounds up, the upper rounds down,
    # so every claimed inequality survives the rational approximation
    for i in range(k):
        d = diag[i]
        if (i, d) in main:
            intervals.append((inv_sqrt(abs(d), up=True), 2 * inv_sqrt(abs(d), up=False)))
        elif (i, d) in small:
            s = inv_sqrt(4 * k * abs(d), up=False)
            intervals.append((inv_sqrt(16 * k * abs(d), up=True), s))
        else:
            intervals.append((Fraction(-1), Fraction(1)))
    change = [[Fraction(v) for v in row] for row in t]
    # verify |Q1| >= c P^2 on the integer sample and freeze c
    worst: Optional[Fraction] = None
    checked = 0
    grids = []
    for lo, hi in intervals:
        a = -(-(lo * P).numerator // (lo * P).denominator)
        b = (hi * P).numerator // (hi * P).denominator
        pick = list(range(a, b + 1, max(1, (b - a) // 3 or 1)))[:4] or [a]
        grids.append(pick)
    for z in iproduct(*grids):
        yv = [sum(v * zj for v, zj in zip(row, z)) for row in change]
        val = abs(Q1.evaluate(yv))
        ratio = val / (P * P)
        worst = ratio if worst is None else min(worst, ratio)
        checked += 1
    if worst is None or worst <= 0:
        raise ValueError("sampled box failed to keep Q_1 large")
    return LargeQBox(change, intervals, worst, checked)
