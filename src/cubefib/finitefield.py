"""Point counts for quadratic polynomials over F_p and Z/p^t: the exact
Gauss-sum closed form, brute-force oracles, Davenport-Hensel lifting
bounds, p-adic nonsingular witness search, and Legendre-symbol value
counts."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from . import gridcount
from .fibration import FalsificationAlarm
from .gridcount import BudgetExceeded, check_budget
from .linalg import QuadraticPolynomial, congruence_diagonalize
from .nt import is_prime, jacobi_symbol
from .polynomials import IntPolynomial


@dataclass(frozen=True)
class GaussSumData:
    """Exact ingredients of the closed-form count at an odd prime."""

    p: int
    r: int                 # rank of the quadratic part mod p
    jacobi_det: int        # (prod of diagonal pivots / p)
    w: int                 # 4N - B^t M^{-1} B mod p, 2Q-block inverse sense
    kappa: int             # 1 iff p | w
    gauss_term: int        # eps_p^r (det/p) p^(m-r/2-1) K_r(w;p), an integer
    case: str              # "linear-unit" or "gauss"


@dataclass(frozen=True)
class QuadricCount:
    nonsingular: int
    total: int
    data: GaussSumData


def count_quadric_mod_p_closed_form(F: QuadraticPolynomial, p: int) -> QuadricCount:
    """Exact (nonsingular, total) counts of F = 0 over F_p^m, p odd.

    Q mod p is diagonalized by R with its r nonzero pivots first, and the
    linear part becomes D = R^t B mod p (`congruence_diagonalize` refuses
    p = 2). Assembles p^(m-1) + eps_p^r (det/p) p^(m-r/2-1) K_r(w; p) as an
    exact integer; the singular correction is kappa_p * p^(m-r). If the
    reduced linear part has a unit coefficient outside the rank block, both
    counts are exactly p^(m-1).
    """
    if not is_prime(p):
        raise ValueError("p must be prime")
    m = F.m
    if m == 0:
        raise ValueError("need at least one variable")
    inv2 = (p + 1) // 2
    R, diag = congruence_diagonalize([[v * inv2 % p for v in row] for row in F.two_q], p)
    D = [sum(R[i][j] * F.B[i] for i in range(m)) % p for j in range(m)]
    r = sum(1 for d in diag if d)
    if any(D[i] for i in range(r, m)):
        data = GaussSumData(p, r, 0, 0, 0, 0, "linear-unit")
        c = p ** (m - 1)
        return QuadricCount(c, c, data)
    det_part = 1
    w = 4 * F.N % p
    for i in range(r):
        det_part = det_part * diag[i] % p
        inv_a = pow(diag[i], p - 2, p)
        w = (w - inv_a * D[i] * D[i]) % p
    jac = jacobi_symbol(det_part, p) if r else 1
    if r % 2:
        # K_r = eps_p (w/p) sqrt(p); eps_p^(r+1) is a sign
        sign = (-1) ** (((r + 1) // 2) % 2) if p % 4 == 3 else 1
        gauss = sign * jac * jacobi_symbol(w, p) * p ** (m - (r + 1) // 2)
    else:
        sign = (-1) ** ((r // 2) % 2) if p % 4 == 3 else 1
        k_val = (p - 1) if w == 0 else -1
        gauss = sign * jac * k_val * p ** (m - r // 2 - 1)
    kappa = 1 if w == 0 else 0
    total = p ** (m - 1) + gauss
    nonsingular = total - kappa * p ** (m - r)
    if not 0 <= nonsingular <= total:
        raise FalsificationAlarm(
            f"assembled nonsingular count {nonsingular} is outside [0, {total}]")
    data = GaussSumData(p, r, jac, w, kappa, gauss, "gauss")
    return QuadricCount(nonsingular, total, data)


def _as_poly(F) -> IntPolynomial:
    if isinstance(F, QuadraticPolynomial):
        return F.to_polynomial()
    if isinstance(F, IntPolynomial):
        return F
    raise TypeError("expected IntPolynomial or QuadraticPolynomial")


def count_mod_q_bruteforce(
    F,
    q: int,
    nonsingular_only: bool = False,
) -> int:
    """Exact count by full enumeration of (Z/q)^m."""
    poly = _as_poly(F)
    if nonsingular_only:
        from .nt import factorize

        fac = factorize(q)
        if len(fac) != 1:
            raise ValueError("nonsingular counting requires a prime-power modulus")
        (p, _), = fac.items()
        return gridcount.count_zeros_mod_q(poly, q, nonsingular_p=p)
    return gridcount.count_zeros_mod_q(poly, q)


# ---------------------------------------------------------------------------
# p-adic witnesses and Hensel lifting


@dataclass(frozen=True)
class PadicWitness:
    p: int
    v: int
    residues: Tuple[int, ...]   # point mod p^(2v-1)
    index: int                  # coordinate whose partial is nonzero mod p^v

    def verify(self, C: IntPolynomial) -> bool:
        """Re-check both defining congruences directly."""
        mod = self.p ** (2 * self.v - 1)
        if C.evaluate_mod(self.residues, mod) != 0:
            return False
        if not 0 <= self.index < C.num_vars:
            return False
        return C.derivative(self.index).evaluate_mod(self.residues, self.p ** self.v) != 0


def _x_partials(C: IntPolynomial, x_indices: Sequence[int] | None):
    idx = tuple(x_indices) if x_indices is not None else tuple(range(C.num_vars))
    return [(i, C.derivative(i)) for i in idx]


def _witness_scan(C: IntPolynomial, p: int, v: int, grads, budget: int | None):
    """Witnesses mod p^(2v-1) in lexicographic order, one grid block at a
    time: yields (lows, good, first_index), where good marks the zeros of C
    mod p^(2v-1) in the block with corner lows at which some partial of
    grads, a list of (index, derivative) pairs, is nonzero mod p^v, and
    first_index holds the first such index for each, in C order."""
    m = C.num_vars
    q = p ** (2 * v - 1)
    pv = p ** v
    check_budget(q ** m, budget)
    lows, highs = [0] * m, [q - 1] * m
    value = gridcount._evaluator(C, lows, highs, q)
    partials = [(i, gridcount._evaluator(g, lows, highs, pv)) for i, g in grads]
    for blo, bhi in gridcount._blocks(lows, highs):
        zero = value(blo, bhi) == 0
        if not zero.any():
            continue
        first_index = np.full(zero.shape, -1, dtype=np.int64)
        for i, partial in partials:
            first_index[(first_index < 0) & (partial(blo, bhi) != 0)] = i
        good = zero & (first_index >= 0)
        yield blo, good, first_index[good]


def find_padic_nonsingular(
    C: IntPolynomial,
    p: int,
    v_max: int,
    x_indices: Sequence[int] | None = None,
    budget: int | None = None,
) -> Optional[PadicWitness]:
    """Breadth-first witness search: increasing v, lexicographic residues.

    Returns the first (x, r) mod p^(2v-1) with C = 0 mod p^(2v-1) and some
    x-block partial nonzero mod p^v, or None if v_max is exhausted.
    """
    grads = _x_partials(C, x_indices)
    if all(g.is_zero() for _, g in grads):
        raise ValueError("all x-partials vanish identically")
    for v in range(1, v_max + 1):
        for lows, good, first_index in _witness_scan(C, p, v, grads, budget):
            if first_index.size:
                first = np.unravel_index(int(np.argmax(good)), good.shape)
                point = tuple(lo + int(i) for lo, i in zip(lows, first))
                return PadicWitness(p, v, point, int(first_index[0]))
    return None


def count_witnesses(C: IntPolynomial, p: int, v: int, budget: int | None = None) -> int:
    """#{x mod p^(2v-1) : C = 0 mod p^(2v-1), some partial != 0 mod p^v}."""
    grads = _x_partials(C, None)
    return sum(int(first_index.size)
               for _, _, first_index in _witness_scan(C, p, v, grads, budget))


@dataclass(frozen=True)
class HenselCount:
    p: int
    t: int
    exact: Optional[int]
    certified_lower: Optional[int]
    v: Optional[int]
    witness_count: Optional[int]


def hensel_count(
    F,
    p: int,
    t: int,
    budget: int | None = None,
    v_max: int = 3,
) -> HenselCount:
    """Solution count mod p^t plus a Davenport-Hensel certified lower bound.

    The certified bound is W * p^((t - (2v-1))(m-1)) where W counts
    witnesses mod p^(2v-1); for t < 2v-1 it degrades to 1 if W > 0.
    """
    poly = _as_poly(F)
    m = poly.num_vars
    exact = None
    try:
        exact = gridcount.count_zeros_mod_q(poly, p ** t, budget)
    except BudgetExceeded:
        pass
    # one scan per level: the first level with witnesses is v, its count W
    v = wcount = None
    if not all(g.is_zero() for g in poly.gradient()):
        try:
            for level in range(1, v_max + 1):
                n = count_witnesses(poly, p, level, budget=budget)
                if n:
                    v, wcount = level, n
                    break
        except BudgetExceeded:
            pass
    certified = None
    if wcount:
        certified = wcount * p ** ((t - (2 * v - 1)) * (m - 1)) if t >= 2 * v - 1 else 1
    if exact is None and certified is None:
        raise BudgetExceeded("neither exact nor certified count computable")
    if exact is not None and certified is not None and certified > exact:
        raise FalsificationAlarm("certified bound exceeds exact count; arithmetic bug")
    return HenselCount(p, t, exact, certified, v, wcount)


# ---------------------------------------------------------------------------
# Legendre-symbol value counts (character sums)


@dataclass(frozen=True)
class KatzCount:
    p: int
    m: int
    count_plus: int     # #{x : (f(x)/p) = 1}
    count_zero: int     # #{x : f(x) = 0}
    S: int              # sum of chi(f(x))

    def identity_holds(self) -> bool:
        return 2 * self.count_plus == self.p ** self.m + self.S - self.count_zero


def quadratic_residue_value_count(f: IntPolynomial, p: int) -> KatzCount:
    plus, minus, zero = gridcount.character_sum_counts(f, p)
    return KatzCount(p, f.num_vars, plus, zero, plus - minus)
