"""Geometry of numbers: kernel lattices of linear forms, exact LLL
reduction, exact shortest vectors, and exact / asymptotic counts of
lattice points on affine hyperplanes inside balls.

One kernel, `enumerate_quadratic`, walks {t : t^T G t + 2 w.t + c <= 0} for
positive-definite G: the outer levels recurse with integer Schur-complement
bounds from fraction-free (Bareiss) elimination, and each innermost row is
one isqrt of a discriminant stepped incrementally along t_1. Its leaves are
the ball counts (count plus samples, never point by point), the
representation numbers of the driver (exact roots) and exact shortest
vectors (minimum). A count without samples and the exact roots do levels 1
and 0 in one numpy int64 pass, after a bound check in Python integers that
falls back to the Python rows when an intermediate could leave int64; every
other path is Python integer arithmetic. Ball counts translate the shift
next to the ball's centre first, which keeps those intermediates small.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .linalg import unimodular_split
from .nt import count_quadratic_interval, solve_linear_diophantine, squarefree_divisors
from .volumes import _DEFAULT_TABLE


def dot(u: Sequence[int], v: Sequence[int]) -> int:
    return sum(a * b for a, b in zip(u, v))


def gram_matrix(basis: Sequence[Sequence[int]]) -> List[List[int]]:
    return [[dot(u, v) for v in basis] for u in basis]


def gram_det(basis: Sequence[Sequence[int]]) -> int:
    from .linalg import int_matrix_det

    return int_matrix_det(gram_matrix(basis))


# ---------------------------------------------------------------------------
# LLL over exact rationals


def lll_reduce(basis: Sequence[Sequence[int]], delta: Fraction = Fraction(3, 4)):
    """LLL-reduced basis of the same lattice plus the unimodular transform.

    Integral (fraction-free) variant tracking the scaled Gram-Schmidt data
    d[i], lambda[i][j]; returns (reduced, U) with
    reduced[i] = sum_j U[i][j] basis[j].
    """
    b = [list(map(int, v)) for v in basis]
    k_dim = len(b)
    if k_dim == 0:
        return [], []
    if k_dim == 1:
        return [list(b[0])], [[1]]
    u = [[1 if i == j else 0 for j in range(k_dim)] for i in range(k_dim)]
    delta = Fraction(delta)
    dn, dd = delta.numerator, delta.denominator
    d = [0] * (k_dim + 1)
    d[0] = 1
    lam = [[0] * k_dim for _ in range(k_dim)]

    def gso_row(k):
        for j in range(k + 1):
            val = dot(b[k], b[j])
            for i in range(j):
                val = (d[i + 1] * val - lam[k][i] * lam[j][i]) // d[i]
            if j < k:
                lam[k][j] = val
            else:
                if val <= 0:
                    raise ValueError("basis is not independent")
                d[k + 1] = val

    def redi(k, l):
        two = 2 * lam[k][l]
        if abs(two) > d[l + 1]:
            q = (two + d[l + 1]) // (2 * d[l + 1]) if two > 0 else -((-two + d[l + 1]) // (2 * d[l + 1]))
            if q:
                b[k] = [x - q * y for x, y in zip(b[k], b[l])]
                u[k] = [x - q * y for x, y in zip(u[k], u[l])]
                lam[k][l] -= q * d[l + 1]
                for i in range(l):
                    lam[k][i] -= q * lam[l][i]

    d[1] = dot(b[0], b[0])
    if d[1] <= 0:
        raise ValueError("basis is not independent")
    kmax = 0
    k = 1
    while k < k_dim:
        if k > kmax:
            kmax = k
            gso_row(k)
        redi(k, k - 1)
        lam_ = lam[k][k - 1]
        # Lovasz: swap iff d[k+1] d[k-1] < delta d[k]^2 - lam^2
        if dd * d[k + 1] * d[k - 1] < dn * d[k] * d[k] - dd * lam_ * lam_:
            b[k], b[k - 1] = b[k - 1], b[k]
            u[k], u[k - 1] = u[k - 1], u[k]
            for j in range(k - 1):
                lam[k][j], lam[k - 1][j] = lam[k - 1][j], lam[k][j]
            new_dk = (d[k - 1] * d[k + 1] + lam_ * lam_) // d[k]
            for i in range(k + 1, kmax + 1):
                t = lam[i][k]
                lam[i][k] = (d[k + 1] * lam[i][k - 1] - lam_ * t) // d[k]
                lam[i][k - 1] = (new_dk * t + lam_ * lam[i][k]) // d[k + 1]
            d[k] = new_dk
            k = max(k - 1, 1)
        else:
            for l in range(k - 2, -1, -1):
                redi(k, l)
            k += 1
    return b, u


# ---------------------------------------------------------------------------
# exact enumeration of {t : t^t G t + 2 w.t + c <= 0} over t in Z^k


class QuadraticSolvedLevels:
    """Integer Schur-complement bound quadratics for positive-definite G.

    P_j = Delta_j * (min over t_0..t_{j-1} of Q) is an integer quadratic in
    (t_j, ..., t_{k-1}), with Delta_j the leading principal j-minor of G; its
    t_j-interval bounds drive the outer levels of `enumerate_quadratic`.
    The levels come from fraction-free (Bareiss) elimination of the integer
    homogenised matrix [[G, w], [w^T, c]]: after j steps each entry is
    Delta_j times the Schur complement, so every division by the previous
    pivot is exact (Sylvester's identity).
    """

    def __init__(self, G: Sequence[Sequence[int]], w: Sequence[int], c: int):
        self.k = len(G)
        # mat is the symmetric matrix of P_j in (t_j..t_{k-1}, 1)
        mat = [[int(v) for v in row] + [int(wi)] for row, wi in zip(G, w)]
        mat.append([int(v) for v in w] + [int(c)])
        self.levels = []
        prev = 1
        for j in range(self.k):
            piv = mat[0][0]  # Delta_{j+1}; all > 0 iff G is positive definite
            if piv <= 0:
                raise ValueError("Gram matrix is not positive definite")
            self.levels.append(self._extract_level(mat, j))
            mat = [[(piv * x - row[0] * y) // prev for x, y in zip(row[1:], mat[0][1:])]
                   for row in mat[1:]]
            prev = piv

    @staticmethod
    def _extract_level(mat, j):
        # flattened upper triangle of the block after t_j, off-diagonals doubled
        size = len(mat)
        rest = tuple((i - 1, l - 1, v if i == l else 2 * v)
                     for i in range(1, size) for l in range(i, size) if (v := mat[i][l]))
        return {"a": mat[0][0], "lin": tuple(mat[0][1:]), "rest": rest, "j": j}

    def quadratic_at(self, j: int, outer: Sequence[int]) -> Tuple[int, int, int]:
        """(a, bq, cq) with P_j = a t_j^2 + 2 bq t_j + cq at outer."""
        lev = self.levels[j]
        vec = tuple(outer) + (1,)
        bq = 0
        for l, v in zip(lev["lin"], vec):
            bq += l * v
        cq = 0
        for i, l, c in lev["rest"]:
            cq += c * vec[i] * vec[l]
        return lev["a"], bq, cq

    def bounds_at(self, j: int, outer: Sequence[int]) -> Tuple[int, int, int]:
        """(count, lo, hi) for t_j given outer = (t_{j+1}, ..., t_{k-1})."""
        a, bq, cq = self.quadratic_at(j, outer)
        return count_quadratic_interval(a, 2 * bq, cq)


def enumerate_quadratic(
    G: Sequence[Sequence[int]], w: Sequence[int], c: int, leaf: str = "count", sample_limit: int = 0
) -> Tuple[Optional[int], List[Tuple[int, ...]]]:
    """One exact enumeration of {t in Z^k : Q(t) = t^T G t + 2 w.t + c <= 0},
    for positive-definite G and k >= 1 (Fincke-Pohst interval recursion).

    The outer levels take their t_j-interval from `bounds_at`. The last
    level the recursion visits (level 1, or level 2 for the int64 count
    below) takes its interval and its set-up from one `quadratic_at`.
    Level 0 makes no call per row. Its row is Q = a0 t_0^2 + 2 bq t_0 + cq, and bq and the
    reduced discriminant D = bq^2 - a0 cq are polynomials in t_1 (D = -P_1),
    stepped by finite differences along the level-1 interval, where D >= 0.
    The row is [ceil((-bq - s) / a0), floor((-bq + s) / a0)] with
    s = isqrt(D), exactly: floor(x / a) = floor(floor(x) / a) for integer
    a > 0. Leaves, in enumeration order (t_{k-1} outermost, each level
    ascending), return (value, points):

      "count"  (#solutions, the first sample_limit solutions)
      "roots"  (#roots, every t with Q(t) = 0): D a square, a0 | -bq +- s
      "min"    (min Q(t) over t != 0, [first minimiser]), or (None, [])

    "count" with sample_limit = 0 and "roots", for k >= 3, stop the
    recursion at level 2 and hand every level-2 interval to `_levels_1_0`,
    which counts levels 1 and 0, or lists their roots in the same order, in
    numpy int64; when its bound check fails, the same intervals go through
    the Python rows.
    """
    solver = QuadraticSolvedLevels(G, w, c)
    k, a0, lin0 = solver.k, solver.levels[0]["a"], solver.levels[0]["lin"]
    # bq = b1 t_1 + (terms in t_2, ...); D steps by dD, which steps by dd
    b1, dd = (lin0[0], -2 * solver.levels[1]["a"]) if k > 1 else (0, 0)
    points: List[Tuple[int, ...]] = []
    value = None if leaf == "min" else 0

    def count_rows(lo, hi, bq, D, dD, outer):
        nonlocal value
        n = 0
        for t1 in range(lo, hi + 1):
            s = isqrt(D)
            row = (s - bq) // a0 + (s + bq) // a0 + 1
            if row and len(points) < sample_limit:
                first = -((s + bq) // a0)
                points.extend((t0, t1) + outer for t0 in
                              range(first, first + min(row, sample_limit - len(points))))
            n += row
            bq, D, dD = bq + b1, D + dD, dD + dd
        value += n

    def root_rows(lo, hi, bq, D, dD, outer):
        nonlocal value
        for t1 in range(lo, hi + 1):
            s = isqrt(D)
            if s * s == D:
                for num in (-s - bq, s - bq) if s else (-bq,):
                    if num % a0 == 0:
                        points.append((num // a0, t1) + outer)
                        value += 1
            bq, D, dD = bq + b1, D + dD, dD + dd

    def min_rows(lo, hi, bq, D, dD, outer):
        nonlocal value
        for t1 in range(lo, hi + 1):
            s = isqrt(D)
            for t0 in range(-((s + bq) // a0), (s - bq) // a0 + 1):
                u = a0 * t0 + bq
                q = (u * u - D) // a0  # = Q(t), exactly
                if (value is None or q < value) and (t0 or t1 or any(outer)):
                    value, points[:] = q, [(t0, t1) + outer]
            bq, D, dD = bq + b1, D + dD, dD + dd

    rows = {"count": count_rows, "roots": root_rows, "min": min_rows}[leaf]
    # batch: (#t_2, P_2, its step, b of P_1, bq - b1 t_1), all at t_2 = lo,
    # then lo and the outer coordinates for the roots and the fallback
    batch = [] if (leaf == "roots" or leaf == "count" and not sample_limit) and k > 2 else None
    top = 1 if batch is None else 2

    def descend(j, outer):
        if j > top:
            _, lo, hi = solver.bounds_at(j, outer)
            for tj in range(lo, hi + 1):
                descend(j - 1, (tj,) + outer)
            return
        a, b, cq = solver.quadratic_at(j, outer)  # P_j = a t_j^2 + 2 b t_j + cq
        cnt, lo, hi = count_quadratic_interval(a, 2 * b, cq)
        if not cnt:
            return
        vec = (lo,) + outer + (1,)
        P, dP = (a * lo + 2 * b) * lo + cq, a * (2 * lo + 1) + 2 * b
        if j == 2:
            batch.append((cnt, P, dP, dot(solver.levels[1]["lin"], vec), dot(lin0[1:], vec), lo, outer))
        else:
            rows(lo, hi, dot(lin0, vec), -P, -dP, outer)

    if k > 1:
        descend(k - 1, ())
    else:
        _, bq, cq = solver.quadratic_at(0, ())
        if bq * bq >= a0 * cq:
            rows(0, 0, bq, bq * bq - a0 * cq, 0, ())
            points = [t[:1] for t in points]  # drop the phantom t_1 = 0
    if batch:
        found = _levels_1_0(batch, solver, leaf == "roots")
        if found is None:
            for cnt, *_, lo, outer in batch:
                for t2 in range(lo, lo + cnt):
                    descend(1, (t2,) + outer)
        elif leaf == "roots":
            points += found
            value += len(found)
        else:
            value += found
    return value, points


_INT64_SAFE = 2 ** 62
_ROW_CHUNK = 1 << 16


def _isqrt64(x: np.ndarray) -> np.ndarray:
    """floor(sqrt(x)) for int64 0 <= x < 2^62: the float square root is
    within 1 of it there, and one exact step each way corrects it. (With a
    correctly rounded sqrt only the downward step can fire; the upward one
    keeps the result exact without relying on that.)"""
    s = np.sqrt(x.astype(np.float64)).astype(np.int64)
    s -= s * s > x
    s += (s + 1) * (s + 1) <= x
    return s


def _levels_1_0(batch, solver: QuadraticSolvedLevels, roots: bool = False):
    """Levels 1 and 0 below the level-2 intervals of `batch` (built by
    `enumerate_quadratic`) in one int64 pass: the number of points, or with
    roots=True the list of roots in enumeration order; None when the bound
    check finds an intermediate that could reach 2^62.

    Along t_2 = lo + i, P_2 = P + i (dP + a2 (i - 1)) <= 0, and level 1's
    reduced discriminant is d1 = b^2 - a1 c1 = -a0 P_2 (Sylvester), so
    t_1 runs over |u| <= isqrt(d1) with u = a1 t1 + b. Level 0's discriminant
    is D = -P_1 = (d1 - u^2) / a1, an exact division, and a row is counted
    or tested for roots as in the Python rows. The bounds below cover every
    array value from the batch maxima, in Python integers; the check is an
    `if`, so it holds under `python -O`.
    """
    lev0, lev1, lev2 = solver.levels[:3]
    a0, a1, a2 = lev0["a"], lev1["a"], lev2["a"]
    b1, db, dbeta = lev0["lin"][0], lev1["lin"][0], lev0["lin"][1]
    cols = list(zip(*batch))
    N = max(cols[0])
    mP, mdP, mb, mbeta, mlo = (max(map(abs, col)) for col in cols[1:6])
    BP = mP + N * (mdP + a2 * N)  # |P_2| and its partial terms
    BD = a0 * BP  # d1, u^2, d1 - u^2
    S = isqrt(BD) + 1  # isqrt(d1), isqrt(D)
    Bb = mb + abs(db) * N
    T = (S + Bb) // a1 + 2  # |t_1|
    Bq = abs(b1) * T + mbeta + abs(dbeta) * N  # |bq|
    row = 2 * (S + Bq) // a0 + 1  # one row's count
    rows = _ROW_CHUNK + 2 * S // a1 + 1  # rows summed at once
    if max(BD, a1 * T + Bb, S + Bq, row * rows, mlo + N) >= _INT64_SAFE:
        return None

    n, P, dP, b, beta, lo = (np.array(col, dtype=np.int64) for col in cols[:6])
    node = np.repeat(np.arange(len(n)), n)
    i = np.arange(len(node)) - np.repeat(np.cumsum(n) - n, n)
    P2 = P[node] + i * (dP[node] + a2 * (i - 1))
    d1 = -a0 * P2
    b = b[node] + db * i
    beta = beta[node] + dbeta * i
    s1 = _isqrt64(d1)
    lo1 = -((s1 + b) // a1)
    m = np.maximum((s1 - b) // a1 - lo1 + 1, 0)
    # level-1 nodes in slices of at most _ROW_CHUNK rows plus one node's
    ends = np.cumsum(m)
    cuts = np.searchsorted(ends, np.arange(_ROW_CHUNK, int(ends[-1]), _ROW_CHUNK), side="right")
    total, found = 0, []
    for s, e in zip([0, *cuts.tolist()], [*cuts.tolist(), len(m)]):
        ms = m[s:e]
        r = np.repeat(np.arange(s, e), ms)
        t1 = lo1[r] + (np.arange(len(r)) - np.repeat(np.cumsum(ms) - ms, ms))
        u = a1 * t1 + b[r]
        D = (d1[r] - u * u) // a1
        sq = _isqrt64(D)
        bq = b1 * t1 + beta[r]
        if not roots:
            total += int(((sq - bq) // a0 + (sq + bq) // a0 + 1).sum())
            continue
        # per row, t_0 = (-s - bq) / a0 before (s - bq) / a0, the second
        # only when s > 0; nonzero reads them in that order
        num = np.stack((-sq - bq, sq - bq), axis=1)
        hit = (sq * sq == D)[:, None] & (num % a0 == 0)
        hit[:, 1] &= sq > 0
        hr, side = np.nonzero(hit)
        p = r[hr]
        pts = np.stack((num[hr, side] // a0, t1[hr], lo[node[p]] + i[p]), axis=1).tolist()
        found += [tuple(t) + batch[j][6] for t, j in zip(pts, node[p].tolist())]
    return found if roots else total


def _centred_shift(basis, gram, shift) -> List[int]:
    """shift + sum t_i basis_i with t the rounded float solution of
    gram t = -(basis_i . shift): the point of the coset shift + lattice
    next to the origin, up to rounding. Any integer t keeps the coset, so
    a poor float solve costs magnitude only; one that fails keeps shift."""
    try:
        t = np.rint(np.linalg.solve(np.array(gram, dtype=np.float64),
                                    -np.array([dot(u, shift) for u in basis], dtype=np.float64)))
    except (OverflowError, np.linalg.LinAlgError):
        return list(shift)
    if not np.isfinite(t).all():
        return list(shift)
    t = [int(v) for v in t]
    return [s + dot(t, col) for s, col in zip(shift, zip(*basis))]


def count_affine_points_in_ball(
    basis: Sequence[Sequence[int]],
    shift: Sequence[int],
    radius2: Fraction,
    sample_limit: int = 0,
) -> Tuple[int, List[Tuple[int, ...]]]:
    """#{shift + sum t_i basis_i : ||.||_2^2 <= radius2}, plus samples as
    ambient vectors.

    The shift is first moved by the lattice vector that brings it next to
    the ball's centre. A translation by a lattice vector shifts every t by
    the same integer vector, which keeps the count and the lexicographic
    enumeration order, so the samples are the same points."""
    radius2 = Fraction(radius2)
    if radius2 < 0:
        return 0, []
    k = len(basis)
    if k == 0:
        ok = Fraction(dot(shift, shift)) <= radius2
        return (1 if ok else 0), ([tuple(shift)] if ok and sample_limit else [])
    gram = gram_matrix(basis)
    shift = _centred_shift(basis, gram, shift)
    den = radius2.denominator
    G = [[den * v for v in row] for row in gram]
    w = [den * dot(u, shift) for u in basis]
    c = den * dot(shift, shift) - radius2.numerator
    count, tsamples = enumerate_quadratic(G, w, c, "count", sample_limit)
    points = []
    for t in tsamples:
        points.append(tuple(s + sum(t[i] * basis[i][j] for i in range(k)) for j, s in enumerate(shift)))
    return count, points


# ---------------------------------------------------------------------------
# lattices


class IntegerLattice:
    """Full-precision integer lattice of any rank in Z^n."""

    def __init__(self, basis: Sequence[Sequence[int]]):
        b = [tuple(int(x) for x in v) for v in basis]
        if not b:
            raise ValueError("empty basis")
        n = len(b[0])
        if any(len(v) != n for v in b):
            raise ValueError("ragged basis")
        self.ambient = n
        self.rank = len(b)
        self.basis = b
        if gram_det(b) <= 0:
            raise ValueError("basis vectors are dependent")
        self._reduced: Optional[List[List[int]]] = None
        self._lambda1_sq: Optional[int] = None

    def covolume_squared(self) -> int:
        return gram_det(self.basis)

    def reduced_basis(self) -> List[List[int]]:
        if self._reduced is None:
            self._reduced, _ = lll_reduce(self.basis)
        return self._reduced

    def shortest_vector_exact(self, max_rank: int = 8) -> Tuple[int, Tuple[int, ...]]:
        """(lambda_1^2, vector) by enumeration below the first reduced vector."""
        if self.rank > max_rank:
            raise ValueError(f"rank {self.rank} exceeds exact-SVP budget {max_rank}")
        red = self.reduced_basis()
        best_vec = min(red, key=lambda v: dot(v, v))
        bound = dot(best_vec, best_vec)
        # the region holds best_vec's coefficient vector, so low <= 0
        low, ts = enumerate_quadratic(gram_matrix(red), [0] * self.rank, -bound, "min")
        best = low + bound
        if low < 0:
            best_vec = [dot(ts[0], col) for col in zip(*red)]
        self._lambda1_sq = best
        return best, tuple(best_vec)

    def lambda1_squared_lower_bound(self, max_rank: int = 8) -> Fraction:
        """Exact lambda_1^2 when the rank budget allows, else the LLL bound
        ||b_1||^2 / 2^(k-1)."""
        if self.rank <= max_rank:
            if self._lambda1_sq is None:
                self.shortest_vector_exact(max_rank)
            return Fraction(self._lambda1_sq)
        red = self.reduced_basis()
        first = min(dot(v, v) for v in red)
        return Fraction(first, 2 ** (self.rank - 1))


def kernel_lattice(a: Sequence[int]) -> IntegerLattice:
    """Lambda_a = {x in Z^n : <a, x> = 0}; rank n-1; for primitive a the
    Gram determinant equals ||a||_2^2. The basis is columns 1.. of U from
    the unimodular split [a] U = [g | 0]."""
    a = [int(v) for v in a]
    if all(v == 0 for v in a):
        raise ValueError("zero vector has no kernel lattice of rank n-1")
    if len(a) == 1:
        raise ValueError("kernel of a nonzero form on Z^1 is trivial")
    _, u = unimodular_split([a])
    return IntegerLattice(list(zip(*u))[1:])


# ---------------------------------------------------------------------------
# hyperplane counts


@dataclass(frozen=True)
class HyperplaneCount:
    exact: int
    samples: Tuple[Tuple[int, ...], ...] = ()


def hyperplane_count_exact(
    a: Sequence[int],
    b: int,
    B,
    g: int | None = None,
    sample_limit: int = 0,
) -> HyperplaneCount:
    """N(a, b, B) = #{x : (||x||^2 + 1)^(1/2) <= B and <a, x> + b = 0}.

    With g, counts only x with gcd(x, g) = 1 via Mobius inclusion-exclusion
    on exactly scaled balls (x = d x' needs d | b and ||x'||^2 <= (B^2-1)/d^2),
    which reproduces direct filtered enumeration exactly. g = 0 and B < 0
    raise ValueError.
    """
    a = [int(v) for v in a]
    if gcd(*a) != 1:
        raise ValueError("a must be primitive")
    if B < 0:
        raise ValueError(f"B must be nonnegative, got {B}")
    if g == 0:
        raise ValueError("g must be nonzero: gcd(x, 0) = 1 would need a primitivity filter")
    R2 = Fraction(B) ** 2 - 1
    if g is None or g == 1:
        return _hyperplane_count_r2(a, b, R2, sample_limit)
    total = 0
    samples: List[Tuple[int, ...]] = []
    for d, mu in squarefree_divisors(g):
        if b % d:
            continue
        sub = _hyperplane_count_r2(a, b // d, R2 / (d * d), sample_limit if d == 1 else 0)
        total += mu * sub.exact
        if d == 1:
            samples = list(sub.samples)
    return HyperplaneCount(total, tuple(samples))


def _hyperplane_count_r2(a, b, R2: Fraction, sample_limit=0) -> HyperplaneCount:
    if R2 < 0:
        return HyperplaneCount(0)
    shift = solve_linear_diophantine(list(a), -b)
    if shift is None:
        return HyperplaneCount(0)
    count, pts = count_affine_points_in_ball(_reduced_kernel_basis(tuple(a)), shift, R2, sample_limit)
    return HyperplaneCount(count, tuple(pts))


@lru_cache(maxsize=1024)
def _reduced_kernel_basis(a: Tuple[int, ...]) -> Tuple[Tuple[int, ...], ...]:
    """LLL-reduced basis of kernel_lattice(a), once per hyperplane: a
    fibration count meets the same fibre at every B of its ladder."""
    return tuple(map(tuple, kernel_lattice(a).reduced_basis()))


# frozen after measurement on the calibration family (max observed ratio
# |exact - main| / sum_j B^j lambda_1^-j was under 3.1 for n <= 4)
LATTICE_ERROR_CONSTANT = 8


@dataclass(frozen=True)
class HyperplaneAsymptotic:
    main: float
    err_eta: float
    err_lambda: float
    lambda1_sq: Fraction
    lambda1_is_exact: bool

    @property
    def budget(self) -> float:
        return self.err_eta + self.err_lambda


def hyperplane_count_asymptotic(
    a: Sequence[int], b: int, B, eta: Fraction = Fraction(1, 2)
) -> HyperplaneAsymptotic:
    """Main term c(n-1) B^(n-1) / ||a||_2 with explicit error budgets.

    err_eta is the exact volume deficit from the b-offset and the +1 in
    the height normalization; err_lambda is the lattice boundary budget
    K * sum_{j<=n-2} B^j / lambda_1^j with the frozen constant K.
    Precondition: B >= (|b| / ||a||_2)^(1/(1-eta)); B < 0 raises ValueError.
    """
    a = [int(v) for v in a]
    n = len(a)
    B = Fraction(B)
    if B < 0:
        raise ValueError(f"B must be nonnegative, got {B}")
    eta = Fraction(eta)
    norm2 = dot(a, a)
    # exact precondition check: |b|^(2q) <= (B^2)^(q-p) * (||a||^2)^q
    p_, q_ = eta.numerator, eta.denominator
    if abs(b) > 0 and Fraction(abs(b)) ** (2 * q_) > (B * B) ** (q_ - p_) * Fraction(norm2) ** q_:
        raise ValueError("B below the (|b|/||a||)^(1/(1-eta)) threshold")
    table = _DEFAULT_TABLE
    c = table.constant_float(n - 1)
    norm = norm2 ** 0.5
    main = c * float(B) ** (n - 1) / norm
    rho2 = float(B * B - 1) - b * b / norm2
    rho2 = max(rho2, 0.0)
    true_vol = c * rho2 ** ((n - 1) / 2) / norm
    err_eta = abs(main - true_vol)
    lat = kernel_lattice(a)
    l1sq = lat.lambda1_squared_lower_bound()
    l1 = float(l1sq) ** 0.5
    err_lambda = LATTICE_ERROR_CONSTANT * sum(
        float(B) ** j / l1 ** j for j in range(n - 1)
    )
    return HyperplaneAsymptotic(main, err_eta, err_lambda, l1sq, lat.rank <= 8)
