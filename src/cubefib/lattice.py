"""Geometry of numbers: exact / asymptotic counts of lattice points on
affine hyperplanes <a, x> + b = 0 inside balls. A lattice is a plain basis,
a tuple of int tuples: `kernel_lattice(a)` spans {x : <a, x> = 0}, its exact
LLL reduction (`lll_reduce`) is memoised per hyperplane, and
`shortest_vector` gives the exact lambda_1^2 of a reduced basis.

One kernel, `enumerate_quadratic`, walks {t : t^T G t + 2 w.t + c <= 0} for
positive-definite G: the outer levels recurse with integer Schur-complement
bounds from fraction-free (Bareiss) elimination, and each innermost row is
one isqrt of a discriminant stepped incrementally along t_1. Its leaves are
the ball counts (count plus samples), the representation numbers of the
driver (exact roots) and exact shortest vectors (minimum). Counts and roots
run in batches (`enumerate_quadratics`): a fibration rung hands all its
hyperplanes, Mobius terms and sample requests to one `hyperplane_counts`
call, and each system enters one numpy int64 pass at the highest level its
pivots bound; a system that no level bounds, and the minimum, take the
Python rows. Ball shifts are first moved next to the centre.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt
from operator import mul
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .linalg import int_matrix_det, unimodular_split
from .nt import count_quadratic_interval, solve_linear_diophantine, squarefree_divisors
from .volumes import _DEFAULT_TABLE


def dot(u: Sequence[int], v: Sequence[int]) -> int:
    return sum(map(mul, u, v))


def gram_matrix(basis: Sequence[Sequence[int]]) -> List[List[int]]:
    return [[dot(u, v) for v in basis] for u in basis]


def gram_det(basis: Sequence[Sequence[int]]) -> int:
    return int_matrix_det(gram_matrix(basis))


# ---------------------------------------------------------------------------
# LLL over exact rationals


# the Lovasz constant of lll_reduce
_LLL_DELTA = Fraction(3, 4)


def lll_reduce(basis: Sequence[Sequence[int]]) -> List[List[int]]:
    """LLL-reduced basis of the same lattice.

    Integral (fraction-free) variant tracking the scaled Gram-Schmidt data
    d[i], lambda[i][j]; a dependent basis of two or more vectors raises
    ValueError.
    """
    b = [list(map(int, v)) for v in basis]
    k_dim = len(b)
    if k_dim < 2:
        return b
    dn, dd = _LLL_DELTA.numerator, _LLL_DELTA.denominator
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
    return b


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
            self.levels.append(self._extract_level(mat))
            mat = [[(piv * x - row[0] * y) // prev for x, y in zip(row[1:], mat[0][1:])]
                   for row in mat[1:]]
            prev = piv

    @staticmethod
    def _extract_level(mat):
        # flattened upper triangle of the block after t_j, off-diagonals doubled
        size = len(mat)
        rest = tuple((i - 1, l - 1, v if i == l else 2 * v)
                     for i in range(1, size) for l in range(i, size) if (v := mat[i][l]))
        return {"a": mat[0][0], "lin": tuple(mat[0][1:]), "rest": rest}

    def quadratic_at(self, j: int, outer: Sequence[int]) -> Tuple[int, int, int]:
        """(a, bq, cq) with P_j = a t_j^2 + 2 bq t_j + cq at outer."""
        lev, vec = self.levels[j], tuple(outer) + (1,)
        cq = 0
        for i, l, c in lev["rest"]:
            cq += c * vec[i] * vec[l]
        return lev["a"], dot(lev["lin"], vec), cq

    def bounds_at(self, j: int, outer: Sequence[int]) -> Tuple[int, int, int]:
        """(count, lo, hi) for t_j given outer = (t_{j+1}, ..., t_{k-1})."""
        a, bq, cq = self.quadratic_at(j, outer)
        return count_quadratic_interval(a, 2 * bq, cq)


def enumerate_quadratic(
    G: Sequence[Sequence[int]], w: Sequence[int], c: int, leaf: str = "count"
) -> Tuple[Optional[int], Sequence]:
    """One exact enumeration of {t in Z^k : Q(t) = t^T G t + 2 w.t + c <= 0},
    for positive-definite G and k >= 1 (Fincke-Pohst interval recursion).

    The levels above the last one walked in Python (level 1 for the Python
    rows, else the entry level of the int64 pass) take their t_j-interval
    from `bounds_at`, the last one from one `quadratic_at`. Level 0's row
    Q = a0 t_0^2 + 2 bq t_0 + cq is [ceil((-bq - s) / a0), floor((s - bq) / a0)]
    with s = isqrt(D), D = bq^2 - a0 cq = -P_1, exactly (floor(x / a) =
    floor(floor(x) / a) for integer a > 0); bq and D step along t_1. Leaves,
    in enumeration order (t_{k-1} outermost, each level ascending), return
    (value, points):

      "count"  (#solutions, [])
      "roots"  (#roots, every t with Q(t) = 0 as the rows of a (#roots, k)
               array): D a square, a0 | -bq +- s; int64 when every
               coordinate fits, else object (Python integers)
      "min"    (min Q(t) over t != 0, [first minimiser]), or (None, [])

    "count" and "roots" are a one-system call of `enumerate_quadratics`,
    which also samples the "count" leaf; "min" takes the Python rows.
    """
    if leaf == "min":
        return _python_rows(QuadraticSolvedLevels(G, w, c), leaf, 0)
    return enumerate_quadratics([(QuadraticSolvedLevels(G, w, c), 0)], leaf == "roots")[0]


def _intervals(solver: QuadraticSolvedLevels, top: int):
    """(count, lo, P_top and its step at t_top = lo, (lo, *outer, 1)) for
    every non-empty t_top-interval, in enumeration order; `bounds_at` walks
    the levels above top, and P_top comes from one `quadratic_at`."""
    outers = [()]
    for j in range(solver.k - 1, top, -1):
        deeper = []
        for outer in outers:
            _, lo, hi = solver.bounds_at(j, outer)
            deeper += [(t,) + outer for t in range(lo, hi + 1)]
        outers = deeper
    for outer in outers:
        a, b, cq = solver.quadratic_at(top, outer)  # P_top = a t^2 + 2 b t + cq
        cnt, lo, _ = count_quadratic_interval(a, 2 * b, cq)
        if cnt:
            yield cnt, lo, (a * lo + 2 * b) * lo + cq, a * (2 * lo + 1) + 2 * b, (lo,) + outer + (1,)


def _python_rows(solver: QuadraticSolvedLevels, leaf: str, sample_limit: int):
    """`enumerate_quadratic` in Python integers: the rows of `leaf` below each level-1 interval."""
    k, a0, lin0 = solver.k, solver.levels[0]["a"], solver.levels[0]["lin"]
    # bq = b1 t_1 + (terms in t_2, ...); D steps by dD, which steps by dd
    b1, dd = (lin0[0], -2 * solver.levels[1]["a"]) if k > 1 else (0, 0)
    points: List[Tuple[int, ...]] = []
    value = None if leaf == "min" else 0
    if k == 1:
        _, bq, cq = solver.quadratic_at(0, ())
        rows = [(1, 0, bq, bq * bq - a0 * cq, 0, ())] if bq * bq >= a0 * cq else []
    else:
        rows = ((cnt, lo, dot(lin0, vec), -P, -dP, vec[1:-1])
                for cnt, lo, P, dP, vec in _intervals(solver, 1))
    for cnt, lo, bq, D, dD, outer in rows:
        for t1 in range(lo, lo + cnt):
            s = isqrt(D)
            if leaf == "count":
                row = (s - bq) // a0 + (s + bq) // a0 + 1
                if row and len(points) < sample_limit:
                    first = -((s + bq) // a0)
                    points += [(t0, t1) + outer
                               for t0 in range(first, first + min(row, sample_limit - len(points)))]
                value += row
            elif leaf == "roots" and s * s == D:
                for num in (-s - bq, s - bq) if s else (-bq,):
                    if num % a0 == 0:
                        points.append((num // a0, t1) + outer)
                        value += 1
            elif leaf == "min":
                for t0 in range(-((s + bq) // a0), (s - bq) // a0 + 1):
                    u = a0 * t0 + bq
                    q = (u * u - D) // a0  # = Q(t), exactly
                    if (value is None or q < value) and (t0 or t1 or any(outer)):
                        value, points[:] = q, [(t0, t1) + outer]
            bq, D, dD = bq + b1, D + dD, dD + dd
    if k == 1:
        points = [t[:1] for t in points]  # drop the phantom t_1 = 0
    if leaf != "roots":
        return value, points
    try:
        return value, np.array(points, dtype=np.int64).reshape(value, k)
    except OverflowError:
        return value, np.array(points, dtype=object).reshape(value, k)


_ROW_CHUNK = 1 << 16
_NODE_FLUSH = 1 << 14  # nodes below the entry levels a batch holds before it runs, and per run


def enumerate_quadratics(systems, roots: bool = False) -> list:
    """The "count" leaf of `enumerate_quadratic` with the first sample_limit
    solutions as tuples, or with roots=True its "roots" leaf (one array per
    system), for each (QuadraticSolvedLevels, sample_limit) of `systems`.
    A system enters the numpy int64 pass at the highest level L that
    `_entry_level` bounds below 2^62 (k = 1 at a phantom level 1, a_1 = 1,
    t_1 = 0): Python walks the levels above L and adds each t_L-interval to
    the batch of its (k, L) as k + 4 integers: the system, #t_L, lo, P_L
    and its step at lo, each b_i (i < L) without its t_0..t_L terms, and
    t_{L+1}, ... `_descend` runs the batches once they hold _NODE_FLUSH
    nodes below L, and at the end. A system with L = 0 takes the Python
    rows alone; the rest of its batch stays int64."""
    leaf = "roots" if roots else "count"
    batches, out, nodes = {}, [], 0

    def flush():
        for (k, level), (held, flat) in batches.items():
            for (i, _, _), res in zip(held, _descend(k, level, held, flat, roots)):
                out[i] = res
        batches.clear()

    for i, (solver, limit) in enumerate(systems):
        k, lev, level = solver.k, solver.levels, _entry_level(solver)
        out.append(None if level else _python_rows(solver, leaf, limit))
        if not level:
            continue
        held, flat = batches.setdefault((k, level), ([], []))
        if k == 1:
            _, b, c = solver.quadratic_at(0, ())
            d = b * b - lev[0]["a"] * c
            flat += (len(held), 1, 0, -d, 0, b) if d >= 0 else ()
            nodes, consts = nodes + 1, (lev[0]["a"], 1, 0, 0)
        else:
            lins = [lev[j]["lin"][level - j:] for j in range(level)]  # each b_j beyond t_L
            for cnt, lo, P, dP, vec in _intervals(solver, level):
                outer = vec[1:]
                flat += (len(held), cnt, lo, P, dP, *[dot(lin, outer) for lin in lins], *outer[:-1])
                nodes += cnt
            # a_0..a_L, then the t_j-coefficient of b_i for i < L, j <= L
            coef = [lev[i]["lin"][j - i - 1] if j > i else 0 for i in range(level) for j in range(level + 1)]
            consts = (*(l["a"] for l in lev[:level + 1]), *coef)
        held.append((i, limit, consts))
        if nodes >= _NODE_FLUSH:
            flush()
            nodes = 0
    flush()
    return out


def _entry_level(solver: QuadraticSolvedLevels) -> int:
    """The highest level L >= 1 whose int64 pass provably stays below 2^62,
    else 0, in Python integers (tested with an `if`: it holds under -O).
    On a visited node -d_j / a_j <= P_j <= 0, d_j = -a_{j-1} P_{j+1}, so
    d_{j-1} <= D_{j-1} = a_{j-2} (D_j // a_j) from the top discriminant on;
    S_j = isqrt(D_j) + 1, |b_j| <= B_j, |t_j| <= T_j. Rows need a_0, D_0,
    S_0 + 2 B_0, each T_j and a row sum; P_j stepped along t_j D_{j-1} and
    D_j // a_j + 2 S_j + 4 a_j; a t_j-interval from d_j (S_j + a_j)^2 and a_j T_j + B_j."""
    k, lev, a = solver.k, solver.levels, [l["a"] for l in solver.levels]
    _, b, c = solver.quadratic_at(k - 1, ())
    D = [0] * (k - 1) + [max(b * b - a[-1] * c, 0)]
    for j in range(k - 1, 0, -1):
        D[j - 1] = (a[j - 2] if j > 1 else 1) * (D[j] // a[j])
    S, T, B = [isqrt(x) + 1 for x in D], [0] * k + [1], [0] * k
    for j in range(k - 1, -1, -1):
        B[j] = dot(map(abs, lev[j]["lin"]), T[j + 1:])
        T[j] = (S[j] + B[j]) // a[j] + 1
    row_sum = (2 * (S[0] + B[0]) // a[0] + 1) * (_ROW_CHUNK + (2 * S[1] // a[1] if k > 1 else 0) + 1)

    def safe(j, *values):  # and P_j stepped along t_j, d_{j-1}
        step = (D[j] // a[j] + 2 * S[j] + 4 * a[j], D[j - 1]) if j < k else ()
        return max(*values, *step) < 2 ** 62

    level = int(safe(1, a[0], D[0], S[0] + 2 * B[0], row_sum, *T))
    while 0 < level < k - 1 and safe(level + 1, (S[level] + a[level]) ** 2, a[level] * T[level] + B[level]):
        level += 1
    return level


def _isqrt64(x: np.ndarray) -> np.ndarray:
    """floor(sqrt(x)) for int64 0 <= x < 2^62: the float square root is
    within 1 of it there, and one exact step each way corrects it (with a
    correctly rounded sqrt only the downward one can fire)."""
    s = np.sqrt(x).astype(np.int64)
    s -= s * s > x
    s += (s + 1) * (s + 1) <= x
    return s


def _runs(cnt, size):
    """(r, i) per run of consecutive intervals with at most `size` children
    plus one interval's: each interval's index r once per t = lo[r] + i."""
    ends = np.cumsum(cnt)
    starts, total = ends - cnt, int(ends[-1])
    cuts = np.searchsorted(ends, np.arange(size, total, size), "right").tolist() if total > size else []
    for s, e in zip([0, *cuts], [*cuts, len(cnt)]):
        r = np.repeat(np.arange(s, e), cnt[s:e])
        yield r, np.arange(starts[s], starts[s] + len(r)) - starts[r]


def _descend(k, level, held, flat, roots: bool = False):
    """The int64 pass of one batch of `enumerate_quadratics` (systems held as
    (index, sample_limit, consts)): per system (count, first sample_limit
    points), or (#roots, one int64 array). One generic `step` takes the
    t_j-intervals of level j >= 2 of the whole batch, in runs of about
    _NODE_FLUSH nodes, to those of level j - 1: along t_j = lo + i,
    P_j = P + i (dP + a_j (i - 1)), d_{j-1} = -a_{j-2} P_j (Sylvester), each
    lower b_i steps by its t_j coefficient, s = isqrt(d_{j-1}), t_{j-1} in
    [ceil((-b - s) / a), floor((s - b) / a)] and P_{j-1} = (u^2 - d_{j-1}) / a
    at its lo, u = a t + b, exactly, with divisors per node; a row of X holds
    b_0..b_{j-1}, then t_{j+1}, ... The rows run per system in runs of about
    _ROW_CHUNK, with scalar divisors (floor division by an array is several
    times slower): D = -P_1 steps along t_1, and a row is counted, sampled or
    tested for roots as in the Python rows."""
    E = np.array(flat, dtype=np.int64).reshape(-1, max(k, 2) + 4)
    cs = np.array([consts for _, _, consts in held], dtype=np.int64)
    A, C = cs[:, :level + 1].T.copy(), cs[:, level + 1:].reshape(len(cs), level, level + 1)
    counts, points = [0] * len(held), [[] for _ in held]

    def rows(system, cnt, lo, P, dP, X):
        # along t_1 = lo + i: D = -P_1 = nP + i (nq - a_1 i) and bq = c0 + b_1 i
        nP, nq, c0 = -P, A[1][system] - dP, X[:, 0] + C[:, 0, 1][system] * lo
        cut = (np.flatnonzero(system[1:] != system[:-1]) + 1).tolist() if system[0] != system[-1] else []
        for s0, e0 in zip([0, *cut], [*cut, len(system)]):
            sy = int(system[s0])
            (_, limit, consts), pts = held[sy], points[sy]
            a0, a1, b1 = consts[0], consts[1], consts[level + 2]
            for r, i in _runs(cnt[s0:e0], _ROW_CHUNK):
                r += s0
                D = nP[r] + i * (nq[r] - a1 * i)
                if roots:
                    # D = s^2 < 2^62 has rint(sqrt(D)) = s exactly; then t_0 = (-s - bq) / a0
                    # before (s - bq) / a0, the second only when s > 0 (nonzero reads that order)
                    sq = np.rint(np.sqrt(D)).astype(np.int64)
                    h = np.flatnonzero(sq * sq == D)
                    r, i, sq = r[h], i[h], sq[h]
                    num = np.stack((-sq - c0[r] - b1 * i, sq - c0[r] - b1 * i), axis=1)
                    hit = num % a0 == 0
                    hit[:, 1] &= sq > 0
                    hr, side = np.nonzero(hit)
                    pts.append(np.column_stack((num[hr, side] // a0, lo[r[hr]] + i[hr], X[r[hr], 1:])))
                    continue
                sq, bq = _isqrt64(D), c0[r] + b1 * i
                row = (sq - bq) // a0 + (sq + bq) // a0 + 1
                counts[sy] += int(row.sum())
                for h in np.flatnonzero(row)[:limit - len(pts)].tolist() if len(pts) < limit else ():
                    t0, q = -(int(sq[h] + bq[h]) // a0), int(r[h])
                    head = (int(lo[q] + i[h]), *X[q, 1:].tolist())
                    pts += [(t,) + head for t in range(t0, t0 + min(int(row[h]), limit - len(pts)))]

    def step(j, system, lo, P, dP, X, r, i):  # the t_{j-1}-intervals of the nodes t_j = lo[r] + i
        t, sy, X = lo[r] + i, system[r], X[r]
        d = -A[j - 2][sy] * (P[r] + i * (dP[r] + A[j][sy] * (i - 1)))
        X[:, :j] += C[:, :j, j][sy] * t[:, None]
        a, bj = A[j - 1][sy], X[:, j - 1]
        sq = _isqrt64(d)
        lo = -((sq + bj) // a)
        cnt, u = np.maximum((sq - bj) // a - lo + 1, 0), a * lo + bj
        X[:, j - 1] = t
        return sy, cnt, lo, (u * u - d) // a, 2 * u + a, X

    def descend(j, system, cnt, lo, P, dP, X):
        if not len(cnt):
            return
        if j == 1:
            return rows(system, cnt, lo, P, dP, X)
        for run in _runs(cnt, _NODE_FLUSH):
            descend(j - 1, *step(j, system, lo, P, dP, X, *run))

    descend(level, *E[:, :5].T.copy(), E[:, 5:])
    del descend  # the recursive closure is a reference cycle: free it now, not at a gc pass
    if roots:  # [:k] drops the phantom t_1 = 0 of k = 1
        points = [np.concatenate(p)[:, :k] if p else np.zeros((0, k), dtype=np.int64) for p in points]
        counts = [len(p) for p in points]
    return [(count, p if roots else [t[:k] for t in p]) for count, p in zip(counts, points)]


def _centred_shifts(balls) -> List[List[int]]:
    """shift + sum t_i basis_i for each (basis, shift, ...) of `balls`, with
    t the rounded float solution of gram t = -(basis_i . shift): the point
    of the coset shift + lattice next to the origin, up to rounding. One
    stacked float solve per shape of basis. Any integer t keeps the coset,
    so a poor float solve costs magnitude only; one that fails keeps the
    shifts."""
    shifts, shapes = [list(ball[1]) for ball in balls], {}
    for idx, (basis, shift, *_) in enumerate(balls):
        if basis:
            shapes.setdefault((len(basis), len(shift)), []).append(idx)
    for group in shapes.values():
        try:
            basis = np.array([balls[idx][0] for idx in group], dtype=np.float64)
            shift = np.array([shifts[idx] for idx in group], dtype=np.float64)[..., None]
            t = np.rint(np.linalg.solve(basis @ basis.transpose(0, 2, 1), -(basis @ shift)))[..., 0]
        except (OverflowError, np.linalg.LinAlgError):
            continue
        for idx, ti in zip(group, t):
            if np.isfinite(ti).all():
                ti = [int(v) for v in ti]
                shifts[idx] = [s + dot(ti, col) for s, col in zip(shifts[idx], zip(*balls[idx][0]))]
    return shifts


def ball_counts(balls) -> List[Tuple[int, List[Tuple[int, ...]]]]:
    """(#{shift + sum t_i basis_i : ||.||_2^2 <= radius2}, samples as
    ambient vectors) for each (basis, shift, radius2, sample_limit) of
    `balls`, in order. Every ball of rank >= 1 is one system of one
    `enumerate_quadratics` batch, built only when the batch takes it.

    The shifts are first moved, together, by the lattice vectors that bring
    them next to their balls' centres. A translation by a lattice vector
    shifts every t by the same integer vector, which keeps the count and
    the lexicographic enumeration order, so the samples are the same
    points."""
    shifts = _centred_shifts(balls)
    out, where = [(0, []) for _ in balls], []

    def systems():
        for idx, ((basis, _, r2, limit), shift) in enumerate(zip(balls, shifts)):
            r2 = Fraction(r2)
            if r2 < 0:
                continue
            if not basis:
                ok = dot(shift, shift) <= r2
                out[idx] = (int(ok), [tuple(shift)] if ok and limit else [])
                continue
            where.append(idx)
            den, G = r2.denominator, gram_matrix(basis)
            G = G if den == 1 else [[den * v for v in row] for row in G]
            w = [den * dot(u, shift) for u in basis]
            yield QuadraticSolvedLevels(G, w, den * dot(shift, shift) - r2.numerator), limit

    for idx, (count, ts) in zip(where, enumerate_quadratics(systems())):
        cols = list(zip(*balls[idx][0]))
        out[idx] = count, [tuple(s + dot(t, col) for s, col in zip(shifts[idx], cols)) for t in ts]
    return out


# ---------------------------------------------------------------------------
# kernel lattices and shortest vectors


# the largest rank whose shortest vector is found by exact enumeration
_EXACT_SVP_RANK = 8


def kernel_lattice(a: Sequence[int]) -> Tuple[Tuple[int, ...], ...]:
    """A basis of Lambda_a = {x in Z^n : <a, x> = 0}, rank n-1: columns 1..
    of U from the unimodular split [a] U = [g | 0]. U is unimodular, so the
    columns are independent, and for primitive a their Gram determinant
    equals ||a||_2^2."""
    a = [int(v) for v in a]
    if all(v == 0 for v in a):
        raise ValueError("zero vector has no kernel lattice of rank n-1")
    if len(a) == 1:
        raise ValueError("kernel of a nonzero form on Z^1 is trivial")
    _, u = unimodular_split([a])
    return tuple(zip(*u))[1:]


def shortest_vector(basis: Sequence[Sequence[int]]) -> Tuple[int, Tuple[int, ...]]:
    """(lambda_1^2, a shortest vector) of the lattice `basis` spans, by the
    "min" leaf below its shortest basis vector; an LLL-reduced basis keeps
    the enumeration small. A rank above _EXACT_SVP_RANK raises ValueError."""
    if len(basis) > _EXACT_SVP_RANK:
        raise ValueError(f"rank {len(basis)} exceeds exact-SVP budget {_EXACT_SVP_RANK}")
    best_vec = min(basis, key=lambda v: dot(v, v))
    bound = dot(best_vec, best_vec)
    # the region holds best_vec's coefficient vector, so low <= 0
    low, ts = enumerate_quadratic(gram_matrix(basis), [0] * len(basis), -bound, "min")
    if low < 0:
        best_vec = [dot(ts[0], col) for col in zip(*basis)]
    return low + bound, tuple(best_vec)


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
) -> HyperplaneCount:
    """N(a, b, B) = #{x : (||x||^2 + 1)^(1/2) <= B and <a, x> + b = 0}.

    With g, counts only x with gcd(x, g) = 1 via Mobius inclusion-exclusion
    on exactly scaled balls (x = d x' needs d | b and ||x'||^2 <= (B^2-1)/d^2),
    which reproduces direct filtered enumeration exactly. g = 0 and B < 0
    raise ValueError. `hyperplane_counts` also samples the first points.
    """
    return hyperplane_counts([(a, b, B, g, 0)])[0]


def hyperplane_counts(fibres) -> List[HyperplaneCount]:
    """`hyperplane_count_exact` for each (a, b, B, g, sample_limit) of
    `fibres`, in order: every Mobius term of every fibre is one ball of one
    `ball_counts` call, and each fibre is checked as it is alone."""
    balls, terms = [], []
    for a, b, B, g, sample_limit in fibres:
        a = [int(v) for v in a]
        if gcd(*a) != 1:
            raise ValueError("a must be primitive")
        if B < 0:
            raise ValueError(f"B must be nonnegative, got {B}")
        if g == 0:
            raise ValueError("g must be nonzero: gcd(x, 0) = 1 would need a primitivity filter")
        R2 = Fraction(B) ** 2 - 1
        own = []  # (ball, mu); d = 1 comes first and carries the samples
        for d, mu in squarefree_divisors(g or 1) if R2 >= 0 else ():
            if b % d == 0:  # a is primitive, so <a, x> = -b/d is soluble
                own.append((len(balls), mu))
                balls.append((_reduced_kernel_basis(tuple(a)), solve_linear_diophantine(a, -(b // d)),
                              R2 / (d * d), sample_limit if d == 1 else 0))
        terms.append(own)
    counts = ball_counts(balls)
    return [HyperplaneCount(sum(mu * counts[j][0] for j, mu in own),
                            tuple(counts[own[0][0]][1]) if own else ()) for own in terms]


@lru_cache(maxsize=1024)
def _reduced_kernel_basis(a: Tuple[int, ...]) -> Tuple[Tuple[int, ...], ...]:
    """LLL-reduced basis of kernel_lattice(a), once per hyperplane: a
    fibration count meets the same fibre at every B of its ladder."""
    return tuple(map(tuple, lll_reduce(kernel_lattice(a))))


# frozen after measurement on the calibration family (max observed ratio
# |exact - main| / sum_j B^j lambda_1^-j was under 3.1 for n <= 4)
LATTICE_ERROR_CONSTANT = 8


@dataclass(frozen=True)
class HyperplaneAsymptotic:
    main: float
    err_eta: float
    err_lambda: float
    lambda1_sq: Fraction

    @property
    def budget(self) -> float:
        return self.err_eta + self.err_lambda


# the exponent eta of the offset threshold of hyperplane_count_asymptotic
_ETA = Fraction(1, 2)


def hyperplane_count_asymptotic(a: Sequence[int], b: int, B) -> HyperplaneAsymptotic:
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
    norm2 = dot(a, a)
    # exact precondition check: |b|^(2q) <= (B^2)^(q-p) * (||a||^2)^q
    p_, q_ = _ETA.numerator, _ETA.denominator
    if abs(b) > 0 and Fraction(abs(b)) ** (2 * q_) > (B * B) ** (q_ - p_) * Fraction(norm2) ** q_:
        raise ValueError("B below the (|b|/||a||)^(1/(1-eta)) threshold")
    c = _DEFAULT_TABLE.constant_float(n - 1)
    norm = norm2 ** 0.5
    main = c * float(B) ** (n - 1) / norm
    rho2 = max(float(B * B - 1) - b * b / norm2, 0.0)
    true_vol = c * rho2 ** ((n - 1) / 2) / norm
    err_eta = abs(main - true_vol)
    red = _reduced_kernel_basis(tuple(a))
    if len(red) <= _EXACT_SVP_RANK:
        l1sq = Fraction(shortest_vector(red)[0])
    else:  # the LLL bound ||b_1||^2 / 2^(k-1)
        l1sq = Fraction(min(dot(v, v) for v in red), 2 ** (len(red) - 1))
    l1 = float(l1sq) ** 0.5
    err_lambda = LATTICE_ERROR_CONSTANT * sum(
        float(B) ** j / l1 ** j for j in range(n - 1)
    )
    return HyperplaneAsymptotic(main, err_eta, err_lambda, l1sq)
