"""Geometry of numbers: kernel lattices of linear forms, exact LLL
reduction, exact shortest vectors, and exact / asymptotic counts of
lattice points on affine hyperplanes inside balls.

One kernel, `enumerate_quadratic`, walks {t : t^T G t + 2 w.t + c <= 0} for
positive-definite G: the outer levels recurse with integer Schur-complement
bounds from fraction-free (Bareiss) elimination, and each innermost row is
one isqrt of a discriminant stepped incrementally along t_1. Its leaves are
the ball counts (count plus samples), the representation numbers of the
driver (exact roots) and exact shortest vectors (minimum). Counts and roots
run in batches (`enumerate_quadratics`): a fibration rung hands all its
hyperplanes, Mobius terms and sample requests to one `hyperplane_counts`
call, and levels 1 and 0 of every system run in one segmented numpy int64
pass; a system whose bound check in Python integers fails, and the minimum,
take the Python rows. Ball shifts are first moved next to the centre.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from math import gcd, isqrt
from operator import mul
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .linalg import unimodular_split
from .nt import count_quadratic_interval, solve_linear_diophantine, squarefree_divisors
from .volumes import _DEFAULT_TABLE


def dot(u: Sequence[int], v: Sequence[int]) -> int:
    return sum(map(mul, u, v))


def gram_matrix(basis: Sequence[Sequence[int]]) -> List[List[int]]:
    return [[dot(u, v) for v in basis] for u in basis]


def gram_det(basis: Sequence[Sequence[int]]) -> int:
    from .linalg import int_matrix_det

    return int_matrix_det(gram_matrix(basis))


# ---------------------------------------------------------------------------
# LLL over exact rationals


# the Lovasz constant of lll_reduce
_LLL_DELTA = Fraction(3, 4)


def lll_reduce(basis: Sequence[Sequence[int]]):
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
    G: Sequence[Sequence[int]], w: Sequence[int], c: int, leaf: str = "count"
) -> Tuple[Optional[int], Sequence]:
    """One exact enumeration of {t in Z^k : Q(t) = t^T G t + 2 w.t + c <= 0},
    for positive-definite G and k >= 1 (Fincke-Pohst interval recursion).

    The outer levels take their t_j-interval from `bounds_at`, the last one
    visited (level 1, or 2 for the int64 pass) its interval and set-up from
    one `quadratic_at`. Level 0's row is Q = a0 t_0^2 + 2 bq t_0 + cq; bq
    and the reduced discriminant D = bq^2 - a0 cq = -P_1 are stepped by
    finite differences along t_1, and the row is
    [ceil((-bq - s) / a0), floor((-bq + s) / a0)] with s = isqrt(D),
    exactly: floor(x / a) = floor(floor(x) / a) for integer a > 0. Leaves,
    in enumeration order (t_{k-1} outermost, each level ascending), return
    (value, points):

      "count"  (#solutions, [])
      "roots"  (#roots, every t with Q(t) = 0 as the rows of a (#roots, k)
               array): D a square, a0 | -bq +- s; int64 when every
               coordinate fits, else object (Python integers)
      "min"    (min Q(t) over t != 0, [first minimiser]), or (None, [])

    "count" and "roots" are a one-system call of `enumerate_quadratics`,
    which also samples the first solutions of the "count" leaf; "min" takes
    the Python rows.
    """
    if leaf == "min":
        return _python_rows(QuadraticSolvedLevels(G, w, c), leaf, 0)
    return enumerate_quadratics([(G, w, c, 0)], {"count": False, "roots": True}[leaf])[0]


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
    if k == 1:
        _, bq, cq = solver.quadratic_at(0, ())
        if bq * bq >= a0 * cq:
            rows(0, 0, bq, bq * bq - a0 * cq, 0, ())
        points = [t[:1] for t in points]  # drop the phantom t_1 = 0
    else:
        for cnt, lo, P, dP, vec in _intervals(solver, 1):
            rows(lo, lo + cnt - 1, dot(lin0, vec), -P, -dP, vec[1:-1])
    if leaf != "roots":
        return value, points
    try:
        return value, np.array(points, dtype=np.int64).reshape(value, k)
    except OverflowError:
        return value, np.array(points, dtype=object).reshape(value, k)


_INT64_SAFE = 2 ** 62
_ROW_CHUNK = 1 << 16
_NODE_FLUSH = 1 << 15  # level-1 nodes a batch holds before it runs


def enumerate_quadratics(systems, roots: bool = False) -> list:
    """The "count" leaf of `enumerate_quadratic` with the first sample_limit
    solutions as tuples, or with roots=True its "roots" leaf (one array per
    system), for each (G, w, c, sample_limit) of `systems`, in order.

    A system of k >= 3 stops the recursion at level 2 and adds its level-2
    intervals to the batch, six integers per node in one flat list.
    `_levels_1_0` runs levels 1 and 0 of a whole batch in numpy int64, once
    the batch holds _NODE_FLUSH level-1 nodes and at the end. A system that
    has no level-2 interval or fails the bound check of `_fits_int64`, and
    every system of k <= 2, takes the Python rows."""
    leaf = "roots" if roots else "count"
    # six integers per level-2 node: #t_2, then P_2, its step, b of P_1 and
    # bq - b1 t_1, all at t_2 = lo, then lo
    flat: List[int] = []
    # per system of the batch: its node end, (a0, a1, a2, b1, db, dbeta),
    # sample limit and its nodes' outer coordinates (if it returns points)
    batch, ids, out, nodes = [], [], [], 0

    def flush():
        for i, res in zip(ids, _levels_1_0(flat, batch, roots) if batch else ()):
            out[i] = res
        for col in (flat, batch, ids):
            col.clear()

    for i, (G, w, c, limit) in enumerate(systems):
        solver = QuadraticSolvedLevels(G, w, c)
        out.append(None)
        if solver.k < 3:
            out[i] = _python_rows(solver, leaf, limit)
            continue
        lev0, lev1, lev2 = solver.levels[:3]
        lin1, rest0 = lev1["lin"], lev0["lin"][1:]
        outers = [] if roots or limit else None
        start = len(flat)
        for cnt, t2, P2, dP2, vec in _intervals(solver, 2):
            flat += (cnt, P2, dP2, dot(lin1, vec), dot(rest0, vec), t2)
            if outers is not None:
                outers.append(vec[1:-1])
        consts = (lev0["a"], lev1["a"], lev2["a"], lev0["lin"][0], lin1[0], rest0[0])
        if len(flat) == start or not _fits_int64(flat[start:], consts, outers or ()):
            del flat[start:]
            out[i] = _python_rows(solver, leaf, limit)
            continue
        batch.append((len(flat) // 6, consts, limit, outers))
        ids.append(i)
        nodes += sum(flat[start::6])
        if nodes >= _NODE_FLUSH:
            flush()
            nodes = 0
    flush()
    return out


def _fits_int64(nodes: List[int], consts, outers) -> bool:
    """Whether every value `_levels_1_0` computes for a system (its level-2
    nodes flat in `nodes`, consts (a0, a1, a2, b1, db, dbeta), the nodes'
    coordinates (t_3, ...) in `outers`) stays below 2^62, bounded from its
    column maxima in Python integers; the caller tests it with an `if`, so
    the check holds under `python -O`."""
    a0, a1, a2, b1, db, dbeta = consts
    N = max(nodes[0::6])
    mP, mdP, mb, mbeta, mlo = (max(map(abs, nodes[c::6])) for c in range(1, 6))
    BP = mP + N * (mdP + a2 * N)  # |P_2| and its partial terms
    BD = a0 * BP  # d1 and its partial terms, u^2, d1 - u^2
    S = isqrt(BD) + 1  # isqrt(d1), isqrt(D)
    Bb = mb + abs(db) * N
    T = (S + Bb) // a1 + 2  # |t_1|
    Bq = abs(b1) * T + mbeta + abs(dbeta) * N  # |bq|
    row = 2 * (S + Bq) // a0 + 1  # one row's count
    rows = _ROW_CHUNK + 2 * S // a1 + 1  # rows summed at once
    mout = max(map(abs, chain.from_iterable(outers)), default=0)
    return max(BD, a1 * T + Bb, S + Bq, row * rows, mlo + N, mout) < _INT64_SAFE


def _isqrt64(x: np.ndarray) -> np.ndarray:
    """floor(sqrt(x)) for int64 0 <= x < 2^62: the float square root is
    within 1 of it there, and one exact step each way corrects it. (With a
    correctly rounded sqrt only the downward step can fire; the upward one
    keeps the result exact without relying on that.)"""
    s = np.sqrt(x.astype(np.float64)).astype(np.int64)
    s -= s * s > x
    s += (s + 1) * (s + 1) <= x
    return s


def _levels_1_0(flat, batch, roots: bool = False):
    """Levels 1 and 0 below the level-2 intervals in `flat`, for each system
    of `batch` (both built by `enumerate_quadratics`), in numpy int64: its
    (count, first sample_limit points), or with roots=True (#roots, the
    roots as the rows of one int64 array), in enumeration order.

    Along t_2 = lo + i, P_2 = P + i (dP + a2 (i - 1)) <= 0, and level 1's
    reduced discriminant is d1 = b^2 - a1 c1 = -a0 P_2 (Sylvester), so
    t_1 runs over |u| <= isqrt(d1) with u = a1 t1 + b. Level 0's discriminant
    is D = -P_1 = (d1 - u^2) / a1, an exact division, and a row is counted,
    sampled or tested for roots as in the Python rows. The level-1 nodes of
    the whole batch are one array pass; the rows run per system, in slices
    of about _ROW_CHUNK rows, with its divisors as scalars (floor division
    by an array is several times slower)."""
    n, P, dP, b, beta, lo = np.array(flat, dtype=np.int64).reshape(-1, 6).T
    system = np.searchsorted([end for end, *_ in batch], np.arange(len(n)), "right")
    a0, _, a2, _, db, dbeta = np.array([sys[1] for sys in batch], dtype=np.int64)[system].T  # per node
    ends1 = np.cumsum(n)  # level-1 node ends of the level-2 nodes
    node = np.repeat(np.arange(len(n)), n)  # level-1 node -> level-2 node
    i = np.arange(len(node)) - (ends1 - n)[node]
    d1 = -((a0 * P)[node] + i * ((a0 * dP)[node] + (a0 * a2)[node] * (i - 1)))  # -a0 P_2
    b = b[node] + db[node] * i
    beta = beta[node] + dbeta[node] * i
    t2 = lo[node] + i
    s1 = _isqrt64(d1)
    results, u0, w0 = [], 0, 0
    for w1, (a0, a1, _, b1, _, _), limit, outers in batch:
        u1 = int(ends1[w1 - 1])
        d1s, bs, betas, t2s, s1s = (x[u0:u1] for x in (d1, b, beta, t2, s1))
        lo1 = -((s1s + bs) // a1)
        m = np.maximum((s1s - bs) // a1 - lo1 + 1, 0)
        ends = np.cumsum(m)
        # the system's level-1 nodes in slices of at most _ROW_CHUNK rows plus one node's
        cuts = np.searchsorted(ends, np.arange(_ROW_CHUNK, int(ends[-1]), _ROW_CHUNK), "right").tolist()
        count, pts = 0, []
        if roots:
            outers = np.array(outers, dtype=np.int64)  # (t_3, ...) per level-2 node
        for s, e in zip([0, *cuts], [*cuts, len(m)]):
            mc = m[s:e]
            r = np.repeat(np.arange(s, e), mc)
            t1 = lo1[r] + (np.arange(len(r)) - np.repeat(np.cumsum(mc) - mc, mc))
            u = a1 * t1 + bs[r]
            D = (d1s[r] - u * u) // a1
            sq = _isqrt64(D)
            bq = b1 * t1 + betas[r]
            if roots:
                # per row, t_0 = (-s - bq) / a0 before (s - bq) / a0, the
                # second only when s > 0; nonzero reads them in that order
                num = np.stack((-sq - bq, sq - bq), axis=1)
                hit = (sq * sq == D)[:, None] & (num % a0 == 0)
                hit[:, 1] &= sq > 0
                hr, side = np.nonzero(hit)
                p = r[hr]
                pts.append(np.column_stack((num[hr, side] // a0, t1[hr], t2s[p], outers[node[u0 + p] - w0])))
                continue
            row = (sq - bq) // a0 + (sq + bq) // a0 + 1
            count += int(row.sum())
            for h in np.flatnonzero(row)[:limit - len(pts)].tolist() if len(pts) < limit else ():
                t0, q = -(int(sq[h] + bq[h]) // a0), int(r[h])
                head = (int(t1[h]), int(t2s[q])) + outers[node[u0 + q] - w0]
                pts += [(t,) + head for t in range(t0, t0 + min(int(row[h]), limit - len(pts)))]
        if roots:
            pts = np.concatenate(pts)
            count = len(pts)
        results.append((count, pts))
        u0, w0 = u1, w1
    return results


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
            yield G, [den * dot(u, shift) for u in basis], den * dot(shift, shift) - r2.numerator, limit

    for idx, (count, ts) in zip(where, enumerate_quadratics(systems())):
        cols = list(zip(*balls[idx][0]))
        out[idx] = count, [tuple(s + dot(t, col) for s, col in zip(shifts[idx], cols)) for t in ts]
    return out


# ---------------------------------------------------------------------------
# lattices


# the largest rank whose shortest vector is found by exact enumeration
_EXACT_SVP_RANK = 8


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

    def shortest_vector_exact(self) -> Tuple[int, Tuple[int, ...]]:
        """(lambda_1^2, vector) by enumeration below the first reduced vector."""
        if self.rank > _EXACT_SVP_RANK:
            raise ValueError(f"rank {self.rank} exceeds exact-SVP budget {_EXACT_SVP_RANK}")
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

    def lambda1_squared_lower_bound(self) -> Fraction:
        """Exact lambda_1^2 when the rank budget allows, else the LLL bound
        ||b_1||^2 / 2^(k-1)."""
        if self.rank <= _EXACT_SVP_RANK:
            if self._lambda1_sq is None:
                self.shortest_vector_exact()
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
    return HyperplaneAsymptotic(main, err_eta, err_lambda, l1sq)
