"""Exact linear algebra, no floating point anywhere: one fraction-free
elimination (ranks, pivots, determinants, adjugates), one unimodular column
reduction (integer kernels, determinantal divisors), one Lagrange
congruence diagonalization over Q or F_p, inertia of symmetric matrices,
and quadratic polynomials held by their integer matrix 2Q."""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Optional, Sequence, Tuple

from .nt import xgcd
from .polynomials import IntPolynomial


# ---------------------------------------------------------------------------
# integer matrices


class Elimination(NamedTuple):
    """What `bareiss` finds in an integer matrix."""

    rank: int
    pivots: Tuple[Tuple[int, int], ...]   # (row, col), in the order taken
    det: int                              # 0 unless square of full rank
    adjugate: Optional[Tuple[Tuple[int, ...], ...]] = None  # when asked, if det != 0


def bareiss(m: Sequence[Sequence[int]], adjugate: bool = False) -> Elimination:
    """Fraction-free Gauss-Jordan elimination (Bareiss 1968, Math. Comp. 22;
    Cohen, GTM 138, 2.2) of an integer matrix of any shape.

    The next pivot is the first nonzero entry, in row-major order, among
    the rows and columns not yet used. After k pivots every live entry is a
    (k+1) x (k+1) minor of m, so each division is exact and the last pivot
    is the determinant of the pivot submatrix taken in pivot order. With
    adjugate=True the identity is appended and the earlier pivot rows are
    reduced as well, so that the appended block ends as the adjugate, up to
    the pivot permutation and sign.
    """
    rows = len(m)
    cols = len(m[0]) if rows else 0
    a = [list(map(int, row)) for row in m]
    if adjugate:
        if rows != cols:
            raise ValueError("adjugate of non-square matrix")
        for i, row in enumerate(a):
            row.extend(int(i == j) for j in range(rows))
    free_rows = list(range(rows))
    free_cols = list(range(cols))
    appended = list(range(cols, 2 * cols if adjugate else cols))
    pivots = []
    sign = prev = 1
    while True:
        piv = next(((r, c) for r, i in enumerate(free_rows)
                    for c, j in enumerate(free_cols) if a[i][j]), None)
        if piv is None:
            break
        # taking the r-th free row and c-th free column adds r + c
        # inversions to the row and column orders of the pivots
        r, c = piv
        if (r + c) % 2:
            sign = -sign
        pi = free_rows.pop(r)
        pj = free_cols.pop(c)
        pivots.append((pi, pj))
        live = free_cols + appended
        prow = a[pi]
        d = prow[pj]
        for i in range(rows) if adjugate else free_rows:
            if i == pi:
                continue
            row = a[i]
            f = row[pj]
            for j in live:
                row[j] = (d * row[j] - f * prow[j]) // prev
        prev = d
    rank = len(pivots)
    if not rows == cols == rank:
        return Elimination(rank, tuple(pivots), 0)
    adj = None
    if adjugate:
        # reduced, [m | I] reads (prev * P | X) with P[i][j] = 1 at each pivot
        # (only X is kept up to date), so m^-1 = P^t X / prev and
        # adj(m) = det(m) m^-1 = sign * P^t X
        out = [()] * rows
        for i, j in pivots:
            out[j] = tuple(sign * v for v in a[i][cols:])
        adj = tuple(out)
    return Elimination(rank, tuple(pivots), sign * prev, adj)


def int_matrix_det(m: Sequence[Sequence[int]]) -> int:
    """Determinant of a square integer matrix."""
    return bareiss(m).det


def unimodular_split(a: Sequence[Sequence[int]]) -> Tuple[int, Tuple[Tuple[int, ...], ...]]:
    """(r, U) with U unimodular and A U = [H | 0], H of r columns and rank r
    (Cohen, GTM 138, 2.4): r is the rank of A and the last n - r columns of
    U are a basis of the integer kernel. Row by row, the first free column
    that is nonzero in the row becomes the next pivot, and each later one
    is combined into it by an extended gcd (a step of determinant 1)."""
    n = len(a[0]) if a else 0
    u = [[int(i == j) for i in range(n)] for j in range(n)]   # columns of U
    w = [[int(row[j]) for row in a] for j in range(n)]        # columns of A U
    r = 0
    for i in range(len(a)):
        piv = next((j for j in range(r, n) if w[j][i]), None)
        if piv is None:
            continue
        u[r], u[piv] = u[piv], u[r]
        w[r], w[piv] = w[piv], w[r]
        for j in range(r + 1, n):
            if w[j][i]:
                g, s, t = xgcd(w[r][i], w[j][i])
                x, y = w[r][i] // g, w[j][i] // g
                for cols in (u, w):
                    ci, cj = cols[r], cols[j]
                    cols[r] = [s * p + t * q for p, q in zip(ci, cj)]
                    cols[j] = [x * q - y * p for p, q in zip(ci, cj)]
        r += 1
    return r, tuple(zip(*u))


# ---------------------------------------------------------------------------
# symmetric reduction: rank and inertia without floating point


def congruence_diagonalize(q: Sequence[Sequence], p: Optional[int] = None):
    """Lagrange reduction of a symmetric matrix over Q (p None, exact
    Fractions) or over F_p (p an odd prime, residues in [0, p); p = 2
    raises ValueError, as its zero pivots cannot always be repaired).

    Returns (T, d) as lists with T^t q T = diag(d); the nonzero entries of
    d come first, so their number is the rank. A zero diagonal pivot is
    repaired by a swap with a later nonzero diagonal entry or, when the
    rest of the diagonal is zero, by adding to it the row and column of the
    first nonzero off-diagonal entry.
    """
    if p == 2:
        raise ValueError("p = 2 is excluded")
    n = len(q)
    a = [[Fraction(v) if p is None else v % p for v in row] for row in q]
    if any(a[i][j] != a[j][i] for i in range(n) for j in range(i)):
        raise ValueError("symmetric matrix required" if p is None
                         else "matrix is not symmetric mod p")
    t = [[int(i == j) for j in range(n)] for i in range(n)]

    def col_add(dst, src, f):
        # x_src -> x_src + f x_dst: column and row dst gain f times src
        for row in a:
            row[dst] += f * row[src]
        a[dst] = [x + f * y for x, y in zip(a[dst], a[src])]
        for row in t:
            row[dst] += f * row[src]
        if p is not None:
            for row in a:
                row[dst] %= p
            a[dst] = [x % p for x in a[dst]]
            for row in t:
                row[dst] %= p

    def col_swap(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        a[i], a[j] = a[j], a[i]
        for row in t:
            row[i], row[j] = row[j], row[i]

    for k in range(n):
        if a[k][k] == 0:
            piv = next((i for i in range(k + 1, n) if a[i][i]), None)
            if piv is not None:
                col_swap(k, piv)
            else:
                hit = next(((i, j) for i in range(k, n) for j in range(i + 1, n) if a[i][j]),
                           None)
                if hit is None:
                    break  # the remaining block is zero
                i, j = hit
                if i != k:
                    col_swap(k, i)
                col_add(k, j, 1)  # a[k][k] becomes 2 a[k][j] != 0 (p odd)
        inv = 1 / a[k][k] if p is None else pow(a[k][k], p - 2, p)
        for j in range(k + 1, n):
            if a[k][j]:
                col_add(j, k, -a[k][j] * inv)
    return t, [a[i][i] for i in range(n)]


def rank_signature_over_Q(q: Sequence[Sequence]) -> Tuple[int, int, int]:
    """(rank, positives, negatives) of a symmetric rational matrix, exact."""
    _, diag = congruence_diagonalize(q)
    pos = sum(1 for d in diag if d > 0)
    neg = sum(1 for d in diag if d < 0)
    return pos + neg, pos, neg




# ---------------------------------------------------------------------------
# quadratic polynomials F(x) = x^t Q x + B^t x + N


class QuadraticPolynomial:
    """Quadratic polynomial with integer coefficients, kept as the symmetric
    integer matrix two_q = 2Q (even diagonal), the integer vector B and the
    integer N: F(x) = x^t Q x + B^t x + N. The discriminant used for "bad
    prime" bookkeeping is det(2Q). Its value and the IntPolynomial are
    built on first use and kept.
    """

    __slots__ = ("m", "two_q", "B", "N", "_disc", "_poly")

    def __init__(self, two_q: Sequence[Sequence[int]], B: Sequence[int], N: int):
        rows = tuple(tuple(row) for row in two_q)
        m = len(rows)
        if any(len(row) != m for row in rows) or any(
                rows[i][j] != rows[j][i] for i in range(m) for j in range(i)):
            raise ValueError("2Q must be symmetric")
        ints = tuple(tuple(int(v) for v in row) for row in rows)
        if ints != rows:
            raise ValueError("2Q must have integer entries")
        if any(ints[i][i] % 2 for i in range(m)):
            raise ValueError("2Q must have an even diagonal")
        if len(B) != m:
            raise ValueError("B has wrong length")
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "two_q", ints)
        object.__setattr__(self, "B", tuple(int(b) for b in B))
        object.__setattr__(self, "N", int(N))
        object.__setattr__(self, "_disc", None)
        object.__setattr__(self, "_poly", None)

    def __setattr__(self, *a):
        raise AttributeError("QuadraticPolynomial is immutable")

    @classmethod
    def from_polynomial(cls, p: IntPolynomial) -> "QuadraticPolynomial":
        """Extract (2Q, B, N) from a polynomial of total degree <= 2."""
        if p.total_degree() > 2:
            raise ValueError("degree > 2")
        m = p.num_vars
        two_q = [[0] * m for _ in range(m)]
        b = [0] * m
        n = 0
        for exps, coef in p.terms.items():
            support = [i for i, e in enumerate(exps) if e]
            deg = sum(exps)
            if deg == 0:
                n = coef
            elif deg == 1:
                b[support[0]] = coef
            elif len(support) == 1:
                i = support[0]
                two_q[i][i] += 2 * coef
            else:
                i, j = support
                two_q[i][j] += coef
                two_q[j][i] += coef
        return cls(two_q, b, n)

    def to_polynomial(self) -> IntPolynomial:
        """F as an IntPolynomial, built on first use and kept."""
        if self._poly is None:
            object.__setattr__(self, "_poly", self._build_polynomial())
        return self._poly

    def _build_polynomial(self) -> IntPolynomial:
        m = self.m
        terms = {}
        for i in range(m):
            for j in range(i, m):
                c = self.two_q[i][j] // 2 if i == j else self.two_q[i][j]
                if c:
                    e = [0] * m
                    e[i] += 1
                    e[j] += 1
                    terms[tuple(e)] = terms.get(tuple(e), 0) + c
        for i, bi in enumerate(self.B):
            if bi:
                e = [0] * m
                e[i] = 1
                terms[tuple(e)] = terms.get(tuple(e), 0) + bi
        if self.N:
            terms[tuple([0] * m)] = self.N
        return IntPolynomial(m, terms)

    def disc(self) -> int:
        """det(2Q), computed on first use and kept."""
        if self._disc is None:
            object.__setattr__(self, "_disc", int_matrix_det(self.two_q))
        return self._disc

    def rank(self) -> int:
        """Rank of Q over Q."""
        return bareiss(self.two_q).rank

    def rank_split(self) -> Tuple[Tuple[Tuple[int, ...], ...], Tuple[Tuple[int, ...], ...]]:
        """(U, S) with 2Q U = [H | 0] from `unimodular_split`: U^t 2Q U is
        the nonsingular r x r block S and zeros, r the rank."""
        two_q = self.two_q
        r, u = unimodular_split(two_q)
        cols = list(zip(*u))[:r]
        image = [[sum(x * y for x, y in zip(row, c)) for row in two_q] for c in cols]
        return u, tuple(tuple(sum(x * y for x, y in zip(c, v)) for v in image) for c in cols)

    def rank_support(self) -> Tuple[int, int]:
        """(rank r over Q, the gcd of the r x r minors of 2Q): reduction mod a
        prime not dividing it keeps the rank, so it is the discriminant of
        a rank-deficient form. Read off the split: unimodular changes keep
        this determinantal divisor, which is |det S| for S of `rank_split`
        (|det 2Q| when the form is nondegenerate)."""
        if self.disc():
            return self.m, abs(self.disc())
        _, s = self.rank_split()
        return len(s), abs(int_matrix_det(s))

    def __repr__(self):
        return f"QuadraticPolynomial(two_q={self.two_q}, B={self.B}, N={self.N})"
