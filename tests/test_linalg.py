import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubefib.linalg import (
    QuadraticPolynomial,
    bareiss,
    congruence_diagonalize,
    int_matrix_det,
    rank_signature_over_Q,
    unimodular_split,
)
from cubefib.polynomials import IntPolynomial

# ---------------------------------------------------------------------------
# reference implementations: the Fraction, cofactor and two Lagrange
# algorithms that `bareiss` and `congruence_diagonalize` replaced


def fraction_rank(rows):
    """Gaussian elimination over Fractions, column by column."""
    a = [[Fraction(v) for v in row] for row in rows]
    n_rows, n_cols = len(a), len(a[0]) if a else 0
    rank = 0
    for col in range(n_cols):
        piv = next((i for i in range(rank, n_rows) if a[i][col]), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        for i in range(rank + 1, n_rows):
            f = a[i][col] / a[rank][col]
            for j in range(col, n_cols):
                a[i][j] -= f * a[rank][j]
        rank += 1
    return rank


def fraction_pivots(rows):
    """Full pivoting over Fractions: the first nonzero entry, row-major, of
    the rows and columns not yet used (the old fibration._pivot_subsets)."""
    a = [[Fraction(v) for v in row] for row in rows]
    rows_left = list(range(len(a)))
    cols_left = list(range(len(a[0]) if a else 0))
    pivots = []
    while True:
        piv = next(((i, j) for i in rows_left for j in cols_left if a[i][j]), None)
        if piv is None:
            return pivots
        pi, pj = piv
        pivots.append(piv)
        rows_left.remove(pi)
        cols_left.remove(pj)
        for i in rows_left:
            f = a[i][pj] / a[pi][pj]
            for j in cols_left:
                a[i][j] -= f * a[pi][j]


def cofactor_det(m):
    if not m:
        return 1
    return sum((-1) ** j * m[0][j] * cofactor_det([row[:j] + row[j + 1:] for row in m[1:]])
               for j in range(len(m)) if m[0][j])


def cofactor_adjugate(m):
    n = len(m)
    return [[(-1) ** (i + j) * cofactor_det([[m[r][c] for c in range(n) if c != i]
                                             for r in range(n) if r != j])
             for j in range(n)] for i in range(n)]


def old_lagrange_Q(Q):
    """The Lagrange reduction over Q before its body was shared."""
    n = len(Q)
    a = [[Fraction(v) for v in row] for row in Q]
    t = [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]

    def col_add(dst, src, factor):
        for i in range(n):
            a[i][dst] += factor * a[i][src]
        for i in range(n):
            a[dst][i] += factor * a[src][i]
        for i in range(n):
            t[i][dst] += factor * t[i][src]

    def col_swap(i, j):
        for r in range(n):
            a[r][i], a[r][j] = a[r][j], a[r][i]
        for r in range(n):
            a[i][r], a[j][r] = a[j][r], a[i][r]
        for r in range(n):
            t[r][i], t[r][j] = t[r][j], t[r][i]

    for k in range(n):
        if a[k][k] == 0:
            piv = next((i for i in range(k + 1, n) if a[i][i] != 0), None)
            if piv is not None:
                col_swap(k, piv)
            else:
                found = next(((i, j) for i in range(k, n) for j in range(i + 1, n)
                              if a[i][j] != 0), None)
                if found is None:
                    break
                i, j = found
                if i != k:
                    col_swap(k, i)
                    if j == k:
                        j = i
                col_add(k, j, Fraction(1))
        pivot = a[k][k]
        if pivot == 0:
            continue
        for j in range(k + 1, n):
            if a[k][j] != 0:
                col_add(j, k, -a[k][j] / pivot)
    return t, [a[i][i] for i in range(n)]


def old_lagrange_mod_p(Q, p):
    """The mod-p reduction of finitefield before the Lagrange body was shared."""
    n = len(Q)
    a = [[Q[i][j] % p for j in range(n)] for i in range(n)]
    r = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def col_add(dst, src, f):
        for i in range(n):
            a[i][dst] = (a[i][dst] + f * a[i][src]) % p
        for i in range(n):
            a[dst][i] = (a[dst][i] + f * a[src][i]) % p
        for i in range(n):
            r[i][dst] = (r[i][dst] + f * r[i][src]) % p

    def col_swap(i, j):
        for t in range(n):
            a[t][i], a[t][j] = a[t][j], a[t][i]
        for t in range(n):
            a[i][t], a[j][t] = a[j][t], a[i][t]
        for t in range(n):
            r[t][i], r[t][j] = r[t][j], r[t][i]

    for k in range(n):
        if a[k][k] == 0:
            piv = next((i for i in range(k + 1, n) if a[i][i]), None)
            if piv is not None:
                col_swap(k, piv)
            else:
                found = next(((i, j) for i in range(k, n) for j in range(i + 1, n) if a[i][j]),
                             None)
                if found is None:
                    break
                i, j = found
                if i != k:
                    col_swap(k, i)
                col_add(k, j, 1)
        piv = a[k][k]
        if piv == 0:
            continue
        inv = pow(piv, p - 2, p)
        for j in range(k + 1, n):
            if a[k][j]:
                col_add(j, k, (-a[k][j] * inv) % p)
    diag = [a[i][i] for i in range(n)]
    front = 0
    for i in range(n):
        if diag[i]:
            if i != front:
                col_swap(front, i)
                diag[front], diag[i] = diag[i], diag[front]
            front += 1
    return r, [a[i][i] for i in range(n)]


# ---------------------------------------------------------------------------
# strategies


@st.composite
def int_matrices(draw, square=False):
    """Integer matrices up to 6 x 6, zero and non-square ones included; half
    are products through an inner dimension below the size, so rank
    deficiency is common, and entries reach ~10^6 as in fibration_rank."""
    rows = draw(st.integers(0, 6))
    cols = rows if square or rows == 0 else draw(st.integers(1, 6))
    bound = draw(st.sampled_from([1, 3, 10 ** 3, 10 ** 6]))
    entry = st.integers(-bound, bound)
    if draw(st.booleans()):
        return [[draw(entry) for _ in range(cols)] for _ in range(rows)]
    inner = draw(st.integers(0, max(0, min(rows, cols) - 1)))
    u = [[draw(st.integers(-3, 3)) for _ in range(inner)] for _ in range(rows)]
    v = [[draw(entry) for _ in range(cols)] for _ in range(inner)]
    return [[sum(u[i][k] * v[k][j] for k in range(inner)) for j in range(cols)]
            for i in range(rows)]


@st.composite
def symmetric_with_zero_diagonal(draw, p=None):
    """Symmetric matrices up to 6 x 6 with many zero diagonal entries, over
    Q (half-integers, as in a quadratic form's Q) or reduced mod p."""
    n = draw(st.integers(0, 6))
    bound = 4 if p is None else p - 1
    a = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            zero = draw(st.integers(0, 3)) == 0 if i != j else draw(st.integers(0, 3)) != 0
            v = 0 if zero else draw(st.integers(-bound, bound))
            if p is None:
                v = Fraction(v, draw(st.sampled_from([1, 2])))
            a[i][j] = a[j][i] = v
    return a


# ---------------------------------------------------------------------------
# the elimination


@settings(max_examples=300, deadline=None)
@given(m=int_matrices())
def test_bareiss_matches_fraction_rank_and_pivots(m):
    e = bareiss(m)
    assert e.rank == fraction_rank(m)
    assert list(e.pivots) == fraction_pivots(m)
    assert e.adjugate is None
    if len(m) != (len(m[0]) if m else 0) or e.rank < len(m):
        assert e.det == 0


@settings(max_examples=200, deadline=None)
@given(m=int_matrices(square=True))
def test_bareiss_det_and_adjugate_match_cofactors(m):
    det = cofactor_det(m)
    e = bareiss(m, adjugate=True)
    assert e.det == det == int_matrix_det(m)
    assert e[:3] == bareiss(m)[:3]
    if det:
        assert [list(row) for row in e.adjugate] == cofactor_adjugate(m)
    else:
        assert e.adjugate is None


def test_bareiss_rejects_non_square_adjugate():
    with pytest.raises(ValueError):
        bareiss([[1, 2, 3], [4, 5, 6]], adjugate=True)


def test_int_det_matches_rational_det():
    rng = random.Random(29)
    for _ in range(60):
        n = rng.randint(1, 5)
        rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        assert int_matrix_det(rows) == cofactor_det(rows)


def matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def inverse(m):
    """m^-1 = adj(m) / det(m) from `bareiss`, None when m is singular."""
    e = bareiss(m, adjugate=True)
    return None if e.adjugate is None else [[Fraction(v, e.det) for v in row]
                                            for row in e.adjugate]


def test_inverse_hand_values():
    assert inverse(identity(3)) == identity(3)

    m = [[1, 2], [3, 4]]
    assert bareiss(m).det == -2
    assert inverse(m) == [[-2, 1], [Fraction(3, 2), Fraction(-1, 2)]]

    assert inverse([[1, 2], [2, 4]]) is None


def test_inverse_identity_random():
    rng = random.Random(23)
    for _ in range(40):
        n = rng.randint(1, 5)
        m = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
        if cofactor_det(m) == 0:
            assert inverse(m) is None
        else:
            assert matmul(m, inverse(m)) == identity(n)
            assert matmul(inverse(m), m) == identity(n)


# ---------------------------------------------------------------------------
# the Lagrange reduction


@settings(max_examples=300, deadline=None)
@given(a=symmetric_with_zero_diagonal())
def test_lagrange_over_Q_is_bit_identical_to_the_old_body(a):
    t, diag = congruence_diagonalize(a)
    old_t, old_diag = old_lagrange_Q(a)
    assert t == old_t
    assert diag == old_diag
    assert all(type(d) is Fraction for d in diag)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), p=st.sampled_from([3, 5, 7, 11]))
def test_lagrange_mod_p_is_bit_identical_to_the_old_body(data, p):
    a = data.draw(symmetric_with_zero_diagonal(p))
    assert congruence_diagonalize(a, p) == old_lagrange_mod_p(a, p)


def test_lagrange_mod_2_is_refused():
    """At p = 2 the off-diagonal repair makes the pivot 2 a[k][j] = 0, so
    [[0, 1], [1, 0]] would come back as diag(0, 0), rank 0."""
    with pytest.raises(ValueError, match="p = 2 is excluded"):
        congruence_diagonalize([[0, 1], [1, 0]], 2)


# ---------------------------------------------------------------------------
# the kept 2Q


@settings(max_examples=150, deadline=None)
@given(m=int_matrices(square=True))
def test_two_Q_cache_matches_a_rebuild(m):
    """from_polynomial keeps 2Q: 2 c on the diagonal for c x_i^2, the
    coefficient c of x_i x_j at (i, j) and (j, i)."""
    n = len(m)
    terms = {}
    for i in range(n):
        for j in range(i, n):
            e = [0] * n
            e[i] += 1
            e[j] += 1
            terms[tuple(e)] = m[i][j]
    F = QuadraticPolynomial.from_polynomial(IntPolynomial(n, terms))
    rebuilt = [[2 * m[i][i] if i == j else m[min(i, j)][max(i, j)] for j in range(n)]
               for i in range(n)]
    two_q = F.two_q
    assert [list(row) for row in two_q] == rebuilt
    assert isinstance(two_q, tuple) and all(isinstance(row, tuple) for row in two_q)
    assert all(type(v) is int for row in two_q for v in row)
    assert F.disc() == cofactor_det(rebuilt)
    assert F.rank() == fraction_rank(rebuilt)
    assert not hasattr(F, "Q")


def test_two_Q_rejects_non_integral_Q():
    """The constructor's three ValueErrors: every instance is an integer
    polynomial, so nothing downstream meets a fractional 2Q."""
    for two_q, message in [
        ([[2, 1], [3, 2]], "2Q must be symmetric"),
        ([[2, 1], [1]], "2Q must be symmetric"),
        ([[2, 1, 0], [1, 2, 0]], "2Q must be symmetric"),
        ([[Fraction(2, 3), 0], [0, 2]], "2Q must have integer entries"),
        ([[2, Fraction(1, 2)], [Fraction(1, 2), 2]], "2Q must have integer entries"),
        ([[2.5, 0], [0, 2]], "2Q must have integer entries"),
        ([[1, 0], [0, 2]], "2Q must have an even diagonal"),
        ([[2, 3], [3, -5]], "2Q must have an even diagonal"),
    ]:
        with pytest.raises(ValueError, match=message):
            QuadraticPolynomial(two_q, [0] * len(two_q), 0)
    with pytest.raises(ValueError, match="B has wrong length"):
        QuadraticPolynomial([[2]], [1, 1], 0)


@settings(max_examples=100, deadline=None)
@given(m=int_matrices(square=True), data=st.data())
def test_polynomial_and_disc_caches_match_a_rebuild(m, data):
    n = len(m)
    terms = {}
    for i in range(n):
        for j in range(i, n):
            e = [0] * n
            e[i] += 1
            e[j] += 1
            terms[tuple(e)] = m[i][j]
    for i in range(n):
        terms[tuple(int(t == i) for t in range(n))] = data.draw(st.integers(-5, 5))
    terms[(0,) * n] = data.draw(st.integers(-5, 5))
    p = IntPolynomial(n, terms)
    F = QuadraticPolynomial.from_polynomial(p)
    poly, disc = F.to_polynomial(), F.disc()
    assert poly.terms == p.terms and poly.num_vars == n
    assert disc == cofactor_det([list(row) for row in F.two_q])
    # the second call returns the kept values, and a fresh object rebuilds them
    assert F.to_polynomial() is poly and F.disc() == disc
    fresh = QuadraticPolynomial(F.two_q, F.B, F.N)
    assert fresh.to_polynomial().terms == poly.terms and fresh.disc() == disc


def test_signature_hand_values():
    assert rank_signature_over_Q([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == (3, 3, 0)
    # [[0,1/2],[1/2,0]] has eigen-signs +,- (complete the square)
    m = [[0, Fraction(1, 2)], [Fraction(1, 2), 0]]
    assert rank_signature_over_Q(m) == (2, 1, 1)
    assert rank_signature_over_Q(((1, 0, 0), (0, 0, 0), (0, 0, -2))) == (2, 1, 1)


def test_signature_rejects_non_symmetric():
    with pytest.raises(ValueError):
        rank_signature_over_Q([[0, 1], [0, 0]])


def test_diagonalize_congruence_property():
    rng = random.Random(31)
    for _ in range(100):
        n = rng.randint(1, 6)
        a = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                v = Fraction(rng.randint(-5, 5), rng.choice([1, 1, 2]))
                a[i][j] = v
                a[j][i] = v
        t, diag = congruence_diagonalize(a)
        assert fraction_rank(t) == n
        back = matmul(matmul(list(map(list, zip(*t))), a), t)
        for i in range(n):
            for j in range(n):
                expect = diag[i] if i == j else 0
                assert back[i][j] == expect
        # rank agrees with plain gaussian elimination
        rank, pos, neg = rank_signature_over_Q(a)
        assert rank == fraction_rank(a)
        assert pos + neg == rank


def test_definite_iff_full_rank_one_sign():
    rng = random.Random(37)
    for _ in range(20):
        n = rng.randint(1, 4)
        b = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        bt_b = [[sum(b[k][i] * b[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
        # positive semidefinite by construction
        rank, pos, neg = rank_signature_over_Q(bt_b)
        assert neg == 0
        if int_matrix_det(b) != 0:
            assert (rank, pos) == (n, n)


def test_quadratic_data_extraction():
    p = IntPolynomial(2, {(1, 1): 1})
    f = QuadraticPolynomial.from_polynomial(p)
    assert f.two_q == ((0, 1), (1, 0))
    assert f.B == (0, 0) and f.N == 0

    p = IntPolynomial(1, {(2,): 1, (1,): 3, (0,): 7})
    f = QuadraticPolynomial.from_polynomial(p)
    assert f.two_q == ((2,),)
    assert f.B == (3,) and f.N == 7

    p = IntPolynomial(2, {(2, 0): 1, (1, 1): 2, (0, 2): 1})
    f = QuadraticPolynomial.from_polynomial(p)
    assert f.rank() == 1

    # integral Fraction entries are kept as ints
    f = QuadraticPolynomial([[Fraction(4, 2), -1], [-1, 0]], [1, 0], 3)
    assert f.two_q == ((2, -1), (-1, 0)) and type(f.two_q[0][0]) is int
    assert f.to_polynomial() == IntPolynomial(2, {(2, 0): 1, (1, 1): -1, (1, 0): 1, (0, 0): 3})


def test_quadratic_data_round_trip():
    rng = random.Random(41)
    for _ in range(40):
        n = rng.randint(1, 4)
        terms = {}
        for _ in range(rng.randint(1, 6)):
            exps = [0] * n
            for _ in range(rng.randint(0, 2)):
                exps[rng.randrange(n)] += 1
            terms[tuple(exps)] = rng.randint(-9, 9)
        p = IntPolynomial(n, terms)
        f = QuadraticPolynomial.from_polynomial(p)
        assert f.to_polynomial() == p
        assert QuadraticPolynomial(f.two_q, f.B, f.N).to_polynomial() == p


def test_quadratic_rejects_cubic():
    with pytest.raises(ValueError):
        QuadraticPolynomial.from_polynomial(IntPolynomial(1, {(3,): 1}))


# ---------------------------------------------------------------------------
# the unimodular split


@settings(max_examples=300, deadline=None)
@given(m=int_matrices())
def test_unimodular_split_kills_the_last_columns(m):
    r, u = unimodular_split(m)
    n = len(m[0]) if m else 0
    assert len(u) == n and abs(int_matrix_det(u)) == 1
    assert r == bareiss(m).rank
    if m:
        au = matmul(m, u)
        assert all(v == 0 for row in au for v in row[r:])
        assert bareiss([row[:r] for row in au]).rank == r


def old_rank_support(two_q):
    """The gcd of the order-rank minors of 2Q, by enumeration: the loop
    that `rank_support` replaced."""
    from itertools import combinations
    from math import gcd

    r = bareiss(two_q).rank
    if r == 0:
        return 0, 1
    m = len(two_q)
    g = 0
    for rows in combinations(range(m), r):
        for cols in combinations(range(m), r):
            g = gcd(g, int_matrix_det([[two_q[i][j] for j in cols] for i in rows]))
            if g == 1:
                return r, 1
    return r, g


@st.composite
def rank_deficient_two_q(draw):
    """2Q = L^t S L with S symmetric r x r of even diagonal and L r x m, so
    2Q is symmetric, even on the diagonal and of rank at most r <= m."""
    m = draw(st.integers(1, 6))
    r = draw(st.integers(0, m))
    bound = draw(st.sampled_from([2, 5, 30]))
    s = [[0] * r for _ in range(r)]
    for i in range(r):
        s[i][i] = 2 * draw(st.integers(-bound, bound))
        for j in range(i + 1, r):
            s[i][j] = s[j][i] = draw(st.integers(-bound, bound))
    lm = [[draw(st.integers(-3, 3)) for _ in range(m)] for _ in range(r)]
    return matmul(matmul(list(map(list, zip(*lm))), s), lm) if r else [[0] * m for _ in range(m)]


@settings(max_examples=300, deadline=None)
@given(two_q=rank_deficient_two_q())
def test_rank_support_matches_the_minor_loop(two_q):
    F = QuadraticPolynomial(two_q, [0] * len(two_q), 0)
    assert F.rank_support() == old_rank_support(two_q)
    u, s = F.rank_split()
    split = matmul(matmul(list(map(list, zip(*u))), two_q), u)
    r = len(s)
    assert [row[:r] for row in split[:r]] == [list(row) for row in s]
    assert all(v == 0 for i, row in enumerate(split) for j, v in enumerate(row) if i >= r or j >= r)
