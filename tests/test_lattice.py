import gc
import itertools
import os
import random
from fractions import Fraction
from math import gcd, isqrt
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cubefib import lattice
from cubefib.driver import fibration_count, parse_form_document
from cubefib.lattice import (
    QuadraticSolvedLevels,
    ball_counts,
    dot,
    enumerate_quadratic,
    enumerate_quadratics,
    gram_det,
    gram_matrix,
    hyperplane_count_asymptotic,
    hyperplane_count_exact,
    hyperplane_counts,
    kernel_lattice,
    lll_reduce,
    shortest_vector,
)
from cubefib.linalg import int_matrix_det
from cubefib.volumes import (
    VolumeConstantTable,
    ball_volume_exact,
    beta_product,
    gamma_half,
)
from strategies import unimodular_pairs

FORMS = os.path.join(os.path.dirname(__file__), "..", "forms")


def random_primitive(rng, n, bound=20):
    while True:
        a = [rng.randint(-bound, bound) for _ in range(n)]
        g = 0
        for v in a:
            g = gcd(g, v)
        if g == 1:
            return a


def test_kernel_lattice_hand_values():
    basis = kernel_lattice([1, 0, 0, 0])
    assert len(basis) == 3
    assert gram_det(basis) == 1
    for v in basis:
        assert v[0] == 0

    basis = kernel_lattice([1, 1, 1])
    assert len(basis) == 2
    assert gram_det(basis) == 3  # = ||a||^2 for primitive a

    # non-primitive a spans the same lattice as its primitive part
    basis = kernel_lattice([2, 2])
    assert len(basis) == 1
    assert gram_det(basis) == 2


def test_kernel_lattice_is_a_tuple_of_int_tuples():
    basis = kernel_lattice([3, -5, 7])
    assert type(basis) is tuple and all(type(v) is tuple for v in basis)
    assert all(type(x) is int for v in basis for x in v)
    for a in ([0, 0, 0], [5]):
        with pytest.raises(ValueError):
            kernel_lattice(a)


def old_kernel_basis(a):
    """The hand-written column reduction that `kernel_lattice` ran before
    it read its basis off `unimodular_split`."""
    from cubefib.nt import xgcd

    n = len(a)
    u = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    wvec = list(a)

    def combine(i, j):
        g, s, t = xgcd(wvec[i], wvec[j])
        if g == 0:
            return
        wi, wj = wvec[i] // g, wvec[j] // g
        for r in range(n):
            ci, cj = u[r][i], u[r][j]
            u[r][i] = s * ci + t * cj
            u[r][j] = -wj * ci + wi * cj
        wvec[i], wvec[j] = g, 0

    piv = next(i for i in range(n) if wvec[i])
    if piv != 0:
        for r in range(n):
            u[r][0], u[r][piv] = u[r][piv], u[r][0]
        wvec[0], wvec[piv] = wvec[piv], wvec[0]
    for j in range(1, n):
        if wvec[j]:
            combine(0, j)
    return [tuple(u[r][j] for r in range(n)) for j in range(1, n)]


@settings(max_examples=300, deadline=None)
@given(a=st.integers(2, 7).flatmap(
    lambda n: st.lists(st.integers(-10 ** 4, 10 ** 4), min_size=n, max_size=n)
    .filter(lambda v: any(v))))
def test_kernel_lattice_basis_equals_the_old_column_reduction(a):
    assert list(kernel_lattice(a)) == old_kernel_basis(a)


def test_kernel_lattice_covolume_is_norm_squared():
    rng = random.Random(97)
    for _ in range(100):
        n = rng.randint(2, 6)
        a = random_primitive(rng, n)
        basis = kernel_lattice(a)
        assert len(basis) == n - 1
        assert gram_det(basis) == dot(a, a)
        for v in basis:
            assert dot(a, v) == 0


def test_lll_reduce_properties():
    rng = random.Random(101)
    for _ in range(40):
        n = rng.randint(2, 5)
        k = rng.randint(2, n)
        while True:
            basis = [[rng.randint(-30, 30) for _ in range(n)] for _ in range(k)]
            if gram_det(basis) > 0:
                break
        red = lll_reduce(basis)
        # same lattice: every reduced vector is an integer combination of
        # the basis (so red spans a sublattice), of the same covolume
        assert len(red) == k
        for v in red:
            assert all(c.denominator == 1 for c in combination_coefficients(basis, v))
        assert gram_det(red) == gram_det(basis)


def combination_coefficients(basis, v):
    """The exact c with sum_j c_j basis[j] = v, for independent basis
    vectors: Cramer's rule on G c = (<b_i, v>), G the Gram matrix."""
    G, r = gram_matrix(basis), [dot(u, v) for u in basis]
    det = int_matrix_det(G)
    c = [Fraction(int_matrix_det([row[:j] + [x] + row[j + 1:] for row, x in zip(G, r)]), det)
         for j in range(len(basis))]
    assert [sum(cj * u[l] for cj, u in zip(c, basis)) for l in range(len(v))] == list(v)
    return c


def test_lll_reduce_rejects_a_dependent_basis():
    for basis in ([[1, 2], [2, 4]], [[1, 0, 0], [0, 1, 0], [1, 1, 0]], [[0, 0], [1, 0]]):
        with pytest.raises(ValueError, match="basis is not independent"):
            lll_reduce(basis)


def test_lll_hand_example():
    red = lll_reduce([[1, 0], [10 ** 6, 1]])
    norms = sorted(dot(v, v) for v in red)
    assert norms == [1, 1]


def test_shortest_vector_examples():
    l2, v = shortest_vector([[1, 0], [0, 1]])
    assert l2 == 1

    # Lambda_(3,4): shortest is (4, -3) with squared length 25
    l2, v = shortest_vector(lll_reduce(kernel_lattice([3, 4])))
    assert l2 == 25
    assert tuple(map(abs, v)) == (4, 3)

    # exact at every rank: Z^9, and Lambda_(1..10), whose shortest vectors,
    # such as (1, 1, -1, 0, ..., 0), have lambda_1^2 = 3
    l2, v = shortest_vector([[int(i == j) for j in range(9)] for i in range(9)])
    assert l2 == 1 and sorted(map(abs, v)) == [0] * 8 + [1]
    l2, v = shortest_vector(lattice._reduced_kernel_basis(tuple(range(1, 11))))
    assert l2 == dot(v, v) == 3
    assert dot(v, range(1, 11)) == 0


def test_shortest_vector_vs_bruteforce():
    rng = random.Random(103)
    for _ in range(40):
        n = rng.randint(2, 4)
        a = random_primitive(rng, n, bound=9)
        basis = kernel_lattice(a)
        l2, vec = shortest_vector(lll_reduce(basis))
        assert dot(vec, vec) == l2
        assert dot(a, vec) == 0
        # brute force over a box
        best = None
        R = 6
        for x in itertools.product(range(-R, R + 1), repeat=n):
            if any(x) and dot(a, x) == 0:
                nn = dot(x, x)
                best = nn if best is None else min(best, nn)
        if best is not None and best <= R * R:
            assert l2 == best
        # Minkowski sanity: lambda1 <= 2 covol^(1/rank), with slack recorded
        covol = gram_det(basis) ** 0.5
        assert l2 ** 0.5 <= 2 * covol ** (1 / len(basis)) + 1e-9


def test_ball_counts_bruteforce():
    rng = random.Random(107)
    for _ in range(60):
        n = rng.randint(2, 4)
        a = random_primitive(rng, n, bound=6)
        shift = [rng.randint(-3, 3) for _ in range(n)]
        R2 = Fraction(rng.randint(1, 120))
        count, samples = ball_counts([(lll_reduce(kernel_lattice(a)), shift, R2, 5)])[0]
        # brute force: x = shift + ker, i.e. <a, x> = <a, shift>
        target = dot(a, shift)
        R = isqrt(int(R2)) + 1
        brute = 0
        for x in itertools.product(range(-R, R + 1), repeat=n):
            if dot(a, x) == target and Fraction(dot(x, x)) <= R2:
                brute += 1
        assert count == brute
        for s in samples:
            assert dot(a, s) == target and Fraction(dot(s, s)) <= R2


def test_hyperplane_count_hand_example():
    # a = (1,1), b = 0, n = 2, B = 5: points (t, -t) with 2 t^2 + 1 <= 25
    res = hyperplane_count_exact([1, 1], 0, 5)
    assert res.exact == 7


def test_hyperplane_count_g_equals_one_matches():
    res1 = hyperplane_count_exact([2, 3], 1, 10)
    res2 = hyperplane_count_exact([2, 3], 1, 10, g=1)
    assert res1.exact == res2.exact


def test_hyperplane_count_with_g_matches_filtered_enumeration():
    rng = random.Random(109)
    for _ in range(50):
        n = rng.randint(2, 3)
        a = random_primitive(rng, n, bound=8)
        b = rng.randint(-10, 10)
        B = rng.randint(3, 12)
        g = rng.choice([1, 2, 3, 4, 6, 12])
        res = hyperplane_count_exact(a, b, B, g=g)
        brute = 0
        for x in itertools.product(range(-B, B + 1), repeat=n):
            if dot(a, x) + b == 0 and dot(x, x) + 1 <= B * B:
                xg = 0
                for v in x:
                    xg = gcd(xg, v)
                if gcd(xg, g) == 1:
                    brute += 1
        assert res.exact == brute, (a, b, B, g)


def test_hyperplane_count_rejects_non_primitive():
    with pytest.raises(ValueError):
        hyperplane_count_exact([2, 4], 0, 5)


def test_hyperplane_count_rejects_g_zero():
    # gcd(x, 0) = gcd(x): g = 0 is not "no filter"
    with pytest.raises(ValueError, match="g must be nonzero"):
        hyperplane_count_exact([1, 2], 0, 5, g=0)


@pytest.mark.parametrize("B", [-3, -1, Fraction(-1, 2)])
def test_hyperplane_counts_reject_negative_B(B):
    """No x has height <= B < 0; B^2 - 1 would drop the sign and count
    the ball of radius |B|."""
    for count in (hyperplane_count_exact, hyperplane_count_asymptotic):
        with pytest.raises(ValueError, match="B must be nonnegative"):
            count([1, 2], 0, B)
    with pytest.raises(ValueError, match="B must be nonnegative"):
        hyperplane_count_exact([1, 2], 0, B, g=6)


def test_hyperplane_count_at_B_zero_is_empty():
    assert hyperplane_count_exact([1, 2], 0, 0).exact == 0
    assert hyperplane_count_exact([1, 2], 0, 0, g=6).exact == 0
    assert hyperplane_count_asymptotic([1, 2], 0, 0).main == 0


def test_kernel_basis_is_reduced_once_per_hyperplane():
    lattice._reduced_kernel_basis.cache_clear()
    with mock.patch.object(lattice, "lll_reduce", wraps=lattice.lll_reduce) as lll:
        counts = [hyperplane_count_exact([3, -5, 7], 1, B).exact for B in (5, 9, 13)]
        hyperplane_count_exact([3, -5, 7], 1, 9, g=6)
    assert lll.call_count == 1
    assert counts == sorted(counts) and counts[-1] > 0


def test_volume_constants_match_ball_volume_exactly():
    table = VolumeConstantTable(12)
    for l in range(13):
        if l == 0:
            continue
        assert table.calibration_matches(l), l
        # and numerically to 1e-9 relative
        c = table.constant_float(l)
        exact = ball_volume_exact(l).float_value()
        assert abs(c - exact) <= 1e-9 * exact


def test_gamma_half_values():
    assert gamma_half(2).rational == 1          # Gamma(1)
    assert gamma_half(4).rational == 1          # Gamma(2)
    assert gamma_half(6).rational == 2          # Gamma(3)
    g = gamma_half(3)                            # Gamma(3/2) = sqrt(pi)/2
    assert g.rational == Fraction(1, 2) and g.half_exponent == 1


def test_beta_product_closed_form():
    # beta_product(l) = pi^(l/2) / Gamma(l/2)
    for l in range(1, 11):
        bp = beta_product(l)
        g = gamma_half(l)
        assert bp.rational * g.rational == 1
        assert bp.half_exponent + g.half_exponent == l


def test_asymptotic_hand_example():
    # n=2, a=(1,1), b=0, B=5: main = 2*5/sqrt(2), exact count 7
    res = hyperplane_count_asymptotic([1, 1], 0, 5)
    assert abs(res.main - 10 / 2 ** 0.5) < 1e-12
    exact = hyperplane_count_exact([1, 1], 0, 5).exact
    assert abs(exact - res.main) <= res.budget


def test_asymptotic_axis_vector():
    # a = e_1: lattice Z^(n-1), B = 100
    res = hyperplane_count_asymptotic([1, 0, 0], 0, 100)
    exact = hyperplane_count_exact([1, 0, 0], 0, 100).exact
    assert abs(exact - res.main) <= res.budget


def test_asymptotic_precondition():
    with pytest.raises(ValueError):
        hyperplane_count_asymptotic([1, 1], 10 ** 6, 10)


def test_asymptotic_budget_holds_family():
    rng = random.Random(113)
    for n in (2, 3, 4):
        for _ in range(12):
            a = random_primitive(rng, n, bound=25)
            if dot(a, a) > 2500:
                continue
            b = rng.randint(-5, 5)
            B = 100
            res = hyperplane_count_asymptotic(a, b, B)
            exact = hyperplane_count_exact(a, b, B).exact
            assert abs(exact - res.main) <= res.budget, (a, b)


# ---------------------------------------------------------------------------
# property tests of the enumeration kernel against direct box enumeration


@st.composite
def definite_quadratics(draw):
    """(G, w, c) with G = A^T A + e I, e >= 1, so every t with
    t^T G t + 2 w.t + c <= 0 has ||t|| <= ||w|| + sqrt(||w||^2 - c)."""
    k = draw(st.integers(1, 4))
    small = st.integers(-2, 2)
    A = [[draw(small) for _ in range(k)] for _ in range(k)]
    e = draw(st.integers(1, 3))
    G = [[sum(A[r][i] * A[r][j] for r in range(k)) + (e if i == j else 0) for j in range(k)]
         for i in range(k)]
    w = [draw(small) for _ in range(k)]
    c = draw(st.integers(-12, 4))
    return G, w, c


def schur_levels(G, w, c):
    """Reference levels by rational Schur complements: level j is Delta_j
    times the matrix of min over t_0..t_{j-1} of Q, in (t_j..t_{k-1}, 1)."""
    mat = [[Fraction(v) for v in row] + [Fraction(wi)] for row, wi in zip(G, w)]
    mat.append([Fraction(v) for v in w] + [Fraction(c)])
    delta, levels = Fraction(1), []
    for _ in range(len(G)):
        m = [[delta * v for v in row] for row in mat]
        assert all(v.denominator == 1 for row in m for v in row)
        size = len(m)
        rest = tuple((i - 1, l - 1, int(m[i][l]) * (1 if i == l else 2))
                     for i in range(1, size) for l in range(i, size) if m[i][l])
        levels.append({"a": int(m[0][0]), "lin": tuple(int(v) for v in m[0][1:]), "rest": rest})
        piv = mat[0][0]
        mat = [[mat[i][l] - mat[i][0] * mat[0][l] / piv for l in range(1, size)]
               for i in range(1, size)]
        delta *= piv
    return levels


@st.composite
def definite_matrices(draw):
    """(G, w, c), G = A^T A + e I positive definite, k = 1..5."""
    k = draw(st.integers(1, 5))
    small = st.integers(-4, 4)
    A = [[draw(small) for _ in range(k)] for _ in range(k)]
    e = draw(st.integers(1, 4))
    G = [[sum(A[r][i] * A[r][j] for r in range(k)) + (e if i == j else 0) for j in range(k)]
         for i in range(k)]
    return G, [draw(st.integers(-30, 30)) for _ in range(k)], draw(st.integers(-500, 500))


@settings(max_examples=200, deadline=None)
@given(definite_matrices())
def test_bareiss_levels_equal_rational_schur_complements(Gwc):
    assert QuadraticSolvedLevels(*Gwc).levels == schur_levels(*Gwc)


@pytest.mark.parametrize("G", [[[0]], [[-1]], [[1, 2], [2, 1]], [[2, 1, 0], [1, 2, 1], [0, 1, 0]],
                               [[1, 1], [1, 1]], [[0, 1], [1, 5]]])
def test_levels_reject_a_gram_matrix_that_is_not_positive_definite(G):
    k = len(G)
    with pytest.raises(ValueError, match="not positive definite"):
        QuadraticSolvedLevels(G, [0] * k, -1)
    with pytest.raises(ValueError):
        enumerate_quadratic(G, [0] * k, -1)


def box_points(G, w, c, keep, R=None):
    """(t, Q(t)) for every t in the box [-R, R]^k with keep(Q(t)), in
    enumeration order (t_{k-1} outermost, every coordinate ascending). The
    default R holds {Q <= 0} when G - I is positive semi-definite."""
    k = len(G)
    if R is None:
        R = isqrt(dot(w, w)) + isqrt(max(0, dot(w, w) - c)) + 2
    ts = np.array(list(itertools.product(range(-R, R + 1), repeat=k)))[:, ::-1]
    q = np.einsum("ni,ij,nj->n", ts, np.array(G), ts) + 2 * ts @ np.array(w) + c
    mask = keep(q)
    return [tuple(int(v) for v in t) for t in ts[mask]], [int(v) for v in q[mask]]


@settings(max_examples=150, deadline=None)
@given(definite_quadratics(), st.integers(0, 6))
def test_kernel_count_leaf_matches_box(Gwc, sample_limit):
    G, w, c = Gwc
    inside, _ = box_points(G, w, c, lambda q: q <= 0)
    assert enumerate_quadratic(G, w, c, "count") == (len(inside), [])
    count, samples = enumerate_quadratics([(QuadraticSolvedLevels(G, w, c), sample_limit)])[0]
    assert count == len(inside)
    assert samples == inside[:sample_limit]


def root_rows(result, k, dtype=np.int64):
    """(count, rows as tuples) of a "roots" result, which must be one array
    of shape (count, k) and the given dtype."""
    count, roots = result
    assert isinstance(roots, np.ndarray) and roots.dtype == dtype and roots.shape == (count, k)
    return count, [tuple(t) for t in roots.tolist()]


@settings(max_examples=150, deadline=None)
@given(definite_quadratics())
@example(([[2]], [0], 1))  # no root, k = 1
@example(([[2]], [0], -2))  # roots +-1
@example(([[2, 0], [0, 2]], [0, 0], -3))  # no root, k = 2
@example(([[2, 0], [0, 2]], [0, 0], -10))  # 8 roots
@example(([[2, 0, 0], [0, 2, 0], [0, 0, 2]], [0, 0, 0], -14))  # no root, k = 3
def test_kernel_roots_leaf_matches_box(Gwc):
    G, w, c = Gwc
    roots, _ = box_points(G, w, c, lambda q: q == 0)
    assert root_rows(enumerate_quadratic(G, w, c, "roots"), len(G)) == (len(roots), roots)


@st.composite
def independent_bases(draw):
    """k independent integer vectors in Z^n, k in 1..5, n in k..k+2."""
    k = draw(st.integers(1, 5))
    n = draw(st.integers(k, k + 2))
    rows = st.lists(st.integers(-6, 6), min_size=n, max_size=n)
    return draw(st.lists(rows, min_size=k, max_size=k).filter(lambda b: gram_det(b) > 0))


@settings(max_examples=150, deadline=None)
@given(independent_bases())
def test_shortest_vector_is_the_box_minimum(basis):
    """lambda_1^2 is the least t^T G t over t != 0 in a box that holds
    {t^T G t <= min G_ii}: t_i^2 <= (t^T G t) (G^-1)_ii by Cauchy-Schwarz,
    and (G^-1)_ii is a principal minor over det G. Below the shortest basis
    vector the vector is the first minimiser in enumeration order."""
    G, k = gram_matrix(basis), len(basis)
    bound, det = min(G[i][i] for i in range(k)), int_matrix_det(G)
    minors = [int_matrix_det([r[:i] + r[i + 1:] for r in G[:i] + G[i + 1:]]) if k > 1 else 1
              for i in range(k)]
    R = isqrt(bound * max(minors) // det) + 1
    assume((2 * R + 1) ** k <= 200_000)
    ts, qs = box_points(G, [0] * k, 0, lambda q: q <= bound, R)
    lam1 = min(q for t, q in zip(ts, qs) if any(t))
    l2, v = shortest_vector(basis)
    assert l2 == lam1 == dot(v, v)
    if lam1 < bound:
        first = next(t for t, q in zip(ts, qs) if q == lam1)
        assert v == tuple(dot(first, col) for col in zip(*basis))
    else:
        assert v == tuple(min(basis, key=lambda u: dot(u, u)))


@st.composite
def small_definite_quadratics(draw):
    """(G, w, c) as in `definite_quadratics` but for k = 1..5, with w and c
    small enough that the box of `box_points` stays below 15^5 points."""
    k = draw(st.integers(1, 5))
    A = [[draw(st.integers(-2, 2)) for _ in range(k)] for _ in range(k)]
    e = draw(st.integers(1, 3))
    G = [[sum(A[r][i] * A[r][j] for r in range(k)) + (e if i == j else 0) for j in range(k)]
         for i in range(k)]
    return G, [draw(st.integers(-1, 1)) for _ in range(k)], draw(st.integers(-8, 2))


@settings(max_examples=120, deadline=None)
@given(small_definite_quadratics(), st.sampled_from([1, 2 ** 8, 2 ** 60]))
def test_int64_count_leaf_matches_python_rows_and_box(Gwc, scale):
    """Scaling Q by a positive integer keeps {Q <= 0}; at 2^60 no level
    passes the int64 guard and the Python rows count."""
    G, w, c = Gwc
    inside, _ = box_points(G, w, c, lambda q: q <= 0)
    sG, sw, sc = [[scale * v for v in row] for row in G], [scale * v for v in w], scale * c
    levels = []
    with mock.patch.object(lattice, "_entry_level", entry_level_spy(levels)):
        count, samples = enumerate_quadratic(sG, sw, sc, "count")
    with mock.patch.object(lattice, "_entry_level", python_rows_only):
        python_rows, _ = enumerate_quadratic(sG, sw, sc, "count")
    assert count == python_rows == len(inside) and samples == []
    check_entry_levels(levels, Gwc, scale)


def entry_level_spy(levels):
    """`lattice._entry_level`, recording its level for each system."""
    guard = lattice._entry_level

    def spy(solver):
        levels.append(guard(solver))
        return levels[-1]
    return spy


def python_rows_only(solver):
    """`lattice._entry_level` with no level for any system."""
    return 0


def check_entry_levels(levels, Gwc, scale):
    """Small systems enter at their top level (k = 1 at its phantom level
    1); at 2^60 every system takes the Python rows, but for k = 1 with a
    discriminant <= 0 and a_0 < 2^62: its row of at most one point stays
    small."""
    (G, w, c), k = Gwc, len(Gwc[0])
    if scale == 1:
        assert levels == [max(k - 1, 1)]
    elif scale == 2 ** 60:
        assert levels == [1 if k == 1 and w[0] ** 2 <= G[0][0] * c and G[0][0] < 4 else 0]


@settings(max_examples=120, deadline=None)
@given(small_definite_quadratics(), st.sampled_from([1, 2 ** 8, 2 ** 60]))
@example(([[2, 0, 0], [0, 2, 0], [0, 0, 2]], [0, 0, 0], -18), 1)  # 30 roots
@example(([[2 if i == j else 0 for j in range(4)] for i in range(4)], [0] * 4, -18), 1)  # 104
@example(([[2, 1, 0, 0], [1, 2, 0, 0], [0, 0, 2, 0], [0, 0, 0, 4]], [1, 0, -1, 2], -40), 1)  # 240
@example(([[2, 0, 0, 0], [0, 2, 0, 0], [0, 0, 2, 0], [0, 0, 0, 2]], [0] * 4, -13), 2 ** 8)  # 0
@example(([[2]], [1], -3), 2 ** 60)  # k = 1
@example(([[2, 1], [1, 2]], [0, 1], -5), 1)  # k = 2
def test_int64_roots_leaf_matches_python_rows_and_box(Gwc, scale):
    """Scaling Q by a positive integer keeps its roots; the int64 roots, the
    Python rows' roots and the box's roots agree: one int64 array each, of
    shape (count, k), in enumeration order. The examples have many roots,
    both signs of t_0, rows with s = 0, no root and k = 1, 2."""
    G, w, c = Gwc
    roots, _ = box_points(G, w, c, lambda q: q == 0)
    sG, sw, sc = [[scale * v for v in row] for row in G], [scale * v for v in w], scale * c
    levels = []
    with mock.patch.object(lattice, "_entry_level", entry_level_spy(levels)):
        found = root_rows(enumerate_quadratic(sG, sw, sc, "roots"), len(G))
    with mock.patch.object(lattice, "_entry_level", python_rows_only):
        python_rows = root_rows(enumerate_quadratic(sG, sw, sc, "roots"), len(G))
    assert found == python_rows == (len(roots), roots)
    check_entry_levels(levels, Gwc, scale)


@pytest.mark.parametrize("M", [2 ** 62, 2 ** 70])
def test_roots_far_out_take_the_python_rows(M):
    """|t - (0, 0, 0, M)|^2 = 1: every discriminant is small, but t_3 is
    about M, so the int64 guard sends the system to the Python rows. Their
    roots come back as int64 when they fit and as one object array of
    Python integers when they do not, exact either way."""
    I = [[int(i == j) for j in range(4)] for i in range(4)]
    roots, _ = box_points(I, [0] * 4, -1, lambda q: q == 0)
    dtype = np.int64 if M < 2 ** 63 else object
    count, found = root_rows(enumerate_quadratic(I, [0, 0, 0, -M], M * M - 1, "roots"), 4, dtype)
    assert (count, found) == (len(roots), [t[:3] + (t[3] + M,) for t in roots])
    assert all(type(v) is int for t in found for v in t)
    count, found = root_rows(enumerate_quadratic([[2]], [0], -2 * M * M, "roots"), 1, dtype)
    assert (count, found) == (2, [(-M,), (M,)])


def test_int64_isqrt_is_exact_up_to_2_62():
    rng = random.Random(113)
    roots = [1, 2, 3, 2 ** 26 - 1, 2 ** 26 + 1, isqrt(2 ** 62 - 1)]
    roots += [rng.randrange(2 ** 26, isqrt(2 ** 62 - 1)) for _ in range(200)]
    xs = [x for r in roots for x in (r * r - 1, r * r, r * r + 1, r * r + 2 * r) if x < 2 ** 62]
    assert lattice._isqrt64(np.array([0] + xs, dtype=np.int64)).tolist() == [0] + [isqrt(x) for x in xs]


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_centred_shift_keeps_counts_and_samples(data):
    """The nearest-centre translation changes neither the count nor the
    samples (the same points, in the same order) of a ball count."""
    n = data.draw(st.integers(2, 5))
    a = data.draw(st.lists(st.integers(-9, 9), min_size=n, max_size=n)
                  .filter(lambda v: np.gcd.reduce(v) == 1))
    basis = lll_reduce(kernel_lattice(a))
    far = data.draw(st.lists(st.integers(-10 ** 6, 10 ** 6), min_size=n - 1, max_size=n - 1))
    near = data.draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
    shift = [s + dot(far, col) for s, col in zip(near, zip(*basis))]
    R2 = Fraction(data.draw(st.integers(0, 400)), data.draw(st.sampled_from([1, 4, 9])))
    sample_limit = data.draw(st.integers(0, 6))
    ball = (basis, shift, R2, sample_limit)
    centred = ball_counts([ball])[0]
    with mock.patch.object(lattice, "_centred_shifts", lambda balls: [list(b[1]) for b in balls]):
        assert ball_counts([ball])[0] == centred


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_hyperplane_count_at_scaled_ball_endpoints(data):
    """B^2 - 1 = d^2 r exactly for a Mobius divisor d of g, so the scaled
    ball of that term is closed at an integer radius squared."""
    n = data.draw(st.integers(2, 3))
    a = data.draw(st.lists(st.integers(-4, 4), min_size=n, max_size=n)
                  .filter(lambda v: np.gcd.reduce(v) == 1))
    g = data.draw(st.sampled_from([2, 3, 6]))
    d = data.draw(st.sampled_from([p for p in (2, 3) if g % p == 0]))
    B = data.draw(st.integers(1, 2)) * d * d + data.draw(st.sampled_from([-1, 1]))
    y0 = data.draw(st.lists(st.integers(-1, 1), min_size=n, max_size=n))
    b = -d * dot(a, y0)  # the hyperplane meets d Z^n
    res = hyperplane_count_exact(a, b, B, g=g)
    xs = np.array(list(itertools.product(range(-B, B + 1), repeat=n)))
    keep = (xs @ np.array(a) + b == 0) & ((xs * xs).sum(axis=1) + 1 <= B * B)
    keep &= np.gcd(np.gcd.reduce(np.abs(xs), axis=1), g) == 1
    assert res.exact == int(keep.sum())


@st.composite
def hyperplane_rungs(draw):
    """1-12 fibres (a, b, B, g, sample_limit) of one n = 3..5: g with up to
    three primes, hyperplanes that meet d Z^n for a Mobius divisor d (or
    miss it by 1), and B in {0, 1} or B^2 - 1 = d^2 r exactly."""
    n = draw(st.integers(3, 5))
    fibres = []
    for _ in range(draw(st.integers(1, 12))):
        a = draw(st.lists(st.integers(-5, 5), min_size=n, max_size=n)
                 .filter(lambda v: np.gcd.reduce(v) == 1))
        g = draw(st.sampled_from([1, 2, 6, 30]))
        d = draw(st.sampled_from([p for p in (1, 2, 3) if g % p == 0]))
        y0 = draw(st.lists(st.integers(-1, 1), min_size=n, max_size=n))
        b = -d * dot(a, y0) + draw(st.sampled_from([0, 0, 1]))
        B = draw(st.sampled_from([0, 1, d * d - 1, d * d + 1, 2 * d * d + 1]))
        fibres.append((a, b, B, g, draw(st.integers(0, 3))))
    return fibres


@settings(max_examples=60, deadline=None)
@given(hyperplane_rungs(), st.sampled_from([(1 << 16, 1 << 16), (3, 2)]))
def test_rung_batch_equals_one_at_a_time_and_the_python_rows(fibres, flush_chunk):
    """One batch for a whole rung gives each fibre the count and samples of
    its own call and of the Python rows, also when the batch runs every
    few level-1 nodes and slices its rows by two."""
    flush, chunk = flush_chunk
    with mock.patch.object(lattice, "_NODE_FLUSH", flush), mock.patch.object(lattice, "_ROW_CHUNK", chunk):
        batched = hyperplane_counts(fibres)
    alone = [hyperplane_counts([fibre])[0] for fibre in fibres]
    with mock.patch.object(lattice, "_entry_level", python_rows_only):
        python_rows = hyperplane_counts(fibres)
    assert batched == alone == python_rows
    assert [hyperplane_count_exact(*fibre[:4]).exact for fibre in fibres] == [r.exact for r in batched]


@pytest.mark.parametrize("roots", [False, True])
def test_one_system_past_the_int64_guard_leaves_the_others_in_the_batch(roots):
    """Scaled by 2^60, one system passes the int64 guard at no level and
    takes the Python rows; the rest of its batch stays int64, with the same
    results when the batch runs every few nodes and slices its rows by two."""
    base = [([[2, 1, 0], [1, 3, 1], [0, 1, 4]], [1, -1, 0], -40, 3),
            ([[2, 0, 0, 0], [0, 2, 0, 0], [0, 0, 2, 0], [0, 0, 0, 2]], [0, 0, 0, 0], -18, 2),
            ([[3, 1, 1], [1, 3, 1], [1, 1, 3]], [2, 0, -1], -30, 0),
            ([[4, 1, 0, 0], [1, 2, 0, 0], [0, 0, 2, 1], [0, 0, 1, 3]], [1, 0, 1, -2], -25, 1)]
    scale = 2 ** 60
    G, w, c, limit = base[1]
    systems = [(QuadraticSolvedLevels(G, w, c), limit) for G, w, c, limit in base]
    systems.insert(1, (QuadraticSolvedLevels([[scale * v for v in row] for row in G], [scale * v for v in w],
                                             scale * c), limit))
    levels = []
    with mock.patch.object(lattice, "_entry_level", entry_level_spy(levels)):
        batched = enumerate_quadratics(systems, roots)
    assert levels == [2, 0, 3, 2, 3]
    alone = [enumerate_quadratics([system], roots)[0] for system in systems]
    with mock.patch.object(lattice, "_NODE_FLUSH", 3), mock.patch.object(lattice, "_ROW_CHUNK", 2):
        sliced = enumerate_quadratics(systems, roots)
    if roots:
        batched, alone, sliced = ([root_rows(res, solver.k) for res, (solver, _) in zip(results, systems)]
                                  for results in (batched, alone, sliced))
    assert batched == alone == sliced and batched[1] == batched[2] and batched[1][0] > 0


def test_int64_pass_past_its_guard_raises_at_criterion_9_scale():
    """Entered at the top level, 19 fibres of the B = 512 rung of pi_prime_n8
    wrap int64 (the rung reads 1,539,601,881 in place of 1,543,706,711); a
    wrapped discriminant is negative, and the tripwire raises at its square
    root rather than let the rung return."""
    with open(os.path.join(FORMS, "pi_prime_n8.json")) as f:
        doc = parse_form_document(f.read())
    with mock.patch.object(lattice, "_entry_level", lambda solver: solver.k - 1):
        with pytest.raises(FloatingPointError, match="invalid value"):
            fibration_count(doc.poly, doc.split, "pi_prime", [512])


@st.composite
def quadratics_to_rank_6(draw):
    """(G, w, c) with G = A^T A + e I, e >= 1, for k = 1..6, with w and c
    small enough that the box of `box_points` stays below 160,000 points."""
    k = draw(st.integers(1, 6))
    A = [[draw(st.integers(-2, 2)) for _ in range(k)] for _ in range(k)]
    e = draw(st.integers(1, 3))
    G = [[sum(A[r][i] * A[r][j] for r in range(k)) + (e if i == j else 0) for j in range(k)]
         for i in range(k)]
    if k <= 4:
        return G, [draw(st.integers(-2, 2)) for _ in range(k)], draw(st.integers(-12, 4))
    if k == 5:
        return G, [draw(st.integers(-1, 1)) for _ in range(2)] + [0] * 3, draw(st.integers(-6, 2))
    return G, [0] * 6, draw(st.integers(-3, 2))


@settings(max_examples=100, deadline=None)
@given(quadratics_to_rank_6(), st.integers(0, 3))
def test_int64_pass_entered_at_every_level_matches_python_rows_and_box(Gwc, sample_limit):
    """The int64 pass entered at each level that fits (every level up to the
    guard's, which for these small systems is the top) counts, samples and
    finds roots as the Python rows and the box scan do."""
    G, w, c = Gwc
    k, solver = len(G), QuadraticSolvedLevels(G, w, c)
    inside, qs = box_points(G, w, c, lambda q: q <= 0)
    roots = [t for t, q in zip(inside, qs) if q == 0]
    count = lattice._python_rows(solver, "count", sample_limit)
    found = root_rows(lattice._python_rows(solver, "roots", 0), k)
    assert count == (len(inside), inside[:sample_limit]) and found == (len(roots), roots)
    assert lattice._entry_level(solver) == max(k - 1, 1)
    for level in range(1, max(k - 1, 1) + 1):
        with mock.patch.object(lattice, "_entry_level", lambda solver: level):
            assert enumerate_quadratics([(solver, sample_limit)])[0] == count
            assert root_rows(enumerate_quadratics([(solver, 0)], roots=True)[0], k) == found


@settings(max_examples=40, deadline=None)
@given(st.lists(quadratics_to_rank_6(), min_size=2, max_size=6), st.data(),
       st.sampled_from([(1 << 14, 1 << 16), (3, 2)]))
def test_batch_mixing_entry_levels_equals_the_python_rows(quadratics, data, flush_chunk):
    """One batch whose systems enter at different levels, with a 2^60-scaled
    system that the guard sends to the Python rows alone, gives every
    system the Python rows' count, samples and roots, also when it runs
    every few nodes and slices its rows by two."""
    scale = 2 ** 60
    far = QuadraticSolvedLevels([[2 * scale if i == j else 0 for j in range(3)] for i in range(3)],
                                [0] * 3, -10 * scale)
    assert lattice._entry_level(far) == 0
    systems = [(QuadraticSolvedLevels(*Gwc), data.draw(st.integers(0, 3))) for Gwc in quadratics]
    systems.insert(data.draw(st.integers(0, len(systems))), (far, 2))
    levels = {id(solver): data.draw(st.integers(1, max(solver.k - 1, 1))) if solver is not far else 0
              for solver, _ in systems}
    flush, chunk = flush_chunk
    for roots in (False, True):
        leaf = "roots" if roots else "count"
        with mock.patch.object(lattice, "_entry_level", lambda solver: levels[id(solver)]), \
                mock.patch.object(lattice, "_NODE_FLUSH", flush), mock.patch.object(lattice, "_ROW_CHUNK", chunk):
            batched = enumerate_quadratics(systems, roots)
        python_rows = [lattice._python_rows(solver, leaf, 0 if roots else limit) for solver, limit in systems]
        if roots:
            batched, python_rows = ([root_rows(res, solver.k) for res, (solver, _) in zip(results, systems)]
                                    for results in (batched, python_rows))
        assert batched == python_rows


@settings(max_examples=150, deadline=None)
@given(quadratics_to_rank_6(), st.sampled_from([2 ** e for e in (20, 26, 28, 29, 30, 31, 32, 33, 40)]),
       st.integers(-3, 3), st.integers(-3, 3), st.integers(0, 3))
def test_int64_guard_near_2_62_matches_python_rows(Gwc, scale, dw, dc, sample_limit):
    """Scaled so that the pass's values come near 2^62, with the centre and
    the constant moved off the scaled ones: whatever level the guard picks,
    the int64 pass counts, samples and finds roots as the Python rows do."""
    G, w, c = Gwc
    solver = QuadraticSolvedLevels([[scale * v for v in row] for row in G], [scale * v + dw for v in w],
                                   scale * c + dc)
    count = lattice._python_rows(solver, "count", sample_limit)
    found = root_rows(lattice._python_rows(solver, "roots", 0), solver.k)
    assert enumerate_quadratics([(solver, sample_limit)])[0] == count
    assert root_rows(enumerate_quadratics([(solver, 0)], roots=True)[0], solver.k) == found


def test_the_int64_pass_leaves_no_reference_cycle():
    """A batch's arrays and closures are freed by reference counting when it
    returns: garbage that only the cyclic collector frees makes collections,
    and their pauses, more frequent."""
    systems = [(QuadraticSolvedLevels([[2, 1, 0], [1, 3, 1], [0, 1, 4]], [1, -1, 0], -40), 3),
               (QuadraticSolvedLevels([[2]], [1], -9), 1)]
    gc.collect()
    gc.disable()
    try:
        for roots in (False, True):
            enumerate_quadratics(systems, roots)
        assert gc.collect() == 0
    finally:
        gc.enable()


@settings(max_examples=80, deadline=None)
@given(definite_quadratics(), st.data())
def test_unimodular_change_keeps_the_count_and_maps_the_roots(Gwc, data):
    """Q(U t) has the matrix U^T G U and the linear term U^T w, so for
    unimodular U its count is that of Q and its roots are U^-1 times Q's."""
    G, w, c = Gwc
    k = len(G)
    U, V = data.draw(unimodular_pairs(k))
    assert [[dot(row, col) for col in zip(*V)] for row in U] == [[int(i == j) for j in range(k)]
                                                                for i in range(k)]
    UGU = [[dot(ui, [dot(row, uj) for row in G]) for uj in zip(*U)] for ui in zip(*U)]
    Uw = [dot(ui, w) for ui in zip(*U)]
    assert enumerate_quadratic(UGU, Uw, c, "count") == enumerate_quadratic(G, w, c, "count")
    _, roots = root_rows(enumerate_quadratic(G, w, c, "roots"), k)
    _, moved = root_rows(enumerate_quadratic(UGU, Uw, c, "roots"), k)
    assert sorted(moved) == sorted(tuple(dot(row, t) for row in V) for t in roots)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_hyperplane_count_is_invariant_under_signed_permutations(data):
    """x -> P x for a signed permutation P keeps ||x||, gcd(x, g) and
    <P a, P x> = <a, x>, so N(a, b, B) with the gcd filter does not move."""
    n = data.draw(st.integers(2, 5))
    a = data.draw(st.lists(st.integers(-6, 6), min_size=n, max_size=n)
                  .filter(lambda v: np.gcd.reduce(v) == 1))
    b, B = data.draw(st.integers(-20, 20)), data.draw(st.integers(0, 12))
    g = data.draw(st.sampled_from([None, 1, 2, 6, 30]))
    perm = data.draw(st.permutations(range(n)))
    signs = data.draw(st.lists(st.sampled_from([-1, 1]), min_size=n, max_size=n))
    moved = [s * a[p] for s, p in zip(signs, perm)]
    assert hyperplane_count_exact(moved, b, B, g).exact == hyperplane_count_exact(a, b, B, g).exact


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_lambda1_and_covolume_are_invariant_under_signed_permutations(data):
    """A signed permutation P maps Lambda_a isometrically onto Lambda_(P a),
    so its covolume and its exact lambda_1^2 do not move, whatever basis
    `kernel_lattice` picks for either."""
    n = data.draw(st.integers(2, 17))
    a = data.draw(st.lists(st.integers(-20, 20), min_size=n, max_size=n).filter(any))
    perm = data.draw(st.permutations(range(n)))
    signs = data.draw(st.lists(st.sampled_from([-1, 1]), min_size=n, max_size=n))
    moved = [s * a[p] for s, p in zip(signs, perm)]
    assert gram_det(kernel_lattice(moved)) == gram_det(kernel_lattice(a))
    assert (hyperplane_count_asymptotic(moved, 0, 10).lambda1_sq
            == hyperplane_count_asymptotic(a, 0, 10).lambda1_sq)
