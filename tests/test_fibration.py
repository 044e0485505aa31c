import dataclasses
import itertools
import os
import random
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubefib import fibration
from cubefib.driver import parse_form_document
from cubefib.fibration import (
    FalsificationAlarm,
    build_fibration,
    bundle_matrix,
    classify_rank2_bundle,
    detect_common_linear_factor_Qi,
    detect_hypothesis_h1,
    divide_form_by_linear,
    divides_form,
    extract_linear_block,
    fibre_polynomial,
    _linear_coefficients,
    _primitive,
    common_linear_factor,
    linear_factors,
    order3_minor_common_factor,
    order3_minors,
    singular_locus_dim_probe,
    split_cubic,
)
from cubefib.linalg import QuadraticPolynomial, bareiss, congruence_diagonalize, int_matrix_det
from cubefib.polynomials import IntPolynomial, VariableSplit

X = IntPolynomial.variable


def poly(n, build):
    """build gets the n variable polynomials and returns their combination."""
    return build(*[X(n, i) for i in range(n)])


def test_split_cubic_hand_examples():
    # C = y1 (x1^2 + x2^2) with x = (0, 1), y = (2,)
    C = poly(3, lambda x1, x2, y1: y1 * (x1 * x1 + x2 * x2))
    sp = VariableSplit(3, (0, 1), (2,))
    F, q, R = split_cubic(C, sp)
    assert F[0] == poly(2, lambda a, b: a * a + b * b)
    assert all(qi.is_zero() for qi in q)
    assert R.is_zero()

    # C = y1 x1^2 + y2 x1 x2 + x1 y2^2 + y1^3
    C = poly(4, lambda x1, x2, y1, y2: y1 * x1 * x1 + y2 * x1 * x2 + x1 * y2 * y2 + y1 ** 3)
    sp = VariableSplit(4, (0, 1), (2, 3))
    F, q, R = split_cubic(C, sp)
    assert F[0] == poly(2, lambda a, b: a * a)
    assert F[1] == poly(2, lambda a, b: a * b)
    assert q[0] == poly(2, lambda u, v: v * v)
    assert q[1].is_zero()
    assert R == poly(2, lambda u, v: u ** 3)


def test_split_cubic_rejects_x_cubed():
    C = poly(3, lambda x1, x2, y1: x1 ** 3)
    with pytest.raises(ValueError, match="h-decomposition"):
        split_cubic(C, VariableSplit(3, (0, 1), (2,)))


def test_fibration_rank_hand_examples():
    # Q_y = y1 (x1^2 + x2^2): rank 2, witness minor 4 y1^2
    C = poly(3, lambda x1, x2, y1: y1 * (x1 * x1 + x2 * x2))
    fd = build_fibration(C, VariableSplit(3, (0, 1), (2,)))
    assert fd.rank == 2
    assert fd.witness[2] == IntPolynomial(1, {(2,): 4})

    # Q_y = y1 x1^2 + y2 x1 x2: M2 = [[2y1, y2], [y2, 0]], det = -y2^2
    C = poly(4, lambda x1, x2, y1, y2: y1 * x1 * x1 + y2 * x1 * x2)
    fd = build_fibration(C, VariableSplit(4, (0, 1), (2, 3)))
    assert fd.rank == 2
    assert fd.witness[2] == IntPolynomial(2, {(0, 2): -1})

    # zero quadratic part
    C = poly(3, lambda x1, x2, y1: y1 ** 3)
    fd = build_fibration(C, VariableSplit(3, (0, 1), (2,)))
    assert fd.rank == 0


def random_split_cubic(rng, n):
    h = rng.randint(1, n - 1)
    xs = tuple(range(n - h))
    ys = tuple(range(n - h, n))
    terms = {}
    for _ in range(rng.randint(2, 10)):
        kind = rng.random()
        e = [0] * n
        if kind < 0.45:
            e[rng.choice(xs)] += 1
            e[rng.choice(xs)] += 1
            e[rng.choice(ys)] += 1
        elif kind < 0.8:
            e[rng.choice(xs)] += 1
            e[rng.choice(ys)] += 1
            e[rng.choice(ys)] += 1
        else:
            for _ in range(3):
                e[rng.choice(ys)] += 1
        terms[tuple(e)] = rng.randint(-5, 5)
    return IntPolynomial(n, terms), VariableSplit(n, xs, ys)


def test_fibration_rank_bounds_the_rank_at_random_points():
    # acceptance-style: the rank of M[y] at a random integer point never
    # exceeds its rank over Q(y), and the witness minor has that order
    rng = random.Random(2024)
    done = 0
    while done < 50:
        n = rng.randint(3, 8)
        C, sp = random_split_cubic(rng, n)
        try:
            fd = build_fibration(C, sp)
        except ValueError:
            continue
        probe = [rng.randint(-50, 50) for _ in range(len(sp.y_indices))]
        rk = bareiss(fd.M2_at(probe)).rank
        assert rk <= fd.rank == len(fd.witness[0]) == len(fd.witness[1])
        done += 1


@st.composite
def _fibred_cubics(draw):
    """C = sum_i y_i F_i(x) with random quadratic forms F_i: m x-variables,
    h y-variables, so M2[y] = bundle_matrix(F_1..F_h)."""
    m, h = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    terms = {}
    for i in range(h):
        for a in range(m):
            for b in range(a, m):
                e = [0] * (m + h)
                e[a] += 1
                e[b] += 1
                e[m + i] = 1
                terms[tuple(e)] = draw(st.integers(-3, 3))
    return IntPolynomial(m + h, terms), VariableSplit(m + h, range(m), range(m, m + h))


@settings(max_examples=60, deadline=None)
@given(case=_fibred_cubics(), data=st.data())
def test_symbolic_minors_evaluate_to_the_numeric_minors(case, data):
    fd = build_fibration(*case)
    y = data.draw(st.lists(st.integers(-9, 9), min_size=fd.h, max_size=fd.h))
    mat = fd.M2_at(y)
    largest = 0
    for size in range(1, fd.m + 1):
        found = {(rows, cols): det
                 for rows, cols, det in fibration._nonzero_minors(fd.M2, size, {})}
        largest = size if found else largest
        for rows in itertools.combinations(range(fd.m), size):
            for cols in itertools.combinations(range(fd.m), size):
                det = found.get((rows, cols))
                value = det.evaluate(y) if det is not None else 0
                assert value == int_matrix_det([[mat[i][j] for j in cols] for i in rows])
    # the bordered rank is the largest order of a nonzero minor, and the
    # witness is one of them
    rows, cols, det = fd.witness
    assert fd.rank == largest == len(rows) == len(cols)
    assert not det.is_zero()
    assert fd.rank == 0 or det == fibration.minor_det(fd.M2, rows, cols, {})

def test_extract_linear_block_hand_example():
    # F1 = x1^2 + x2^2 in three x variables: rank 2, x3 certified linear
    C = poly(4, lambda x1, x2, x3, y1: y1 * (x1 * x1 + x2 * x2) + x3 * y1 * y1)
    fd = build_fibration(C, VariableSplit(4, (0, 1, 2), (3,)))
    assert fd.rank == 2
    res = extract_linear_block(fd)
    assert res.block_size == 1
    for row in res.certificate:
        for e in row:
            assert e.is_zero()


def test_extract_linear_block_full_rank_identity():
    C = poly(3, lambda x1, x2, y1: y1 * (x1 * x1 + x2 * x2))
    fd = build_fibration(C, VariableSplit(3, (0, 1), (2,)))
    res = extract_linear_block(fd)
    assert res.block_size == 0


def test_extract_linear_block_random_certificates():
    rng = random.Random(7)
    done = 0
    while done < 15:
        n = rng.randint(4, 7)
        C, sp = random_split_cubic(rng, n)
        try:
            fd = build_fibration(C, sp)
        except ValueError:
            continue
        if fd.rank == 0 or fd.rank >= fd.m:
            continue
        res = extract_linear_block(fd)
        assert res.block_size == fd.m - fd.rank
        for row in res.certificate:
            for e in row:
                assert e.is_zero()
        done += 1


def test_detect_h1_positive():
    # y1 (x1^2 + ... + x5^2): single form, positive definite
    C = poly(6, lambda x1, x2, x3, x4, x5, y1: y1 * (x1*x1 + x2*x2 + x3*x3 + x4*x4 + x5*x5))
    fd = build_fibration(C, VariableSplit(6, tuple(range(5)), (5,)))
    res = detect_hypothesis_h1(fd)
    assert res.holds
    assert res.F_definite_full
    assert res.certificate.is_zero()
    assert res.l == IntPolynomial(1, {(1,): 1})


def test_detect_h1_line_has_a_positive_first_coefficient():
    # (y1 - y2)(x1^2 + x2^2): l reads y1 - y2, as every primitive form does
    C = poly(4, lambda x1, x2, y1, y2: (y1 - y2) * (x1 * x1 + x2 * x2))
    res = detect_hypothesis_h1(build_fibration(C, VariableSplit(4, (0, 1), (2, 3))))
    assert res.holds
    assert res.l == IntPolynomial.linear_form([1, -1])
    assert res.signature == (2, 2, 0)


def test_detect_h1_negative_diag_bundle():
    # diag(y1, y2): entries not proportional to one form
    C = poly(4, lambda x1, x2, y1, y2: y1 * x1 * x1 + y2 * x2 * x2)
    fd = build_fibration(C, VariableSplit(4, (0, 1), (2, 3)))
    res = detect_hypothesis_h1(fd)
    assert not res.holds


def test_detect_h1_negative_indefinite():
    C = poly(6, lambda x1, x2, x3, x4, x5, y1: y1 * (x1*x1 - x2*x2 + x3*x3 + x4*x4 + x5*x5))
    fd = build_fibration(C, VariableSplit(6, tuple(range(5)), (5,)))
    res = detect_hypothesis_h1(fd)
    assert not res.holds
    assert res.signature == (5, 4, 1)


def test_h1_roundtrip_constructed_instances():
    rng = random.Random(11)
    done = 0
    while done < 20:
        m = rng.randint(2, 5)
        h = rng.randint(1, 3)
        n = m + h
        # construct Q_y = l(y) F(x) with F semidefinite: F = sum of squares of forms
        lcoef = [rng.randint(-3, 3) for _ in range(h)]
        if not any(lcoef):
            continue
        rank_target = rng.randint(1, m)
        F = IntPolynomial.zero(m)
        for _ in range(rank_target):
            form = IntPolynomial.linear_form([rng.randint(-2, 2) for _ in range(m)])
            F = F + form * form
        terms = {}
        for (ex, cf) in F.terms.items():
            for i, lc in enumerate(lcoef):
                if lc:
                    e = list(ex) + [0] * h
                    e[m + i] = 1
                    key = tuple(e)
                    terms[key] = terms.get(key, 0) + lc * cf
        if not terms:
            continue
        C = IntPolynomial(n, terms)
        fd = build_fibration(C, VariableSplit(n, tuple(range(m)), tuple(range(m, n))))
        res = detect_hypothesis_h1(fd)
        assert res.holds
        assert res.certificate.is_zero()
        assert res.l == _primitive(IntPolynomial.linear_form(lcoef))
        # reconstruct: l * N1 must reproduce 2 Q_y exactly (checked in cert)
        done += 1


def test_linear_factors_of_quadratic():
    # q = y1^2 - y2^2 factors as (y1 - y2)(y1 + y2)
    q = poly(2, lambda a, b: a * a - b * b)
    fs = linear_factors(q)
    assert fs == [IntPolynomial.linear_form([1, -1]), IntPolynomial.linear_form([1, 1])]
    for f in fs:
        assert divides_form(f, q)
    # rank 1: (2a + b)^2
    q = poly(2, lambda a, b: (a * 2 + b) ** 2)
    fs = linear_factors(q)
    assert fs == [IntPolynomial.linear_form([2, 1])]
    # anisotropic rank 2: a^2 + b^2 has no rational factor
    q = poly(2, lambda a, b: a * a + b * b)
    assert linear_factors(q) == []
    # rank 3: none
    q = poly(3, lambda a, b, c: a * a + b * b - c * c)
    assert linear_factors(q) == []


def _fraction_inverse(t):
    """Gauss-Jordan inverse of an invertible square matrix over Fractions."""
    n = len(t)
    a = [[Fraction(v) for v in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(t)]
    for c in range(n):
        piv = next(i for i in range(c, n) if a[i][c])
        a[c], a[piv] = a[piv], a[c]
        a[c] = [v / a[c][c] for v in a[c]]
        for i in range(n):
            if i != c and a[i][c]:
                a[i] = [x - a[i][c] * y for x, y in zip(a[i], a[c])]
    return [row[n:] for row in a]


def _diagonalisation_factors(q: IntPolynomial):
    """Oracle for degree 2: the Q-diagonalisation finder that `linear_factors`
    replaced, with the diagonalisation read from 2Q (the same T, each
    diagonal entry doubled, so the ratios below are unchanged)."""
    if q.is_zero() or not q.is_homogeneous(2):
        raise ValueError("nonzero quadratic form required")
    k = q.num_vars
    Q = QuadraticPolynomial.from_polynomial(q)
    t, diag = congruence_diagonalize(Q.two_q)
    nonzero = [i for i, d in enumerate(diag) if d != 0]
    rank = len(nonzero)
    if rank > 2:
        return []
    # inverse transform: rows of t^{-1} express old coordinates z = t w, so
    # w_i as a form in the original variables is the i-th row of t^{-1}
    tinv = _fraction_inverse(t)

    def row_form(coeffs):
        den = lcm(*(v.denominator for v in coeffs))
        return _primitive(IntPolynomial.linear_form([int(v * den) for v in coeffs]))

    if rank == 1:
        i = nonzero[0]
        w = row_form(tinv[i])
        return [w]
    i, j = nonzero
    a, b = diag[i], diag[j]
    # a w_i^2 + b w_j^2 factors over Q iff -b/a is a square
    ratio = -b / a
    if ratio < 0:
        return []
    num, den = ratio.numerator, ratio.denominator
    from math import isqrt

    rn, rd = isqrt(num), isqrt(den)
    if rn * rn != num or rd * rd != den:
        return []
    s = Fraction(rn, rd)
    wi = tinv[i]
    wj = tinv[j]
    f1 = row_form([x + s * y for x, y in zip(wi, wj)])
    f2 = row_form([x - s * y for x, y in zip(wi, wj)])
    return [f1, f2] if f1 != f2 else [f1]


def _primitive_linear(draw, h):
    coeffs = draw(st.lists(st.integers(-4, 4), min_size=h, max_size=h)
                  .filter(lambda c: any(c)))
    return _primitive(IntPolynomial.linear_form(coeffs))


def _form_of_degree(draw, h, degree):
    monomials = [e for e in itertools.product(range(degree + 1), repeat=h) if sum(e) == degree]
    values = draw(st.lists(st.integers(-3, 3), min_size=len(monomials),
                           max_size=len(monomials)))
    return IntPolynomial(h, {e: c for e, c in zip(monomials, values) if c})


@st.composite
def _products_of_linear_forms(draw):
    """(f, factors): f the product of 1-3 primitive linear forms with a
    random cofactor, total degree 2 or 3, in h = 1..6 variables."""
    h = draw(st.integers(1, 6))
    degree = draw(st.sampled_from((2, 3)))
    factors = [_primitive_linear(draw, h) for _ in range(draw(st.integers(1, degree)))]
    cofactor = _form_of_degree(draw, h, degree - len(factors))
    f = cofactor
    for l in factors:
        f = f * l
    return f, factors


def _assert_canonical(fs, f):
    assert all(divides_form(l, f) for l in fs)
    assert all(l == _primitive(l) for l in fs)
    keys = [_linear_coefficients(l)[0] for l in fs]
    assert keys == sorted(keys) and len(set(map(tuple, keys))) == len(keys)


@settings(max_examples=150, deadline=None)
@given(case=_products_of_linear_forms())
def test_linear_factors_finds_every_constructed_factor(case):
    f, factors = case
    if f.is_zero():
        return
    fs = linear_factors(f)
    _assert_canonical(fs, f)
    for l in factors:
        assert l in fs
    if f.total_degree() == 2:
        assert set(fs) == set(_diagonalisation_factors(f))


@settings(max_examples=100, deadline=None)
@given(h=st.integers(1, 5), data=st.data())
def test_linear_factors_of_random_quadratics_match_the_diagonalisation(h, data):
    q = _form_of_degree(data.draw, h, 2)
    if q.is_zero():
        return
    fs = linear_factors(q)
    _assert_canonical(fs, q)
    assert set(fs) == set(_diagonalisation_factors(q))


def test_linear_factors_without_pure_powers():
    # no y_i^d monomial, so f(e_i) = 0 for every i and v is not a unit vector
    f = poly(3, lambda a, b, c: a * b * c)
    assert linear_factors(f) == [X(3, 2), X(3, 1), X(3, 0)]
    f = poly(3, lambda a, b, c: (a - b) * (b + c * 2) * (a + c))
    assert linear_factors(f) == [IntPolynomial.linear_form(c)
                                 for c in ([0, 1, 2], [1, -1, 0], [1, 0, 1])]
    f = poly(4, lambda a, b, c, d: a * b + c * d)
    assert linear_factors(f) == []
    f = poly(4, lambda a, b, c, d: (a * 3 - d * 2) * (b * c + a * d))
    assert linear_factors(f) == [IntPolynomial.linear_form([3, 0, 0, -2])]


def test_irreducible_cubics_have_no_linear_factor():
    norm = poly(3, lambda a, b, c: a ** 3 + b ** 3 * 2 + c ** 3 * 4 - a * b * c * 6)
    assert linear_factors(norm) == []
    assert linear_factors(poly(2, lambda a, b: a ** 3 - b ** 3 * 2)) == []
    # a square times nothing rational: (a^2 + b^2 + c^2) c has exactly one
    assert linear_factors(poly(3, lambda a, b, c: (a * a + b * b + c * c) * c)) == [X(3, 2)]


def test_linear_factors_rejects_other_degrees():
    for f in (IntPolynomial.zero(2), X(2, 0), poly(2, lambda a, b: a ** 4),
              poly(2, lambda a, b: a * a + b)):
        with pytest.raises(ValueError):
            linear_factors(f)


def test_linear_factors_keeps_at_most_d_partials(monkeypatch):
    """Pruning keeps the divisibility tests linear in h: at most d partials
    times d roots per coordinate, never d^(h-1) combinations."""
    calls = []
    real = fibration.divides_form
    monkeypatch.setattr(fibration, "divides_form", lambda *a: calls.append(1) or real(*a))
    l1, l2, l3 = (IntPolynomial.linear_form(c) for c in
                  ([1, 2, -1, 3, 1, 1], [2, -1, 1, 1, -3, 1], [1, 1, 1, -2, 2, 3]))
    assert linear_factors(l1 * l2 * l3) == [l3, l1, l2]
    assert len(calls) <= 3 * 3 * 6


def test_common_linear_factor_takes_the_first_in_canonical_order():
    a, b, c = (X(3, i) for i in range(3))
    forms = [a * b * c, a * b * (a + c), IntPolynomial.zero(3)]
    assert common_linear_factor(forms) == b
    assert common_linear_factor([a * b, (a + b) * c]) is None
    with pytest.raises(ValueError):
        common_linear_factor([IntPolynomial.zero(3)])


def test_divide_form_by_linear():
    l = IntPolynomial.linear_form([1, -1])
    q = poly(2, lambda a, b: (a - b) * (a * 3 + b * 5))
    quo, den = divide_form_by_linear(q, l)
    assert l * quo == q * den


def _old_divide_form_by_linear(f, l):
    """The integral division and its rational wrapper before they were
    merged into divide_form_by_linear."""

    def integral(f):
        n = f.num_vars
        coeffs, piv = _linear_coefficients(l)
        lp = coeffs[piv]
        remainder = dict(f.terms)
        quotient = {}
        while remainder:
            e = max(remainder, key=lambda t: (t[piv], t))
            c = remainder[e]
            if c % lp != 0:
                raise ArithmeticError("quotient is not integral; caller must clear content")
            qe = list(e)
            qe[piv] -= 1
            if qe[piv] < 0:
                raise ArithmeticError("division left a remainder; l does not divide f")
            qc = c // lp
            quotient[tuple(qe)] = quotient.get(tuple(qe), 0) + qc
            for j, lc in enumerate(coeffs):
                if lc:
                    te = list(qe)
                    te[j] += 1
                    key = tuple(te)
                    s = remainder.get(key, 0) - qc * lc
                    if s:
                        remainder[key] = s
                    else:
                        remainder.pop(key, None)
        return IntPolynomial(n, quotient)

    coeffs, piv = _linear_coefficients(l)
    scale = abs(coeffs[piv]) ** max(f.total_degree() - 1, 0)
    q = integral(f * scale)
    g = gcd(scale, q.content())
    return IntPolynomial(f.num_vars, {e: c // g for e, c in q.terms.items()}), scale // g


@settings(max_examples=200, deadline=None)
@given(h=st.integers(1, 5), degree=st.integers(1, 2), data=st.data())
def test_divide_form_by_linear_matches_the_old_body(h, degree, data):
    """f = l g / d for a linear l that need not be primitive, a nonzero g of
    degree 1 or 2 and a divisor d of the content of l g, so that the
    quotient g / d is rational."""
    l = IntPolynomial.linear_form(data.draw(
        st.lists(st.integers(-4, 4), min_size=h, max_size=h).filter(any)))
    g = _form_of_degree(data.draw, h, degree)
    if g.is_zero():
        g = IntPolynomial.variable(h, 0) ** degree
    lg = l * g
    d = data.draw(st.sampled_from([v for v in range(1, 13) if lg.content() % v == 0]))
    f = IntPolynomial(h, {e: c // d for e, c in lg.terms.items()})
    quo, den = divide_form_by_linear(f, l)
    assert l * quo == f * den
    assert den > 0 and gcd(quo.content(), den) == 1
    assert (quo, den) == _old_divide_form_by_linear(f, l)


def test_detect_common_linear_factor():
    # Q_i = y1 * l_i(y): factor y1 recovered
    n = 7  # x = (0, 1), y = (2..6) -> k = 5 y-variables
    ydim = 5

    def mk(coefs):
        return IntPolynomial.linear_form(coefs)

    l1 = mk([1, 2, 0, 0, 0])
    l2 = mk([0, 1, -1, 0, 0])
    y1 = X(ydim, 0)
    q1 = y1 * l1
    q2 = y1 * l2
    terms = {}
    for xi, q in ((0, q1), (1, q2)):
        for e, c in q.terms.items():
            key = tuple([1 if i == xi else 0 for i in range(2)] + list(e))
            terms[key] = c
    C = IntPolynomial(7, terms)
    sp = VariableSplit(7, (0, 1), tuple(range(2, 7)))
    res = detect_common_linear_factor_Qi(C, sp)
    assert res is not None
    assert res.factor == IntPolynomial.linear_form([1, 0, 0, 0, 0])
    for (quo, den), expect in zip(res.cofactors, (l1, l2)):
        assert quo * res.factor == expect * y1 * den

    # coprime rank-3 quadrics: none
    q1 = poly(3, lambda a, b, c: a * a + b * b - c * c)
    q2 = poly(3, lambda a, b, c: a * b + c * c)
    terms = {}
    for xi, q in ((0, q1), (1, q2)):
        for e, c in q.terms.items():
            key = tuple([1 if i == xi else 0 for i in range(2)] + list(e))
            terms[key] = c
    C = IntPolynomial(5, terms)
    sp = VariableSplit(5, (0, 1), (2, 3, 4))
    assert detect_common_linear_factor_Qi(C, sp) is None

    # all Q_i zero: degenerate
    C = IntPolynomial(5, {(0, 0, 3, 0, 0): 1})
    with pytest.raises(ValueError, match="degenerate"):
        detect_common_linear_factor_Qi(C, sp)


def _psis_from_Psi(Psi: IntPolynomial, v: int, ydim: int):
    """Split Psi(x, y) (x-linear) into the y-quadratics psi_i."""
    psis = []
    for i in range(v):
        terms = {}
        for e, c in Psi.terms.items():
            if e[i] == 1 and sum(e[:v]) == 1:
                terms[tuple(e[v:])] = c
        psis.append(IntPolynomial(ydim, terms))
    return psis


def test_classify_rank2_exps2psi_example():
    # Psi = (y1 + y2)(x1 (y1 - y2) + x3 y3): shape exps2psi with kappa = 1
    v, ydim = 3, 3
    n = v + ydim
    x1, x3 = X(n, 0), X(n, 2)
    y1, y2, y3 = X(n, 3), X(n, 4), X(n, 5)
    Psi = (y1 + y2) * (x1 * (y1 - y2) + x3 * y3)
    psis = _psis_from_Psi(Psi, v, ydim)
    res = classify_rank2_bundle(psis)
    assert res.shape == "exps2psi"
    assert abs(res.kappa) == 1
    assert res.delta_relations_ok


def test_classify_rank2_option1_example():
    # Psi = x1 y1^2 + x2 y1 y2 + x3 y2^2: two y-variables
    v, ydim = 3, 2
    n = v + ydim
    x1, x2, x3 = X(n, 0), X(n, 1), X(n, 2)
    y1, y2 = X(n, 3), X(n, 4)
    Psi = x1 * y1 * y1 + x2 * y1 * y2 + x3 * y2 * y2
    psis = _psis_from_Psi(Psi, v, ydim)
    res = classify_rank2_bundle(psis)
    assert res.shape == "option1"


def test_classify_rank3_integral_example():
    # Psi = x1 y1^2 + x2 y2^2 + x3 y3^2 + x4 (y1 y2): rank 3, v = 4
    v, ydim = 4, 3
    n = v + ydim
    x1, x2, x3, x4 = (X(n, i) for i in range(4))
    y1, y2, y3 = (X(n, i) for i in range(4, 7))
    Psi = x1 * y1 * y1 + x2 * y2 * y2 + x3 * y3 * y3 + x4 * y1 * y2
    psis = _psis_from_Psi(Psi, v, ydim)
    res = classify_rank2_bundle(psis)
    assert res.shape == "integral"
    assert res.rank_over_K == 3


def test_classify_rank2_random_roundtrip():
    # constructed exps2psi instances: classifier recovers shape and kappa
    rng = random.Random(31)
    done = 0
    while done < 20:
        v = rng.randint(3, 4)
        ydim = rng.randint(3, 4)
        n = v + ydim
        kappa = rng.choice([1, -1, 2, -2, 3])
        a00 = [rng.randint(-3, 3) for _ in range(v)]
        if not any(a00):
            continue
        picks = [i for i in range(2, ydim) if rng.random() < 0.8]
        if not picks:
            continue
        lin = {i: [rng.randint(-3, 3) for _ in range(v)] for i in picks}
        if any(not any(c) for c in lin.values()):
            continue
        xs = [X(n, i) for i in range(v)]
        ys = [X(n, v + i) for i in range(ydim)]

        def lift(coefs):
            out = IntPolynomial.zero(n)
            for c, xv in zip(coefs, xs):
                out = out + xv * c
            return out

        inner = lift(a00) * (ys[0] - ys[1] * kappa)
        for i in picks:
            inner = inner + lift(lin[i]) * ys[i]
        Psi = (ys[0] + ys[1] * kappa) * inner
        psis = _psis_from_Psi(Psi, v, ydim)
        if all(p.is_zero() for p in psis):
            continue
        try:
            res = classify_rank2_bundle(psis)
        except FalsificationAlarm:
            raise
        if res.rank_over_K != 2:
            # degenerate draw (rank can drop to 1); skip
            continue
        assert res.shape in ("exps2psi", "option1")
        if res.shape == "exps2psi":
            assert res.kappa is not None and res.kappa != 0
        done += 1


def _rank2_psis():
    """Psi = (y1 + y2)(x1 (y1 - y2) + x2 y3 + x3 y4): rank 2 over Q(x)."""
    v, ydim = 3, 4
    xs, ys = [X(v + ydim, i) for i in range(v)], [X(v + ydim, v + i) for i in range(ydim)]
    Psi = (ys[0] + ys[1]) * (xs[0] * (ys[0] - ys[1]) + xs[1] * ys[2] + xs[2] * ys[3])
    return _psis_from_Psi(Psi, v, ydim)


def test_bundle_normal_form_alarms(monkeypatch):
    """Both callers of the rank-r normal form raise when the diagonalised
    combination loses rank; a bundle of rank 2 taken for rank 1 leaves a
    nonzero entry past row and column 1, and a zero witness minor gives no
    point of rank r."""
    diag = build_fibration(poly(4, lambda x1, x2, y1, y2: y1 * x1 * x1 + y2 * x2 * x2),
                           VariableSplit(4, (0, 1), (2, 3)))
    # rank 1 with the order-1 witness 2 y1: the normal form at (1, 0) keeps 2 y2
    witness = ((0,), (0,), diag.M2[0][0])
    with pytest.raises(FalsificationAlarm, match=r"second partial \(1,1\) nonzero"):
        extract_linear_block(dataclasses.replace(diag, rank=1, witness=witness))
    zero = ((0,), (1,), diag.M2[0][1])
    with pytest.raises(FalsificationAlarm, match="witness minor vanishes on the grid"):
        extract_linear_block(dataclasses.replace(diag, rank=1, witness=zero))
    C = poly(4, lambda x1, x2, x3, y1: y1 * (x1 * x1 + x2 * x2) + x3 * y1 * y1)
    fd = build_fibration(C, VariableSplit(4, (0, 1, 2), (3,)))
    monkeypatch.setattr(fibration, "congruence_diagonalize",
                        lambda q: (congruence_diagonalize(q)[0], [0] * len(q)))
    for run in (lambda: extract_linear_block(fd), lambda: classify_rank2_bundle(_rank2_psis())):
        with pytest.raises(FalsificationAlarm, match="lost rank"):
            run()


def test_bundle_normal_form_refuses_a_singular_change(monkeypatch):
    """The certificate S^t M S says nothing for a singular S: both callers
    raise when the diagonalisation hands back a matrix with a zero column."""
    C = poly(4, lambda x1, x2, x3, y1: y1 * (x1 * x1 + x2 * x2) + x3 * y1 * y1)
    fd = build_fibration(C, VariableSplit(4, (0, 1, 2), (3,)))

    def singular(q):
        t, diag = congruence_diagonalize(q)
        return [list(row[:-1]) + [Fraction(0)] for row in t], diag

    monkeypatch.setattr(fibration, "congruence_diagonalize", singular)
    for run in (lambda: extract_linear_block(fd), lambda: classify_rank2_bundle(_rank2_psis())):
        with pytest.raises(FalsificationAlarm, match="change of variables is singular"):
            run()


@pytest.mark.parametrize("entries, message", [
    ({(1, 2): (0, 1)}, "a1i nonzero with a0i zero"),
    ({(0, 2): (0, 1), (1, 2): (1, 0)}, "a1i not proportional to a0i"),
    ({(0, 2): (0, 1), (1, 2): (0, 1), (0, 3): (0, 1), (1, 3): (0, 2)}, "kappa differs across S"),
])
def test_rank2_kappa_alarms(monkeypatch, entries, message):
    """kappa with a_1i = kappa a_0i on S: a zero a_0i, a non-proportional
    pair and two values of kappa each raise. entries maps (i, j) to the
    coefficients of x1, x2 in the normal form's a_ij."""
    At = [[IntPolynomial.zero(3)] * 4 for _ in range(4)]
    At[0][0] = At[1][1] = X(3, 0)
    for (i, j), (c1, c2) in entries.items():
        At[i][j] = At[j][i] = X(3, 1) * c1 + X(3, 2) * c2
    monkeypatch.setattr(fibration, "_bundle_normal_form", lambda *args: At)
    with pytest.raises(FalsificationAlarm, match=message):
        classify_rank2_bundle(_rank2_psis())


def test_common_factor_cofactor_alarm(monkeypatch):
    """A cofactor that does not satisfy l * quotient = den * Q_i raises."""
    y = [X(5, i) for i in range(5)]
    C = y[0] * y[2] * (y[2] + y[3]) + y[1] * y[2] * y[4]
    sp = VariableSplit(5, (0, 1), (2, 3, 4))
    assert detect_common_linear_factor_Qi(C, sp).verified
    monkeypatch.setattr(fibration, "divide_form_by_linear", lambda f, l: (f, 1))
    with pytest.raises(FalsificationAlarm, match="cofactor"):
        detect_common_linear_factor_Qi(C, sp)


def test_order3_common_factor_found():
    # M[y] = y1 diag(1,1,1,1,1) + y2 (E12 + E21): common factor y1
    m, h = 5, 2
    n = m + h
    xs = [X(n, i) for i in range(m)]
    y1, y2 = X(n, m), X(n, m + 1)
    C = y1 * sum((x * x for x in xs), IntPolynomial.zero(n)) + y2 * xs[0] * xs[1]
    fd = build_fibration(C, VariableSplit(n, tuple(range(m)), (m, m + 1)))
    assert fd.rank == 5
    res = order3_minor_common_factor(fd)
    assert res.status == "factor-found"
    assert res.factor == IntPolynomial.linear_form([1, 0])
    assert res.slice_rank_ok


def test_order3_no_common_factor_generic():
    rng = random.Random(41)
    m, h = 5, 3
    n = m + h
    terms = {}
    for i in range(m):
        for j in range(i, m):
            for k in range(h):
                if rng.random() < 0.5:
                    e = [0] * n
                    e[i] += 1
                    e[j] += 1
                    e[m + k] += 1
                    terms[tuple(e)] = rng.randint(-4, 4)
    C = IntPolynomial(n, terms)
    fd = build_fibration(C, VariableSplit(n, tuple(range(m)), tuple(range(m, n))))
    if fd.rank < 3:
        pytest.skip("degenerate random draw")
    res = order3_minor_common_factor(fd)
    assert res.status == "no-common-factor" and res.factor is None
    assert res.codim_probe["estimated_codim"] >= 2


def _cofactor(q, f):
    """q / f by division on grlex-leading terms, or None when the division
    leaves a remainder or a fraction."""
    lead, lc = f.sorted_terms()[0]
    quotient = IntPolynomial.zero(q.num_vars)
    while not q.is_zero():
        e, c = q.sorted_terms()[0]
        shift = tuple(a - b for a, b in zip(e, lead))
        if min(shift) < 0 or c % lc:
            return None
        term = IntPolynomial(q.num_vars, {shift: c // lc})
        quotient, q = quotient + term, q - term * f
    return quotient


def _planted(m, x_quadrics):
    """The fibration of C = y_1 F_1(x) + y_2 F_2(x), for the (F_1, F_2)
    built from the m x-variables by x_quadrics."""
    xs, ys = [X(m + 2, i) for i in range(m)], [X(m + 2, m), X(m + 2, m + 1)]
    F1, F2 = x_quadrics(*xs)
    return build_fibration(ys[0] * F1 + ys[1] * F2,
                           VariableSplit(m + 2, tuple(range(m)), (m, m + 1)))


@pytest.mark.parametrize("m, x_quadrics, factor", [
    # diag(A, A), det A = -4 (y1^2 + y2^2): every minor is det A times an entry
    (4, lambda a, b, c, d: (a * a - b * b + c * c - d * d, (a * b + c * d) * 2),
     poly(2, lambda y1, y2: y1 * y1 + y2 * y2)),
    # one 3 x 3 bundle whose determinant -2 (y1^3 - 4 y1^2 y2 + y2^3) has no rational root
    (3, lambda a, b, c: (a * a + c * c + b * c, b * b + a * c + a * b),
     poly(2, lambda y1, y2: y1 ** 3 - y1 * y1 * y2 * 4 + y2 ** 3)),
])
def test_order3_planted_nonlinear_factor(m, x_quadrics, factor):
    """A planted irreducible quadric or cubic is found exactly, primitive
    with a positive leading coefficient, and every minor is the factor
    times a cofactor."""
    fd = _planted(m, x_quadrics)
    res = order3_minor_common_factor(fd)
    assert res.status == "nonlinear-factor" and res.factor == factor
    assert linear_factors(factor) == []
    minors = order3_minors(fd.M2)
    cofactors = [_cofactor(q, factor) for q in minors]
    assert None not in cofactors
    assert all(q == factor * c for q, c in zip(minors, cofactors))
    # the factor is the whole gcd: constant cofactors, or linear ones not all proportional
    assert (cofactors[0].total_degree() == 0
            or any(fibration._ratio(c, cofactors[0]) is None for c in cofactors))


def test_order3_two_different_quadrics_share_no_factor():
    """diag(A, B) with det A = -4 (y1^2 + y2^2) and det B = -4 (2 y1^2 + y2^2)."""
    fd = _planted(4, lambda a, b, c, d: (a * a - b * b + c * c - d * d * 2, (a * b + c * d) * 2))
    assert order3_minor_common_factor(fd).status == "no-common-factor"


def test_order3_requires_rank3():
    C = poly(3, lambda x1, x2, y1: y1 * (x1 * x1 + x2 * x2))
    fd = build_fibration(C, VariableSplit(3, (0, 1), (2,)))
    with pytest.raises(ValueError):
        order3_minor_common_factor(fd)


def test_singular_locus_probe():
    # smooth cone point: estimate 0
    f = poly(3, lambda a, b, c: a * a + b * b + c * c)
    probe = singular_locus_dim_probe(f)
    assert probe.estimate == 0
    # (x1 x2)^2: singular locus is the union of the axes, dim 1
    f = poly(2, lambda a, b: (a * b) ** 2)
    probe = singular_locus_dim_probe(f)
    assert probe.estimate == 1


def _low_rank_count_by_rank(psis, R):
    """#{x in [-R, R]^v : the matrix of sum x_i psi_i(y) has rank <= 2},
    from the ranks of its specialised second partials."""
    my = psis[0].num_vars
    origin = [0] * my
    count = 0
    for x in itertools.product(range(-R, R + 1), repeat=len(psis)):
        form = IntPolynomial.zero(my)
        for xi, psi in zip(x, psis):
            form = form + psi * xi
        hessian = [[form.derivative(a).derivative(b).evaluate(origin) for b in range(my)]
                   for a in range(my)]
        count += bareiss(hessian).rank <= 2
    return count


def _low_rank_count_by_minors(psis, R):
    """#{x in [-R, R]^v : every order-3 minor of the bundle matrix of the
    psis vanishes at x}."""
    minors = order3_minors(bundle_matrix(psis))
    return sum(all(f.evaluate(list(x)) == 0 for f in minors)
               for x in itertools.product(range(-R, R + 1), repeat=len(psis)))


def test_order3_minors_match_rank_oracle():
    psis = [
        poly(3, lambda a, b, c: a * a + b * c),
        poly(3, lambda a, b, c: b * b - a * c),
        poly(3, lambda a, b, c: c * c + a * b),
    ]
    assert order3_minors(bundle_matrix(psis))
    assert _low_rank_count_by_minors(psis, 2) == _low_rank_count_by_rank(psis, 2)
    # a bundle of rank <= 2 everywhere has no nonzero order-3 minor
    psis = [
        poly(2, lambda a, b: a * a),
        poly(2, lambda a, b: a * b),
        poly(2, lambda a, b: b * b),
    ]
    assert order3_minors(bundle_matrix(psis)) == []
    assert _low_rank_count_by_minors(psis, 2) == _low_rank_count_by_rank(psis, 2) == 5 ** 3


@st.composite
def _quadratic_bundles(draw):
    v, my = draw(st.integers(1, 3)), draw(st.integers(2, 4))
    psis = []
    for _ in range(v):
        terms = {}
        for a in range(my):
            for b in range(a, my):
                e = [0] * my
                e[a] += 1
                e[b] += 1
                terms[tuple(e)] = draw(st.integers(-2, 2))
        psis.append(IntPolynomial(my, terms))
    return psis


@settings(max_examples=60, deadline=None)
@given(psis=_quadratic_bundles(), R=st.integers(0, 2))
def test_order3_minors_random_bundles(psis, R):
    """All order-3 minors vanish at x iff the specialised matrix has rank
    <= 2."""
    assert _low_rank_count_by_minors(psis, R) == _low_rank_count_by_rank(psis, R)


def test_order3_minors_have_the_minor_cap():
    psis = [X(13, 0) * X(13, 12), X(13, 1) * X(13, 1)]
    with pytest.raises(ValueError, match="minor-enumeration cap 12"):
        order3_minors(bundle_matrix(psis))


def test_bundle_matrix_hand_example():
    # F_1 = x1^2 + 3 x1 x2, F_2 = -x2^2: entry (a, b) = sum_i z_i d^2 F_i / dx_a dx_b
    forms = [poly(2, lambda a, b: a * a + 3 * a * b), poly(2, lambda a, b: -(b * b))]
    z1, z2 = X(2, 0), X(2, 1)
    assert bundle_matrix(forms) == [[z1 * 2, z1 * 3], [z1 * 3, z2 * -2]]
    with pytest.raises(ValueError, match="quadratic forms"):
        bundle_matrix([poly(2, lambda a, b: a * a * b)])


def test_fibre_polynomial_is_the_cubic_on_the_fibre():
    path = os.path.join(os.path.dirname(__file__), "..", "forms", "pi_n7.json")
    with open(path) as f:
        doc = parse_form_document(f.read())
    xs, ys = doc.split.x_indices, doc.split.y_indices
    F_list, q_list, R = split_cubic(doc.poly, doc.split)
    rng = random.Random(4)
    for _ in range(20):
        y = [rng.randint(-5, 5) for _ in ys]
        x = [rng.randint(-5, 5) for _ in xs]
        point = [0] * doc.poly.num_vars
        for i, v in zip(list(xs) + list(ys), x + y):
            point[i] = v
        assert fibre_polynomial(F_list, q_list, R, y).evaluate(x) == doc.poly.evaluate(point)
