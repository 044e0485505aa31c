import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cubefib.finitefield import count_mod_q_bruteforce, find_padic_nonsingular
from cubefib.gridcount import count_zeros_mod_q
from cubefib.linalg import QuadraticPolynomial
from cubefib.localdensity import (
    S_pk_extract,
    S_q_character_sum,
    sigma_p,
    singular_series,
    series_lower_bound_certificate,
    _critical_data,
    _tail_lower_bound,
)
from cubefib.nt import primes_up_to
from cubefib.polynomials import IntPolynomial
from strategies import unimodular_pairs


def quad(m, terms):
    return QuadraticPolynomial.from_polynomial(IntPolynomial(m, terms))


def test_sigma_unit_linear_is_one():
    # F = x1 + c: sigma = 1 for every p, t
    for c in (0, 3, -7):
        F = quad(2, {(1, 0): 1, (0, 0): c})
        for p in (3, 5, 13):
            for t in (1, 2, 3):
                est = sigma_p(F, p, t)
                assert est.sigma == 1
                assert est.stable


def test_sigma_hand_example_x_squared():
    # F = x^2, p=5, t=2: N(25) = 5 (x = 0 mod 5) so sigma = 5
    F = quad(1, {(2,): 1})
    est = sigma_p(F, 5, 2)
    assert est.counts == (1, 1, 5)
    assert est.sigma == Fraction(5)


@settings(max_examples=120, deadline=None)
@given(data=st.data(), m=st.integers(2, 4), linear=st.booleans(),
       p=st.sampled_from([2, 3, 5]), t=st.integers(1, 2))
def test_sigma_rank_deficient_counts_match_the_grid(data, m, linear, p, t):
    """F of rank r < m, with B in the image of 2Q (L = 0 in the split) or
    not (L != 0): the counts, taken on the nondegenerate part and scaled
    back, are the counts of F over all m variables."""
    r = data.draw(st.integers(0, m - 1))
    ints = st.integers(-4, 4)
    s = [[0] * r for _ in range(r)]
    for i in range(r):
        s[i][i] = 2 * data.draw(ints)
        for j in range(i + 1, r):
            s[i][j] = s[j][i] = data.draw(ints)
    lm = [[data.draw(st.integers(-2, 2)) for _ in range(m)] for _ in range(r)]
    two_q = [[sum(lm[a][i] * s[a][b] * lm[b][j] for a in range(r) for b in range(r))
              for j in range(m)] for i in range(m)]
    if linear:
        B = [data.draw(ints) for _ in range(m)]
    else:
        c = [data.draw(ints) for _ in range(m)]
        B = [sum(x * y for x, y in zip(row, c)) for row in two_q]
    F = QuadraticPolynomial(two_q, B, data.draw(ints))
    u, sub = F.rank_split()
    L = [sum(x * y for x, y in zip(col, B)) for col in list(zip(*u))[len(sub):]]
    assume(any(L) == linear)
    est = sigma_p(F, p, t)
    poly = F.to_polynomial()
    assert est.counts == tuple(count_zeros_mod_q(poly, p ** k) for k in range(t + 1))
    assert est.sigma == Fraction(est.counts[t], p ** (t * (m - 1)))


def test_sigma_rank5_enumeration_cross_check():
    # F = x1^2+...+x5^2 - 1 at p=7, t=1: N(7)/7^4 by brute force
    terms = {tuple(2 if i == j else 0 for i in range(5)): 1 for j in range(5)}
    terms[(0,) * 5] = -1
    F = quad(5, terms)
    est = sigma_p(F, 7, 1)
    brute = count_mod_q_bruteforce(F.to_polynomial(), 7)
    assert est.sigma == Fraction(brute, 7 ** 4)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), p=st.sampled_from([3, 5, 7, 11]), m=st.integers(1, 3))
def test_critical_data_matches_a_brute_force_solve(data, p, m):
    """x* is the only x mod p with 2Q x = -B, for p not dividing det(2Q)."""
    coef = st.integers(-12, 12)
    terms = {}
    for i in range(m):
        for j in range(i, m):
            e = [0] * m
            e[i] += 1
            e[j] += 1
            terms[tuple(e)] = data.draw(coef)
        e = [0] * m
        e[i] = 1
        terms[tuple(e)] = data.draw(coef)
    F = quad(m, terms)
    two_q = F.two_q
    if F.disc() % p == 0:
        with pytest.raises(ValueError):
            _critical_data(F, p)
        return
    solutions = [x for x in itertools.product(range(p), repeat=m)
                 if all((sum(a * v for a, v in zip(row, x)) + b) % p == 0
                        for row, b in zip(two_q, F.B))]
    assert solutions == [tuple(_critical_data(F, p))]


def test_sigma_recursion_matches_enumeration():
    rng = random.Random(61)
    checked = 0
    while checked < 30:
        m = rng.randint(1, 3)
        terms = {}
        for i in range(m):
            for j in range(i, m):
                e = [0] * m
                e[i] += 1
                e[j] += 1
                terms[tuple(e)] = rng.randint(-6, 6)
        for i in range(m):
            e = [0] * m
            e[i] = 1
            terms[tuple(e)] = rng.randint(-6, 6)
        terms[tuple([0] * m)] = rng.randint(-9, 9)
        F = quad(m, terms)
        p = rng.choice([3, 5, 7])
        if F.disc() % p == 0:
            continue
        t = rng.randint(1, 3)
        est = sigma_p(F, p, t)
        assert est.method == "recursion"
        for k in range(1, t + 1):
            assert est.counts[k] == count_mod_q_bruteforce(F.to_polynomial(), p ** k)
        checked += 1


def test_S_pk_unit_linear_vanishes():
    F = quad(2, {(1, 0): 1, (0, 0): 3})
    for p in (3, 5):
        for k in (1, 2):
            assert S_pk_extract(F, p, k, sigma_p(F, p, k).counts) == 0


def test_S_pk_gauss_cancellation():
    # F = x^2, p=5, k=1: S_5 = 0
    F = quad(1, {(2,): 1})
    assert S_pk_extract(F, 5, 1, sigma_p(F, 5, 1).counts) == 0
    # direct character-sum oracle agrees
    assert S_q_character_sum(F, 5) == 0


def test_S_pk_matches_character_sum_oracle():
    rng = random.Random(67)
    for _ in range(30):
        m = rng.randint(1, 2)
        terms = {}
        for i in range(m):
            for j in range(i, m):
                e = [0] * m
                e[i] += 1
                e[j] += 1
                terms[tuple(e)] = rng.randint(-5, 5)
        terms[tuple([0] * m)] = rng.randint(-5, 5)
        F = quad(m, terms)
        p = rng.choice([3, 5])
        k = rng.randint(1, 2)
        assert S_pk_extract(F, p, k, sigma_p(F, p, k).counts) == S_q_character_sum(F, p ** k)


def test_partial_sums_reconstruct_sigma():
    rng = random.Random(71)
    for _ in range(30):
        m = rng.randint(1, 3)
        terms = {}
        for i in range(m):
            for j in range(i, m):
                e = [0] * m
                e[i] += 1
                e[j] += 1
                terms[tuple(e)] = rng.randint(-6, 6)
        terms[tuple([0] * m)] = rng.randint(-6, 6)
        F = quad(m, terms)
        p = rng.choice([3, 5, 7])
        t = rng.randint(1, 3)
        est = sigma_p(F, p, t)
        total = Fraction(1)
        for k in range(1, t + 1):
            total += Fraction(S_pk_extract(F, p, k, counts=est.counts), p ** (k * m))
        assert total == est.sigma


def test_singular_series_insoluble_factor_zero():
    # x1^2 + x2^2 + 3 has sigma_3 -> 0 (no solutions mod 9)
    F = quad(2, {(2, 0): 1, (0, 2): 1, (0, 0): 3})
    est = singular_series(F, 7)
    assert {e.p: e.sigma for e in est.locals_}[3] == 0
    assert est.product == 0
    assert not est.certified  # rank 2 < 5


def test_singular_series_linear_is_one():
    F = quad(2, {(1, 0): 1, (0, 1): 2, (0, 0): 1})
    est = singular_series(F, 13)
    assert est.product == 1


def test_singular_series_rank5_certificate():
    terms = {tuple(2 if i == j else 0 for i in range(5)): 1 for j in range(5)}
    terms[(0,) * 5] = -1
    F = quad(5, terms)
    est = singular_series(F, 11, budget=10 ** 7)
    assert est.certified
    assert est.product > 0
    assert est.tail_lower is not None and 0 < est.tail_lower < 1
    # extending P_max multiplies by the new factors exactly
    est2 = singular_series(F, 13, budget=10 ** 7)
    assert est2.product == est.product * {e.p: e.sigma for e in est2.locals_}[13]


def test_sigma_tail_rank5_frozen_constant():
    rng = random.Random(73)
    for trial in range(5):
        diag = [rng.choice([1, 2, 3]) for _ in range(5)]
        terms = {}
        for i, d in enumerate(diag):
            e = [0] * 5
            e[i] = 2
            terms[tuple(e)] = d
        terms[(0,) * 5] = rng.randint(-10, 10)
        F = quad(5, terms)
        for p in primes_up_to(50):
            if p == 2 or (2 * F.disc()) % p == 0:
                continue
            est = sigma_p(F, p, 2)
            assert abs(est.sigma - 1) <= Fraction(4) / p ** 2  # stronger than 4 p^(-3/2)


def test_tail_lower_bound_positive_and_monotone():
    t31 = _tail_lower_bound(31)
    t101 = _tail_lower_bound(101)
    assert 0 < t31 < t101 < 1


def test_lower_bound_certificate_good_form():
    terms = {tuple(2 if i == j else 0 for i in range(5)): 1 for j in range(5)}
    terms[(0,) * 5] = -4
    F = quad(5, terms)
    wit2 = find_padic_nonsingular(F.to_polynomial(), 2, 3)
    assert wit2 is not None
    cert = series_lower_bound_certificate(F, {2: wit2})
    assert cert.value > 0
    # certificate is a true lower bound for the truncated product over a
    # decent range of primes times the tail estimate
    est = singular_series(F, 31, budget=10 ** 7)
    partial = est.product
    assert partial >= cert.value


def test_lower_bound_certificate_requires_rank5():
    F = quad(2, {(2, 0): 1, (0, 2): 1})
    with pytest.raises(ValueError):
        series_lower_bound_certificate(F, {})


def test_lower_bound_scaling_envelope():
    # scaling y in F_y scales coefficients; L stays positive and within a
    # (1+|y|)-style envelope on this family
    vals = []
    for scale in (1, 3, 9):
        terms = {tuple(2 if i == j else 0 for i in range(5)): 1 for j in range(5)}
        terms[(0,) * 5] = -scale * scale
        F = quad(5, terms)
        wit2 = find_padic_nonsingular(F.to_polynomial(), 2, 3)
        assert wit2 is not None
        cert = series_lower_bound_certificate(F, {2: wit2})
        assert cert.value > 0
        vals.append(cert.value)
    for a, b in zip(vals, vals[1:]):
        assert b >= a * Fraction(1, 64)  # crude envelope: no collapse under scaling


@pytest.mark.parametrize("P", [1, 2, 7, 31, 101, 10 ** 6 - 1, 10 ** 6, 2 * 10 ** 6])
def test_tail_lower_bound_equals_the_per_call_sum(P):
    """The sum over all sieved primes, taken once, minus the primes up to
    P is the same Fraction as summing the primes above P on each call."""
    from math import isqrt

    scale, sieve_to = 1 << 40, 10 ** 6
    total_fp = sum(-(-scale // (q * isqrt(q))) for q in primes_up_to(sieve_to) if q > P)
    expected = 1 - 4 * (Fraction(total_fp, scale) + Fraction(2, isqrt(sieve_to - 1)))
    assert _tail_lower_bound(P) == expected


@st.composite
def quadratic_polynomials(draw, m_max):
    m = draw(st.integers(1, m_max))
    ints = st.integers(-3, 3)
    two_q = [[0] * m for _ in range(m)]
    for i in range(m):
        two_q[i][i] = 2 * draw(ints)
        for j in range(i + 1, m):
            two_q[i][j] = two_q[j][i] = draw(ints)
    return QuadraticPolynomial(two_q, [draw(ints) for _ in range(m)], draw(ints))


def moved_by(F, U, x):
    """F(U x) as a QuadraticPolynomial: 2Q -> U^t 2Q U and B -> U^t B;
    checked against F at U x for the point x."""
    cols = list(zip(*U))
    two_q = [[sum(u[a] * F.two_q[a][b] * v[b] for a in range(F.m) for b in range(F.m))
              for v in cols] for u in cols]
    G = QuadraticPolynomial(two_q, [sum(map(int.__mul__, u, F.B)) for u in cols], F.N)
    Ux = [sum(map(int.__mul__, row, x)) for row in U]
    assert G.to_polynomial().evaluate(x) == F.to_polynomial().evaluate(Ux)
    return G


@settings(max_examples=150, deadline=None)
@given(data=st.data(), p=st.sampled_from([2, 3, 5]), t=st.integers(1, 2))
def test_sigma_p_is_invariant_under_unimodular_changes(data, p, t):
    """x -> U x is a bijection of (Z/p^k)^m for unimodular U, so it keeps
    every count N(p^k), hence sigma_p, its stability and its path."""
    F = data.draw(quadratic_polynomials(4))
    U, _ = data.draw(unimodular_pairs(F.m))
    G = moved_by(F, U, data.draw(st.lists(st.integers(-5, 5), min_size=F.m, max_size=F.m)))
    a, b = sigma_p(F, p, t), sigma_p(G, p, t)
    assert (b.counts, b.sigma, b.stable, b.method) == (a.counts, a.sigma, a.stable, a.method)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_singular_series_is_invariant_under_unimodular_changes(data):
    """The truncations, the local factors and the certificate of the
    singular series depend on F only up to a unimodular change."""
    F = data.draw(quadratic_polynomials(4))
    U, _ = data.draw(unimodular_pairs(F.m))
    G = moved_by(F, U, data.draw(st.lists(st.integers(-5, 5), min_size=F.m, max_size=F.m)))
    a, b = singular_series(F, 5), singular_series(G, 5)
    assert (b.product, b.certified, b.locals_, b.tail_lower) == (a.product, a.certified, a.locals_,
                                                                  a.tail_lower)
