import random
from math import gcd, isqrt

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cubefib.nt import (
    count_quadratic_interval,
    divisors,
    factorize,
    is_prime,
    jacobi_symbol,
    primes_up_to,
    solve_linear_diophantine,
    squarefree_divisors,
    xgcd,
)


def legendre_bruteforce(a, p):
    a %= p
    if a == 0:
        return 0
    return 1 if any(x * x % p == a for x in range(1, p)) else -1


def test_jacobi_trivial_cases():
    for n in (1, 3, 9, 15, 21):
        assert jacobi_symbol(1, n) == 1
    assert jacobi_symbol(3, 9) == 0
    # (2/15) = (2/3)(2/5) = (-1)(-1) = 1 by the brute-force squares
    assert legendre_bruteforce(2, 3) == -1
    assert legendre_bruteforce(2, 5) == -1
    assert jacobi_symbol(2, 15) == 1


def test_jacobi_matches_legendre_for_primes():
    for p in primes_up_to(60):
        if p == 2:
            continue
        for a in range(p):
            assert jacobi_symbol(a, p) == legendre_bruteforce(a, p)


def test_jacobi_multiplicative():
    rng = random.Random(1)
    for _ in range(1000):
        n = rng.randrange(1, 400, 2)
        a = rng.randint(-200, 200)
        b = rng.randint(-200, 200)
        assert jacobi_symbol(a * b, n) == jacobi_symbol(a, n) * jacobi_symbol(b, n)


def test_jacobi_zero_iff_common_factor():
    rng = random.Random(2)
    for _ in range(300):
        n = rng.randrange(1, 300, 2)
        a = rng.randint(-300, 300)
        assert (jacobi_symbol(a, n) == 0) == (gcd(a, n) > 1)


def test_jacobi_rejects_even_modulus():
    with pytest.raises(ValueError):
        jacobi_symbol(3, 4)
    with pytest.raises(ValueError):
        jacobi_symbol(3, -5)


def test_is_prime_small():
    sieve = set(primes_up_to(5000))
    for n in range(5000):
        assert is_prime(n) == (n in sieve)


def test_is_prime_carmichael_and_big():
    assert not is_prime(561)
    assert not is_prime(6601)
    assert is_prime(2 ** 61 - 1)
    assert not is_prime((2 ** 31 - 1) * (2 ** 13 - 1))


def test_xgcd():
    rng = random.Random(3)
    for _ in range(500):
        a = rng.randint(-10 ** 6, 10 ** 6)
        b = rng.randint(-10 ** 6, 10 ** 6)
        g, u, v = xgcd(a, b)
        assert g == gcd(a, b)
        assert u * a + v * b == g


def test_solve_linear_diophantine():
    rng = random.Random(4)
    for _ in range(300):
        n = rng.randint(1, 6)
        coeffs = [rng.randint(-20, 20) for _ in range(n)]
        if all(c == 0 for c in coeffs):
            coeffs[0] = 1
        g = 0
        for c in coeffs:
            g = gcd(g, c)
        t = rng.randint(-50, 50)
        sol = solve_linear_diophantine(coeffs, t * g)
        assert sol is not None
        assert sum(c * x for c, x in zip(coeffs, sol)) == t * g
        if g > 1:
            assert solve_linear_diophantine(coeffs, g + 1) is None or (g + 1) % g == 0


def test_factorize():
    rng = random.Random(5)
    for _ in range(200):
        n = rng.randint(1, 10 ** 9)
        f = factorize(n)
        prod = 1
        for p, e in f.items():
            assert is_prime(p)
            prod *= p ** e
        assert prod == n
    assert factorize(2 ** 10 * 3 ** 4 * 97) == {2: 10, 3: 4, 97: 1}


def test_divisor_machinery():
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert squarefree_divisors(12) == [(1, 1), (2, -1), (3, -1), (6, 1)]


def test_count_quadratic_interval_against_bruteforce():
    rng = random.Random(6)
    for _ in range(2000):
        a = rng.randint(1, 12)
        b = rng.randint(-30, 30)
        c = rng.randint(-200, 200)
        count, lo, hi = count_quadratic_interval(a, b, c)
        brute = [t for t in range(-300, 301) if a * t * t + b * t + c <= 0]
        assert count == len(brute)
        if brute:
            assert lo == brute[0] and hi == brute[-1]


@st.composite
def interval_quadratics(draw):
    """(a, b, c) with a > 0, one of: random; (m t - u)(n t - v) scaled, whose
    discriminant is a square, with integer roots when m = n = 1; or a
    negative discriminant."""
    kind = draw(st.sampled_from(["random", "square", "integer_roots", "negative"]))
    if kind == "random":
        return (draw(st.integers(1, 40)), draw(st.integers(-200, 200)),
                draw(st.integers(-2000, 2000)))
    if kind == "negative":
        a, b = draw(st.integers(1, 40)), draw(st.integers(-200, 200))
        return a, b, b * b // (4 * a) + draw(st.integers(1, 50))
    s = draw(st.integers(1, 4))
    m, n = (1, 1) if kind == "integer_roots" else (draw(st.integers(1, 6)), draw(st.integers(1, 6)))
    u, v = draw(st.integers(-40, 40)), draw(st.integers(-40, 40))
    return s * m * n, -s * (m * v + n * u), s * u * v


@settings(max_examples=400, deadline=None)
@given(interval_quadratics())
@example((1, 0, -25))     # roots +-5
@example((1, -2, 1))      # double integer root
@example((4, -4, 1))      # double root 1/2, no integer inside
@example((1, 0, 1))       # negative discriminant
def test_count_quadratic_interval_property(abc):
    a, b, c = abc
    R = abs(b) + isqrt(abs(c)) + 2  # every root has |t| < R for a >= 1
    brute = [t for t in range(-R, R + 1) if a * t * t + b * t + c <= 0]
    count, lo, hi = count_quadratic_interval(a, b, c)
    assert count == len(brute)
    assert (lo, hi) == ((brute[0], brute[-1]) if brute else (1, 0))


def test_count_quadratic_interval_perfect_squares():
    # roots at exactly +-5
    count, lo, hi = count_quadratic_interval(1, 0, -25)
    assert (count, lo, hi) == (11, -5, 5)
    count, lo, hi = count_quadratic_interval(1, 0, 1)
    assert count == 0
    assert isqrt(25) == 5
