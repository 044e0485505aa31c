"""Integer number-theory primitives: gcds, Jacobi symbols, primality,
factoring, divisor machinery, linear Diophantine equations and quadratic
interval counts.

Everything is deterministic; primality is provably correct below 2^64
(fixed Miller-Rabin witness set) and strong-probable-prime above.
"""

from __future__ import annotations

from math import gcd, isqrt
from typing import Dict, List, Tuple


def xgcd(a: int, b: int) -> Tuple[int, int, int]:
    """(g, u, v) with u*a + v*b = g = gcd(a, b), g >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def solve_linear_diophantine(coeffs: List[int], target: int) -> List[int] | None:
    """One integer solution of sum coeffs[i]*x[i] = target, or None.

    Requires some coefficient nonzero.
    """
    n = len(coeffs)
    if n == 0 or all(c == 0 for c in coeffs):
        return None
    # fold coefficients left to right with extended gcds
    g = coeffs[0]
    combos = [[1 if i == 0 else 0 for i in range(n)]]
    for i in range(1, n):
        g2, u, v = xgcd(g, coeffs[i])
        combo = [u * c for c in combos[-1]]
        combo[i] += v
        combos.append(combo)
        g = g2
    if g == 0 or target % g != 0:
        return None
    scale = target // g
    return [scale * c for c in combos[-1]]


def jacobi_symbol(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd positive n; Legendre symbol for prime n."""
    if n <= 0 or n % 2 == 0:
        raise ValueError("n must be an odd positive integer")
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic for n < 2^64 (fixed witness set), strong-probable above."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def prime_sieve(n: int) -> bytearray:
    """sieve[i] = 1 if i is prime else 0, for 0 <= i <= n."""
    if n < 2:
        return bytearray(max(n + 1, 0))
    sieve = bytearray([1]) * (n + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
    return sieve


def primes_up_to(n: int) -> List[int]:
    return [i for i, b in enumerate(prime_sieve(n)) if b]


def _pollard_rho(n: int) -> int:
    if n % 2 == 0:
        return 2
    x, c = 2, 1
    while True:
        y = x
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = gcd(abs(x - y), n)
        if d != n:
            return d
        x += 1
        c += 1


def factorize(n: int) -> Dict[int, int]:
    """Prime factorization of |n| (n != 0) as {prime: exponent}."""
    n = abs(n)
    if n == 0:
        raise ValueError("cannot factor 0")
    out: Dict[int, int] = {}
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        r = isqrt(m)
        if r * r == m:
            stack.extend([r, r])
            continue
        d = _pollard_rho(m)
        stack.extend([d, m // d])
    return out


def prime_factors(n: int) -> List[int]:
    return sorted(factorize(n)) if n not in (0,) else []


def squarefree_divisors(n: int) -> List[int]:
    """Squarefree divisors of |n| with their Mobius signs, as (d, mu(d))."""
    ps = prime_factors(n) if n != 0 else []
    divs = [(1, 1)]
    for p in ps:
        divs += [(d * p, -mu) for d, mu in divs]
    return sorted(divs)


def divisors(n: int) -> List[int]:
    n = abs(n)
    f = factorize(n) if n else {}
    out = [1]
    for p, e in f.items():
        out = [d * p ** k for d in out for k in range(e + 1)]
    return sorted(out)


def floor_div(a: int, b: int) -> int:
    return a // b if b > 0 else (-a) // (-b)


def ceil_div(a: int, b: int) -> int:
    return -((-a) // b) if b > 0 else -(a // (-b))


def count_quadratic_interval(a: int, b: int, c: int) -> Tuple[int, int, int]:
    """Integers t with a t^2 + b t + c <= 0, for a > 0.

    Returns (count, lo, hi) with the convention (0, 1, 0) when empty.
    Exact with one isqrt and no endpoint checks (see below).
    """
    if a <= 0:
        raise ValueError("leading coefficient must be positive")
    disc = b * b - 4 * a * c
    if disc < 0:
        return 0, 1, 0
    s = isqrt(disc)
    # the roots are (-b -+ sqrt(disc)) / 2a, and floor(-b + sqrt(disc)) =
    # -b + s; floor(x / m) = floor(floor(x) / m) for integer m > 0, so both
    # ends are exact
    hi = floor_div(-b + s, 2 * a)
    lo = ceil_div(-b - s, 2 * a)
    if lo > hi:
        return 0, 1, 0
    return hi - lo + 1, lo, hi
