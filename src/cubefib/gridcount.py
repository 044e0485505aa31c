"""Chunked brute-force enumeration of polynomial values on residue grids
and integer boxes. This is the oracle side of the package: closed forms
elsewhere are always checked against these counts.

One chunker walks every grid in lexicographic order. Chunks partition the
grid into disjoint index ranges with a deterministic integer-sum
reduction, so enumerations could be fanned out concurrently
without changing any result; externally every function is pure and
single-valued."""

from __future__ import annotations

from typing import Iterator, List, Sequence, Tuple

import numpy as np

from .polynomials import IntPolynomial

DEFAULT_BUDGET = 10 ** 8
_CHUNK = 1 << 18


class BudgetExceeded(Exception):
    """Enumeration would evaluate more points than the configured budget."""


def check_budget(points: int, budget: int | None):
    budget = DEFAULT_BUDGET if budget is None else budget
    if points > budget:
        raise BudgetExceeded(f"{points} points exceed budget {budget}")


def _box_chunks(lows: Sequence[int], highs: Sequence[int]) -> Iterator[np.ndarray]:
    """Yield (m, N) int64 coordinate arrays, at most _CHUNK points each,
    covering the integer box prod [lows_i, highs_i] in lexicographic
    (itertools.product) order. A residue grid (Z/q)^m is the box [0, q-1]^m."""
    sizes = [h - l + 1 for l, h in zip(lows, highs)]
    total = box_point_count(lows, highs)
    start = 0
    while start < total:
        stop = min(start + _CHUNK, total)
        idx = np.arange(start, stop, dtype=np.int64)
        coords = np.empty((len(sizes), stop - start), dtype=np.int64)
        for i in range(len(sizes) - 1, -1, -1):
            np.divmod(idx, sizes[i], out=(idx, coords[i]))
            coords[i] += lows[i]
        yield coords
        start = stop


def _pow_tables(poly: IntPolynomial, q: int) -> List[dict]:
    base = np.arange(q, dtype=np.int64)
    tables: List[dict] = [dict() for _ in range(poly.num_vars)]
    for exps in poly.terms:
        for i, e in enumerate(exps):
            if e and e not in tables[i]:
                acc = np.ones(q, dtype=np.int64)
                b = base.copy()
                k = e
                while k:
                    if k & 1:
                        acc = acc * b % q
                    b = b * b % q
                    k >>= 1
                tables[i][e] = acc
    return tables


def eval_mod_on_coords(poly: IntPolynomial, q: int, coords: np.ndarray, tables=None) -> np.ndarray:
    """poly values mod q at the given (m, N) coordinate array."""
    if tables is None:
        tables = _pow_tables(poly, q)
    n = coords.shape[1]
    out = np.zeros(n, dtype=np.int64)
    for exps, coef in poly.terms.items():
        v = np.full(n, coef % q, dtype=np.int64)
        for i, e in enumerate(exps):
            if e:
                v = v * tables[i][e][coords[i]] % q
        out = (out + v) % q
    return out


def count_zeros_mod_q(
    poly: IntPolynomial,
    q: int,
    budget: int | None = None,
    nonsingular_p: int | None = None,
) -> int:
    """#{x in (Z/q)^m : poly(x) = 0 mod q}.

    With nonsingular_p set, only points whose gradient is nonzero mod
    that prime are counted (q must be a power of it).
    """
    m = poly.num_vars
    check_budget(q ** m, budget)
    tables = _pow_tables(poly, q)
    grads = poly.gradient() if nonsingular_p is not None else []
    gtables = [_pow_tables(g, nonsingular_p) for g in grads]
    count = 0
    for coords in _box_chunks([0] * m, [q - 1] * m):
        vals = eval_mod_on_coords(poly, q, coords, tables)
        mask = vals == 0
        if nonsingular_p is not None:
            p = nonsingular_p
            pc = coords % p
            singular = np.ones(coords.shape[1], dtype=bool)
            for g, tb in zip(grads, gtables):
                singular &= eval_mod_on_coords(g, p, pc, tb) == 0
            mask &= ~singular
        count += int(mask.sum())
    return count


def count_system_zeros_mod_p(
    polys: Sequence[IntPolynomial], p: int, budget: int | None = None
) -> int:
    """#{x in F_p^m : all polys vanish}."""
    if not polys:
        raise ValueError("empty system")
    m = polys[0].num_vars
    check_budget(p ** m, budget)
    tables = [_pow_tables(f, p) for f in polys]
    count = 0
    for coords in _box_chunks([0] * m, [p - 1] * m):
        mask = np.ones(coords.shape[1], dtype=bool)
        for f, tb in zip(polys, tables):
            mask &= eval_mod_on_coords(f, p, coords, tb) == 0
            if not mask.any():
                break
        count += int(mask.sum())
    return count


def character_sum_counts(
    poly: IntPolynomial, p: int, budget: int | None = None
) -> Tuple[int, int, int]:
    """(#{chi(f)=1}, #{chi(f)=-1}, #{f=0}) over F_p^m for the Legendre chi."""
    from .nt import jacobi_symbol

    m = poly.num_vars
    check_budget(p ** m, budget)
    chi = np.zeros(p, dtype=np.int64)
    for a in range(1, p):
        chi[a] = jacobi_symbol(a, p)
    tables = _pow_tables(poly, p)
    plus = minus = zero = 0
    for coords in _box_chunks([0] * m, [p - 1] * m):
        vals = chi[eval_mod_on_coords(poly, p, coords, tables)]
        plus += int((vals == 1).sum())
        minus += int((vals == -1).sum())
        zero += int((vals == 0).sum())
    return plus, minus, zero


def box_point_count(lows: Sequence[int], highs: Sequence[int]) -> int:
    total = 1
    for l, h in zip(lows, highs):
        total *= max(0, h - l + 1)
    return total


def eval_on_box(
    poly: IntPolynomial,
    lows: Sequence[int],
    highs: Sequence[int],
    budget: int | None = None,
) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """Yield (coords, exact values) over the integer box.

    Falls back to Python bigints when int64 could overflow.
    """
    check_budget(box_point_count(lows, highs), budget)
    radius = max(max(abs(l), abs(h)) for l, h in zip(lows, highs)) if lows else 0
    bound = sum(
        abs(c) * max(1, radius) ** sum(e) for e, c in poly.terms.items()
    )
    safe = bound < 2 ** 62
    for coords in _box_chunks(lows, highs):
        n = coords.shape[1]
        if safe:
            out = np.zeros(n, dtype=np.int64)
            for exps, coef in poly.terms.items():
                v = np.full(n, coef, dtype=np.int64)
                for i, e in enumerate(exps):
                    for _ in range(e):
                        v = v * coords[i]
                out += v
        else:
            out = np.zeros(n, dtype=object)
            cobj = coords.astype(object)
            for exps, coef in poly.terms.items():
                v = np.full(n, coef, dtype=object)
                for i, e in enumerate(exps):
                    for _ in range(e):
                        v = v * cobj[i]
                out += v
        yield coords, out
