"""Blocked brute-force enumeration of polynomial values on residue grids
and integer boxes. This is the oracle side of the package: closed forms
elsewhere are always checked against these counts.

One block kernel cuts every box into sub-boxes in lexicographic order; a
residue grid (Z/q)^m is the box [0, q-1]^m. One evaluator gives a
polynomial's values on a block as an array whose C order is that order,
so no coordinate array is built except for hits. Blocks are disjoint with
a deterministic integer-sum reduction, so enumerations could be fanned
out concurrently without changing any result; externally every function
is pure and single-valued."""

from __future__ import annotations

import itertools
from typing import Callable, Iterator, List, Sequence, Tuple

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


def box_point_count(lows: Sequence[int], highs: Sequence[int]) -> int:
    total = 1
    for l, h in zip(lows, highs):
        total *= max(0, h - l + 1)
    return total


def _blocks(lows: Sequence[int], highs: Sequence[int]) -> Iterator[Tuple[List[int], List[int]]]:
    """Sub-boxes (lows, highs) of at most _CHUNK points covering the box
    prod [lows_i, highs_i] in lexicographic (itertools.product) order: the
    trailing coordinates run over their whole ranges, the one before them
    is cut into runs, and the leading ones are fixed."""
    sizes = [h - l + 1 for l, h in zip(lows, highs)]
    if any(s <= 0 for s in sizes):
        return
    k, tail = len(sizes), 1
    while k and tail * sizes[k - 1] <= _CHUNK:
        k -= 1
        tail *= sizes[k]
    if k == 0:
        yield list(lows), list(highs)
        return
    a, step = k - 1, _CHUNK // tail
    for prefix in itertools.product(*[range(lows[i], highs[i] + 1) for i in range(a)]):
        for start in range(lows[a], highs[a] + 1, step):
            stop = min(start + step - 1, highs[a])
            yield [*prefix, start, *lows[k:]], [*prefix, stop, *highs[k:]]


def _evaluator(
    poly: IntPolynomial, lows: Sequence[int], highs: Sequence[int], q: int | None = None
) -> Callable[[Sequence[int], Sequence[int]], np.ndarray]:
    """values(block_lows, block_highs): poly on a sub-box of the box, as an
    array of the sub-box's shape, reduced mod q (int32 where that cannot
    overflow, else int64), or exact when q is None (int64, or Python ints
    when int64 could overflow anywhere in the box).

    Each axis gets one table of x^e (mod q) over its whole range; a
    monomial is the outer product of its axes' table slices, so only the
    sum over the monomials touches every point of the block."""
    m = len(lows)
    if q is None:
        radius = max((max(abs(l), abs(h)) for l, h in zip(lows, highs)), default=0)
        bound = sum(abs(c) * max(1, radius) ** sum(e) for e, c in poly.terms.items())
        dtype = np.int64 if bound < 2 ** 62 else object
    else:
        # products of two residues and the sum over the monomials must fit
        small = q * max(q, len(poly.terms)) < 2 ** 31
        dtype = np.int32 if small else np.int64
    # powers[(lo, hi)][e - 1] = x^e (mod q) for x in [lo, hi]; axes with the
    # same range (every axis of a residue grid) share them
    powers: dict = {}
    tables: dict = {}
    for i, top in enumerate(max(col) for col in zip(*poly.terms)):
        pw = powers.setdefault((lows[i], highs[i]), [])
        if top and not pw:
            x = np.arange(lows[i], highs[i] + 1, dtype=np.int64)
            pw.append(x.astype(object) if dtype is object else
                      x if q is None else (x % q).astype(dtype))
        while len(pw) < top:
            pw.append(pw[-1] * pw[0] if q is None else pw[-1] * pw[0] % q)
        shape = [-1 if j == i else 1 for j in range(m)]
        for e in range(1, top + 1):
            tables[i, e] = pw[e - 1].reshape(shape)
    terms = [(c if q is None else c % q, [(i, e) for i, e in enumerate(exps) if e])
             for exps, c in poly.terms.items()]

    def values(blo: Sequence[int], bhi: Sequence[int]) -> np.ndarray:
        cut = [(slice(None),) * i + (slice(b - l, h - l + 1),)
               for i, (b, h, l) in enumerate(zip(blo, bhi, lows))]
        out = np.zeros([h - b + 1 for b, h in zip(blo, bhi)], dtype=dtype)
        for coef, factors in terms:
            v = coef
            for i, e in factors:
                v = v * tables[i, e][cut[i]]
                if q is not None:
                    v %= q
            out += v
        if q is not None:
            out -= out // q * q     # floor division by a scalar is much faster than %
        return out

    return values


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
    lows, highs = [0] * m, [q - 1] * m
    value = _evaluator(poly, lows, highs, q)
    grads = [] if nonsingular_p is None else [
        _evaluator(g, lows, highs, nonsingular_p) for g in poly.gradient()]
    count = 0
    for blo, bhi in _blocks(lows, highs):
        mask = value(blo, bhi) == 0
        if nonsingular_p is not None and mask.any():
            singular = mask
            for grad in grads:
                singular = singular & (grad(blo, bhi) == 0)
                if not singular.any():
                    break
            mask = mask & ~singular
        count += int(np.count_nonzero(mask))
    return count


def count_system_zeros_mod_p(
    polys: Sequence[IntPolynomial], p: int, budget: int | None = None
) -> int:
    """#{x in F_p^m : all polys vanish}."""
    if not polys:
        raise ValueError("empty system")
    m = polys[0].num_vars
    check_budget(p ** m, budget)
    lows, highs = [0] * m, [p - 1] * m
    values = [_evaluator(f, lows, highs, p) for f in polys]
    count = 0
    for blo, bhi in _blocks(lows, highs):
        mask = True
        for value in values:
            mask = mask & (value(blo, bhi) == 0)
            if not mask.any():
                break
        count += int(np.count_nonzero(mask))
    return count


def value_counts(poly: IntPolynomial, q: int) -> np.ndarray:
    """hist[v] = #{x in (Z/q)^m : poly(x) = v mod q}, v = 0..q-1."""
    m = poly.num_vars
    check_budget(q ** m, None)
    lows, highs = [0] * m, [q - 1] * m
    value = _evaluator(poly, lows, highs, q)
    hist = np.zeros(q, dtype=np.int64)
    for blo, bhi in _blocks(lows, highs):
        hist += np.bincount(value(blo, bhi).ravel(), minlength=q)
    return hist


def character_sum_counts(poly: IntPolynomial, p: int) -> Tuple[int, int, int]:
    """(#{chi(f)=1}, #{chi(f)=-1}, #{f=0}) over F_p^m for the Legendre chi."""
    from .nt import jacobi_symbol

    hist = value_counts(poly, p)
    chi = np.array([0] + [jacobi_symbol(a, p) for a in range(1, p)], dtype=np.int64)
    return tuple(int(hist[chi == s].sum()) for s in (1, -1, 0))


def eval_on_box(
    poly: IntPolynomial,
    lows: Sequence[int],
    highs: Sequence[int],
    budget: int | None = None,
) -> Iterator[Tuple[List[int], np.ndarray]]:
    """Yield (block_lows, exact values) per block of the integer box: the
    values are an array of the block's shape with corner block_lows.

    Falls back to Python bigints when int64 could overflow.
    """
    check_budget(box_point_count(lows, highs), budget)
    value = _evaluator(poly, lows, highs)
    for blo, bhi in _blocks(lows, highs):
        yield blo, value(blo, bhi)
