import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubefib import gridcount
from cubefib.polynomials import IntPolynomial


@st.composite
def _boxes(draw, max_vars=4):
    m = draw(st.integers(0, max_vars))
    lows = [draw(st.integers(-3, 3)) for _ in range(m)]
    highs = [lo + draw(st.integers(-1, 4)) for lo in lows]
    return lows, highs


def _points(lows, highs):
    return list(itertools.product(*[range(lo, hi + 1) for lo, hi in zip(lows, highs)]))


@settings(max_examples=150, deadline=None)
@given(box=_boxes(), chunk=st.integers(1, 9))
def test_blocks_cover_the_box_once_in_product_order(box, chunk):
    lows, highs = box
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gridcount, "_CHUNK", chunk)
        blocks = list(gridcount._blocks(lows, highs))
    points = []
    for blo, bhi in blocks:
        block = _points(blo, bhi)
        assert len(blo) == len(bhi) == len(lows) and 0 < len(block) <= chunk
        points += block
    assert points == _points(lows, highs)


@st.composite
def _polynomials_on_boxes(draw):
    lows, highs = draw(_boxes(max_vars=3))
    m = len(lows)
    big = draw(st.booleans())
    coef = st.integers(-2 ** 62, 2 ** 62) if big else st.integers(-9, 9)
    exps = st.tuples(*[st.integers(0, 3) for _ in range(m)]).filter(lambda e: sum(e) <= 3)
    terms = draw(st.dictionaries(exps, coef, max_size=6))
    return IntPolynomial(m, {e: c for e, c in terms.items() if c}), lows, highs


@settings(max_examples=150, deadline=None)
@given(case=_polynomials_on_boxes(), q=st.one_of(st.integers(1, 12), st.just(2 ** 31 - 1)),
       chunk=st.sampled_from([3, 7, 1 << 18]))
def test_evaluator_matches_pointwise_evaluation(case, q, chunk):
    """Block values, exact and mod q, agree with IntPolynomial at every
    point of the box, in C order; huge coefficients take the object path
    and a modulus past 2^15.5 the int64 one."""
    poly, lows, highs = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gridcount, "_CHUNK", chunk)
        exact = gridcount._evaluator(poly, lows, highs)
        reduced = gridcount._evaluator(poly, lows, highs, q)
        for blo, bhi in gridcount._blocks(lows, highs):
            pts = _points(blo, bhi)
            values = exact(blo, bhi)
            assert values.shape == tuple(h - b + 1 for b, h in zip(blo, bhi))
            assert [int(v) for v in values.ravel()] == [poly.evaluate(x) for x in pts]
            assert reduced(blo, bhi).ravel().tolist() == [poly.evaluate_mod(x, q) for x in pts]
    radius = max([max(abs(lo), abs(hi)) for lo, hi in zip(lows, highs)], default=0)
    if sum(abs(c) * max(1, radius) ** sum(e) for e, c in poly.terms.items()) >= 2 ** 62:
        assert exact(lows, highs).dtype == object


def test_grid_counts_do_not_depend_on_the_chunk_size():
    f = IntPolynomial(3, {(2, 0, 0): 1, (0, 1, 1): -3, (0, 0, 1): 2, (0, 0, 0): 1})
    g = IntPolynomial(3, {(1, 1, 0): 1, (0, 0, 2): 5})

    def counts():
        box = sum(int(np.count_nonzero(vals == 0))
                  for _, vals in gridcount.eval_on_box(f, [-4, -3, -2], [3, 2, 4]))
        return (gridcount.count_zeros_mod_q(f, 25),
                gridcount.count_zeros_mod_q(f, 25, nonsingular_p=5),
                gridcount.count_system_zeros_mod_p([f, g], 7),
                gridcount.character_sum_counts(f, 11),
                box)

    default = counts()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gridcount, "_CHUNK", 7)
        assert counts() == default
    brute = sum(1 for x in itertools.product(range(25), repeat=3) if f.evaluate_mod(x, 25) == 0)
    assert default[0] == brute
