import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubefib import gridcount
from cubefib.polynomials import IntPolynomial


@st.composite
def _boxes(draw):
    m = draw(st.integers(0, 4))
    lows = [draw(st.integers(-3, 3)) for _ in range(m)]
    highs = [lo + draw(st.integers(-1, 4)) for lo in lows]
    return lows, highs


@settings(max_examples=150, deadline=None)
@given(box=_boxes(), chunk=st.integers(1, 9))
def test_box_chunks_cover_the_box_once_in_product_order(box, chunk):
    lows, highs = box
    expected = list(itertools.product(*[range(lo, hi + 1) for lo, hi in zip(lows, highs)]))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gridcount, "_CHUNK", chunk)
        chunks = list(gridcount._box_chunks(lows, highs))
    assert all(c.shape[0] == len(lows) and 0 < c.shape[1] <= chunk for c in chunks)
    points = [tuple(int(v) for v in col) for c in chunks for col in c.T]
    assert points == expected
    assert len(chunks) == -(-len(expected) // chunk)


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
