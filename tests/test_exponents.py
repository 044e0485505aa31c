from fractions import Fraction

import pytest

from cubefib.exponents import predicted_exponents


def test_thmlb_plugin_n39_h13():
    # (h-5)/2 = 4, (2h-12)/3 = 14/3, beta = 2*12*19/75 - 2 = 4.08 (eps -> 0)
    pred = predicted_exponents(39, 13, 5, eps=Fraction(0), shape="general")
    assert Fraction(13 - 5, 2) == 4
    assert pred.beta == Fraction(2 * 12 * 19, 75) - 2
    assert pred.beta == Fraction(152, 25) - 2
    assert pred.alpha == 4
    assert 39 - 13 + pred.alpha == 30  # = n - 9


def test_gamma_plugin_n20_h10_r10():
    pred = predicted_exponents(20, 10, 10, shape="h1")
    assert pred.gamma == min(Fraction(5, 2), Fraction(10 - 20 + 30 - 8, 3))
    assert pred.gamma == Fraction(5, 2)


def test_delta_second_case_n20_h8_r12():
    eps = Fraction(1, 1000)
    pred = predicted_exponents(20, 8, 12, eps=eps, shape="not-h1")
    # m = 12, 2r - m = 12 >= 8: generic case
    assert pred.delta == Fraction(2 * 9 * 7, 12 + 24 + 1) - 2 - eps
    assert pred.delta == Fraction(126, 37) - 2 - eps


def test_delta_even_small_case():
    # r even with 2r - m < 8 takes the first formula
    n, h, r = 20, 8, 6  # m = 12, 2r - m = 0 < 8
    eps = Fraction(1, 100)
    pred = predicted_exponents(n, h, r, eps=eps, shape="not-h1")
    assert pred.delta == Fraction(2 * (r - 4) * (h - 1), r + 2 * 12) - 2 - eps


def test_exponent_floor_full_grid():
    # the paper's floor: n - h + alpha(n, h, eps) >= n - 9, exactly, for
    # every n >= 39 of the grid and h = 10..13
    eps = Fraction(1, 100)
    for h in range(10, 14):
        for n in range(39, 61):
            pred = predicted_exponents(n, h, min(5, n - h), eps, shape="general")
            assert n - h + pred.alpha >= n - 9, (n, h)


def test_exponent_floor_is_tight_at_h13():
    # at h = 13 the binding term is (h-5)/2 = 4 = h - 9 exactly
    for n in (39, 50, 60):
        pred = predicted_exponents(n, 13, 5, eps=Fraction(1, 100), shape="general")
        assert n - 13 + pred.alpha == n - 9


def test_parameter_validation():
    with pytest.raises(ValueError):
        predicted_exponents(10, 10, 0)
    with pytest.raises(ValueError):
        predicted_exponents(10, 3, 9)
    with pytest.raises(ValueError):
        predicted_exponents(10, 3, 2, shape="nope")


def test_warnings_flag_out_of_range_hypotheses():
    pred = predicted_exponents(30, 7, 5, shape="general")
    assert any("h >= 8" in w for w in pred.warnings)
    pred = predicted_exponents(20, 10, 5, shape="general")
    assert any("n >= h + 17" in w for w in pred.warnings)
    pred = predicted_exponents(39, 10, 5, shape="general")
    assert pred.warnings == ()


def test_route_ingredients():
    pred = predicted_exponents(20, 10, 10, shape="h1")
    # route exponents r - 2 + (2/3)(n - r - 1) and n - h - 2 + (h - 1)/2
    assert pred.ingredients["route_y1_divides"] == 10 - 2 + Fraction(2 * (20 - 10 - 1), 3)
    assert pred.ingredients["route_y1_coprime"] == 20 - 10 - 2 + Fraction(9, 2)
    # gamma is the min of the two, shifted by -(n-h)
    assert pred.gamma == min(
        pred.ingredients["route_y1_divides"], pred.ingredients["route_y1_coprime"]
    ) - (20 - 10)


def test_linear_fibre_shape():
    pred = predicted_exponents(8, 8 - 3, 0, eps=Fraction(1, 20), shape="linear-fibres")
    assert pred.total_exponent == 8 - 3 - Fraction(1, 20)
