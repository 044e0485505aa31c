import itertools
import json
import math
import os
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cubefib import driver
from cubefib.driver import (
    CountSeries,
    FormValidationError,
    brute_force_N,
    build_report,
    compare_fit,
    config_hash,
    fibration_count,
    fit_exponent,
    parse_form_document,
    report_to_json,
    representation_count_coprime,
)
from cubefib.fibration import FalsificationAlarm, split_cubic
from cubefib.gridcount import BudgetExceeded
from cubefib.lattice import HyperplaneCount
from cubefib.linalg import QuadraticPolynomial
from cubefib.polynomials import IntPolynomial, VariableSplit
from cubefib.sieve import enumerate_admissible, membership

FORMS = os.path.join(os.path.dirname(__file__), "..", "forms")


def load(name):
    with open(os.path.join(FORMS, name)) as f:
        return f.read()


def test_parse_form_minimal():
    text = json.dumps(
        {
            "schema": "cubefib-form-v1",
            "n": 1,
            "degree": 3,
            "terms": [{"exps": [3], "coef": "1"}],
        }
    )
    doc = parse_form_document(text)
    assert doc.n == 1
    assert doc.poly == IntPolynomial(1, {(3,): 1})


def test_parse_form_rejects_wrong_degree():
    text = json.dumps(
        {
            "schema": "cubefib-form-v1",
            "n": 2,
            "degree": 3,
            "terms": [{"exps": [2, 0], "coef": "1"}],
        }
    )
    with pytest.raises(FormValidationError, match="degree"):
        parse_form_document(text)


def test_brute_force_hand_values():
    # x1^3 - x2^3: only (1,1) and (-1,-1) are primitive zeros
    C = IntPolynomial(2, {(3, 0): 1, (0, 3): -1})
    series = brute_force_N(C, [1, 2, 5])
    assert series.rows == [(1, 2), (2, 2), (5, 2)]
    assert brute_force_N(C, [5, 1, 5]).rows == [(1, 2), (5, 2)]

    # x1 x2 x3 at B = 3: primitive zeros have some coordinate zero
    C = IntPolynomial(3, {(1, 1, 1): 1})
    series = brute_force_N(C, [3])
    brute = 0
    from itertools import product
    from math import gcd

    for x in product(range(-3, 4), repeat=3):
        if x[0] * x[1] * x[2] == 0:
            g = 0
            for v in x:
                g = gcd(g, v)
            if g == 1:
                brute += 1
    assert series.rows[0][1] == brute


def test_norm_form_has_no_points():
    doc = parse_form_document(load("norm_form_n9.json"))
    series = brute_force_N(doc.poly, [1, 2])
    assert series.rows == [(1, 0), (2, 0)]


def test_count_series_monotone_guard():
    with pytest.raises(ValueError):
        CountSeries([(2, 5), (4, 3)], "primitive-box")
    with pytest.raises(ValueError):
        CountSeries([(4, 3), (2, 5)], "primitive-box")
    with pytest.raises(ValueError):
        CountSeries([(2, 3), (2, 3)], "primitive-box")


def test_fibration_count_alarms_on_non_admissible_fibre(monkeypatch):
    # C = 2 x0 y0^2 + 2 x1 y1^2 + y0^3: over y = (1, 1) the fibre
    # 2 x0 + 2 x1 + 1 = 0 is insoluble mod 2, so y is not admissible
    C = IntPolynomial(4, {(1, 0, 2, 0): 2, (0, 1, 0, 2): 2, (0, 0, 3, 0): 1})
    split = VariableSplit(4, (0, 1), (2, 3))
    monkeypatch.setattr(driver, "enumerate_admissible",
                        lambda spec, Y, budget=None: iter([(1, 1)]))
    with pytest.raises(FalsificationAlarm, match="not locally soluble"):
        fibration_count(C, split, "pi_prime", [4])


def test_locally_insoluble_result_spec_enumerates_to_nothing():
    # C = 2 x0 y0^2 + 2 x1 y1^2 + y0^3 + y0^2 y1 + y1^3: an x-partial is a
    # 2-adic unit only if y0 or y1 is odd, and then C is odd, so the witness
    # search at 2 finds nothing
    C = IntPolynomial(4, {(1, 0, 2, 0): 2, (0, 1, 0, 2): 2, (0, 0, 3, 0): 1,
                          (0, 0, 2, 1): 1, (0, 0, 0, 3): 1})
    split = VariableSplit(4, (0, 1), (2, 3))
    res = fibration_count(C, split, "pi_prime", [4, 8])
    assert res.label == "locally insoluble at 2"
    assert res.series.rows == [(4, 0), (8, 0)]
    assert res.spec.k == len(res.spec.box) == 2
    assert list(enumerate_admissible(res.spec, 4, budget=0)) == []


def test_fibration_count_alarms_on_sample_off_the_cubic(monkeypatch):
    doc = parse_form_document(load("pi_prime_n7.json"))
    bogus = HyperplaneCount(1, ((1, 0, 0, 0, 0),))
    monkeypatch.setattr(driver, "hyperplane_counts", lambda fibres: [bogus] * len(fibres))
    with pytest.raises(FalsificationAlarm, match="not a zero of C"):
        fibration_count(doc.poly, doc.split, "pi_prime", [4])


def test_fibration_count_leq_bruteforce_reduced_instance():
    doc = parse_form_document(load("pi_prime_n7.json"))
    brute = brute_force_N(doc.poly, [4])
    res = fibration_count(doc.poly, doc.split, "pi_prime", [4])
    assert res.label == "certified-lower-bound"
    assert res.series.rows[0][1] <= brute.rows[0][1]
    # points sampled during the count satisfy C = 0 and primitivity
    for pt in res.series.samples:
        assert doc.poly.evaluate(list(pt)) == 0


def test_fibration_count_small_series_monotone():
    doc = parse_form_document(load("pi_prime_n8.json"))
    res = fibration_count(doc.poly, doc.split, "pi_prime", [16, 32, 64])
    counts = [c for _, c in res.series.rows]
    assert counts == sorted(counts)
    for pt in res.series.samples:
        assert doc.poly.evaluate(list(pt)) == 0



# The scaled box Y [lo, hi] with lo > 0 is not monotone in Y: alone, B = 1, 2
# and 3 admit fibres whose sums are 1, 9 and 0.
NON_NESTED = (
    IntPolynomial(5, {(0, 0, 0, 2, 1): -3, (0, 0, 1, 1, 1): -1, (0, 1, 0, 0, 2): -1,
                      (0, 1, 0, 1, 1): -1, (0, 1, 0, 2, 0): 1, (1, 0, 0, 0, 2): 1,
                      (1, 0, 0, 1, 1): -1, (1, 0, 0, 2, 0): -2}),
    VariableSplit(5, (0, 1, 2), (3, 4)),
)


def test_fibration_count_reports_the_running_maximum_on_non_nested_sets():
    C, split = NON_NESTED
    alone = [fibration_count(C, split, "pi_prime", [B]).series.rows for B in (1, 2, 3)]
    assert alone == [[(1, 1)], [(2, 9)], [(3, 0)]]
    res = fibration_count(C, split, "pi_prime", [1, 2, 3])
    assert res.series.rows == [(1, 1), (2, 9), (3, 9)]
    assert brute_force_N(C, [1, 2, 3]).rows == [(1, 54), (2, 314), (3, 926)]


@st.composite
def _linear_fibre_cubics(draw):
    """C = sum_j x_j Q_j(y) + R(y) in m = 2 or 3 x-variables and h = 2
    y-variables, with small random coefficients."""
    m = draw(st.sampled_from([2, 3]))
    monos = []
    for j in range(m):
        for a, b in ((0, 0), (0, 1), (1, 1)):
            e = [0] * (m + 2)
            e[j] = 1
            e[m + a] += 1
            e[m + b] += 1
            monos.append(tuple(e))
    monos += [tuple([0] * m + [3 - k, k]) for k in range(4)]
    coefs = draw(st.lists(st.integers(-3, 3), min_size=len(monos), max_size=len(monos)))
    return (IntPolynomial(m + 2, dict(zip(monos, coefs))),
            VariableSplit(m + 2, range(m), (m, m + 1)))


@example(case=NON_NESTED)
@settings(max_examples=40, deadline=None)
@given(case=_linear_fibre_cubics())
def test_fibration_count_never_exceeds_brute_force(case):
    C, split = case
    assume(not all(q.is_zero() for q in split_cubic(C, split)[1]))
    Bs = [1, 2, 3]
    try:
        res = fibration_count(C, split, "pi_prime", Bs)
    except BudgetExceeded:
        return
    for (B, lower), (_, total) in zip(res.series.rows, brute_force_N(C, Bs).rows):
        assert lower <= total, f"lower bound {lower} > N({B}) = {total}"

@example(case=NON_NESTED, B=2)
@settings(max_examples=100, deadline=None)
@given(case=_linear_fibre_cubics(), B=st.integers(2, 6))
def test_fibre_sum_equals_a_box_count(case, B):
    """The pi_prime fibre sum at one B is the plain count of the (x, y) with
    y in the bounding box of the spec, passing `membership`, some Q_j(y) != 0;
    x in [-B, B]^m with |x|^2 + 1 <= B^2; gcd(x, y) = 1; and C(x, y) = 0."""
    C, split = case
    q_list = split_cubic(C, split)[1]
    assume(not all(q.is_zero() for q in q_list))
    try:
        res = fibration_count(C, split, "pi_prime", [B])
    except BudgetExceeded:
        return
    Y = res.Y_values[B]
    _, cmin, cmax, _, _ = res.spec.plan()
    m = len(split.x_indices)
    xs = [g.ravel() for g in np.meshgrid(*[np.arange(-B, B + 1)] * m, indexing="ij")]
    ball = sum(x * x for x in xs) + 1 <= B * B
    gx = np.gcd.reduce(np.abs(np.stack(xs)), axis=0)
    total = 0
    for y in itertools.product(*[range(math.ceil(Y * lo), math.floor(Y * hi) + 1)
                                 for lo, hi in zip(cmin, cmax)]):
        if not membership(y, res.spec, Y).member or not any(q.evaluate(y) for q in q_list):
            continue
        point = [0] * split.n
        for i, v in zip(split.x_indices + split.y_indices, (*xs, *y)):
            point[i] = v
        zero = C.evaluate(point) == 0
        total += int((ball & zero & (np.gcd(gx, math.gcd(*y)) == 1)).sum())
    assert res.series.rows == [(B, total)]


def test_fibration_count_ladder_is_frozen():
    """Rows, fibre counts, Y and the 16 samples in order on pi_prime_n8,
    frozen before every fibre of a rung went to one lattice batch."""
    doc = parse_form_document(load("pi_prime_n8.json"))
    res = fibration_count(doc.poly, doc.split, "pi_prime", [16, 32, 64, 128])
    assert res.series.rows == [(16, 0), (32, 2506), (64, 48334), (128, 1921882)]
    assert res.series.per_B_fibres == {16: 0, 32: 1, 64: 8, 128: 59}
    assert res.Y_values == {16: 12, 32: 22, 64: 42, 128: 78}
    assert res.series.samples == [
        (0, 6, 12, -26, 12, 4, 3, 3), (0, 4, 13, -25, 13, 4, 3, 3), (0, 2, 14, -24, 14, 4, 3, 3),
        (0, 20, 46, -38, -8, 6, 5, 5), (0, 18, 47, -37, -7, 6, 5, 5), (0, 16, 48, -36, -6, 6, 5, 5),
        (0, 37, 28, -34, -28, 6, 5, 7), (0, 36, 29, -35, -27, 6, 5, 7), (0, 36, 32, -8, -41, 6, 5, 7),
        (-1, 28, 26, 48, 18, 6, 7, 5), (-1, 25, 25, 49, 21, 6, 7, 5), (-1, 35, 22, 46, 13, 6, 7, 5),
        (0, 8, -42, 42, -21, 6, 7, 7), (0, 6, -41, 43, -20, 6, 7, 7), (0, 4, -40, 44, -19, 6, 7, 7),
        (1, -32, -86, 52, -72, 8, 9, 9)]


def test_fibration_count_pi_mode_labeled():
    doc = parse_form_document(load("pi_n7.json"))
    res = fibration_count(doc.poly, doc.split, "pi", [2, 4, 8, 16])
    assert res.label == "sampling-lower-bound"
    # frozen rows, fibres and samples of the point search, capped at
    # min(B, 6) on a fibre of rank 5 and at min(B, 8) on one of rank < 5
    assert res.series.rows == [(2, 2), (4, 6), (8, 12), (16, 30)]
    assert res.Y_values == {2: 1, 4: 3, 8: 6, 16: 12}
    assert res.series.per_B_fibres == {2: 4, 4: 12, 8: 28, 16: 116}
    for B, Y in res.Y_values.items():
        assert res.series.per_B_fibres[B] == len(list(enumerate_admissible(res.spec, Y)))
    assert res.series.samples == [
        (0, 0, 0, 0, 0, -1, -1), (0, 0, 0, 0, 0, 1, 1), (-4, -1, -4, 2, -1, -1, -3),
        (-4, -4, -4, -4, -2, -1, 3), (-4, -4, -4, -4, -2, 1, -3), (-4, -1, -4, 2, -1, 1, 3),
        (-6, 1, -2, 1, -2, -3, -5), (-6, -4, -4, 4, 0, -1, -5), (-6, -1, -6, 5, 0, -1, -3),
        (-6, -6, -6, -2, -2, -1, 3), (-6, -6, -3, -3, -3, -1, 5), (-6, -6, -3, -3, -3, 1, -5),
        (-6, -6, -6, -2, -2, 1, -3), (-6, -1, -6, 5, 0, 1, 3), (-6, -4, -4, 4, 0, 1, 5),
        (-6, 1, -2, 1, -2, 3, 5)]
    for pt in res.series.samples:
        assert doc.poly.evaluate(list(pt)) == 0
        assert math.gcd(math.gcd(*pt[:5]), math.gcd(*pt[5:])) == 1


def test_fibration_count_pi_mode_never_exceeds_brute_force():
    doc = parse_form_document(load("pi_n7.json"))
    Bs = [1, 2, 3]
    res = fibration_count(doc.poly, doc.split, "pi", Bs)
    for (B, lower), (_, total) in zip(res.series.rows, brute_force_N(doc.poly, Bs).rows):
        assert lower <= total, f"lower bound {lower} > N({B}) = {total}"


def test_fibration_count_rejects_an_unknown_mode():
    doc = parse_form_document(load("pi_prime_n7.json"))
    with pytest.raises(ValueError, match="mode must be pi or pi_prime"):
        fibration_count(doc.poly, doc.split, "linear", [4])


def test_fibration_count_pi_prime_rejects_quadric_fibres():
    # pi_n7 + x0 y0^2 + x1 y1^2: the Q_j no longer all vanish, but the
    # fibres stay quadrics in x
    doc = parse_form_document(load("pi_n7.json"))
    C = doc.poly + IntPolynomial(7, {(1, 0, 0, 0, 0, 2, 0): 1, (0, 1, 0, 0, 0, 0, 2): 1})
    with pytest.raises(ValueError, match="nonzero x-quadratic part"):
        fibration_count(C, doc.split, "pi_prime", [2])


@pytest.mark.parametrize("name, mode, Bs", [
    ("pi_n7.json", "pi", [2, 4, 8, 16, 32]),
    ("pi_prime_n7.json", "pi_prime", list(range(1, 65))),
])
def test_fibration_count_samples_are_distinct_primitive_zeros(name, mode, Bs):
    """Each rung counts its first fibres again; a point is sampled once. On
    these ladders a resampled point used to fill 3 and 2 of the 16 places."""
    doc = parse_form_document(load(name))
    samples = fibration_count(doc.poly, doc.split, mode, Bs).series.samples
    assert len(set(samples)) == len(samples) == 16
    for pt in samples:
        assert doc.poly.evaluate(list(pt)) == 0 and math.gcd(*pt) == 1


def test_fibration_count_places_samples_by_the_split():
    # pi_prime_n7 with its y-block moved in front of the x-block
    doc = parse_form_document(load("pi_prime_n7.json"))
    order = (5, 6, 0, 1, 2, 3, 4)          # new variable i is old variable order[i]
    C = IntPolynomial(7, {tuple(e[j] for j in order): c for e, c in doc.poly.terms.items()})
    split = VariableSplit(7, (2, 3, 4, 5, 6), (0, 1))
    res = fibration_count(C, split, "pi_prime", [8, 16])
    ref = fibration_count(doc.poly, doc.split, "pi_prime", [8, 16])
    assert res.series.rows == ref.series.rows
    assert res.series.samples == [tuple(pt[j] for j in order) for pt in ref.series.samples]


def test_representation_count_sum_of_five_squares():
    # F = x1^2 + ... + x5^2, N = 25, xi = 0
    terms = {tuple(2 if i == j else 0 for i in range(5)): 1 for j in range(5)}
    F = QuadraticPolynomial.from_polynomial(IntPolynomial(5, terms))
    res = representation_count_coprime(F, [0] * 5, 25)
    # independent brute force over the box |x_i| <= 5
    from itertools import product
    from math import gcd

    brute = 0
    for x in product(range(-5, 6), repeat=5):
        if sum(v * v for v in x) == 25:
            g = 0
            for v in x:
                g = gcd(g, v)
            if gcd(g, 2) == 1:
                brute += 1
    assert res.count == brute
    assert res.inclusion_exclusion_ok
    # F(0) - 25 = -25 is odd, so the proposition's congruence premise fails
    # (the exact count is still well-defined); an even target satisfies it
    assert not res.precondition_ok
    assert representation_count_coprime(F, [0] * 5, 16).precondition_ok
    # N < 0: zero
    assert representation_count_coprime(F, [0] * 5, -7).count == 0


def test_representation_count_rejects_indefinite():
    terms = {(2, 0): 1, (0, 2): -1}
    F = QuadraticPolynomial.from_polynomial(IntPolynomial(2, terms))
    with pytest.raises(ValueError):
        representation_count_coprime(F, [0, 0], 4)


@pytest.mark.parametrize("two_q", [
    [[2, 0], [0, 0]],                      # x^2: positive semidefinite
    [[0, 0], [0, 2]],
    [[-2, 0], [0, 0]],                     # -x^2: negative semidefinite
    [[0]],
    [[2, 0], [0, -2]],                     # indefinite
    [[-2, 0], [0, 2]],
    [[0, 1], [1, 0]],                      # xy
    [[2, 3, 0], [3, 2, 0], [0, 0, 2]],
])
def test_representation_count_rejects_forms_that_are_not_definite(two_q):
    """Also for N < 0, which has no representation by a positive definite
    form: the definiteness check comes first."""
    F = QuadraticPolynomial(two_q, [0] * len(two_q), 0)
    for N in (4, -1):
        with pytest.raises(ValueError, match="F must be definite"):
            representation_count_coprime(F, [0] * len(two_q), N)


@st.composite
def definite_representation_problems(draw):
    """(2Q, B, N, xi, N_target) with 2Q = A^T A + e I, each odd
    diagonal entry raised by 1, so 2Q is positive definite with an even
    diagonal and may have odd off-diagonal entries."""
    m = draw(st.integers(1, 4))
    A = [[draw(st.integers(-2, 2)) for _ in range(m)] for _ in range(m)]
    e = draw(st.integers(1, 2))
    S = [[sum(A[r][i] * A[r][j] for r in range(m)) + (e if i == j else 0) for j in range(m)]
         for i in range(m)]
    two_q = [[v + (i == j and v % 2) for j, v in enumerate(row)] for i, row in enumerate(S)]
    B = [draw(st.integers(-2, 2)) for _ in range(m)]
    xi = [draw(st.integers(-2, 2)) for _ in range(m)]
    return two_q, B, draw(st.integers(-3, 3)), xi, draw(st.integers(-1, 16))


def brute_representation(two_q, B, N, xi, N_target):
    """(count, by_divisor) by a scan of the box |x|_inf <= isqrt(N)."""
    from itertools import product
    from math import gcd, isqrt

    from cubefib.linalg import int_matrix_det
    from cubefib.nt import squarefree_divisors

    m = len(two_q)
    disc = abs(int_matrix_det(two_q))
    R = isqrt(N_target) if N_target > 0 else 1
    count, by_divisor = 0, {d: 0 for d, _ in squarefree_divisors(2 * disc)}
    for x in product(range(-R, R + 1), repeat=m):
        z = [a + b for a, b in zip(x, xi)]
        two_f = sum(z[i] * two_q[i][j] * z[j] for i in range(m) for j in range(m))
        if two_f + 2 * sum(b * v for b, v in zip(B, z)) + 2 * N != 2 * N_target:
            continue
        count += gcd(*x, 2 * disc) == 1
        for d in by_divisor:
            by_divisor[d] += all(v % d == 0 for v in x)
    return count, by_divisor


@settings(max_examples=120, deadline=None)
@given(definite_representation_problems())
def test_representation_count_matches_a_box_scan(problem):
    """Positive- and negative-definite forms, with a shift xi, against a
    scan of the whole box."""
    two_q, B, N, xi, N_target = problem
    count, by_divisor = brute_representation(*problem)
    if N_target < 0:
        count, by_divisor = 0, {}
    pos = representation_count_coprime(QuadraticPolynomial(two_q, B, N), xi, N_target)
    neg = representation_count_coprime(
        QuadraticPolynomial([[-v for v in row] for row in two_q], [-b for b in B], -N),
        xi, -N_target)
    for res in (pos, neg):
        assert (res.count, res.by_divisor) == (count, by_divisor)
        assert res.inclusion_exclusion_ok


def test_representation_count_with_roots_past_int64():
    """F = x^2 at N = 2^140 has the roots +-2^70, which the kernel returns
    as Python integers; the count is done by hand. With xi = 0 both roots
    are even (gcd(x, 4) = 4); with xi = 1, x = 2^70 - 1 is odd and in the
    box |x| <= 2^70, and x = -2^70 - 1 is outside it."""
    F = QuadraticPolynomial([[2]], [0], 0)
    res = representation_count_coprime(F, [0], 2 ** 140)
    assert (res.count, res.by_divisor, res.precondition_ok) == (0, {1: 2, 2: 2}, True)
    res = representation_count_coprime(F, [1], 2 ** 140)
    assert (res.count, res.by_divisor, res.precondition_ok) == (1, {1: 1, 2: 0}, False)
    assert res.inclusion_exclusion_ok and type(res.count) is int
    # |z - (0, 0, 0, 2^70)|^2 = 1 with xi at the centre: the eight unit
    # vectors, all with gcd(x, 32) = 1
    two_q = [[2 * (i == j) for j in range(4)] for i in range(4)]
    F = QuadraticPolynomial(two_q, [0, 0, 0, -2 ** 71], 2 ** 140)
    res = representation_count_coprime(F, [0, 0, 0, 2 ** 70], 1)
    assert (res.count, res.by_divisor) == (8, {1: 8, 2: 0}) and res.inclusion_exclusion_ok


def test_representation_growth_trend():
    terms = {tuple(2 if i == j else 0 for i in range(5)): 1 for j in range(5)}
    F = QuadraticPolynomial.from_polynomial(IntPolynomial(5, terms))
    ratios = []
    for P in (10, 20, 40):
        res = representation_count_coprime(F, [0] * 5, P * P)
        ratios.append(res.count / P ** 3)
    lo, hi = min(ratios), max(ratios)
    assert hi / lo < 2.0  # M(F, P^2) / P^(r-2) roughly constant


def test_fit_exponent_synthetic():
    rows = [(B, B * B) for B in (4, 8, 16, 32, 64)]
    fit = fit_exponent(CountSeries(rows, "synthetic"))
    assert abs(fit.slope - 2.0) < 1e-6

    rows = [(B, int(round(3 * B ** 2.5))) for B in (8, 16, 32, 64, 128, 256)]
    fit = fit_exponent(CountSeries(rows, "synthetic"))
    assert abs(fit.slope - 2.5) < 1e-3

    verdict = compare_fit(fit, 2.9, slack=0.5)
    assert verdict.passed
    verdict = compare_fit(fit, 3.1, slack=0.5)
    assert not verdict.passed


def test_fit_requires_four_points():
    with pytest.raises(ValueError):
        fit_exponent(CountSeries([(2, 4), (4, 16), (8, 64)], "synthetic"))


def test_report_deterministic():
    config = {"command": "x", "B": 7}
    r1 = build_report(config, {"a": [1, 2, Fraction(1, 3)]})
    r2 = build_report(dict(config), {"a": [1, 2, Fraction(1, 3)]})
    assert report_to_json(r1) == report_to_json(r2)
    assert r1["config_hash"] == config_hash(config)
    parsed = json.loads(report_to_json(r1))
    assert parsed["schema"] == "cubefib-report-v1"


@pytest.mark.parametrize("value", [object(), IntPolynomial(1, {(1,): 2}), {1, 2}])
def test_reports_refuse_values_that_are_not_json_or_fractions(value):
    """Only a Fraction has a report form of its own; any other object raises
    instead of being written as its str()."""
    with pytest.raises(TypeError, match="a report holds no"):
        report_to_json(build_report({}, {"x": value}))


def test_empty_report_valid():
    r = build_report({}, {})
    parsed = json.loads(report_to_json(r))
    assert parsed["sections"] == {}
