import os
from fractions import Fraction
from itertools import product
from math import ceil, floor

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cubefib import sieve
from cubefib.driver import parse_form_document
from cubefib.fibration import fibre_polynomial, linear_fibre_parts, split_cubic
from cubefib.finitefield import PadicWitness
from cubefib.gridcount import BudgetExceeded, box_point_count
from cubefib.linalg import QuadraticPolynomial
from cubefib.nt import solve_linear_diophantine
from cubefib.polynomials import IntPolynomial, VariableSplit
from cubefib.sieve import (
    AdmissibleSetSpec,
    LocalConditionSet,
    box_with_large_Q,
    build_conditions,
    density_estimate,
    enumerate_admissible,
    membership,
)

X = IntPolynomial.variable


def _pi_prime_form(q_polys, R, k):
    """Assemble C = sum x_i Q_i(y) + R(y) with x-block first."""
    ydim = R.num_vars
    n = k + ydim
    terms = {}
    for i, q in enumerate(q_polys):
        for e, c in q.terms.items():
            key = tuple([1 if t == i else 0 for t in range(k)] + list(e))
            terms[key] = terms.get(key, 0) + c
    for e, c in R.terms.items():
        key = tuple([0] * k + list(e))
        terms[key] = terms.get(key, 0) + c
    return IntPolynomial(n, terms), VariableSplit(n, tuple(range(k)), tuple(range(k, n)))


def sample_pi_prime():
    # n = 7: five linear x's, two y's
    ydim = 2
    y1, y2 = X(ydim, 0), X(ydim, 1)
    qs = [y1 * y1, y2 * y2, y1 * y2 + y2 * y2, y1 * y1 + y2 * y2, y1 * y2]
    R = y1 ** 3 + y2 ** 3
    return _pi_prime_form(qs, R, 5)


def unconditional_spec(k):
    cond = LocalConditionSet({}, [], tuple(range(k)))
    return AdmissibleSetSpec(k, [(Fraction(-1), Fraction(1))] * k, cond)


def test_build_conditions_pi_prime():
    C, sp = sample_pi_prime()
    cond = build_conditions(C, sp, "pi_prime")
    assert cond.insoluble_at is None
    assert set(cond.bad_primes) == {2}
    witness = cond.bad_primes[2]
    assert witness.index in sp.x_indices and witness.verify(C)
    assert len(cond.good_polys) == 5


def test_build_conditions_requires_blocks():
    y1 = X(1, 0)
    C, sp = _pi_prime_form([y1 * y1] * 5, y1 ** 3, 5)
    with pytest.raises(ValueError, match="n-k >= 2"):
        build_conditions(C, sp, "pi_prime")


def test_build_conditions_pi_prime_rejects_quadric_fibres():
    # pi_n7 + x0 y0^2 + x1 y1^2: the Q_j no longer all vanish, but the
    # fibres stay quadrics in x, as in driver.fibration_count
    path = os.path.join(os.path.dirname(__file__), "..", "forms", "pi_n7.json")
    with open(path) as f:
        doc = parse_form_document(f.read())
    C = doc.poly + IntPolynomial(7, {(1, 0, 0, 0, 0, 2, 0): 1, (0, 1, 0, 0, 0, 0, 2): 1})
    with pytest.raises(ValueError, match="nonzero x-quadratic part"):
        build_conditions(C, doc.split, "pi_prime")


def test_membership_reason_traces():
    spec = unconditional_spec(2)
    assert membership((5, 0), spec, 4).reason == "box"
    assert membership((1, 1), spec, 4).member

    # good polynomials y1, y2 with no bad prime: a point fails at every
    # common prime factor of its coordinates
    cond = LocalConditionSet({}, [X(2, 0), X(2, 1)], (0, 1))
    spec2 = AdmissibleSetSpec(2, [(Fraction(-1), Fraction(1))] * 2, cond)
    assert membership((3, 6), spec2, 8).reason == "good prime 3 divides all predicate values"
    assert membership((0, 0), spec2, 8).reason == (
        "good-prime predicate fails at every prime (all values zero)")
    assert membership((2, 3), spec2, 8).member

    spec3 = AdmissibleSetSpec(2, spec2.box, cond, good_primes_only=(5,))
    assert membership((3, 6), spec3, 8).member
    assert membership((5, -5), spec3, 8).reason == "good prime 5 kills all predicate values"


def test_density_no_conditions_2k():
    for k in (1, 2):
        spec = unconditional_spec(k)
        est = density_estimate(spec, [10, 20, 40])
        for Y, count, dens, _ in est.rows:
            assert count == (2 * Y + 1) ** k
        # converges to 2^k from above
        final = est.rows[-1][2]
        assert abs(final - 2 ** k) <= Fraction(5, est.rows[-1][0])


def test_density_single_prime_condition():
    # k = 1, condition y != 0 mod 3: density -> 2 * (2/3) = 4/3
    cond = LocalConditionSet({}, [X(1, 0)], (0,))
    spec = AdmissibleSetSpec(1, [(Fraction(-1), Fraction(1))], cond,
                             good_primes_only=(3,))
    est = density_estimate(spec, [30, 60, 120])
    for Y, count, dens, _ in est.rows:
        assert abs(dens - Fraction(4, 3)) <= Fraction(2, Y)
    # Cauchy monitor: successive differences shrink
    deltas = [row[3] for row in est.rows[1:]]
    assert deltas[-1] <= deltas[0]


def test_enumerate_admissible_pi_prime_end_to_end():
    C, sp = sample_pi_prime()
    cond = build_conditions(C, sp, "pi_prime")
    spec = AdmissibleSetSpec(2, [(Fraction(-1), Fraction(1))] * 2, cond)
    found = list(enumerate_admissible(spec, 12))
    assert found
    # admissibility guarantees a soluble fibre: an explicit point
    q_list, R = linear_fibre_parts(C, sp)
    for y in found:
        x = solve_linear_diophantine([q.evaluate(y) for q in q_list], -R.evaluate(y))
        assert x is not None and C.evaluate(list(x) + list(y)) == 0
        # and the admissibility certificate re-verifies
        assert membership(y, spec, 12).member


def test_box_with_large_Q_square():
    q = X(2, 0) * X(2, 0)  # y1^2
    box = box_with_large_Q(q, P=50)
    assert box.intervals[0] == (Fraction(1), Fraction(2))
    assert box.intervals[1] == (Fraction(-1), Fraction(1))
    assert box.c_frozen >= 1


def test_box_with_large_Q_indefinite():
    y1, y2 = X(2, 0), X(2, 1)
    q = y1 * y1 - y2 * y2
    box = box_with_large_Q(q, P=100)
    assert box.c_frozen > 0


@pytest.mark.parametrize("form, first_q, change, intervals, c_frozen, samples", [
    ("pi_prime_n7", {(2, 0): 4, (0, 2): 4}, [[1, 0], [0, 1]],
     [(Fraction(1, 2), 1), (Fraction(1, 2), 1)], 2, 16),
    ("pi_prime_n8", {(2, 0, 0): 100, (0, 2, 0): 100, (0, 0, 2): 100},
     [[1, 0, 0], [0, 1, 0], [0, 0, 1]], [(Fraction(1, 10), Fraction(1, 5))] * 3, 3, 64),
    (None, {(1, 1, 0): 1, (0, 2, 0): 3, (1, 0, 1): -2, (0, 0, 2): 5},
     [[0, 1, -12], [1, Fraction(-1, 6), 2], [0, 0, 1]],
     [(Fraction(37, 64), Fraction(591, 512)), (Fraction(1, 2), 1),
      (Fraction(249, 1024), Fraction(31, 64))], Fraction(239, 120), 64),
    (None, {(2, 0): 3, (1, 1): 5, (0, 2): -7}, [[1, Fraction(-5, 6)], [0, 1]],
     [(Fraction(37, 64), Fraction(591, 512)), (Fraction(61, 1024), Fraction(15, 128))],
     Fraction(1497, 1600), 16),
])
def test_box_with_large_Q_is_frozen(form, first_q, change, intervals, c_frozen, samples):
    """The first nonzero Q_j of each shipped linear-fibre form, and two
    quadratics with cross terms (a zero first diagonal entry in one), frozen
    from the diagonalisation of the Fraction matrix Q: diagonalising the
    integer 2Q keeps T and, once halved, every diagonal entry."""
    q = IntPolynomial(len(next(iter(first_q))), first_q)
    if form is not None:
        with open(os.path.join(os.path.dirname(__file__), "..", "forms", form + ".json")) as f:
            doc = parse_form_document(f.read())
        _, q_list, _ = split_cubic(doc.poly, doc.split)
        assert next(g for g in q_list if not g.is_zero()) == q
    box = box_with_large_Q(q, P=100)
    assert box.change == change and box.intervals == intervals
    assert all(type(v) is Fraction for row in box.change for v in row)
    assert type(box.c_frozen) is Fraction and box.c_frozen == c_frozen
    assert box.samples_checked == samples


def test_box_with_large_Q_hyperbolic():
    y1, y2 = X(2, 0), X(2, 1)
    q = y1 * y2
    box = box_with_large_Q(q, P=100)
    assert box.c_frozen > 0


# ---------------------------------------------------------------------------
# the box test under a rational change y = T z, against a Fraction reference


def _solve(T, y):
    """z with T z = y, by Fraction Gauss-Jordan elimination (T invertible)."""
    k = len(T)
    m = [[Fraction(v) for v in row] + [Fraction(yi)] for row, yi in zip(T, y)]
    for col in range(k):
        piv = next(r for r in range(col, k) if m[r][col])
        m[col], m[piv] = m[piv], m[col]
        m[col] = [v / m[col][col] for v in m[col]]
        for r in range(k):
            if r != col and m[r][col]:
                m[r] = [a - m[r][col] * b for a, b in zip(m[r], m[col])]
    return [row[k] for row in m]


def _in_changed_box(T, box, Y, y):
    return all(lo * Y <= z <= hi * Y for z, (lo, hi) in zip(_solve(T, y), box))


def _det(T):
    if len(T) == 1:
        return T[0][0]
    return sum((-1) ** j * T[0][j] * _det([row[:j] + row[j + 1:] for row in T[1:]])
               for j in range(len(T)))


fractions = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))


@st.composite
def changed_boxes(draw, k_max=3):
    """(T, box_change, box, Y, points): invertible rational T, the spec's
    box_change (T, or None for a plain box, where T = I), a rational box and
    integer points y, some of them put exactly on a box face."""
    k = draw(st.integers(1, k_max))
    if draw(st.booleans()):
        T = [[Fraction(int(i == j)) for j in range(k)] for i in range(k)]
        change = None
    else:
        T = [[draw(fractions) for _ in range(k)] for _ in range(k)]
        assume(_det(T) != 0)
        change = T
    Y = draw(st.integers(1, 4))
    box = []
    for _ in range(k):
        lo, hi = sorted((draw(fractions), draw(fractions)))
        box.append([lo, hi])
    points = [tuple(draw(st.lists(st.integers(-12, 12), min_size=k, max_size=k)))
              for _ in range(draw(st.integers(1, 6)))]
    for y in points[:2]:
        # move one face of the box onto y
        i = draw(st.integers(0, k - 1))
        face = _solve(T, y)[i] / Y
        if draw(st.booleans()):
            box[i] = [face, max(face, box[i][1])]
        else:
            box[i] = [min(face, box[i][0]), face]
    return T, change, [tuple(b) for b in box], Y, points


def _changed_box_spec(change, box):
    k = len(box)
    cond = LocalConditionSet({}, [], tuple(range(k)))
    return AdmissibleSetSpec(k, list(box), cond, box_change=change)


@settings(max_examples=200, deadline=None)
@given(changed_boxes())
def test_membership_box_change_matches_fraction_reference(case):
    T, change, box, Y, points = case
    spec = _changed_box_spec(change, box)
    for y in points:
        res = membership(y, spec, Y)
        assert res.member == _in_changed_box(T, box, Y, y)
        assert res.reason == ("" if res.member else "box")


@settings(max_examples=60, deadline=None)
@given(changed_boxes(k_max=2))
def test_enumerate_admissible_box_change_is_the_filtered_bounding_box(case):
    T, change, box, Y, _ = case
    # the changed box is convex, so it lies in the bounding box of its corners
    corners = [[sum(t * v * Y for t, v in zip(row, z)) for row in T] for z in product(*box)]
    ranges = [range(int(min(c)) - 1, int(max(c)) + 2) for c in zip(*corners)]
    spec = _changed_box_spec(change, box)
    expected = [y for y in product(*ranges) if _in_changed_box(T, box, Y, y)]
    assert list(enumerate_admissible(spec, Y)) == expected


@pytest.mark.parametrize("change", [None, [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]])
def test_enumerate_admissible_empty_interval_charges_nothing(change):
    # lo > hi in one coordinate: no point is admissible, so none is paid for
    spec = _changed_box_spec(change, [(Fraction(1), Fraction(-1)), (Fraction(-1), Fraction(1))])
    assert list(enumerate_admissible(spec, 5, budget=3)) == []


@st.composite
def congruence_specs(draw):
    """(T, spec, Y): a `changed_boxes` box with one or two bad primes from
    {2, 3, 5} at v = 1 or 2, random witness residues (the y-part after one
    x-coordinate, not reduced), and no good polynomial or one small one."""
    T, change, box, Y, _ = draw(changed_boxes(k_max=2))
    k = len(box)
    bad = {}
    for p in draw(st.lists(st.sampled_from([2, 3, 5]), min_size=1, max_size=2, unique=True)):
        v = draw(st.integers(1, 2))
        q = p ** (2 * v - 1)
        bad[p] = PadicWitness(p, v, tuple(draw(st.integers(-q, 2 * q)) for _ in range(k + 1)), 0)
    good = []
    if draw(st.booleans()):
        terms = {}
        for _ in range(draw(st.integers(1, 3))):
            e = [0] * k
            for _ in range(draw(st.integers(0, 2))):
                e[draw(st.integers(0, k - 1))] += 1
            terms[tuple(e)] = draw(st.integers(-6, 6))
        good = [IntPolynomial(k, terms)]
    cond = LocalConditionSet(bad, good, tuple(range(1, k + 1)))
    return T, AdmissibleSetSpec(k, list(box), cond, box_change=change), Y


@settings(max_examples=150, deadline=None)
@given(congruence_specs())
def test_enumerate_admissible_class_walk_is_the_filtered_bounding_box(case):
    T, spec, Y = case
    corners = [[sum(t * v * Y for t, v in zip(row, z)) for row in T] for z in product(*spec.box)]
    axes = list(zip(*corners))
    lows, highs = [ceil(min(c)) for c in axes], [floor(max(c)) for c in axes]
    count = box_point_count(lows, highs)
    expected = [y for y in product(*(range(lo, hi + 1) for lo, hi in zip(lows, highs)))
                if membership(y, spec, Y).member]
    assert list(enumerate_admissible(spec, Y, budget=count)) == expected
    # the charge is the whole bounding box, not the points of the class
    if count:
        with pytest.raises(BudgetExceeded):
            list(enumerate_admissible(spec, Y, budget=count - 1))


def test_enumerate_admissible_joins_two_bad_primes_by_crt():
    # y odd, and y = 7 resp. 20 mod 27 (v = 2 at p = 3): y = 7 resp. 47 mod 54
    bad = {2: PadicWitness(2, 1, (0, 1, 1), 0), 3: PadicWitness(3, 2, (0, 7, 47), 0)}
    cond = LocalConditionSet(bad, [], (1, 2))
    spec = AdmissibleSetSpec(2, [(Fraction(-1), Fraction(1))] * 2, cond)
    assert spec.plan()[3:] == ((54, 54), (7, 47))
    assert list(enumerate_admissible(spec, 60)) == list(product([-47, 7], [-7, 47]))
    # Y < 0 passes the empty-interval test only on a one-point box
    point = AdmissibleSetSpec(2, [(Fraction(47), Fraction(47)), (Fraction(7), Fraction(7))], cond)
    assert list(enumerate_admissible(point, -1)) == [(-47, -7)]


def test_enumerate_admissible_insoluble_spec_yields_nothing():
    # as driver.fibration_count builds it: no bad prime, so the class is
    # the plain box (modulus 1), and empty intervals that charge nothing
    cond = LocalConditionSet({}, [X(2, 0)], (0, 1), insoluble_at=3)
    spec = AdmissibleSetSpec(2, [(Fraction(1), Fraction(-1))] * 2, cond)
    assert spec.plan()[3:] == ((1, 1), (0, 0))
    assert list(enumerate_admissible(spec, 7, budget=0)) == []


@pytest.mark.parametrize("form, mode, counts", [
    ("pi_prime_n8", "pi_prime", {3: 44, 5: 172, 7: 428, 9: 844, 11: 1516, 12: 1772}),
    ("pi_n7", "pi", {8: 52, 12: 116, 36: 1028, 46: 1692, 56: 2540, 57: 2684}),
])
def test_density_rows_of_the_shipped_forms_are_frozen(form, mode, counts):
    """The unit-box density rows of the two benchmark specs."""
    with open(os.path.join(os.path.dirname(__file__), "..", "forms", form + ".json")) as f:
        doc = parse_form_document(f.read())
    k = len(doc.split.y_indices)
    spec = AdmissibleSetSpec(k, [(Fraction(-1), Fraction(1))] * k,
                             build_conditions(doc.poly, doc.split, mode))
    rows = density_estimate(spec, list(counts)).rows
    assert [(Y, c) for Y, c, _, _ in rows] == list(counts.items())
    dens = [Fraction(c, Y ** k) for Y, c in counts.items()]
    assert [r[2] for r in rows] == dens
    assert [r[3] for r in rows] == [None] + [abs(b - a) for a, b in zip(dens, dens[1:])]


def test_spec_rejects_a_box_of_the_wrong_length():
    cond = LocalConditionSet({}, [], (0, 1))
    for box in ([], [(Fraction(-1), Fraction(1))] * 3):
        with pytest.raises(ValueError, match="expected k = 2"):
            AdmissibleSetSpec(2, box, cond)


def _first_zero_reference(f, bound):
    return next((x for x in product(range(-bound, bound + 1), repeat=f.num_vars)
                 if f.evaluate(list(x)) == 0), None)


@st.composite
def small_polynomials(draw):
    m = draw(st.integers(1, 4))
    terms = {}
    for _ in range(draw(st.integers(0, 5))):
        e = [0] * m
        for _ in range(draw(st.integers(0, 2))):
            e[draw(st.integers(0, m - 1))] += 1
        terms[tuple(e)] = draw(st.integers(-9, 9))
    return IntPolynomial(m, terms)


@settings(max_examples=150, deadline=None)
@given(small_polynomials(), st.integers(0, 5))
def test_search_integer_point_is_the_first_lexicographic_zero(f, bound):
    assert sieve._search_integer_point(f, bound) == _first_zero_reference(f, bound)


def test_search_integer_point_none_without_zero_or_above_the_cap():
    x, y = X(2, 0), X(2, 1)
    one = IntPolynomial.constant(2, 1)
    assert sieve._search_integer_point(x * x + y * y + one, 4) is None
    # x^2 - 2 has no integer zero, and a zero at the box corner is found
    assert sieve._search_integer_point(x * x - one * 2, 5) is None
    assert sieve._search_integer_point(x + y + one * 6, 3) == (-3, -3)
    # 11^6 > 10^6 points: no search, although x0 = 0 is a zero
    big = X(6, 0)
    assert sieve._search_integer_point(big, 5) is None
    assert sieve._search_integer_point(big, 4) == (0, -4, -4, -4, -4, -4)


@st.composite
def _rank_r_fibres(draw):
    """(F_y, r, bound): the fibre over y of a random split cubic
    C = y_1 F(x) + sum_j x_j q_j(y) + R(y) in m <= 5 x-variables and h = 1
    or 2 y-variables, with y_1 != 0 and F = sum_{k < r} a_k L_k(x)^2 for
    nonzero a_k and L_k = x_k + (a combination of later x), so that the
    fibre's quadric y_1 F has rank exactly r; a bound in 0..8."""
    r = draw(st.integers(0, 5))
    m = r if r >= 4 else draw(st.integers(max(r, 1), r + 1))
    h = draw(st.integers(1, 2))
    n = m + h
    xs, ys = [X(n, i) for i in range(m)], [X(n, m + j) for j in range(h)]
    small = st.integers(-3, 3)
    F = IntPolynomial.zero(n)
    for k in range(r):
        L = xs[k]
        for l in range(k + 1, m):
            L = L + xs[l] * draw(small)
        F = F + L * L * draw(small.filter(bool))
    C = ys[0] * F
    for x in xs:
        for a in range(h):
            for b in range(a, h):
                C = C + x * ys[a] * ys[b] * draw(small)
    for e in product(range(h), repeat=3):
        if list(e) == sorted(e):
            C = C + ys[e[0]] * ys[e[1]] * ys[e[2]] * draw(st.integers(-9, 9))
    split = VariableSplit(n, tuple(range(m)), tuple(range(m, n)))
    y = [draw(small.filter(bool))] + [draw(small) for _ in range(h - 1)]
    return fibre_polynomial(*split_cubic(C, split), y), r, draw(st.integers(0, 8))


def _fibre_point_reference(f, r, bound):
    """The first zero in [-w, w]^m for the largest w <= min(bound, 6) whose
    box has at most 10^6 points; failing that, for bound > 6 and rank r < 5,
    the first in [-w, w]^m for the largest w <= bound whose box has at most
    10^6 points."""
    def fits(b):
        return (2 * b + 1) ** f.num_vars <= 10 ** 6
    pt = _first_zero_reference(f, max(filter(fits, range(min(bound, 6) + 1))))
    if pt is None and bound > 6 and r < 5:
        pt = _first_zero_reference(f, max(filter(fits, range(bound + 1))))
    return pt


def _seven_fibre(m, r):
    """The fibre over y = 1 of y (x_0^2 + 50 (x_1^2 + ... + x_{r-1}^2)) - 49 y^3
    in m x-variables: rank r, and its zeros have x_0 = +-7, x_1..x_{r-1} = 0."""
    n = m + 1
    y = X(n, m)
    F = X(n, 0) * X(n, 0)
    for k in range(1, r):
        F = F + X(n, k) * X(n, k) * 50
    C = y * F - y * y * y * 49
    return fibre_polynomial(*split_cubic(C, VariableSplit(n, tuple(range(m)), (m,))), [1])


@settings(max_examples=40, deadline=None)
@given(_rank_r_fibres())
# zeros only at x_0 = +-7: none within bound 6; within 7 and 8 the rank-4
# fibres are searched again and the rank-5 one is not; in five variables
# the search widens to 7 at most (15^5 <= 10^6 < 17^5)
@example((_seven_fibre(4, 4), 4, 6))
@example((_seven_fibre(4, 4), 4, 7))
@example((_seven_fibre(4, 4), 4, 8))
@example((_seven_fibre(5, 4), 4, 8))
@example((_seven_fibre(5, 5), 5, 7))
def test_quadric_fibre_point_is_the_capped_first_zero(case):
    f, r, bound = case
    assert QuadraticPolynomial.from_polynomial(f).rank_support()[0] == r
    assert sieve.quadric_fibre_point(f, bound) == _fibre_point_reference(f, r, bound)


def test_quadric_fibre_point_widening_is_monotone():
    """x_0^2 + 50 (x_1^2 + x_2^2 + x_3^2) - 49 in five variables has rank 4:
    past bound 6 the search widens to the widest box of at most 10^6
    points, so a larger bound never loses the zero a smaller one finds."""
    f = _seven_fibre(5, 4)
    found = [sieve.quadric_fibre_point(f, bound) for bound in (6, 7, 8, 9, 40)]
    assert found == [None] + [(-7, 0, 0, 0, -7)] * 4


def test_quadric_fibre_point_in_six_variables_at_every_bound():
    """In six variables the first search is capped at width 4 (9^6 <= 10^6
    < 11^6), so bounds 5 to 8 find the zero that bound 4 finds, on a rank-6
    and on a rank-1 fibre."""
    xs = [X(6, i) for i in range(6)]
    one = IntPolynomial.constant(6, 1)
    sphere = xs[0] * xs[0] + xs[1] * xs[1] + xs[2] * xs[2] + xs[3] * xs[3] + xs[4] * xs[4] \
        + xs[5] * xs[5] - one
    for f, pt in ((sphere, (-1, 0, 0, 0, 0, 0)), (xs[0] * xs[0] - one, (-1, -4, -4, -4, -4, -4))):
        assert [sieve.quadric_fibre_point(f, bound) for bound in range(4, 9)] == [pt] * 5
