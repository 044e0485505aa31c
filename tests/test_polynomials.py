import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubefib.linalg import bareiss, int_matrix_det
from cubefib.polynomials import IntPolynomial, VariableSplit
from cubefib.sieve import AdmissibleSetSpec, LocalConditionSet


def P(num_vars, terms):
    return IntPolynomial(num_vars, terms)


def random_poly(rng, num_vars, max_deg=3, max_terms=6, coef_bound=9):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        exps = [0] * num_vars
        for _ in range(rng.randint(0, max_deg)):
            exps[rng.randrange(num_vars)] += 1
        terms[tuple(exps)] = rng.randint(-coef_bound, coef_bound)
    return IntPolynomial(num_vars, terms)


def test_evaluate_hand_values():
    # x1^3 - x2^3 at (2, 2)
    p = P(2, {(3, 0): 1, (0, 3): -1})
    assert p.evaluate([2, 2]) == 0
    # x1 x2 x3 at (1, 2, 3)
    p = P(3, {(1, 1, 1): 1})
    assert p.evaluate([1, 2, 3]) == 6
    # x1^2 x2 + 5 at (3, 4): hand arithmetic gives 9*4 + 5 = 41
    p = P(2, {(2, 1): 1, (0, 0): 5})
    assert p.evaluate([3, 4]) == 41


def test_evaluate_dimension_mismatch():
    p = P(2, {(1, 0): 1})
    with pytest.raises(ValueError):
        p.evaluate([1, 2, 3])


def test_zero_coefficients_dropped():
    p = P(2, {(1, 0): 0, (0, 1): 2})
    assert (1, 0) not in p.terms
    q = P(2, {(1, 0): 3}) + P(2, {(1, 0): -3})
    assert q.is_zero()


def test_gradient():
    p = P(1, {(2,): 1})
    assert p.gradient() == [P(1, {(1,): 2})]
    p = P(2, {(1, 1): 1})
    assert p.gradient() == [P(2, {(0, 1): 1}), P(2, {(1, 0): 1})]
    p = P(2, {(3, 0): 1, (0, 3): 1})
    g = p.gradient()
    assert [gi.evaluate([1, -1]) for gi in g] == [3, 3]


def test_evaluate_is_ring_homomorphism():
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randint(1, 4)
        p = random_poly(rng, n)
        q = random_poly(rng, n)
        v = [rng.randint(-5, 5) for _ in range(n)]
        assert (p + q).evaluate(v) == p.evaluate(v) + q.evaluate(v)
        assert (p * q).evaluate(v) == p.evaluate(v) * q.evaluate(v)


def test_evaluate_mod_matches_exact():
    rng = random.Random(11)
    for _ in range(30):
        n = rng.randint(1, 3)
        p = random_poly(rng, n)
        v = [rng.randint(0, 20) for _ in range(n)]
        for q in (3, 7, 25, 64):
            assert p.evaluate_mod(v, q) == p.evaluate(v) % q


def images_of(mat):
    """The linear forms (T x)_i, the images of the substitution x -> T x."""
    return [IntPolynomial.linear_form(row) for row in mat]


def random_nonsingular(rng, n):
    while True:
        mat = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        if int_matrix_det(mat):
            return mat


def test_substitute_identity():
    rng = random.Random(3)
    p = random_poly(rng, 3)
    assert p.substitute_polys(images_of([[int(i == j) for j in range(3)] for i in range(3)])) == p


def test_substitute_hand_example():
    # x1 x2 under (x1, x2) -> (u + v, u - v) becomes u^2 - v^2
    p = P(2, {(1, 1): 1})
    assert p.substitute_polys(images_of([[1, 1], [1, -1]])) == P(2, {(2, 0): 1, (0, 2): -1})


def test_substitute_round_trip_scalar_multiple():
    # p(T adj(T) x) = p(det(T) x) = det(T)^deg p(x) for a form p of degree deg
    rng = random.Random(5)
    for _ in range(20):
        n = rng.randint(2, 4)
        deg = rng.randint(1, 3)
        p = random_poly(rng, n, max_deg=deg)
        p = P(n, {e: c for e, c in p.terms.items() if sum(e) == deg})
        if p.is_zero():
            continue
        mat = random_nonsingular(rng, n)
        e = bareiss(mat, adjugate=True)
        back = p.substitute_polys(images_of(mat)).substitute_polys(images_of(e.adjugate))
        assert back == p * e.det ** deg


def test_substitute_singular_rejected():
    """A singular change of variables has no inverse: the admissible-set
    plan refuses a singular box change."""
    spec = AdmissibleSetSpec(2, [(Fraction(-1), Fraction(1))] * 2, LocalConditionSet({}, [], (0, 1)),
                             box_change=[[Fraction(1), Fraction(1)], [Fraction(1), Fraction(1)]])
    with pytest.raises(ValueError, match="singular box change"):
        spec.plan()


def test_chain_rule_symbolically():
    # grad(p o T) = T^t (grad p) o T as a polynomial identity
    rng = random.Random(13)
    for _ in range(10):
        n = rng.randint(2, 3)
        p = random_poly(rng, n)
        mat = random_nonsingular(rng, n)
        lhs = [p.substitute_polys(images_of(mat)).derivative(j) for j in range(n)]
        grad_at_T = [g.substitute_polys(images_of(mat)) for g in p.gradient()]
        rhs = [
            sum((grad_at_T[i] * mat[i][j] for i in range(n)), IntPolynomial.zero(n))
            for j in range(n)
        ]
        assert lhs == rhs


def test_text_round_trip():
    """to_text writes one "coef e1 ... ek" line per term, and the polynomial
    rebuilt from those lines is the same one."""
    rng = random.Random(17)
    for _ in range(20):
        p = random_poly(rng, 3)
        rows = [[int(v) for v in line.split()] for line in p.to_text().splitlines()]
        assert len(rows) == len(p.terms) and all(len(row) == 4 for row in rows)
        q = P(3, {tuple(row[1:]): row[0] for row in rows})
        assert p == q
        assert q.to_text() == p.to_text()


def test_grlex_order_deterministic():
    p = P(2, {(1, 1): 3, (2, 0): 1, (0, 0): 7, (0, 2): 2})
    lines = p.to_text().splitlines()
    assert lines == ["1 2 0", "3 1 1", "2 0 2", "7 0 0"]


def test_variable_split_validation():
    s = VariableSplit(4, (0, 1), (2, 3))
    assert s.x_indices == (0, 1)
    with pytest.raises(ValueError):
        VariableSplit(4, (0, 1), (2,))
    with pytest.raises(ValueError):
        s.validate_against(P(3, {(1, 1, 1): 1}))
    s.validate_against(P(4, {(2, 0, 1, 0): 1}))  # x0^2 x2


def test_degrees_and_homogeneity():
    p = P(2, {(2, 1): 1, (1, 0): 4, (0, 0): -2})
    assert p.total_degree() == 3
    assert p.block_degree([1]) == 1
    assert not p.is_homogeneous()
    assert P(2, {(2, 1): 1, (0, 3): -5}).is_homogeneous(3)
    assert not P(2, {(2, 1): 1}).is_homogeneous(2)


def _polys(n, max_deg, max_terms):
    """Random polynomials in n variables of degree <= max_deg."""
    monos = [e for e in itertools.product(range(max_deg + 1), repeat=n) if sum(e) <= max_deg]
    return st.dictionaries(st.sampled_from(monos), st.integers(-9, 9),
                           max_size=max_terms).map(lambda t: IntPolynomial(n, t))


@st.composite
def _substitutions(draw):
    n, m = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    f = draw(_polys(n, 3, 8))
    images = draw(st.lists(_polys(m, draw(st.sampled_from([1, 2])), 4), min_size=n, max_size=n))
    z = draw(st.lists(st.integers(-6, 6), min_size=m, max_size=m))
    return f, images, z


@settings(max_examples=200, deadline=None)
@given(case=_substitutions())
def test_substitute_polys_commutes_with_evaluation(case):
    f, images, z = case
    assert f.substitute_polys(images).evaluate(z) == f.evaluate([g.evaluate(z) for g in images])
