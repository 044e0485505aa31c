import itertools
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cubefib import gridcount
from cubefib.finitefield import (
    PadicWitness,
    count_mod_q_bruteforce,
    count_quadric_mod_p_closed_form,
    count_witnesses,
    find_padic_nonsingular,
    hensel_count,
    quadratic_residue_value_count,
)
from cubefib.gridcount import BudgetExceeded
from cubefib.linalg import QuadraticPolynomial, congruence_diagonalize, int_matrix_det
from cubefib.nt import primes_up_to
from cubefib.polynomials import IntPolynomial
from strategies import affine_image


def random_quadratic(rng, m, coef_bound=9):
    terms = {}
    for i in range(m):
        for j in range(i, m):
            if rng.random() < 0.7:
                e = [0] * m
                e[i] += 1
                e[j] += 1
                terms[tuple(e)] = rng.randint(-coef_bound, coef_bound)
    for i in range(m):
        if rng.random() < 0.6:
            e = [0] * m
            e[i] = 1
            terms[tuple(e)] = rng.randint(-coef_bound, coef_bound)
    terms[tuple([0] * m)] = rng.randint(-coef_bound, coef_bound)
    return QuadraticPolynomial.from_polynomial(IntPolynomial(m, terms))


def test_diagonalize_mod_p_identity_and_rank():
    R, D = congruence_diagonalize([[1, 0], [0, 2]], 5)
    assert R == [[1, 0], [0, 1]]
    assert D == [1, 2]

    # hyperbolic plane mod 5: product of diagonal entries is a square class
    # match of det = -1/4 ~ -1 mod squares
    from cubefib.nt import jacobi_symbol

    q = [[0, 1], [1, 0]]
    R, D = congruence_diagonalize(q, 5)
    assert all(d for d in D)
    # verify R^t Q R = diag(D) mod 5
    n = 2
    rtqr = [
        [sum(R[a][i] * q[a][b] * R[b][j] for a in range(n) for b in range(n)) % 5 for j in range(n)]
        for i in range(n)
    ]
    assert rtqr == [[D[0], 0], [0, D[1]]]
    assert jacobi_symbol(D[0] * D[1], 5) == jacobi_symbol(-1, 5)

    # rank 1 matrix mod 7
    R, D = congruence_diagonalize([[1, 2], [2, 4]], 7)
    assert sum(1 for d in D if d) == 1


def test_diagonalize_random_congruence():
    rng = random.Random(51)
    for _ in range(100):
        p = rng.choice([3, 5, 7, 11])
        n = rng.randint(1, 5)
        q = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                v = rng.randrange(p)
                q[i][j] = v
                q[j][i] = v
        R, D = congruence_diagonalize(q, p)
        rtqr = [
            [
                sum(R[a][i] * q[a][b] * R[b][j] for a in range(n) for b in range(n)) % p
                for j in range(n)
            ]
            for i in range(n)
        ]
        for i in range(n):
            for j in range(n):
                assert rtqr[i][j] == (D[i] if i == j else 0)
        # nonzero entries first
        r = sum(1 for d in D if d)
        assert all(D[i] for i in range(r)) and all(not D[i] for i in range(r, n))


def test_closed_form_hand_values():
    # x1^2 + x2^2 + x3^2 mod 3: only singular solution is the origin
    F = QuadraticPolynomial.from_polynomial(
        IntPolynomial(3, {(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): 1})
    )
    res = count_quadric_mod_p_closed_form(F, 3)
    assert res.nonsingular == 8
    assert res.total == 9

    # x^2 mod 5: the only root is singular
    F = QuadraticPolynomial.from_polynomial(IntPolynomial(1, {(2,): 1}))
    res = count_quadric_mod_p_closed_form(F, 5)
    assert res.nonsingular == 0
    assert res.total == 1


def test_closed_form_rejects_p2():
    F = random_quadratic(random.Random(0), 2)
    with pytest.raises(ValueError):
        count_quadric_mod_p_closed_form(F, 2)


def test_character_sum_case_table():
    # r even cases of the character-sum table: p-1 if p | w, else -1.
    # Probe through full-rank diagonal forms with controlled critical value.
    # F = x1^2 + x2^2 + N has w = 4N, r = 2.
    for p in (3, 5, 7):
        for N, expect_kval in ((0, p - 1), (1, -1)):
            F = QuadraticPolynomial.from_polynomial(
                IntPolynomial(2, {(2, 0): 1, (0, 2): 1, (0, 0): N})
            )
            res = count_quadric_mod_p_closed_form(F, p)
            assert res.data.case == "gauss"
            sign = (-1) ** (1 % 2) if p % 4 == 3 else 1
            assert res.data.gauss_term == sign * res.data.jacobi_det * expect_kval * p ** (
                2 - 2 // 2 - 1
            ) * (1 if expect_kval != p - 1 else 1)
            assert (res.data.w == 0) == (N % p == 0)


CALIBRATION_CASES = [
    # frozen after the one-time oracle calibration of the kappa_p power:
    # (m, terms, p, nonsingular, total)
    (1, {(2,): 1, (0,): -1}, 5, 2, 2),
    (2, {(2, 0): 1, (0, 2): 1}, 5, 8, 9),
    (2, {(2, 0): 1, (0, 2): 1}, 3, 0, 1),
    (2, {(2, 0): 1, (0, 2): -1}, 7, 12, 13),
    (3, {(2, 0, 0): 1, (1, 1, 0): 1, (0, 0, 1): 3}, 5, 25, 25),
    (3, {(2, 0, 0): 2, (0, 2, 0): 3, (0, 0, 2): 5, (0, 0, 0): 1}, 7, 56, 56),
]


def test_closed_form_frozen_calibration_cases():
    for m, terms, p, ns, tot in CALIBRATION_CASES:
        F = QuadraticPolynomial.from_polynomial(IntPolynomial(m, terms))
        res = count_quadric_mod_p_closed_form(F, p)
        poly = F.to_polynomial()
        assert count_mod_q_bruteforce(poly, p) == tot
        assert count_mod_q_bruteforce(poly, p, nonsingular_only=True) == ns
        assert (res.nonsingular, res.total) == (ns, tot)


def test_closed_form_vs_bruteforce_random():
    rng = random.Random(101)
    primes = [p for p in primes_up_to(31) if p > 2]
    for _ in range(150):
        m = rng.randint(1, 4)
        p = rng.choice(primes)
        F = random_quadratic(rng, m)
        res = count_quadric_mod_p_closed_form(F, p)
        poly = F.to_polynomial()
        assert res.total == count_mod_q_bruteforce(poly, p)
        assert res.nonsingular == count_mod_q_bruteforce(poly, p, nonsingular_only=True)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_closed_form_is_invariant_under_affine_bijections_mod_p(data):
    """x -> A x + b with A invertible mod p permutes F_p^m and maps the
    gradient by A^T, so F(A x + b) has the total and nonsingular counts of F."""
    p, m = data.draw(st.sampled_from([3, 5, 7])), data.draw(st.integers(1, 4))
    terms = {e: data.draw(st.integers(-9, 9)) for e in itertools.product(range(3), repeat=m)
             if sum(e) <= 2}
    F = QuadraticPolynomial.from_polynomial(IntPolynomial(m, terms))
    residues = st.lists(st.integers(0, p - 1), min_size=m, max_size=m)
    A = data.draw(st.lists(residues, min_size=m, max_size=m)
                  .filter(lambda A: int_matrix_det(A) % p))
    moved = QuadraticPolynomial.from_polynomial(affine_image(F.to_polynomial(), A, data.draw(residues)))
    a, b = count_quadric_mod_p_closed_form(F, p), count_quadric_mod_p_closed_form(moved, p)
    assert (b.nonsingular, b.total) == (a.nonsingular, a.total)


def test_bruteforce_hand_values():
    # x1 mod 7 in two variables: 7 solutions
    assert count_mod_q_bruteforce(IntPolynomial(2, {(1, 0): 1}), 7) == 7
    # x1^2 + x2^2 - 1 mod 3: enumerate 9 points -> 4 solutions
    p = IntPolynomial(2, {(2, 0): 1, (0, 2): 1, (0, 0): -1})
    assert count_mod_q_bruteforce(p, 3) == 4
    # nonsingular count for x^2 mod 5 is 0
    assert count_mod_q_bruteforce(IntPolynomial(1, {(2,): 1}), 5, nonsingular_only=True) == 0


def test_bruteforce_budget():
    # count_mod_q_bruteforce scans through count_zeros_mod_q, whose budget
    # guards the scan
    p = IntPolynomial(4, {(1, 0, 0, 0): 1})
    with pytest.raises(BudgetExceeded):
        gridcount.count_zeros_mod_q(p, 101, 10 ** 6)
    with pytest.raises(BudgetExceeded):
        gridcount.count_zeros_mod_q(p, 101, 10 ** 6, nonsingular_p=101)


def test_hensel_hand_values():
    # x + 3, p=5, t=2: exactly 1 solution mod 25
    h = hensel_count(IntPolynomial(1, {(1,): 1, (0,): 3}), 5, 2)
    assert h.exact == 1
    # x1^2 + x2^2 - 1 mod 9: 4 nonsingular roots mod 3, each lifts 3-fold
    f = IntPolynomial(2, {(2, 0): 1, (0, 2): 1, (0, 0): -1})
    h = hensel_count(f, 3, 2)
    assert h.exact == 12
    assert h.certified_lower == 12  # 4 witnesses at v=1, factor 3^(1*(2-1))
    assert h.v == 1 and h.witness_count == 4


def test_hensel_certified_leq_exact_random():
    rng = random.Random(7)
    checked = 0
    while checked < 50:
        m = rng.randint(1, 3)
        p = rng.choice([3, 5, 7])
        F = random_quadratic(rng, m, coef_bound=6)
        for t in (1, 2, 3):
            if p ** (t * m) > 10 ** 7:
                continue
            h = hensel_count(F, p, t)
            assert h.exact is not None
            if h.certified_lower is not None:
                assert h.certified_lower <= h.exact
        checked += 1


def test_hensel_monotonicity():
    rng = random.Random(8)
    for _ in range(20):
        m = rng.randint(1, 2)
        p = rng.choice([3, 5])
        F = random_quadratic(rng, m, coef_bound=5)
        prev = None
        for t in (1, 2, 3):
            h = hensel_count(F, p, t)
            if prev is not None:
                assert h.exact <= p ** m * prev
            prev = h.exact


def test_padic_witness_hand_values():
    # C = x1: witness at v=1, x=0, gradient 1
    w = find_padic_nonsingular(IntPolynomial(1, {(1,): 1}), 5, 2)
    assert w is not None and w.v == 1 and w.residues == (0,)
    assert w.verify(IntPolynomial(1, {(1,): 1}))

    # C = x1^3 + y1 at p=5: the first lexicographic witness has
    # x1^3 + y1 = 0 mod 5 with dC/dx1 = 3 x1^2 nonzero mod 5
    c = IntPolynomial(2, {(3, 0): 1, (0, 1): 1})
    w = find_padic_nonsingular(c, 5, 2, x_indices=[0])
    assert w is not None and w.v == 1
    x1, y1 = w.residues
    assert (x1 ** 3 + y1) % 5 == 0 and 3 * x1 * x1 % 5 != 0
    assert w.index == 0 and w.verify(c)
    # the witness at (1, -1) from the statement also verifies
    assert PadicWitness(5, 1, (1, 4), 0).verify(c)
    # an index past the variables, or a partial that vanishes mod p^v, fails
    assert not PadicWitness(5, 1, (1, 4), 2).verify(c)
    assert not PadicWitness(5, 1, (0, 0), 0).verify(c)


def test_padic_witness_insoluble_case():
    # x1^2 + x2^2 + 3 has no zeros mod 9 at all, so no witness for any v
    c = IntPolynomial(2, {(2, 0): 1, (0, 2): 1, (0, 0): 3})
    assert find_padic_nonsingular(c, 3, 3) is None
    from cubefib.gridcount import count_zeros_mod_q

    assert count_zeros_mod_q(c, 9) == 0


def test_padic_witness_requires_x_partial():
    c = IntPolynomial(2, {(0, 3): 1})  # no x1 dependence
    with pytest.raises(ValueError):
        find_padic_nonsingular(c, 3, 1, x_indices=[0])


def test_witnesses_reverify_random():
    rng = random.Random(9)
    found = 0
    while found < 25:
        m = rng.randint(1, 3)
        terms = {}
        for _ in range(rng.randint(2, 5)):
            e = [0] * m
            for _ in range(rng.randint(0, 3)):
                e[rng.randrange(m)] += 1
            terms[tuple(e)] = rng.randint(-6, 6)
        c = IntPolynomial(m, terms)
        if all(g.is_zero() for g in c.gradient()):
            continue
        p = rng.choice([3, 5])
        w = find_padic_nonsingular(c, p, 2)
        if w is None:
            continue
        assert w.verify(c)
        found += 1


def _witnesses_by_enumeration(c, p, v, xs):
    """(point, first x-index with a partial nonzero mod p^v) for every
    witness mod p^(2v-1), in itertools.product order."""
    q, pv = p ** (2 * v - 1), p ** v
    grads = [(i, c.derivative(i)) for i in xs]
    out = []
    for x in itertools.product(range(q), repeat=c.num_vars):
        if c.evaluate_mod(x, q) == 0:
            first = next((i for i, g in grads if g.evaluate_mod(x, pv)), None)
            if first is not None:
                out.append((x, first))
    return out


@st.composite
def _small_polynomials(draw):
    m = draw(st.integers(1, 3))
    terms = {}
    for _ in range(draw(st.integers(1, 5))):
        e = [0] * m
        for _ in range(draw(st.integers(0, 3))):
            e[draw(st.integers(0, m - 1))] += 1
        terms[tuple(e)] = draw(st.integers(-6, 6))
    return IntPolynomial(m, terms)


@settings(max_examples=80, deadline=None)
@given(c=_small_polynomials(), p=st.sampled_from([2, 3, 5]), data=st.data())
def test_witness_search_and_count_share_one_scan(c, p, data):
    """find_padic_nonsingular returns the first x-block witness of the
    lowest level in lexicographic order, the witness verifies, and
    count_witnesses counts exactly the witnesses of each level (on every
    partial), the found one included."""
    m = c.num_vars
    xs = data.draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=m, unique=True))
    assume(not all(c.derivative(i).is_zero() for i in xs))
    v_max = 2 if p ** (3 * m) <= 3000 else 1
    w = find_padic_nonsingular(c, p, v_max, x_indices=xs)
    levels = [_witnesses_by_enumeration(c, p, v, xs) for v in range(1, v_max + 1)]
    counts = [len(_witnesses_by_enumeration(c, p, v, range(m))) for v in range(1, v_max + 1)]
    for v, expected in enumerate(counts, start=1):
        assert count_witnesses(c, p, v) == expected
    first = next(((v, hits[0]) for v, hits in enumerate(levels, start=1) if hits), None)
    if first is None:
        assert w is None
        return
    v, (point, index) = first
    assert (w.v, w.residues, w.index) == (v, point, index)
    assert w.index in xs and w.verify(c)
    assert count_witnesses(c, p, w.v) >= 1
    # the same witness and counts when every chunk holds only a few residues
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gridcount, "_CHUNK", 5)
        assert find_padic_nonsingular(c, p, v_max, x_indices=xs) == w
        assert count_witnesses(c, p, w.v) == counts[w.v - 1]


def test_katz_counts_hand_values():
    # f = x^2 mod 3: chi(f(x)) = 1 for x = 1, 2
    k = quadratic_residue_value_count(IntPolynomial(1, {(2,): 1}), 3)
    assert k.count_plus == 2
    assert k.identity_holds()

    # constant f = 1, p=7, m=2: all 49 points
    k = quadratic_residue_value_count(IntPolynomial(2, {(0, 0): 1}), 7)
    assert k.count_plus == 49
    assert k.identity_holds()

    # f = x1^2 + x2^2 mod 5 from direct enumeration
    f = IntPolynomial(2, {(2, 0): 1, (0, 2): 1})
    brute_plus = 0
    brute_zero = 0
    from cubefib.nt import jacobi_symbol

    s = 0
    for a in range(5):
        for b in range(5):
            v = (a * a + b * b) % 5
            if v == 0:
                brute_zero += 1
            else:
                s += jacobi_symbol(v, 5)
                if jacobi_symbol(v, 5) == 1:
                    brute_plus += 1
    k = quadratic_residue_value_count(f, 5)
    assert (k.count_plus, k.count_zero, k.S) == (brute_plus, brute_zero, s)
    assert 2 * k.count_plus == 25 + k.S - k.count_zero


def _hensel_two_calls(poly, p, t, budget, v_max):
    """(exact, v, witness count) the way hensel_count once found them: a
    first-witness search for the level, then a second scan to count it."""
    try:
        exact = gridcount.count_zeros_mod_q(poly, p ** t, budget)
    except BudgetExceeded:
        exact = None
    v = None
    if not all(g.is_zero() for g in poly.gradient()):
        try:
            wit = find_padic_nonsingular(poly, p, v_max, budget=budget)
            v = wit.v if wit else None
        except BudgetExceeded:
            v = None
    wcount = count_witnesses(poly, p, v, budget=budget) if v is not None else None
    return exact, v, wcount


def _check_hensel_against_two_calls(poly, p, t, budget=None, v_max=3):
    try:
        exact, v_ref, wcount = _hensel_two_calls(poly, p, t, budget, v_max)
        if exact is None and not wcount:
            raise BudgetExceeded("neither exact nor certified count computable")
    except BudgetExceeded:
        with pytest.raises(BudgetExceeded):
            hensel_count(poly, p, t, budget=budget, v_max=v_max)
        return None
    h = hensel_count(poly, p, t, budget=budget, v_max=v_max)
    assert (h.exact, h.v, h.witness_count) == (exact, v_ref, wcount)
    if wcount:
        lift = 2 * v_ref - 1
        assert h.certified_lower == (wcount * p ** ((t - lift) * (poly.num_vars - 1))
                                     if t >= lift else 1)
    else:
        assert h.certified_lower is None
    return h


@st.composite
def _quadratics(draw):
    m = draw(st.integers(1, 3))
    monomials = [e for e in itertools.product(range(3), repeat=m) if sum(e) <= 2]
    terms = draw(st.dictionaries(st.sampled_from(monomials), st.integers(-12, 12), max_size=6))
    return IntPolynomial(m, terms)


@settings(max_examples=120, deadline=None)
@given(poly=_quadratics(), p=st.sampled_from([2, 3, 5]), t=st.integers(1, 4),
       level=st.sampled_from([None, 1, 2]))
def test_hensel_count_equals_the_two_call_form(poly, p, t, level):
    """One scan per level finds the same level, count and bound as the
    search-then-count form; a budget of (p^(2 level - 1))^m admits that
    level and trips at the next one."""
    budget = None if level is None else p ** ((2 * level - 1) * poly.num_vars)
    if budget is None and p ** (5 * poly.num_vars) > 10 ** 5:
        budget = 10 ** 5
    _check_hensel_against_two_calls(poly, p, t, budget=budget)


def test_hensel_count_at_a_higher_witness_level():
    # x^2 + y^2 + 4z^2 - 8 at p = 2: the first witnesses lie at v = 3
    f = IntPolynomial(3, {(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): 4, (0, 0, 0): -8})
    h = _check_hensel_against_two_calls(f, 2, 5)
    assert h.v == 3 and h.witness_count > 0
    # a budget that admits levels 1 and 2 but trips at level 3: no level
    h = _check_hensel_against_two_calls(f, 2, 2, budget=2 ** 9)
    assert h.v is None and h.witness_count is None and h.exact is not None
