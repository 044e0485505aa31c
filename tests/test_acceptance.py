"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Tolerances are pinned here exactly as stated; comparisons are exact
integer/rational arithmetic wherever the tolerance is zero.
"""

import os
import random
import time
from fractions import Fraction

from cubefib.driver import (
    brute_force_N,
    fibration_count,
    fit_exponent,
    parse_form_document,
)
from cubefib.exponents import predicted_exponents
from cubefib.fibration import (
    build_fibration,
    classify_rank2_bundle,
    detect_hypothesis_h1,
    extract_linear_block,
    singular_locus_dim_probe,
)
from cubefib.finitefield import (
    count_mod_q_bruteforce,
    count_quadric_mod_p_closed_form,
    hensel_count,
    quadratic_residue_value_count,
)
from cubefib.lattice import (
    dot,
    gram_det,
    hyperplane_count_asymptotic,
    hyperplane_count_exact,
    kernel_lattice,
)
from cubefib.linalg import QuadraticPolynomial, bareiss
from cubefib.localdensity import S_pk_extract, sigma_p
from cubefib.nt import primes_up_to
from cubefib.polynomials import IntPolynomial, VariableSplit
from cubefib.sieve import AdmissibleSetSpec, LocalConditionSet, build_conditions, \
    density_estimate, enumerate_admissible
from cubefib.volumes import VolumeConstantTable, ball_volume_exact

FORMS = os.path.join(os.path.dirname(__file__), "..", "forms")


def report(num, name, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {num} [{name}]: {status}" + (f" ({detail})" if detail else ""))
    assert passed, f"criterion {num} ({name}) failed: {detail}"


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


def test_criterion_1_closed_form_vs_oracle():
    t0 = time.time()
    rng = random.Random(10**6 + 1)
    primes = [p for p in primes_up_to(31) if p > 2]
    checked = 0
    while checked < 200:
        m = rng.randint(1, 4)
        p = rng.choice(primes)
        F = random_quadratic(rng, m)
        res = count_quadric_mod_p_closed_form(F, p)
        poly = F.to_polynomial()
        assert res.total == count_mod_q_bruteforce(poly, p)
        assert res.nonsingular == count_mod_q_bruteforce(poly, p, nonsingular_only=True)
        checked += 1
    elapsed = time.time() - t0
    report(1, "mod-p closed form vs oracle", checked == 200 and elapsed < 60,
           f"{checked} instances, 0 tolerance, {elapsed:.1f}s")


def test_criterion_2_rank3_error_shape():
    rng = random.Random(10**6 + 2)
    primes = [p for p in primes_up_to(31) if p > 2]
    checked = 0
    tried = 0
    while checked < 150 and tried < 3000:
        tried += 1
        m = rng.randint(3, 4)
        p = rng.choice(primes)
        F = random_quadratic(rng, m)
        res = count_quadric_mod_p_closed_form(F, p)
        if res.data.case != "gauss" or res.data.r < 3:
            continue
        dev = res.nonsingular - p ** (m - 1)
        # |dev| <= 2 p^(m - 3/2), exactly: dev^2 <= 4 p^(2m - 3)
        assert dev * dev <= 4 * p ** (2 * m - 3), (m, p, dev)
        checked += 1
    report(2, "rank >= 3 error shape", checked >= 150,
           f"{checked} rank>=3 instances within 2 p^(m-3/2)")


def test_criterion_3_hensel_bounds():
    rng = random.Random(10**6 + 3)
    pairs_checked = 0
    lift_checked = 0
    instances = 0
    while instances < 40:
        m = rng.randint(1, 3)
        p = rng.choice([3, 5, 7])
        F = random_quadratic(rng, m, coef_bound=6)
        instances += 1
        for t in (1, 2, 3):
            if p ** (t * m) > 2 * 10 ** 6:
                continue
            h = hensel_count(F, p, t)
            assert h.exact is not None
            if h.certified_lower is not None:
                assert h.certified_lower <= h.exact, (m, p, t)
                pairs_checked += 1
            ns = count_quadric_mod_p_closed_form(F, p).nonsingular
            if ns > 0:
                # N(p^t) >= p^(t(m-1)) (1 - 2/p), exactly: p N >= (p-2) p^(t(m-1))
                assert p * h.exact >= (p - 2) * p ** (t * (m - 1)), (m, p, t)
                lift_checked += 1
    report(3, "Hensel certified and lift floors", pairs_checked > 50 and lift_checked > 30,
           f"{pairs_checked} certified<=exact, {lift_checked} lift floors")


def test_criterion_4_sigma_tail_and_partial_sums():
    rng = random.Random(10**6 + 4)
    forms = 0
    primes_checked = 0
    while forms < 20:
        diag = [rng.choice([1, 2, 3, 5, -1, -2]) for _ in range(5)]
        terms = {}
        for i, d in enumerate(diag):
            e = [0] * 5
            e[i] = 2
            terms[tuple(e)] = d
        if rng.random() < 0.5:
            terms[(1, 1, 0, 0, 0)] = rng.randint(-2, 2)
        for i in range(5):
            if rng.random() < 0.4:
                e = [0] * 5
                e[i] = 1
                terms[tuple(e)] = rng.randint(-4, 4)
        terms[(0,) * 5] = rng.randint(-9, 9)
        F = random_quadratic(rng, 5) if False else QuadraticPolynomial.from_polynomial(
            IntPolynomial(5, terms))
        if F.rank() != 5:
            continue
        forms += 1
        disc = F.disc()
        for p in primes_up_to(50):
            if p == 2 or (2 * disc) % p == 0:
                continue
            est = sigma_p(F, p, 2)
            dev = est.sigma - 1
            # |sigma - 1| <= 4 p^(-3/2), exactly: dev^2 p^3 <= 16
            assert dev * dev * p ** 3 <= 16, (p, est.sigma)
            # partial sums of S_{p^k} reconstruct sigma exactly
            total = Fraction(1)
            for k in (1, 2):
                total += Fraction(S_pk_extract(F, p, k, counts=est.counts), p ** (k * 5))
            assert total == est.sigma
            primes_checked += 1
    report(4, "sigma_p tail and S_pk partial sums", forms == 20,
           f"20 rank-5 forms, {primes_checked} (form, p) pairs")


def test_criterion_5_lattice():
    rng = random.Random(10**6 + 5)
    from math import gcd

    # covolume^2 == ||a||^2 for 100 random primitive a, n <= 6
    done = 0
    while done < 100:
        n = rng.randint(2, 6)
        a = [rng.randint(-20, 20) for _ in range(n)]
        g = 0
        for v in a:
            g = gcd(g, v)
        if g != 1:
            continue
        assert gram_det(kernel_lattice(a)) == dot(a, a)
        done += 1
    # hand value
    assert hyperplane_count_exact([1, 1], 0, 5).exact == 7
    # asymptotic budgets on the stated family
    budget_checked = 0
    for n in (2, 3, 4):
        for B in (100, 1000):
            trials = 0
            while trials < 4:
                a = [rng.randint(-25, 25) for _ in range(n)]
                g = 0
                for v in a:
                    g = gcd(g, v)
                if g != 1 or dot(a, a) > 2500:
                    continue
                b = rng.randint(-5, 5)
                asy = hyperplane_count_asymptotic(a, b, B)
                exact = hyperplane_count_exact(a, b, B).exact
                assert abs(exact - asy.main) <= asy.budget, (a, b, B)
                budget_checked += 1
                trials += 1
    report(5, "lattice covolume and asymptotics", done == 100 and budget_checked == 24,
           f"100 covolumes exact, {budget_checked} error budgets hold, N((1,1),0,5)=7")


def test_criterion_6_volume_constants():
    table = VolumeConstantTable(10)
    worst = 0.0
    for l in range(1, 11):
        assert table.calibration_matches(l), l  # exact symbolic equality
        c = table.constant_float(l)
        exact = ball_volume_exact(l).float_value()
        worst = max(worst, abs(c - exact) / exact)
    report(6, "volume constants vs ball volume", worst <= 1e-9,
           f"exact symbolic match, float deviation {worst:.2e}")


def _random_split_cubic(rng, n):
    h = rng.randint(1, n - 1)
    xs = tuple(range(n - h))
    ys = tuple(range(n - h, n))
    terms = {}
    for _ in range(rng.randint(2, 10)):
        kind = rng.random()
        e = [0] * n
        if kind < 0.45 and xs:
            e[rng.choice(xs)] += 1
            e[rng.choice(xs)] += 1
            e[rng.choice(ys)] += 1
        elif kind < 0.8:
            e[rng.choice(xs)] += 1
            e[rng.choice(ys)] += 1
            e[rng.choice(ys)] += 1
        else:
            for _ in range(3):
                e[rng.choice(ys)] += 1
        terms[tuple(e)] = rng.randint(-5, 5)
    return IntPolynomial(n, terms), VariableSplit(n, xs, ys)


def test_criterion_7_fibration_structure():
    rng = random.Random(10**6 + 7)
    # 50 random cubics: the rank at a random point never exceeds the symbolic rank
    done = 0
    while done < 50:
        n = rng.randint(3, 8)
        C, sp = _random_split_cubic(rng, n)
        try:
            fd = build_fibration(C, sp)
        except ValueError:
            continue
        # build_fibration only returns after the symbolic proof; re-probe once
        probe = [rng.randint(-10 ** 6, 10 ** 6) for _ in range(fd.h)]
        assert bareiss(fd.M2_at(probe)).rank <= fd.rank
        # linear-block certificates are zero polynomials
        if 0 < fd.rank < fd.m:
            res = extract_linear_block(fd)
            assert all(e.is_zero() for row in res.certificate for e in row)
        done += 1

    # 20 H1 roundtrips with exact factorization identities
    h1_done = 0
    while h1_done < 20:
        m = rng.randint(2, 5)
        h = rng.randint(1, 3)
        lcoef = [rng.randint(-3, 3) for _ in range(h)]
        if not any(lcoef):
            continue
        F = IntPolynomial.zero(m)
        for _ in range(rng.randint(1, m)):
            form = IntPolynomial.linear_form([rng.randint(-2, 2) for _ in range(m)])
            F = F + form * form
        terms = {}
        for ex, cf in F.terms.items():
            for i, lc in enumerate(lcoef):
                if lc:
                    e = list(ex) + [0] * h
                    e[m + i] = 1
                    terms[tuple(e)] = terms.get(tuple(e), 0) + lc * cf
        if not terms:
            continue
        C = IntPolynomial(m + h, terms)
        fd = build_fibration(C, VariableSplit(m + h, tuple(range(m)), tuple(range(m, m + h))))
        res = detect_hypothesis_h1(fd)
        assert res.holds and res.certificate.is_zero()
        h1_done += 1

    # 20 rank-2 bundle roundtrips with exact factorization identities
    r2_done = 0
    X = IntPolynomial.variable
    while r2_done < 20:
        v = rng.randint(3, 4)
        ydim = rng.randint(3, 4)
        n = v + ydim
        kappa = rng.choice([1, -1, 2, -2, 3])
        a00 = [rng.randint(-3, 3) for _ in range(v)]
        picks = [i for i in range(2, ydim) if rng.random() < 0.8]
        lin = {i: [rng.randint(-3, 3) for _ in range(v)] for i in picks}
        if not any(a00) or not picks or any(not any(c) for c in lin.values()):
            continue
        xs = [X(n, i) for i in range(v)]
        ys = [X(n, v + i) for i in range(ydim)]

        def lift(coefs):
            out = IntPolynomial.zero(n)
            for c, xv in zip(coefs, xs):
                out = out + xv * c
            return out

        inner = lift(a00) * (ys[0] - ys[1] * kappa)
        for i in picks:
            inner = inner + lift(lin[i]) * ys[i]
        Psi = (ys[0] + ys[1] * kappa) * inner
        psis = []
        for i in range(v):
            terms = {}
            for e, c in Psi.terms.items():
                if e[i] == 1 and sum(e[:v]) == 1:
                    terms[tuple(e[v:])] = c
            psis.append(IntPolynomial(ydim, terms))
        if all(p.is_zero() for p in psis):
            continue
        res = classify_rank2_bundle(psis)
        if res.rank_over_K != 2:
            continue
        assert res.shape in ("exps2psi", "option1")
        if res.shape == "exps2psi":
            assert res.kappa is not None  # identity verified inside, alarms otherwise
        r2_done += 1
    report(7, "fibration structure", done == 50 and h1_done == 20 and r2_done == 20,
           "50 rank checks, 20 H1 + 20 rank-2 exact roundtrips")


def test_criterion_8_exponent_deduction():
    eps = Fraction(1, 100)
    worst_margin = None
    for h in range(10, 14):
        for n in range(39, 61):
            pred = predicted_exponents(n, h, min(5, n - h), eps, shape="general")
            margin = (n - h + pred.alpha) - (n - 9)
            assert margin >= 0, (n, h, margin)
            worst_margin = margin if worst_margin is None else min(worst_margin, margin)
    report(8, "n-9 exponent floor", True,
           f"grid h in 10..13, n in 39..60, exact; tightest margin {worst_margin}")


def test_criterion_9_end_to_end_desk_scale():
    t0 = time.time()
    with open(os.path.join(FORMS, "pi_prime_n8.json")) as f:
        doc8 = parse_form_document(f.read())
    res = fibration_count(doc8.poly, doc8.split, "pi_prime", [16, 32, 64, 128, 256, 512])
    # the ladder's exact rows, as recorded in BENCH_22.json ("criterion_9_ladder")
    assert res.series.rows == [(16, 0), (32, 2506), (64, 48334), (128, 1921882), (256, 62528171),
                               (512, 1543706711)]
    fit = fit_exponent(res.series)
    slope_ok = fit.slope >= (8 - 3) - 0.5
    for pt in res.series.samples:
        assert doc8.poly.evaluate(list(pt)) == 0
    # certified lower bound <= brute force, on the reduced sibling
    with open(os.path.join(FORMS, "pi_prime_n7.json")) as f:
        doc7 = parse_form_document(f.read())
    comparison_ok = True
    brute = brute_force_N(doc7.poly, [4, 6])
    lower = fibration_count(doc7.poly, doc7.split, "pi_prime", [4, 6])
    for (B1, nb), (B2, nl) in zip(brute.rows, lower.series.rows):
        assert B1 == B2
        comparison_ok = comparison_ok and nl <= nb
    elapsed = time.time() - t0
    report(9, "end-to-end linear-fibre family",
           slope_ok and comparison_ok and elapsed < 600,
           f"slope {fit.slope:.3f} >= 4.5, bound <= brute at B=4,6, {elapsed:.0f}s")


def test_criterion_10_character_sums():
    rng = random.Random(10**6 + 10)
    primes = [p for p in primes_up_to(31) if p > 2]
    checked = 0
    while checked < 40:
        m = rng.randint(1, 3)
        deg = rng.choice([2, 2, 3])
        terms = {}
        for _ in range(rng.randint(1, 5)):
            e = [0] * m
            for _ in range(deg):
                e[rng.randrange(m)] += 1
            terms[tuple(e)] = rng.randint(-5, 5)
        f = IntPolynomial(m, terms)
        if f.is_zero():
            continue
        probe = singular_locus_dim_probe(f, primes=(11, 13))
        delta_hat = max(probe.estimate, 0)
        for p in rng.sample(primes, 3):
            k = quadratic_residue_value_count(f, p)
            assert k.identity_holds(), (terms, p)
            # |S| <= 4 p^((m + delta + 1)/2), exactly: S^2 <= 16 p^(m + delta + 1)
            assert k.S * k.S <= 16 * p ** (m + delta_hat + 1), (terms, p, k.S)
        checked += 1
    report(10, "character-sum identity and bound", checked == 40,
           f"{checked} forms, identity exact, |S| within 4 p^((m+d+1)/2)")


def test_criterion_11_sieve_density_and_gcd():
    # unconditional: density exactly (2Y+1)^k / Y^k
    for k in (1, 2):
        cond = LocalConditionSet({}, [], tuple(range(k)))
        spec = AdmissibleSetSpec(k, [(Fraction(-1), Fraction(1))] * k, cond)
        est = density_estimate(spec, [20, 40])
        for Y, count, dens, _ in est.rows:
            assert count == (2 * Y + 1) ** k
    # single-prime condition matches the residue density within 2/Y
    cond = LocalConditionSet({}, [IntPolynomial.variable(1, 0)], (0,))
    spec = AdmissibleSetSpec(1, [(Fraction(-1), Fraction(1))], cond, good_primes_only=(3,))
    est = density_estimate(spec, [30, 60, 120])
    for Y, count, dens, _ in est.rows:
        assert abs(dens - Fraction(4, 3)) <= Fraction(2, Y)
    # remgcd: max gcd over an enumerated pi-mode admissible set
    with open(os.path.join(FORMS, "pi_n7.json")) as f:
        doc = parse_form_document(f.read())
    cond = build_conditions(doc.poly, doc.split, "pi")
    assert cond.insoluble_at is None
    spec = AdmissibleSetSpec(2, [(Fraction(-1), Fraction(1))] * 2, cond)
    bound = 1
    for p, w in cond.bad_primes.items():
        bound *= p ** (2 * w.v - 1)
    from math import gcd

    worst = 0
    found = 0
    for y in enumerate_admissible(spec, 12):
        worst = max(worst, gcd(*y))
        found += 1
    assert found > 0
    assert worst <= bound
    report(11, "sieve densities and gcd bound", True,
           f"2^k exact, 4/3 within 2/Y, max gcd {worst} <= {bound} over {found} points")
