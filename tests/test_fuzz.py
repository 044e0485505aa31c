"""Seeded randomized smoke tests: honest random inputs must never trip a
FalsificationAlarm (those flag internal arithmetic bugs) or crash outside
the documented error types."""

import random

from cubefib.fibration import (
    FalsificationAlarm,
    build_fibration,
    classify_rank2_bundle,
    detect_hypothesis_h1,
    extract_linear_block,
    fibre_polynomial,
    order3_minor_common_factor,
    split_cubic,
)
from cubefib.gridcount import BudgetExceeded
from cubefib.polynomials import IntPolynomial, VariableSplit
from cubefib.sieve import quadric_fibre_point


def test_random_bundles_never_alarm():
    rng = random.Random(424242)
    for trial in range(60):
        v = rng.randint(2, 5)
        ydim = rng.randint(2, 5)
        psis = []
        for _ in range(v):
            terms = {}
            for a in range(ydim):
                for b in range(a, ydim):
                    if rng.random() < 0.5:
                        e = [0] * ydim
                        e[a] += 1
                        e[b] += 1
                        terms[tuple(e)] = rng.randint(-4, 4)
            psis.append(IntPolynomial(ydim, terms))
        if all(p.is_zero() for p in psis):
            continue
        try:
            classify_rank2_bundle(psis)
        except ValueError:
            pass  # documented degenerate-input errors are fine


def test_random_split_cubics_never_alarm():
    rng = random.Random(31337)
    for trial in range(40):
        n = rng.randint(3, 7)
        h = rng.randint(1, n - 1)
        xs = list(range(n - h))
        ys = list(range(n - h, n))
        terms = {}
        for _ in range(rng.randint(2, 9)):
            e = [0] * n
            kind = rng.random()
            if kind < 0.45 and xs:
                e[rng.choice(xs)] += 1
                e[rng.choice(xs)] += 1
                e[rng.choice(ys)] += 1
            elif kind < 0.8 and xs:
                e[rng.choice(xs)] += 1
                e[rng.choice(ys)] += 1
                e[rng.choice(ys)] += 1
            else:
                for _ in range(3):
                    e[rng.choice(ys)] += 1
            terms[tuple(e)] = rng.randint(-5, 5)
        C = IntPolynomial(n, terms)
        sp = VariableSplit(n, tuple(xs), tuple(ys))
        try:
            fd = build_fibration(C, sp)
        except ValueError:
            continue
        try:
            detect_hypothesis_h1(fd)
            if 0 < fd.rank < fd.m:
                extract_linear_block(fd)
            if fd.rank >= 3:
                order3_minor_common_factor(fd)
        except (ValueError, BudgetExceeded):
            pass
        y = [rng.randint(-4, 4) for _ in range(h)]
        fibre = fibre_polynomial(*split_cubic(C, sp), y)
        pt = quadric_fibre_point(fibre, 3)
        assert pt is None or fibre.evaluate(pt) == 0
