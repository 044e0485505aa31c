"""The four benchmark workloads: seeded inputs, the calls into cubefib's
public API, and the checks on every exact output.

A workload is a list of tasks. A task makes one or more top-level calls
through `ctx.call`, checks their outputs with `ctx.check` and returns the
exact outputs, which the runner digests. One pass over the task list is
the workload's complete, verified answer.

Jitter is stratified: within a band, the seed decides which task gets which
offset, but every offset is used equally often across the pass, so the work
of a pass barely changes with the seed while each call's inputs do.
"""

from __future__ import annotations

import itertools
import math
import os
import random
from fractions import Fraction

import numpy

WORKLOADS = ("fibre_sum_n8", "representation_5ary", "admissible_density", "local_oracle")

# sizes: "full" is the measured benchmark, "smoke" runs in seconds and has
# frozen counters in frozen.json
SIZES = {
    "fibre_sum_n8": {
        # (band start, band width) per rung; one fibration_count call per ladder
        "full": {"bands": [(32, 3), (48, 3), (64, 3), (96, 3), (124, 3)], "ladders": 3},
        "smoke": {"bands": [(16, 2), (24, 2), (32, 2)], "ladders": 2},
    },
    "representation_5ary": {
        # target level-0 root tests per random form, one class per entry
        "full": {"targets": [600, 1500, 4000], "per_class": 12, "diagonal_P": 5},
        "smoke": {"targets": [150, 400], "per_class": 2, "diagonal_P": 3},
    },
    "admissible_density": {
        # (spec, band start, band width) per rung
        "full": {"pi_prime_n8": [(7, 2), (9, 2), (11, 2)],
                 "pi_n7": [(36, 2), (46, 2), (56, 2)], "per_spec": 2},
        "smoke": {"pi_prime_n8": [(3, 2), (5, 2)], "pi_n7": [(8, 2), (12, 2)], "per_spec": 2},
    },
    "local_oracle": {
        "full": {"closed_forms": 24, "closed_primes": (3, 5, 7, 11, 13),
                 "fibres": 16, "series_pmax": 7, "budget": 2 ** 16, "sigma_primes": (5, 7),
                 "hensel": [(2, 3, 2), (3, 3, 2), (2, 5, 2), (3, 5, 1), (2, 7, 2), (3, 7, 1)],
                 "cubics": 8, "brute_B": [(1, 2)]},
        "smoke": {"closed_forms": 2, "closed_primes": (3, 5),
                  "fibres": 1, "series_pmax": 3, "budget": 2 ** 12, "sigma_primes": (5,),
                  "hensel": [(2, 3, 1)], "cubics": 2, "brute_B": [(1, 1)]},
    },
}


def _stratified(rng, count, start, width):
    """`count` values in [start, start + width), each offset used equally often."""
    offsets = [i % width for i in range(count)]
    rng.shuffle(offsets)
    return [start + o for o in offsets]


def _load_form(api, root, name):
    with open(os.path.join(root, "forms", name + ".json")) as f:
        return api.driver.parse_form_document(f.read())


def _eval_terms(terms, x):
    """Independent evaluation of an integer polynomial given as {exps: coef}."""
    total = 0
    for exps, coef in terms.items():
        v = coef
        for xi, e in zip(x, exps):
            if e:
                v *= xi ** e
        total += v
    return total


# ---------------------------------------------------------------------------
# fibre_sum_n8


def fibre_sum_n8(api, root, rng, size):
    doc = _load_form(api, root, "pi_prime_n8")
    C, split = doc.poly, doc.split
    # the admissible-set spec is built once, as fibration_count builds it
    cond = api.sieve.build_conditions(C, split, "pi_prime")
    _, q_list, _ = api.fibration.split_cubic(C, split)
    q_first = next(q for q in q_list if not q.is_zero())
    box = api.sieve.box_with_large_Q(q_first, P=100)
    spec = api.sieve.AdmissibleSetSpec(len(split.y_indices), list(box.intervals), cond,
                                       box_change=box.change)
    terms = dict(C.terms)
    k = size["ladders"]
    rungs = [_stratified(rng, k, start, width) for start, width in size["bands"]]
    tasks = []
    for i in range(k):
        ladder = sorted({r[i] for r in rungs})

        def task(ctx, ladder=ladder):
            res = ctx.call(api.driver.fibration_count, C, split, "pi_prime", ladder, spec=spec)
            series = res.series
            ctx.check(res.label == "certified-lower-bound", f"label {res.label}")
            ctx.check([b for b, _ in series.rows] == ladder, "rows do not follow the ladder")
            counts = [c for _, c in series.rows]
            ctx.check(counts == sorted(counts), "count series not monotone in B")
            for pt in series.samples:
                ctx.check(_eval_terms(terms, pt) == 0, f"sample {pt} is not a zero of C")
            # samples depend on enumeration order, so they are checked, not digested
            return {"rows": series.rows, "fibres": sorted(series.per_B_fibres.items()),
                    "Y": sorted(res.Y_values.items())}
        tasks.append((f"ladder{ladder}", task))
    return tasks


# ---------------------------------------------------------------------------
# representation_5ary


def _definite_form(api, rng, m):
    """Diagonally dominant integer quadratic with linear terms (so definite)."""
    cross = {}
    for i in range(m):
        for j in range(i + 1, m):
            cross[(i, j)] = rng.randint(-2, 2)
    terms = {}
    diag = []
    for i in range(m):
        off = sum(abs(c) for (a, b), c in cross.items() if i in (a, b))
        d = rng.randint(1, 3) + (off + 1) // 2
        diag.append(d)
        e = [0] * m
        e[i] = 2
        terms[tuple(e)] = d
    for (i, j), c in cross.items():
        if c:
            e = [0] * m
            e[i] = e[j] = 1
            terms[tuple(e)] = c
    lin = [rng.randint(-4, 4) for _ in range(m)]
    for i, b in enumerate(lin):
        if b:
            e = [0] * m
            e[i] = 1
            terms[tuple(e)] = b
    poly = api.polynomials.IntPolynomial(m, terms)
    # half-integer Gram matrix as floats, for sizing only
    M = [[0.0] * m for _ in range(m)]
    for i in range(m):
        M[i][i] = float(diag[i])
    for (i, j), c in cross.items():
        M[i][j] = M[j][i] = c / 2.0
    return api.linalg.QuadraticPolynomial.from_polynomial(poly), M, lin


def _target_for_root_tests(M, lin, tests):
    """N whose ellipsoid {F <= N} projects onto about `tests` integer points
    of the outer m-1 coordinates (one level-0 root test each)."""
    m = len(M)
    fmin = -float(numpy.dot(lin, numpy.linalg.solve(M, lin))) / 4.0
    schur_det = numpy.linalg.det(M) / M[0][0]
    vol_unit = math.pi ** ((m - 1) / 2) / math.gamma((m - 1) / 2 + 1)
    r = (tests * math.sqrt(schur_det) / vol_unit) ** (1.0 / (m - 1))
    return max(1, int(round(r * r + fmin)))


def representation_5ary(api, root, rng, size):
    specs = []
    for t in size["targets"]:
        for i in range(size["per_class"]):
            specs.append((t, 4 + i % 2))
    rng.shuffle(specs)
    tasks = []
    for target, m in specs:
        F, M, lin = _definite_form(api, rng, m)
        N = _target_for_root_tests(M, lin, target)
        xi = [rng.randint(-2, 2) for _ in range(m)]
        tasks.append((f"m{m}-N{N}", _representation_task(api, F, xi, N)))
    P = size["diagonal_P"]
    diag = {tuple(2 if i == j else 0 for i in range(5)): 1 for j in range(5)}
    F = api.linalg.QuadraticPolynomial.from_polynomial(api.polynomials.IntPolynomial(5, diag))
    tasks.insert(rng.randrange(len(tasks) + 1),
                 (f"diagonal-P{P}", _representation_task(api, F, [0] * 5, P * P)))
    return tasks


def _representation_task(api, F, xi, N):
    def task(ctx):
        res = ctx.call(api.driver.representation_count_coprime, F, xi, N)
        ctx.check(res.inclusion_exclusion_ok, "Mobius decomposition does not match the count")
        ctx.check(0 <= res.count <= res.by_divisor.get(1, 0), "count exceeds the box total")
        return {"count": res.count, "by_divisor": sorted(res.by_divisor.items()),
                "precondition_ok": res.precondition_ok}
    return task


# ---------------------------------------------------------------------------
# admissible_density


def admissible_density(api, root, rng, size):
    specs = {}
    for name, mode, k in (("pi_prime_n8", "pi_prime", 3), ("pi_n7", "pi", 2)):
        doc = _load_form(api, root, name)
        cond = api.sieve.build_conditions(doc.poly, doc.split, mode)
        specs[name] = api.sieve.AdmissibleSetSpec(
            k, [(Fraction(-1), Fraction(1))] * k, cond)
    per = size["per_spec"]
    plan = []
    for name in specs:
        rungs = [_stratified(rng, per, start, width) for start, width in size[name]]
        plan += [(name, sorted({r[i] for r in rungs})) for i in range(per)]
    rng.shuffle(plan)
    tasks = []
    for name, ladder in plan:
        spec = specs[name]

        def task(ctx, spec=spec, ladder=ladder):
            est = ctx.call(api.sieve.density_estimate, spec, ladder)
            ctx.check([r[0] for r in est.rows] == ladder, "rows do not follow the Y ladder")
            for Y, count, dens, _ in est.rows:
                ctx.check(0 < count <= (2 * Y + 1) ** spec.k, f"count {count} outside the box")
                ctx.check(dens == Fraction(count, Y ** spec.k), "density is not count / Y^k")
            return {"rows": est.rows}
        tasks.append((f"{name}{ladder}", task))
    return tasks


# ---------------------------------------------------------------------------
# local_oracle


def _random_quadratic(api, rng, m, coef_bound=9):
    """The criterion-1 instance shape: random coefficients, some zero."""
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
    return api.linalg.QuadraticPolynomial.from_polynomial(api.polynomials.IntPolynomial(m, terms))


def _fibre(api, F_list, q_list, R, y):
    """F_y(x) = sum y_i F_i(x) + sum x_j q_j(y) + R(y) as a quadratic polynomial."""
    m = F_list[0].num_vars
    terms = {}
    for yi, Fi in zip(y, F_list):
        for e, c in Fi.terms.items():
            terms[e] = terms.get(e, 0) + c * yi
    for j, q in enumerate(q_list):
        e = tuple(1 if t == j else 0 for t in range(m))
        terms[e] = terms.get(e, 0) + q.evaluate(list(y))
    zero = tuple([0] * m)
    terms[zero] = terms.get(zero, 0) + R.evaluate(list(y))
    poly = api.polynomials.IntPolynomial(m, {e: c for e, c in terms.items() if c})
    return api.linalg.QuadraticPolynomial.from_polynomial(poly)


def _random_split_cubic(api, rng, m, h):
    """C = sum y_i F_i(x) + sum x_j q_j(y) + R(y) with small random coefficients."""
    n = m + h
    terms = {}

    def add(e, c):
        if c:
            terms[e] = terms.get(e, 0) + c
    for i in range(h):
        for a in range(m):
            for b in range(a, m):
                if rng.random() < 0.5:
                    e = [0] * n
                    e[a] += 1
                    e[b] += 1
                    e[m + i] += 1
                    add(tuple(e), rng.randint(-3, 3))
    for j in range(m):
        for a in range(h):
            for b in range(a, h):
                if rng.random() < 0.3:
                    e = [0] * n
                    e[j] += 1
                    e[m + a] += 1
                    e[m + b] += 1
                    add(tuple(e), rng.randint(-3, 3))
    e = [0] * n
    e[m] = 3
    add(tuple(e), 1)
    poly = api.polynomials.IntPolynomial(n, terms)
    split = api.polynomials.VariableSplit(n, tuple(range(m)), tuple(range(m, n)))
    return poly, split


def local_oracle(api, root, rng, size):
    ff, ld = api.finitefield, api.localdensity
    tasks = []

    # the gridcount oracles are the checks, not top-level calls: they count
    # in solve_s and in the traced run, but not in the call latencies
    for i in range(size["closed_forms"]):
        m = 4
        F = _random_quadratic(api, rng, m)

        def closed(ctx, F=F):
            poly = F.to_polynomial()
            out = []
            for p in size["closed_primes"]:
                res = ctx.call(ff.count_quadric_mod_p_closed_form, F, p)
                total = ff.count_mod_q_bruteforce(poly, p)
                ns = ff.count_mod_q_bruteforce(poly, p, nonsingular_only=True)
                ctx.check(res.total == total, f"p={p}: closed-form total {res.total} != oracle {total}")
                ctx.check(res.nonsingular == ns, f"p={p}: closed-form nonsingular {res.nonsingular} != {ns}")
                out.append((p, res.total, res.nonsingular, res.data.case))
            return out
        tasks.append((f"closed{i}-m{m}", closed))

    doc7 = _load_form(api, root, "pi_n7")
    F_list, q_list, R = api.fibration.split_cubic(doc7.poly, doc7.split)
    # one enumeration budget for the local-density and Hensel calls: the
    # searches that would exceed it fall back inside the program, which keeps
    # the cost of each call within a narrow range whatever the seed picks
    pmax, budget = size["series_pmax"], size["budget"]
    eligible = []
    for y in itertools.product(range(-3, 4), repeat=2):
        if y == (0, 0):
            continue
        Fy = _fibre(api, F_list, q_list, R, y)
        if Fy.rank() != Fy.m:
            continue
        # keep fibres whose bad-prime enumerations below pmax fit the budget
        # (at the fallback truncation t = 2), so no call raises BudgetExceeded,
        # and on which the sigma_p primes are good
        disc = abs(Fy.disc())
        bad = [p for p in api.nt.primes_up_to(pmax) if p > 2 and disc % p == 0]
        if any(p ** (2 * Fy.m) > budget for p in bad):
            continue
        if any(disc % p == 0 for p in size["sigma_primes"]):
            continue
        eligible.append((y, Fy))
    # most of the eligible fibres, drawn without repeats: the singular_series
    # calls are the slowest of a pass, and with more of them than the tail's
    # ten samples beyond, call_tail_ms falls inside that group
    for y, Fy in rng.sample(eligible, size["fibres"]):
        def series(ctx, Fy=Fy):
            est = ctx.call(ld.singular_series, Fy, pmax, budget=budget)
            prod = Fraction(1)
            for e in est.locals_:
                prod *= e.sigma
            ctx.check(prod == est.product, "series product != product of local factors")
            return {"product": est.product, "certified": est.certified,
                    "locals": [(e.p, e.t, e.sigma, e.counts, e.method) for e in est.locals_]}
        tasks.append((f"series-y{y}", series))
        for p in size["sigma_primes"]:
            def sigma(ctx, Fy=Fy, p=p):
                est = ctx.call(ld.sigma_p, Fy, p, 2)
                oracle = ff.count_mod_q_bruteforce(Fy.to_polynomial(), p)
                ctx.check(est.counts[1] == oracle, f"N(p) {est.counts[1]} != oracle {oracle}")
                return {"sigma": est.sigma, "counts": est.counts, "method": est.method}
            tasks.append((f"sigma-y{y}-p{p}", sigma))

    for m, p, t in size["hensel"]:
        F = _random_quadratic(api, rng, m, coef_bound=6)

        def hensel(ctx, F=F, p=p, t=t):
            h = ctx.call(ff.hensel_count, F, p, t, budget=budget, v_max=2)
            ctx.check(h.exact is not None, "exact count missing")
            ctx.check(h.certified_lower is None or h.certified_lower <= h.exact,
                      "certified lower bound exceeds the exact count")
            return {"exact": h.exact, "certified": h.certified_lower, "v": h.v,
                    "witnesses": h.witness_count}
        tasks.append((f"hensel-m{m}-p{p}-t{t}", hensel))

    for i in range(size["cubics"]):
        C, split = _random_split_cubic(api, rng, 3 + i % 2, 2 + (i // 2) % 2)

        def fib(ctx, C=C, split=split):
            fd = ctx.call(api.fibration.build_fibration, C, split)
            ctx.check(0 <= fd.rank <= fd.m, f"rank {fd.rank} outside 0..{fd.m}")
            # the witness minor depends on pivot order, so it is checked, not digested
            rows, cols, det = fd.witness
            ctx.check(len(rows) == len(cols) == fd.rank, "witness minor is not of order rank")
            ctx.check(not det.is_zero(), "witness minor vanishes")
            return {"rank": fd.rank}
        tasks.append((f"fibration{i}", fib))

    doc7p = _load_form(api, root, "pi_prime_n7")
    for start, width in size["brute_B"]:
        Bs = list(range(start, start + width))
        # the certified lower bound is the reference for the brute-force count;
        # computed here, outside the timed and traced calls
        lower = api.driver.fibration_count(doc7p.poly, doc7p.split, "pi_prime", Bs).series.rows

        def brute(ctx, Bs=Bs, lower=lower):
            series = ctx.call(api.driver.brute_force_N, doc7p.poly, Bs)
            for (B1, nb), (B2, nl) in zip(series.rows, lower):
                ctx.check(B1 == B2 and nl <= nb, f"lower bound {nl} > brute force {nb} at B={B1}")
            return {"rows": series.rows}
        tasks.append((f"brute-B{Bs}", brute))

    rng.shuffle(tasks)
    return tasks


BUILDERS = {
    "fibre_sum_n8": fibre_sum_n8,
    "representation_5ary": representation_5ary,
    "admissible_density": admissible_density,
    "local_oracle": local_oracle,
}


def build(name, api, root, seed, size_name):
    """Tasks of one workload; inputs depend only on (name, seed, size)."""
    rng = random.Random(f"{name}:{seed}:{size_name}")
    return BUILDERS[name](api, root, rng, SIZES[name][size_name])
