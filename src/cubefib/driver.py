"""End-to-end experiment orchestration: form documents, brute-force counts,
fibration-based certified lower bounds, representation numbers, exponent
fits, and deterministic JSON/CSV reporting."""

from __future__ import annotations

import hashlib
import json
import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, isqrt
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import gridcount
from .fibration import FalsificationAlarm, fibre_polynomial, linear_fibre_parts, split_cubic
from .lattice import QuadraticSolvedLevels, enumerate_quadratics, hyperplane_counts
from .linalg import QuadraticPolynomial
from .nt import squarefree_divisors
from .polynomials import IntPolynomial, VariableSplit
from .sieve import (AdmissibleSetSpec, box_with_large_Q, build_conditions, enumerate_admissible,
                    quadric_fibre_point)


# ---------------------------------------------------------------------------
# form documents

FORM_SCHEMA = "cubefib-form-v1"


@dataclass
class FormDocument:
    n: int
    poly: IntPolynomial
    name: str = ""
    split: Optional[VariableSplit] = None
    mode: Optional[str] = None


class FormValidationError(ValueError):
    def __init__(self, message, line=None):
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")


def _find_line(text: str, needle: str) -> Optional[int]:
    for i, ln in enumerate(text.splitlines(), start=1):
        if needle in ln:
            return i
    return None


def _int_field(value, what: str) -> int:
    """A JSON integer, or a string of one; a float or a boolean is refused,
    not truncated."""
    if isinstance(value, (int, str)) and not isinstance(value, bool):
        try:
            return int(value)
        except ValueError:
            pass
    raise FormValidationError(f"{what} must be an integer, got {value!r}")


def parse_form_document(text: str) -> FormDocument:
    """Parse and check a form document; every defect in it raises
    FormValidationError."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise FormValidationError(e.msg, line=e.lineno)
    if not isinstance(obj, dict):
        raise FormValidationError("a form document must be a JSON object")
    if obj.get("schema") != FORM_SCHEMA:
        raise FormValidationError(f"schema must be {FORM_SCHEMA}")
    for key in ("n", "terms"):
        if key not in obj:
            raise FormValidationError(f'missing "{key}"')
    n = _int_field(obj["n"], '"n"')
    if n < 1:
        raise FormValidationError(f'"n" must be positive, got {n}')
    degree = _int_field(obj.get("degree", 3), '"degree"')
    if not isinstance(obj["terms"], list):
        raise FormValidationError('"terms" must be a list')
    terms = {}
    for idx, item in enumerate(obj["terms"]):
        if not (isinstance(item, dict) and isinstance(item.get("exps"), list) and "coef" in item):
            raise FormValidationError(f'term {idx}: needs an "exps" list and a "coef"')
        exps = tuple(_int_field(e, f"term {idx}: an exponent") for e in item["exps"])
        coef = _int_field(item["coef"], f'term {idx}: "coef"')
        if len(exps) != n:
            raise FormValidationError(
                f"term {idx}: exponent vector has length {len(exps)}, expected {n}",
                line=_find_line(text, json.dumps(item["exps"])),
            )
        if min(exps, default=0) < 0:
            raise FormValidationError(
                f"term {idx}: exponents must be nonnegative, got {list(exps)}",
                line=_find_line(text, json.dumps(item["exps"])),
            )
        if sum(exps) != degree:
            raise FormValidationError(
                f"term {idx}: degree {sum(exps)} != {degree}",
                line=_find_line(text, json.dumps(item["exps"])),
            )
        terms[exps] = terms.get(exps, 0) + coef
    poly = IntPolynomial(n, terms)
    split = None
    mode = None
    if obj.get("split"):
        s = obj["split"]
        line = _find_line(text, '"split"')
        if not (isinstance(s, dict) and isinstance(s.get("x_vars"), list)
                and isinstance(s.get("y_vars"), list)):
            raise FormValidationError('"split" needs "x_vars" and "y_vars" lists', line=line)
        mode = s.get("mode", "pi")
        if mode not in ("pi", "pi_prime"):
            raise FormValidationError(f'split mode must be "pi" or "pi_prime", got {mode!r}',
                                      line=line)
        if degree != 3:
            raise FormValidationError(f"a split needs a cubic form, got degree {degree}",
                                      line=line)
        try:
            split = VariableSplit(n, tuple(s["x_vars"]), tuple(s["y_vars"]))
        except (TypeError, ValueError) as e:
            raise FormValidationError(str(e), line=line)
        if mode == "pi_prime" and poly.block_degree(split.x_indices) > 1:
            raise FormValidationError("pi_prime split requires total x-degree <= 1", line=line)
    return FormDocument(n, poly, obj.get("name", ""), split, mode)


# ---------------------------------------------------------------------------
# counting series


@dataclass
class CountSeries:
    rows: List[Tuple[int, int]]          # (B, N(B)), monotone in B
    predicate: str                       # "primitive-box" | "fibration-lower-bound"
    samples: List[Tuple[int, ...]] = field(default_factory=list)
    per_B_fibres: Dict[int, int] = field(default_factory=dict)

    def __post_init__(self):
        for (b1, c1), (b2, c2) in zip(self.rows, self.rows[1:]):
            if b2 <= b1 or c2 < c1:
                raise ValueError("count series rows must have strictly increasing B "
                                 "and non-decreasing counts")

    def to_csv(self) -> str:
        lines = ["B,count,logB,logN"]
        for B, c in self.rows:
            logn = "" if c <= 0 else repr(math.log(c))
            lines.append(f"{B},{c},{math.log(B)!r},{logn}")
        return "\n".join(lines)


def brute_force_N(C: IntPolynomial, B_list: Sequence[int],
                  budget: int | None = None) -> CountSeries:
    """Exact primitive zero counts in the height box, one grid pass."""
    n = C.num_vars
    Bmax = max(B_list)
    lows = [-Bmax] * n
    highs = [Bmax] * n
    gridcount.check_budget(gridcount.box_point_count(lows, highs), budget)
    buckets = np.zeros(Bmax + 1, dtype=np.int64)
    for blo, vals in gridcount.eval_on_box(C, lows, highs, budget):
        hits = np.flatnonzero(vals == 0)
        if not hits.size:
            continue
        sel = np.stack(np.unravel_index(hits, vals.shape)) + np.array(blo)[:, None]
        g = np.zeros(sel.shape[1], dtype=np.int64)
        for i in range(n):
            g = np.gcd(g, np.abs(sel[i]))
        prim = g == 1
        if not prim.any():
            continue
        sel = sel[:, prim]
        height = np.abs(sel).max(axis=0)
        buckets += np.bincount(height, minlength=Bmax + 1)
    cum = np.cumsum(buckets)
    rows = [(B, int(cum[B])) for B in sorted(set(B_list))]
    return CountSeries(rows, "primitive-box")


@dataclass
class FibrationCountResult:
    series: CountSeries
    Y_values: Dict[int, int]
    label: str                           # "certified-lower-bound" | "sampling-lower-bound"
    spec: AdmissibleSetSpec


def default_Y_rule(B: int) -> int:
    """Y = B^(1 - 2 eps) rounded down, with eps = 1/20."""
    return max(1, int(B ** 0.9))


def fibration_count(
    C: IntPolynomial,
    split: VariableSplit,
    mode: str,
    B_list: Sequence[int],
    budget: int | None = None,
    spec: AdmissibleSetSpec | None = None,
) -> FibrationCountResult:
    """Lower bound for N(B) by summing per-fibre counts over the admissible y
    with Y = default_Y_rule(B); every counted point (x, y) is a primitive
    zero of C of height at most B.

    pi_prime (linear fibres, C = sum_j x_j Q_j(y) + R(y)): the fibres over
    the large-Q box are counted exactly, all fibres of a rung in one
    `hyperplane_counts` call (the first four with samples), and the rows
    are labeled "certified-lower-bound". pi (quadric fibres): the
    admissible y run over the unit box, and each fibre adds at most the one
    point `quadric_fibre_point` finds: a search of the widest box within
    min(B, 6) that holds at most 10^6 points (width 4 for six x-variables),
    widened only on a fibre of rank < 5 to the widest such box within
    min(B, 8) (min(B, 7) for five x-variables); the rows
    are labeled "sampling-lower-bound". A cubic with no x-nonsingular
    witness at a bad prime p up to v = 3 gets the empty box and the label
    "no x-nonsingular witness at p up to v = 3": a witness may need a larger v.

    The scaled box Y [lo, hi] with lo > 0 is not monotone in Y, so a larger
    B can admit fewer fibres. N(B) is non-decreasing, so each row reports
    the largest fibre sum up to its B, still a lower bound. per_B_fibres
    counts the fibres summed at each B; samples holds up to 16 distinct
    counted points, each checked to be a zero of C."""
    if mode not in ("pi", "pi_prime"):
        raise ValueError(f"mode must be pi or pi_prime, got {mode!r}")
    if mode == "pi_prime":
        q_list, R = linear_fibre_parts(C, split)
    else:
        F_list, q_list, R = split_cubic(C, split)
    label = "certified-lower-bound" if mode == "pi_prime" else "sampling-lower-bound"
    if spec is None:
        cond = build_conditions(C, split, mode, budget=budget)
        h = len(split.y_indices)
        if cond.insoluble_at is not None:
            # empty intervals: the spec admits nothing and charges nothing
            spec = AdmissibleSetSpec(h, [(Fraction(1), Fraction(-1))] * h, cond)
            label = f"no x-nonsingular witness at {cond.insoluble_at} up to v = 3"
        elif mode == "pi_prime":
            box = box_with_large_Q(next(q for q in q_list if not q.is_zero()), P=100)
            spec = AdmissibleSetSpec(h, box.intervals, cond, box_change=box.change)
        else:
            spec = AdmissibleSetSpec(h, [(Fraction(-1), Fraction(1))] * h, cond)
    rows = []
    samples: List[Tuple[int, ...]] = []
    Yvals = {}
    fibre_counts = {}
    best = 0
    for B in sorted(set(B_list)):
        Y = default_Y_rule(B)
        Yvals[B] = Y
        # (y, g) and the pi count or the pi_prime hyperplane of each fibre
        fibres, jobs = [], []
        for y in enumerate_admissible(spec, Y, budget):
            g = gcd(*y)
            if mode == "pi_prime":
                job = _linear_fibre(q_list, R, y, g, B, 3 if len(jobs) < 4 else 0)
            else:  # the fibre's search point, if of height <= B and gcd(x, g) = 1
                pt = quadric_fibre_point(fibre_polynomial(F_list, q_list, R, y), min(B, 8))
                ok = pt is not None and max(map(abs, pt)) <= B and gcd(*pt, g) == 1
                job = (1, [pt]) if ok else (0, [])
            if job is not None:
                fibres.append((y, g))
                jobs.append(job)
        if mode == "pi_prime":
            jobs = [(res.exact, res.samples) for res in hyperplane_counts(jobs)]
        total = 0
        for (y, g), (count, points) in zip(fibres, jobs):
            total += count
            for pt in points:
                if len(samples) < 16 and gcd(*pt, g) == 1:
                    full = [0] * split.n
                    for i, v in zip(split.x_indices + split.y_indices, (*pt, *y)):
                        full[i] = v
                    full = tuple(full)
                    if full in samples:
                        continue
                    if C.evaluate(full) != 0:
                        raise FalsificationAlarm(f"fibre sample {full} is not a zero of C")
                    samples.append(full)
        best = max(best, total)
        rows.append((B, best))
        fibre_counts[B] = len(fibres)
    series = CountSeries(rows, "fibration-lower-bound", samples=samples,
                         per_B_fibres=fibre_counts)
    return FibrationCountResult(series, Yvals, label, spec)


def _linear_fibre(q_list, R, y, g, B, sample_limit):
    """The `hyperplane_counts` item (a, b, B, g, sample_limit) of the linear
    fibre sum_j Q_j(y) x_j + R(y) = 0, or None when every Q_j(y) vanishes."""
    vals = [q.evaluate(list(y)) for q in q_list]
    if all(v == 0 for v in vals):
        return None
    d0 = gcd(*vals)
    rval = R.evaluate(list(y))
    if rval % d0:
        raise FalsificationAlarm(
            f"admissible y={y} is not locally soluble: {d0} does not divide R(y)={rval}")
    return [v // d0 for v in vals], rval // d0, B, g, sample_limit


# ---------------------------------------------------------------------------
# representation numbers of definite forms


@dataclass
class RepresentationCount:
    count: int
    by_divisor: Dict[int, int]           # d -> M_d
    inclusion_exclusion_ok: bool
    precondition_ok: bool


def _solutions_of_definite(solver: QuadraticSolvedLevels) -> np.ndarray:
    """All integer z with F(z) = N, as the rows of one array in enumeration
    order (int64, or object when a value does not fit): the exact-root leaf
    of the lattice kernel, no box scan, on solver, the levels of 2(F(z) - N)."""
    return enumerate_quadratics([(solver, 0)], roots=True)[0][1]


def representation_count_coprime(
    F: QuadraticPolynomial,
    xi: Sequence[int],
    N_target: int,
) -> RepresentationCount:
    """M(F, N) = #{x : gcd(x, 2 disc) = 1, F(x + xi) = N, |x| <= isqrt(N)},
    plus the Mobius decomposition over d | 2 disc.

    F must be definite (Sylvester): the leading principal minors of 2Q are
    all positive, or alternate in sign from a negative one. The sign comes
    from 2Q[0][0]; the minors of +-2Q are the pivots of one fraction-free
    elimination, the one `QuadraticSolvedLevels` runs, and must all be
    positive. The last pivot is |det(2Q)|; the pivots do not depend on B or
    N, so that one solver of 2(F(z) - N) also enumerates the roots."""
    if F.two_q[0][0] < 0:
        F = QuadraticPolynomial([[-v for v in row] for row in F.two_q], [-b for b in F.B], -F.N)
        N_target = -N_target
    try:
        disc = (solver := QuadraticSolvedLevels(F.two_q, F.B, 2 * (F.N - N_target))).levels[-1]["a"]
    except ValueError:
        raise ValueError("F must be definite") from None
    if N_target < 0:
        return RepresentationCount(0, {}, True, True)
    # Delta is det Q = det(2Q) / 2^m when that is an integer, else det(2Q);
    # the coprimality predicate gcd(x, 2 Delta) = 1 has the same prime support
    # either way
    delta = disc // 2 ** F.m if disc % 2 ** F.m == 0 else disc
    precondition_ok = (F.to_polynomial().evaluate(list(xi)) - N_target) % (2 * delta) == 0
    bound = isqrt(N_target) if N_target > 0 else 1
    # |x| = |z - xi| in int64 when no value can reach 2^63, else in Python
    # integers; then the solutions in the box by gcd(x, 2 disc), from one
    # class per distinct gcd(x): d | 2 disc divides x iff it divides that gcd
    z = _solutions_of_definite(solver)
    top = max(map(abs, xi)) + (max(-int(z.min()), int(z.max())) if len(z) else 0)
    if z.dtype == object or max(top, bound) >= 2 ** 63:
        x = np.abs(z.astype(object) - np.array([int(v) for v in xi], dtype=object))
    else:
        x = np.abs(z - np.array(xi, dtype=np.int64))
    g, counts = np.unique(np.gcd.reduce(x[(x <= bound).all(axis=1)], axis=1), return_counts=True)
    by_gcd = Counter()
    for gx, c in zip(g.tolist(), counts.tolist()):
        by_gcd[gcd(gx, 2 * disc)] += c
    divisors = squarefree_divisors(2 * disc)
    by_divisor = {d: sum(c for g, c in by_gcd.items() if g % d == 0) for d, _mu in divisors}
    count = by_gcd[1]
    mob = sum(mu * by_divisor[d] for d, mu in divisors)
    return RepresentationCount(count, by_divisor, mob == count, precondition_ok)


# ---------------------------------------------------------------------------
# exponent fits


@dataclass
class ExponentFit:
    slope: float
    intercept: float
    points_used: int


def fit_exponent(series: CountSeries) -> ExponentFit:
    """Ordinary least squares of log N(B) against log B."""
    pts = [(math.log(B), math.log(c)) for B, c in series.rows if c > 0]
    if len(pts) < 4:
        raise ValueError("need at least 4 positive counts")
    n = len(pts)
    sx = sum(p[0] for p in pts)
    sy = sum(p[1] for p in pts)
    sxx = sum(p[0] * p[0] for p in pts)
    sxy = sum(p[0] * p[1] for p in pts)
    slope = (n * sxy - sx * sy) / (n * sxx - sx * sx)
    intercept = (sy - slope * sx) / n
    return ExponentFit(slope, intercept, n)


@dataclass
class FitVerdict:
    passed: bool
    slope: float
    predicted: float
    slack: float


def compare_fit(fit: ExponentFit, predicted: float, slack: float = 0.5) -> FitVerdict:
    return FitVerdict(fit.slope >= predicted - slack, fit.slope, float(predicted), slack)


# ---------------------------------------------------------------------------
# reports

REPORT_SCHEMA = "cubefib-report-v1"


def config_hash(config: dict) -> str:
    return hashlib.sha256(json.dumps(config, sort_keys=True).encode()).hexdigest()[:16]


def build_report(config: dict, sections: dict) -> dict:
    return {
        "schema": REPORT_SCHEMA,
        "config_hash": config_hash(config),
        "config": config,
        "sections": sections,
    }


def report_to_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2, default=_json_default) + "\n"


def _json_default(obj):
    """A Fraction as {"num", "den"}; every other value of a report is plain
    JSON, and any other object is refused rather than written as a string."""
    if isinstance(obj, Fraction):
        return {"num": obj.numerator, "den": obj.denominator}
    raise TypeError(f"a report holds no {type(obj).__name__}")
