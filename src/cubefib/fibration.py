"""Structural analysis of split cubic forms: the matrix of linear forms
M[y], its rank over Q(y) by bordered minors, linear-block extraction,
degenerate-shape detectors, function-field rank classification of bilinear
bundles, the exact common factor of the order-3 minors, and point-count
dimension estimates.

Convention: the symbolic matrix carried around is M2[y] = 2 M[y], the
integer matrix of twice the fibre quadratic part; ranks, minors-vanishing
and common linear factors are insensitive to the doubling. Its entries and
minors are IntPolynomials in y.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from math import gcd, lcm, log
from typing import Dict, List, Optional, Sequence, Tuple

from . import gridcount
from .linalg import bareiss, congruence_diagonalize, rank_signature_over_Q, unimodular_split
from .nt import divisors
from .polynomials import IntPolynomial, VariableSplit


class FalsificationAlarm(RuntimeError):
    """A structural fact the code relies on appears violated: this is an
    arithmetic bug or bad input, never to be swallowed."""


# ---------------------------------------------------------------------------
# symbolic minors

# the largest matrix whose minors are expanded
_DIM_CAP = 12


def minor_det(entries: Sequence[Sequence[IntPolynomial]], rows: Tuple[int, ...],
              cols: Tuple[int, ...], memo: dict) -> IntPolynomial:
    """Determinant of the (rows x cols) submatrix, memoized across subsets."""
    key = (rows, cols)
    if key in memo:
        return memo[key]
    if len(rows) == 1:
        out = entries[rows[0]][cols[0]]
    else:
        out = IntPolynomial.zero(entries[0][0].num_vars)
        r0 = rows[0]
        rest = rows[1:]
        for idx, c in enumerate(cols):
            e = entries[r0][c]
            if e.is_zero():
                continue
            sub = minor_det(entries, rest, cols[:idx] + cols[idx + 1 :], memo)
            if sub.is_zero():
                continue
            out = out + e * sub if idx % 2 == 0 else out - e * sub
    memo[key] = out
    return out


def _at(M: Sequence[Sequence[IntPolynomial]], y: Sequence[int]) -> List[List[int]]:
    """The integer matrix of the polynomial matrix M at the point y."""
    return [[e.evaluate(y) for e in row] for row in M]


def _ratio(p: IntPolynomial, q: IntPolynomial) -> Optional[Fraction]:
    """The rational lam with p = lam * q, for a nonzero q, or None."""
    key = next(iter(q.terms))
    lam = Fraction(p.coefficient(key), q.terms[key])
    return lam if p * lam.denominator == q * lam.numerator else None


def _nonzero_minors(entries, size: int, memo: dict):
    """(rows, cols, det) of each nonzero size x size minor, rows and then
    cols in lexicographic order; matrices above _DIM_CAP are refused."""
    m = len(entries)
    if m > _DIM_CAP:
        raise ValueError(f"matrix dimension {m} exceeds the minor-enumeration cap {_DIM_CAP}")
    for rows in combinations(range(m), size):
        for cols in combinations(range(m), size):
            det = minor_det(entries, rows, cols, memo)
            if not det.is_zero():
                yield rows, cols, det


def all_minors_vanish(entries, size: int, memo: dict) -> Optional[Tuple]:
    """None if every size x size minor is the zero polynomial, else the
    first (rows, cols) with a nonzero minor."""
    for rows, cols, _ in _nonzero_minors(entries, size, memo):
        return rows, cols
    return None


# ---------------------------------------------------------------------------
# fibration data


@dataclass
class FibrationData:
    split: VariableSplit
    M2: List[List[IntPolynomial]]      # 2 * M[y], entries linear in y
    rank: int
    witness: Tuple[Tuple[int, ...], Tuple[int, ...], IntPolynomial]

    @property
    def m(self) -> int:
        return len(self.split.x_indices)

    @property
    def h(self) -> int:
        return len(self.split.y_indices)

    def M2_at(self, y: Sequence[int]) -> List[List[int]]:
        return _at(self.M2, y)

    def to_report(self) -> dict:
        rows, cols, poly = self.witness
        return {
            "m": self.m,
            "h": self.h,
            "rank": self.rank,
            "witness_rows": list(rows),
            "witness_cols": list(cols),
            "witness_minor": poly.to_text(),
        }


def split_cubic(C: IntPolynomial, split: VariableSplit):
    """Decompose C = sum_i y_i F_i(x) + sum_j x_j q_j(y) + R(y)."""
    if not C.is_homogeneous(3):
        raise ValueError("C must be a homogeneous cubic")
    split.validate_against(C)
    xs, ys = split.x_indices, split.y_indices
    xpos = {v: i for i, v in enumerate(xs)}
    ypos = {v: i for i, v in enumerate(ys)}
    m, h = len(xs), len(ys)
    F_terms: List[dict] = [dict() for _ in range(h)]
    q_terms: List[dict] = [dict() for _ in range(m)]
    R_terms: dict = {}
    for exps, coef in C.terms.items():
        xdeg = sum(exps[i] for i in xs)
        if xdeg == 3:
            raise ValueError(
                "split is not an h-decomposition: monomial of x-degree 3 present"
            )
        if xdeg == 2:
            (yvar,) = [v for v in ys if exps[v]]
            xe = tuple(exps[v] for v in xs)
            F_terms[ypos[yvar]][xe] = coef
        elif xdeg == 1:
            (xvar,) = [v for v in xs if exps[v]]
            ye = tuple(exps[v] for v in ys)
            q_terms[xpos[xvar]][ye] = coef
        else:
            ye = tuple(exps[v] for v in ys)
            R_terms[ye] = coef
    F_list = [IntPolynomial(m, t) for t in F_terms]
    q_list = [IntPolynomial(h, t) for t in q_terms]
    return F_list, q_list, IntPolynomial(h, R_terms)


def linear_fibre_parts(C: IntPolynomial, split: VariableSplit):
    """(q_list, R) of C = sum_j x_j q_j(y) + R(y), the pi_prime shape;
    ValueError when C has an x-quadratic part, whose fibres are quadrics."""
    F_list, q_list, R = split_cubic(C, split)
    if not all(f.is_zero() for f in F_list):
        raise ValueError("pi_prime mode needs fibres linear in x, "
                         "but C has a nonzero x-quadratic part")
    return q_list, R


def bundle_matrix(forms: Sequence[IntPolynomial]) -> List[List[IntPolynomial]]:
    """Twice the matrix of sum_i z_i forms[i](x): entry (a,b) is the linear
    form sum_i z_i * d^2 forms[i] / dx_a dx_b in z = (z_1, ..., z_k), k =
    len(forms). The F_i(x) of a split cubic give M2[y]; the psi_i(y) of
    Psi = sum x_i psi_i(y) give A2[x]."""
    if not forms:
        raise ValueError("empty bundle")
    m, nf = forms[0].num_vars, len(forms)
    entries: List[List[dict]] = [[dict() for _ in range(m)] for _ in range(m)]
    for i, F in enumerate(forms):
        ye = tuple(1 if j == i else 0 for j in range(nf))
        for exps, coef in F.terms.items():
            sup = [k for k, e in enumerate(exps) if e]
            if sum(exps) != 2:
                raise ValueError("bundle entries must be quadratic forms")
            if len(sup) == 1:
                a = sup[0]
                entries[a][a][ye] = entries[a][a].get(ye, 0) + 2 * coef
            else:
                a, b = sup
                entries[a][b][ye] = entries[a][b].get(ye, 0) + coef
                entries[b][a][ye] = entries[b][a].get(ye, 0) + coef
    return [[IntPolynomial(nf, e) for e in row] for row in entries]


def fibre_polynomial(F_list: Sequence[IntPolynomial], q_list: Sequence[IntPolynomial],
                     R: IntPolynomial, y: Sequence[int]) -> IntPolynomial:
    """The fibre F_y(x) = sum_i y_i F_i(x) + sum_j x_j q_j(y) + R(y) of the
    split cubic (F_list, q_list, R) = split_cubic(C, split) over the integer y."""
    m = len(q_list)
    terms: dict = {}
    for i, F in enumerate(F_list):
        for e, c in F.terms.items():
            v = c * y[i]
            if v:
                terms[e] = terms.get(e, 0) + v
    for j, q in enumerate(q_list):
        e = tuple(1 if t == j else 0 for t in range(m))
        v = q.evaluate(y)
        if v:
            terms[e] = terms.get(e, 0) + v
    rv = R.evaluate(y)
    if rv:
        zero = tuple([0] * m)
        terms[zero] = terms.get(zero, 0) + rv
    return IntPolynomial(m, terms)


def fibration_rank(
    M2: List[List[IntPolynomial]], h: int
) -> Tuple[int, Tuple[Tuple[int, ...], Tuple[int, ...], IntPolynomial]]:
    """Rank of M[y] over Q(y) and a nonzero minor (rows, cols, det) of that
    order, by bordering.

    Starting from the empty minor, the current nonzero minor gains one more
    row i and column j, the first (i, j) in lexicographic order whose
    bordered minor is not identically zero, until every bordering minor
    vanishes. By Kronecker's bordered-minor theorem over the field Q(y),
    the order reached is the rank.
    """
    m = len(M2)
    if m > _DIM_CAP:
        raise ValueError(f"matrix dimension {m} exceeds the minor-enumeration cap {_DIM_CAP}")
    memo: dict = {}
    rows, cols, det = (), (), IntPolynomial.constant(h, 1)
    while True:
        for i, j in product(range(m), repeat=2):
            if i not in rows and j not in cols:
                bordered = tuple(sorted(rows + (i,))), tuple(sorted(cols + (j,)))
                bordered_det = minor_det(M2, *bordered, memo)
                if not bordered_det.is_zero():
                    (rows, cols), det = bordered, bordered_det
                    break
        else:
            return len(rows), (rows, cols, det)


def build_fibration(C: IntPolynomial, split: VariableSplit) -> FibrationData:
    M2 = bundle_matrix(split_cubic(C, split)[0])
    return FibrationData(split, M2, *fibration_rank(M2, len(split.y_indices)))


# ---------------------------------------------------------------------------
# linear-block extraction (rank-deficient bundles)


@dataclass
class LinearBlockResult:
    block_size: int                  # n - h - r certified linear variables
    certificate: List[List[IntPolynomial]]  # the (i,j > r) entries, all zero


def _bundle_normal_form(M, r: int, minor: IntPolynomial):
    """S^t M S for the bundle M of verified rank r over Q(y), whose order-r
    minor `minor` is not identically zero.

    M is diagonalised at c, the first point of {0..r}^h where the minor is
    nonzero. It exists because the minor has degree <= r in each variable,
    and such a nonzero polynomial cannot vanish on the whole grid (Alon,
    Combinatorial Nullstellensatz, 1999); so rank M[c] = r. S, a
    nonsingular integer matrix, diagonalises M[c] with its r nonzero
    pivots first; as the bundle has rank r, every entry of S^t M[y] S past
    row and column r must vanish identically."""
    c = next((c for c in product(range(r + 1), repeat=minor.num_vars) if minor.evaluate(c)), None)
    if c is None:
        raise FalsificationAlarm(f"the order-{r} witness minor vanishes on the grid {{0..{r}}}^h")
    t, diag = congruence_diagonalize(_at(M, c))
    if sum(1 for d in diag if d != 0) != r:
        raise FalsificationAlarm("diagonalized combination lost rank")
    den = lcm(*(v.denominator for row in t for v in row))
    S = [[int(v * den) for v in row] for row in t]
    if bareiss(S).det == 0:
        raise FalsificationAlarm("the diagonalizing change of variables is singular")
    zero = IntPolynomial.zero(M[0][0].num_vars)

    def dot(polys, ints):
        return sum((p * k for p, k in zip(polys, ints) if k), zero)

    MS_cols = list(zip(*[[dot(row, col) for col in zip(*S)] for row in M]))
    # (S^t M S)[i][j] = <column i of S, column j of M S>
    SMS = [[dot(MS_col, S_col) for MS_col in MS_cols] for S_col in zip(*S)]
    for i, j in product(range(r, len(M)), repeat=2):
        if not SMS[i][j].is_zero():
            offender = all_minors_vanish(M, r + 1, {})
            raise FalsificationAlarm(
                f"second partial ({i},{j}) nonzero after reduction; "
                f"an order-{r + 1} minor must be nonzero (found {offender}), "
                "contradicting the verified rank"
            )
    return SMS


def extract_linear_block(fd: FibrationData) -> LinearBlockResult:
    """The n-h-r x-variables that occur only linearly after a change of the
    x-variables; certified by the vanishing of the corresponding second
    partials as polynomials."""
    m, r = fd.m, fd.rank
    if r >= m:
        return LinearBlockResult(0, [])
    if r == 0:
        return LinearBlockResult(m, [list(row) for row in fd.M2])
    transformed = _bundle_normal_form(fd.M2, r, fd.witness[2])
    return LinearBlockResult(m - r, [row[r:] for row in transformed[r:]])


# ---------------------------------------------------------------------------
# Hypothesis-1 detector


@dataclass
class H1Result:
    holds: bool
    l: Optional[IntPolynomial]               # the common linear form in y: 2 M[y] = l(y) N1,
                                             # N1 a constant matrix
    F_definite_full: Optional[bool]          # semidefinite of full rank n-h
    signature: Optional[Tuple[int, int, int]]
    certificate: Optional[IntPolynomial]     # 2 Q_y - l * (x^t N1 x), must be 0
    reason: str = ""


def detect_hypothesis_h1(fd: FibrationData) -> H1Result:
    """True iff all entries of M[y] are rational multiples of one linear form
    and the resulting constant matrix is semidefinite of rank r."""
    m, h, r = fd.m, fd.h, fd.rank
    pivot = next((e for row in fd.M2 for e in row if not e.is_zero()), None)
    if pivot is None:
        return H1Result(False, None, None, None, None, "zero bundle")
    l = _primitive(pivot)
    # every entry a rational multiple of l
    ratios = [[Fraction(0)] * m for _ in range(m)]
    for i, j in product(range(m), repeat=2):
        e = fd.M2[i][j]
        if not e.terms.keys() <= l.terms.keys():
            return H1Result(False, None, None, None, None,
                            "entry support exceeds the candidate line")
        ratios[i][j] = _ratio(e, l)
        if ratios[i][j] is None:
            return H1Result(False, None, None, None, None,
                            "entries are not proportional to a single linear form")
    N1 = tuple(map(tuple, ratios))
    rank, pos, neg = rank_signature_over_Q(N1)
    if rank != r:
        return H1Result(False, l, None, (rank, pos, neg), None,
                        f"factor matrix has rank {rank} != fibration rank {r}")
    semidefinite = pos == 0 or neg == 0
    if not semidefinite:
        return H1Result(False, l, False, (rank, pos, neg), None,
                        "factor matrix is indefinite")
    # certificate: 2 Q_y(x) == l(y) * x^t N1 x after clearing denominators,
    # in the variables (x, y)
    den = lcm(*(v.denominator for row in N1 for v in row))
    n_all = m + h
    xs = [IntPolynomial.variable(n_all, i) for i in range(m)]
    ys = [IntPolynomial.variable(n_all, m + k) for k in range(h)]
    zero = IntPolynomial.zero(n_all)
    lhs = sum((xs[i] * xs[j] * fd.M2[i][j].substitute_polys(ys)
               for i in range(m) for j in range(m)), zero) * den
    rhs = l.substitute_polys(ys) * sum((xs[i] * xs[j] * int(N1[i][j] * den)
                                        for i in range(m) for j in range(m)), zero)
    cert = lhs - rhs
    if not cert.is_zero():
        raise FalsificationAlarm("H1 certificate failed after proportionality checks")
    return H1Result(True, l, rank == m, (rank, pos, neg), cert, "")


# ---------------------------------------------------------------------------
# rational linear factors of quadratic and cubic forms


def _restrict_to_pencil(poly: IntPolynomial, u: Sequence[int], w: Sequence[int]) -> List[int]:
    """Coefficients of the form poly(s*u + t*w) as a binary form in (s, t),
    listed by increasing degree in t."""
    images = [IntPolynomial.linear_form([ui, wi]) for ui, wi in zip(u, w)]
    coeffs = [0] * (poly.total_degree() + 1)
    for (_, et), c in poly.substitute_polys(images).terms.items():
        coeffs[et] += c
    return coeffs


def _rational_roots(a: Sequence[int]) -> List[Fraction]:
    """The distinct rational roots of sum_k a[k] s^k, a[-1] != 0, by the
    rational root theorem: 0 if a[0] = 0, and +-p/q with q | a[-1] and p |
    the lowest nonzero coefficient."""
    low = next(k for k, c in enumerate(a) if c)
    d = len(a) - 1
    roots = {Fraction(r, q) for q in divisors(a[-1]) for p in divisors(a[low]) for r in (p, -p)
             if sum(c * r ** k * q ** (d - k) for k, c in enumerate(a)) == 0}
    return sorted(roots | ({Fraction(0)} if low else set()))


def _form_from_rationals(coeffs: Sequence[Fraction]) -> IntPolynomial:
    """The primitive integer linear form proportional to sum coeffs[j] y_j."""
    den = lcm(*(v.denominator for v in coeffs))
    return _primitive(IntPolynomial.linear_form([int(v * den) for v in coeffs]))


def linear_factors(f: IntPolynomial) -> List[IntPolynomial]:
    """The distinct rational linear factors of a homogeneous form f of degree
    2 or 3, primitive with first nonzero coefficient positive, sorted by
    coefficient vector.

    Every factor l is nonzero at the first v in {0..d}^h with f(v) != 0
    (a nonzero form of degree d cannot vanish on that grid); normalised to
    l(v) = 1, its coefficient c_i = l(e_i) is minus a rational root of the
    degree-d polynomial f(s v + e_i) in s. The c_i are chosen one at a
    time, a partial l kept only if it divides f on span(v, e_0..e_i), so at
    most d partials survive each step; each full candidate with l(v) = 1
    must pass `divides_form`.
    """
    d = f.total_degree()
    if d not in (2, 3) or not f.is_homogeneous(d):
        raise ValueError("nonzero homogeneous form of degree 2 or 3 required")
    h = f.num_vars
    v = next(u for u in product(range(d + 1), repeat=h) if f.evaluate(list(u)))
    partials: List[Tuple[Fraction, ...]] = [()]
    for i in range(h):
        if not partials:
            return []
        e_i = [int(j == i) for j in range(h)]
        roots = _rational_roots(_restrict_to_pencil(f, v, e_i)[::-1])
        partials = [c + (-r,) for c in partials for r in roots]
        if i < h - 1:
            # f on span(v, e_0..e_i), in the variables (s, t_0..t_i)
            span = f.substitute_polys([IntPolynomial.linear_form(
                [v[k]] + [int(j == k) for j in range(i + 1)]) for k in range(h)])
            partials = [c for c in partials
                        if divides_form(_form_from_rationals((Fraction(1),) + c), span)]
    factors = [_form_from_rationals(c) for c in partials
               if sum(ci * vi for ci, vi in zip(c, v)) == 1]
    return sorted((l for l in factors if divides_form(l, f)),
                  key=lambda l: _linear_coefficients(l)[0])


def common_linear_factor(forms: Sequence[IntPolynomial]) -> Optional[IntPolynomial]:
    """The first linear factor of the sparsest nonzero form that divides
    every form, or None."""
    nonzero = [q for q in forms if not q.is_zero()]
    if not nonzero:
        raise ValueError("degenerate input: all forms vanish")
    pivot = min(nonzero, key=lambda q: len(q.terms))
    return next((l for l in linear_factors(pivot)
                 if all(divides_form(l, q) for q in nonzero)), None)


def _linear_coefficients(l: IntPolynomial) -> Tuple[List[int], int]:
    """The coefficients of the linear form l and the index of the first
    nonzero one."""
    n = l.num_vars
    coeffs = [l.coefficient(tuple(1 if i == j else 0 for i in range(n))) for j in range(n)]
    return coeffs, next(j for j, c in enumerate(coeffs) if c)


def _primitive(f: IntPolynomial) -> IntPolynomial:
    """The nonzero form f divided by its content, its leading coefficient
    (of the grlex-first term, the first line of `to_text`) made positive;
    for a linear form, its first nonzero coefficient."""
    g = f.content() * (1 if f.sorted_terms()[0][1] > 0 else -1)
    return IntPolynomial(f.num_vars, {e: c // g for e, c in f.terms.items()})


def divides_form(l: IntPolynomial, f: IntPolynomial) -> bool:
    """Whether the linear form l divides the homogeneous form f: f restricted
    to the hyperplane l = 0 must vanish, checked by an integral substitution."""
    if l.total_degree() != 1:
        raise ValueError("divisor must be linear")
    n = f.num_vars
    coeffs, piv = _linear_coefficients(l)
    lp = coeffs[piv]
    images = []
    for j in range(n):
        if j == piv:
            images.append(
                IntPolynomial.linear_form([-c if i != piv else 0 for i, c in enumerate(coeffs)])
            )
        else:
            images.append(IntPolynomial.variable(n, j, lp))
    return f.substitute_polys(images).is_zero()


def divide_form_by_linear(f: IntPolynomial, l: IntPolynomial) -> Tuple[IntPolynomial, int]:
    """(quotient, den) with l * quotient = den * f and gcd(content, den) = 1,
    for a homogeneous f divisible by the linear l over Q.

    Long division along the pivot variable of l, of f scaled by |l_piv|^(deg
    f - 1), which makes the quotient integral (Gauss's lemma)."""
    coeffs, piv = _linear_coefficients(l)
    lp = coeffs[piv]
    scale = abs(lp) ** max(f.total_degree() - 1, 0)
    remainder = {e: c * scale for e, c in f.terms.items()}
    quotient: dict = {}
    while remainder:
        # take the term with the highest pivot-degree
        e = max(remainder, key=lambda t: (t[piv], t))
        qc, rest = divmod(remainder[e], lp)
        qe = list(e)
        qe[piv] -= 1
        if rest or qe[piv] < 0:
            raise ArithmeticError("division left a remainder; l does not divide f")
        quotient[tuple(qe)] = qc
        for j, lc in enumerate(coeffs):
            if lc:
                te = list(qe)
                te[j] += 1
                key = tuple(te)
                s = remainder.get(key, 0) - qc * lc
                if s:
                    remainder[key] = s
                else:
                    remainder.pop(key, None)
    g = gcd(scale, *quotient.values())
    return IntPolynomial(f.num_vars, {e: c // g for e, c in quotient.items()}), scale // g


@dataclass
class CommonFactorResult:
    factor: Optional[IntPolynomial]
    cofactors: List[Tuple[IntPolynomial, int]]   # (linear form, denominator) per Q_i
    verified: bool


def detect_common_linear_factor_Qi(
    C: IntPolynomial, split: VariableSplit
) -> Optional[CommonFactorResult]:
    """For C = sum x_i Q_i(y) + R(y): a linear form dividing every Q_i, with
    the certified cofactors, or None."""
    q_list, _ = linear_fibre_parts(C, split)
    l = common_linear_factor(q_list)
    if l is None:
        return None
    cofs = []
    for q in q_list:
        if q.is_zero():
            cofs.append((IntPolynomial.zero(q.num_vars), 1))
        else:
            quo, den = divide_form_by_linear(q, l)
            if l * quo != q * den:
                raise FalsificationAlarm("common factor times its cofactor "
                                         "is not den * Q_i")
            cofs.append((quo, den))
    return CommonFactorResult(l, cofs, True)


# ---------------------------------------------------------------------------
# function-field rank classification of x-linear, y-quadratic bundles


@dataclass
class Rank2Shape:
    shape: str                        # "option1" | "exps2psi" | "integral" | "low-rank"
    rank_over_K: int
    kappa: Optional[Fraction] = None
    delta_relations_ok: Optional[bool] = None
    notes: str = ""


def _psi_independent(psi_list: Sequence[IntPolynomial]) -> bool:
    """Linear independence over Q of the coefficient vectors (x-nondegeneracy)."""
    keys = sorted({e for psi in psi_list for e in psi.terms})
    if not keys:
        return False
    return bareiss([[psi.terms.get(e, 0) for e in keys] for psi in psi_list]).rank == len(psi_list)


def classify_rank2_bundle(psi_list: Sequence[IntPolynomial]) -> Rank2Shape:
    """Classify Psi = sum x_i psi_i(y) by its rank over K = Q(x).

    rank >= 3 with irreducible, x-nondegenerate Psi reports the
    geometrically-integral branch; rank 2 is matched against the two
    normal forms, extracting kappa and verifying the factorization and the
    Delta-relations symbolically. A rank-2 bundle matching neither shape
    raises FalsificationAlarm.
    """
    v = len(psi_list)
    my = psi_list[0].num_vars
    A2 = bundle_matrix(psi_list)
    rank, witness = fibration_rank(A2, v)
    if rank >= 3:
        nondeg = _psi_independent(psi_list)
        # rank >= 3 over K: some psi_i is nonzero
        nonzero = [p for p in psi_list if not p.is_zero()]
        reducible = (common_linear_factor(psi_list) is not None
                     or all(_ratio(p, nonzero[0]) is not None for p in nonzero[1:]))
        if nondeg and not reducible and v >= 4:
            return Rank2Shape("integral", rank, notes="irreducible, x-nondegenerate, rank >= 3")
        return Rank2Shape(
            "integral" if not reducible else "low-rank",
            rank,
            notes="rank >= 3"
            + ("" if nondeg else "; x-degenerate")
            + ("; reducible over Q" if reducible else "")
            + ("; needs v >= 4 for the integrality conclusion" if v < 4 else ""),
        )
    if rank < 2:
        return Rank2Shape("low-rank", rank, notes="rank over K below 2")

    At = _bundle_normal_form(A2, 2, witness[2])
    a00, a01, a11 = At[0][0], At[0][1], At[1][1]
    S = [i for i in range(2, my) if not (At[0][i].is_zero() and At[1][i].is_zero())]
    if not S:
        return Rank2Shape("option1", 2, notes="depends on two y-variables after the change")
    # Schur quantities D(i,j) = a00 a_ij - a0i a0j for the matrix convention;
    # rank 2 with a00 in K^* forces D(1,1) D(i,j) = D(1,i) D(1,j)
    deltas = {i: a00 * At[1][i] - a01 * At[0][i] for i in range(2, my)}
    # kappa from a_{1i} = kappa a_{0i} on S, constant across S
    kappa = None
    for i in S:
        if At[0][i].is_zero():
            raise FalsificationAlarm("rank-2 bundle: a1i nonzero with a0i zero")
        cand = _ratio(At[1][i], At[0][i])
        if cand is None:
            raise FalsificationAlarm("rank-2 bundle: a1i not proportional to a0i")
        if kappa not in (None, cand):
            raise FalsificationAlarm("rank-2 bundle: kappa differs across S")
        kappa = cand
    kn, kd = kappa.numerator, kappa.denominator
    # a11 = 2 kappa a01 - kappa^2 a00 (the constant-factor condition)
    if a11 * (kd * kd) != a01 * (2 * kn * kd) - a00 * (kn * kn):
        raise FalsificationAlarm("rank-2 bundle: a11 != 2 kappa a01 - kappa^2 a00")
    # Delta relations D(1,1) D(i,j) = D(1,i) D(1,j) for i, j >= 2
    d11 = a00 * a11 - a01 * a01
    for i in range(2, my):
        for j in range(2, my):
            if d11 * (a00 * At[i][j] - At[0][i] * At[0][j]) != deltas[i] * deltas[j]:
                raise FalsificationAlarm("rank-2 bundle: Delta relations fail")
    # factorization identity: kd^2 y^t At y ==
    #   (kd y0 + kn y1)(kd a00 y0 + (2 kd a01 - kn a00) y1 + 2 kd sum a0i y_i)
    # in the variables (x, y)
    nv = v + my
    xs = [IntPolynomial.variable(nv, k) for k in range(v)]
    ys = [IntPolynomial.variable(nv, v + i) for i in range(my)]
    lift = [[e.substitute_polys(xs) for e in row] for row in At]
    quad = sum((lift[i][j] * ys[i] * ys[j] for i in range(my) for j in range(my)),
               IntPolynomial.zero(nv))
    left = ys[0] * kd + ys[1] * kn
    inner = (lift[0][0] * ys[0] * kd + (lift[0][1] * (2 * kd) - lift[0][0] * kn) * ys[1]
             + sum((lift[0][i] * ys[i] for i in S), IntPolynomial.zero(nv)) * (2 * kd))
    if quad * (kd * kd) != left * inner:
        raise FalsificationAlarm("rank-2 factorization identity failed")
    return Rank2Shape("exps2psi", 2, kappa=kappa, delta_relations_ok=True)


# ---------------------------------------------------------------------------
# order-3 minors: their common factor and the codimension probe


@dataclass
class Order3FactorResult:
    status: str                       # "factor-found" (linear) | "nonlinear-factor" |
                                      # "no-common-factor"
    factor: Optional[IntPolynomial]   # primitive, leading coefficient positive
    slice_rank_ok: Optional[bool]     # order-3 minors vanish on the z1 = 0 slice
    nonzero_minors: int
    codim_probe: Optional[dict]


def order3_minors(M2: List[List[IntPolynomial]]) -> List[IntPolynomial]:
    """The nonzero order-3 minors of M2."""
    return [det for _, _, det in _nonzero_minors(M2, 3, {})]


def order3_minor_common_factor(fd: FibrationData, budget: int | None = None) -> Order3FactorResult:
    """The common factor of the order-3 minors: a linear one with the
    normalized bundle certificate, else an irreducible quadric or cubic,
    else none; and a point-count probe of the minor variety."""
    if fd.rank < 3:
        raise ValueError("order-3 minors require fibration rank >= 3")
    minors = order3_minors(fd.M2)
    if not minors:
        raise FalsificationAlarm("rank >= 3 but no nonzero order-3 minor")
    factor = common_linear_factor(minors)
    probe = _codim_probe(minors, fd.h, budget)
    if factor is not None:
        # unimodular V with factor(V z) = z_0 (the factor is primitive)
        V = unimodular_split([_linear_coefficients(factor)[0]])[1]
        slice_ok = _slice_minors_vanish(fd.M2, V)
        if not slice_ok:
            raise FalsificationAlarm("factor found but the y1 = 0 slice keeps rank >= 3")
        return Order3FactorResult("factor-found", factor, slice_ok, len(minors), probe)
    factor = _nonlinear_common_factor(minors)
    status = "no-common-factor" if factor is None else "nonlinear-factor"
    return Order3FactorResult(status, factor, None, len(minors), probe)


def _nonlinear_common_factor(minors: List[IntPolynomial]) -> Optional[IntPolynomial]:
    """The common factor of nonzero cubic forms that share no linear factor,
    primitive, or None.

    Such a factor has no linear factor, so it is irreducible over Q: a cubic
    is then the first form q0 itself, which every form is proportional to;
    a quadric is q0 / l for a linear factor l of q0, and equals each other
    form divided by one of its own linear factors."""
    q0, rest = minors[0], minors[1:]
    if all(_ratio(q, q0) is not None for q in rest):
        return _primitive(q0)
    for l in linear_factors(q0):
        quadric = divide_form_by_linear(q0, l)[0]
        if all(any(_ratio(divide_form_by_linear(q, k)[0], quadric) is not None
                   for k in linear_factors(q)) for q in rest):
            return _primitive(quadric)
    return None


def _slice_minors_vanish(M2, V) -> bool:
    """All order-3 minors of M2[V z] vanish identically on z_1 = 0, for
    the unimodular matrix V."""
    # y_k = sum_s V[k][s] z_s with z_0 = 0 (the slice)
    images = [IntPolynomial.linear_form((0,) + row[1:]) for row in V]
    transformed = [[e.substitute_polys(images) for e in row] for row in M2]
    return all_minors_vanish(transformed, 3, {}) is None


def _dimension_estimate(counts: Dict[int, Optional[int]], empty: int) -> int:
    """round(mean of log_p c) over the primes p with a positive count c, or
    empty when there is none: c ~ p^dim for a variety of dimension dim."""
    logs = [log(c) / log(p) for p, c in counts.items() if c]
    return round(sum(logs) / len(logs)) if logs else empty


def _codim_probe(minors: List[IntPolynomial], h: int, budget) -> dict:
    probe_primes = (101, 211) if h <= 3 else ((31, 37) if h == 4 else (11, 13))
    counts = {}
    for p in probe_primes:
        try:
            counts[p] = gridcount.count_system_zeros_mod_p(minors, p, budget)
        except gridcount.BudgetExceeded:
            counts[p] = None
    est_dim = _dimension_estimate(counts, 0)
    return {"primes": list(probe_primes), "counts": counts,
            "estimated_dim": est_dim, "estimated_codim": h - est_dim}


# ---------------------------------------------------------------------------
# probes and box counts


@dataclass
class SingularLocusProbe:
    estimate: int
    counts: Dict[int, int]


def singular_locus_dim_probe(
    f: IntPolynomial, primes: Sequence[int] = (11, 13, 17)
) -> SingularLocusProbe:
    """Estimated affine dimension of {grad f = 0} from F_p point counts.

    A heuristic estimate, never a proof: the counts c ~ p^dim at the given
    primes are fitted by rounding the mean of log_p(c).
    """
    if f.is_zero():
        raise ValueError("zero form")
    grads = f.gradient()
    counts = {p: gridcount.count_system_zeros_mod_p(grads, p) for p in primes}
    return SingularLocusProbe(_dimension_estimate(counts, -1), counts)
