"""Exact multivariate polynomials with integer coefficients.

This is the carrier type for every form in the package: cubic forms,
quadratic fibre polynomials, matrix-of-linear-forms entries, minors.
Coefficients are Python ints (arbitrary precision), monomials are
exponent tuples, and the canonical term order is graded lexicographic
(total degree first, then lex, largest first).

All values here are immutable after construction and all operations are
pure, so they are safe to share across threads or processes without
synchronization.
"""

from __future__ import annotations

from functools import cache
from math import gcd
from operator import add
from typing import Dict, Iterable, Sequence, Tuple

Monomial = Tuple[int, ...]


def _grlex_key(exps: Monomial):
    return (sum(exps), exps)


def _add_into(acc: Dict[Monomial, int], terms: Dict[Monomial, int], scale: int = 1):
    """acc += scale * terms in place, dropping the coefficients that cancel."""
    for e, c in terms.items():
        s = acc.get(e, 0) + scale * c
        if s:
            acc[e] = s
        elif e in acc:
            del acc[e]


class IntPolynomial:
    """Immutable multivariate polynomial over Z."""

    __slots__ = ("num_vars", "terms")

    def __init__(self, num_vars: int, terms: Dict[Monomial, int] | None = None):
        if num_vars < 0:
            raise ValueError("num_vars must be >= 0")
        clean: Dict[Monomial, int] = {}
        for exps, coef in (terms or {}).items():
            exps = tuple(int(e) for e in exps)
            if len(exps) != num_vars:
                raise ValueError(f"exponent vector {exps} has wrong length, expected {num_vars}")
            if any(e < 0 for e in exps):
                raise ValueError(f"negative exponent in {exps}")
            coef = int(coef)
            if coef:
                clean[exps] = clean.get(exps, 0) + coef
                if clean[exps] == 0:
                    del clean[exps]
        object.__setattr__(self, "num_vars", num_vars)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, *a):
        raise AttributeError("IntPolynomial is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def _normalised(cls, num_vars: int, terms: Dict[Monomial, int]) -> "IntPolynomial":
        """Wrap terms that are already normalised (int tuples of length
        num_vars, no zero coefficient) without copying or checking them: the
        constructor for arithmetic results. Outside input goes through
        IntPolynomial(num_vars, terms)."""
        p = object.__new__(cls)
        object.__setattr__(p, "num_vars", num_vars)
        object.__setattr__(p, "terms", terms)
        return p

    @classmethod
    @cache
    def zero(cls, num_vars: int) -> "IntPolynomial":
        """The zero polynomial, one shared instance per variable count: the
        minor expansion asks for many."""
        return cls(num_vars)

    @classmethod
    def constant(cls, num_vars: int, c: int) -> "IntPolynomial":
        return cls(num_vars, {tuple([0] * num_vars): int(c)} if c else {})

    @classmethod
    def variable(cls, num_vars: int, i: int, coef: int = 1) -> "IntPolynomial":
        if not 0 <= i < num_vars:
            raise ValueError("variable index out of range")
        exps = [0] * num_vars
        exps[i] = 1
        return cls(num_vars, {tuple(exps): coef})

    @classmethod
    def linear_form(cls, coeffs: Sequence[int]) -> "IntPolynomial":
        n = len(coeffs)
        terms = {}
        for i, c in enumerate(coeffs):
            if c:
                e = [0] * n
                e[i] = 1
                terms[tuple(e)] = int(c)
        return cls(n, terms)

    # -- structure ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        """Degree of the zero polynomial is -1 by convention here."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def block_degree(self, indices: Iterable[int]) -> int:
        """Max total degree in the given variable block."""
        idx = tuple(indices)
        if not self.terms:
            return -1
        return max(sum(e[i] for i in idx) for e in self.terms)

    def is_homogeneous(self, degree: int | None = None) -> bool:
        degs = {sum(e) for e in self.terms}
        if not degs:
            return True
        if len(degs) > 1:
            return False
        return degree is None or degs == {degree}

    def coefficient(self, exps: Sequence[int]) -> int:
        return self.terms.get(tuple(exps), 0)

    def content(self) -> int:
        """GCD of all coefficients; 0 for the zero polynomial."""
        return gcd(*self.terms.values())

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: _grlex_key(kv[0]), reverse=True)

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other: "IntPolynomial") -> "IntPolynomial":
        self._check(other)
        terms = dict(self.terms)
        _add_into(terms, other.terms)
        return IntPolynomial._normalised(self.num_vars, terms)

    def __sub__(self, other: "IntPolynomial") -> "IntPolynomial":
        self._check(other)
        terms = dict(self.terms)
        _add_into(terms, other.terms, -1)
        return IntPolynomial._normalised(self.num_vars, terms)

    def __neg__(self) -> "IntPolynomial":
        return self * -1

    def __mul__(self, other) -> "IntPolynomial":
        if isinstance(other, int):
            if other == 0:
                return IntPolynomial.zero(self.num_vars)
            return IntPolynomial._normalised(
                self.num_vars, {e: c * other for e, c in self.terms.items()})
        self._check(other)
        out: Dict[Monomial, int] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(map(add, e1, e2))
                s = out.get(e, 0) + c1 * c2
                if s:
                    out[e] = s
                elif e in out:
                    del out[e]
        return IntPolynomial._normalised(self.num_vars, out)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "IntPolynomial":
        if k < 0:
            raise ValueError("negative power")
        result = IntPolynomial.constant(self.num_vars, 1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, IntPolynomial)
            and self.num_vars == other.num_vars
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.num_vars, frozenset(self.terms.items())))

    def _check(self, other: "IntPolynomial"):
        if not isinstance(other, IntPolynomial):
            raise TypeError(f"expected IntPolynomial, got {type(other)!r}")
        if other.num_vars != self.num_vars:
            raise ValueError("num_vars mismatch")

    # -- evaluation ---------------------------------------------------

    def evaluate(self, point: Sequence[int]) -> int:
        """The value at point; exact on integer and on Fraction points."""
        if len(point) != self.num_vars:
            raise ValueError(f"point has length {len(point)}, expected {self.num_vars}")
        total = 0
        for exps, coef in self.terms.items():
            v = coef
            for x, e in zip(point, exps):
                if e:
                    v *= x ** e
            total += v
        return total

    def evaluate_mod(self, point: Sequence[int], q: int) -> int:
        if len(point) != self.num_vars:
            raise ValueError("dimension mismatch")
        total = 0
        for exps, coef in self.terms.items():
            v = coef % q
            for x, e in zip(point, exps):
                if e:
                    v = (v * pow(x % q, e, q)) % q
            total = (total + v) % q
        return total

    # -- calculus and substitution ------------------------------------

    def derivative(self, var: int) -> "IntPolynomial":
        out: Dict[Monomial, int] = {}
        for exps, coef in self.terms.items():
            e = exps[var]
            if e:
                ne = list(exps)
                ne[var] = e - 1
                out[tuple(ne)] = coef * e
        return IntPolynomial._normalised(self.num_vars, out)

    def gradient(self) -> list["IntPolynomial"]:
        return [self.derivative(i) for i in range(self.num_vars)]

    def substitute_polys(self, images: Sequence["IntPolynomial"]) -> "IntPolynomial":
        """p(images[0], ..., images[n-1]); all images share a variable count."""
        if len(images) != self.num_vars:
            raise ValueError("need one image per variable")
        if self.num_vars == 0:
            m = 0
        else:
            m = images[0].num_vars
        for q in images:
            if q.num_vars != m:
                raise ValueError("images must share num_vars")
        out: Dict[Monomial, int] = {}
        # cache powers per variable
        pow_cache: list[dict[int, IntPolynomial]] = [dict() for _ in range(self.num_vars)]
        one = IntPolynomial.constant(m, 1)
        for exps, coef in self.terms.items():
            term = one
            for i, e in enumerate(exps):
                if not e:
                    continue
                if e not in pow_cache[i]:
                    pow_cache[i][e] = images[i] ** e
                term = term * pow_cache[i][e]
            _add_into(out, term.terms, coef)
        return IntPolynomial._normalised(m, out)

    # -- serialization ------------------------------------------------

    def to_text(self) -> str:
        """One term per line, "coef e1 e2 ... ek", sorted grlex-descending."""
        lines = []
        for exps, coef in self.sorted_terms():
            lines.append(" ".join([str(coef)] + [str(e) for e in exps]))
        return "\n".join(lines)

    def __repr__(self):
        if not self.terms:
            return f"IntPolynomial({self.num_vars}, 0)"
        bits = []
        for exps, coef in self.sorted_terms()[:8]:
            mono = "*".join(f"x{i}^{e}" if e > 1 else f"x{i}" for i, e in enumerate(exps) if e)
            bits.append(f"{coef}{'*' + mono if mono else ''}")
        more = "..." if len(self.terms) > 8 else ""
        return f"IntPolynomial({self.num_vars}, {' + '.join(bits)}{more})"


class VariableSplit:
    """Partition of the variables into an x-block and a y-block."""

    __slots__ = ("n", "x_indices", "y_indices")

    def __init__(self, n: int, x_indices: Sequence[int], y_indices: Sequence[int]):
        xs, ys = tuple(x_indices), tuple(y_indices)
        if sorted(xs + ys) != list(range(n)):
            raise ValueError("x_indices and y_indices must partition 0..n-1")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "x_indices", xs)
        object.__setattr__(self, "y_indices", ys)

    def __setattr__(self, *a):
        raise AttributeError("VariableSplit is immutable")

    def validate_against(self, p: IntPolynomial):
        if p.num_vars != self.n:
            raise ValueError("split size does not match polynomial")

    def __repr__(self):
        return f"VariableSplit(n={self.n}, x={self.x_indices}, y={self.y_indices})"

