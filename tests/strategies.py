"""Hypothesis strategies and helpers shared by the test modules."""

from hypothesis import strategies as st

from cubefib.polynomials import IntPolynomial


def affine_image(poly, A, b):
    """poly(A x + b), by `substitute_polys` on the images (A x + b)_i."""
    m = len(A[0])
    return poly.substitute_polys([IntPolynomial.linear_form(row) + IntPolynomial.constant(m, c)
                                  for row, c in zip(A, b)])


@st.composite
def unimodular_pairs(draw, k):
    """(U, U^-1) for U a product of elementary moves: add a multiple of one
    column to another, swap two columns, negate a column."""
    U = [[int(i == j) for j in range(k)] for i in range(k)]
    V = [row[:] for row in U]
    for _ in range(draw(st.integers(0, 6))):
        i, j = draw(st.integers(0, k - 1)), draw(st.integers(0, k - 1))
        move = draw(st.sampled_from(["add", "swap", "negate"]))
        if move == "add" and i != j:
            m = draw(st.sampled_from([-2, -1, 1, 2]))
            for row in U:  # column j += m column i
                row[j] += m * row[i]
            V[i] = [x - m * y for x, y in zip(V[i], V[j])]  # row i -= m row j
        elif move == "swap":
            for row in U:
                row[i], row[j] = row[j], row[i]
            V[i], V[j] = V[j], V[i]
        elif move == "negate":
            for row in U:
                row[i] = -row[i]
            V[i] = [-x for x in V[i]]
    return U, V
