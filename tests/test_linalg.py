import random
from fractions import Fraction

import pytest

from artin_sigma import InputError, LaurentPoly, PolyMatrix, QQ, matrix_rank, parse_poly
from artin_sigma.linalg import exact_divide
from oracles import fraction_rank

X = ("x",)


def const_matrix(rows):
    return [[LaurentPoly.constant(c, X, QQ) for c in row] for row in rows]


def test_exact_divide():
    f = parse_poly("x^2 - 1", X, QQ)
    g = parse_poly("x - 1", X, QQ)
    assert exact_divide(f, g) == parse_poly("x + 1", X, QQ)
    with pytest.raises(ArithmeticError):
        exact_divide(parse_poly("x^2 + 1", X, QQ), g)
    with pytest.raises(ZeroDivisionError):
        exact_divide(f, LaurentPoly.zero(X, QQ))
    with pytest.raises(InputError):
        exact_divide(f, parse_poly("x - 1", ("x", "y"), QQ))


def test_rank_simple():
    assert matrix_rank(const_matrix([[1, 2], [2, 4]])) == 1
    assert matrix_rank(const_matrix([[1, 0], [0, 1]])) == 2
    assert matrix_rank(const_matrix([[0, 0], [0, 0]])) == 0
    assert matrix_rank([]) == 0


def test_rank_polynomial_entries():
    x = parse_poly("x", X, QQ)
    one = parse_poly("1", X, QQ)
    zero = LaurentPoly.zero(X, QQ)
    # [[x, 1], [x^2, x]] has proportional rows
    assert matrix_rank([[x, one], [x * x, x]]) == 1
    assert matrix_rank([[x, one], [one, x]]) == 2
    # the F5 specialized matrix
    xm1 = parse_poly("x - 1", X, QQ)
    mat = PolyMatrix([[zero, zero], [zero, zero], [xm1, -xm1]])
    assert mat.rank() == 1


def test_rank_with_laurent_entries():
    xinv = parse_poly("x^-1", X, QQ)
    one = parse_poly("1", X, QQ)
    # multiplying a row by a monomial unit must not change the rank
    assert matrix_rank([[xinv, one], [one, parse_poly("x", X, QQ)]]) == 1


def test_rank_permutation_and_unit_invariance():
    rng = random.Random(31)
    x = parse_poly("x", X, QQ)
    for _ in range(30):
        rows = [
            [parse_poly(f"{rng.randint(-3, 3)} + {rng.randint(-3, 3)}*x", X, QQ) for _ in range(3)]
            for _ in range(3)
        ]
        base = matrix_rank(rows)
        shuffled = rows[::-1]
        assert matrix_rank(shuffled) == base
        scaled = [[x * e for e in row] for row in rows]
        assert matrix_rank(scaled) == base


def test_rank_vs_fraction_oracle_random():
    rng = random.Random(123)
    for _ in range(120):
        nr = rng.randint(1, 5)
        nc = rng.randint(1, 5)
        raw = [[rng.randint(-6, 6) for _ in range(nc)] for _ in range(nr)]
        assert matrix_rank(const_matrix(raw)) == fraction_rank(raw)


def test_rank_of_constructed_deficient_matrices():
    # rows built as integer combinations of r basis rows never exceed rank r
    rng = random.Random(77)
    for _ in range(40):
        r = rng.randint(1, 2)
        basis = [
            [parse_poly(f"{rng.randint(-2, 2)} + {rng.randint(-2, 2)}*x + {rng.randint(-2, 2)}*x^2", X, QQ)
             for _ in range(4)]
            for _ in range(r)
        ]
        rows = []
        for _ in range(4):
            coeffs = [rng.randint(-3, 3) for _ in range(r)]
            row = []
            for j in range(4):
                acc = LaurentPoly.zero(X, QQ)
                for c, b in zip(coeffs, basis):
                    acc = acc + LaurentPoly.constant(c, X, QQ) * b[j]
                row.append(acc)
            rows.append(row)
        assert matrix_rank(rows) <= r


def test_matrix_validation():
    one = parse_poly("1", X, QQ)
    with pytest.raises(InputError):
        PolyMatrix([[one], [one, one]])
    with pytest.raises(TypeError):
        PolyMatrix([[1]])
    with pytest.raises(TypeError):
        PolyMatrix([[one, 1]])
    other = parse_poly("1", ("x", "y"), QQ)
    with pytest.raises(InputError):
        PolyMatrix([[one], [other]])
    with pytest.raises(InputError):
        matrix_rank([[one], [other]])


def test_rank_of_integer_entries_is_taken_over_qq():
    rows = [[LaurentPoly.constant(c, X) for c in row] for row in ([2, 4], [1, 2])]
    assert all(e.domain is QQ for row in rows for e in row)
    assert matrix_rank(rows) == 1


def _poly_product_matrix(rng, n, r, m):
    """Coefficient lists (ascending, in x) of A*B for random n-by-r and r-by-m
    matrices of quadratics, so the rank is at most r."""
    a = [[[rng.randint(-2, 2) for _ in range(3)] for _ in range(r)] for _ in range(n)]
    b = [[[rng.randint(-2, 2) for _ in range(3)] for _ in range(m)] for _ in range(r)]
    out = []
    for i in range(n):
        row = []
        for j in range(m):
            coeffs = [0] * 5
            for k in range(r):
                for d1, c1 in enumerate(a[i][k]):
                    for d2, c2 in enumerate(b[k][j]):
                        coeffs[d1 + d2] += c1 * c2
            row.append(coeffs)
        out.append(row)
    return out


def test_rank_vs_sympy_univariate():
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    # Matrix.rank() eliminates over symbolic expressions and takes ~40x as
    # long; DomainMatrix ranks the same matrix exactly over QQ(x)
    x = sympy.Symbol("x")
    rng = random.Random(404)
    ranks = set()
    for _ in range(40):
        n, r, m = rng.randint(1, 4), rng.randint(1, 3), rng.randint(1, 4)
        coeffs = _poly_product_matrix(rng, n, r, m)
        ours = [[LaurentPoly(X, {(d,): c for d, c in enumerate(e)}, QQ) for e in row] for row in coeffs]
        theirs = sympy.Matrix([[sum(c * x**d for d, c in enumerate(e)) for e in row] for row in coeffs])
        rank = matrix_rank(ours)
        assert rank == DomainMatrix.from_Matrix(theirs).to_field().rank()
        ranks.add(rank)
    assert ranks >= {1, 2, 3}
