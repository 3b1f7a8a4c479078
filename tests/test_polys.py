import random
from fractions import Fraction
from math import comb

import numpy as np
import pytest

import isograph.polys as polys
from isograph.fields import make_extension_field
from isograph.polys import (
    MERSENNE_EXPONENTS,
    Polynomial,
    _coefficient_bound,
    _lanczos_prime,
    bareiss_det,
    charpoly_int,
    poly_matrix_det,
)
from oracles import log_series, ratfun_series


def P(*coeffs):
    return Polynomial(coeffs)


def cofactor_det(matrix):
    """Oracle: determinant by recursive cofactor expansion (dim <= 4)."""
    n = len(matrix)
    if n == 1:
        return matrix[0][0]
    acc = Polynomial()
    sign = 1
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in matrix[1:]]
        term = matrix[0][j] * cofactor_det(minor)
        acc = acc + term if sign > 0 else acc - term
        sign = -sign
    return acc


def random_poly(rng, max_deg=2):
    return Polynomial([rng.randint(-9, 9) for _ in range(rng.randint(0, max_deg) + 1)])


def test_intpolynomial_basics():
    a = P(1, -6, 5)
    assert a.degree == 2 and a[1] == -6 and a[5] == 0
    assert P(0, 0).is_zero() and P().degree == -1
    assert (P(1, 1) * P(1, -1)).coeffs == (1, 0, -1)
    assert (P(1, 2) ** 3).coeffs == (1, 6, 12, 8)
    assert P(1, -6, 5)(1) == 0 and P(1, -6, 5)(2) == 9


def test_derivative():
    assert P(5, 3, -2, 4).derivative() == P(3, -4, 12)
    assert P(7).derivative().is_zero() and P().derivative().is_zero()
    rng = random.Random(3)
    for _ in range(20):
        a, b = random_poly(rng, 4), random_poly(rng, 4)
        assert (a * b).derivative() == a.derivative() * b + a * b.derivative()


def test_field_coefficients_over_f13_2():
    f = make_extension_field(13, 2)
    rng = random.Random(7)

    def rand_poly(deg):
        return Polynomial(f.element(rng.sample(range(13), 2)) for _ in range(deg + 1))

    x = Polynomial([f.element(0), f.one])
    # a product leaves an int 0 where every term was zero
    assert (x * x).coeffs[:2] == (0, 0)
    assert [f.element(c) for c in (x * x).coeffs] == [f.element(0), f.element(0), f.one]
    # in characteristic 13, (x^13)' = 13 x^12 vanishes and is stripped
    assert (x**13 + x).derivative().coeffs == (f.one,)
    for _ in range(10):
        a, b = rand_poly(rng.randint(0, 4)), rand_poly(rng.randint(0, 4))
        c = f.element(rng.sample(range(13), 2))
        t = f.element(rng.sample(range(13), 2))
        assert (a * b)(t) == a(t) * b(t)
        assert (a + b)(t) == a(t) + b(t) and (a - b)(t) == a(t) - b(t)
        assert (a * c)(t) == a(t) * c and (3 * a)(t) == 3 * a(t)
        assert a.shift(2)(t) == a(t) * t * t
        assert (a * b).derivative() == a.derivative() * b + a * b.derivative()
        assert (a - a).is_zero()


def test_poly_matrix_det_trivial_cases():
    one_by_one = [[P(1, -6, 5)]]
    assert poly_matrix_det(one_by_one) == P(1, -6, 5)
    diag = [[P(1, -1), Polynomial()], [Polynomial(), P(1, -5)]]
    assert poly_matrix_det(diag) == P(1, -1) * P(1, -5)


def test_poly_matrix_det_2x2_hand_expanded():
    # hand expansion: (1-3t+2t^2)^2 - t^2 = 1 - 6t + 12t^2 - 12t^3 + 4t^4
    d = P(1, -3, 2)
    m = [[d, P(0, -1)], [P(0, -1), d]]
    assert poly_matrix_det(m) == P(1, -6, 12, -12, 4)


def test_poly_matrix_det_vs_cofactor_oracle():
    rng = random.Random(42)
    for _ in range(30):
        n = rng.randint(1, 4)
        m = [[random_poly(rng) for _ in range(n)] for _ in range(n)]
        assert poly_matrix_det(m) == cofactor_det(m)


def test_bareiss_vs_cofactor_ints():
    rng = random.Random(9)
    for _ in range(40):
        n = rng.randint(1, 5)
        m = [[rng.randint(-20, 20) for _ in range(n)] for _ in range(n)]
        as_polys = [[Polynomial([e]) for e in row] for row in m]
        expect = cofactor_det(as_polys) if n <= 4 else None
        got = bareiss_det(m)
        if expect is not None:
            assert got == (expect[0] if not expect.is_zero() else 0)
        # scaling a row scales the determinant
        m2 = [row[:] for row in m]
        m2[0] = [3 * e for e in m2[0]]
        assert bareiss_det(m2) == 3 * got


def charpoly_by_poly_det(a):
    """Reference: det(xI - A) by poly_matrix_det (Bareiss + Lagrange)."""
    x = P(0, 1)
    n = len(a)
    return poly_matrix_det(
        [[x - P(a[i][j]) if i == j else -P(a[i][j]) for j in range(n)] for i in range(n)]
    )


def test_charpoly_known_and_cross_route():
    assert charpoly_int([[6]]) == P(-6, 1)
    assert charpoly_int([[0, 1], [1, 0]]) == P(-1, 0, 1)
    assert charpoly_int([]) == P(1)
    rng = random.Random(17)
    for _ in range(40):  # negative entries, repeated eigenvalues likely
        n = rng.randint(1, 8)
        s = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                s[i][j] = s[j][i] = rng.choice([0, 0, 1, 2, -3, rng.randint(-60, 40)])
        cp = charpoly_int(s)
        assert cp == charpoly_by_poly_det(s)
        bound = _coefficient_bound(n, sum(x * x for row in s for x in row))
        assert all(abs(c) <= bound for c in cp.coeffs)


def test_charpoly_refuses_a_matrix_that_is_not_self_adjoint():
    rng = random.Random(29)
    n = 6
    s = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            s[i][j] = s[j][i] = rng.randint(-5, 5)
    assert charpoly_int(s) == charpoly_by_poly_det(s)
    bent = [row[:] for row in s]
    bent[1][4] -= 1
    with pytest.raises(ValueError, match="not symmetric"):
        charpoly_int(bent)


def test_charpoly_refuses_an_isotropic_vector(monkeypatch):
    # A = I is symmetric; a start vector (a, b, 1) with a^2 + b^2 = -1 mod P
    # has <w, w> = 0 there.  P = 3 mod 4, so x^((P+1)/4) is a square root
    prime = _lanczos_prime(2 * _coefficient_bound(3, 3))
    assert prime % 4 == 3
    for a in range(1, 100):
        r = -1 - a * a
        b = pow(r, (prime + 1) // 4, prime)
        if b * b % prime == r % prime:
            break
    assert (a * a + b * b + 1) % prime == 0
    identity = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    monkeypatch.setattr(polys, "_draw", lambda rng, n, prime: [a, b, 1])
    with pytest.raises(ArithmeticError, match="isotropic"):
        charpoly_int(identity)
    monkeypatch.undo()
    assert charpoly_int(identity) == P(-1, 1) ** 3


def lucas_lehmer(e):
    """2^e - 1 is prime, for an odd prime e, exactly when s_(e-2) = 0 for
    s_0 = 4 and s_(k+1) = s_k^2 - 2 mod 2^e - 1."""
    m = (1 << e) - 1
    s = 4
    for _ in range(e - 2):
        s = (s * s - 2) % m
    return s == 0


def test_mersenne_table_is_proven_prime():
    assert all(lucas_lehmer(e) for e in MERSENNE_EXPONENTS)
    # the test rejects composite 2^e - 1 with e prime, and the table holds
    # every Mersenne exponent in its range
    assert not any(lucas_lehmer(e) for e in (11, 23, 67, 101, 257))
    assert [e for e in range(61, 128) if lucas_lehmer(e)] == [
        e for e in MERSENNE_EXPONENTS if e < 128
    ]
    assert _lanczos_prime(2**61 - 2) == 2**61 - 1
    assert _lanczos_prime(2**61 - 1) == 2**89 - 1
    assert _lanczos_prime(2**2281 - 2) == 2**2281 - 1
    with pytest.raises(ValueError, match="past"):
        _lanczos_prime(2**2281 - 1)


@pytest.mark.parametrize("n, c", [(40, 1), (40, 3), (25, -7), (12, 10**6), (40, 2)])
def test_charpoly_scaled_identity_attains_the_bound(n, c):
    # c I has |c_k| = C(n, k) |c|^k, the bound exactly; the largest
    # coefficient of 2 I_40, C(40, 20) 2^20, is above (2^61 - 1) / 2, so a
    # bound without the binomial (2^40 there) picks 2^61 - 1, too small a
    # prime, and gives a wrong result
    a = [[c if i == j else 0 for j in range(n)] for i in range(n)]
    assert charpoly_int(a) == charpoly_by_poly_det(a) == P(-c, 1) ** n
    assert _coefficient_bound(n, n * c * c) == max(
        comb(n, k) * abs(c) ** k for k in range(n + 1)
    )


def test_charpoly_all_ones():
    for n in (1, 7, 30):
        ones = [[1] * n for _ in range(n)]
        assert charpoly_int(ones) == charpoly_by_poly_det(ones) == P(-n, 1).shift(n - 1)


def test_charpoly_large_vs_float_eigenvalues():
    rng = random.Random(3)
    n = 40
    a = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            v = rng.randint(0, 3)
            a[i][j] = a[j][i] = v
    cp = charpoly_int(a)
    assert cp.degree == n and cp.coeffs[-1] == 1
    assert cp[n - 1] == -sum(a[i][i] for i in range(n))  # trace identity
    eigs = np.linalg.eigvalsh(np.array(a, dtype=float))
    # det(A) = (-1)^n * constant term
    det_float = float(np.prod(eigs))
    assert abs(cp[0] - (-1) ** n * det_float) <= max(1.0, abs(det_float)) * 1e-8


def test_series_examples():
    assert ratfun_series(P(1), P(1, -1), 5) == [1] * 6
    assert ratfun_series(P(1), P(1, -5), 3) == [1, 5, 25, 125]
    with pytest.raises(ValueError):
        ratfun_series(P(1), P(0, 1), 2)


def test_series_product_oracle():
    # 1/((1-t)(1-5t)(1-t^2)^2) to order 2 is [1, 6, 33]: convolve the three
    # known geometric expansions independently
    def conv(a, b):
        out = [0] * len(a)
        for i in range(len(a)):
            for j in range(i + 1):
                out[i] += a[j] * b[i - j]
        return out

    geo1 = [1, 1, 1]
    geo5 = [1, 5, 25]
    inv_sq = [1, 0, 2]  # (1-t^2)^-2 = 1 + 2t^2 + ...
    expect = conv(conv(geo1, geo5), inv_sq)
    assert expect == [1, 6, 33]
    den = P(1, -1) * P(1, -5) * P(1, 0, -1) * P(1, 0, -1)
    got = ratfun_series(P(1), den, 2)
    assert got == [Fraction(1), Fraction(6), Fraction(33)]


def test_log_series_geometric():
    s = ratfun_series(P(1), P(1, -1), 6)
    lg = log_series(s)
    assert lg[1:] == [Fraction(1, m) for m in range(1, 7)]
