"""The one dense polynomial type, and exact integer linear algebra.

Polynomial holds Python ints (characteristic and zeta polynomials) or
the FieldElements of one field (Velu x-maps); everything here is exact.
Characteristic polynomials of integer matrices use a CRT of word-size
primes with numpy-backed Hessenberg reduction; this is the one
determinant the zeta pipeline calls.  Fraction-free Bareiss elimination
at integer sample points followed by Lagrange interpolation
(poly_matrix_det) is kept as the independent reference that tests compare
the CRT route against.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, isqrt
from typing import Iterable, Sequence

import numpy as np

from .fields import is_prime


class Polynomial:
    """Dense polynomial over the ints or one field's FieldElements,
    coefficients ascending, trailing zeros stripped (the zero polynomial
    has an empty coefficient tuple)."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        cs = list(coeffs)
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs = tuple(cs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # zero polynomial: -1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __getitem__(self, k: int) -> int:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    def __add__(self, other: "Polynomial") -> "Polynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Polynomial(out)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        out = list(self.coeffs) + [0] * max(0, len(other.coeffs) - len(self.coeffs))
        for i, c in enumerate(other.coeffs):
            out[i] -= c
        return Polynomial(out)

    def __neg__(self) -> "Polynomial":
        return Polynomial(-c for c in self.coeffs)

    def __mul__(self, other) -> "Polynomial":
        if not isinstance(other, Polynomial):  # a scalar
            return Polynomial(c * other for c in self.coeffs)
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Polynomial()
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    out[i + j] += ai * bj
        return Polynomial(out)

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "Polynomial":
        if e < 0:
            raise ValueError("negative power of a polynomial")
        result = Polynomial([1])
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __call__(self, x):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def derivative(self) -> "Polynomial":
        return Polynomial(i * c for i, c in enumerate(self.coeffs) if i)

    def shift(self, k: int) -> "Polynomial":
        """Multiply by t^k."""
        if self.is_zero():
            return self
        return Polynomial((0,) * k + self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, Polynomial):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"Polynomial({list(self.coeffs)})"


# ---------------------------------------------------------------------------
# integer and polynomial determinants


def bareiss_det(matrix: Sequence[Sequence[int]]) -> int:
    """Fraction-free Bareiss determinant of an integer matrix."""
    n = len(matrix)
    if n == 0:
        return 1
    m = [list(row) for row in matrix]
    if any(len(row) != n for row in m):
        raise ValueError("determinant of a non-square matrix")
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = m[k][k]
        for i in range(k + 1, n):
            mik = m[i][k]
            row_i, row_k = m[i], m[k]
            for j in range(k + 1, n):
                row_i[j] = (row_i[j] * pivot - mik * row_k[j]) // prev
            row_i[k] = 0
        prev = pivot
    return sign * m[n - 1][n - 1]


def poly_matrix_det(matrix: Sequence[Sequence[Polynomial]]) -> Polynomial:
    """Determinant of a matrix of integer polynomials by evaluation at
    integer points and Lagrange interpolation; each evaluation is a Bareiss
    determinant, so the whole computation is exact."""
    n = len(matrix)
    if n == 0:
        return Polynomial([1])
    if any(len(row) != n for row in matrix):
        raise ValueError("determinant of a non-square matrix")
    deg_bound = 0
    for row in matrix:
        deg_bound += max((e.degree for e in row), default=-1)
    if deg_bound < 0:
        return Polynomial()  # some row is entirely zero
    points: list[int] = [0]
    v = 1
    while len(points) < deg_bound + 1:
        points.append(v)
        if len(points) < deg_bound + 1:
            points.append(-v)
        v += 1
    values = [
        bareiss_det([[e(x) for e in row] for row in matrix]) for x in points
    ]
    return _lagrange_int(points, values)


def _lagrange_int(xs: Sequence[int], ys: Sequence[int]) -> Polynomial:
    n = len(xs)
    coeffs = [Fraction(0)] * n
    for i in range(n):
        if ys[i] == 0:
            continue
        basis = [Fraction(1)]
        denom = Fraction(1)
        for j in range(n):
            if j == i:
                continue
            # multiply basis by (t - xs[j])
            nb = [Fraction(0)] * (len(basis) + 1)
            for k, c in enumerate(basis):
                nb[k] -= c * xs[j]
                nb[k + 1] += c
            basis = nb
            denom *= xs[i] - xs[j]
        scale = Fraction(ys[i]) / denom
        for k, c in enumerate(basis):
            coeffs[k] += c * scale
    if any(c.denominator != 1 for c in coeffs):
        raise ArithmeticError("interpolation did not produce integers")
    return Polynomial(int(c) for c in coeffs)


# ---------------------------------------------------------------------------
# exact characteristic polynomial via CRT over word-size primes

_CRT_PRIMES: list[int] = []


def _crt_primes(count: int) -> list[int]:
    # primes just below 2^25 keep every numpy intermediate below 2^63
    cand = _CRT_PRIMES[-1] - 2 if _CRT_PRIMES else (1 << 25) - 1
    while len(_CRT_PRIMES) < count:
        while not is_prime(cand):
            cand -= 2
        _CRT_PRIMES.append(cand)
        cand -= 2
    return _CRT_PRIMES[:count]


def _hessenberg_mod(m: np.ndarray, p: int) -> np.ndarray:
    n = m.shape[0]
    for k in range(n - 2):
        col = m[k + 1 :, k]
        nz = np.nonzero(col)[0]
        if nz.size == 0:
            continue
        piv = k + 1 + int(nz[0])
        if piv != k + 1:
            m[[k + 1, piv], :] = m[[piv, k + 1], :]
            m[:, [k + 1, piv]] = m[:, [piv, k + 1]]
        inv = pow(int(m[k + 1, k]), p - 2, p)
        f = m[k + 2 :, k] * inv % p
        if np.any(f):
            m[k + 2 :, :] = (m[k + 2 :, :] - np.outer(f, m[k + 1, :])) % p
            m[:, k + 1] = (m[:, k + 1] + m[:, k + 2 :] @ f) % p
    return m


def _charpoly_mod(a: np.ndarray, p: int) -> np.ndarray:
    """Monic char poly of a mod p, coefficients ascending, length n+1."""
    n = a.shape[0]
    h = _hessenberg_mod(np.array(a % p, dtype=np.int64), p)
    polys = np.zeros((n + 1, n + 1), dtype=np.int64)
    polys[0, 0] = 1
    # at step m, prods[i - 1] = h[i, i-1] h[i+1, i] ... h[m-1, m-2]
    prods = np.zeros(0, dtype=np.int64)
    for m in range(1, n + 1):
        hm = int(h[m - 1, m - 1])
        new = np.zeros(n + 1, dtype=np.int64)
        pm1 = polys[m - 1]
        new[1 : m + 1] = pm1[0:m]
        new[0:m] = (new[0:m] - hm * pm1[0:m]) % p
        if m >= 2:
            prods = np.append(prods, 1) * h[m - 1, m - 2] % p
            w = h[: m - 1, m - 1] * prods % p
            if np.any(w):
                s = (w @ polys[0 : m - 1, 0:m]) % p
                new[0:m] = (new[0:m] - s) % p
        polys[m] = new
    return polys[n] % p


def _coefficient_bound(n: int, frob2: int) -> int:
    """An integer at least every |c_k| of det(xI - A), x^(n-k) c_k, for an
    n-square A with sum of squared entries frob2 = T.  Schur gives
    sum |lambda_i|^2 <= T, and Maclaurin's inequality with the power means
    then |c_k| <= C(n, k) (T/n)^(k/2), which c I attains; the square root
    of max_k ceil(C(n, k)^2 T^k / n^k), rounded up."""
    top = max(-(-comb(n, k) ** 2 * frob2**k // n**k) for k in range(n + 1))
    root = isqrt(top)
    return root if root * root == top else root + 1


def charpoly_int(matrix: Sequence[Sequence[int]]) -> Polynomial:
    """det(xI - A) exactly, for integer A, by CRT over enough word-size
    primes that their product exceeds twice _coefficient_bound."""
    n = len(matrix)
    if n == 0:
        return Polynomial([1])
    if any(len(row) != n for row in matrix):
        raise ValueError("characteristic polynomial of a non-square matrix")
    frob2 = sum(int(x) ** 2 for row in matrix for x in row)
    bound = 2 * _coefficient_bound(n, frob2)
    a = np.array([[int(x) for x in row] for row in matrix], dtype=np.int64)
    # fold each prime's residues into the coefficients x mod m, with m
    # the product of the primes so far: one inverse of m per prime
    x = [0] * (n + 1)
    m, count = 1, 0
    while m <= bound:
        count += 1
        p = _crt_primes(count)[-1]
        inv = pow(m, -1, p)
        res = _charpoly_mod(a, p).tolist()
        x = [c + m * ((r - c) * inv % p) for c, r in zip(x, res)]
        m *= p
    return Polynomial([c - m if c > m // 2 else c for c in x])
