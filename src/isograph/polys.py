"""The one dense polynomial type, and exact integer linear algebra.

Polynomial holds Python ints (characteristic and zeta polynomials) or
the FieldElements of one field (Velu x-maps); everything here is exact.
Characteristic polynomials of symmetric integer matrices come from
Lanczos over one proven prime above their coefficient bound, in plain
ints; the spectrum and the Bass route of the zeta call it.  Fraction-free
Bareiss elimination at integer sample points followed by Lagrange
interpolation (poly_matrix_det) is the independent reference that tests
compare it against.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import comb, isqrt
from operator import mul
from typing import Iterable, Sequence


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
# exact characteristic polynomial by Lanczos over one prime


def _coefficient_bound(n: int, frob2: int) -> int:
    """An integer at least every |c_k| of det(xI - A), x^(n-k) c_k, for an
    n-square A with sum of squared entries frob2 = T.  Schur gives
    sum |lambda_i|^2 <= T, and Maclaurin's inequality with the power means
    then |c_k| <= C(n, k) (T/n)^(k/2), which c I attains; the square root
    of max_k ceil(C(n, k)^2 T^k / n^k), rounded up."""
    top = max(-(-comb(n, k) ** 2 * frob2**k // n**k) for k in range(n + 1))
    root = isqrt(top)
    return root if root * root == top else root + 1


# exponents e of the Mersenne primes 2^e - 1 from 2^61 - 1 on, each proven
# prime by Lucas-Lehmer; is_prime is certain only below 3.3e24
MERSENNE_EXPONENTS = (61, 89, 107, 127, 521, 607, 1279, 2203, 2281)


def _lanczos_prime(bound: int) -> int:
    """The smallest tabulated Mersenne prime above `bound`."""
    for e in MERSENNE_EXPONENTS:
        if bound < (1 << e) - 1:
            return (1 << e) - 1
    raise ValueError(f"coefficient bound of {bound.bit_length()} bits is past 2^2281 - 1")


def _draw(rng: random.Random, n: int, prime: int) -> list[int]:
    """A block's start vector: n random residues below 2^(e-1), prime = 2^e - 1."""
    bits = prime.bit_length() - 1
    return [rng.getrandbits(bits) for _ in range(n)]


def charpoly_int(matrix: Sequence[Sequence[int]]) -> Polynomial:
    """det(xI - A) exactly, for a symmetric integer A.  Lanczos over one
    prime P above twice _coefficient_bound, lifted to the symmetric range.

    A block runs w' = A w - alpha w - beta w_prev, with alpha = <Aw, w>/<w, w>
    and beta = <w, w>/<w_prev, w_prev>, until w' = 0: its vectors span an
    invariant subspace, on which det(xI - A) is the tridiagonal recurrence
    p_k = (x - alpha_k) p_(k-1) - beta_k p_(k-2).  The next block starts
    from a seeded random vector with every earlier vector projected out in
    one pass (they are orthogonal); symmetry keeps its Krylov space
    orthogonal to theirs, so det(xI - A) mod P is the product of the block
    polynomials.  A nonzero w with <w, w> = 0 mod P stops the recurrence and
    raises ArithmeticError."""
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("characteristic polynomial of a non-square matrix")
    rows = [[(j, int(x)) for j, x in enumerate(row) if x] for row in matrix]
    # checking the nonzero entries suffices: a zero facing a nonzero is seen
    # from the nonzero side
    if any(matrix[j][i] != x for i, row in enumerate(rows) for j, x in row):
        raise ValueError("matrix is not symmetric")
    frob2 = sum(x * x for row in rows for _, x in row)
    prime = _lanczos_prime(2 * _coefficient_bound(n, frob2))
    rng = random.Random(0)
    basis: list[tuple[list[int], int]] = []  # w, 1/<w, w>
    product = Polynomial([1])
    while len(basis) < n:
        w = _draw(rng, n, prime)
        if basis:
            vs, invs = zip(*basis)
            cs = [sum(map(mul, w, v)) * inv % prime for v, inv in zip(vs, invs)]
            w = [(x - sum(map(mul, cs, col))) % prime for x, col in zip(w, zip(*vs))]
        if not any(w):
            continue
        w_prev, inv_prev = [0] * n, 0
        poly_prev, poly = [], [1]  # p_(k-2), p_(k-1)
        while w is not None:
            d = sum(map(mul, w, w)) % prime
            if not d:
                raise ArithmeticError("Lanczos reached a nonzero isotropic vector")
            if len(basis) == n:  # unreachable for a symmetric A
                raise ArithmeticError("more Lanczos vectors than the dimension")
            inv = pow(d, -1, prime)
            basis.append((w, inv))
            aw = [sum([x * w[j] for j, x in row]) for row in rows]
            alpha = sum(map(mul, aw, w)) * inv % prime
            beta = d * inv_prev % prime
            poly_prev, poly = poly, [
                (s - alpha * c - beta * b) % prime
                for s, c, b in zip([0] + poly, poly + [0], poly_prev + [0, 0])
            ]
            nxt = [(a - alpha * x - beta * y) % prime for a, x, y in zip(aw, w, w_prev)]
            w_prev, inv_prev = w, inv
            w = nxt if any(nxt) else None
        product = Polynomial(c % prime for c in (product * Polynomial(poly)).coeffs)
    return Polynomial(c - prime if 2 * c > prime else c for c in product.coeffs)
