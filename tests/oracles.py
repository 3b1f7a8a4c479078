"""Independent oracles that only the tests compare against.

The package decides connectivity and bipartiteness from the
characteristic polynomial (spectral.is_connected, spectral.is_bipartite);
adjacency_connected and is_bipartite here decide them by search on the
matrix entries instead.  mitm_cheeger scores every subset in numpy int64
blocks, a meet in the middle of the two vertex halves by matrix
products, against the package's packed-lane search
(spectral._exact_cheeger).  The zeta pipeline itself computes 1/Z from the
characteristic polynomial of the adjacency matrix (zeta.ihara_zeta) and
checks it against the edge determinant (zeta.edge_matrix_zeta).
hessenberg_charpoly is a characteristic polynomial by Hessenberg
reduction mod a Mersenne prime, apart from the package's Lanczos
(polys.charpoly_int) and the walk counts of the edge determinant.
assert_matches_eigvalsh holds float eigenvalues, the package's whole-matrix
solver or its level-tower blocks (spectral.spectrum), to numpy's LAPACK.  The
census oracles count closed reduced paths on the edges directly and
compare the counts with exact power series of Z, so a census never
shares code with either route.

Point is the affine group law, the chord and tangent in (x, y) with its
own double-and-add n*P, on FieldElements: the package works on the
x-line only, on raw packed ints (x_ladder and x_chain, both built on
_x_dbl_t and _x_dadd_t, and x_add), and the tests check those against
this oracle, reading a point's raw x as P.x.raw.  element builds a test
FieldElement from a constant or a coefficient vector; the package never
does.  velu_sum is Velu's x-map as his sum over the kernel's x, term by
term on FieldElements, against the package's Kohel form on raw
coefficient lists (curves.velu_quotient).
on_curve_point builds a point from its coordinates and checks the curve
equation (rhs, the cubic's value); lift_x takes the point with a given x
and the canonical square root (sqrt) of the cubic as its y.  sqrt is
Field.sqrt_t on an element; the package takes square roots only of raw
ints, for x_add's discriminant and an embedding's root, and never of a
point's cubic.  spread_t and unspread_t carry F_p[y]/(g)
into F_p[x]/(g(x^2)) by y -> x^2 and back, the map under which the
half-degree torsion tables (curves.torsion_field) sort as the full
field's would.  torsion_order_extension finds the degree of that full
field by walking the powers of -p mod r, apart from the Frobenius orbits
torsion_field reads it from.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from isograph.curves import CurveError, EllipticCurve
from isograph.enhanced import EnhancedGraph
from isograph.fields import Field, FieldElement, FieldMismatch, NotInSubfield
from isograph.polys import Polynomial
from isograph.spectral import symmetric_eigenvalues
from isograph.zeta import ORACLE_EDGE_LIMIT, ZetaError, ZetaFunction


def assert_matches_eigvalsh(matrix, eigenvalues=None) -> None:
    """`eigenvalues` (by default spectral.symmetric_eigenvalues of the
    matrix) are descending and within 1e-12 * max |lambda| * n of numpy's
    LAPACK eigvalsh."""
    import numpy as np

    got = list(symmetric_eigenvalues(matrix) if eigenvalues is None else eigenvalues)
    want = np.linalg.eigvalsh(np.array(matrix, dtype=float))[::-1]
    scale = max(1.0, float(np.abs(want).max()))
    assert len(got) == len(want) and got == sorted(got, reverse=True)
    assert max(abs(a - b) for a, b in zip(got, want)) <= 1e-12 * scale * len(matrix)


def adjacency_connected(matrix) -> bool:
    """Depth-first reachability from vertex 0 over the nonzero entries of
    a square adjacency matrix; the empty graph counts as connected."""
    n = len(matrix)
    if n == 0:
        return True
    seen = [False] * n
    stack = [0]
    seen[0] = True
    while stack:
        v = stack.pop()
        for w, c in enumerate(matrix[v]):
            if c and not seen[w]:
                seen[w] = True
                stack.append(w)
    return all(seen)


def is_bipartite(matrix) -> bool:
    """Two-colouring of a square adjacency matrix; a loop is an odd cycle."""
    n = len(matrix)
    color = [-1] * n
    for start in range(n):
        if color[start] != -1:
            continue
        color[start] = 0
        stack = [start]
        while stack:
            v = stack.pop()
            if matrix[v][v]:
                return False
            for w, c in enumerate(matrix[v]):
                if not c:
                    continue
                if color[w] == -1:
                    color[w] = 1 - color[v]
                    stack.append(w)
                elif color[w] == color[v]:
                    return False
    return True


def mitm_cheeger(matrix) -> tuple[Fraction, tuple[int, ...]]:
    """min boundary(S)/|S| over nonempty S with |S| <= n/2, n >= 2, and the
    lowest minimizing bitmask (vertex v is bit v) as a vertex tuple.

    With L the low half of the vertices and H the high half,
    boundary(S_H + S_L) = boundary(S_H) + boundary(S_L) - 2 A(S_H, S_L),
    and the cross terms of a block of subsets of H against every subset of
    L are one integer product.  A ratio over s vertices is scored as
    boundary * lcm(1..n/2) / s; a block's flat index order is mask order,
    so its first minimum is its lowest mask."""
    import numpy as np

    def subset_bits(count):  # row m holds the bits of m
        return (np.arange(1 << count, dtype=np.int64)[:, None] >> np.arange(count)) & 1

    A = np.asarray(matrix, dtype=np.int64)
    n = A.shape[0]
    half = n // 2
    lo, hi = slice(0, half), slice(half, n)
    bits_lo, bits_hi = subset_bits(half), subset_bits(n - half)
    degree = A.sum(axis=1)
    # boundary of a subset of one half alone: its volume minus its inner weight
    edge_lo = bits_lo @ degree[lo] - np.einsum("ij,ij->i", bits_lo @ A[lo, lo], bits_lo)
    edge_hi = bits_hi @ degree[hi] - np.einsum("ij,ij->i", bits_hi @ A[hi, hi], bits_hi)
    cross = bits_hi @ A[hi, lo]
    size_lo, size_hi = bits_lo.sum(axis=1), bits_hi.sum(axis=1)
    scale = math.lcm(*range(1, half + 1))
    weight = np.zeros(n + 1, dtype=np.int64)  # 0 for sizes out of range
    weight[1 : half + 1] = scale // np.arange(1, half + 1)
    best, best_mask = np.iinfo(np.int64).max, 0
    rows = max(1, (1 << 16) >> half)  # keeps the temporaries to a few MB
    for start in range(0, len(bits_hi), rows):
        block = slice(start, start + rows)
        w = weight[size_hi[block, None] + size_lo]
        boundary = edge_hi[block, None] + edge_lo - 2 * (cross[block] @ bits_lo.T)
        keys = np.where(w > 0, boundary * w, best)
        i = int(np.argmin(keys))
        if keys.flat[i] < best:
            best, best_mask = int(keys.flat[i]), (start << half) + i
    return Fraction(best, scale), tuple(v for v in range(n) if best_mask >> v & 1)


# exponents e of the Mersenne primes 2^e - 1 from 2^61 - 1 on (Lucas-Lehmer)
MERSENNE_EXPONENTS = (61, 89, 107, 127, 521, 607, 1279, 2203, 2281)


def hessenberg_charpoly(matrix) -> Polynomial:
    """det(xI - A) for a square integer A, by reduction to upper Hessenberg
    form by similarity and the Hessenberg recurrence (Cohen, GTM 138,
    Alg. 2.2.9), modulo the smallest tabulated Mersenne prime P above
    twice a coefficient bound, lifted to the symmetric range.  Every
    eigenvalue has |lambda| <= R, the largest absolute row sum, so
    |c_k| <= C(n, k) R^k <= (R + 1)^n."""
    n = len(matrix)
    R = max((sum(map(abs, row)) for row in matrix), default=0)
    P = next(
        (1 << e) - 1 for e in MERSENNE_EXPONENTS if (1 << e) - 1 > 2 * (R + 1) ** n
    )
    H = [[x % P for x in row] for row in matrix]
    for m in range(1, n - 1):
        i = next((i for i in range(m, n) if H[i][m - 1]), None)
        if i is None:
            continue
        if i != m:  # swap rows and columns i and m
            H[i], H[m] = H[m], H[i]
            for row in H:
                row[i], row[m] = row[m], row[i]
        inv = pow(H[m][m - 1], -1, P)
        for i in range(m + 1, n):
            u = H[i][m - 1] * inv % P
            if u:  # row i -= u row m, then column m += u column i
                H[i] = [(a - u * b) % P for a, b in zip(H[i], H[m])]
                for row in H:
                    row[m] = (row[m] + u * row[i]) % P
    # p_(m+1) = (x - h_mm) p_m - sum_(i<m) h_im h_(i+1,i) ... h_(m,m-1) p_i
    chars = [[1]]
    for m in range(n):
        nxt = [0] + chars[m]
        for k, c in enumerate(chars[m]):
            nxt[k] -= H[m][m] * c
        t = 1
        for i in range(m - 1, -1, -1):
            t = t * H[i + 1][i] % P
            coef = H[i][m] * t % P
            for k, c in enumerate(chars[i]):
                nxt[k] -= coef * c
        chars.append([c % P for c in nxt])
    return Polynomial(c - P if 2 * c > P else c for c in chars[n])


def ratfun_series(
    num: Polynomial, den: Polynomial, order: int
) -> list[Fraction]:
    """Exact Taylor coefficients c_0..c_order of num/den at t=0; requires
    den(0) != 0."""
    if den[0] == 0:
        raise ValueError("series requires den(0) != 0")
    d0 = Fraction(den[0])
    out: list[Fraction] = []
    for k in range(order + 1):
        acc = Fraction(num[k])
        for j in range(1, k + 1):
            dj = den[j]
            if dj:
                acc -= dj * out[k - j]
        out.append(acc / d0)
    return out


def log_series(coeffs: Sequence[Fraction]) -> list[Fraction]:
    """Formal log of a power series with constant term 1, same truncation."""
    if not coeffs or coeffs[0] != 1:
        raise ValueError("log series needs constant term 1")
    n = len(coeffs) - 1
    g = [Fraction(0)] * (n + 1)
    for m in range(1, n + 1):
        acc = Fraction(coeffs[m])
        for j in range(1, m):
            acc -= Fraction(j, m) * g[j] * coeffs[m - j]
        g[m] = acc
    return g


def log_zeta_series(zeta: ZetaFunction, order: int) -> list[Fraction]:
    """log Z up to t^order, from Z = 1 / zeta.inverse_polynomial()."""
    return log_series(ratfun_series(Polynomial([1]), zeta.inverse_polynomial(), order))


def primitive_cycle_census(eg: EnhancedGraph, max_len: int = 6) -> dict[int, int]:
    """Counts N_m of closed reduced tail-less paths of each length m,
    start edge marked (so a primitive class of length m contributes m).
    Edge e runs from e // (l+1) to edge_target[e]; a path may not follow
    e by its reversal edge_reverse[e].

    Exhaustive depth-first enumeration; refuses graphs or lengths where
    that would blow up."""
    m_edges = eg.oriented_edge_count
    if m_edges > ORACLE_EDGE_LIMIT:
        raise ZetaError(f"census limited to {ORACLE_EDGE_LIMIT} oriented edges, got {m_edges}")
    if max_len > 10:
        raise ZetaError("census limited to length 10")
    k = eg.degree
    target, reverse = eg.edge_target, eg.edge_reverse
    counts = {m: 0 for m in range(1, max_len + 1)}

    def extend(start: int, last: int, length: int):
        # close off at every admissible length, then go deeper
        if target[last] == start // k and start != reverse[last]:
            counts[length] += 1
        if length == max_len:
            return
        w = target[last]
        for f in range(w * k, (w + 1) * k):
            if f != reverse[last]:
                extend(start, f, length + 1)

    for e in range(m_edges):
        extend(e, e, 1)
    return counts


def census_matches_log_series(zeta: ZetaFunction, census: dict[int, int]) -> bool:
    """log Z = sum N_m t^m / m, term by term up to the census order."""
    order = max(census)
    series = log_zeta_series(zeta, order)
    return all(series[m] == Fraction(census[m], m) for m in range(1, order + 1))


def element(field: Field, value) -> FieldElement:
    """The element of `field` given as an element of it, a coefficient
    vector (lowest degree first, at most the degree long) or a constant in
    [0, p).  Any other int is refused: a *_t result is a raw packed int,
    which FieldElement(field, raw) wraps."""
    if isinstance(value, FieldElement):
        if value.field is not field:
            raise FieldMismatch("element belongs to a different field")
        return value
    if isinstance(value, int):
        if not 0 <= value < field.p:
            raise ValueError(f"{value} not in [0, p): wrap a raw int as FieldElement(field, raw)")
        return FieldElement(field, value)
    coeffs = [int(c) % field.p for c in value]
    if len(coeffs) > field.deg:
        raise ValueError("coefficient vector longer than field degree")
    return FieldElement(field, field.pack(coeffs + [0] * (field.deg - len(coeffs))))


def rhs(curve: EllipticCurve, x: FieldElement) -> FieldElement:
    """x^3 + a x + b, the square of y at a point of `curve` with this x."""
    return (x * x + curve.a) * x + curve.b


def velu_sum(
    curve: EllipticCurve, kernel_xs: Sequence[FieldElement], x: FieldElement
) -> FieldElement:
    """Velu's x-map at x, term by term over the kernel's x-coordinates x_i,
    one per +-pair of nonzero points:
      x + sum [(6 x_i^2 + 2a) / (x - x_i) + 4(x_i^3 + a x_i + b) / (x - x_i)^2];
    ZeroDivisionError at a kernel x."""
    out = x
    for xi in kernel_xs:
        t = x - xi
        out = out + (6 * xi * xi + 2 * curve.a) / t + 4 * rhs(curve, xi) / (t * t)
    return out


def sqrt(x: FieldElement) -> FieldElement:
    """The canonical square root of x; NoSquareRoot on a non-square."""
    return FieldElement(x.field, x.field.sqrt_t(x.raw))


class Point:
    """Affine point of `curve`, or the identity (x is None)."""

    __slots__ = ("curve", "x", "y")

    def __init__(self, curve: EllipticCurve, x: FieldElement | None, y: FieldElement | None):
        self.curve = curve
        self.x = x
        self.y = y

    def is_identity(self) -> bool:
        return self.x is None

    def __neg__(self) -> "Point":
        return self if self.x is None else Point(self.curve, self.x, -self.y)

    def __add__(self, other: "Point") -> "Point":
        """The chord-and-tangent law."""
        if self.x is None:
            return other
        if other.x is None:
            return self
        if self.x == other.x:
            if self.y != other.y or not self.y:
                return identity(self.curve)
            lam = (3 * self.x * self.x + self.curve.a) / (2 * self.y)
        else:
            lam = (other.y - self.y) / (other.x - self.x)
        x3 = lam * lam - self.x - other.x
        return Point(self.curve, x3, lam * (self.x - x3) - self.y)

    def __sub__(self, other: "Point") -> "Point":
        return self + (-other)

    def __rmul__(self, n: int) -> "Point":
        """n*P by double-and-add on the affine law."""
        if n < 0:
            return (-n) * (-self)
        acc, base = identity(self.curve), self
        while n:
            if n & 1:
                acc = acc + base
            base = base + base
            n >>= 1
        return acc

    def __eq__(self, other) -> bool:
        if isinstance(other, Point):
            return self.curve == other.curve and self.x == other.x and self.y == other.y
        return NotImplemented

    def __repr__(self) -> str:
        return "Point(O)" if self.x is None else f"Point({self.x.coeffs}, {self.y.coeffs})"


def identity(curve: EllipticCurve) -> Point:
    return Point(curve, None, None)


def on_curve_point(curve: EllipticCurve, x, y) -> Point:
    """The affine point (x, y), each an element, a coefficient vector or a
    constant in [0, p); CurveError if it is off the curve."""
    x, y = element(curve.field, x), element(curve.field, y)
    if y * y != rhs(curve, x):
        raise CurveError("point is not on the curve")
    return Point(curve, x, y)


def lift_x(curve: EllipticCurve, x: FieldElement) -> Point:
    """The point with this x and the canonical square root of x^3 + ax + b
    as y; NoSquareRoot if there is none."""
    return Point(curve, x, sqrt(rhs(curve, x)))


def x_matches(curve: EllipticCurve, pair: tuple[int, int], P: Point) -> bool:
    """Whether the raw projective (X : Z) is x(P), Z = 0 the identity."""
    X, Z = pair
    if P.is_identity():
        return not Z and bool(X)
    return bool(Z) and curve.field.mul_t(P.x.raw, Z) == X


def spread_t(sub: Field, full: Field, t: int) -> int:
    """y -> x^2 from sub = F_p[y]/(g) into full = F_p[x]/(g(x^2)) on raw
    ints: coefficient i moves to position 2i."""
    out = [0] * full.deg
    out[0::2] = sub.unpack(t)
    return full.pack(out)


def unspread_t(sub: Field, full: Field, t: int) -> int:
    """The inverse of spread_t on its image; NotInSubfield otherwise."""
    c = full.unpack(t)
    if any(c[1::2]):
        raise NotInSubfield(f"{c} has odd coordinates, so it is not in F_p[x^2]")
    return sub.pack(c[0::2])


def torsion_order_extension(p: int, r: int) -> int:
    """Least k with E[r] rational over F_{p^{2k}} for scalar-Frobenius
    models: the multiplicative order of -p mod r, which exists only when
    -p is a unit mod r."""
    if math.gcd(p, r) != 1:
        raise CurveError(f"-{p} is not a unit mod {r}")
    t = (-p) % r
    k, acc = 1, t
    while acc != 1 % r:
        acc = acc * t % r
        k += 1
    return k
