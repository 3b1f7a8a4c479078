"""Spectra of adjacency matrices and expansion measures.

Every verdict is exact and reads the integer characteristic polynomial
P = det(xI - A) (polys.charpoly_int).  This module holds the one
definition of connectivity (is_connected: P'(k) != 0 for A k-regular)
and of bipartiteness (is_bipartite: P(-x) = +-P(x)), each one pass over
P's coefficients.  The other verdicts count the roots of P above and on
a threshold in Q(sqrt l) (count_roots).  LAPACK eigenvalues
(`numpy.linalg.eigvalsh`) are for display only: lambda*, the Ramanujan
bound, the Laplacian gap and the float Cheeger bounds.  The Cheeger
constant h is enumerated in integers.  Only the functions that call
LAPACK or enumerate subsets import numpy, so the verdicts on P, which
zeta reads, load none.

For a k-regular graph, k = l + 1 and gap = k - lambda_1, Dodziuk (1984)
and Alon-Milman (1985) give gap/2 <= h <= sqrt(2k gap), and
gap >= (sqrt l - 1)^2 exactly when lambda_1 <= 2 sqrt l: one count
certifies the paper's floor h >= (sqrt l - 1)^2 / 2 at every size.  The
upper halves of the windows (gap/2 and h at most sqrt(2k) (sqrt l + 1))
need no comparison: row sums equal k, which build and load validate, so
gap <= 2k and h <= k < sqrt(2k) (sqrt l + 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

from .polys import Polynomial, charpoly_int

if TYPE_CHECKING:
    import numpy as np

# LAPACK's top eigenvalue may miss the exact degree by rounding, no more
EIGVALSH_TOL = 1e-9


class SpectralError(ValueError):
    pass


def _as_matrix(obj) -> np.ndarray:
    import numpy as np
    A = np.asarray(obj.brandt if hasattr(obj, "brandt") else obj)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise SpectralError("need a square matrix")
    if not np.issubdtype(A.dtype, np.integer):
        raise SpectralError("need an integer matrix")
    if not np.array_equal(A, A.T):
        raise SpectralError("matrix must be symmetric")
    return A.astype(np.int64)


def _sign(a: int, b: int, d: int) -> int:
    """Sign of a + b sqrt(d), d >= 0."""
    if a * b >= 0:
        return (a > 0 or b > 0) - (a < 0 or b < 0)
    return (1 if a > 0 else -1) * ((a * a > d * b * b) - (a * a < d * b * b))


def count_roots(poly: Polynomial, u: int, v=0, w=1, d=0) -> tuple[int, int]:
    """Roots of `poly` above and on the threshold (u + v sqrt d) / w, w > 0,
    with multiplicity, for a polynomial whose roots are all real.

    w^n poly((y + u + v sqrt d) / w) has the roots w lambda - u - v sqrt d
    and coefficients a + b sqrt d in Z[sqrt d], so every sign is exact.  Its
    zero coefficients at the bottom count the roots on the threshold, and
    Descartes' rule of signs, exact when every root is real, those above."""
    n = poly.degree
    a = [c * w ** (n - i) for i, c in enumerate(poly.coeffs)]
    b = [0] * (n + 1)
    for i in range(n):  # Taylor shift by u + v sqrt d
        for j in range(n - 1, i - 1, -1):
            a[j], b[j] = (
                a[j] + u * a[j + 1] + v * d * b[j + 1],
                b[j] + u * b[j + 1] + v * a[j + 1],
            )
    signs = [_sign(x, y, d) for x, y in zip(a, b)]
    at = next(i for i, s in enumerate(signs) if s)
    live = [s for s in signs if s]
    return sum(s != t for s, t in zip(live, live[1:])), at


def is_connected(charpoly: Polynomial, degree: int) -> bool:
    """Connectivity of a `degree`-regular, symmetric, non-negative matrix
    from its characteristic polynomial: `degree` is a root of multiplicity
    the number of components, so the graph is connected exactly when the
    derivative does not vanish there (one Horner pass)."""
    return charpoly.derivative()(degree) != 0


def is_bipartite(charpoly: Polynomial) -> bool:
    """Bipartiteness of a symmetric, non-negative matrix (loops and
    irregular rows allowed) from its characteristic polynomial: no odd
    closed walk exists exactly when the spectrum is symmetric about 0, that
    is when every coefficient of x^(n - j) with j odd is 0."""
    n = charpoly.degree
    return not any(c for j, c in enumerate(charpoly.coeffs) if (n - j) % 2)


@dataclass(frozen=True)
class Spectrum:
    """Spectrum of a k-regular graph: the exact characteristic polynomial,
    which decides every check, and the LAPACK eigenvalues, descending."""

    eigenvalues: tuple[float, ...]
    degree: int
    charpoly: Polynomial

    @property
    def n(self) -> int:
        return len(self.eigenvalues)

    @property
    def lambda_star(self) -> float:
        """Largest nontrivial eigenvalue in absolute value."""
        return max((abs(x) for x in self.eigenvalues[1:]), default=0.0)

    @property
    def laplacian_gap(self) -> float:
        """Second-smallest Laplacian eigenvalue k - lambda_1."""
        return self.degree - self.eigenvalues[1] if self.n > 1 else 0.0


def spectrum(graph_or_matrix) -> Spectrum:
    import numpy as np
    A = _as_matrix(graph_or_matrix)
    row_sums = A.sum(axis=1)
    if np.any(row_sums != row_sums[0]):
        raise SpectralError("graph is not regular")
    degree = int(row_sums[0])
    eigs = np.linalg.eigvalsh(A.astype(float))[::-1].tolist()
    if abs(eigs[0] - degree) > EIGVALSH_TOL:
        raise SpectralError(f"top eigenvalue {eigs[0]} differs from degree {degree}")
    return Spectrum(tuple(eigs), degree, charpoly_int(A.tolist()))


@dataclass(frozen=True)
class RamanujanReport:
    """Exact verdicts, with 2 sqrt(l) and lambda* as floats for display."""

    bound: float
    lambda_star: float
    ok: bool  # exactly one |lambda| > 2 sqrt(l), namely l + 1
    connected: bool  # is_connected: l + 1 is a simple eigenvalue
    gap_floor: bool  # lambda_1 <= 2 sqrt(l), so gap >= (sqrt l - 1)^2


def ramanujan_report(spec: Spectrum, l: int) -> RamanujanReport:
    """Verdicts for an (l+1)-regular spectrum.  Its row sums make l + 1 an
    eigenvalue, above 2 sqrt(l); so `ok` also means connected and
    non-bipartite, and one root above 2 sqrt(l) means lambda_1 <= 2 sqrt(l)
    or n = 1."""
    if spec.degree != l + 1:
        raise SpectralError(f"degree {spec.degree} does not match l + 1 = {l + 1}")
    above, _ = count_roots(spec.charpoly, 0, 2, 1, l)
    not_below, at = count_roots(spec.charpoly, 0, -2, 1, l)
    return RamanujanReport(
        bound=2.0 * math.sqrt(l),
        lambda_star=spec.lambda_star,
        ok=above == 1 and not_below + at == spec.n,
        connected=is_connected(spec.charpoly, spec.degree),
        gap_floor=above == 1,
    )


# ----------------------------------------------------------------- Cheeger


EXACT_CHEEGER_LIMIT = 24
# subsets scored per block: keeps the temporaries to a few MB at n = 24
BLOCK_SUBSETS = 1 << 16


@dataclass(frozen=True)
class CheegerResult:
    value: Fraction | None
    witness: tuple[int, ...] | None
    lower_bound: float
    upper_bound: float
    method: str


def _subset_bits(count: int) -> np.ndarray:
    """Row m holds the bits of m: one row per subset of `count` vertices."""
    import numpy as np
    return (np.arange(1 << count, dtype=np.int64)[:, None] >> np.arange(count)) & 1


def _exact_cheeger(A: np.ndarray) -> tuple[Fraction, tuple[int, ...]]:
    """Minimize boundary(S)/|S| over nonempty S with |S| <= n/2 in integers;
    the witness is the lowest minimizing bitmask (vertex v is bit v).

    With L the low half of the vertices and H the high half,
    boundary(S_H + S_L) = boundary(S_H) + boundary(S_L) - 2 A(S_H, S_L), and
    the cross terms of a block of subsets of H against every subset of L
    are one integer product.  A ratio over s vertices is scored as
    boundary * lcm(1..n/2) / s; a block's flat index order is mask order,
    so its first minimum is its lowest mask."""
    import numpy as np
    n = A.shape[0]
    half = n // 2
    lo, hi = slice(0, half), slice(half, n)
    bits_lo, bits_hi = _subset_bits(half), _subset_bits(n - half)
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
    rows = max(1, BLOCK_SUBSETS >> half)
    for start in range(0, len(bits_hi), rows):
        block = slice(start, start + rows)
        w = weight[size_hi[block, None] + size_lo]
        boundary = edge_hi[block, None] + edge_lo - 2 * (cross[block] @ bits_lo.T)
        keys = np.where(w > 0, boundary * w, best)
        i = int(np.argmin(keys))
        if keys.flat[i] < best:
            best, best_mask = int(keys.flat[i]), (start << half) + i
    return Fraction(best, scale), tuple(v for v in range(n) if best_mask >> v & 1)


def cheeger_constant(graph_or_matrix, spec: Spectrum | None = None) -> CheegerResult:
    """Isoperimetric constant h, exact (a Fraction, with a witness subset)
    for 2 <= n <= 24, and gap/2 <= h <= sqrt(2 k gap) as floats for display.
    A caller holding the matrix's spectrum passes it as `spec`."""
    A = _as_matrix(graph_or_matrix)
    n = A.shape[0]
    if spec is None:
        spec = spectrum(A)
    elif spec.n != n:
        raise SpectralError(f"spectrum of size {spec.n} does not fit a {n}-vertex graph")
    gap = spec.laplacian_gap
    bounds = (gap / 2.0, math.sqrt(max(0.0, 2.0 * spec.degree * gap)))
    if n == 1:
        return CheegerResult(None, None, *bounds, method="undefined")
    if n <= EXACT_CHEEGER_LIMIT:
        return CheegerResult(*_exact_cheeger(A), *bounds, method="exact")
    return CheegerResult(None, None, *bounds, method="bounds-only")


def cheeger_sandwich(spec: Spectrum, h: Fraction) -> bool:
    """Exact h against the paper's floor (sqrt l - 1)^2 / 2 and the bounds
    gap/2 <= h <= sqrt(2 k gap), for the spectrum's degree k = l + 1."""
    k = spec.degree
    t = k - 2 * Fraction(h)  # h >= gap/2 exactly when lambda_1 >= k - 2h
    s = k - Fraction(h) ** 2 / (2 * k)  # h <= sqrt(2k gap): lambda_1 <= s
    above_t, at_t = count_roots(spec.charpoly, t.numerator, w=t.denominator)
    above_s, _ = count_roots(spec.charpoly, s.numerator, w=s.denominator)
    return (t <= 0 or t * t <= 4 * (k - 1)) and above_t + at_t >= 2 and above_s <= 1
