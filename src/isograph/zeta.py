"""Ihara zeta functions, exactly.

1/Z is (1 - t^2)^(-chi) times det(I - A t + Q t^2) with Q the diagonal of
degree-minus-one.  Everything is integer arithmetic, and every determinant
is one integer characteristic polynomial (polys.charpoly_int): det(I - tM)
is the characteristic polynomial of M with its coefficients reversed.  The
edge-matrix determinant and the explicit cycle census act as independent
oracles.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .enhanced import GraphBuilder
from .graph import Graph, adjacency_connected
from .polys import IntPolynomial, charpoly_int, log_series, ratfun_series

ONE_MINUS_T2 = IntPolynomial([1, 0, -1])


class ZetaError(ValueError):
    pass


def _adjacency_of(obj):
    if hasattr(obj, "brandt"):
        return [list(r) for r in obj.brandt]
    if hasattr(obj, "adjacency"):
        return [list(r) for r in obj.adjacency]
    return [list(r) for r in obj]


@dataclass(frozen=True)
class ZetaFunction:
    """Z = (1 - t^2)^chi / det_part, held as exactly those two values; the
    reduced numerator and denominator follow from them in closed form."""

    chi: int
    det_part: IntPolynomial

    def inverse_polynomial(self) -> IntPolynomial:
        """1/Z as an integer polynomial; requires chi <= 0."""
        if self.chi > 0:
            raise ZetaError("1/Z is not a polynomial when chi > 0")
        return (ONE_MINUS_T2 ** (-self.chi)) * self.det_part

    def _reduced(self) -> tuple[IntPolynomial, IntPolynomial]:
        """Z in lowest terms with the denominator's leading coefficient
        positive.  A connected graph has chi <= 1.  chi = 1 is a tree,
        where det_part = 1 - t^2 and Z = 1.  For chi <= 0, Z = 1/(1/Z) and
        1/Z has constant term 1, so no common factor or content cancels and
        only the sign is left to normalize."""
        one = IntPolynomial([1])
        if self.chi > 0:
            return one, one
        den = self.inverse_polynomial()
        return (-one, -den) if den.coeffs[-1] < 0 else (one, den)

    def log_zeta_series(self, order: int) -> list[Fraction]:
        return log_series(ratfun_series(*self._reduced(), order))

    def to_json_dict(self) -> dict:
        num, den = self._reduced()
        return {
            "chi": self.chi,
            "det_part": [str(c) for c in self.det_part.coeffs],
            "numerator": [str(c) for c in num.coeffs],
            "denominator": [str(c) for c in den.coeffs],
        }


def _det_one_minus_t(M) -> IntPolynomial:
    """det(I - tM) for a square integer matrix M: t^k det(I/t - M), i.e.
    the characteristic polynomial of M with its coefficients reversed."""
    return IntPolynomial(reversed(charpoly_int(M).coeffs))


def _det_part_charpoly(c: IntPolynomial, l: int) -> IntPolynomial:
    """det(I - At + l t^2 I) = sum_j c_j t^(n-j) (1 + l t^2)^j where
    c = det(xI - A) = sum_j c_j x^j."""
    n = c.degree
    base = IntPolynomial([1, 0, l])
    total = IntPolynomial()
    power = IntPolynomial([1])
    for j in range(n + 1):
        cj = c[j]
        if cj:
            total = total + (cj * power).shift(n - j)
        power = power * base
    return total


def ihara_zeta(graph_or_matrix, charpoly: IntPolynomial | None = None) -> ZetaFunction:
    """Exact zeta of a finite connected multigraph given by its adjacency
    matrix.

    Regular graphs expand det(I - At + qt^2 I) from the characteristic
    polynomial of A (`charpoly` when the caller already holds it, as
    Spectrum.charpoly, else charpoly_int(A)); irregular graphs take
    det(I - tM) of the 2n x 2n linearization M = [[A, -(D - I)], [I, 0]]."""
    A = _adjacency_of(graph_or_matrix)
    n = len(A)
    degrees = [sum(row) for row in A]
    total = sum(degrees)
    if total % 2 != 0:
        raise ZetaError("odd total degree cannot be a graph")
    chi = n - total // 2
    if not adjacency_connected(A):
        raise ZetaError("zeta function needs a connected graph")
    if len(set(degrees)) == 1:
        c = charpoly_int(A) if charpoly is None else charpoly
        det_part = _det_part_charpoly(c, degrees[0] - 1)
    else:
        M = [
            A[i] + [1 - degrees[i] if j == i else 0 for j in range(n)]
            for i in range(n)
        ]
        M += [[int(j == i) for j in range(2 * n)] for i in range(n)]
        det_part = _det_one_minus_t(M)
    if det_part[0] != 1:
        raise ZetaError("det_part must have constant term 1")
    return ZetaFunction(chi=chi, det_part=det_part)


def edge_matrix_zeta(graph: Graph) -> IntPolynomial:
    """det(I - tT) for the edge-transition matrix T[e][f] = 1 iff e feeds
    into f and f is not the reversal of e.  Independent of the Bass
    route: one characteristic polynomial of the 2|GE| x 2|GE| 0/1 matrix
    T rather than of anything built from the adjacency matrix."""
    m = graph.oriented_edge_count
    T = [
        [
            1 if graph.dst[e] == graph.src[f] and f != graph.inv[e] else 0
            for f in range(m)
        ]
        for e in range(m)
    ]
    return _det_one_minus_t(T)


# most oriented edges the edge-matrix oracle and the cycle census take
ORACLE_EDGE_LIMIT = 30


def primitive_cycle_census(graph: Graph, max_len: int = 6) -> dict[int, int]:
    """Counts N_m of closed reduced tail-less paths of each length m,
    start edge marked (so a primitive class of length m contributes m).

    Exhaustive depth-first enumeration; refuses graphs or lengths where
    that would blow up."""
    m_edges = graph.oriented_edge_count
    if m_edges > ORACLE_EDGE_LIMIT:
        raise ZetaError(f"census limited to {ORACLE_EDGE_LIMIT} oriented edges, got {m_edges}")
    if max_len > 10:
        raise ZetaError("census limited to length 10")
    out_by_vertex: dict[int, list[int]] = {}
    for f in range(m_edges):
        out_by_vertex.setdefault(graph.src[f], []).append(f)
    counts = {m: 0 for m in range(1, max_len + 1)}

    def extend(start: int, last: int, length: int):
        # close off at every admissible length, then go deeper
        if graph.dst[last] == graph.src[start] and start != graph.inv[last]:
            counts[length] += 1
        if length == max_len:
            return
        for f in out_by_vertex.get(graph.dst[last], ()):
            if f != graph.inv[last]:
                extend(start, f, length + 1)

    for e in range(m_edges):
        extend(e, e, 1)
    return counts


def census_matches_log_series(zeta: ZetaFunction, census: dict[int, int]) -> bool:
    """log Z = sum N_m t^m / m, term by term up to the census order."""
    order = max(census)
    series = zeta.log_zeta_series(order)
    for m in range(1, order + 1):
        if series[m] != Fraction(census[m], m):
            return False
    return True


# ------------------------------------------------------------- reciprocity


def reciprocity_check(p: int, q: int, l: int, seed: int = 0) -> dict:
    """Compare the zeta of the level-q graph over p (normalized by the
    square of its level-1 zeta) with the mirrored construction over q.

    Returns a certificate dict; the boolean lives under "equal".  The
    identity is checked by exact cross-multiplied integer polynomials,
    never by floating point."""
    if p == q:
        raise ZetaError("need distinct primes")
    zetas = {}
    sizes = {}
    for a, b in ((p, q), (q, p)):
        builder = GraphBuilder(a, l, seed=seed)
        g_level = builder.build(b)
        g_one = builder.build(1)
        zetas[(a, b)] = ihara_zeta(g_level)
        zetas[(a, 1)] = ihara_zeta(g_one)
        sizes[(a, b)] = g_level.n
    chi_left = zetas[(p, q)].chi - 2 * zetas[(p, 1)].chi
    chi_right = zetas[(q, p)].chi - 2 * zetas[(q, 1)].chi
    chi_expected = (p - 1) * (q - 1) * (1 - l) // 24
    chi_ok = chi_left == chi_right == chi_expected
    # Z(G_a(b))/Z(G_a(1))^2 = (1-t^2)^chi_side * D_{a,1}^2 / D_{a,b}
    shift = min(chi_left, chi_right)
    e_left = chi_left - shift
    e_right = chi_right - shift
    lhs = (
        zetas[(p, 1)].det_part ** 2
        * zetas[(q, p)].det_part
        * ONE_MINUS_T2**e_left
    )
    rhs = (
        zetas[(q, 1)].det_part ** 2
        * zetas[(p, q)].det_part
        * ONE_MINUS_T2**e_right
    )
    equal = chi_ok and lhs == rhs
    return {
        "p": p,
        "q": q,
        "l": l,
        "sizes": (sizes[(p, q)], sizes[(q, p)]),
        "chi": {"left": chi_left, "right": chi_right, "expected": chi_expected},
        "chi_ok": chi_ok,
        "degrees": (lhs.degree, rhs.degree),
        "equal": equal,
    }
