"""Ihara zeta functions, exactly.

G_p^(l)(N) is (l+1)-regular, so by Ihara-Bass 1/Z is (1 - t^2)^(-chi)
times det(I - A t + l t^2 I), with chi = graph.euler_characteristic
(vertices minus geometric edges).  Everything is integer arithmetic.
The Bass route expands det(xI - A), the product of the level tower's
new parts (graph.tower_charpoly), which also decides connectivity
(spectral.is_connected).  The independent oracle that verify compares
against is det(I - tT) over edge_reverse, from exact counts of closed
non-backtracking walks and Newton's identities; it shares no code with
the Bass route.  Nothing here loads numpy.
"""

from __future__ import annotations

from typing import NamedTuple

from .enhanced import AdmissibilityError, EnhancedGraph, GraphBuilder
from .graph import euler_characteristic, tower_charpoly
from .polys import Polynomial
from .spectral import is_connected

ONE_MINUS_T2 = Polynomial([1, 0, -1])

# most oriented edges the edge-matrix oracle takes in verify
ORACLE_EDGE_LIMIT = 30


class ZetaError(ValueError):
    pass


class ZetaFunction(NamedTuple):
    """Z = (1 - t^2)^chi / det_part, held as exactly those two values; the
    reduced numerator and denominator follow from them in closed form."""

    chi: int
    det_part: Polynomial

    def inverse_polynomial(self) -> Polynomial:
        """1/Z as an integer polynomial (chi <= 0 for every G_p^(l)(N))."""
        return (ONE_MINUS_T2 ** (-self.chi)) * self.det_part

    def _reduced(self) -> tuple[Polynomial, Polynomial]:
        """Z in lowest terms with the denominator's leading coefficient
        positive.  Z = 1/(1/Z) and 1/Z has constant term 1, so no common
        factor or content cancels and only the sign is left to normalize."""
        one = Polynomial([1])
        den = self.inverse_polynomial()
        return (-one, -den) if den.coeffs[-1] < 0 else (one, den)

    def to_json_dict(self) -> dict:
        num, den = self._reduced()
        return {
            "chi": self.chi,
            "det_part": [str(c) for c in self.det_part.coeffs],
            "numerator": [str(c) for c in num.coeffs],
            "denominator": [str(c) for c in den.coeffs],
        }


def _det_part_charpoly(c: Polynomial, l: int) -> Polynomial:
    """det(I - At + l t^2 I) = sum_j c_j t^(n-j) (1 + l t^2)^j where
    c = det(xI - A) = sum_j c_j x^j, expanded term by term: c_j C(j, i) l^i
    at t^(n-j+2i), each term the last times (j - i) l / (i + 1), exactly."""
    n = c.degree
    out = [0] * (2 * n + 1)
    for j, term in enumerate(c.coeffs):
        for i in range(j + 1):
            out[n - j + 2 * i] += term
            term = term * (j - i) * l // (i + 1)
    return Polynomial(out)


def ihara_zeta(eg: EnhancedGraph) -> ZetaFunction:
    """Exact zeta of a connected graph: det(I - At + l t^2 I) expanded
    from graph.tower_charpoly, which also decides connectivity
    (spectral.is_connected); the tower's new parts are cached, so after
    the spectrum this runs no second Lanczos."""
    c = tower_charpoly(eg)
    if not is_connected(c, eg.degree):
        raise ZetaError("zeta function needs a connected graph")
    chi = euler_characteristic(eg)
    return ZetaFunction(chi=chi, det_part=_det_part_charpoly(c, eg.l))


def edge_matrix_zeta(eg: EnhancedGraph) -> Polynomial:
    """det(I - tT) for the edge-transition matrix T[e][f] = 1 iff e feeds
    into f and f is not the reversal edge_reverse[e].  Independent of the
    Bass route: log det(I - tT)^(-1) = sum_j p_j t^j / j with p_j = tr(T^j)
    the number of closed non-backtracking walks of length j (Hashimoto
    1989), so c_0 = 1 and j c_j = -sum_(i<=j) p_i c_(j-i) (Newton).  Row e
    of T^j is one packed int, lane f holding T^j[e][f] <= s^j for s the
    largest successor count; a lane of bit_length(m s^m) never carries."""
    k = eg.degree
    m = eg.oriented_edge_count
    succ = [
        [f for f in range(t * k, t * k + k) if f != r]
        for t, r in zip(eg.edge_target, eg.edge_reverse)
    ]
    width = (m * max(map(len, succ), default=0) ** m).bit_length()
    mask = (1 << width) - 1
    rows = [sum(1 << (f * width) for f in fs) for fs in succ]  # T
    p, c = [0], [1]
    for j in range(1, m + 1):
        if j > 1:  # row e of T^j is the sum of T^(j-1)'s rows over e's successors
            rows = [sum(map(rows.__getitem__, fs)) for fs in succ]
        p.append(sum(row >> (e * width) & mask for e, row in enumerate(rows)))
        c.append(-sum(p[i] * c[j - i] for i in range(1, j + 1)) // j)  # exact
    return Polynomial(c)


# ------------------------------------------------------------- reciprocity


def reciprocity_check(p: int, q: int, l: int, seed: int = 0) -> dict:
    """Compare the zeta of the level-q graph over p (normalized by the
    square of its level-1 zeta) with the mirrored construction over q.

    Returns a certificate dict; the boolean lives under "equal".  The
    identity is checked by exact cross-multiplied integer polynomials,
    never by floating point."""
    if p == q:
        raise AdmissibilityError("need distinct primes")
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
    # Z(G_a(b))/Z(G_a(1))^2 = (1-t^2)^chi_side * D_{a,1}^2 / D_{a,b}; with
    # chi_ok both sides share the power of 1 - t^2, so cross-multiply the D
    lhs = zetas[(p, 1)].det_part ** 2 * zetas[(q, p)].det_part
    rhs = zetas[(q, 1)].det_part ** 2 * zetas[(p, q)].det_part
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
