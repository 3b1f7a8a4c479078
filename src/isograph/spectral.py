"""Spectra of adjacency matrices and expansion measures.

Every verdict is exact and reads the integer characteristic polynomial
P = det(xI - A): for an EnhancedGraph the product of its level tower's
new parts Q_M (graph.new_part), for a bare matrix polys.charpoly_int.
This module holds the one definition of connectivity (is_connected:
P'(k) != 0 for A k-regular) and of bipartiteness (is_bipartite:
P(-x) = +-P(x)), each one pass over P's coefficients.  The other
verdicts count the roots of P above and on a threshold in Q(sqrt l)
(count_roots).  Float eigenvalues from one pure-Python solver
(Householder, then implicit-shift QL) are for display only: lambda*, the
Ramanujan bound, the Laplacian gap and the Cheeger bounds.  A graph's
eigenvalues come block by block along the same tower as P: one level
quotient B_M per M | N, built once per spectrum call
(graph.level_quotients), gives both Q_M and the float block V^T B_M V
on its new vectors (new_block_eigenvalues, cached per process), and
each block's eigenvalues are checked against Q_M's first two power
sums.  A bare matrix, or a graph whose partition is not equitable, is
one block, the whole matrix (symmetric_eigenvalues).  The Cheeger
constant h is enumerated in integers, packed into the lanes of Python
ints.  Nothing here imports numpy.

For a k-regular graph, k = l + 1 and gap = k - lambda_1, Dodziuk (1984)
and Alon-Milman (1985) give gap/2 <= h <= sqrt(2k gap), and
gap >= (sqrt l - 1)^2 exactly when lambda_1 <= 2 sqrt l: one count
certifies the paper's floor h >= (sqrt l - 1)^2 / 2 at every size.  The
upper halves of the windows (gap/2 and h at most sqrt(2k) (sqrt l + 1))
need no comparison: row sums equal k, which build and load validate, so
gap <= 2k and h <= k < sqrt(2k) (sqrt l + 1).
"""

from __future__ import annotations

import functools
import math
import operator
import struct
import sys
from typing import TYPE_CHECKING, Callable, NamedTuple, Sequence

from .enhanced import EnhancedGraph
from .graph import level_quotients, new_part
from .polys import Polynomial, charpoly_int

if TYPE_CHECKING:
    from fractions import Fraction

# the solver's top eigenvalue may miss the exact degree by rounding, no
# more; a block's power sums may miss their exact values by this much
# relative to the sum of |lambda|^j
EIGVALSH_TOL = 1e-9
# QL steps allowed per eigenvalue; two or three are typical
QL_MAX_ITERATIONS = 30


class SpectralError(ValueError):
    pass


Block = tuple[Sequence[float], Polynomial]  # eigenvalues and their exact polynomial


def _as_matrix(obj) -> tuple[Sequence[Sequence[int]], Callable[[], list[Block]]]:
    """The one place a graph is told from a bare matrix.  A graph's brandt,
    as its constructor proved it (square, integer, symmetric), with its
    level tower's blocks (_tower_blocks); a bare matrix, checked for all
    three, with one block, the whole matrix (_whole_block)."""
    if isinstance(obj, EnhancedGraph):
        return obj.brandt, lambda: _tower_blocks(obj)
    try:
        A = [list(row) for row in obj]
    except TypeError:
        raise SpectralError("need a square matrix") from None
    n = len(A)
    if n == 0 or any(len(row) != n for row in A):
        raise SpectralError("need a square matrix")
    try:
        A = [[operator.index(x) for x in row] for row in A]
    except TypeError:
        raise SpectralError("need an integer matrix") from None
    if any(A[i][j] != A[j][i] for i in range(n) for j in range(i)):
        raise SpectralError("matrix must be symmetric")
    return A, lambda: [_whole_block(A)]


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


class Spectrum(NamedTuple):
    """Spectrum of a k-regular graph: the exact characteristic polynomial,
    which decides every check, and the float eigenvalues, descending."""

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


def _tridiagonalize(A) -> tuple[list[float], list[float]]:
    """Householder reduction of a symmetric matrix (Golub-Van Loan 8.3.1):
    the diagonal d and off-diagonal e (e[i] joins i and i + 1, e[n-1] = 0)
    of a tridiagonal matrix with A's eigenvalues.  Each step reflects the
    column below the diagonal onto its first entry and goes on with the
    reflected trailing block, C - v w^T - w v^T."""
    B = [[float(x) for x in row] for row in A]
    d: list[float] = []
    e: list[float] = []
    while len(B) > 1:
        d.append(B[0][0])
        v = B[0][1:]  # the column below the diagonal, as B is symmetric
        C = [row[1:] for row in B[1:]]
        norm = math.hypot(*v)
        if norm == 0.0:
            e.append(0.0)
            B = C
            continue
        s = math.copysign(norm, v[0])
        e.append(-s)
        v[0] += s  # (I - beta v v^T) x = -s e_1
        beta = 1.0 / (s * v[0])
        p = [beta * sum(map(operator.mul, row, v)) for row in C]
        half_pv = 0.5 * beta * sum(map(operator.mul, p, v))
        w = [a - half_pv * b for a, b in zip(p, v)]
        B = [
            [c - vi * wj - wi * vj for c, vj, wj in zip(row, v, w)]
            for row, vi, wi in zip(C, v, w)
        ]
    d.append(B[0][0])
    e.append(0.0)
    return d, e


def _ql_eigenvalues(d: list[float], e: list[float]) -> list[float]:
    """Eigenvalues of the tridiagonal (d, e) by implicit-shift QL with
    Wilkinson's shift (tqli; Golub-Van Loan 8.3.3), in place.  An
    off-diagonal entry counts as zero once it is below machine epsilon
    relative to its two diagonal neighbours; a NaN never does."""
    n = len(d)
    eps = sys.float_info.epsilon
    for l in range(n):
        steps = 0
        while True:
            m = l
            while m < n - 1 and not abs(e[m]) <= eps * (abs(d[m]) + abs(d[m + 1])):
                m += 1
            if m == l:
                break
            if steps == QL_MAX_ITERATIONS:
                raise SpectralError("QL iteration did not converge")
            steps += 1
            g = (d[l + 1] - d[l]) / (2.0 * e[l])
            r = math.hypot(g, 1.0)
            g = d[m] - d[l] + e[l] / (g + math.copysign(r, g))
            s = c = 1.0
            p = 0.0
            for i in range(m - 1, l - 1, -1):
                f, b = s * e[i], c * e[i]
                r = math.hypot(f, g)
                e[i + 1] = r
                if r == 0.0:  # underflow: the block splits at i + 1
                    d[i + 1] -= p
                    e[m] = 0.0
                    break
                s, c = f / r, g / r
                g = d[i + 1] - p
                r = (d[i] - g) * s + 2.0 * c * b
                p = s * r
                d[i + 1] = g + p
                g = c * r - b
            else:
                d[l] -= p
                e[l] = g
                e[m] = 0.0
    return d


def symmetric_eigenvalues(A) -> list[float]:
    """Eigenvalues of a real symmetric matrix, descending; raises
    SpectralError when QL does not converge."""
    return sorted(_ql_eigenvalues(*_tridiagonalize(A)), reverse=True)


def _whole_block(A) -> Block:
    """The whole matrix as one block: its eigenvalues and charpoly_int."""
    return symmetric_eigenvalues(A), charpoly_int(A)


def _helmert(m: int) -> list[list[float]]:
    """The m - 1 non-constant columns of the m x m Helmert matrix, as m
    rows: column j (1 <= j < m) is (1, ..., 1, -j, 0, ..., 0) / sqrt(j (j+1))
    with j ones, so the columns are orthonormal and each sums to zero."""
    return [
        [(1.0 if i < j else -float(j) if i == j else 0.0) / math.sqrt(j * (j + 1))
         for j in range(1, m)]
        for i in range(m)
    ]


def _slot_basis(primes: tuple[int, ...]) -> list[list[float]]:
    """H, prod (r+1) rows by prod r columns: the Kronecker product over the
    primes of _helmert(r + 1), rows in the product order of the slot tuples
    (enhanced.vertex_table).  Its columns are an orthonormal basis of the
    vectors on one class's slots that sum to zero over each fiber of
    forgetting one prime."""
    H = [[1.0]]
    for r in primes:
        h = _helmert(r + 1)
        H = [[x * y for x in row for y in hrow] for row in H for hrow in h]
    return H


@functools.lru_cache(maxsize=None)
def new_block_eigenvalues(
    quotient: tuple[tuple[int, ...], ...], primes: tuple[int, ...]
) -> tuple[float, ...]:
    """The eigenvalues of the level quotient B on its new vectors, the roots
    of graph.new_part(B, primes): Householder + QL on V^T B V, where V is H
    (_slot_basis) on each class, its rows class-major like the vertex table.
    V^T B V, classes * prod r square, is H^T (B V) class by class, B V
    summed from B's nonzero entries and H's rows; only its upper triangle
    is summed, and the lower one mirrors it, so it is exactly symmetric.
    Computed once per process for each (B, primes), new_part's key, so a
    grid solves each new block once and G(M)'s eigenvalues recur bit for
    bit in G(N)'s."""
    H = _slot_basis(primes)
    slots, cols = len(H), len(H[0])
    dim = len(quotient) // slots * cols
    S = []
    for c in range(0, len(quotient), slots):
        start = c // slots * cols  # the class's first row of S, and its diagonal
        BV = []  # the class's rows of B V from column `start` on
        for row in quotient[c : c + slots]:
            out = [0.0] * dim
            for v in range(c, len(row)):
                w = row[v]
                if w:
                    d, t = divmod(v, slots)
                    i = d * cols
                    out[i : i + cols] = [x + w * h for x, h in zip(out[i : i + cols], H[t])]
            BV.append(out)
        columns = list(zip(*BV))[start:]
        pad = [0.0] * start
        S.extend(pad + [sum(map(operator.mul, h, col)) for col in columns] for h in zip(*H))
    for i in range(dim):
        for j in range(i):
            S[i][j] = S[j][i]
    return tuple(_ql_eigenvalues(*_tridiagonalize(S)))


def _tower_blocks(eg: EnhancedGraph) -> list[Block]:
    """(new_block_eigenvalues, new_part) for each M | N, both from one
    build of the level quotients (graph.level_quotients); the whole matrix
    as one block when a partition is not equitable, which only a
    hand-edited graph has."""
    quotients = level_quotients(eg)
    if quotients is None:
        return [_whole_block(eg.brandt)]
    return [(new_block_eigenvalues(*q), new_part(*q)) for q in quotients.values()]


def _check_block(values: Sequence[float], poly: Polynomial) -> None:
    """Newton's first two identities against the exact polynomial
    x^d + c_{d-1} x^{d-1} + c_{d-2} x^{d-2} + ...: the eigenvalues sum to
    -c_{d-1} and their squares to c_{d-1}^2 - 2 c_{d-2}, each within
    EIGVALSH_TOL of the sum of |lambda|^j."""
    d = poly.degree
    c1, c2 = poly[d - 1], poly[d - 2]  # poly[-1] is 0
    for j, exact in ((1, -c1), (2, c1 * c1 - 2 * c2)):
        power_sum = math.fsum(x**j for x in values)
        scale = max(1.0, math.fsum(abs(x) ** j for x in values))
        if abs(power_sum - exact) > EIGVALSH_TOL * scale:
            raise SpectralError(
                f"power sum {j} of a degree-{d} block is {power_sum}, not {exact}"
            )


def spectrum(graph_or_matrix) -> Spectrum:
    """The exact characteristic polynomial and the float eigenvalues,
    block by block: for an EnhancedGraph one block per M | N, the level-M
    quotient on its new vectors, each solved and factored once per
    process; for a bare matrix one block, the whole matrix.  Each block's
    eigenvalues must match its polynomial's first two power sums, and the
    top eigenvalue the degree, else SpectralError."""
    A, blocks = _as_matrix(graph_or_matrix)
    degree = sum(A[0])
    if any(sum(row) != degree for row in A):
        raise SpectralError("graph is not regular")
    solved = blocks()
    eigs = sorted((x for values, _ in solved for x in values), reverse=True)
    if abs(eigs[0] - degree) > EIGVALSH_TOL:
        raise SpectralError(f"top eigenvalue {eigs[0]} differs from degree {degree}")
    for values, poly in solved:
        _check_block(values, poly)
    charpoly = functools.reduce(operator.mul, (poly for _, poly in solved))
    return Spectrum(tuple(eigs), degree, charpoly)


class RamanujanReport(NamedTuple):
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
# lane widths that struct unpacks, with their formats (read little-endian)
LANE_FORMATS = {8: "B", 16: "H", 32: "I", 64: "Q"}


class CheegerResult(NamedTuple):
    value: Fraction | None
    witness: tuple[int, ...] | None
    lower_bound: float
    upper_bound: float
    method: str


def _indicators(masks, count: int, width: int) -> list[int]:
    """B_v for v < count: one `width`-bit lane per mask, in order, holding
    1 where the mask has bit v."""
    step = width // 8
    out = []
    for v in range(count):
        lanes = bytearray(len(masks) * step)
        lanes[::step] = bytes(m >> v & 1 for m in masks)
        out.append(int.from_bytes(lanes, "little"))
    return out


def _packed_boundaries(A, vertices, B: list[int], degree: list[int]) -> int:
    """boundary(S) in every lane of B's packing, S over `vertices` (B[i]
    the indicator of vertices[i]): S's volume minus its inner weight, as
    the sum over u in S of deg u - A[u][u], less 2 A[u][v] per pair."""
    out = 0
    for i, u in enumerate(vertices):
        out += (degree[u] - A[u][u]) * B[i]
        for j in range(i):
            out -= 2 * A[u][vertices[j]] * (B[i] & B[j])
    return out


def _unpack(x: int, count: int, width: int) -> tuple[int, ...]:
    """The `count` lanes of x, lowest first."""
    fmt = f"<{count}{LANE_FORMATS[width]}"
    return struct.unpack(fmt, x.to_bytes(count * width // 8, "little"))


def _exact_cheeger(A: list[list[int]]) -> tuple[Fraction, tuple[int, ...]]:
    """Minimize boundary(S)/|S| over nonempty S with |S| <= n/2 in integers;
    the witness is the lowest minimizing bitmask (vertex v is bit v).

    With L the low half of the vertices and H the high half,
    boundary(S_H + S_L) = boundary(S_H) + boundary(S_L) - 2 A(S_H, S_L).
    A row is one int holding that boundary for one S_H and every S_L, in
    lanes ordered by (|S_L|, S_L).  Its cross terms are the sum over u in
    S_H of sum_v A[u][v] B_v, B_v the packed indicator of bit v; S_H runs
    in mask order, so each row adds one precomputed difference.  Adding
    guard - t to a row leaves a lane's guard bit (its top bit) clear
    exactly when its boundary is below t, the least boundary that does
    not beat the best ratio at the lane's size; only a row with such a
    lane is unpacked and scanned in full.  Rows improve strictly in mask
    order, so the witness is the lowest minimizing mask."""
    from fractions import Fraction  # off the import path of every command

    n = len(A)
    if any(x < 0 for row in A for x in row):
        raise SpectralError("need a non-negative matrix")
    degree = [sum(row) for row in A]
    # every boundary is at most sum(degree), below a lane's guard bit
    width = next((w for w in LANE_FORMATS if sum(degree).bit_length() < w), None)
    if width is None:
        raise SpectralError("entries too large for the exact Cheeger search")
    half = n // 2  # the low half, and the largest size that counts
    low, high = range(half), range(half, n)
    order = sorted(range(1 << half), key=lambda m: (m.bit_count(), m))
    starts = [0]
    for j in range(half + 1):
        starts.append(starts[-1] + math.comb(half, j))

    def ones(a: int, b: int) -> int:  # 1 in each lane a..b-1
        return ((1 << width * (b - a)) - 1) // ((1 << width) - 1) << width * a

    group = [ones(starts[j], starts[j + 1]) for j in range(half + 1)]
    all_ones = ones(0, len(order))
    top = 1 << width - 1
    guard = all_ones * top

    B = _indicators(order, half, width)
    rows = 1 << (n - half)
    edge_hi = _unpack(
        _packed_boundaries(A, high, _indicators(range(rows), n - half, width), degree),
        rows,
        width,
    )
    cross = [sum(A[u][v] * B[v] for v in low) for u in high]
    # S_H going from m - 1 to m sets bit t = ctz(m) and clears the bits below
    step = [2 * (c - sum(cross[:t])) for t, c in enumerate(cross)]

    def offsets(best: Fraction | None) -> list[int]:
        """guard - t in every lane, for each |S_H|; t = 0 where the size
        is 0 or above n/2."""
        t = [0] * (n + 1)
        for s in range(1, half + 1):
            t[s] = top if best is None else min(top, -(-best.numerator * s // best.denominator))
        return [
            guard - sum(t[h + j] * group[j] for j in range(half + 1))
            for h in range(n - half + 1)
        ]

    best, best_mask = None, 0
    offset = offsets(best)
    x = _packed_boundaries(A, low, B, degree)  # boundary(S_L) - 2 A(S_H, S_L)
    for m in range(rows):
        if m:
            x -= step[(m & -m).bit_length() - 1]
        row = x + edge_hi[m] * all_ones
        h = m.bit_count()
        if (row + offset[h]) & guard == guard:
            continue
        values = _unpack(row, len(order), width)
        candidates = []
        for j in range(max(0, 1 - h), half - h + 1):
            lanes = values[starts[j] : starts[j + 1]]
            b = min(lanes)
            candidates.append((Fraction(b, h + j), order[starts[j] + lanes.index(b)]))
        best, low_mask = min(candidates)
        best_mask = m << half | low_mask
        offset = offsets(best)
    return best, tuple(v for v in range(n) if best_mask >> v & 1)


def cheeger_constant(graph_or_matrix, spec: Spectrum | None = None) -> CheegerResult:
    """Isoperimetric constant h, exact (a Fraction, with a witness subset)
    for 2 <= n <= 24, and gap/2 <= h <= sqrt(2 k gap) as floats for display.
    `spec` defaults to spectrum(graph_or_matrix), a graph's by its tower."""
    A, _ = _as_matrix(graph_or_matrix)
    n = len(A)
    if spec is None:
        spec = spectrum(graph_or_matrix)
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
    from fractions import Fraction  # off the import path of every command

    k = spec.degree
    t = k - 2 * Fraction(h)  # h >= gap/2 exactly when lambda_1 >= k - 2h
    s = k - Fraction(h) ** 2 / (2 * k)  # h <= sqrt(2k gap): lambda_1 <= s
    above_t, at_t = count_roots(spec.charpoly, t.numerator, w=t.denominator)
    above_s, _ = count_roots(spec.charpoly, s.numerator, w=s.denominator)
    return (t <= 0 or t * t <= 4 * (k - 1)) and above_t + at_t >= 2 and above_s <= 1
