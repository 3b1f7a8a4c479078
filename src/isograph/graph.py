"""The Euler characteristic, covering maps, the level tower (its
quotients and the characteristic polynomial's new parts) and exports of
an EnhancedGraph.

All of them read the EnhancedGraph itself: oriented edge e runs from
e // (l+1) to edge_target[e], and edge_reverse pairs it with its
reversal.  Connectivity and bipartiteness are spectral facts, decided
from the characteristic polynomial (spectral.is_connected,
spectral.is_bipartite).

A covering G(N) -> G(M) is its vertex projection: an edge keeps its
kernel slot, so edge e maps to vertex_map[e // k] * k + e % k with
k = l + 1.  verify_covering checks what that rule leaves open, vertex
fibers of sigma1(N/M) elements and heads that commute.

The coverings split the spectrum (Atkin-Lehner 1970, Pizer 1980): in a
basis adapted to the tower, A_N is block-diagonal over M | N, each block
the level-M quotient A_M (level_quotients) on the vectors that sum to
zero over every fiber of each projection that forgets one prime of M,
of dimension (p - 1) M / 12.  So det(xI - A_N) is the product over
M | N of the blocks' characteristic polynomials Q_M (new_part,
tower_charpoly), and the float eigenvalues are the union of the blocks'
(spectral.new_block_eigenvalues).
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from typing import NamedTuple, Sequence

from .enhanced import EnhancedGraph, sigma1, vertex_table
from .polys import Polynomial, charpoly_int


class CoveringError(ValueError):
    pass


def euler_characteristic(eg: EnhancedGraph) -> int:
    """Vertices minus geometric edges."""
    return eg.n - eg.geometric_edge_count


# ------------------------------------------------------------- coverings


class CoveringMap(NamedTuple):
    """Projection from a finer level to a coarser one, given on vertex ids.
    An edge keeps its kernel slot, so oriented edge e maps to
    vertex_map[e // k] * k + e % k (k = l + 1)."""

    vertex_map: tuple[int, ...]
    fiber_size: int


def covering_map(fine: EnhancedGraph, coarse: EnhancedGraph) -> CoveringMap:
    """The forgetful projection G(N) -> G(M) for M | N: drop the level
    structure at primes outside M, keep the class and the l-kernel."""
    if (fine.p, fine.l) != (coarse.p, coarse.l):
        raise CoveringError("graphs must share (p, l)")
    if fine.level % coarse.level != 0:
        raise CoveringError(
            f"{coarse.level} does not divide {fine.level}: no covering"
        )
    # M | N, so every prime of M is a prime of N
    positions = [fine.primes.index(r) for r in coarse.primes]
    vmap = _project_vertices(fine.vertices, positions, coarse.vertices)
    return CoveringMap(vmap, sigma1(fine.level // coarse.level))


def _project_vertices(vertices, positions, coarse_vertices) -> tuple[int, ...]:
    """The index in coarse_vertices of each vertex (class, slots) with only
    its slots at `positions` kept."""
    cindex = {v: i for i, v in enumerate(coarse_vertices)}
    return tuple(cindex[c, tuple(S[pos] for pos in positions)] for c, S in vertices)


def verify_covering(
    fine: EnhancedGraph, coarse: EnhancedGraph, cov: CoveringMap
) -> None:
    """Check the covering conditions; raise CoveringError if one fails.

    Two checks: every vertex fiber has sigma1(N/M) elements (a hand-built
    CoveringMap can break this), and heads commute with the projection (a
    coarse graph loaded from a cache file can break this).  Tails, edge
    fibers and the local bijection on outgoing edges follow from the edge
    rule."""
    vmap, expected = cov.vertex_map, cov.fiber_size
    fibers = [0] * coarse.n
    for w in vmap:
        fibers[w] += 1
    if set(fibers) != {expected}:
        raise CoveringError(f"vertex fibers {sorted(set(fibers))} != {expected}")
    k = fine.degree
    for e, w in enumerate(fine.edge_target):
        if coarse.edge_target[vmap[e // k] * k + e % k] != vmap[w]:
            raise CoveringError(f"target map breaks at edge {e}")


# ------------------------------------------- the characteristic polynomial


def equitable_quotient(
    rows: Sequence[Sequence[tuple[int, int]]], cell: Sequence[int], count: int
) -> tuple[tuple[int, ...], ...] | None:
    """The quotient of the matrix with sparse rows rows[v], its (column,
    entry) pairs, over the partition of its indices into `count` cells,
    cell[v] the cell of v: B[C][D] is the weight from any index of C into
    D.  None when two indices of one cell disagree, that is when the
    partition is not equitable."""
    quotient: list = [None] * count
    for v, row in enumerate(rows):
        weights = [0] * count
        for w, x in row:
            weights[cell[w]] += x
        c = cell[v]
        if quotient[c] is None:
            quotient[c] = weights
        elif quotient[c] != weights:
            return None
    return tuple(map(tuple, quotient))


@functools.lru_cache(maxsize=None)
def new_part(quotient: tuple[tuple[int, ...], ...], primes: tuple[int, ...]) -> Polynomial:
    """Q_M: the level-M quotient B, its vertices (class, slots at M's
    primes) in vertex_table order, on the vectors that sum to zero over
    each fiber of forgetting one prime.  Computed once per process for each
    (B, primes), as curves.torsion_field is, so a grid computes each new
    part once."""
    labels = vertex_table(len(quotient) // math.prod(r + 1 for r in primes), primes)
    partitions = []
    for i in range(len(primes)):
        fibers: dict = {}
        for v, (c, S) in enumerate(labels):
            fibers.setdefault((c, S[:i] + S[i + 1 :]), []).append(v)
        partitions.append(list(fibers.values()))
    return charpoly_int(quotient, partitions)


def level_quotients(
    eg: EnhancedGraph,
) -> dict[int, tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]] | None:
    """The level-M quotient B_M of A and M's primes for each M | N, or None
    when a partition is not equitable.

    For each M | N the vertices are cut into the fibers of the projection
    to level M, cells (class, slots at M's primes); the quotient of A over
    them is read off edge_target in O(n (l+1)), or is eg.brandt at M = N,
    where each cell is one vertex.  When every partition is equitable, its
    cell-constant vectors are A-invariant, the quotient is the symmetric
    A_M, and functions on the vertices split into the pullbacks of each
    level's new vectors, so A's spectrum is the union of the B_M's on
    their new vectors (new_part, spectral's float blocks)."""
    k = eg.degree
    rows = [[(w, 1) for w in eg.edge_target[v * k : (v + 1) * k]] for v in range(eg.n)]
    classes = len(eg.class_labels)
    quotients = {}
    for size in range(len(eg.primes)):
        for kept in itertools.combinations(range(len(eg.primes)), size):
            primes = tuple(eg.primes[i] for i in kept)
            labels = vertex_table(classes, primes)
            cell = _project_vertices(eg.vertices, kept, labels)
            quotient = equitable_quotient(rows, cell, len(labels))
            if quotient is None:
                return None
            quotients[math.prod(primes)] = quotient, primes
    quotients[eg.level] = eg.brandt, eg.primes
    return quotients


def level_factors(eg: EnhancedGraph) -> dict[int, Polynomial] | None:
    """Q_M for each M | N, the new part of each level quotient, or None
    when a partition is not equitable; det(xI - A) is their product."""
    quotients = level_quotients(eg)
    if quotients is None:
        return None
    return {M: new_part(*q) for M, q in quotients.items()}


def tower_charpoly(eg: EnhancedGraph) -> Polynomial:
    """det(xI - A), the product of level_factors; a partition that is not
    equitable (only a hand-edited graph has one) sends the whole matrix to
    charpoly_int instead."""
    factors = level_factors(eg)
    if factors is None:
        return charpoly_int(eg.brandt)
    return functools.reduce(operator.mul, factors.values(), Polynomial([1]))


# --------------------------------------------------------------- exports


def to_dot(eg: EnhancedGraph) -> str:
    """Geometric edges only, one per edge_reverse pair; a self-paired loop
    renders once like any loop."""
    k = eg.degree
    lines = ["graph isograph {"]
    for v in range(eg.n):
        lines.append(f'  v{v} [label="{eg.vertex_label(v)}"];')
    for e, w in enumerate(eg.edge_target):
        if eg.edge_reverse[e] >= e:
            lines.append(f"  v{e // k} -- v{w};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def adjacency_csv(eg: EnhancedGraph) -> str:
    return "\n".join(",".join(str(x) for x in row) for row in eg.brandt) + "\n"
