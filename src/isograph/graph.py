"""The Euler characteristic, covering maps and exports of an EnhancedGraph.

All of them read the EnhancedGraph itself: oriented edge e runs from
e // (l+1) to edge_target[e], and edge_reverse pairs it with its
reversal.  Connectivity and bipartiteness are spectral facts, decided
from the characteristic polynomial (spectral.is_connected,
spectral.is_bipartite).

A covering G(N) -> G(M) is its vertex projection: an edge keeps its
kernel slot, so edge e maps to vertex_map[e // k] * k + e % k with
k = l + 1.  verify_covering checks what that rule leaves open, vertex
fibers of sigma1(N/M) elements and heads that commute.
"""

from __future__ import annotations

from typing import NamedTuple

from .enhanced import EnhancedGraph, sigma1


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
    cindex = {v: i for i, v in enumerate(coarse.vertices)}
    vmap = tuple(
        cindex[(c, tuple(S[pos] for pos in positions))] for c, S in fine.vertices
    )
    return CoveringMap(vmap, sigma1(fine.level // coarse.level))


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
