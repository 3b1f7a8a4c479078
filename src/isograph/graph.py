"""The Euler characteristic, covering maps and exports of an EnhancedGraph.

All of them read the EnhancedGraph itself: oriented edge e runs from
e // (l+1) to edge_target[e], and edge_reverse pairs it with its
reversal.  Connectivity and bipartiteness are spectral facts, decided
from the characteristic polynomial (spectral.is_connected,
spectral.is_bipartite).
"""

from __future__ import annotations

from dataclasses import dataclass

from .enhanced import EnhancedGraph, sigma1


class CoveringError(ValueError):
    pass


def euler_characteristic(eg: EnhancedGraph) -> int:
    """Vertices minus geometric edges."""
    return eg.n - eg.geometric_edge_count


# ------------------------------------------------------------- coverings


@dataclass(frozen=True)
class CoveringMap:
    """Projection from a finer level to a coarser one: vertex_map on
    vertex ids, edge_map on oriented edge ids (kernel slot preserved)."""

    fine_level: int
    coarse_level: int
    vertex_map: tuple[int, ...]
    edge_map: tuple[int, ...]
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
    positions = []
    for r in coarse.primes:
        if r not in fine.primes:
            raise CoveringError(f"prime {r} missing from the finer level")
        positions.append(fine.primes.index(r))
    cindex = {v: i for i, v in enumerate(coarse.vertices)}
    vmap = []
    for c, S in fine.vertices:
        restricted = tuple(S[pos] for pos in positions)
        vmap.append(cindex[(c, restricted)])
    k = fine.degree
    emap = [vmap[e // k] * k + (e % k) for e in range(fine.oriented_edge_count)]
    return CoveringMap(
        fine_level=fine.level,
        coarse_level=coarse.level,
        vertex_map=tuple(vmap),
        edge_map=tuple(emap),
        fiber_size=sigma1(fine.level // coarse.level),
    )


def verify_covering(
    fine: EnhancedGraph, coarse: EnhancedGraph, cov: CoveringMap
) -> dict:
    """Check the covering conditions and return a report.

    Conditions: both boundary maps commute with the projection, every
    vertex fiber and every edge fiber has exactly sigma1(N/M) elements,
    and the projection is a local bijection on outgoing edges."""
    k = fine.degree
    vmap, emap = cov.vertex_map, cov.edge_map
    for e in range(fine.oriented_edge_count):
        if emap[e] // k != vmap[e // k]:
            raise CoveringError(f"source map breaks at edge {e}")
        if coarse.edge_target[emap[e]] != vmap[fine.edge_target[e]]:
            raise CoveringError(f"target map breaks at edge {e}")
    vfibers = [0] * coarse.n
    for w in vmap:
        vfibers[w] += 1
    efibers = [0] * coarse.oriented_edge_count
    for f in emap:
        efibers[f] += 1
    expected = cov.fiber_size
    if set(vfibers) != {expected}:
        raise CoveringError(f"vertex fibers {sorted(set(vfibers))} != {expected}")
    if set(efibers) != {expected}:
        raise CoveringError(f"edge fibers {sorted(set(efibers))} != {expected}")
    for v in range(fine.n):
        local = {emap[v * k + t] for t in range(k)}
        if len(local) != k:
            raise CoveringError(f"not a local bijection at vertex {v}")
    return {
        "fine": (fine.p, fine.l, fine.level),
        "coarse": (coarse.p, coarse.l, coarse.level),
        "fiber_size": expected,
        "vertex_fibers_ok": True,
        "edge_fibers_ok": True,
        "boundary_commutes": True,
    }


# --------------------------------------------------------------- exports


def to_dot(eg: EnhancedGraph, name: str = "isograph") -> str:
    """Geometric edges only, one per edge_reverse pair; a self-paired loop
    renders once like any loop."""
    k = eg.degree
    lines = [f"graph {name} {{"]
    for v in range(eg.n):
        lines.append(f'  v{v} [label="{eg.vertex_label(v)}"];')
    for e, w in enumerate(eg.edge_target):
        if eg.edge_reverse[e] >= e:
            lines.append(f"  v{e // k} -- v{w};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def adjacency_csv(eg: EnhancedGraph) -> str:
    return "\n".join(",".join(str(x) for x in row) for row in eg.brandt) + "\n"
