"""Realized multigraphs: oriented edges, edge involution, coverings.

The adjacency matrix alone determines spectra, but cycle counting and
edge-level checks need an actual edge set: oriented edges e with source
and target, and an involution J reversing orientation (J^2 = id,
source(J e) = target(e)).  Loops are re-paired canonically so J is
fixed-point-free whenever the diagonal permits; a vertex with an odd
diagonal entry forces exactly one self-paired loop, which we record in
fixed_edges rather than hide.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .enhanced import EnhancedGraph, sigma1


class GraphRealizationError(ValueError):
    pass


class CoveringError(ValueError):
    pass


@dataclass(frozen=True)
class Graph:
    """Finite multigraph with oriented edge set.

    src[e], dst[e] are endpoint vertex ids; inv[e] is the reversed edge.
    adjacency[i][j] counts oriented edges i -> j; symmetry is enforced.
    The geometric edge count is half the oriented count (a J-fixed loop
    counts as one geometric edge, consistent with the multiplicity-matrix
    convention where a self-dual kernel is a single subgroup)."""

    n: int
    src: tuple[int, ...]
    dst: tuple[int, ...]
    inv: tuple[int, ...]
    adjacency: tuple[tuple[int, ...], ...]
    labels: tuple[str, ...] = ()

    def __post_init__(self):
        m = len(self.src)
        if len(self.dst) != m or len(self.inv) != m:
            raise GraphRealizationError("edge arrays disagree in length")
        if m % 2 != 0:
            raise GraphRealizationError("odd number of oriented edges")
        for e in range(m):
            je = self.inv[e]
            if self.inv[je] != e:
                raise GraphRealizationError(f"involution not an involution at {e}")
            if self.src[je] != self.dst[e] or self.dst[je] != self.src[e]:
                raise GraphRealizationError(f"involution breaks endpoints at {e}")
        count = [[0] * self.n for _ in range(self.n)]
        for e in range(m):
            count[self.src[e]][self.dst[e]] += 1
        if tuple(tuple(r) for r in count) != self.adjacency:
            raise GraphRealizationError("adjacency does not match edge list")

    @property
    def oriented_edge_count(self) -> int:
        return len(self.src)

    @property
    def geometric_edge_count(self) -> int:
        return len(self.src) // 2

    @property
    def fixed_edges(self) -> tuple[int, ...]:
        return tuple(e for e in range(len(self.src)) if self.inv[e] == e)

    def degree(self, v: int) -> int:
        return sum(self.adjacency[v])

    def is_regular(self) -> int | None:
        degs = {self.degree(v) for v in range(self.n)}
        return degs.pop() if len(degs) == 1 else None


def euler_characteristic(graph: Graph) -> int:
    """Vertices minus geometric edges."""
    return graph.n - graph.geometric_edge_count


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


def is_connected(graph: Graph) -> bool:
    return adjacency_connected(graph.adjacency)


def is_bipartite(graph: Graph) -> bool:
    color = [-1] * graph.n
    for start in range(graph.n):
        if color[start] != -1:
            continue
        color[start] = 0
        stack = [start]
        while stack:
            v = stack.pop()
            if graph.adjacency[v][v]:
                return False  # a loop is an odd cycle
            for w, c in enumerate(graph.adjacency[v]):
                if not c:
                    continue
                if color[w] == -1:
                    color[w] = 1 - color[v]
                    stack.append(w)
                elif color[w] == color[v]:
                    return False
    return True


def graph_from_adjacency(matrix, labels=()) -> Graph:
    """Canonical realization of a symmetric non-negative integer matrix.

    Oriented edges are laid out row by row; cross edges i -> j pair with
    the matching j -> i by multiplicity rank, loops pair consecutively.
    Odd diagonal entries admit no loop pairing and are rejected here; use
    graph_from_enhanced for the isogeny graphs where that genuinely
    happens."""
    n = len(matrix)
    for i, row in enumerate(matrix):
        if len(row) != n:
            raise GraphRealizationError("matrix is not square")
        for j, x in enumerate(row):
            if not isinstance(x, int) or x < 0:
                raise GraphRealizationError("entries must be non-negative integers")
            if matrix[j][i] != x:
                raise GraphRealizationError(f"entry ({i},{j}) breaks symmetry")
        if row[i] % 2 != 0:
            raise GraphRealizationError(
                f"odd diagonal entry at {i}: loops cannot be paired"
            )
    src, dst = [], []
    slot = {}
    for i in range(n):
        for j in range(n):
            for m in range(matrix[i][j]):
                slot[(i, j, m)] = len(src)
                src.append(i)
                dst.append(j)
    inv = [0] * len(src)
    for (i, j, m), e in slot.items():
        if i == j:
            inv[e] = slot[(i, i, m ^ 1)]
        else:
            inv[e] = slot[(j, i, m)]
    return Graph(
        n=n,
        src=tuple(src),
        dst=tuple(dst),
        inv=tuple(inv),
        adjacency=tuple(tuple(r) for r in matrix),
        labels=tuple(labels),
    )


def graph_from_enhanced(eg: EnhancedGraph) -> Graph:
    """Edge realization of a built isogeny graph.

    Non-loop edges keep the dual-isogeny pairing.  Loop edges at each
    vertex are re-paired in eid order, because the dual-isogeny involution
    can fix a loop (self-dual kernel) even when the diagonal entry is
    even; re-pairing removes every fixed edge the matrix allows.  An odd
    diagonal entry leaves one self-paired loop at that vertex."""
    k = eg.degree
    m = eg.oriented_edge_count
    src = tuple(e // k for e in range(m))
    dst = eg.edge_target
    inv = list(eg.edge_dual)
    for v in range(eg.n):
        loops = [e for e in range(v * k, (v + 1) * k) if dst[e] == v]
        for a in range(0, len(loops) - 1, 2):
            inv[loops[a]] = loops[a + 1]
            inv[loops[a + 1]] = loops[a]
        if len(loops) % 2 == 1:
            inv[loops[-1]] = loops[-1]
    labels = tuple(eg.vertex_label(i) for i in range(eg.n))
    return Graph(
        n=eg.n,
        src=src,
        dst=dst,
        inv=tuple(inv),
        adjacency=eg.brandt,
        labels=labels,
    )


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


def to_dot(graph: Graph, name: str = "isograph") -> str:
    """Geometric edges only; a J-fixed loop renders once like any loop."""
    lines = [f"graph {name} {{"]
    for v in range(graph.n):
        label = graph.labels[v] if graph.labels else str(v)
        lines.append(f'  v{v} [label="{label}"];')
    seen = set()
    for e in range(graph.oriented_edge_count):
        if e in seen:
            continue
        seen.add(e)
        seen.add(graph.inv[e])
        lines.append(f"  v{graph.src[e]} -- v{graph.dst[e]};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def adjacency_csv(graph: Graph) -> str:
    return "\n".join(",".join(str(x) for x in row) for row in graph.adjacency) + "\n"
