"""Edge reversal, Hecke commutation, Euler characteristic, connectivity,
coverings, the characteristic polynomial along the level tower, exports."""

import functools
import itertools
from collections import Counter

import pytest

from isograph.enhanced import (
    AdmissibilityError,
    EnhancedGraph,
    GraphBuildError,
    GraphBuilder,
    check_admissible,
    sigma1,
)
from isograph.graph import (
    CoveringError,
    CoveringMap,
    adjacency_csv,
    covering_map,
    euler_characteristic,
    level_factors,
    to_dot,
    tower_charpoly,
    verify_covering,
)
from isograph.polys import charpoly_int
from oracles import adjacency_connected, hessenberg_charpoly, is_bipartite


def builder(p, l):
    return GraphBuilder(p, l, seed=0)


def fixed(pairing):
    return [e for e, r in enumerate(pairing) if r == e]


@functools.cache
def acceptance_graphs():
    """Every admissible graph of the acceptance grid, p in {13, 37, 61},
    l in {3, 5, 7} and N in {1, 2, 3, 5, 6}, keyed by (p, l, N); built
    once, one builder per (p, l)."""
    out = {}
    for p, l in itertools.product((13, 37, 61), (3, 5, 7)):
        b = builder(p, l)
        for N in (1, 2, 3, 5, 6):
            try:
                check_admissible(p, l, N)
            except AdmissibilityError:
                continue
            out[p, l, N] = b.build(N)
    return out


def commute(A, B):
    """Whether the square integer matrices A and B commute."""

    def times(X, Y):
        cols = list(zip(*Y))
        return [[sum(map(int.__mul__, row, col)) for col in cols] for row in X]

    return times(A, B) == times(B, A)


def rebuilt(g, edge_target, edge_dual):
    """g with other edge arrays, through the EnhancedGraph constructor."""
    return EnhancedGraph(
        g.p, g.l, g.level, g.seed, g.class_labels, tuple(edge_target), tuple(edge_dual)
    )


# ------------------------------------------------------------ matrix checks


def test_connectivity_and_bipartite_small_cases():
    two_parts = [[0, 2, 0, 0], [2, 0, 0, 0], [0, 0, 0, 2], [0, 0, 2, 0]]
    assert not adjacency_connected(two_parts)
    assert is_bipartite(two_parts)

    path = [[0, 1, 0], [1, 0, 1], [0, 1, 0]]
    assert adjacency_connected(path) and is_bipartite(path)

    triangle = [[0, 1, 1], [1, 0, 1], [1, 1, 0]]
    assert adjacency_connected(triangle) and not is_bipartite(triangle)

    square = [[0, 1, 0, 1], [1, 0, 1, 0], [0, 1, 0, 1], [1, 0, 1, 0]]
    assert is_bipartite(square)

    assert not is_bipartite([[2]])  # a loop is an odd cycle
    assert adjacency_connected([])


# ------------------------------------------------------------- edge reversal


def test_post_init_rejects_inconsistent_edges():
    g = builder(13, 5).build(2)
    dual = list(g.edge_dual)
    e = next(e for e, w in enumerate(g.edge_target) if w != e // 6)
    broken = {
        "fixes a non-loop": dual[:e] + [e] + dual[e + 1 :],
        "not an involution": [dual[1], dual[0]] + dual[2:],
    }
    for d in broken.values():
        with pytest.raises(GraphBuildError, match="edge involution broken"):
            EnhancedGraph(13, 5, 2, 0, g.class_labels, g.edge_target, tuple(d))


def test_edge_reverse_over_acceptance_grid():
    # an endpoint-reversing involution whose fixed edges are exactly one
    # loop at each odd-diagonal vertex
    graphs = 0
    for (p, l, N), eg in acceptance_graphs().items():
        k, target, rev = eg.degree, eg.edge_target, eg.edge_reverse
        for e, r in enumerate(rev):
            assert rev[r] == e and target[r] == e // k, (p, l, N, e)
        loops_fixed = fixed(rev)
        assert [e // k for e in loops_fixed] == list(eg.parity_violations)
        # the odd diagonal entries are the vertices with an odd number of
        # self-dual loops, the fixed points of edge_dual
        dual_fixed = Counter(e // k for e in fixed(eg.edge_dual))
        assert set(eg.parity_violations) == {v for v, c in dual_fixed.items() if c % 2}
        assert all(target[e] == e // k for e in loops_fixed)
        # non-loop edges keep the dual-isogeny pairing
        assert all(
            rev[e] == eg.edge_dual[e] for e in range(len(rev)) if target[e] != e // k
        )
        graphs += 1
    assert graphs == 36


# ------------------------------------------ characteristic polynomial tower


def test_tower_charpoly_is_the_product_of_the_level_new_parts(fresh_new_parts):
    # det(xI - A_N) = prod over M | N of Q_M with deg Q_M = (p - 1) M / 12,
    # over the acceptance grid and two three-prime levels; at (61, 5, 6) and
    # (13, 5, 42) the Hessenberg reference checks the product independently
    graphs = dict(acceptance_graphs())
    graphs[13, 7, 30] = builder(13, 7).build(30)
    graphs[13, 5, 42] = builder(13, 5).build(42)
    for (p, l, N), eg in graphs.items():
        factors = level_factors(eg)
        assert sorted(factors) == [M for M in range(1, N + 1) if N % M == 0]
        for M, q in factors.items():
            assert q.degree == (p - 1) * M // 12 and q.coeffs[-1] == 1, (p, l, N, M)
        full = charpoly_int(eg.brandt)
        assert tower_charpoly(eg) == full, (p, l, N)
        if (p, l, N) in ((61, 5, 6), (13, 5, 42)):
            assert full == hessenberg_charpoly(eg.brandt)
    assert len(graphs) == 38


def test_tower_charpoly_is_exact_on_a_graph_that_is_not_equitable(fresh_new_parts):
    # mutation: a double-edge swap at (37, 5, 2) between two vertices of one
    # class whose edges go to two other classes; the constructor accepts it,
    # but the class partition is no longer equitable, so the graph gets the
    # whole matrix's charpoly_int
    g = acceptance_graphs()[37, 5, 2]
    k, target = g.degree, g.edge_target
    cls = [c for c, _ in g.vertices]
    e1, e2 = next(
        (e1, e2)
        for e1, e2 in itertools.combinations(range(len(target)), 2)
        if cls[e1 // k] == cls[e2 // k] != cls[target[e1]] != cls[target[e2]] != cls[e1 // k]
        and len({e1 // k, target[e1], e2 // k, target[e2]}) == 4
    )
    swapped = double_edge_swap(g, e1, e2)
    assert [sum(row) for row in swapped.brandt] == [k] * g.n
    assert level_factors(g) is not None and level_factors(swapped) is None
    full = charpoly_int(swapped.brandt)
    assert full != charpoly_int(g.brandt)
    assert tower_charpoly(swapped) == full == hessenberg_charpoly(swapped.brandt)


# --------------------------------------------------------- Hecke commutation


def test_hecke_operators_commute_over_acceptance_grid():
    # the Brandt matrices of one Eichler order are its Hecke operators, so
    # they commute, and the vertex table (classes x level slots sorted by
    # x) does not depend on l: A_l A_l' = A_l' A_l at every (p, N) with two
    # admissible l.  Unlike a spectral identity, this sees the slot labels
    graphs = acceptance_graphs()
    pairs = 0
    for (p, l, N), g in graphs.items():
        for m in (3, 5, 7):
            h = graphs.get((p, m, N))
            if m > l and h is not None:
                assert g.vertices == h.vertices
                assert commute(g.brandt, h.brandt), (p, N, l, m)
                pairs += 1
    assert pairs == 27


def test_hecke_commutation_refuses_a_double_edge_swap():
    # mutation: edges u - v and x - y of A_5 at (37, 2) become u - y and
    # x - v, with the duals re-paired; the constructor accepts the graph,
    # which keeps symmetry and row sums, and only commutation refuses it
    g, h = acceptance_graphs()[37, 5, 2], acceptance_graphs()[37, 3, 2]
    k, target = g.degree, g.edge_target
    e1, e2 = next(
        (e1, e2)
        for e1, e2 in itertools.combinations(range(len(target)), 2)
        if len({e1 // k, target[e1], e2 // k, target[e2]}) == 4
    )
    swapped = double_edge_swap(g, e1, e2)
    assert [sum(row) for row in swapped.brandt] == [k] * g.n
    assert swapped.brandt != g.brandt and commute(g.brandt, h.brandt)
    assert not commute(swapped.brandt, h.brandt)


def double_edge_swap(g, e1, e2):
    """Edges u - v (e1) and x - y (e2) of g become u - y and x - v, with
    the duals re-paired, through the constructor: symmetry and row sums
    stay."""
    k, target, dual = g.degree, list(g.edge_target), list(g.edge_dual)
    u, v, x, y = e1 // k, target[e1], e2 // k, target[e2]
    d1, d2 = dual[e1], dual[e2]
    target[e1], target[d2], target[e2], target[d1] = y, u, v, x
    dual[e1], dual[d2], dual[e2], dual[d1] = d2, e1, d1, e2
    return rebuilt(g, target, dual)


def slots_swapped(g, i, j):
    """g with vertices i and j exchanged, edges and all, through the
    constructor."""
    k = g.degree
    sigma = list(range(g.n))
    sigma[i], sigma[j] = j, i

    def move(e):
        return sigma[e // k] * k + e % k

    target, dual = [0] * len(g.edge_target), [0] * len(g.edge_dual)
    for e, (w, d) in enumerate(zip(g.edge_target, g.edge_dual)):
        target[move(e)], dual[move(e)] = sigma[w], move(d)
    return rebuilt(g, target, dual)


def test_hecke_commutation_refuses_two_level_slots_swapped():
    # mutation: two level slots of one class exchanged in A_5 at (37, 2)
    # alone, each of the nine such pairs in turn; the constructor accepts
    # every relabelled graph, but A_3 still labels the slots the old way,
    # so the two no longer commute
    g, h = acceptance_graphs()[37, 5, 2], acceptance_graphs()[37, 3, 2]
    assert commute(g.brandt, h.brandt)
    pairs = [
        (i, j)
        for i, j in itertools.combinations(range(g.n), 2)
        if g.vertices[i][0] == g.vertices[j][0]
    ]
    assert len(pairs) == 9
    for i, j in pairs:
        relabelled = slots_swapped(g, i, j)
        assert relabelled.brandt != g.brandt
        assert not commute(relabelled.brandt, h.brandt), (i, j)


def test_realized_13_5_level1():
    eg = builder(13, 5).build(1)
    assert eg.n == 1
    assert eg.oriented_edge_count == 6
    # the dual involution fixes two loops; edge_reverse pairs them
    assert len(fixed(eg.edge_dual)) == 2
    assert fixed(eg.edge_reverse) == []
    assert euler_characteristic(eg) == -2  # (13-1)(1-5)/24
    assert adjacency_connected(eg.brandt)
    assert not is_bipartite(eg.brandt)


def test_realized_37_5_level1_keeps_forced_fixed_loops():
    eg = builder(37, 5).build(1)
    assert eg.n == 3
    kept = fixed(eg.edge_reverse)
    assert len(kept) == 2
    assert sorted(e // 6 for e in kept) == [0, 1]  # the odd-diagonal vertices
    for e in kept:
        assert eg.edge_target[e] == e // 6
    assert euler_characteristic(eg) == -6  # (37-1)(1-5)/24


def test_euler_characteristic_formula_across_levels():
    for p, l, N in ((13, 5, 2), (13, 5, 6), (13, 7, 3), (37, 3, 2), (61, 7, 1)):
        eg = builder(p, l).build(N)
        assert euler_characteristic(eg) == eg.n * (1 - l) // 2
        if N == 1:
            assert euler_characteristic(eg) == (p - 1) * (1 - l) // 24


def test_realized_graphs_connected_nonbipartite():
    for p, l, N in ((13, 5, 6), (37, 7, 1), (61, 3, 1)):
        eg = builder(p, l).build(N)
        assert adjacency_connected(eg.brandt)
        assert not is_bipartite(eg.brandt)


# --------------------------------------------------------------- coverings


def test_covering_chain_1_2_6():
    b = builder(13, 5)
    g1, g2, g6 = b.build(1), b.build(2), b.build(6)
    c62 = covering_map(g6, g2)
    assert c62.fiber_size == sigma1(3)
    verify_covering(g6, g2, c62)
    c21 = covering_map(g2, g1)
    assert c21.fiber_size == sigma1(2)
    verify_covering(g2, g1, c21)
    c61 = covering_map(g6, g1)
    assert c61.fiber_size == sigma1(6)
    verify_covering(g6, g1, c61)
    # composition of the chain equals the direct projection
    comp = tuple(c21.vertex_map[v] for v in c62.vertex_map)
    assert comp == c61.vertex_map


def test_covering_chain_1_3_6():
    b = builder(13, 5)
    g1, g3, g6 = b.build(1), b.build(3), b.build(6)
    c63 = covering_map(g6, g3)
    assert c63.fiber_size == sigma1(2)
    verify_covering(g6, g3, c63)
    c31 = covering_map(g3, g1)
    verify_covering(g3, g1, c31)


def test_covering_with_parity_violations():
    # the covering conditions do not involve the involution, so the
    # odd-diagonal graphs cover just as well
    b = builder(37, 5)
    g1, g2 = b.build(1), b.build(2)
    verify_covering(g2, g1, covering_map(g2, g1))


def test_covering_rejections():
    b = builder(13, 5)
    g2, g3 = b.build(2), b.build(3)
    with pytest.raises(CoveringError):
        covering_map(g2, g3)
    g7 = builder(13, 7).build(2)
    with pytest.raises(CoveringError):
        covering_map(g7, g2)


def test_verify_covering_refuses_non_uniform_fibers():
    b = builder(13, 5)
    g2, g6 = b.build(2), b.build(6)
    vmap = list(covering_map(g6, g2).vertex_map)
    moved = next(v for v, w in enumerate(vmap) if w != vmap[0])
    vmap[moved] = vmap[0]
    cov = CoveringMap(tuple(vmap), sigma1(3))
    with pytest.raises(CoveringError, match=r"vertex fibers \[3, 4, 5\] != 4"):
        verify_covering(g6, g2, cov)


# ----------------------------------------------------------------- exports


def test_to_dot_and_csv():
    eg = builder(13, 5).build(2)
    dot = to_dot(eg)
    assert dot.startswith("graph isograph {")
    # a self-paired loop draws as its own stroke, so it counts fully here
    f = len(fixed(eg.edge_reverse))
    assert f == 2
    assert dot.count(" -- ") == (eg.oriented_edge_count - f) // 2 + f
    assert 'label="j=5 C[2:0]"' in dot
    csv = adjacency_csv(eg)
    parsed = [[int(x) for x in line.split(",")] for line in csv.strip().splitlines()]
    assert tuple(tuple(r) for r in parsed) == eg.brandt
