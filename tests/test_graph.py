"""Edge reversal, Euler characteristic, connectivity, coverings, exports."""

import itertools

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
    to_dot,
    verify_covering,
)
from oracles import adjacency_connected, is_bipartite


def builder(p, l):
    return GraphBuilder(p, l, seed=0)


def fixed(pairing):
    return [e for e, r in enumerate(pairing) if r == e]


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
    for p, l, N in itertools.product((13, 37, 61), (3, 5, 7), (1, 2, 3, 5, 6)):
        try:
            check_admissible(p, l, N)
        except AdmissibilityError:
            continue
        eg = builder(p, l).build(N)
        k, target, rev = eg.degree, eg.edge_target, eg.edge_reverse
        for e, r in enumerate(rev):
            assert rev[r] == e and target[r] == e // k, (p, l, N, e)
        loops_fixed = fixed(rev)
        assert [e // k for e in loops_fixed] == list(eg.parity_violations)
        assert all(target[e] == e // k for e in loops_fixed)
        # non-loop edges keep the dual-isogeny pairing
        assert all(
            rev[e] == eg.edge_dual[e] for e in range(len(rev)) if target[e] != e // k
        )
        graphs += 1
    assert graphs == 36


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
