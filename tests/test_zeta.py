"""Zeta functions: Bass route vs edge-matrix oracle vs cycle census."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from isograph.enhanced import GraphBuilder
from isograph.graph import graph_from_adjacency, graph_from_enhanced
from isograph.polys import (
    IntPolynomial,
    charpoly_int,
    log_series,
    poly_matrix_det,
    ratfun_series,
)
from isograph.spectral import spectrum
from isograph.zeta import (
    ZetaError,
    census_matches_log_series,
    edge_matrix_zeta,
    ihara_zeta,
    primitive_cycle_census,
    reciprocity_check,
    _det_part_charpoly,
)


def builder(p, l):
    return GraphBuilder(p, l, seed=0)


def edge_log_series(edge_det: IntPolynomial, order: int):
    """log of the edge zeta 1/det(I - tT); the census counts exactly its
    derivative coefficients, fixed loops or not."""
    return log_series(ratfun_series(IntPolynomial([1]), edge_det, order))


def bass_matrix(A):
    """The polynomial matrix I - At + (D - I)t^2 with D the row sums."""
    n = len(A)
    return [
        [
            IntPolynomial([1, -A[i][i], sum(A[i]) - 1])
            if i == j
            else IntPolynomial([0, -A[i][j]])
            for j in range(n)
        ]
        for i in range(n)
    ]


def edge_reference(g):
    """det(I - tT) by Bareiss + Lagrange on the polynomial matrix."""
    m = g.oriented_edge_count
    return poly_matrix_det(
        [
            [
                IntPolynomial(
                    [1 if e == f else 0,
                     -1 if g.dst[e] == g.src[f] and f != g.inv[e] else 0]
                )
                for f in range(m)
            ]
            for e in range(m)
        ]
    )


def random_irregular_multigraph(rng, max_degree=5):
    """Connected, irregular, even diagonal, at most 30 oriented edges:
    a random spanning tree plus random extra edges and loops."""
    while True:
        n = rng.randint(2, 7)
        A = [[0] * n for _ in range(n)]
        for v in range(1, n):
            u = rng.randrange(v)
            A[u][v] += 1
            A[v][u] += 1
        for _ in range(rng.randint(0, 15 - (n - 1))):
            i, j = rng.randrange(n), rng.randrange(n)
            if i == j:
                if sum(A[i]) + 2 <= max_degree:
                    A[i][i] += 2
            elif max(sum(A[i]), sum(A[j])) < max_degree:
                A[i][j] += 1
                A[j][i] += 1
        if len({sum(row) for row in A}) > 1:
            return A


# ------------------------------------------------------------------ goldens


def test_13_5_1_zeta():
    z = ihara_zeta(builder(13, 5).build(1))
    assert z.chi == -2
    assert z.det_part.coeffs == (1, -6, 5)
    d = z.to_json_dict()
    assert d["chi"] == -2
    assert d["det_part"] == ["1", "-6", "5"]
    assert d["numerator"] == ["1"]
    # (1-t^2)^2 (1-t)(1-5t) expanded
    assert d["denominator"] == ["1", "-6", "3", "12", "-9", "-6", "5"]


def test_tree_zeta_is_one():
    g = graph_from_adjacency([[0, 1], [1, 0]])
    z = ihara_zeta(g)
    assert z.chi == 1
    assert z.det_part.coeffs == (1, 0, -1)
    d = z.to_json_dict()
    assert d["numerator"] == ["1"] and d["denominator"] == ["1"]
    assert edge_matrix_zeta(g).coeffs == (1,)
    with pytest.raises(ZetaError):
        z.inverse_polynomial()  # chi > 0


def test_two_vertex_triple_edge():
    g = graph_from_adjacency([[0, 3], [3, 0]])
    z = ihara_zeta(g)
    assert z.chi == -1
    # (1+2t^2)^2 - 9t^2 = (1-t^2)(1-4t^2)
    assert z.det_part.coeffs == (1, 0, -5, 0, 4)
    assert edge_matrix_zeta(g) == z.inverse_polynomial()


def test_disconnected_rejected():
    with pytest.raises(ZetaError):
        ihara_zeta([[0, 2, 0, 0], [2, 0, 0, 0], [0, 0, 0, 2], [0, 0, 2, 0]])


# ----------------------------------------------- Bass identity vs edge matrix


def test_bass_identity_clean_graphs():
    cases = [(13, 3, 1), (13, 3, 2), (13, 5, 1), (13, 7, 1), (37, 3, 1), (61, 3, 1)]
    for p, l, N in cases:
        eg = builder(p, l).build(N)
        g = graph_from_enhanced(eg)
        assert g.fixed_edges == ()
        z = ihara_zeta(eg)
        assert edge_matrix_zeta(g) == z.inverse_polynomial(), (p, l, N)


def test_bass_identity_with_fixed_loops_needs_correction():
    # each pair of forced half-loops trades a (1-t) for a (1+t)
    for p, l, N in ((13, 5, 2), (13, 5, 3), (37, 5, 1)):
        eg = builder(p, l).build(N)
        g = graph_from_enhanced(eg)
        f = len(g.fixed_edges)
        assert f > 0 and f % 2 == 0
        bass = ihara_zeta(eg).inverse_polynomial()
        edge = edge_matrix_zeta(g)
        assert edge != bass
        half = f // 2
        # edge / bass == ((1+t) / (1-t))^half, cross-multiplied
        assert (
            edge * IntPolynomial([1, -1]) ** half
            == bass * IntPolynomial([1, 1]) ** half
        ), (p, l, N)


def test_det_part_divisible_by_trivial_factor():
    for p, l, N in ((13, 5, 1), (37, 5, 1), (61, 7, 1), (13, 7, 3)):
        z = ihara_zeta(builder(p, l).build(N))
        # (1-t)(1-lt) is primitive with distinct roots 1 and 1/l, so by
        # Gauss's lemma det_part is a multiple of it in Z[t] iff both
        # roots are roots of det_part
        assert z.det_part(1) == 0, (p, l, N)
        assert z.det_part(Fraction(1, l)) == 0, (p, l, N)


def test_charpoly_and_polydet_paths_agree():
    for p, l, N in ((13, 5, 6), (61, 3, 1), (37, 7, 2)):
        eg = builder(p, l).build(N)
        A = [list(r) for r in eg.brandt]
        reference = poly_matrix_det(bass_matrix(A))
        assert _det_part_charpoly(charpoly_int(A), l) == reference, (p, l, N)
        # the Spectrum's charpoly, handed in as verify does, gives the same
        z = ihara_zeta(eg, charpoly=spectrum(eg).charpoly)
        assert z.det_part == reference, (p, l, N)


def test_edge_matrix_zeta_matches_polydet_reference():
    # (13,5,3) has forced fixed loops (m = 24); (61,5,1) is the m = 30 case
    for p, l, N, m in ((13, 5, 3, 24), (61, 5, 1, 30)):
        g = graph_from_enhanced(builder(p, l).build(N))
        assert g.oriented_edge_count == m
        assert edge_matrix_zeta(g) == edge_reference(g), (p, l, N)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32))
def test_irregular_route_against_references(seed):
    A = random_irregular_multigraph(random.Random(seed))
    g = graph_from_adjacency(A)
    assert g.oriented_edge_count <= 30 and g.is_regular() is None
    z = ihara_zeta(A)
    assert z.det_part == poly_matrix_det(bass_matrix(A))
    if z.chi <= 0:
        assert z.inverse_polynomial() == edge_matrix_zeta(g)
    assert census_matches_log_series(z, primitive_cycle_census(g, 6))
    # the reduced form: num/den == (1-t^2)^chi / det_part, no common root
    # at t = +-1 (the only candidates), positive leading coefficient
    d = z.to_json_dict()
    num = IntPolynomial(int(c) for c in d["numerator"])
    den = IntPolynomial(int(c) for c in d["denominator"])
    t2 = IntPolynomial([1, 0, -1])
    if z.chi >= 0:
        assert num * z.det_part == den * t2**z.chi
    else:
        assert num * z.det_part * t2 ** (-z.chi) == den
    assert num(1) != 0 or den(1) != 0
    assert num(-1) != 0 or den(-1) != 0
    assert den.coeffs[-1] > 0


# ------------------------------------------------------------------- census


def test_census_13_5_1():
    eg = builder(13, 5).build(1)
    g = graph_from_enhanced(eg)
    z = ihara_zeta(eg)
    census = primitive_cycle_census(g, 6)
    assert census[1] == 6
    assert census_matches_log_series(z, census)


def test_census_double_edge():
    g = graph_from_adjacency([[0, 2], [2, 0]])
    census = primitive_cycle_census(g, 6)
    assert census[1] == 0
    assert census[2] == 4
    z = ihara_zeta(g)
    assert census_matches_log_series(z, census)


def test_census_tree_empty():
    g = graph_from_adjacency([[0, 1], [1, 0]])
    census = primitive_cycle_census(g, 5)
    assert all(v == 0 for v in census.values())


def test_census_matches_edge_determinant_with_fixed_loops():
    # on a fixed-loop graph the census tracks the edge determinant, which
    # is precisely what the walk rule f != inv(e) encodes
    eg = builder(13, 5).build(2)
    g = graph_from_enhanced(eg)
    census = primitive_cycle_census(g, 6)
    logs = edge_log_series(edge_matrix_zeta(g), 6)
    for m in range(1, 7):
        assert logs[m] == Fraction(census[m], m)
    # ... and does NOT match the Bass-form zeta
    z = ihara_zeta(eg)
    assert not census_matches_log_series(z, census)


def test_census_budgets():
    g = graph_from_adjacency([[0, 2], [2, 0]])
    with pytest.raises(ZetaError):
        primitive_cycle_census(g, 11)
    big = builder(13, 7).build(3)  # 32 oriented edges
    with pytest.raises(ZetaError):
        primitive_cycle_census(graph_from_enhanced(big), 4)


# -------------------------------------------------------------- reciprocity


def test_reciprocity_13_37_5():
    cert = reciprocity_check(13, 37, 5)
    assert cert["equal"]
    assert cert["sizes"] == (38, 42)
    assert cert["chi"] == {"left": -72, "right": -72, "expected": -72}


def test_reciprocity_rejects_equal_primes():
    with pytest.raises(ZetaError):
        reciprocity_check(13, 13, 5)

