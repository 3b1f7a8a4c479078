"""Zeta functions: Bass route vs edge-matrix oracle vs cycle census."""

from fractions import Fraction

import pytest

from isograph.enhanced import AdmissibilityError, EnhancedGraph, GraphBuilder
from isograph.polys import Polynomial, charpoly_int, poly_matrix_det
from isograph.spectral import spectrum
from isograph.zeta import (
    ZetaError,
    edge_matrix_zeta,
    ihara_zeta,
    reciprocity_check,
    _det_part_charpoly,
)
from oracles import (
    census_matches_log_series,
    hessenberg_charpoly,
    log_series,
    primitive_cycle_census,
    ratfun_series,
)


def builder(p, l):
    return GraphBuilder(p, l, seed=0)


def edge_log_series(edge_det: Polynomial, order: int):
    """log of the edge zeta 1/det(I - tT); the census counts exactly its
    derivative coefficients, fixed loops or not."""
    return log_series(ratfun_series(Polynomial([1]), edge_det, order))


def bass_matrix(A):
    """The polynomial matrix I - At + (D - I)t^2 with D the row sums."""
    n = len(A)
    return [
        [
            Polynomial([1, -A[i][i], sum(A[i]) - 1])
            if i == j
            else Polynomial([0, -A[i][j]])
            for j in range(n)
        ]
        for i in range(n)
    ]


def fixed_edges(eg):
    return [e for e, r in enumerate(eg.edge_reverse) if r == e]


def edge_transitions(eg):
    """T[e][f] = 1 iff e feeds into f and f is not edge_reverse[e]."""
    m, k = eg.oriented_edge_count, eg.degree
    return [
        [1 if eg.edge_target[e] == f // k and f != eg.edge_reverse[e] else 0 for f in range(m)]
        for e in range(m)
    ]


def edge_reference(eg):
    """det(I - tT) by Bareiss + Lagrange on the polynomial matrix."""
    T = edge_transitions(eg)
    return poly_matrix_det(
        [[Polynomial([1 if e == f else 0, -x]) for f, x in enumerate(row)] for e, row in enumerate(T)]
    )


def hessenberg_edge_reference(eg):
    """det(I - tT) = t^m det(x I - T) at x = 1/t: the reversed Hessenberg
    characteristic polynomial of T."""
    return Polynomial(reversed(hessenberg_charpoly(edge_transitions(eg)).coeffs))


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


def test_disconnected_rejected():
    # every edge a loop paired at its own vertex: a valid edge structure
    # whose matrix 6 I has three components
    g = builder(37, 5).build(1)
    m = g.oriented_edge_count
    loops = EnhancedGraph(
        37, 5, 1, 0, g.class_labels, tuple(e // 6 for e in range(m)),
        tuple(e ^ 1 for e in range(m)),
    )
    assert loops.brandt == ((6, 0, 0), (0, 6, 0), (0, 0, 6))
    with pytest.raises(ZetaError, match="connected"):
        ihara_zeta(loops)


# ----------------------------------------------- Bass identity vs edge matrix


def test_bass_identity_clean_graphs():
    cases = [(13, 3, 1), (13, 3, 2), (13, 5, 1), (13, 7, 1), (37, 3, 1), (61, 3, 1)]
    for p, l, N in cases:
        eg = builder(p, l).build(N)
        assert fixed_edges(eg) == []
        z = ihara_zeta(eg)
        assert edge_matrix_zeta(eg) == z.inverse_polynomial(), (p, l, N)


def test_bass_identity_with_fixed_loops_needs_correction():
    # each pair of forced half-loops trades a (1-t) for a (1+t)
    for p, l, N in ((13, 5, 2), (13, 5, 3), (37, 5, 1)):
        eg = builder(p, l).build(N)
        f = len(fixed_edges(eg))
        assert f > 0 and f % 2 == 0
        bass = ihara_zeta(eg).inverse_polynomial()
        edge = edge_matrix_zeta(eg)
        assert edge != bass
        half = f // 2
        # edge / bass == ((1+t) / (1-t))^half, cross-multiplied
        assert (
            edge * Polynomial([1, -1]) ** half
            == bass * Polynomial([1, 1]) ** half
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
    # every criterion-8 offender (forced fixed loops), (61,5,1), the largest
    # graph verify's oracle takes (m = 30), and (61,5,2), three times past
    # it; Bareiss + Lagrange up to m = 30, where it also checks the
    # Hessenberg reference, and the Hessenberg reference alone at m = 90
    cases = (
        (13, 5, 2, 18), (13, 5, 3, 24), (13, 7, 2, 24), (37, 5, 1, 18),
        (61, 5, 1, 30), (61, 5, 2, 90),
    )
    for p, l, N, m in cases:
        eg = builder(p, l).build(N)
        assert eg.oriented_edge_count == m
        reference = hessenberg_edge_reference(eg)
        if m <= 30:
            assert reference == edge_reference(eg), (p, l, N)
        assert edge_matrix_zeta(eg) == reference, (p, l, N)


def test_edge_matrix_zeta_follows_a_re_paired_graph():
    # (37,5,1) has one self-dual loop at vertex 0 and one at vertex 1, the
    # only fixed edges of edge_reverse.  Paired with each other they become
    # an edge between the two vertices, the constructor accepts that, and
    # with no fixed edge left the Bass identity holds exactly
    eg = builder(37, 5).build(1)
    k = eg.degree
    a, b = fixed_edges(eg)
    assert fixed_edges(eg) == [e for e, d in enumerate(eg.edge_dual) if d == e]
    target, dual = list(eg.edge_target), list(eg.edge_dual)
    target[a], target[b] = b // k, a // k
    dual[a], dual[b] = b, a
    paired = EnhancedGraph(37, 5, 1, 0, eg.class_labels, tuple(target), tuple(dual))
    assert fixed_edges(paired) == []
    edge = edge_matrix_zeta(paired)
    assert edge != edge_matrix_zeta(eg)
    assert edge == edge_reference(paired) == ihara_zeta(paired).inverse_polynomial()
    # splitting vertex 2's dual pair of loops into two self-dual loops
    # changes edge_dual only: edge_reverse re-pairs each vertex's loops, so
    # the oracle, like A, does not see it
    c, d = (e for e in range(2 * k, 3 * k) if eg.edge_target[e] == 2)
    dual = list(eg.edge_dual)
    dual[c], dual[d] = c, d
    split = EnhancedGraph(37, 5, 1, 0, eg.class_labels, eg.edge_target, tuple(dual))
    assert split.edge_reverse == eg.edge_reverse


# ------------------------------------------------------------------- census


def test_census_13_5_1():
    eg = builder(13, 5).build(1)
    z = ihara_zeta(eg)
    census = primitive_cycle_census(eg, 6)
    assert census[1] == 6
    assert census_matches_log_series(z, census)


def test_census_matches_edge_determinant_with_fixed_loops():
    # on a fixed-loop graph the census tracks the edge determinant, which
    # is precisely what the walk rule f != inv(e) encodes
    eg = builder(13, 5).build(2)
    census = primitive_cycle_census(eg, 6)
    logs = edge_log_series(edge_matrix_zeta(eg), 6)
    for m in range(1, 7):
        assert logs[m] == Fraction(census[m], m)
    # ... and does NOT match the Bass-form zeta
    z = ihara_zeta(eg)
    assert not census_matches_log_series(z, census)


def test_census_budgets():
    with pytest.raises(ZetaError):
        primitive_cycle_census(builder(13, 5).build(1), 11)
    big = builder(13, 7).build(3)  # 32 oriented edges
    with pytest.raises(ZetaError):
        primitive_cycle_census(big, 4)


# -------------------------------------------------------------- reciprocity


def test_reciprocity_13_37_5():
    cert = reciprocity_check(13, 37, 5)
    assert cert["equal"]
    assert cert["sizes"] == (38, 42)
    assert cert["chi"] == {"left": -72, "right": -72, "expected": -72}


def test_reciprocity_rejects_equal_primes():
    with pytest.raises(AdmissibilityError, match="distinct"):
        reciprocity_check(13, 13, 5)

