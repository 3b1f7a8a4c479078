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


def edge_reference(eg):
    """det(I - tT) by Bareiss + Lagrange on the polynomial matrix."""
    m, k = eg.oriented_edge_count, eg.degree
    return poly_matrix_det(
        [
            [
                Polynomial(
                    [1 if e == f else 0,
                     -1 if eg.edge_target[e] == f // k and f != eg.edge_reverse[e] else 0]
                )
                for f in range(m)
            ]
            for e in range(m)
        ]
    )


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
    # (13,5,3) has forced fixed loops (m = 24); (61,5,1) is the m = 30 case
    for p, l, N, m in ((13, 5, 3, 24), (61, 5, 1, 30)):
        eg = builder(p, l).build(N)
        assert eg.oriented_edge_count == m
        assert edge_matrix_zeta(eg) == edge_reference(eg), (p, l, N)


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

