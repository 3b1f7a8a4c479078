"""Spectra against exact trace identities, Ramanujan checks, Cheeger
enumeration."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isograph.enhanced import GraphBuilder
from isograph.spectral import (
    CheegerResult,
    SpectralError,
    cheeger_constant,
    ramanujan_report,
    spectrum,
)


def assert_trace_identities(M, s):
    """Newton's identities: the j-th power sum of the eigenvalues equals
    the exact integer trace of M^j, and the top eigenvalue is the degree."""
    A = np.array(M, dtype=np.int64)
    power = np.eye(len(A), dtype=np.int64)
    for j in (1, 2, 3):
        power = power @ A
        power_sum = sum(x**j for x in s.eigenvalues)
        scale = max(1.0, sum(abs(x) ** j for x in s.eigenvalues))
        assert abs(power_sum - int(np.trace(power))) < 1e-9 * scale
    assert abs(s.eigenvalues[0] - s.degree) < 1e-9


@settings(max_examples=80, deadline=None)
@given(
    st.integers(min_value=1, max_value=7).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(min_value=0, max_value=5), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        )
    ),
    st.integers(min_value=0, max_value=3),
)
def test_spectrum_trace_identities_random_regular(rows, slack):
    n = len(rows)
    M = [[rows[i][j] + rows[j][i] if i != j else 0 for j in range(n)]
         for i in range(n)]
    k = max(sum(row) for row in M) + slack
    for i in range(n):
        M[i][i] = k - sum(M[i])  # pad the diagonal to make M k-regular
    s = spectrum(M)
    assert s.degree == k and s.n == n
    assert list(s.eigenvalues) == sorted(s.eigenvalues, reverse=True)
    assert_trace_identities(M, s)


def test_spectrum_trace_identities_61_5_6():
    g = GraphBuilder(61, 5).build(6)
    s = spectrum(g)
    assert s.degree == 6 and s.n == g.n
    assert_trace_identities(g.brandt, s)


def test_trivial_one_by_one():
    s = spectrum([[6]])
    assert s.eigenvalues == (6.0,) and s.degree == 6


def test_asymmetric_rejected():
    with pytest.raises(SpectralError, match="symmetric"):
        spectrum([[0, 1], [2, 0]])


def test_spectrum_37_5():
    g = GraphBuilder(37, 5).build(1)
    s = spectrum(g)
    assert s.degree == 6
    expect = (6.0, 0.0, -2.0)
    assert max(abs(a - b) for a, b in zip(s.eigenvalues, expect)) < 1e-9
    assert abs(s.lambda_star - 2.0) < 1e-9
    assert abs(s.laplacian_gap - 6.0) < 1e-9
    assert s.connected_spectrally
    assert not s.bipartite_spectrally
    rep = ramanujan_report(s, 5)
    assert rep.ok and rep.connected
    assert abs(rep.bound - 2 * math.sqrt(5)) < 1e-12
    assert rep.margin > 2.4


def test_spectrum_of_single_class_graph():
    g = GraphBuilder(13, 7).build(1)
    s = spectrum(g)
    assert s.eigenvalues == (8.0,)
    assert s.lambda_star == 0.0
    rep = ramanujan_report(s, 7)
    assert rep.ok and rep.connected


def test_nonregular_rejected():
    with pytest.raises(SpectralError):
        spectrum([[0, 1], [1, 2]])
    with pytest.raises(SpectralError):
        # explicit degree must still match the top eigenvalue
        spectrum([[0, 1], [1, 2]], degree=2)


def test_disconnected_detected_by_multiplicity():
    M = [[0, 2, 0, 0], [2, 0, 0, 0], [0, 0, 0, 2], [0, 0, 2, 0]]
    s = spectrum(M)
    assert s.trivial_multiplicity == 2
    assert not s.connected_spectrally
    assert s.bipartite_spectrally


def test_laplacian_spectrum_orientation():
    g = GraphBuilder(37, 5).build(1)
    s = spectrum(g)
    lap = s.laplacian_spectrum()
    assert lap == tuple(sorted(lap))
    assert abs(lap[0]) < 1e-9
    assert abs(lap[1] - s.laplacian_gap) < 1e-12


# ----------------------------------------------------------------- Cheeger


def boundary_of(A, S):
    S = set(S)
    return sum(
        A[i][j] for i in S for j in range(len(A)) if j not in S
    )


def test_cheeger_double_edge():
    r = cheeger_constant([[0, 2], [2, 0]])
    assert r.method == "exact"
    assert r.value == 2.0
    assert r.witness in ((0,), (1,))
    assert r.lower_bound <= r.value <= r.upper_bound


def test_cheeger_four_cycle():
    M = [[0, 1, 0, 1], [1, 0, 1, 0], [0, 1, 0, 1], [1, 0, 1, 0]]
    r = cheeger_constant(M)
    assert r.value == 1.0
    assert len(r.witness) == 2
    assert boundary_of(M, r.witness) / len(r.witness) == r.value
    assert r.lower_bound <= r.value <= r.upper_bound


def test_cheeger_37_5():
    g = GraphBuilder(37, 5).build(1)
    r = cheeger_constant(g)
    assert r.method == "exact"
    assert r.value == 4.0  # best cut is the single vertex with the 2-loop
    assert r.witness == (2,)


def test_cheeger_witness_consistency_13_5_6():
    g = GraphBuilder(13, 5).build(6)
    r = cheeger_constant(g)
    assert r.method == "exact"
    A = [list(row) for row in g.brandt]
    assert abs(boundary_of(A, r.witness) / len(r.witness) - r.value) < 1e-12
    assert r.lower_bound - 1e-9 <= r.value <= r.upper_bound + 1e-9


def test_cheeger_reuses_given_spectrum():
    g = GraphBuilder(13, 5).build(6)
    spec = spectrum(g)
    assert cheeger_constant(g, spec=spec) == cheeger_constant(g)
    with pytest.raises(SpectralError, match="does not fit"):
        cheeger_constant(g, spec=spectrum(GraphBuilder(13, 5).build(2)))


def test_cheeger_bounds_only_above_limit():
    g = GraphBuilder(61, 5).build(6)
    r = cheeger_constant(g)
    assert r.method == "bounds-only"
    assert r.value is None and r.witness is None
    assert 0 < r.lower_bound <= r.upper_bound


def test_cheeger_single_vertex_undefined():
    r = cheeger_constant([[6]])
    assert r.method == "undefined"
    assert r.value is None


def test_cheeger_disconnected_is_zero():
    M = [[0, 2, 0, 0], [2, 0, 0, 0], [0, 0, 0, 2], [0, 0, 2, 0]]
    r = cheeger_constant(M)
    assert r.value == 0.0
