"""Spectra against exact trace identities and LAPACK, exact root counts
and the Ramanujan verdicts built on them, connectivity and bipartiteness
from the characteristic polynomial against the search oracles, the packed
Cheeger search against a float reference and the numpy meet-in-the-middle
oracle."""

import functools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from isograph import spectral
from isograph.cli import parse_grid
from isograph.enhanced import GraphBuilder
from isograph.polys import Polynomial, charpoly_int
from isograph.spectral import (
    EXACT_CHEEGER_LIMIT,
    SpectralError,
    Spectrum,
    _exact_cheeger,
    cheeger_constant,
    cheeger_sandwich,
    count_roots,
    is_bipartite,
    is_connected,
    ramanujan_report,
    spectrum,
    symmetric_eigenvalues,
)

GRID = "p in {13,37,61}, l in {3,5}, N in {1,2,3,6}"


@functools.cache
def grid_graphs():
    triples, _ = parse_grid(GRID)
    builders = {}
    return [builders.setdefault((p, l), GraphBuilder(p, l)).build(N) for p, l, N in triples]


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


def regular_multigraphs(max_n):
    """Symmetric nonnegative integer matrices with constant row sums: random
    off-diagonal multiplicities, the diagonal padded up to the degree."""

    def pad(rows_slack):
        rows, slack = rows_slack
        n = len(rows)
        M = [[rows[i][j] + rows[j][i] if i != j else 0 for j in range(n)]
             for i in range(n)]
        k = max(sum(row) for row in M) + slack
        for i in range(n):
            M[i][i] = k - sum(M[i])
        return M

    return st.tuples(
        st.integers(min_value=1, max_value=max_n).flatmap(
            lambda n: st.lists(
                st.lists(st.integers(min_value=0, max_value=5), min_size=n, max_size=n),
                min_size=n,
                max_size=n,
            )
        ),
        st.integers(min_value=0, max_value=3),
    ).map(pad)


@settings(max_examples=80, deadline=None)
@given(regular_multigraphs(7))
def test_spectrum_trace_identities_random_regular(M):
    n = len(M)
    k = sum(M[0])
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
    assert s.charpoly == Polynomial([0, -12, -4, 1])  # x (x - 6) (x + 2)
    rep = ramanujan_report(s, 5)
    assert rep.ok and rep.connected and rep.gap_floor
    assert abs(rep.bound - 2 * math.sqrt(5)) < 1e-12


def test_spectrum_of_single_class_graph():
    g = GraphBuilder(13, 7).build(1)
    s = spectrum(g)
    assert s.eigenvalues == (8.0,)
    assert s.lambda_star == 0.0
    rep = ramanujan_report(s, 7)
    assert rep.ok and rep.connected and rep.gap_floor


def test_ramanujan_report_refuses_a_degree_other_than_l_plus_1():
    # K5 is 4-regular: a report for l = 3 stands, one for l = 5 is refused
    K5 = [[int(i != j) for j in range(5)] for i in range(5)]
    s = spectrum(K5)
    assert ramanujan_report(s, 3).ok
    with pytest.raises(SpectralError, match="degree 4 does not match l \\+ 1 = 6"):
        ramanujan_report(s, 5)


def test_nonregular_rejected():
    with pytest.raises(SpectralError, match="not regular"):
        spectrum([[0, 1], [1, 2]])
    with pytest.raises(SpectralError, match="integer"):
        spectrum([[0.5, 1.5], [1.5, 0.5]])


def test_input_checks():
    for bad in ([], [1, 2], [[1, 2]], [[0, 1], [1]]):
        with pytest.raises(SpectralError, match="square"):
            spectrum(bad)
    with pytest.raises(SpectralError, match="integer"):
        spectrum([[2.0, 0], [0, 2]])
    # numpy integer entries are integers
    M = circulant(9, 1, 3)
    assert spectrum(np.array(M)) == spectrum(M)


# ------------------------------------------------------------ eigenvalues


def assert_matches_eigvalsh(M):
    got = symmetric_eigenvalues(M)
    want = np.linalg.eigvalsh(np.array(M, dtype=float))[::-1]
    scale = max(1.0, float(np.abs(want).max()))
    assert len(got) == len(want) and got == sorted(got, reverse=True)
    assert max(abs(a - b) for a, b in zip(got, want)) <= 1e-12 * scale * len(M)


def test_eigenvalues_match_lapack_on_grid():
    graphs = grid_graphs()
    assert len(graphs) == 18 and max(g.n for g in graphs) == 60
    for g in graphs:
        assert_matches_eigvalsh(g.brandt)


@st.composite
def repeated_eigenvalue_matrices(draw):
    """I_r (x) B + J_r (x) C for symmetric integer blocks B and C, under a
    random permutation: every eigenvalue of B recurs r - 1 times (on the
    vectors that J kills), and those of B + r C once each."""
    k = draw(st.integers(min_value=1, max_value=4))
    r = draw(st.integers(min_value=2, max_value=4))

    def block():
        entries = st.integers(min_value=-4, max_value=4)
        U = [[draw(entries) for _ in range(k)] for _ in range(k)]
        return [[U[min(i, j)][max(i, j)] for j in range(k)] for i in range(k)]

    B = block()
    C = block() if draw(st.booleans()) else None
    n = r * k
    M = [[B[i % k][j % k] * (i // k == j // k) + (C[i % k][j % k] if C else 0)
          for j in range(n)] for i in range(n)]
    perm = draw(st.permutations(range(n)))
    return [[M[perm[i]][perm[j]] for j in range(n)] for i in range(n)]


@settings(max_examples=120, deadline=None)
@given(repeated_eigenvalue_matrices())
def test_eigenvalues_match_lapack_with_repeated_eigenvalues(M):
    assert_matches_eigvalsh(M)


@settings(max_examples=120, deadline=None)
@given(
    st.integers(min_value=1, max_value=10).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(min_value=-9, max_value=9), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        )
    )
)
def test_eigenvalues_match_lapack_on_random_symmetric(U):
    n = len(U)
    assert_matches_eigvalsh([[U[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)])


def test_perturbed_solver_trips_the_top_eigenvalue_guard(monkeypatch):
    M = GraphBuilder(13, 5).build(6).brandt
    solve = spectral.symmetric_eigenvalues

    def shifted(delta):
        return lambda A: [solve(A)[0] + delta] + solve(A)[1:]

    monkeypatch.setattr(spectral, "symmetric_eigenvalues", shifted(5e-10))
    spectrum(M)  # within EIGVALSH_TOL
    for delta in (2e-9, -2e-9):
        monkeypatch.setattr(spectral, "symmetric_eigenvalues", shifted(delta))
        with pytest.raises(SpectralError, match="top eigenvalue"):
            spectrum(M)
    # a wrong reduction moves the top eigenvalue off the degree
    monkeypatch.setattr(spectral, "symmetric_eigenvalues", solve)
    tridiagonalize = spectral._tridiagonalize

    def scaled(A):
        d, e = tridiagonalize(A)
        return d, [1.001 * x for x in e]

    monkeypatch.setattr(spectral, "_tridiagonalize", scaled)
    with pytest.raises(SpectralError, match="top eigenvalue"):
        spectrum(M)


def test_non_convergence_raises(monkeypatch):
    with pytest.raises(SpectralError, match="did not converge"):
        symmetric_eigenvalues([[math.nan, 1.0], [1.0, 0.0]])
    monkeypatch.setattr(spectral, "QL_MAX_ITERATIONS", 0)
    assert spectrum([[6]]).eigenvalues == (6.0,)  # nothing to iterate
    with pytest.raises(SpectralError, match="did not converge"):
        spectrum(circulant(20, 1, 2))


# ------------------------------------------------------------ root counts


def poly_with_roots(*factors):
    """Product of integer polynomials given as ascending coefficient lists."""
    out = Polynomial([1])
    for f in factors:
        out = out * Polynomial(f)
    return out


def test_count_roots_at_plus_minus_two_sqrt_l():
    # (x^2 - 20)(x - 3)(x - 6)(x + 7): roots -7, -2 sqrt 5, 3, 2 sqrt 5, 6
    P = poly_with_roots([-20, 0, 1], [-3, 1], [-6, 1], [7, 1])
    assert count_roots(P, 0, 2, 1, 5) == (1, 1)
    assert count_roots(P, 0, -2, 1, 5) == (3, 1)
    # a double root on 2 sqrt 5 is two roots "at", none "above"
    Q = poly_with_roots([-20, 0, 1], [-20, 0, 1])
    assert count_roots(Q, 0, 2, 1, 5) == (0, 2)
    assert count_roots(Q, 0, -2, 1, 5) == (2, 2)
    # just off the threshold: 2 sqrt 5 against 9/2 and 4
    assert count_roots(Q, 9, 0, 2) == (0, 0)
    assert count_roots(Q, 4) == (2, 0)


def test_count_roots_at_rational_threshold():
    # (2x - 3)^2 (x - 4)(x + 1): a double root on 3/2
    P = poly_with_roots([-3, 2], [-3, 2], [-4, 1], [1, 1])
    assert count_roots(P, 3, 0, 2) == (1, 2)
    assert count_roots(P, 4) == (0, 1)
    assert count_roots(P, -1) == (3, 1)
    assert count_roots(P, 29, 0, 20) == (3, 0)  # 1.45 < 3/2
    assert count_roots(P, 31, 0, 20) == (1, 0)  # 1.55 > 3/2


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.integers(min_value=-9, max_value=9), min_size=1, max_size=8),
    st.lists(st.integers(min_value=1, max_value=3), max_size=3),
    st.integers(min_value=-40, max_value=40),
    st.integers(min_value=-4, max_value=4),
    st.integers(min_value=1, max_value=6),
    st.sampled_from([2, 3, 5, 7]),
)
def test_count_roots_matches_known_roots(ints, surds, u, v, w, d):
    """Integer roots r and pairs of roots +-m sqrt d, against the threshold
    (u + v sqrt d) / w compared exactly: x > y iff x - y > 0, and the sign
    of a + b sqrt d is decided by squaring."""
    P = poly_with_roots(*([-r, 1] for r in ints), *([-m * m * d, 0, 1] for m in surds))
    roots = [(w * r, 0) for r in ints]  # w * root as (a, b) = a + b sqrt d
    roots += [(0, w * m) for m in surds] + [(0, -w * m) for m in surds]

    def sign(a, b):
        if a >= 0 and b >= 0 or a <= 0 and b <= 0:
            return (a > 0 or b > 0) - (a < 0 or b < 0)
        return (1 if a > 0 else -1) * (1 if a * a > d * b * b else -1)

    diffs = [sign(a - u, b - v) for a, b in roots]
    assert count_roots(P, u, v, w, d) == (diffs.count(1), diffs.count(0))


# ------------------------------------------------------ Ramanujan verdicts


def circulant(n, *steps):
    M = [[0] * n for _ in range(n)]
    for i in range(n):
        for s in steps:
            M[i][(i + s) % n] += 1
            M[(i + s) % n][i] += 1
    return M


def disjoint_union(*blocks):
    n = sum(len(b) for b in blocks)
    M = [[0] * n for _ in range(n)]
    offset = 0
    for b in blocks:
        for i, row in enumerate(b):
            M[offset + i][offset : offset + len(b)] = row
        offset += len(b)
    return M


K5 = [[int(i != j) for j in range(5)] for i in range(5)]
K44 = [[int((i < 4) != (j < 4)) for j in range(8)] for i in range(8)]


def test_eigenvalues_on_two_sqrt_l_are_inside_the_windows():
    # (x - 4)(x^2 - 12): degree 4, l = 3, lambda_1 = 2 sqrt 3 = -lambda_2
    root = 2 * math.sqrt(3)
    s = Spectrum((4.0, root, -root), 4, poly_with_roots([-4, 1], [-12, 0, 1]))
    rep = ramanujan_report(s, 3)
    assert rep.ok and rep.connected and rep.gap_floor


def test_large_lambda1_fails_ramanujan_and_gap_windows():
    # C_20(1, 2) is connected, non-bipartite and 4-regular, with
    # lambda_1 = 2 cos(pi/10) + 2 cos(pi/5) = 3.52 > 2 sqrt 3
    s = spectrum(circulant(20, 1, 2))
    assert s.eigenvalues[1] > 2 * math.sqrt(3)
    rep = ramanujan_report(s, 3)
    assert rep.connected
    assert not rep.ok and not rep.gap_floor


def test_disconnected_detected_by_multiplicity():
    s = spectrum(disjoint_union(K5, K5))  # 4, 4, -1 x 8
    assert count_roots(s.charpoly, 4) == (0, 2)
    rep = ramanujan_report(s, 3)
    assert not rep.connected and not rep.ok and not rep.gap_floor
    assert ramanujan_report(spectrum(K5), 3).ok  # one copy is Ramanujan


def test_bipartite_fails_ramanujan_window():
    s = spectrum(K44)  # 4, 0 x 6, -4
    rep = ramanujan_report(s, 3)
    assert rep.connected and rep.gap_floor
    assert not rep.ok


# ------------------------------------------ connectivity and bipartiteness


def perm_sum(n, perms, loops):
    """loops * I plus P + P^T for each permutation P: regular of degree
    2 len(perms) + loops; a fixed point of P adds a loop of weight 2."""
    M = [[loops * (i == j) for j in range(n)] for i in range(n)]
    for perm in perms:
        for i, j in enumerate(perm):
            M[i][j] += 1
            M[j][i] += 1
    return M


@st.composite
def perm_multigraphs(draw):
    """Regular multigraphs: perm_sum blocks of one degree, then up to two
    steps, each a disjoint union with a fresh block or the bipartite double
    cover [[0, M], [M, 0]]."""
    m = draw(st.integers(min_value=1, max_value=2))
    loops = draw(st.integers(min_value=0, max_value=1))

    def block():
        n = draw(st.integers(min_value=1, max_value=5))
        return perm_sum(n, [draw(st.permutations(range(n))) for _ in range(m)], loops)

    M = block()
    for step in draw(st.lists(st.sampled_from(("union", "cover")), max_size=2)):
        if step == "union":
            M = disjoint_union(M, block())
        else:
            zero = [0] * len(M)
            M = [zero + row for row in M] + [row + zero for row in M]
    return M


@st.composite
def symmetric_matrices(draw):
    """Symmetric non-negative matrices, loops allowed and rows irregular;
    with `split`, entries between vertices on one side are dropped, which
    leaves a bipartite graph."""
    n = draw(st.integers(min_value=1, max_value=8))
    side = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    split = draw(st.booleans())
    M = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            if not (split and side[i] == side[j]):
                M[i][j] = M[j][i] = draw(st.sampled_from((0, 0, 1, 2)))
    return M


@settings(max_examples=150, deadline=None)
@given(perm_multigraphs())
def test_charpoly_verdicts_match_search_oracles_on_regular_multigraphs(M):
    P = charpoly_int(M)
    assert is_connected(P, sum(M[0])) == oracles.adjacency_connected(M)
    assert is_bipartite(P) == oracles.is_bipartite(M)


@settings(max_examples=100, deadline=None)
@given(symmetric_matrices())
def test_bipartite_verdict_matches_two_colouring_on_irregular_matrices(M):
    assert is_bipartite(charpoly_int(M)) == oracles.is_bipartite(M)


def test_charpoly_verdicts_on_small_graphs():
    # K5 + K5: P(4) = 0 holds for the union too, only P'(4) = 0 tells it apart
    assert is_connected(charpoly_int(K5), 4)
    assert not is_connected(charpoly_int(disjoint_union(K5, K5)), 4)
    path = [[0, 1, 0], [1, 0, 1], [0, 1, 0]]  # irregular
    assert is_bipartite(charpoly_int(K44)) and is_bipartite(charpoly_int(path))
    assert not is_bipartite(charpoly_int(circulant(3, 1)))  # the triangle
    assert not is_bipartite(charpoly_int([[2]]))  # a loop is an odd closed walk


# ----------------------------------------------------------------- Cheeger


def float_cheeger(M):
    """Reference: every bitmask subset scored in float64, in chunks; the
    first minimum in mask order is the witness."""
    A = np.asarray(M, dtype=float)
    n = A.shape[0]
    degree = A.sum(axis=1)
    best, best_mask = math.inf, 0
    chunk, total = 1 << 16, 1 << n
    bit_cols = np.arange(n, dtype=np.uint32)
    for start in range(1, total, chunk):
        masks = np.arange(start, min(start + chunk, total), dtype=np.uint32)
        bits = ((masks[:, None] >> bit_cols[None, :]) & 1).astype(np.float64)
        sizes = bits.sum(axis=1)
        keep = (sizes > 0) & (2 * sizes <= n)
        if not keep.any():
            continue
        bits, sizes, masks = bits[keep], sizes[keep], masks[keep]
        boundary = bits @ degree - np.einsum("ij,ij->i", bits @ A, bits)
        ratios = boundary / sizes
        i = int(np.argmin(ratios))
        if ratios[i] < best:
            best, best_mask = float(ratios[i]), int(masks[i])
    return best, tuple(v for v in range(n) if (best_mask >> v) & 1)


def assert_matches_float_reference(M):
    r = cheeger_constant(M)
    assert r.method == "exact" and isinstance(r.value, Fraction)
    value, witness = float_cheeger(M)
    assert float(r.value) == value
    assert r.witness == witness


def small_grid_graphs():
    small = [g for g in grid_graphs() if 2 <= g.n <= EXACT_CHEEGER_LIMIT]
    assert len(small) == 14 and max(g.n for g in small) == 20
    return small


def assert_matches_mitm_oracle(M):
    r = cheeger_constant(M)
    assert r.method == "exact"
    assert (r.value, r.witness) == oracles.mitm_cheeger(M)


def test_packed_cheeger_matches_mitm_oracle_on_grid():
    for g in small_grid_graphs():
        assert_matches_mitm_oracle(g.brandt)


@settings(max_examples=100, deadline=None)
@given(perm_multigraphs())
def test_packed_cheeger_matches_mitm_oracle_on_multigraphs(M):
    # loops, disconnected unions and bipartite covers, up to 20 vertices
    assume(len(M) >= 2)
    assert_matches_mitm_oracle(M)


@settings(max_examples=100, deadline=None)
@given(symmetric_matrices())
def test_packed_search_matches_mitm_oracle_on_irregular_matrices(M):
    assume(len(M) >= 2)
    assert _exact_cheeger(M) == oracles.mitm_cheeger(M)


def test_packed_cheeger_on_two_vertices():
    for M in ([[0, 2], [2, 0]], [[1, 1], [1, 1]], [[2, 0], [0, 2]], [[0, 0], [0, 0]]):
        assert _exact_cheeger(M) == oracles.mitm_cheeger(M)


@pytest.mark.parametrize("factor", [1, 10**2, 10**6, 10**15])
def test_packed_cheeger_with_wide_lanes(factor):
    # entries scaled up move the lanes to 16, 32 and 64 bits; the ratio
    # scales with them and the witness stays
    M = [[factor * x for x in row] for row in circulant(11, 1, 4)]
    value, witness = _exact_cheeger(circulant(11, 1, 4))
    assert _exact_cheeger(M) == (factor * value, witness) == oracles.mitm_cheeger(M)


def test_packed_cheeger_refuses_what_lanes_cannot_hold():
    with pytest.raises(SpectralError, match="too large"):
        _exact_cheeger([[0, 2**62], [2**62, 0]])
    with pytest.raises(SpectralError, match="non-negative"):
        _exact_cheeger([[2, -1], [-1, 2]])


@settings(max_examples=60, deadline=None)
@given(regular_multigraphs(9))
def test_integer_cheeger_matches_float_reference_random(M):
    if len(M) >= 2:
        assert_matches_float_reference(M)


def test_cheeger_at_limit_runs_in_bounded_memory():
    # the 24-cycle: the best cut is an arc of 12 vertices with 2 boundary
    # edges, and the lowest such mask is vertices 0..11
    tracemalloc.start()
    try:
        r = cheeger_constant(circulant(24, 1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert r.method == "exact"
    assert r.value == Fraction(1, 6)
    assert r.witness == tuple(range(12))
    assert peak < 16 * 2**20


def test_cheeger_sandwich_floor_fires():
    # two copies of K5: h = 0, below (sqrt 3 - 1)^2 / 2, while gap = 0 keeps
    # both spectral bounds; only the floor catches it
    M = disjoint_union(K5, K5)
    r = cheeger_constant(M)
    assert r.value == 0
    assert not cheeger_sandwich(spectrum(M), r.value)
    assert cheeger_sandwich(spectrum(K5), cheeger_constant(K5).value)  # h = 3


def test_cheeger_sandwich_bounds_fire():
    # spectrum 6, 0, -2: gap = 6, so the bounds are 3 <= h <= sqrt(72) = 8.485
    s = spectrum(GraphBuilder(37, 5).build(1))
    assert cheeger_sandwich(s, Fraction(4))  # the true h
    assert cheeger_sandwich(s, Fraction(3))  # on gap/2: lambda_1 on k - 2h
    assert not cheeger_sandwich(s, Fraction(29, 10))
    assert cheeger_sandwich(s, Fraction(8))
    assert not cheeger_sandwich(s, Fraction(17, 2))
    # on the upper bound itself: 2-regular double edge, gap = 4, sqrt(2k gap) = 4
    d = spectrum([[0, 2], [2, 0]])
    assert cheeger_sandwich(d, Fraction(4))
    assert not cheeger_sandwich(d, Fraction(401, 100))


def test_large_graph_without_floor_is_refused():
    # C_30(1, 2) at l = 3: too large for enumeration, and lambda_1 = 3.7834 >
    # 2 sqrt 3, so the floor is not certified; the float bounds alone
    # (lower <= upper) hold for any graph
    M = circulant(30, 1, 2)
    s = spectrum(M)
    r = cheeger_constant(M, spec=s)
    assert r.method == "bounds-only"
    assert r.lower_bound <= r.upper_bound
    assert abs(s.eigenvalues[1] - 3.7834) < 1e-4
    assert not ramanujan_report(s, 3).gap_floor


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
