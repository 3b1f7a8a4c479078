"""Level-structure layer: admissibility, subgroup tables, quotient arrows,
and the multiplicity matrices, checked against independently re-derived
values wherever a matrix is frozen."""

import dataclasses
import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from isograph.curves import (
    CurveError,
    TorsionBasisError,
    TorsionField,
    XMap,
    isomorphism_scale,
    torsion_basis,
    torsion_field,
    torsion_order_extension,
    velu_quotient,
    x_double,
    x_multiples,
)
from isograph.enhanced import (
    AdmissibilityError,
    BrandtValidationError,
    EnhancedGraph,
    GraphBuildError,
    GraphBuilder,
    check_admissible,
    diagonal_parity_violations,
    sigma1,
    validate_symmetry_and_row_sums,
    vertex_count,
)
import isograph.enhanced as enhanced_mod
from isograph.fields import HalfField, get_embedding, make_extension_field
from isograph.supersingular import build_class_table, enumerate_supersingular


# ---------------------------------------------------------------- oracles


def level1_matrix_by_j(p, l, rng_seed):
    """Independent multiplicity count using only quotient j-invariants:
    enumerate the l + 1 kernels from a fresh random basis, Velu each one,
    and bucket by target class.  No arrow/pushforward bookkeeping."""
    table = build_class_table(p)
    big = make_extension_field(p, 2 * torsion_order_extension(p, l))
    emb = get_embedding(table.field, big)
    rng = random.Random(rng_seed)
    h = table.class_count
    M = [[0] * h for _ in range(h)]
    for ci, model in enumerate(table.models):
        E = model.change_field(emb)
        P, Q = torsion_basis(E, l, rng)
        gens = [P]
        R = E.identity()
        for _ in range(l):
            gens.append(Q + R)
            R = R + P
        for G in gens:
            image, _ = velu_quotient(E, x_multiples(G, (l - 1) // 2), l)
            j = emb.descend(image.j_invariant())
            M[ci][table.class_of_j(j)] += 1
    return M


def level2_matrix_13_5(rng_seed):
    """Independent re-derivation of the (p=13, l=5, N=2) matrix.

    Vertices are (class, 2-subgroup); the three 2-subgroups are found as
    roots of the 2-division cubic by scanning F_169, and each degree-5
    isogeny pushes them forward through its x-map directly.  Shares only
    the curve primitives with the builder, none of its table machinery."""
    p, l = 13, 5
    table = build_class_table(p)
    E = table.models[0]
    F2 = table.field
    big = make_extension_field(p, 8)
    emb = get_embedding(F2, big)
    Ebig = E.change_field(emb)

    two_xs = sorted(
        (x for x in map(F2.element, F2.iter_tuples()) if not E.rhs(x)),
        key=lambda x: x.coeffs,
    )
    assert len(two_xs) == 3
    index = {x.coeffs: i for i, x in enumerate(two_xs)}

    rng = random.Random(rng_seed)
    P, Q = torsion_basis(Ebig, l, rng)
    gens = [P]
    R = Ebig.identity()
    for _ in range(l):
        gens.append(Q + R)
        R = R + P

    M = [[0] * 3 for _ in range(3)]
    for G in gens:
        image, xmap = velu_quotient(Ebig, x_multiples(G, (l - 1) // 2), l)
        from isograph.curves import EllipticCurve

        small = EllipticCurve(emb.descend(image.a), emb.descend(image.b))
        u2 = isomorphism_scale(small, E)
        assert u2 is not None
        for x0 in two_xs:
            moved = u2 * emb.descend(xmap(emb(x0)))
            M[index[x0.coeffs]][index[moved.coeffs]] += 1
    return M


def full_field_slots(p, r, rng_seed):
    """Independent subgroup tables: every class model base-changed to the
    full F_{p^{2k}}, k the order of -p mod r, where E[r] is rational
    without a twist; for each class, the r + 1 subgroups as sorted lists of
    x encodings, in sorted order.  This is the full-degree table code the
    builder ran before its tables moved to the half-degree field."""
    table = build_class_table(p)
    big = make_extension_field(p, 2 * torsion_order_extension(p, r))
    emb = get_embedding(table.field, big)
    rng = random.Random(rng_seed)
    half = max(1, (r - 1) // 2)
    out = []
    for model in table.models:
        E = model.change_field(emb)
        P, Q = torsion_basis(E, r, rng)
        gens = [P]
        R = E.identity()
        for _ in range(r):
            gens.append(Q + R)
            R = R + P
        out.append(sorted(sorted(x.coeffs for x in x_multiples(G, half)) for G in gens))
    return out


def push_by_all_points(b, ci, t, r, s):
    """Independent push: map every x-coordinate of the subgroup through the
    lifted x-map and return the unique target slot whose point set is the
    whole image.  The builder pushes one point per subgroup and checks
    whole rows instead, so this is its independent reference."""
    ar = b.arrows[ci][t]
    emb = torsion_field(b.p, r).emb
    xmap, u2 = ar.xmap.lift(emb), emb(ar.u2)
    image = frozenset(
        (u2 * x).coeffs for x in xmap.eval_many(b.level_subgroups(r)[ci][s])
    )
    (hit,) = [
        i for i, slot in enumerate(b.level_subgroups(r)[ar.target])
        if frozenset(x.coeffs for x in slot) == image
    ]
    return hit


# ------------------------------------------------------------ admissibility


def test_admissibility_rejections():
    with pytest.raises(AdmissibilityError):
        check_admissible(11, 5, 1)  # 11 !== 1 mod 12
    with pytest.raises(AdmissibilityError):
        check_admissible(13, 4, 1)  # l not prime
    with pytest.raises(AdmissibilityError):
        check_admissible(13, 13, 1)  # l == p
    with pytest.raises(AdmissibilityError, match="odd prime"):
        check_admissible(13, 2, 1)  # the graphs are (l+1)-regular for odd l
    with pytest.raises(AdmissibilityError):
        check_admissible(13, 5, 12)  # not squarefree
    with pytest.raises(AdmissibilityError):
        check_admissible(13, 5, 65)  # shares factors with both l and p
    with pytest.raises(AdmissibilityError):
        check_admissible(13, 5, 0)
    assert check_admissible(13, 5, 6) == [2, 3]
    assert check_admissible(61, 7, 30) == [2, 3, 5]
    assert check_admissible(13, 5, 1) == []


def test_sigma1_and_vertex_count():
    assert sigma1(1) == 1
    assert sigma1(6) == 12
    assert sigma1(30) == 72
    assert vertex_count(13, 1) == 1
    assert vertex_count(13, 6) == 12
    assert vertex_count(37, 2) == 9
    assert vertex_count(61, 6) == 60


# ---------------------------------------------------------------- validation


def test_validation_split():
    good = [[0, 4], [4, 0]]
    validate_symmetry_and_row_sums(good, 3)
    assert diagonal_parity_violations(good) == ()

    odd_diag = [[1, 3, 2], [3, 1, 2], [2, 2, 2]]
    validate_symmetry_and_row_sums(odd_diag, 5)
    assert diagonal_parity_violations(odd_diag) == (0, 1)

    with pytest.raises(BrandtValidationError):
        validate_symmetry_and_row_sums([[0, 4], [3, 2]], 3)  # asymmetric... and bad sum
    with pytest.raises(BrandtValidationError):
        validate_symmetry_and_row_sums([[2, 3], [3, 2]], 3)  # row sum 5 != 4
    with pytest.raises(BrandtValidationError):
        validate_symmetry_and_row_sums([[2, 2], [2, 2], [2, 2]], 3)
    with pytest.raises(BrandtValidationError):
        validate_symmetry_and_row_sums([[2, -1, 3], [-1, 4, 1], [3, 1, 0]], 3)


# --------------------------------------------------------- subgroup tables


def test_two_torsion_slots_are_division_cubic_roots():
    b = GraphBuilder(13, 5)
    slots = b.level_subgroups(2)[0]
    assert len(slots) == 3
    E = b.table.models[0]
    F2 = b.table.field
    roots = sorted(
        (x.coeffs for x in map(F2.element, F2.iter_tuples()) if not E.rhs(x))
    )
    assert sorted(s[0].coeffs for s in slots) == roots
    assert all(len(s) == 1 for s in slots)


def test_five_torsion_slots_partition_nonzero_torsion():
    b = GraphBuilder(13, 5)
    slots = b.level_subgroups(5)[0]
    assert len(slots) == 6
    assert all(len(s) == 2 for s in slots)
    all_xs = [x.coeffs for s in slots for x in s]
    # 24 nonzero 5-torsion points in +-pairs: 12 distinct x's
    assert len(set(all_xs)) == 12


def _out_of_order(keys):
    return keys != sorted(keys)


def test_canonical_choices_follow_encodings_not_raw_ints():
    # a raw int holds coefficient i in word i, so raw ints order by the
    # highest-degree coefficient first and encodings by the lowest: the
    # two orders disagree on these elements, and each choice must follow
    # the encodings
    f = make_extension_field(13, 2)
    r = f.pack((1, 12))
    assert f.unpack(f.neg_t(r)) == (12, 1) and f.neg_t(r) < r
    assert f.sqrt_t(f.mul_t(r, r)) == r
    js = enumerate_supersingular(61)
    assert not _out_of_order([j.coeffs for j in js])
    assert _out_of_order([j.raw for j in js])
    raw_disagrees = set()
    for p, l, r in ((13, 5, 7), (37, 5, 7), (61, 7, 5)):
        for slots in GraphBuilder(p, l).level_subgroups(r):
            for s in slots:
                assert not _out_of_order([x.coeffs for x in s])
                if _out_of_order([x.raw for x in s]):
                    raw_disagrees.add("xs")
            assert not _out_of_order([[x.coeffs for x in s] for s in slots])
            if _out_of_order([[x.raw for x in s] for s in slots]):
                raw_disagrees.add("slots")
    assert raw_disagrees == {"xs", "slots"}


def test_torsion_field_degrees():
    # half of F_{p^{2k}} where (-p)^(k/2) = -1 mod r, on the twist by y
    for r, deg in ((2, 2), (3, 2), (5, 4), (7, 2), (37, 36)):
        tf = torsion_field(13, r)
        assert tf.field.deg == deg
        twisted = torsion_order_extension(13, r) % 2 == 0
        assert (tf.delta is not None) == twisted
        if twisted:
            assert not tf.field.is_square_t(tf.delta.raw)
    # F_{37^40} = x^40 + 2x + 2 has no half: full degree, no twist
    tf = torsion_field(37, 61)
    assert tf.field.deg == 40 and tf.delta is None
    assert tf.field is make_extension_field(37, 40)


@pytest.mark.parametrize("p,r", [(13, 3), (13, 5), (37, 5), (13, 37)])
def test_half_degree_slots_match_full_field_oracle(p, r):
    b = GraphBuilder(p, 7 if r == 5 else 5)
    full = make_extension_field(p, 2 * torsion_order_extension(p, r))
    half = HalfField(full)
    assert torsion_field(p, r).field.modulus == half.sub.modulus
    spread = [
        [[full.unpack(half.spread_t(x.raw)) for x in slot] for slot in cls]
        for cls in b.level_subgroups(r)
    ]
    assert spread == full_field_slots(p, r, rng_seed=2718)


def _with_torsion_field(monkeypatch, p, r, **changes):
    """Make the builder see the order-r torsion field of p with `changes`."""
    bad = TorsionField(**{**vars(torsion_field(p, r)), **changes})

    def patched(pp, rr):
        return bad if (pp, rr) == (p, r) else torsion_field(pp, rr)

    monkeypatch.setattr(enhanced_mod, "torsion_field", patched)


def test_dropped_twist_fails_loudly(monkeypatch):
    _with_torsion_field(monkeypatch, 13, 5, delta=None)
    with pytest.raises(CurveError, match="not rational"):
        GraphBuilder(13, 7).level_subgroups(5)


@pytest.mark.parametrize("p,r", [(13, 5), (37, 13)])
def test_square_delta_fails_loudly(monkeypatch, p, r):
    delta = torsion_field(p, r).delta
    _with_torsion_field(monkeypatch, p, r, delta=delta * delta)
    with pytest.raises(TorsionBasisError):
        GraphBuilder(p, 5 if r != 5 else 7).level_subgroups(r)


# ------------------------------------------------------------------ arrows


def test_arrow_duality_structure():
    b = GraphBuilder(13, 5)
    duals = [a.dual_index for a in b.arrows[0]]
    assert duals == [1, 0, 2, 3, 5, 4]
    # self-dual kernels belong to trace-zero endomorphisms, necessarily loops
    for t, a in enumerate(b.arrows[0]):
        if a.dual_index == t:
            assert a.target == 0


def test_golden_arrow_digest():
    # every arrow's target, u2, x-map coefficients and dual index, on
    # half-degree and full torsion fields; the cache files and the
    # reference certificates pin none of the x-maps
    h = hashlib.sha256()
    for p, l in [(13, 5), (37, 7), (61, 5), (13, 11)]:
        for ci, row in enumerate(GraphBuilder(p, l).arrows):
            for t, ar in enumerate(row):
                rec = (
                    p,
                    l,
                    ci,
                    t,
                    ar.target,
                    ar.u2.coeffs,
                    tuple(c.coeffs for c in ar.xmap.num),
                    tuple(c.coeffs for c in ar.xmap.den),
                    ar.dual_index,
                )
                h.update(repr(rec).encode())
    assert h.hexdigest() == (
        "5bd6ebfa5a18ec288789ceea9e4152f894b5a670f3e41e69fd37f89e0e9dce2a"
    )


def test_arrow_dual_of_dual_across_classes():
    b = GraphBuilder(37, 7)
    for ci, row in enumerate(b.arrows):
        for t, a in enumerate(row):
            back = b.arrows[a.target][a.dual_index]
            assert (back.target, back.dual_index) == (ci, t)


# ------------------------------------------------------------ pushes


@pytest.mark.parametrize(
    "p,l,r", [(13, 5, 2), (13, 5, 3), (13, 5, 7), (37, 5, 2), (37, 5, 3)]
)
def test_push_matches_all_points_oracle(p, l, r):
    b = GraphBuilder(p, l)
    for ci, row in enumerate(b.arrows):
        for t in range(len(row)):
            for s in range(r + 1):
                assert b.push_subgroup(ci, t, r, s) == push_by_all_points(
                    b, ci, t, r, s
                )


def _patch_arrow(monkeypatch, b, r, wrap):
    """Make builder b see arrow (0, 0) at prime r through wrap(xmap, u2)."""
    real = b._lifted_arrow

    def patched(ci, t, rr):
        xmap, u2 = real(ci, t, rr)
        if (ci, t, rr) == (0, 0, r):
            return wrap(xmap, u2)
        return xmap, u2

    monkeypatch.setattr(b, "_lifted_arrow", patched)


def test_push_guard_image_outside_table(monkeypatch):
    b = GraphBuilder(13, 5)

    def perturb(xmap, u2):
        num = list(xmap.num)
        num[0] = num[0] + 1
        return XMap(num, xmap.den), u2

    _patch_arrow(monkeypatch, b, 3, perturb)
    with pytest.raises(GraphBuildError, match="missed the table"):
        b.push_subgroup(0, 0, 3, 0)


def test_push_guard_not_a_bijection(monkeypatch):
    b = GraphBuilder(13, 5)
    target = b.arrows[0][0].target
    x_hit = b.level_subgroups(3)[target][1][0]

    def constant(xmap, u2):
        return XMap([x_hit], [x_hit.field.one]), x_hit.field.one

    _patch_arrow(monkeypatch, b, 3, constant)
    with pytest.raises(GraphBuildError, match="not a bijection"):
        b.push_subgroup(0, 0, 3, 0)


def test_push_guard_doubling(monkeypatch):
    # swap y0 = x(phi(P)) with x(2 phi(P)) on the target: each subgroup
    # still lands on its own slot, so only the doubling guard can see it
    b = GraphBuilder(13, 5)
    r = 7
    emb = torsion_field(b.p, r).emb
    tgt = b.table.models[b.arrows[0][0].target]
    x0 = b.level_subgroups(r)[0][0][0]

    class Swapped:
        def __init__(self, xmap, u2):
            self.xmap, self.u2 = xmap, u2
            y0 = u2 * xmap(x0)
            y1 = x_double(tgt.change_field(emb), y0)
            self.swap = {y0.coeffs: y1, y1.coeffs: y0}

        def eval_many(self, xs):
            out = []
            for v in self.xmap.eval_many(xs):
                y = self.swap.get((self.u2 * v).coeffs)
                out.append(v if y is None else y / self.u2)
            return out

    _patch_arrow(monkeypatch, b, r, lambda xmap, u2: (Swapped(xmap, u2), u2))
    with pytest.raises(GraphBuildError, match="doubling"):
        b.push_subgroup(0, 0, r, 0)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32), deg=st.sampled_from([2, 4, 8]))
def test_x_double_matches_point_addition(seed, deg):
    table = build_class_table(13)
    emb = get_embedding(table.field, make_extension_field(13, deg))
    E = table.models[0].change_field(emb)
    P = E.random_point(random.Random(seed))
    if not P.y:
        return  # 2-torsion: x(2P) is the point at infinity
    assert x_double(E, P.x) == (P + P).x


# ---------------------------------------------------------------- matrices


def test_level1_matrices_p13():
    for l in (3, 5, 7):
        g = GraphBuilder(13, l).build(1)
        assert g.brandt == ((l + 1,),)
        assert g.n == 1
        assert g.parity_violations == ()


def test_golden_37_5_level1_vs_j_oracle():
    g = GraphBuilder(37, 5).build(1)
    frozen = ((1, 3, 2), (3, 1, 2), (2, 2, 2))
    assert g.brandt == frozen
    oracle = level1_matrix_by_j(37, 5, rng_seed=24601)
    assert tuple(tuple(r) for r in oracle) == frozen
    # spectral cross-check: eigenvalues must be {6, 0, -2}
    M = [list(r) for r in frozen]
    tr = sum(M[i][i] for i in range(3))
    det = (
        M[0][0] * (M[1][1] * M[2][2] - M[1][2] * M[2][1])
        - M[0][1] * (M[1][0] * M[2][2] - M[1][2] * M[2][0])
        + M[0][2] * (M[1][0] * M[2][1] - M[1][1] * M[2][0])
    )
    assert tr == 4 and det == 0
    assert g.parity_violations == (0, 1)


def test_level1_matrices_vs_j_oracle_more():
    for p, l in ((37, 3), (37, 7), (61, 5)):
        g = GraphBuilder(p, l).build(1)
        oracle = level1_matrix_by_j(p, l, rng_seed=555)
        assert g.brandt == tuple(tuple(r) for r in oracle)


def test_golden_61_7_level1():
    g = GraphBuilder(61, 7).build(1)
    assert g.brandt == (
        (0, 1, 2, 2, 3),
        (1, 1, 2, 2, 2),
        (2, 2, 2, 1, 1),
        (2, 2, 1, 2, 1),
        (3, 2, 1, 1, 1),
    )
    assert g.parity_violations == (1, 4)


def test_golden_13_5_level2_vs_independent_route():
    g = GraphBuilder(13, 5).build(2)
    frozen = ((0, 3, 3), (3, 1, 2), (3, 2, 1))
    assert g.brandt == frozen
    oracle = level2_matrix_13_5(rng_seed=31337)
    assert tuple(tuple(r) for r in oracle) == frozen
    assert g.parity_violations == (1, 2)


def test_level3_13_5_structure():
    g = GraphBuilder(13, 5).build(3)
    assert g.brandt == (
        (1, 3, 2, 0),
        (3, 1, 0, 2),
        (2, 0, 3, 1),
        (0, 2, 1, 3),
    )


# ------------------------------------------------------------ graph object


def test_edge_structure_consistency():
    g = GraphBuilder(13, 7).build(3)
    k = g.degree
    assert g.oriented_edge_count == g.n * k
    assert g.geometric_edge_count * 2 == g.oriented_edge_count
    for eid, de in enumerate(g.edge_dual):
        assert g.edge_dual[de] == eid
        assert g.edge_target[de] == eid // k
        if de == eid:
            assert g.edge_target[eid] == eid // k
    # matrix agrees with edge targets
    count = [[0] * g.n for _ in range(g.n)]
    for eid, w in enumerate(g.edge_target):
        count[eid // k][w] += 1
    assert g.brandt == tuple(tuple(r) for r in count)


def test_edge_involution_guard():
    # mutation: arrow (0, 0) names the wrong kernel of its dual isogeny
    b = GraphBuilder(13, 5)
    ar = b.arrows[0][0]
    b.arrows[0][0] = dataclasses.replace(ar, dual_index=(ar.dual_index + 1) % 6)
    with pytest.raises(GraphBuildError, match="edge involution broken"):
        b.build(1)


def test_edge_targets_out_of_range_are_refused():
    g = GraphBuilder(13, 5).build(2)
    target = (g.n,) + g.edge_target[1:]
    with pytest.raises(GraphBuildError, match="targets below 3"):
        EnhancedGraph(13, 5, 2, 0, g.class_labels, target, g.edge_dual)


def test_vertex_labels():
    b = GraphBuilder(13, 5)
    g1 = b.build(1)
    assert g1.vertex_label(0) == "j=5"
    g2 = b.build(2)
    assert g2.vertex_label(0) == "j=5 C[2:0]"
    g6 = b.build(6)
    assert "C[2:" in g6.vertex_label(5) and "3:" in g6.vertex_label(5)


def test_seed_independence_of_graphs():
    a = GraphBuilder(13, 5, seed=1).build(6)
    b = GraphBuilder(13, 5, seed=99).build(6)
    assert a.brandt == b.brandt
    assert a.vertices == b.vertices
    assert a.edge_target == b.edge_target
    assert a.edge_dual == b.edge_dual
    c = GraphBuilder(37, 5, seed=7).build(2)
    d = GraphBuilder(37, 5, seed=8).build(2)
    assert c.brandt == d.brandt and c.edge_target == d.edge_target


def test_level_sums_refine_coarser_level():
    # summing level-6 multiplicities over each level-2 fiber must
    # reproduce the level-2 matrix row by row
    b = GraphBuilder(13, 5)
    g6, g2 = b.build(6), b.build(2)
    pos2 = g6.primes.index(2)
    proj = [g2.vertices.index((c, (S[pos2],))) for c, S in g6.vertices]
    for vi in range(g6.n):
        sums = [0] * g2.n
        for wi in range(g6.n):
            sums[proj[wi]] += g6.brandt[vi][wi]
        assert sums == list(g2.brandt[proj[vi]])
