"""Level-structure layer: admissibility, subgroup tables, quotient arrows,
and the multiplicity matrices, checked against independently re-derived
values wherever a matrix is frozen."""

import copy
import hashlib
import itertools
import pickle
import random
import time
import types

import pytest
from hypothesis import given, settings, strategies as st

from isograph.cli import load_graph_file, write_graph_file
from isograph.curves import (
    CurveError,
    TorsionBasisError,
    XMap,
    frobenius_orbits,
    isomorphism_scale,
    quadratic_twist,
    subgroup_xs,
    torsion_basis,
    torsion_field,
    velu_quotient,
    x_chain,
    x_ladder,
    x_multiples,
)
from isograph.enhanced import (
    AdmissibilityError,
    EnhancedGraph,
    GraphBuildError,
    GraphBuilder,
    check_admissible,
    sigma1,
    vertex_count,
)
import isograph.enhanced as enhanced_mod
from isograph.fields import Embedding, make_extension_field
from oracles import identity, lift_x, rhs, spread_t, torsion_order_extension
from isograph.supersingular import SupersingularClassTable, build_class_table


# ---------------------------------------------------------------- oracles


def basis_generators(E, r, rng):
    """P and Q + kP, k < r, by the affine law from torsion_basis's x lifted
    to points: one generator of each order-r subgroup."""
    P, Q = (lift_x(E, x) for x in torsion_basis(E, r, rng))
    gens, R = [P], identity(E)
    for _ in range(r):
        gens.append(Q + R)
        R = R + P
    return gens


def level1_matrix_by_j(p, l, rng_seed):
    """Independent multiplicity count using only quotient j-invariants:
    enumerate the l + 1 kernels from a fresh random basis, Velu each one,
    and bucket by target class.  No arrow/pushforward bookkeeping."""
    table = build_class_table(p)
    big = make_extension_field(p, 2 * torsion_order_extension(p, l))
    emb = Embedding(table.field, big)
    rng = random.Random(rng_seed)
    h = table.class_count
    M = [[0] * h for _ in range(h)]
    for ci, model in enumerate(table.models):
        E = model.change_field(emb)
        for G in basis_generators(E, l, rng):
            image, _ = velu_quotient(E, x_multiples(E, G.x, (l - 1) // 2), l)
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
    emb = Embedding(F2, big)
    Ebig = E.change_field(emb)

    two_xs = sorted(
        (x for x in map(F2.element, F2.iter_tuples()) if not rhs(E, x)),
        key=lambda x: x.coeffs,
    )
    assert len(two_xs) == 3
    index = {x.coeffs: i for i, x in enumerate(two_xs)}

    M = [[0] * 3 for _ in range(3)]
    for G in basis_generators(Ebig, l, random.Random(rng_seed)):
        image, xmap = velu_quotient(Ebig, x_multiples(Ebig, G.x, (l - 1) // 2), l)
        from isograph.curves import EllipticCurve

        small = EllipticCurve(emb.descend(image.a), emb.descend(image.b))
        u2 = isomorphism_scale(small, E)
        assert u2 is not None
        for x0, y0 in zip(two_xs, xmap.eval_many([emb(x) for x in two_xs])):
            moved = u2 * emb.descend(y0)
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
    emb = Embedding(table.field, big)
    rng = random.Random(rng_seed)
    half = max(1, (r - 1) // 2)
    out = []
    for model in table.models:
        E = model.change_field(emb)
        gens = basis_generators(E, r, rng)
        out.append(sorted(sorted(x.coeffs for x in x_multiples(E, G.x, half)) for G in gens))
    return out


def push_by_all_points(b, ci, t, r, s):
    """Independent push: map every x-coordinate of the subgroup through the
    lifted x-map and return the unique target slot whose point set is the
    whole image.  The builder pushes one point per subgroup and checks
    whole rows instead, so this is its independent reference."""
    ar = b.arrows[ci][t]
    xmap = ar.xmap.lift(torsion_field(b.p, r).emb)
    image = frozenset(
        x.coeffs for x in xmap.eval_many(b.level_subgroups(r)[ci][s])
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
    with pytest.raises(AdmissibilityError, match="shares the factor 13 with p"):
        check_admissible(13, 5, 13)
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


def test_sigma1_matches_brute_divisor_sum():
    for N in range(1, 201):
        assert sigma1(N) == sum(d for d in range(1, N + 1) if N % d == 0), N
    # 2.3.5...23, squarefree: prod (r + 1), from the factorization alone (a
    # divisor scan would take 2.2e8 steps)
    primorial = 2 * 3 * 5 * 7 * 11 * 13 * 17 * 19 * 23
    assert primorial == 223092870
    start = time.perf_counter()
    assert sigma1(primorial) == 3 * 4 * 6 * 8 * 12 * 14 * 18 * 20 * 24
    assert time.perf_counter() - start < 1.0


# ---------------------------------------------------------------- validation


def test_parity_record_is_the_odd_diagonal(tmp_path):
    # the acceptance grid, built and after a round trip through a cache file
    has_odd = []
    for p, l in itertools.product((13, 37, 61), (3, 5, 7)):
        b = GraphBuilder(p, l)
        for N in (1, 2, 3, 5, 6):
            try:
                built = b.build(N)
            except AdmissibilityError:
                continue
            path = str(tmp_path / f"{p}_{l}_{N}.json")
            write_graph_file(path, built)
            for g in (built, load_graph_file(path)):
                A = g.brandt
                assert g.parity_violations == tuple(i for i in range(g.n) if A[i][i] % 2)
            has_odd.append(bool(built.parity_violations))
    assert len(has_odd) == 36 and any(has_odd) and not all(has_odd)


# --------------------------------------------------------- subgroup tables


def test_two_torsion_slots_are_division_cubic_roots():
    b = GraphBuilder(13, 5)
    slots = b.level_subgroups(2)[0]
    assert len(slots) == 3
    E = b.table.models[0]
    F2 = b.table.field
    roots = sorted(
        (x.coeffs for x in map(F2.element, F2.iter_tuples()) if not rhs(E, x))
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
    js = build_class_table(61).js
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
    sub = torsion_field(p, r).field
    assert sub.modulus == full.modulus[0::2]
    spread = [
        [[full.unpack(spread_t(sub, full, x.raw)) for x in slot] for slot in cls]
        for cls in b.level_subgroups(r)
    ]
    assert spread == full_field_slots(p, r, rng_seed=2718)


def _with_torsion_field(monkeypatch, p, r, **changes):
    """Make the builder see the order-r torsion field of p with `changes`."""
    bad = torsion_field(p, r)._replace(**changes)

    def patched(pp, rr):
        return bad if (pp, rr) == (p, r) else torsion_field(pp, rr)

    monkeypatch.setattr(enhanced_mod, "torsion_field", patched)


@pytest.mark.parametrize("p", [13, 37])
def test_wrong_twist_of_every_class_fails_loudly(p):
    # mutation: every class model replaced by its quadratic twist, on which
    # Frobenius acts as +p.  Only x are seen after the basis, and [p] and
    # [-p] agree on them: at (13, 5, 1) and (37, 5, 1) the graph would
    # build, with the right Brandt matrix and other edges, unless the
    # class table's F_{p^2} guard refuses the models when it is made
    table = build_class_table(p)
    twisted = tuple(quadratic_twist(m) for m in table.models)
    with pytest.raises(CurveError, match="does not kill"):
        SupersingularClassTable(p, table.field, table.js, twisted)


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


def _orbit_reps_oracle(p, r):
    """Least member of each orbit of m -> p m on the +-classes of (Z/r)^x,
    with the orbit length, from the classes as sets."""
    orbits = set()
    for m in range(1, r):
        orbit, c = set(), frozenset({m, r - m})
        while c not in orbit:
            orbit.add(c)
            c = frozenset(p * x % r for x in c)
        orbits.add(frozenset(orbit))
    lengths = {len(o) for o in orbits}
    assert len(lengths) == 1  # cosets of <p>: one length
    return tuple(sorted(min(min(c) for c in o) for o in orbits)), lengths.pop()


# (p, r): number of representatives and orbit length o, out of (r - 1)/2
# x per slot; ROADMAP item 2's table of the workload pairs
ORBIT_TABLE = {
    (13, 37): (1, 18), (61, 37): (1, 18), (37, 13): (1, 6),
    (37, 7): (1, 3), (61, 7): (1, 3), (13, 5): (1, 2), (37, 5): (1, 2),
    (61, 13): (2, 3), (37, 61): (3, 10), (13, 61): (10, 3), (61, 5): (2, 1),
}


@pytest.mark.parametrize("p,r", sorted(ORBIT_TABLE))
def test_frobenius_orbits_match_the_workload_table(p, r):
    reps, o = frobenius_orbits(p, r)
    assert (len(reps), o) == ORBIT_TABLE[p, r]
    assert (reps, o) == _orbit_reps_oracle(p, r)
    assert reps[0] == 1 and len(reps) * o == (r - 1) // 2


def _lifted_basis(p, r):
    """Class 0's model lifted to the order-r torsion field, with the x of
    a torsion_basis on it."""
    tf = torsion_field(p, r)
    M = build_class_table(p).models[0].change_field(tf.emb)
    return tf, M, torsion_basis(M, r, random.Random(r), tf.delta)


@pytest.mark.parametrize("p,r", sorted(ORBIT_TABLE))
def test_torsion_x_live_on_the_lifted_model(p, r):
    # the basis is drawn on the twist by delta but returned on M: each x has
    # order r under M's x-only law, the p^2-power Frobenius is [-p] on it
    # with no correction, and with delta set its cubic on M is a non-zero
    # non-square (the point lies on M over the quadratic extension only)
    tf, M, xs = _lifted_basis(p, r)
    F, h = tf.field, (r - 1) // 2
    for x in xs:
        chain = x_chain(M, x, h + 1)
        (Xh, Zh), (Xh1, Zh1) = chain[-2:]
        assert all(Z for _, Z in chain) and F.mul_t(Xh, Zh1) == F.mul_t(Xh1, Zh)
        X, Z = x_ladder(M, x, -p % r)
        assert F.mul_t(F.pow_t(x.raw, p * p), Z) == X
        cubic = rhs(M, x).raw
        assert cubic and F.is_square_t(cubic) == (tf.delta is None)


@pytest.mark.parametrize("p,r", sorted(ORBIT_TABLE))
def test_basis_independence_set_is_the_subgroup(p, r):
    # torsion_basis tests Q against the x of <P> that subgroup_xs walks from
    # P's Frobenius orbits on M: the same set as x_multiples' (r - 1)/2
    # multiples, each x once
    tf, M, (xP, _) = _lifted_basis(p, r)
    orbits = subgroup_xs(M, xP, tf.reps, tf.orbit)
    assert sorted(orbits) == sorted(x.raw for x in x_multiples(M, xP, (r - 1) // 2))


def test_frobenius_orbits_of_two_and_three():
    for p in (13, 37, 61):
        assert frobenius_orbits(p, 2) == frobenius_orbits(p, 3) == ((1,), 1)


@pytest.mark.parametrize("p,r", [(13, 61), (61, 13), (61, 5)])
def test_orbit_filled_slots_match_full_field_oracle(p, r):
    # several representatives per slot, with (61, 13) and (61, 5) on the
    # half field and (13, 61) on the full F_{13^6}
    b = GraphBuilder(p, 7 if r == 5 else 5)
    full = make_extension_field(p, 2 * torsion_order_extension(p, r))
    sub = torsion_field(p, r).field
    lift = (lambda t: t) if sub is full else (lambda t: spread_t(sub, full, t))
    assert len(frobenius_orbits(p, r)[0]) > 1
    spread = [
        [[full.unpack(lift(x.raw)) for x in slot] for slot in cls]
        for cls in b.level_subgroups(r)
    ]
    assert spread == full_field_slots(p, r, rng_seed=2718)


def _with_wrong_frobenius_constant(monkeypatch, addend):
    """F_1 = x^(p^2) plus `addend` in the order-37 field of p = 13, seen by
    the slot fill only: torsion_basis, whose Frobenius check would refuse
    it first, keeps the honest constants."""
    f = torsion_field(13, 37).field
    honest = f._frob
    bad = (honest[0], f.add_t(honest[1], addend)) + honest[2:]
    monkeypatch.setattr(f, "_frob", bad)
    basis = enhanced_mod.torsion_basis

    def honest_basis(*args, **kwargs):
        f._frob = honest
        try:
            return basis(*args, **kwargs)
        finally:
            f._frob = bad

    monkeypatch.setattr(enhanced_mod, "torsion_basis", honest_basis)


def test_orbit_guard_fires_on_wrong_frobenius_constant(monkeypatch):
    # mutation: plus x on F_1 breaks every orbit of the slot fill
    _with_wrong_frobenius_constant(monkeypatch, torsion_field(13, 37).field.gen.raw)
    with pytest.raises(CurveError, match="does not close after 18 steps"):
        GraphBuilder(13, 5).level_subgroups(37)


def test_push_guard_catches_what_the_orbit_guard_lets_through(monkeypatch):
    # mutation: plus 1 on F_1 passes the orbit guard (over a whole orbit it
    # adds the x coefficient of a trace to F_{p^2}, which is 0 in this
    # field), so the slots hold wrong x; the pushes, which look the image
    # of each slot's least x up in the target table, must refuse the graph
    _with_wrong_frobenius_constant(monkeypatch, 1)
    b = GraphBuilder(13, 5)
    b.level_subgroups(37)
    with pytest.raises(
        GraphBuildError,
        match=r"pushed subgroup of arrow \(0,0\) at r=37 missed the table",
    ):
        b.build(37)


def test_slot_guard_fires_on_wrong_orbit_length(monkeypatch):
    # mutation: twice the orbit length still closes each orbit, but lists
    # every x twice
    _with_torsion_field(monkeypatch, 13, 37, orbit=2 * torsion_field(13, 37).orbit)
    with pytest.raises(GraphBuildError, match="18 distinct x of 36, not 18"):
        GraphBuilder(13, 5).level_subgroups(37)


def test_repeated_subgroup_guard_fires_on_one_slot_for_every_generator(monkeypatch):
    # mutation: every generator of a class given the slot of its first, so
    # each slot passes the orbit and count guards but the r + 1 repeat
    honest = enhanced_mod.subgroup_xs
    first = {}

    def first_slot(curve, x, reps, o):
        return honest(curve, first.setdefault(id(curve), x), reps, o)

    monkeypatch.setattr(enhanced_mod, "subgroup_xs", first_slot)
    with pytest.raises(GraphBuildError, match="repeated order-7 subgroup at class 0"):
        GraphBuilder(13, 5).level_subgroups(7)


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
    # every arrow's target, x-map coefficients onto the target model and
    # dual index, on half-degree and full torsion fields; the cache files
    # and the reference certificates pin none of the x-maps
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
                    tuple(c.coeffs for c in ar.xmap.num),
                    tuple(c.coeffs for c in ar.xmap.den),
                    ar.dual_index,
                )
                h.update(repr(rec).encode())
    assert h.hexdigest() == (
        "7a00ea0388464602c79c09e150937ac74691dd29ad6430307e89427cecd115af"
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


def _patch_arrow(b, wrap):
    """Replace arrow (0, 0) of builder b by one whose x-map lifts to
    wrap(lifted x-map)."""
    ar = b.arrows[0][0]
    fake = types.SimpleNamespace(lift=lambda emb: wrap(ar.xmap.lift(emb)))
    b.arrows[0][0] = ar._replace(xmap=fake)


def test_push_guard_image_outside_table():
    b = GraphBuilder(13, 5)

    def perturb(xmap):
        num = list(xmap.num)
        num[0] = num[0] + 1
        return XMap(num, xmap.den)

    _patch_arrow(b, perturb)
    with pytest.raises(GraphBuildError, match="missed the table"):
        b.push_subgroup(0, 0, 3, 0)


def test_push_guard_not_a_bijection():
    b = GraphBuilder(13, 5)
    target = b.arrows[0][0].target
    x_hit = b.level_subgroups(3)[target][1][0]
    _patch_arrow(b, lambda xmap: XMap([x_hit], [x_hit.field.one]))
    with pytest.raises(GraphBuildError, match="not a bijection"):
        b.push_subgroup(0, 0, 3, 0)


def test_push_guard_doubling():
    # swap y0 = x(phi(P)) with x(2 phi(P)) on the target: each subgroup
    # still lands on its own slot, so only the doubling guard can see it
    b = GraphBuilder(13, 5)
    r = 7
    emb = torsion_field(b.p, r).emb
    tgt = b.table.models[b.arrows[0][0].target]
    x0 = b.level_subgroups(r)[0][0][0]

    class Swapped:
        def __init__(self, xmap):
            self.xmap = xmap
            (y0,) = xmap.eval_many([x0])
            y1 = x_multiples(tgt.change_field(emb), y0, 2)[1]
            self.swap = {y0.coeffs: y1, y1.coeffs: y0}

        def eval_many(self, xs):
            return [self.swap.get(v.coeffs, v) for v in self.xmap.eval_many(xs)]

    _patch_arrow(b, Swapped)
    with pytest.raises(GraphBuildError, match="doubling"):
        b.push_subgroup(0, 0, r, 0)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32), deg=st.sampled_from([2, 4, 8]))
def test_x_only_doubling_matches_point_addition(seed, deg):
    table = build_class_table(13)
    emb = Embedding(table.field, make_extension_field(13, deg))
    E = table.models[0].change_field(emb)
    P = lift_x(E, E.random_point(random.Random(seed)))
    if not P.y:
        return  # 2-torsion: x(2P) is the point at infinity
    assert x_multiples(E, P.x, 2)[1] == (P + P).x


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
    b.arrows[0][0] = ar._replace(dual_index=(ar.dual_index + 1) % 6)
    with pytest.raises(GraphBuildError, match="edge involution broken"):
        b.build(1)


def test_edge_targets_out_of_range_are_refused():
    g = GraphBuilder(13, 5).build(2)
    target = (g.n,) + g.edge_target[1:]
    with pytest.raises(GraphBuildError, match="targets below 3"):
        EnhancedGraph(13, 5, 2, 0, g.class_labels, target, g.edge_dual)


def test_enhanced_graph_is_read_only():
    g = GraphBuilder(13, 5).build(2)
    for name in ("p", "seed", "edge_target", "brandt", "parity_violations", "n"):
        with pytest.raises(AttributeError, match="read-only"):
            setattr(g, name, getattr(g, name))
        with pytest.raises(AttributeError, match="read-only"):
            delattr(g, name)
    with pytest.raises(AttributeError):
        g.extra = 1
    # running the constructor again on a graph would overwrite it
    with pytest.raises(AttributeError, match="read-only"):
        g.__init__(13, 5, 2, 1, g.class_labels, g.edge_target, g.edge_dual)
    assert g.seed == 0


def test_enhanced_graph_equality_and_hash_follow_defining_fields():
    g = GraphBuilder(13, 5).build(2)
    twin = EnhancedGraph(13, 5, 2, 0, g.class_labels, g.edge_target, g.edge_dual)
    assert twin is not g and twin.brandt is not g.brandt
    assert twin == g and hash(twin) == hash(g) and {g: 1}[twin] == 1
    m = g.oriented_edge_count
    loops = (tuple(e // 6 for e in range(m)), tuple(e ^ 1 for e in range(m)))
    others = [
        EnhancedGraph(13, 5, 2, 1, g.class_labels, g.edge_target, g.edge_dual),
        EnhancedGraph(13, 5, 2, 0, ("1",), g.edge_target, g.edge_dual),
        EnhancedGraph(13, 5, 2, 0, g.class_labels, *loops),
    ]
    for other in others:
        assert other != g
    assert g != (13, 5, 2, 0, g.class_labels, g.edge_target, g.edge_dual)


def test_enhanced_graph_copies_run_the_check(monkeypatch):
    g = GraphBuilder(13, 5).build(2)
    assert pickle.loads(pickle.dumps(g)) == g
    assert copy.deepcopy(g) == g

    # mutation: a check that refuses every graph
    def refuse(p, l, N):
        raise AdmissibilityError("refused")

    monkeypatch.setattr(enhanced_mod, "check_admissible", refuse)
    for clone in (copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))):
        with pytest.raises(AdmissibilityError, match="refused"):
            clone(g)


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
