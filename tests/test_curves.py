import itertools
import random
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isograph.curves import (
    CurveError,
    EllipticCurve,
    ExcludedJInvariant,
    XMapPole,
    _x_dadd_t,
    _x_dbl_t,
    curve_from_j,
    frobenius_orbits,
    isomorphism_scale,
    quadratic_twist,
    torsion_basis,
    torsion_field,
    twist_to_scalar_frobenius,
    velu_quotient,
    x_add,
    x_affine,
    x_chain,
    x_ladder,
    x_multiples,
)
import isograph.curves as curves_mod
from isograph.fields import Embedding, FieldElement, make_extension_field
from isograph.supersingular import SupersingularClassTable, build_class_table
from oracles import (
    Point,
    element,
    identity,
    lift_x,
    on_curve_point,
    rhs,
    spread_t,
    sqrt,
    torsion_order_extension,
    unspread_t,
    velu_sum,
    x_matches,
)

F13 = make_extension_field(13, 1)
F169 = make_extension_field(13, 2)
F13_4 = make_extension_field(13, 4)


def curve_47(field):
    return EllipticCurve(element(field, 4), element(field, 7))


def brute_order(curve):
    """Independent oracle: point count by scanning every x and applying the
    Euler criterion to the cubic's value."""
    f = curve.field
    at, bt = curve.a.raw, curve.b.raw
    n = 1  # identity
    for xt in map(f.pack, f.iter_tuples()):
        r = f.add_t(f.mul_t(f.add_t(f.mul_t(xt, xt), at), xt), bt)
        if not r:
            n += 1
        elif f.is_square_t(r):
            n += 2
    return n


def test_curve_from_j_frozen_model():
    # k = 5/(1728-5) = 5/7 = 10 in F_13, so (a, b) = (3k, 2k) = (4, 7)
    E = curve_from_j(element(F13, 5))
    assert E.a == 4 and E.b == 7
    assert E.j_invariant() == 5


def test_curve_from_j_round_trips():
    for j in (2, 3, 5, 9, 11):
        E = curve_from_j(element(F169, j))
        assert E.j_invariant() == j


def test_curve_from_j_excluded():
    with pytest.raises(ExcludedJInvariant):
        curve_from_j(element(F13, 0))
    with pytest.raises(ExcludedJInvariant):
        curve_from_j(element(F13, 1728 % 13))


def test_curve_refuses_mixed_fields():
    # without the guard the discriminant's sum raises FieldMismatch instead
    for a, b in ((element(F13, 4), element(F169, 7)), (element(F169, 4), element(F13_4, 7))):
        with pytest.raises(CurveError, match="coefficients from different fields"):
            EllipticCurve(a, b)


def test_curve_refuses_a_singular_cubic():
    # x^3 - 3x + 2 = (x - 1)^2 (x + 2): 4(-3)^3 + 27 * 2^2 = 0
    for f in (F13, F169):
        with pytest.raises(CurveError, match="singular curve"):
            EllipticCurve(element(f, -3 % 13), element(f, 2))


def test_point_validation():
    E = curve_47(F13)
    with pytest.raises(CurveError):
        on_curve_point(E, 0, 0)
    P = on_curve_point(E, 1, 5)  # 5^2 = 25 = 12 = 1 + 4 + 7 mod 13
    assert not P.is_identity()


def random_points(E, rng, n):
    """n points from random_point's x, each lifted with the oracle."""
    return [lift_x(E, E.random_point(rng)) for _ in range(n)]


def basis_points(E, r, seed):
    """torsion_basis's x(P), x(Q), lifted to oracle points."""
    xs = torsion_basis(E, r, random.Random(seed))[:2]
    return [lift_x(E, FieldElement(E.field, x)) for x in xs]


def test_group_law_axioms():
    # the oracle's law, and x_ladder's doubling against it
    E = curve_47(F169)
    rng = random.Random(7)
    O = identity(E)
    for _ in range(25):
        P, Q, R = random_points(E, rng, 3)
        assert P + Q == Q + P
        assert (P + Q) + R == P + (Q + R)
        assert P + O == P
        assert P + (-P) == O
        assert x_matches(E, x_ladder(E, P.x.raw, 2), P + P)


def test_addition_matches_affine_oracle():
    # x_add is x(Q + P) or x(Q - P), and x_ladder's doubling and
    # differential addition agree with the affine law, 2-torsion included
    E = curve_47(F169)
    rng = random.Random(13)
    xs = [element(F169, t) for t in F169.iter_tuples()]
    two_torsion = [Point(E, x, element(F169, 0)) for x in xs if not rhs(E, x)]
    assert len(two_torsion) == 3  # E(F_169) = (Z/14)^2
    for _ in range(25):
        P, Q = random_points(E, rng, 2)
        if P.x != Q.x:
            assert x_add(E, P.x.raw, Q.x.raw) in ((Q + P).x.raw, (Q - P).x.raw)
        assert x_matches(E, x_ladder(E, P.x.raw, 3), P + P + P)
    for T in two_torsion:
        assert (T + T).is_identity()
        assert not x_ladder(E, T.x.raw, 2)[1]
    # the third point of order 2, a double root
    T, U, V = two_torsion
    assert x_add(E, T.x.raw, U.x.raw) == V.x.raw


def test_x_formulas_match_affine_oracle_on_rescaled_pairs():
    # _x_dbl_t(A) and _x_dadd_t(A, B, D = A - B) against the affine law,
    # each input (X : Z) = (lambda x : lambda) for a random lambda != 0, 1,
    # or affine; every pattern of affine and projective A, B and D, the
    # all-projective B and D that neither the ladder nor the chain passes
    # included, and A = -B, whose sum is the identity
    rng = random.Random(29)
    for field in (F169, F13_4):
        E = curve_47(field)

        def pair(P, scaled):
            if not scaled:
                return (P.x.raw, 1)
            lam = 0
            while lam in (0, 1):
                lam = field.random_t(rng)
            return (field.mul_t(P.x.raw, lam), lam)

        for _ in range(8):
            A, B = random_points(E, rng, 2)
            if A.x == B.x:
                continue
            for sa in (False, True):
                assert x_matches(E, _x_dbl_t(E, pair(A, sa)), A + A)
            for sa, sb, sd in itertools.product((False, True), repeat=3):
                out = _x_dadd_t(E, pair(A, sa), pair(B, sb), pair(A - B, sd))
                assert x_matches(E, out, A + B), (sa, sb, sd)
                out = _x_dadd_t(E, pair(-B, sa), pair(B, sb), pair(-B - B, sd))
                assert x_matches(E, out, identity(E)), (sa, sb, sd)
    # 2A = O at a point of order 2, from either representation
    E = curve_47(F169)
    T = next(x for x in map(partial(element, F169), F169.iter_tuples()) if not rhs(E, x))
    assert not _x_dbl_t(E, (T.raw, 1))[1]
    assert not _x_dbl_t(E, (F169.mul_t(T.raw, 5), 5))[1]


def test_x_chain_start_pair_matches_affine_translates():
    # from (x(Q), x(Q + P)) the chain gives x(Q + kP), k < r: every
    # generator of an order-r subgroup other than <P>
    for field, r in ((F169, 2), (F13_4, 3), (F169, 7)):
        E = curve_47(field)
        P, Q = basis_points(E, r, 4)
        xs = x_affine(field, x_chain(E, P.x.raw, r, (Q.x.raw, (Q + P).x.raw)))
        R = Q
        for x in xs:
            assert x == R.x.raw
            R = R + P
        assert len(set(xs) | {P.x.raw}) == r + 1
    E = curve_47(F169)
    P, _ = basis_points(E, 7, 4)
    with pytest.raises(CurveError, match="identity"):
        x_affine(F169, x_chain(E, P.x.raw, 7, (P.x.raw, (P + P).x.raw)))  # P + 6P = 7P = O


def test_x_affine_inverts_only_the_z_that_are_not_one(monkeypatch):
    # an all-affine chain makes no inversion, a mixed chain inverts only its
    # Z != 1, in one batch, and every x is X/Z; Z = 0 still raises
    rng = random.Random(31)
    field = F13_4
    xs = [field.random_t(rng) for _ in range(6)]
    zs = [field.random_t(rng) or 2 for _ in range(3)]
    mixed = [(xs[0], 1), (xs[1], zs[0]), (xs[2], 1), (xs[3], zs[1]), (xs[4], zs[2])]
    expected = [field.mul_t(X, field.inv_t(Z)) for X, Z in mixed]
    batches, inversions = [], []
    batch_inv_t, inv_t = field.batch_inv_t, field.inv_t
    monkeypatch.setattr(field, "batch_inv_t", lambda items: batches.append(items) or batch_inv_t(items))
    monkeypatch.setattr(field, "inv_t", lambda a: inversions.append(a) or inv_t(a))
    assert x_affine(field, [(x, 1) for x in xs]) == xs
    assert inversions == [] and batches in ([], [[]])
    batches.clear()
    assert x_affine(field, mixed) == expected
    assert batches == [zs] and len(inversions) == 1
    with pytest.raises(CurveError, match="identity"):
        x_affine(field, [(xs[0], 1), (xs[1], 0)])


def test_scalar_mul_matches_repeated_addition():
    # x_ladder against n-fold addition, past the point's order, where Z = 0
    E = curve_47(F169)
    (P,) = random_points(E, random.Random(11), 1)
    acc = identity(E)
    orders = []
    for n in range(30):
        assert x_matches(E, x_ladder(E, P.x.raw, n), acc)
        assert n * P == acc and -n * P == -acc
        if n and acc.is_identity():
            orders.append(n)
        acc = acc + P
    assert orders and not x_ladder(E, P.x.raw, orders[0])[1]


@settings(max_examples=60, deadline=None)
@given(st.integers(-60, 60), st.integers(-60, 60))
def test_scalar_mul_distributive(m, n):
    # x([m + n]P) = x([m]P + [n]P), the ladder against the oracle's n*P
    E = curve_47(F169)
    (P,) = random_points(E, random.Random(3), 1)
    assert x_matches(E, x_ladder(E, P.x.raw, abs(m + n)), m * P + n * P)


def test_brute_force_orders():
    # j = 5 is supersingular for p = 13: trace 0 over F_13, (p+1)^2 over F_13^2
    assert brute_order(curve_47(F13)) == 14
    E = curve_47(F169)
    assert brute_order(E) == 196
    assert brute_order(quadratic_twist(E)) == 144  # (p-1)^2
    rng = random.Random(5)
    for _ in range(5):
        assert not x_ladder(E, E.random_point(rng).raw, 196)[1]


def test_twist_to_scalar_frobenius():
    E = curve_47(F169)
    assert twist_to_scalar_frobenius(E) is E
    fixed = twist_to_scalar_frobenius(quadratic_twist(E))
    assert brute_order(fixed) == 196
    with pytest.raises(CurveError, match="not supersingular"):
        twist_to_scalar_frobenius(curve_from_j(element(F169, 3)))  # ordinary j


def test_twist_choice_refuses_a_curve_off_f_p2():
    # without the guard each is refused as not supersingular instead: over
    # F_13 p + 1 kills the drawn point on both twists, over F_{13^4} on neither
    for f in (F13, F13_4):
        with pytest.raises(CurveError, match=r"normalization works over F_\{p\^2\}"):
            twist_to_scalar_frobenius(curve_47(f))


def test_twist_choice_refuses_two_passing_candidates(monkeypatch):
    # mutation: p + 1 kills the drawn point on both twists, which no
    # supersingular pair allows; the choice must not fall to the first
    monkeypatch.setattr(curves_mod, "x_ladder", lambda curve, x, n: (1, 0))
    with pytest.raises(CurveError, match="on 2 of 2 twists.*not supersingular"):
        twist_to_scalar_frobenius(curve_47(F169))


def test_twist_choice_refuses_an_ordinary_curve_passing_p_plus_1():
    # j = 8 + 8g over F_{13^2} is ordinary, and p + 1 kills the drawn
    # point of exactly one twist, so only p - 1 on the other refuses it
    E = curve_from_j(FieldElement(F169, F169.pack((8, 8))))
    assert brute_order(E) not in (12**2, 14**2)
    seed = curves_mod._derive_seed(13, E.a.coeffs, E.b.coeffs)
    points = []
    for cand in (E, quadratic_twist(E)):
        rng = random.Random(seed)
        x = cand.random_point(rng)
        while not rhs(cand, x):
            x = cand.random_point(rng)
        points.append(lift_x(cand, x))
    assert [(14 * P).is_identity() for P in points].count(True) == 1
    with pytest.raises(CurveError, match="on 1 of 2 twists.*not supersingular"):
        twist_to_scalar_frobenius(E)


def test_torsion_order_extension():
    # brute-check the oracle's minimality against the group order formula,
    # and torsion_field, which reads k off the Frobenius orbits, against it:
    # degree 2k untwisted, k on the twist
    for p, r in [(13, 2), (13, 3), (13, 5), (13, 7), (37, 61), (61, 37), (13, 37)]:
        k = torsion_order_extension(p, r)
        assert abs((-p) ** k - 1) % r == 0
        for kk in range(1, k):
            assert abs((-p) ** kk - 1) % r != 0
        tf = torsion_field(p, r)
        assert (tf.r, tf.reps, tf.orbit) == (r, *frobenius_orbits(p, r))
        assert tf.field.deg == (2 * k if tf.delta is None else k)
    assert torsion_order_extension(13, 7) == 1
    assert torsion_order_extension(13, 5) == 4
    assert torsion_order_extension(37, 61) == 20
    assert torsion_order_extension(61, 37) == 36
    assert torsion_order_extension(13, 37) == 36


@pytest.mark.parametrize("r", [13, 26])
def test_torsion_order_extension_refuses_non_unit(r):
    # -p is not a unit mod r, so no power of it is 1: refused, not looped on
    with pytest.raises(CurveError, match="not a unit"):
        torsion_order_extension(13, r)
    with pytest.raises(CurveError, match="not a unit"):
        frobenius_orbits(13, r)
    with pytest.raises(CurveError, match="not a unit"):
        torsion_field(13, r)


def span_size(P, Q, r):
    """Oracle: number of distinct points i*P + j*Q."""
    seen = set()
    for i in range(r):
        for j in range(r):
            T = i * P + j * Q
            seen.add(None if T.is_identity() else (T.x.coeffs, T.y.coeffs))
    return len(seen)


def test_torsion_basis_r7_spans_full_group():
    # E[7] is rational over F_13^2 already: 7 | 13 + 1
    E = curve_47(F169)
    P, Q = basis_points(E, 7, 1)
    assert (7 * P).is_identity() and not P.is_identity()
    assert span_size(P, Q, 7) == 49


def test_torsion_basis_r3_frobenius_action():
    E = curve_47(F13_4)
    P, Q = basis_points(E, 3, 2)
    assert span_size(P, Q, 3) == 9
    # Frobenius x -> x^(13^2) must act as the scalar -13 = 2 mod 3
    f = F13_4
    e2 = 13 * 13
    img = Point(
        E,
        FieldElement(f, f.pow_t(P.x.raw, e2)),
        FieldElement(f, f.pow_t(P.y.raw, e2)),
    )
    assert img == 2 * P


def test_torsion_basis_r2():
    E = curve_47(F169)
    P, Q = basis_points(E, 2, 3)
    assert P.y == 0 and Q.y == 0 and P.x != Q.x
    assert span_size(P, Q, 2) == 4


def test_torsion_basis_missing_torsion():
    with pytest.raises(CurveError, match="not rational"):
        torsion_basis(curve_47(F13_4), 11, random.Random(0))


def test_torsion_basis_refuses_an_odd_degree_field():
    # the cofactor is read off (-p)^k with k half the degree; over F_13 or
    # F_{13^3} there is no such k
    for field in (F13, make_extension_field(13, 3)):
        with pytest.raises(CurveError, match="even-degree extension"):
            torsion_basis(curve_47(field), 7, random.Random(0))


def test_torsion_basis_on_twist_over_half_field():
    # (-13)^2 = -1 mod 5: E[5] has its x-coordinates in F_{13^4}, and its
    # points on the twist by the non-square y of that field; torsion_basis
    # returns them on the lifted model M, where x(P) is y times smaller
    tf = torsion_field(13, 5)
    assert tf.field.deg == 4 and tf.delta is not None
    M = curve_47(F169).change_field(tf.emb)
    twist = quadratic_twist(M, tf.delta)
    xs = torsion_basis(M, 5, random.Random(21), tf.delta)[:2]
    P, Q = (lift_x(twist, FieldElement(tf.field, x) * tf.delta) for x in xs)
    assert span_size(P, Q, 5) == 25
    with pytest.raises(CurveError, match="not rational"):
        torsion_basis(M, 5, random.Random(21))
    with pytest.raises(CurveError, match="not rational"):
        torsion_basis(curve_47(F169), 7, random.Random(21), delta=F169.gen)


def test_subfield_error_is_not_taken_for_an_odd_modulus(monkeypatch):
    # only an odd modulus sends torsion_field to the full field; an error
    # from building the half-degree field (a refused fold plan, say)
    # propagates.  F_{13^8} is cached, so the subfield is the one Field built
    make_extension_field(13, 8)

    def refused(p, modulus):
        raise ValueError("subfield refused")

    monkeypatch.setattr(curves_mod, "Field", refused)
    with pytest.raises(ValueError, match="subfield refused"):
        torsion_field.__wrapped__(13, 5)


def test_frobenius_guard_fires_on_wrong_twist():
    # the other F_{p^2}-twist has Frobenius +p: over F_{13^4} its 3-torsion
    # is rational too, and on the x-line pi(P) = [p]P = -[-p]P looks right,
    # so torsion_basis accepts it; the class table's F_{p^2} guard must not
    wrong = quadratic_twist(curve_47(F169))
    torsion_basis(wrong.change_field(Embedding(F169, F13_4)), 3, random.Random(22))
    # and on the lifted model M over the half field F_{13^4} of F_{13^8},
    # drawn on the twist by delta: E[5] is rational there as well
    tf = torsion_field(13, 5)
    torsion_basis(wrong.change_field(tf.emb), 5, random.Random(23), tf.delta)
    table = build_class_table(13)
    with pytest.raises(CurveError, match="does not kill.*Frobenius"):
        SupersingularClassTable(13, table.field, table.js, (wrong,))


def test_frobenius_check_fires_on_wrong_frobenius_map(monkeypatch):
    # mutation: x^(p^2) read with 1 added to F_1 = x^(p^2), so a sampled x
    # no longer satisfies x^(p^2) = x([-p]P) = x([2]P) on E[5] over
    # F_{13^4}, on the lifted model; the x-only check must refuse it
    tf = torsion_field(13, 5)
    F = tf.field
    honest = F._frob
    monkeypatch.setattr(F, "_frob", (honest[0], F.add_t(honest[1], 1)) + honest[2:])
    M = curve_47(F169).change_field(tf.emb)
    with pytest.raises(CurveError, match="Frobenius does not act as -p"):
        torsion_basis(M, 5, random.Random(21), tf.delta)


def velu_xs(E, x, r):
    """The x-list velu_quotient takes for the kernel <G>, x = x(G)."""
    return x_multiples(E, x, (r - 1) // 2)


def test_half_field_velu_matches_full_field_velu():
    # Velu over F_{13^4} from the kernel's x-coordinates, which lie there
    # while the points do not, equals Velu over F_{13^8} from a rational
    # kernel point coefficient for coefficient
    tf = torsion_field(13, 5)
    full = make_extension_field(13, 8)
    assert tf.field.modulus == full.modulus[0::2]
    E_full = curve_47(F169).change_field(Embedding(F169, full))
    xP, _, _ = torsion_basis(E_full, 5, random.Random(24))
    xs_full = x_multiples(E_full, xP, 2)
    image, xmap = velu_quotient(E_full, xs_full, 5)

    E = curve_47(F169).change_field(tf.emb)
    xs = [unspread_t(tf.field, full, x) for x in xs_full]
    assert not any(tf.field.is_square_t(rhs(E, FieldElement(tf.field, x)).raw) for x in xs)
    image_h, xmap_h = velu_quotient(E, xs, 5)

    def spread(cs):
        return [spread_t(tf.field, full, c) for c in cs]

    assert spread([image_h.a.raw, image_h.b.raw]) == [image.a.raw, image.b.raw]
    assert spread(xmap_h.num) == list(xmap.num)
    assert spread(xmap_h.den) == list(xmap.den)


def test_x_multiples_vs_scalar_mul():
    E = curve_47(F169)
    rng = random.Random(9)
    for P in random_points(E, rng, 5):
        xs = x_multiples(E, P.x.raw, 10)
        for i, x in enumerate(xs, start=1):
            assert x == (i * P).x.raw
            assert x_matches(E, x_ladder(E, P.x.raw, i), i * P)
    # x([2]T) for a 2-torsion x is the identity
    T = next(x for x in map(partial(element, F169), F169.iter_tuples()) if not rhs(E, x))
    with pytest.raises(CurveError, match="identity"):
        x_multiples(E, T.raw, 2)


def test_x_multiples_rejects_count_at_order():
    E = curve_47(F169)
    xP, _, _ = torsion_basis(E, 7, random.Random(4))
    assert len(x_multiples(E, xP, 6)) == 6
    with pytest.raises(CurveError, match="order"):
        x_multiples(E, xP, 7)


def test_x_chain_vs_scalar_mul():
    E = curve_47(F169)
    rng = random.Random(17)
    for P in random_points(E, rng, 5):
        chain = x_chain(E, P.x.raw, 10)
        for k, XZ in enumerate(chain, start=1):
            assert x_matches(E, XZ, k * P)
    # the first Z = 0 is the first multiple that is the identity
    xP, _, _ = torsion_basis(E, 7, random.Random(4))
    zs = [Z for _, Z in x_chain(E, xP, 7)]
    assert all(zs[:6]) and not zs[6]


# classical degree-3 modular polynomial, used as an independent oracle
def phi3(x, y):
    return (
        x**4
        + y**4
        - x**3 * y**3
        + 2232 * (x**3 * y**2 + x**2 * y**3)
        - 1069956 * (x**3 * y + x * y**3)
        + 36864000 * (x**3 + y**3)
        + 2587918086 * x**2 * y**2
        + 8900222976000 * (x**2 * y + x * y**2)
        + 452984832000000 * (x**2 + y**2)
        - 770845966336000000 * x * y
        + 1855425871872000000000 * (x + y)
    )


def test_velu_satisfies_modular_polynomial():
    E = curve_47(F13_4)
    j = E.j_invariant()
    P, Q = basis_points(E, 3, 6)
    images = set()
    for G in (P, Q, Q + P, Q + P + P):
        image, _ = velu_quotient(E, [G.x.raw], 3)
        j2 = image.j_invariant()
        assert not phi3(j, j2)
        images.add(j2.coeffs)
    # p = 13 has a single supersingular class, so every neighbor is j = 5
    assert images == {element(F13_4, 5).coeffs}


def test_velu_modular_polynomial_ordinary_curve():
    # y^2 = x^3 + 6x + 6 over F_13, ordinary with j = 11; the kernel x is a
    # root of the 3-division polynomial 3x^4 + 6ax^2 + 12bx - a^2, found
    # by scanning F_13 rather than by sampling points
    E = EllipticCurve(element(F13, 6), element(F13, 6))
    j = E.j_invariant()
    assert j == 11
    roots = [x for x in map(partial(element, F13), range(13))
             if not 3 * x**4 + 6 * E.a * x**2 + 12 * E.b * x - E.a**2]
    assert roots == [element(F13, 8)]
    image, _ = velu_quotient(E, [x.raw for x in roots], 3)
    assert not phi3(j, image.j_invariant())


@pytest.mark.parametrize(
    "field,r", [(F13_4, 3), (F169, 7)], ids=["r3", "r7"]
)
def test_velu_dual_composition_recovers_j(field, r):
    E = curve_47(field)
    xP, xQ, _ = torsion_basis(E, r, random.Random(8))
    image, xmap = velu_quotient(E, velu_xs(E, xP, r), r)
    assert len(xmap.num) == r + 1 and len(xmap.den) == r
    assert xmap.den[-1] == 1  # monic denominator
    # push the complementary generator through; it generates the kernel of
    # the dual, so the second quotient returns to the start
    (x2,) = xmap.eval_many([xQ])
    y2 = sqrt(rhs(image, FieldElement(field, x2)))
    G2 = on_curve_point(image, FieldElement(field, x2), y2)
    assert (r * G2).is_identity() and not G2.is_identity()
    image2, _ = velu_quotient(image, velu_xs(image, x2, r), r)
    assert image2.j_invariant() == E.j_invariant()


def test_velu_image_points_land_on_image():
    E = curve_47(F169)
    xP, _, _ = torsion_basis(E, 7, random.Random(10))
    image, xmap = velu_quotient(E, x_multiples(E, xP, 3), 7)
    f = F169
    kernel_xs = set(x_multiples(E, xP, 3))
    # the xs of rational points
    xs = [x for x in map(partial(element, f), f.iter_tuples()) if f.is_square_t(rhs(E, x).raw)]
    poles = [x for x in xs if x.raw in kernel_xs]
    assert {x.raw for x in poles} == kernel_xs
    for x in poles:
        with pytest.raises(XMapPole):
            xmap.eval_many([x.raw])
    images = xmap.eval_many([x.raw for x in xs if x.raw not in kernel_xs])
    assert all(f.is_square_t(rhs(image, FieldElement(f, y)).raw) for y in images)


def test_velu_eval_many_matches_single():
    # eval_many against num(x) / den(x) one x at a time, and against
    # velu_sum, Velu's sum over the kernel, which shares no code with the
    # Kohel form; on the class model lifted to the order-r torsion field,
    # for r = 3 and 5 the half-degree field of the twist by delta
    for r in (3, 5, 7):
        tf = torsion_field(13, r)
        F = tf.field
        E = curve_47(F169).change_field(tf.emb)
        xP, xQ, _ = torsion_basis(E, r, random.Random(12), tf.delta)
        kernel = x_multiples(E, xP, (r - 1) // 2)
        _, xmap = velu_quotient(E, kernel, r)
        xs = x_multiples(E, xQ, r - 1)

        def single(x):  # num(x) / den(x) by field-element arithmetic
            x = FieldElement(F, x)
            num = sum(FieldElement(F, c) * x**i for i, c in enumerate(xmap.num))
            return (num / sum(FieldElement(F, c) * x**i for i, c in enumerate(xmap.den))).raw

        def by_sum(x):
            return velu_sum(E, [FieldElement(F, t) for t in kernel], FieldElement(F, x)).raw

        assert xmap.eval_many(xs) == [single(x) for x in xs] == [by_sum(x) for x in xs], r
        with pytest.raises(XMapPole):
            xmap.eval_many([xQ, xP])


def test_velu_rejects_bad_kernels():
    E = curve_47(F169)
    xP, _, _ = torsion_basis(E, 7, random.Random(13))
    with pytest.raises(CurveError, match="prime"):
        velu_quotient(E, x_multiples(E, xP, 3), 4)
    with pytest.raises(CurveError, match="odd prime"):
        velu_quotient(E, x_multiples(E, xP, 1), 2)
    with pytest.raises(CurveError, match="order-3 kernel"):
        velu_quotient(E, x_multiples(E, xP, 3), 3)


def test_velu_kernel_guard():
    # every corruption of a kernel's x-list is refused; the valid lists,
    # in either order, are not
    E = curve_47(F169)
    xP, xQ, _ = torsion_basis(E, 7, random.Random(14))
    xs, other = x_multiples(E, xP, 3), x_multiples(E, xQ, 3)
    velu_quotient(E, xs, 7)
    velu_quotient(E, xs[::-1], 7)
    bad = {
        "perturbed": [F169.add_t(xs[0], 1), xs[1], xs[2]],
        "dropped": xs[:2],
        "duplicated": [xs[0], xs[1], xs[1]],
        "other slot": [xs[0], xs[1], other[2]],
    }
    for ys in bad.values():
        with pytest.raises(CurveError, match="order-7 kernel"):
            velu_quotient(E, ys, 7)
    # r = 3: the one x must be fixed by doubling
    E4 = curve_47(F13_4)
    x3, _, _ = torsion_basis(E4, 3, random.Random(15))
    velu_quotient(E4, [x3], 3)
    with pytest.raises(CurveError, match="order-3 kernel"):
        velu_quotient(E4, [F13_4.add_t(x3, 1)], 3)


def doubling_closed(curve, xs):
    return all(x_multiples(curve, x, 2)[1] in set(xs) for x in xs)


def test_velu_kernel_guard_refuses_doubling_closed_impostors():
    # sets of the right size, distinct and closed under x-only doubling,
    # that are not x(<P> - O) for an order-r point P
    # two order-3 x values from different subgroups, as an "order-5 kernel"
    E4 = curve_47(F13_4)
    xs = list(torsion_basis(E4, 3, random.Random(15))[:2])
    assert doubling_closed(E4, xs)
    with pytest.raises(CurveError, match="order-5 kernel"):
        velu_quotient(E4, xs, 5)
    # the doubling orbit x(P), x(2P), x(4P) of an order-9 point at r = 7,
    # closed since 8P = -P
    E = EllipticCurve(element(F13, 1), element(F13, 5))
    P9 = on_curve_point(E, 3, 3)
    assert (9 * P9).is_identity() and not (3 * P9).is_identity()
    xs9 = x_multiples(E, P9.x.raw, 4)
    xs = [xs9[0], xs9[1], xs9[3]]
    assert doubling_closed(E, xs)
    with pytest.raises(CurveError, match="order-7 kernel"):
        velu_quotient(E, xs, 7)
    # and its first three multiples, which only the order check refuses
    with pytest.raises(CurveError, match="order-7 kernel"):
        velu_quotient(E, xs9[:3], 7)
    # at r = 17, +-2 generates only half of (Z/17)^x/+-1: the doubling
    # orbits {x([2^i]P)} of two different order-17 subgroups make a
    # closed set of 8 = (17 - 1)/2, and xs[0] has order 17
    E8 = curve_47(make_extension_field(13, 8))
    xP, xQ, _ = torsion_basis(E8, 17, random.Random(18))
    orbit = [x_multiples(E8, xP, 8)[k - 1] for k in (1, 2, 4, 8)]
    orbit += [x_multiples(E8, xQ, 8)[k - 1] for k in (1, 2, 4, 8)]
    assert len(set(orbit)) == 8 and doubling_closed(E8, orbit)
    velu_quotient(E8, x_multiples(E8, xP, 8), 17)
    with pytest.raises(CurveError, match="order-17 kernel"):
        velu_quotient(E8, orbit, 17)


def test_isomorphism_scale_frozen():
    # scaling (4, 7) by u = 4: u^2 = 3, a' = 9*4 = 10, b' = 27*7 = 7 mod 13
    E1 = curve_47(F13)
    E2 = EllipticCurve(element(F13, 10), element(F13, 7))
    u2 = isomorphism_scale(E1, E2)
    assert u2 == 3
    assert isomorphism_scale(E1, E1) == 1


def test_isomorphism_scale_twist_is_not_isomorphic():
    # over F_13 the quadratic twist satisfies the coefficient relations with
    # u^2 = 2 (a non-square), so it must be rejected; over F_13^2 every
    # F_13 scalar is a square and the same pair becomes isomorphic
    E1 = curve_47(F13)
    T1 = quadratic_twist(E1)
    assert (T1.a, T1.b) == (3, 4)
    assert isomorphism_scale(E1, T1) is None
    assert isomorphism_scale(curve_47(F169), quadratic_twist(curve_47(F169))) is None
    E1x = curve_47(F169)
    T1x = EllipticCurve(element(F169, 3), element(F169, 4))
    assert isomorphism_scale(E1x, T1x) == 2


def test_isomorphism_scale_refuses_two_fields():
    # without the guard the first product across the fields raises FieldMismatch
    with pytest.raises(CurveError, match="requires one ground field"):
        isomorphism_scale(curve_47(F169), curve_47(F13_4))
    with pytest.raises(CurveError, match="requires one ground field"):
        isomorphism_scale(curve_47(F13), curve_47(F169))


def test_isomorphism_scale_mismatched_j():
    assert isomorphism_scale(curve_47(F13), curve_from_j(element(F13, 3))) is None
    with pytest.raises(ExcludedJInvariant):
        isomorphism_scale(curve_47(F13), EllipticCurve(element(F13, 1), element(F13, 0)))


def test_isomorphism_scale_maps_points():
    E1 = curve_47(F13)
    E2 = EllipticCurve(element(F13, 10), element(F13, 7))
    u2 = isomorphism_scale(E1, E2)
    u = sqrt(u2)
    rng = random.Random(14)
    for P in random_points(E1, rng, 8):
        on_curve_point(E2, u2 * P.x, u * u2 * P.y)  # raises if off the curve
