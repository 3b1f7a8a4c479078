import copy
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isograph.curves import (
    CurveError,
    EllipticCurve,
    ExcludedJInvariant,
    Point,
    TorsionField,
    XMapPole,
    curve_from_j,
    isomorphism_scale,
    quadratic_twist,
    scalar_mul,
    torsion_basis,
    torsion_field,
    torsion_order_extension,
    translates,
    twist_to_scalar_frobenius,
    velu_quotient,
    x_chain,
    x_double,
    x_multiples,
)
import isograph.fields as fields_mod
from isograph.fields import FieldElement, HalfField, get_embedding, make_extension_field

F13 = make_extension_field(13, 1)
F169 = make_extension_field(13, 2)
F13_4 = make_extension_field(13, 4)


def curve_47(field):
    return EllipticCurve(field.element(4), field.element(7))


def brute_order(curve):
    """Independent oracle: point count by scanning every x and applying the
    Euler criterion to the cubic's value."""
    f = curve.field
    at, bt = curve.a.raw, curve.b.raw
    n = 1  # identity
    for xt in map(f.pack, f.iter_tuples()):
        r = f.add_t(f.mul_t(f.add_t(f.mul_t(xt, xt), at), xt), bt)
        if r == f.zero_t:
            n += 1
        elif f.is_square_t(r):
            n += 2
    return n


def test_curve_from_j_frozen_model():
    # k = 5/(1728-5) = 5/7 = 10 in F_13, so (a, b) = (3k, 2k) = (4, 7)
    E = curve_from_j(F13.element(5))
    assert E.a == 4 and E.b == 7
    assert E.j_invariant() == 5


def test_curve_from_j_round_trips():
    for j in (2, 3, 5, 9, 11):
        E = curve_from_j(F169.element(j))
        assert E.j_invariant() == j


def test_curve_from_j_excluded():
    with pytest.raises(ExcludedJInvariant):
        curve_from_j(F13.element(0))
    with pytest.raises(ExcludedJInvariant):
        curve_from_j(F13.element(1728 % 13))


def test_point_validation():
    E = curve_47(F13)
    with pytest.raises(CurveError):
        E.point(0, 0)
    P = E.point(1, 5)  # 5^2 = 25 = 12 = 1 + 4 + 7 mod 13
    assert not P.is_identity()


def test_group_law_axioms():
    E = curve_47(F169)
    rng = random.Random(7)
    O = E.identity()
    for _ in range(25):
        P = E.random_point(rng)
        Q = E.random_point(rng)
        R = E.random_point(rng)
        assert P + Q == Q + P
        assert (P + Q) + R == P + (Q + R)
        assert P + O == P
        assert P + (-P) == O
        assert P + P == scalar_mul(2, P)


def affine_add(P, Q):
    """Oracle: the chord-and-tangent law in affine coordinates."""
    E = P.curve
    if P.is_identity():
        return Q
    if Q.is_identity():
        return P
    if P.x == Q.x:
        if P.y != Q.y or not P.y:
            return E.identity()
        lam = (3 * P.x * P.x + E.a) / (2 * P.y)
    else:
        lam = (Q.y - P.y) / (Q.x - P.x)
    x3 = lam * lam - P.x - Q.x
    return Point(E, x3, lam * (P.x - x3) - P.y)


def test_addition_matches_affine_oracle():
    E = curve_47(F169)
    rng = random.Random(13)
    xs = [F169.element(t) for t in F169.iter_tuples()]
    two_torsion = [Point(E, x, F169.zero) for x in xs if not E.rhs(x)]
    assert len(two_torsion) == 3  # E(F_169) = (Z/14)^2
    for _ in range(25):
        P, Q = E.random_point(rng), E.random_point(rng)
        for A, B in ((P, Q), (P, P), (P, -P), (P, E.identity())):
            assert A + B == affine_add(A, B)
    for T in two_torsion:
        assert (T + T).is_identity()


def test_translates_match_affine_chain():
    E = curve_47(F169)
    P, Q = torsion_basis(E, 7, random.Random(4))
    R = Q
    for S in translates(Q, P, 7):
        assert S == R
        R = affine_add(R, P)
    with pytest.raises(CurveError, match="identity"):
        translates(P, P, 7)  # P + 6P = 7P = O


def test_scalar_mul_matches_repeated_addition():
    E = curve_47(F169)
    rng = random.Random(11)
    P = E.random_point(rng)
    acc = E.identity()
    for n in range(20):
        assert scalar_mul(n, P) == acc
        assert scalar_mul(-n, P) == -acc
        acc = acc + P


@settings(max_examples=60, deadline=None)
@given(st.integers(-60, 60), st.integers(-60, 60))
def test_scalar_mul_distributive(m, n):
    E = curve_47(F169)
    P = E.random_point(random.Random(3))
    assert scalar_mul(m + n, P) == scalar_mul(m, P) + scalar_mul(n, P)


def test_brute_force_orders():
    # j = 5 is supersingular for p = 13: trace 0 over F_13, (p+1)^2 over F_13^2
    assert brute_order(curve_47(F13)) == 14
    E = curve_47(F169)
    assert brute_order(E) == 196
    assert brute_order(quadratic_twist(E)) == 144  # (p-1)^2
    rng = random.Random(5)
    for _ in range(5):
        assert scalar_mul(196, E.random_point(rng)).is_identity()


def test_twist_to_scalar_frobenius():
    E = curve_47(F169)
    assert twist_to_scalar_frobenius(E) is E
    fixed = twist_to_scalar_frobenius(quadratic_twist(E))
    assert brute_order(fixed) == 196
    with pytest.raises(CurveError, match="not supersingular"):
        twist_to_scalar_frobenius(curve_from_j(F169.element(3)))  # ordinary j


def test_torsion_order_extension():
    # brute-check the minimality against the group order formula
    for p, r in [(13, 2), (13, 3), (13, 5), (13, 7), (37, 61), (61, 37), (13, 37)]:
        k = torsion_order_extension(p, r)
        assert abs((-p) ** k - 1) % r == 0
        for kk in range(1, k):
            assert abs((-p) ** kk - 1) % r != 0
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
        torsion_field(13, r)


def span_size(P, Q, r):
    """Oracle: number of distinct points i*P + j*Q."""
    seen = set()
    for i in range(r):
        for j in range(r):
            T = scalar_mul(i, P) + scalar_mul(j, Q)
            seen.add(None if T.is_identity() else (T.x.coeffs, T.y.coeffs))
    return len(seen)


def test_torsion_basis_r7_spans_full_group():
    # E[7] is rational over F_13^2 already: 7 | 13 + 1
    E = curve_47(F169)
    P, Q = torsion_basis(E, 7, random.Random(1))
    assert scalar_mul(7, P).is_identity() and not P.is_identity()
    assert span_size(P, Q, 7) == 49


def test_torsion_basis_r3_frobenius_action():
    E = curve_47(F13_4)
    P, Q = torsion_basis(E, 3, random.Random(2))
    assert span_size(P, Q, 3) == 9
    # Frobenius x -> x^(13^2) must act as the scalar -13 = 2 mod 3
    f = F13_4
    e2 = 13 * 13
    img = Point(
        E,
        FieldElement(f, f.pow_t(P.x.raw, e2)),
        FieldElement(f, f.pow_t(P.y.raw, e2)),
    )
    assert img == scalar_mul(2, P)


def test_torsion_basis_r2():
    E = curve_47(F169)
    P, Q = torsion_basis(E, 2, random.Random(3))
    assert P.y == 0 and Q.y == 0 and P.x != Q.x
    assert span_size(P, Q, 2) == 4


def test_torsion_basis_missing_torsion():
    with pytest.raises(CurveError, match="not rational"):
        torsion_basis(curve_47(F13_4), 11, random.Random(0))


def test_torsion_basis_on_twist_over_half_field():
    # (-13)^2 = -1 mod 5: E[5] has its x-coordinates in F_{13^4}, and its
    # points on the twist by the non-square y of that field
    tf = torsion_field(13, 5)
    assert tf.field.deg == 4 and tf.delta is not None
    E = tf.model(curve_47(F169))
    P, Q = torsion_basis(E, 5, random.Random(21), delta=tf.delta)
    assert span_size(P, Q, 5) == 25
    with pytest.raises(CurveError, match="not rational"):
        torsion_basis(tf.model(curve_47(F169)), 5, random.Random(21))
    with pytest.raises(CurveError, match="not rational"):
        torsion_basis(curve_47(F169), 7, random.Random(21), delta=F169.gen)


def test_subfield_error_is_not_taken_for_an_odd_modulus(monkeypatch):
    # only OddModulus sends torsion_field to the full field; any other error
    # from building the HalfField's subfield (a refused fold plan, say)
    # propagates.  F_{13^8} is cached, so the subfield is the one Field built
    make_extension_field(13, 8)

    def refused(p, modulus):
        raise ValueError("subfield refused")

    monkeypatch.setattr(fields_mod, "Field", refused)
    with pytest.raises(ValueError, match="subfield refused"):
        torsion_field.__wrapped__(13, 5)


def test_conjugate_torsion_embedding_is_refused():
    tf = torsion_field(13, 37)
    TorsionField(tf.field, tf.emb, tf.delta)
    conj = copy.copy(tf.emb)
    f = tf.field
    conj.gen_image = f.sub_t(f.coerce_t(-F169.modulus[1]), tf.emb.gen_image)
    assert conj(F169.gen) ** 2 + F169.modulus[1] * conj(F169.gen) + F169.modulus[0] == 0
    with pytest.raises(CurveError, match="conjugate"):
        TorsionField(tf.field, conj, tf.delta)


def test_frobenius_guard_fires_on_wrong_twist():
    # the other F_{p^2}-twist has Frobenius +p: over F_{13^4} its 3-torsion
    # is rational too, but pi(P) = [p]P = -[-p]P
    wrong = quadratic_twist(curve_47(F169))
    emb = get_embedding(F169, F13_4)
    with pytest.raises(CurveError, match="Frobenius"):
        torsion_basis(wrong.change_field(emb), 3, random.Random(22))
    # and on the twist by delta over the half field F_{13^4} of F_{13^8}:
    # E[5] is rational there as well, so only the twisted guard can see it
    tf = torsion_field(13, 5)
    with pytest.raises(CurveError, match="Frobenius"):
        torsion_basis(tf.model(wrong), 5, random.Random(23), delta=tf.delta)


def velu_xs(G, r):
    """The x-list velu_quotient takes for the kernel <G>."""
    return x_multiples(G, (r - 1) // 2)


def test_half_field_velu_matches_full_field_velu():
    # Velu over F_{13^4} from the kernel's x-coordinates, which lie there
    # while the points do not, equals Velu over F_{13^8} from a rational
    # kernel point coefficient for coefficient
    tf = torsion_field(13, 5)
    half = HalfField(make_extension_field(13, 8))
    assert tf.field.modulus == half.sub.modulus
    E_full = curve_47(F169).change_field(get_embedding(F169, half.full))
    P, _ = torsion_basis(E_full, 5, random.Random(24))
    xs_full = x_multiples(P, 2)
    image, xmap = velu_quotient(E_full, xs_full, 5)

    E = curve_47(F169).change_field(tf.emb)
    xs = [FieldElement(tf.field, half.unspread_t(x.raw)) for x in xs_full]
    assert not any(tf.field.is_square_t(E.rhs(x).raw) for x in xs)
    image_h, xmap_h = velu_quotient(E, xs, 5)

    def spread(cs):
        return [half.spread_t(c.raw) for c in cs]

    assert spread([image_h.a, image_h.b]) == [image.a.raw, image.b.raw]
    assert spread(xmap_h.num) == [c.raw for c in xmap.num]
    assert spread(xmap_h.den) == [c.raw for c in xmap.den]


def test_x_multiples_vs_scalar_mul():
    E = curve_47(F169)
    rng = random.Random(9)
    for _ in range(5):
        P = E.random_point(rng)
        xs = x_multiples(P, 10)
        for i, x in enumerate(xs, start=1):
            assert x == scalar_mul(i, P).x
    with pytest.raises(CurveError):
        x_multiples(E.identity(), 3)


def test_x_multiples_rejects_count_at_order():
    E = curve_47(F169)
    P, _ = torsion_basis(E, 7, random.Random(4))
    assert len(x_multiples(P, 6)) == 6
    with pytest.raises(CurveError, match="order"):
        x_multiples(P, 7)


def test_x_chain_vs_scalar_mul():
    E = curve_47(F169)
    rng = random.Random(17)
    for _ in range(5):
        P = E.random_point(rng)
        chain = x_chain(E, P.x, 10)
        for k, (X, Z) in enumerate(chain, start=1):
            assert F169.mul_t(scalar_mul(k, P).x.raw, Z) == X
        assert x_double(E, P.x) == scalar_mul(2, P).x
    # the first Z = 0 is the first multiple that is the identity
    P, _ = torsion_basis(E, 7, random.Random(4))
    zs = [Z for _, Z in x_chain(E, P.x, 7)]
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
    P, Q = torsion_basis(E, 3, random.Random(6))
    images = set()
    for G in (P, Q, Q + P, Q + P + P):
        image, _ = velu_quotient(E, [G.x], 3)
        j2 = image.j_invariant()
        assert not phi3(j, j2)
        images.add(j2.coeffs)
    # p = 13 has a single supersingular class, so every neighbor is j = 5
    assert images == {F13_4.element(5).coeffs}


def test_velu_modular_polynomial_ordinary_curve():
    # y^2 = x^3 + 6x + 6 over F_13, ordinary with j = 11; the kernel x is a
    # root of the 3-division polynomial 3x^4 + 6ax^2 + 12bx - a^2, found
    # by scanning F_13 rather than by sampling points
    E = EllipticCurve(F13.element(6), F13.element(6))
    j = E.j_invariant()
    assert j == 11
    roots = [x for x in map(F13.element, range(13))
             if not 3 * x**4 + 6 * E.a * x**2 + 12 * E.b * x - E.a**2]
    assert roots == [F13.element(8)]
    image, _ = velu_quotient(E, roots, 3)
    assert not phi3(j, image.j_invariant())


@pytest.mark.parametrize(
    "field,r", [(F13_4, 3), (F169, 7)], ids=["r3", "r7"]
)
def test_velu_dual_composition_recovers_j(field, r):
    E = curve_47(field)
    P, Q = torsion_basis(E, r, random.Random(8))
    image, xmap = velu_quotient(E, velu_xs(P, r), r)
    assert len(xmap.num) == r + 1 and len(xmap.den) == r
    assert xmap.den[-1] == 1  # monic denominator
    # push the complementary generator through; it generates the kernel of
    # the dual, so the second quotient returns to the start
    x2 = xmap(Q.x)
    y2 = image.rhs(x2).sqrt()
    G2 = image.point(x2, y2)
    assert scalar_mul(r, G2).is_identity() and not G2.is_identity()
    image2, _ = velu_quotient(image, velu_xs(G2, r), r)
    assert image2.j_invariant() == E.j_invariant()


def test_velu_image_points_land_on_image():
    E = curve_47(F169)
    P, _ = torsion_basis(E, 7, random.Random(10))
    image, xmap = velu_quotient(E, x_multiples(P, 3), 7)
    f = F169
    kernel_xs = {x.coeffs for x in x_multiples(P, 3)}
    poles = set()
    for xt in f.iter_tuples():
        x = f.element(xt)
        if not f.is_square_t(E.rhs(x).raw):
            continue  # not the x of a rational point
        if xt in kernel_xs:
            poles.add(xt)
            with pytest.raises(XMapPole):
                xmap(x)
            continue
        assert f.is_square_t(image.rhs(xmap(x)).raw)
    assert poles == kernel_xs


def test_velu_eval_many_matches_single():
    E = curve_47(F169)
    P, Q = torsion_basis(E, 7, random.Random(12))
    _, xmap = velu_quotient(E, x_multiples(P, 3), 7)
    xs = x_multiples(Q, 5)
    assert xmap.eval_many(xs) == [xmap(x) for x in xs]
    with pytest.raises(XMapPole):
        xmap.eval_many([Q.x, P.x])


def test_velu_rejects_bad_kernels():
    E = curve_47(F169)
    P, _ = torsion_basis(E, 7, random.Random(13))
    with pytest.raises(CurveError, match="prime"):
        velu_quotient(E, x_multiples(P, 3), 4)
    with pytest.raises(CurveError, match="odd prime"):
        velu_quotient(E, x_multiples(P, 1), 2)
    with pytest.raises(CurveError, match="order-3 kernel"):
        velu_quotient(E, x_multiples(P, 3), 3)


def test_velu_kernel_guard():
    # every corruption of a kernel's x-list is refused; the valid lists,
    # in either order, are not
    E = curve_47(F169)
    P, Q = torsion_basis(E, 7, random.Random(14))
    xs, other = x_multiples(P, 3), x_multiples(Q, 3)
    velu_quotient(E, xs, 7)
    velu_quotient(E, xs[::-1], 7)
    bad = {
        "perturbed": [xs[0] + 1, xs[1], xs[2]],
        "dropped": xs[:2],
        "duplicated": [xs[0], xs[1], xs[1]],
        "other slot": [xs[0], xs[1], other[2]],
    }
    for ys in bad.values():
        with pytest.raises(CurveError, match="order-7 kernel"):
            velu_quotient(E, ys, 7)
    # r = 3: the one x must be fixed by doubling
    E4 = curve_47(F13_4)
    P3, _ = torsion_basis(E4, 3, random.Random(15))
    velu_quotient(E4, [P3.x], 3)
    with pytest.raises(CurveError, match="order-3 kernel"):
        velu_quotient(E4, [P3.x + 1], 3)


def doubling_closed(curve, xs):
    raws = {x.raw for x in xs}
    return all(x_double(curve, x).raw in raws for x in xs)


def test_velu_kernel_guard_refuses_doubling_closed_impostors():
    # sets of the right size, distinct and closed under x-only doubling,
    # that are not x(<P> - O) for an order-r point P
    # two order-3 x values from different subgroups, as an "order-5 kernel"
    E4 = curve_47(F13_4)
    P3, Q3 = torsion_basis(E4, 3, random.Random(15))
    xs = [P3.x, Q3.x]
    assert doubling_closed(E4, xs)
    with pytest.raises(CurveError, match="order-5 kernel"):
        velu_quotient(E4, xs, 5)
    # the doubling orbit x(P), x(2P), x(4P) of an order-9 point at r = 7,
    # closed since 8P = -P
    E = EllipticCurve(F13.element(1), F13.element(5))
    P9 = E.point(3, 3)
    assert scalar_mul(9, P9).is_identity() and not scalar_mul(3, P9).is_identity()
    xs9 = x_multiples(P9, 4)
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
    P, Q = torsion_basis(E8, 17, random.Random(18))
    orbit = [x_multiples(P, 8)[k - 1] for k in (1, 2, 4, 8)]
    orbit += [x_multiples(Q, 8)[k - 1] for k in (1, 2, 4, 8)]
    assert len({x.raw for x in orbit}) == 8 and doubling_closed(E8, orbit)
    velu_quotient(E8, x_multiples(P, 8), 17)
    with pytest.raises(CurveError, match="order-17 kernel"):
        velu_quotient(E8, orbit, 17)


def test_isomorphism_scale_frozen():
    # scaling (4, 7) by u = 4: u^2 = 3, a' = 9*4 = 10, b' = 27*7 = 7 mod 13
    E1 = curve_47(F13)
    E2 = EllipticCurve(F13.element(10), F13.element(7))
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
    T1x = EllipticCurve(F169.element(3), F169.element(4))
    assert isomorphism_scale(E1x, T1x) == 2


def test_isomorphism_scale_mismatched_j():
    assert isomorphism_scale(curve_47(F13), curve_from_j(F13.element(3))) is None
    with pytest.raises(ExcludedJInvariant):
        isomorphism_scale(curve_47(F13), EllipticCurve(F13.element(1), F13.element(0)))


def test_isomorphism_scale_maps_points():
    E1 = curve_47(F13)
    E2 = EllipticCurve(F13.element(10), F13.element(7))
    u2 = isomorphism_scale(E1, E2)
    u = u2.sqrt()
    rng = random.Random(14)
    for _ in range(8):
        P = E1.random_point(rng)
        E2.point(u2 * P.x, u * u2 * P.y)  # raises if off the curve
