"""Short Weierstrass curves over the field tower, with the machinery the
graph builder needs: torsion bases, x-coordinate multiple lists, Velu
quotients from a kernel's x-coordinates (Kohel's form over the kernel
polynomial, a polys.Polynomial of FieldElements), and quadratic-twist
normalization so the p^2-power Frobenius acts as the scalar -p on every
working model.

Order-r torsion is worked in a TorsionField: when -1 is a power of -p
mod r and the field holding the points has an even modulus, its
half-degree subfield, which holds every x-coordinate; the points are
sampled on the quadratic twist, where they become rational.

Affine points carry FieldElements; the inner loops (scalar multiplication,
multiple chains, x-map evaluation) run on the field's raw packed ints, in
Jacobian coordinates for scalar multiples and translates and on the
x-line (x_chain's (X : Z) pairs) for x-coordinate multiples, and wrap the
results at the edges.
"""

from __future__ import annotations

import functools
import hashlib
import math
import random
from dataclasses import dataclass
from typing import Sequence

from .fields import (
    Embedding,
    Field,
    FieldElement,
    NoSquareRoot,
    HalfField,
    OddModulus,
    get_embedding,
    is_prime,
    make_extension_field,
)
from .polys import Polynomial


class CurveError(ValueError):
    pass


class ExcludedJInvariant(CurveError):
    """j in {0, 1728} has extra automorphisms and is outside our regime."""


class TorsionBasisError(RuntimeError):
    pass


class XMapPole(ArithmeticError):
    """Evaluation of an isogeny x-map at a kernel x-coordinate."""


class EllipticCurve:
    """y^2 = x^3 + a x + b over a Field."""

    __slots__ = ("field", "a", "b")

    def __init__(self, a: FieldElement, b: FieldElement):
        if a.field is not b.field:
            raise CurveError("coefficients from different fields")
        self.field = a.field
        self.a = a
        self.b = b
        disc = 4 * a * a * a + 27 * b * b
        if not disc:
            raise CurveError("singular curve: 4a^3 + 27b^2 = 0")

    def j_invariant(self) -> FieldElement:
        a3 = 4 * self.a * self.a * self.a
        return 1728 * a3 / (a3 + 27 * self.b * self.b)

    def identity(self) -> "Point":
        return Point(self, None, None)

    def point(self, x, y) -> "Point":
        x = self.field.element(x)
        y = self.field.element(y)
        if y * y != (x * x + self.a) * x + self.b:
            raise CurveError("point is not on the curve")
        return Point(self, x, y)

    def rhs(self, x: FieldElement) -> FieldElement:
        return (x * x + self.a) * x + self.b

    def random_point(self, rng: random.Random) -> "Point":
        f = self.field
        while True:
            xt = f.random_t(rng)
            rt = f.mul_t(f.add_t(f.mul_t(xt, xt), self.a.raw), xt)
            rt = f.add_t(rt, self.b.raw)
            try:
                yt = f.sqrt_t(rt)
            except NoSquareRoot:
                continue
            return Point(self, FieldElement(f, xt), FieldElement(f, yt))

    def change_field(self, emb: Embedding) -> "EllipticCurve":
        return EllipticCurve(emb(self.a), emb(self.b))

    def __eq__(self, other) -> bool:
        if isinstance(other, EllipticCurve):
            return self.field is other.field and self.a == other.a and self.b == other.b
        return NotImplemented

    def __hash__(self) -> int:
        return hash((id(self.field), self.a.raw, self.b.raw))

    def __repr__(self) -> str:
        return f"EllipticCurve(a={self.a.coeffs}, b={self.b.coeffs}, F_{self.field.p}^{self.field.deg})"


class Point:
    """Affine point or the identity (x is None)."""

    __slots__ = ("curve", "x", "y")

    def __init__(self, curve: EllipticCurve, x: FieldElement | None, y: FieldElement | None):
        self.curve = curve
        self.x = x
        self.y = y

    def is_identity(self) -> bool:
        return self.x is None

    def __neg__(self) -> "Point":
        if self.x is None:
            return self
        return Point(self.curve, self.x, -self.y)

    def __add__(self, other: "Point") -> "Point":
        if self.curve is not other.curve and self.curve != other.curve:
            raise CurveError("points on different curves")
        if self.x is None:
            return other
        if other.x is None:
            return self
        f = self.curve.field
        P = (self.x.raw, self.y.raw, 1)
        S = _jac_add_mixed(f, self.curve.a.raw, P, other.x.raw, other.y.raw)
        return _jac_point(self.curve, S)

    def __sub__(self, other: "Point") -> "Point":
        return self + (-other)

    def __rmul__(self, n: int) -> "Point":
        return scalar_mul(n, self)

    def __eq__(self, other) -> bool:
        if isinstance(other, Point):
            return self.curve == other.curve and self.x == other.x and self.y == other.y
        return NotImplemented

    def __repr__(self) -> str:
        if self.x is None:
            return "Point(O)"
        return f"Point({self.x.coeffs}, {self.y.coeffs})"


# -- raw Jacobian arithmetic: (X, Y, Z) with x = X/Z^2, y = Y/Z^3; Z = 0 is O


def _jac_dbl(f: Field, at, P):
    X, Y, Z = P
    if not Z or not Y:
        return (1, 1, 0)
    XX = f.sq_t(X)
    YY = f.sq_t(Y)
    YYYY = f.sq_t(YY)
    S = f.smul_t(4, f.mul_t(X, YY))
    ZZ = f.sq_t(Z)
    M = f.add_t(f.smul_t(3, XX), f.mul_t(at, f.sq_t(ZZ)))
    X3 = f.sub_t(f.sq_t(M), f.smul_t(2, S))
    Y3 = f.sub_t(f.mul_t(M, f.sub_t(S, X3)), f.smul_t(8, YYYY))
    Z3 = f.smul_t(2, f.mul_t(Y, Z))
    return (X3, Y3, Z3)


def _jac_add_mixed(f: Field, at, P, xt, yt):
    """P + (xt, yt) with the second point affine."""
    X1, Y1, Z1 = P
    if not Z1:
        return (xt, yt, 1)
    ZZ = f.sq_t(Z1)
    U2 = f.mul_t(xt, ZZ)
    S2 = f.mul_t(yt, f.mul_t(Z1, ZZ))
    H = f.sub_t(U2, X1)
    R = f.sub_t(S2, Y1)
    if not H:
        if not R:
            return _jac_dbl(f, at, P)
        return (1, 1, 0)
    HH = f.sq_t(H)
    HHH = f.mul_t(H, HH)
    V = f.mul_t(X1, HH)
    X3 = f.sub_t(f.sub_t(f.sq_t(R), HHH), f.smul_t(2, V))
    Y3 = f.sub_t(f.mul_t(R, f.sub_t(V, X3)), f.mul_t(Y1, HHH))
    Z3 = f.mul_t(Z1, H)
    return (X3, Y3, Z3)


def _jac_point(curve: EllipticCurve, P, iz=None) -> Point:
    """The affine Point of Jacobian P; iz is 1/Z when already known."""
    f = curve.field
    X, Y, Z = P
    if not Z:
        return curve.identity()
    if iz is None:
        iz = f.inv_t(Z)
    iz2 = f.sq_t(iz)
    x = f.mul_t(X, iz2)
    y = f.mul_t(Y, f.mul_t(iz, iz2))
    return Point(curve, FieldElement(f, x), FieldElement(f, y))


def scalar_mul(n: int, P: Point) -> Point:
    """n*P by Jacobian double-and-add with a single final inversion."""
    curve = P.curve
    if P.x is None or n == 0:
        return curve.identity()
    if n < 0:
        return scalar_mul(-n, -P)
    f = curve.field
    at = curve.a.raw
    xt, yt = P.x.raw, P.y.raw
    acc = (1, 1, 0)
    for bit in bin(n)[2:]:
        acc = _jac_dbl(f, at, acc)
        if bit == "1":
            acc = _jac_add_mixed(f, at, acc, xt, yt)
    return _jac_point(curve, acc)


def x_multiples(P: Point, count: int) -> list[FieldElement]:
    """[x(P), x(2P), ..., x(count*P)]; requires count < ord(P).

    One x_chain from x(P), normalized with one batched inversion."""
    if P.x is None:
        raise CurveError("x_multiples of the identity")
    if count < 1:
        return []
    f = P.curve.field
    chain = x_chain(P.curve, P.x, count)
    if not all(Z for _, Z in chain):
        raise CurveError("hit the identity: count >= point order")
    invs = f.batch_inv_t([Z for _, Z in chain])
    return [FieldElement(f, f.mul_t(X, iz)) for (X, _), iz in zip(chain, invs)]


def translates(Q: Point, P: Point, count: int) -> list[Point]:
    """[Q, Q + P, ..., Q + (count - 1) P] by one Jacobian chain and one
    batched inversion; none may be the identity."""
    curve = Q.curve
    f = curve.field
    at, xt, yt = curve.a.raw, P.x.raw, P.y.raw
    chain = [(Q.x.raw, Q.y.raw, 1)]
    for _ in range(count - 1):
        chain.append(_jac_add_mixed(f, at, chain[-1], xt, yt))
    if not all(S[2] for S in chain):
        raise CurveError("hit the identity: count >= point order")
    invs = f.batch_inv_t([Z for _, _, Z in chain])
    return [_jac_point(curve, S, iz) for S, iz in zip(chain, invs)]


def x_chain(curve: EllipticCurve, x: FieldElement, count: int) -> list[tuple[int, int]]:
    """x([k]P) for k = 1..count as raw projective pairs (X, Z), x = X/Z,
    from x = x(P) alone and without an inversion: one doubling, then
    differential additions [k+1]P = [k]P + P with difference [k-1]P,
    x([k+1]P) + x([k-1]P) = 2((x_k + x)(x_k x + a) + 2b) / (x_k - x)^2.
    The first Z = 0 is the first multiple that is the identity; the pairs
    after it need not be meaningful."""
    f = curve.field
    at, bt, xt = curve.a.raw, curve.b.raw, x.raw
    x2 = f.sq_t(xt)
    chain = [(xt, 1)]
    if count >= 2:
        X2 = f.sub_t(f.sq_t(f.sub_t(x2, at)), f.smul_t(8, f.mul_t(bt, xt)))
        Z2 = f.smul_t(4, f.add_t(f.mul_t(f.add_t(x2, at), xt), bt))
        chain.append((X2, Z2))
    two_b = f.smul_t(2, bt)
    while len(chain) < count:
        (XD, ZD), (X1, Z1) = chain[-2], chain[-1]
        xZ1 = f.mul_t(xt, Z1)
        S = f.add_t(X1, xZ1)
        T = f.add_t(f.mul_t(xt, X1), f.mul_t(at, Z1))
        U = f.smul_t(2, f.add_t(f.mul_t(S, T), f.mul_t(two_b, f.sq_t(Z1))))
        D2 = f.sq_t(f.sub_t(X1, xZ1))
        chain.append((f.sub_t(f.mul_t(ZD, U), f.mul_t(XD, D2)), f.mul_t(ZD, D2)))
    return chain[:count]


def x_double(curve: EllipticCurve, x: FieldElement) -> FieldElement:
    """x(2P) from x = x(P); P must not be 2-torsion."""
    f = curve.field
    X, Z = x_chain(curve, x, 2)[1]
    return FieldElement(f, f.mul_t(X, f.inv_t(Z)))


# -- constructions


def curve_from_j(j: FieldElement) -> EllipticCurve:
    """The fixed model y^2 = x^3 + 3k x + 2k with k = j/(1728 - j)."""
    f = j.field
    if not j or j == 1728 % f.p:
        raise ExcludedJInvariant(f"j = {j.coeffs} is excluded (0 or 1728)")
    k = j / (1728 - j)
    return EllipticCurve(3 * k, 2 * k)


def quadratic_twist(curve: EllipticCurve, c: FieldElement | None = None) -> EllipticCurve:
    """Twist by the non-residue c, by default the field's canonical one:
    (a, b) -> (a c^2, b c^3).  (x, y) -> (c x, c^(3/2) y) identifies the
    curves over the quadratic extension."""
    if c is None:
        c = FieldElement(curve.field, curve.field.nonresidue_t())
    c2 = c * c
    return EllipticCurve(curve.a * c2, curve.b * c2 * c)


def _derive_seed(*parts) -> int:
    """A 64-bit seed from the repr of `parts`, stable across processes."""
    digest = hashlib.sha256(repr(parts).encode()).digest()
    return int.from_bytes(digest[:8], "big")


def twist_to_scalar_frobenius(curve: EllipticCurve) -> EllipticCurve:
    """Return the quadratic twist (possibly the input) whose F_{p^2}-point
    count is (p+1)^2, i.e. the model with Frobenius = -p.

    Verified by annihilating 20 deterministically sampled points by p + 1,
    the exponent of (Z/(p+1))^2; on the other twist (Frobenius = +p, group
    (Z/(p-1))^2) that multiple is [2]P.  For a supersingular curve with
    p = 1 mod 12 exactly one twist qualifies, and an ordinary input fails
    both candidates.
    """
    f = curve.field
    p = f.p
    if f.deg != 2:
        raise CurveError("normalization works over F_{p^2}")
    n_target = p + 1
    seed = _derive_seed(p, curve.a.coeffs, curve.b.coeffs)
    for cand in (curve, quadratic_twist(curve)):
        rng = random.Random(seed)
        if all(
            scalar_mul(n_target, cand.random_point(rng)).is_identity()
            for _ in range(20)
        ):
            return cand
    raise CurveError(
        f"neither quadratic twist has (p+1)^2 points over F_{p}^2; "
        "the curve is not supersingular"
    )


def torsion_order_extension(p: int, r: int) -> int:
    """Least k with E[r] rational over F_{p^{2k}} for scalar-Frobenius
    models: the multiplicative order of -p mod r, which exists only when
    -p is a unit mod r."""
    if math.gcd(p, r) != 1:
        raise CurveError(f"-{p} is not a unit mod {r}")
    t = (-p) % r
    k, acc = 1, t
    while acc != 1 % r:
        acc = acc * t % r
        k += 1
    return k


@dataclass(frozen=True)
class TorsionField:
    """Where the order-r torsion of the scalar-Frobenius models is worked.

    With k the order of -p mod r and r odd, (-p)^(k/2) = -1 mod r when k
    is even, so the p^k-power Frobenius acts on E[r] as -1: every
    x-coordinate lies in F' = F_{p^k}, and E[r] is rational on the twist
    by a non-square delta of F'.  When the canonical F = F_{p^{2k}} has an
    even modulus, `field` is its HalfField F' and `delta` the HalfField's
    y; the twist serves only to sample torsion points, whose x / delta
    are the untwisted x in F'.  Otherwise (k odd, r = 2, or an odd modulus such as F_{37^40})
    `field` is F itself and `delta` None.  `emb` embeds F_{p^2} into
    `field` so that spreading it into F gives the canonical F_{p^2} -> F;
    then every x in `field` spreads to the x the full field F would hold,
    and tables sorted in `field` sort as in F.
    """

    field: Field
    emb: Embedding
    delta: FieldElement | None

    def __post_init__(self):
        # the canonical F_{p^2} -> F sends the generator to the smaller
        # root of the F_{p^2} modulus; spreading keeps order, so emb must
        # pick the smaller root here too.  The conjugate (the other root)
        # would index the tables of the Frobenius-conjugate models.
        f, emb = self.field, self.emb
        if emb.dst is not f or emb.src.deg != 2:
            raise CurveError("torsion embedding must map F_{p^2} into the torsion field")
        other = f.sub_t(f.coerce_t(-emb.src.modulus[1]), emb.gen_image)
        if f.unpack(emb.gen_image) > f.unpack(other):
            raise CurveError(
                "torsion embedding is the conjugate of the canonical F_{p^2} embedding"
            )

    def model(self, curve: EllipticCurve) -> EllipticCurve:
        """An F_{p^2} model base-changed to `field`, twisted by delta."""
        E = curve.change_field(self.emb)
        return E if self.delta is None else quadratic_twist(E, self.delta)


@functools.lru_cache(maxsize=None)
def torsion_field(p: int, r: int) -> TorsionField:
    """The TorsionField of the order-r tables for the prime p; one per
    (p, r) per process, so its field and embedding objects are shared."""
    k = torsion_order_extension(p, r)
    full = make_extension_field(p, 2 * k)
    try:
        half = HalfField(full) if k % 2 == 0 else None
    except OddModulus:  # such as F_{37^40}'s
        half = None
    field = full if half is None else half.sub
    emb = get_embedding(make_extension_field(p, 2), field)
    return TorsionField(field, emb, None if half is None else half.delta)


def torsion_basis(
    curve: EllipticCurve,
    r: int,
    rng: random.Random,
    delta: FieldElement | None = None,
) -> tuple[Point, Point]:
    """Independent points of exact prime order r over the curve's field.

    The field has degree 2k' and the curve is a scalar-Frobenius model
    base-changed to it, twisted by the non-square `delta` of the field
    when (-p)^k' = -1 mod r (see TorsionField) and untwisted when
    (-p)^k' = 1 mod r.  The rational group is then (Z/m)^2 with
    m = |(-p)^k' + 1| on the twist and |(-p)^k' - 1| without it, and
    cofactor multiplication lands in E[r]; a multiple that is not r-power
    torsion means the model is not what it claims and is refused.

    Each basis point P' = (x', y') is checked against the p^2-power
    Frobenius, which acts as -p on the untwisted model: with
    c = delta^((p^2 - 1)/2) (c = 1 untwisted), x'^(p^2) = c^2 x'([-p]P')
    and y'^(p^2) = c^3 y'([-p]P').
    """
    f = curve.field
    p = f.p
    if f.deg % 2 != 0:
        raise CurveError("torsion work expects an even-degree extension")
    k = f.deg // 2
    m = abs((-p) ** k + (1 if delta is not None else -1))
    if m % r != 0:
        raise CurveError(
            f"E[{r}] is not rational over F_{p}^{f.deg}"
            + (" on this twist" if delta is not None else "")
        )
    mm = m
    e = 0
    while mm % r == 0:
        mm //= r
        e += 1
    cofactor = m // r**e
    budget = 200  # random points tried per basis point

    def sample() -> Point:
        for _ in range(budget):
            P = scalar_mul(cofactor, curve.random_point(rng))
            if P.is_identity():
                continue
            # reduce from order r^j (j <= e) to exact order r
            for _ in range(e):
                Q = scalar_mul(r, P)
                if Q.is_identity():
                    return P
                P = Q
            raise TorsionBasisError(
                f"cofactor multiple is not {r}-power torsion; "
                f"the group is not (Z/{m})^2"
            )
        raise TorsionBasisError(f"no order-{r} point in {budget} samples")

    e2 = p * p
    c = 1 if delta is None else f.pow_t(delta.raw, (e2 - 1) // 2)
    c2 = f.sq_t(c)
    c3 = f.mul_t(c2, c)

    def check_frobenius(P: Point) -> None:
        img = scalar_mul((-p) % r, P)
        if f.pow_t(P.x.raw, e2) != f.mul_t(c2, img.x.raw) or f.pow_t(
            P.y.raw, e2
        ) != f.mul_t(c3, img.y.raw):
            raise CurveError(
                "Frobenius does not act as -p on sampled torsion; "
                "the model is not scalar-Frobenius normalized"
            )

    P = sample()
    check_frobenius(P)
    half = (r - 1) // 2 if r > 2 else 1
    p_xs = {x.raw for x in x_multiples(P, half)}
    for _ in range(budget):
        Q = sample()
        if Q.x.raw not in p_xs:
            check_frobenius(Q)
            return P, Q
    raise TorsionBasisError(f"no independent order-{r} point in {budget} samples")


# -- isogenies


class XMap:
    """x-coordinate map of a separable isogeny: x -> num(x)/den(x)."""

    __slots__ = ("num", "den")

    def __init__(self, num: Sequence[FieldElement], den: Sequence[FieldElement]):
        self.num = tuple(num)
        self.den = tuple(den)

    def __call__(self, x: FieldElement) -> FieldElement:
        f = x.field
        num = _horner_t(f, [c.raw for c in self.num], x.raw)
        den = _horner_t(f, [c.raw for c in self.den], x.raw)
        if not den:
            raise XMapPole("x lies in the kernel")
        return FieldElement(f, f.mul_t(num, f.inv_t(den)))

    def eval_many(self, xs: Sequence[FieldElement]) -> list[FieldElement]:
        """Batch evaluation with a single inversion."""
        if not xs:
            return []
        f = xs[0].field
        nc = [c.raw for c in self.num]
        dc = [c.raw for c in self.den]
        nums = [_horner_t(f, nc, x.raw) for x in xs]
        dens = [_horner_t(f, dc, x.raw) for x in xs]
        if not all(dens):
            raise XMapPole("x lies in the kernel")
        invs = f.batch_inv_t(dens)
        return [FieldElement(f, f.mul_t(n, i)) for n, i in zip(nums, invs)]

    def lift(self, emb: Embedding) -> "XMap":
        return XMap([emb(c) for c in self.num], [emb(c) for c in self.den])


def _horner_t(f: Field, coeffs: list, xt):
    acc = 0
    for c in reversed(coeffs):
        acc = f.add_t(f.mul_t(acc, xt), c)
    return acc


def velu_quotient(
    curve: EllipticCurve, xs: Sequence[FieldElement], r: int
) -> tuple[EllipticCurve, XMap]:
    """Codomain and degree-r x-map of the quotient by a cyclic kernel of
    odd prime order r from the kernel's x-coordinates, one per +-pair of
    nonzero points: Velu's x + sum [g'(x_i)/2 / (x - x_i) + g(x_i) / (x - x_i)^2]
    in Kohel's closed form over the kernel polynomial k, that is
    [(r x - 2 s_1) k^2 + g (k'^2 - k k'') - (g'/2) k k'] / k^2.  Only the xs
    need lie in the curve's field.  They are checked once, x-only, by one
    x_chain from xs[0] = x(P) with a single batched inversion:
    x([h+1]P) = x([h]P) with h = (r - 1)/2 and no identity before it, so
    P has order r, and the xs are exactly x([j]P) for 1 <= j <= h."""
    if r == 2 or not is_prime(r):
        raise CurveError(f"kernel order {r} is not an odd prime")
    f = curve.field
    h = (r - 1) // 2
    ok = len(xs) == h
    if ok:
        chain = x_chain(curve, xs[0], h + 1)
        (Xh, Zh), (Xh1, Zh1) = chain[-2], chain[-1]
        ok = all(Z for _, Z in chain) and f.mul_t(Xh, Zh1) == f.mul_t(Xh1, Zh)
    if ok:
        invs = f.batch_inv_t([Z for _, Z in chain[:h]])
        multiples = {f.mul_t(X, iz) for (X, _), iz in zip(chain, invs)}
        ok = multiples == {x.raw for x in xs}
    if not ok:
        raise CurveError(f"x-coordinates do not form an order-{r} kernel")
    # k = prod (x - x_i), g = 4(x^3 + a x + b), s_j = sum x_i^j read from
    # k's top coefficients; the numerator is monic (r - 2h = 1) of degree r
    a, b = curve.a, curve.b
    k = Polynomial([f.one])
    for xi in xs:
        k = k.shift(1) - k * xi
    s1, e2, e3 = -k[h - 1], k[h - 2], -k[h - 3]
    s2 = s1 * s1 - 2 * e2
    s3 = s1 * (s2 - e2) + 3 * e3
    a2 = a - 5 * (6 * s2 + 2 * h * a)
    b2 = b - 7 * (10 * s3 + 6 * a * s1 + 4 * h * b)
    g = Polynomial([4 * b, 4 * a, 0, 4])
    half_dg = Polynomial([2 * a, 0, 6])
    dk = k.derivative()
    den = k * k
    num = (
        Polynomial([-2 * s1, r]) * den
        + g * (dk * dk - k * dk.derivative())
        - half_dg * (k * dk)
    )
    # a product leaves an int 0 where every term was zero
    xmap = XMap([f.element(c) for c in num.coeffs], [f.element(c) for c in den.coeffs])
    return EllipticCurve(a2, b2), xmap


def isomorphism_scale(src: EllipticCurve, dst: EllipticCurve) -> FieldElement | None:
    """u^2 with (x, y) -> (u^2 x, u^3 y) mapping src onto dst, or None if
    the curves are not isomorphic over the ground field.  Requires
    j not in {0, 1728}, i.e. a and b nonzero."""
    if src.field is not dst.field:
        raise CurveError("isomorphism scale requires one ground field")
    if not (src.a and src.b and dst.a and dst.b):
        raise ExcludedJInvariant("isomorphism scale needs a, b nonzero")
    u2 = (dst.b * src.a) / (src.b * dst.a)
    if dst.a != u2 * u2 * src.a or dst.b != u2 * u2 * u2 * src.b:
        return None
    # the relations alone also hold for the non-trivial quadratic twist;
    # u itself must exist in the ground field
    if not src.field.is_square_t(u2.raw):
        return None
    return u2
