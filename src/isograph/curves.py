"""Short Weierstrass curves over the field tower, with the machinery the
graph builder needs: torsion bases, x-coordinate multiple lists, Velu
quotients from a kernel's x-coordinates (Kohel's form over the kernel
polynomial, on raw coefficient lists), and quadratic-twist
normalization so the p^2-power Frobenius acts as the scalar -p on every
working model, decided from one point per twist.  Torsion bases check
that action with Field.frob_t, the one p^2-power map.

Order-r torsion has one record, the TorsionField that torsion_field
builds once per (p, r): the Frobenius orbits on it, the field it is
worked in (the half-degree F_p[y]/(g) of an even modulus g(x^2) when -1
is a power of -p mod r) and the twist by y on which its points are
sampled.  Every torsion x is kept on the class model lifted to that
field, where a point of the twist is x / y: torsion_basis moves each
draw there.  walk_orbits is the one walk of Frobenius orbits, behind
subgroup_xs's single generator and the builder's column tables.

A point is its x-coordinate, a raw packed int of the curve's field: P
and -P are one point of the x-line, and no y is ever computed.  Curve
coefficients are FieldElements, and so is random_point's draw; every
torsion x, from torsion_basis through velu_quotient to XMap.eval_many,
is raw.  x_ladder's scalar multiples and x_chain's multiple chains run
on (X : Z) pairs, with Z = 0 the identity.  Each x-only formula is
written once: _x_dbl_t, Brier and Joye's doubling, and _x_dadd_t, their
differential addition, both on (X : Z) and skipping the products by a Z
that is a raw 1; the ladder and the chains are built from those two, and
x_affine is the one normaliser, any number of pairs for one batched
inversion of the Z that are not a raw 1.  x_add gives x(Q + P) from x(P)
and x(Q) as a root of a quadratic.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from typing import NamedTuple, Sequence

from .fields import (
    Embedding,
    Field,
    FieldElement,
    is_prime,
    make_extension_field,
)


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

    def random_point(self, rng: random.Random) -> FieldElement:
        """x of a random point: the first x drawn from rng with
        x^3 + a x + b a square, zero included (a point of order 2)."""
        f = self.field
        while True:
            xt = f.random_t(rng)
            if f.is_square_t(_cubic_t(self, xt)):
                return FieldElement(f, xt)

    def change_field(self, emb: Embedding) -> "EllipticCurve":
        return EllipticCurve(emb(self.a), emb(self.b))

    def __eq__(self, other) -> bool:
        if isinstance(other, EllipticCurve):
            return self.field is other.field and self.a == other.a and self.b == other.b
        return NotImplemented

    def __repr__(self) -> str:
        return f"EllipticCurve(a={self.a.coeffs}, b={self.b.coeffs}, F_{self.field.p}^{self.field.deg})"


def _cubic_t(curve: EllipticCurve, xt):
    """x^3 + a x + b on a raw x: y^2 at the points with this x."""
    f = curve.field
    return f.add_t(f.mul_t(f.add_t(f.sq_t(xt), curve.a.raw), xt), curve.b.raw)


def x_ladder(curve: EllipticCurve, x: int, n: int) -> tuple[int, int]:
    """x([n]P) for n >= 0 as a raw projective pair (X, Z), x = X/Z, from
    the raw x = x(P) alone; Z = 0 is the identity.  The Montgomery ladder
    keeps ([k]P, [k+1]P), whose difference is P, and per bit of n doubles
    one (_x_dbl_t) and adds the two (_x_dadd_t, as [k+1]P + [k]P with P
    affine, so that the first sum's [1]P is the affine B); the last step
    computes only [n]P."""
    P = (x, 1)
    if n < 2:
        return P if n else (1, 0)
    bits = bin(n)[3:]
    R0, R1 = P, _x_dbl_t(curve, P)
    for bit in bits[:-1]:
        if bit == "1":
            R0, R1 = _x_dadd_t(curve, R1, R0, P), _x_dbl_t(curve, R1)
        else:
            R0, R1 = _x_dbl_t(curve, R0), _x_dadd_t(curve, R1, R0, P)
    return _x_dadd_t(curve, R1, R0, P) if bits[-1] == "1" else _x_dbl_t(curve, R0)


def _x_dbl_t(curve: EllipticCurve, A: tuple[int, int]) -> tuple[int, int]:
    """x(2A) as a raw (X : Z) from A = (X : Z), by Brier and Joye's x-only
    doubling (PKC 2002), which on a nonsingular curve has no exceptional
    case (2A = O gives Z = 0):
      x(2A) = ((x^2 - a)^2 - 8b x) / 4(x^3 + a x + b),  x = x_A.
    3 squarings and 6 products; 2 and 2 when A is affine (Z a raw 1)."""
    f = curve.field
    X, Z = A
    XX, XZ, aZZ, bZZ, bZ4 = f.sq_t(X), X, curve.a.raw, curve.b.raw, curve.b.raw
    if Z != 1:
        ZZ, XZ = f.sq_t(Z), f.mul_t(X, Z)
        aZZ, bZZ = f.mul_t(aZZ, ZZ), f.mul_t(bZZ, ZZ)
        bZ4 = f.mul_t(bZZ, ZZ)
    X2 = f.sub_t(f.sq_t(f.sub_t(XX, aZZ)), f.smul_t(8, f.mul_t(XZ, bZZ)))
    return X2, f.smul_t(4, f.add_t(f.mul_t(XZ, f.add_t(XX, aZZ)), bZ4))


def _x_dadd_t(
    curve: EllipticCurve, A: tuple[int, int], B: tuple[int, int], D: tuple[int, int]
) -> tuple[int, int]:
    """x(A + B) as a raw (X : Z) from A, B and their difference D = A - B,
    each a raw (X : Z), by Brier and Joye's differential addition
      x(A + B) + x(A - B) = 2((x_A + x_B)(x_A x_B + a) + 2b) / (x_A - x_B)^2,
    exceptional only at A = B, where D is the identity.  12 products and
    squarings; the products by a raw 1 are skipped, 2 when B is affine and
    2 when D is."""
    f = curve.field
    (X1, Z1), (X2, Z2), (XD, ZD) = A, B, D
    if Z2 == 1:
        XZ, ZZ = X1, Z1
    else:
        XZ, ZZ = f.mul_t(X1, Z2), f.mul_t(Z1, Z2)
    ZX = f.mul_t(Z1, X2)
    T = f.add_t(f.mul_t(X1, X2), f.mul_t(curve.a.raw, ZZ))
    bZ4 = f.mul_t(curve.b.raw, f.sq_t(ZZ))
    U = f.smul_t(2, f.add_t(f.mul_t(f.add_t(XZ, ZX), T), f.smul_t(2, bZ4)))
    DD = f.sq_t(f.sub_t(XZ, ZX))
    if ZD == 1:
        return f.sub_t(U, f.mul_t(XD, DD)), DD
    return f.sub_t(f.mul_t(ZD, U), f.mul_t(XD, DD)), f.mul_t(ZD, DD)


def x_add(curve: EllipticCurve, xp: int, xq: int) -> int:
    """x(Q + P) from the raw xp = x(P) != xq = x(Q), for one of the two
    points +-P with this x, the same one for the same inputs: x(Q + P) and
    x(Q - P) are the roots of
      (xp - xq)^2 X^2 - 2((xp + xq)(xp xq + a) + 2b) X
        + (xp xq - a)^2 - 4b(xp + xq),
    and this is the root taken with the canonical square root of the
    discriminant.  On the x-line P and -P are one point, so for every use
    of x(Q + kP), k < r, either root gives the same set."""
    f = curve.field
    at, bt, s1, s2 = curve.a.raw, curve.b.raw, xp, xq
    s, m = f.add_t(s1, s2), f.mul_t(s1, s2)
    D = f.sq_t(f.sub_t(s1, s2))
    S = f.add_t(f.mul_t(s, f.add_t(m, at)), f.smul_t(2, bt))
    C = f.sub_t(f.sq_t(f.sub_t(m, at)), f.smul_t(4, f.mul_t(bt, s)))
    root = f.sqrt_t(f.sub_t(f.sq_t(S), f.mul_t(D, C)))
    return f.mul_t(f.add_t(S, root), f.inv_t(D))


def x_multiples(curve: EllipticCurve, x: int, count: int) -> list[int]:
    """Raw [x(P), x(2P), ..., x(count*P)] from the raw x = x(P); requires
    count < ord(P).  One x_chain, normalized with one batched inversion."""
    return x_affine(curve.field, x_chain(curve, x, count))


def x_affine(f: Field, chain: Sequence[tuple[int, int]]) -> list[int]:
    """Raw x = X/Z of (X : Z) pairs, one batched inversion of the Z that are
    not a raw 1 (an affine pair is its own X, and an all-affine chain
    inverts nothing); CurveError at Z = 0."""
    if not all(Z for _, Z in chain):
        raise CurveError("hit the identity: count >= point order")
    invs = iter(f.batch_inv_t([Z for _, Z in chain if Z != 1]))
    return [X if Z == 1 else f.mul_t(X, next(invs)) for X, Z in chain]


def x_chain(
    curve: EllipticCurve, x: int, count: int, start: tuple[int, int] | None = None
) -> list[tuple[int, int]]:
    """x([k]P) for k = 1..count as raw projective pairs (X, Z), x = X/Z,
    from the raw x = x(P) alone and without an inversion: one doubling
    (_x_dbl_t), then differential additions [k+1]P = [k]P + P with
    difference [k-1]P (_x_dadd_t, with P affine).  The first Z = 0 is the first multiple that
    is the identity; the pairs after it need not be meaningful.  With
    the raw start = (x(Q), x(Q + P)) in place of the doubling, the same
    additions give x(Q + kP) for k = 0..count-1."""
    P = (x, 1)
    if start is not None:
        chain = [(start[0], 1), (start[1], 1)]
    else:
        chain = [P]
        if count >= 2:
            chain.append(_x_dbl_t(curve, P))
    while len(chain) < count:
        chain.append(_x_dadd_t(curve, chain[-1], P, chain[-2]))
    return chain[:count]


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
    """A 64-bit seed from the repr of `parts`, stable across processes.
    hashlib, and with it OpenSSL, loads on the first call: commands that
    only read cached graphs never derive a seed."""
    import hashlib

    digest = hashlib.sha256(repr(parts).encode()).digest()
    return int.from_bytes(digest[:8], "big")


def _kills_seeded_point(curve: EllipticCurve, n: int, seed: int) -> bool:
    """Whether [n] kills the first point off the 2-torsion, an x with
    x^3 + ax + b != 0, that random_point draws from random.Random(seed)."""
    rng = random.Random(seed)
    x = curve.random_point(rng).raw
    while not _cubic_t(curve, x):
        x = curve.random_point(rng).raw
    return not x_ladder(curve, x, n)[1]


def twist_to_scalar_frobenius(curve: EllipticCurve) -> EllipticCurve:
    """Return the quadratic twist (possibly the input) whose F_{p^2}-point
    count is (p+1)^2, i.e. the model with Frobenius = -p.

    Decided by one point per twist, the first off the 2-torsion from one
    deterministically seeded rng (_kills_seeded_point).  For p = 1 mod 12
    a supersingular curve off j in {0, 1728} has trace +-2p over F_{p^2},
    so one twist has group (Z/(p+1))^2 and the other (Z/(p-1))^2: p + 1
    kills the first point, and on the second [p+1]P = [2]P is not O while
    p - 1 kills it.  So exactly one point must be killed by p + 1 and the
    other by p - 1; otherwise the curve is not supersingular and is
    refused.
    """
    f = curve.field
    p = f.p
    if f.deg != 2:
        raise CurveError("normalization works over F_{p^2}")
    seed = _derive_seed(p, curve.a.coeffs, curve.b.coeffs)
    twists = (curve, quadratic_twist(curve))
    plus = [_kills_seeded_point(cand, p + 1, seed) for cand in twists]
    if plus.count(True) == 1:
        i = plus.index(True)
        if _kills_seeded_point(twists[1 - i], p - 1, seed):
            return twists[i]
    raise CurveError(
        f"p + 1 kills the drawn point on {plus.count(True)} of 2 twists, not"
        " on one with p - 1 killing the other's; the curve is not supersingular"
    )


def frobenius_orbits(p: int, r: int) -> tuple[tuple[int, ...], int]:
    """(reps, o): the orbits of multiplication by p on (Z/r)^x/{+-1}, each
    named by its least member m in 1..max(1, (r-1)/2), in increasing order,
    and their common length o, the least o with p^o = +-1 mod r, which
    exists only when -p is a unit mod r."""
    if math.gcd(p, r) != 1:
        raise CurveError(f"-{p} is not a unit mod {r}")

    def canon(m: int) -> int:
        m %= r
        return min(m, r - m)

    reps: list[int] = []
    seen: set[int] = set()
    for m in range(1, max(1, (r - 1) // 2) + 1):
        if m in seen:
            continue
        reps.append(m)
        x = m
        while x not in seen:
            seen.add(x)
            x = canon(x * p)
    return tuple(reps), len(seen) // len(reps)


class TorsionField(NamedTuple):
    """The order-r torsion of the scalar-Frobenius models of one prime p.

    (reps, orbit) = frobenius_orbits(p, r): the p^2-power Frobenius acts
    as -p, so x([m p]P) = x([m]P)^(p^2), and an order-r subgroup's x are
    the Frobenius orbits of x([m]P), m in reps.  With o = orbit, k, the
    order of -p mod r, is o when (-p)^o = 1 and 2o when (-p)^o = -1; then
    the p^k-power Frobenius acts on E[r] as -1, so every x lies in
    F' = F_{p^k} and E[r] is rational on the twist by a non-square of F'.
    When the canonical F = F_p[x]/(g(x^2)) of degree 2k has an even
    modulus, `field` is F' = F_p[y]/(g), which sits in F by y -> x^2, and
    `delta` is y: g is irreducible because g(x^2) is, and y is a
    non-square because its roots +-x lie outside F'.  Otherwise (k odd,
    r = 2, or an odd modulus such as F_{37^40}'s) `field` is F and `delta`
    None.  y -> x^2 moves coefficient i to position 2i and so keeps the
    order of encodings: `emb` picks the smaller root, as the canonical
    F_{p^2} -> F does, and tables sorted in `field` sort as in F.  Points
    are drawn on the twist by `delta`, their x kept on the models lifted
    by `emb` (torsion_basis).
    """

    r: int
    field: Field
    emb: Embedding
    delta: FieldElement | None
    reps: tuple[int, ...]
    orbit: int


def _check_frobenius_sign(curve: EllipticCurve) -> None:
    """CurveError unless [p + 1] kills one seeded point off the 2-torsion
    of the F_{p^2} model `curve`.  On the twist with Frobenius +p, whose
    group is (Z/(p-1))^2, [p + 1]P = [2]P is not O.  After it only x are
    seen, on which [p] and [-p] agree, so nothing else tells the two
    twists apart: at (13, 5, 1) a wrong twist gives the right Brandt
    matrix and other edges.  The class table runs it on every model."""
    p = curve.field.p
    if not _kills_seeded_point(curve, p + 1, _derive_seed(p, curve.a.coeffs, curve.b.coeffs)):
        raise CurveError(
            "[p + 1] does not kill a point of the F_{p^2} model;"
            " Frobenius does not act as -p on it"
        )


@functools.lru_cache(maxsize=None)
def torsion_field(p: int, r: int) -> TorsionField:
    """The TorsionField of the order-r tables for the prime p; one per
    (p, r) per process, so its field and embedding objects are shared."""
    reps, o = frobenius_orbits(p, r)
    k = o if pow(-p, o, r) == 1 % r else 2 * o
    full = make_extension_field(p, 2 * k)
    m = full.modulus
    if k % 2 or any(m[1::2]):  # k odd, or an odd modulus such as F_{37^40}'s
        field, delta = full, None
    else:
        field = Field(p, m[0::2])
        delta = field.gen
    emb = Embedding(make_extension_field(p, 2), field)
    return TorsionField(r, field, emb, delta, reps, o)


def torsion_basis(
    curve: EllipticCurve,
    r: int,
    rng: random.Random,
    delta: FieldElement | None = None,
) -> tuple[int, int, list[int]]:
    """The raw x(P), x(Q) on `curve` of independent points of exact prime
    order r, and the raw x of <P> as subgroup_xs walks them: x([m]P) for
    m = reps[i] of frobenius_orbits(p, r) sits at index i o.

    The field has degree 2k' and the curve is a scalar-Frobenius model M
    base-changed to it.  E[r] is rational on M when (-p)^k' = 1 mod r, and
    on the twist by the non-square `delta` of the field when
    (-p)^k' = -1 mod r (see TorsionField); a point (x, y) of that twist is
    (x / delta, y / delta^(3/2)) on M over the quadratic extension.  Each
    draw is moved to M's x-line at once, and the rest runs on M.  The group
    drawn from is (Z/m)^2 with m = |(-p)^k' + 1| on the twist and
    |(-p)^k' - 1| without it, and cofactor multiplication (x_ladder) lands
    in E[r]; a multiple that is not r-power torsion means the model is not
    what it claims and is refused.

    Each basis x is checked against the p^2-power Frobenius (Field.frob_t),
    which acts as -p on M: x^(p^2) = x([-p]P).  subgroup_xs walks P's
    Frobenius orbits to the x of <P>, and Q is independent of P when its
    x is not among them.  On the x-line [p] and [-p] agree, so the check
    does not see a model with Frobenius +p; the class table checks each
    F_{p^2} model for that (_check_frobenius_sign).
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
    twist = curve if delta is None else quadratic_twist(curve, delta)
    inv = None if delta is None else f.inv_t(delta.raw)

    def times(x: int, n: int) -> int | None:
        X, Z = x_ladder(curve, x, n)
        return f.mul_t(X, f.inv_t(Z)) if Z else None

    def sample() -> int:
        for _ in range(budget):
            x = twist.random_point(rng).raw
            x = times(x if inv is None else f.mul_t(x, inv), cofactor)
            if x is None:
                continue
            # reduce from order r^j (j <= e) to exact order r
            for _ in range(e):
                xr = times(x, r)
                if xr is None:
                    return x
                x = xr
            raise TorsionBasisError(
                f"cofactor multiple is not {r}-power torsion; "
                f"the group is not (Z/{m})^2"
            )
        raise TorsionBasisError(f"no order-{r} point in {budget} samples")

    def check_frobenius(x: int) -> None:
        X, Z = x_ladder(curve, x, min(p % r, -p % r))  # x([-p]P) = x([p]P)
        if f.mul_t(f.frob_t(x), Z) != X:
            raise CurveError(
                "Frobenius does not act as -p on sampled torsion; "
                "the model is not scalar-Frobenius normalized"
            )

    P = sample()
    check_frobenius(P)
    p_xs = subgroup_xs(curve, P, *frobenius_orbits(p, r))
    for _ in range(budget):
        Q = sample()
        if Q not in p_xs:
            check_frobenius(Q)
            return P, Q, p_xs
    raise TorsionBasisError(f"no independent order-{r} point in {budget} samples")


def subgroup_xs(curve: EllipticCurve, x: int, reps: Sequence[int], o: int) -> list[int]:
    """The raw x of <P>, one per +-pair, from the raw x = x(P) of order r:
    walk_orbits of x([m]P), m in reps, from one chain up to the largest m."""
    multiples = x_multiples(curve, x, reps[-1])
    return walk_orbits(curve.field, [multiples[m - 1] for m in reps], reps, o)


def walk_orbits(f: Field, starts: Sequence[int], reps: Sequence[int], o: int) -> list[int]:
    """The Frobenius orbits of the raw starts x([m]P), m in reps, orbit by
    orbit, with (reps, o) = frobenius_orbits(p, r) on a model where
    x^(p^2) = x([-p]P): the x of <P>, one per +-pair.  CurveError unless
    each closes after exactly o steps."""
    out = []
    for m, t in zip(reps, starts):
        for _ in range(o):
            out.append(t)
            t = f.frob_t(t)
        if t != out[-o]:
            raise CurveError(f"Frobenius orbit of x([{m}]P) does not close after {o} steps")
    return out


# -- isogenies


class XMap:
    """x-coordinate map of a separable isogeny, x -> num(x)/den(x), with
    raw coefficient tuples over `field`, lowest degree first."""

    __slots__ = ("field", "num", "den")

    def __init__(self, field: Field, num: Sequence[int], den: Sequence[int]):
        self.field = field
        self.num = tuple(num)
        self.den = tuple(den)

    def eval_many(self, xs: Sequence[int]) -> list[int]:
        """The raw images of the raw xs, with a single batched inversion."""
        f = self.field
        nums = [_horner_t(f, self.num, x) for x in xs]
        dens = [_horner_t(f, self.den, x) for x in xs]
        if not all(dens):
            raise XMapPole("x lies in the kernel")
        return [f.mul_t(n, i) for n, i in zip(nums, f.batch_inv_t(dens))]

    def lift(self, emb: Embedding) -> "XMap":
        return XMap(emb.dst, map(emb.map_t, self.num), map(emb.map_t, self.den))


def _horner_t(f: Field, coeffs: Sequence[int], xt: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = f.add_t(f.mul_t(acc, xt), c)
    return acc


def _poly_mul_t(f: Field, u: Sequence[int], v: Sequence[int]) -> list[int]:
    """The product of two raw coefficient lists, lowest degree first.  A
    coefficient below p is an F_p constant, its raw int the constant
    itself, so it scales by smul_t; zero coefficients are skipped."""
    out = [0] * max(0, len(u) + len(v) - 1)
    p = f.p
    for i, s in enumerate(u):
        if not s:
            continue
        for j, t in enumerate(v):
            if t:
                st = f.smul_t(s, t) if s < p else f.smul_t(t, s) if t < p else f.mul_t(s, t)
                out[i + j] = f.add_t(out[i + j], st)
    return out


def velu_quotient(
    curve: EllipticCurve, xs: Sequence[int], r: int
) -> tuple[EllipticCurve, XMap]:
    """Codomain and degree-r x-map of the quotient by a cyclic kernel of
    odd prime order r from the kernel's raw x-coordinates, one per +-pair
    of nonzero points: Velu's x + sum [g'(x_i)/2 / (x - x_i) + g(x_i) / (x - x_i)^2]
    in Kohel's closed form over the kernel polynomial k, that is
    [(r x - 2 s_1) k^2 + g (k'^2 - k k'') - (g'/2) k k'] / k^2, on raw
    coefficient lists (_poly_mul_t).  Only the xs need lie in the curve's
    field.  They are checked once, x-only, by one x_chain from
    xs[0] = x(P) with a single batched inversion: x([h+1]P) = x([h]P) with
    h = (r - 1)/2 and no identity before it, so P has order r, and the xs
    are exactly x([j]P) for 1 <= j <= h."""
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
        ok = set(x_affine(f, chain[:h])) == set(xs)
    if not ok:
        raise CurveError(f"x-coordinates do not form an order-{r} kernel")
    # k = prod (x - x_i), g = 4(x^3 + a x + b), s_j = sum x_i^j read from
    # k's top coefficients k_{h-j}, (-1)^j times the elementary symmetric
    # e_j; the numerator is monic (r - 2h = 1) of degree r
    k = [1]
    for xi in xs:
        k = _poly_mul_t(f, k, [f.neg_t(xi), 1])
    k3, k2, k1 = (FieldElement(f, c) for c in ([0, 0] + k)[h - 1 : h + 2])
    s1 = -k1
    s2 = s1 * s1 - 2 * k2
    s3 = s1 * (s2 - k2) - 3 * k3
    a, b = curve.a, curve.b
    a2 = a - 5 * (6 * s2 + 2 * h * a)
    b2 = b - 7 * (10 * s3 + 6 * a * s1 + 4 * h * b)

    def diff(u: Sequence[int], n: int = 1) -> list[int]:  # n u'
        return [f.smul_t(n * i, c) for i, c in enumerate(u) if i]

    def plus(*terms: Sequence[int]) -> list[int]:
        columns = itertools.zip_longest(*terms, fillvalue=0)
        return [functools.reduce(f.add_t, cs) for cs in columns]

    c = f.coerce_t
    g = [(4 * b).raw, (4 * a).raw, 0, c(4)]
    minus_half_dg = [(-2 * a).raw, 0, c(-6)]
    dk = diff(k)
    den = _poly_mul_t(f, k, k)
    num = plus(
        _poly_mul_t(f, [(-2 * s1).raw, c(r)], den),
        _poly_mul_t(f, g, plus(_poly_mul_t(f, dk, dk), _poly_mul_t(f, k, diff(dk, -1)))),
        _poly_mul_t(f, minus_half_dg, _poly_mul_t(f, k, dk)),
    )
    return EllipticCurve(a2, b2), XMap(f, num, den)


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
