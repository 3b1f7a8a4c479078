import copy
import random
import types

import pytest
from hypothesis import given, settings, strategies as st

import isograph.fields as fields_mod
from isograph.curves import EllipticCurve, torsion_field
from isograph.fields import (
    Embedding,
    Field,
    FieldElement,
    FieldMismatch,
    NoSquareRoot,
    NotInSubfield,
    ReducibleModulus,
    is_prime,
    make_extension_field,
)
from oracles import element, on_curve_point, spread_t, torsion_order_extension, unspread_t


def brute_force_irreducible(coeffs, p):
    """Oracle: a monic quadratic is irreducible iff it has no root in F_p."""
    assert len(coeffs) == 3 and coeffs[2] == 1
    return all(
        (x * x + coeffs[1] * x + coeffs[0]) % p != 0 for x in range(p)
    )


def test_is_prime_small():
    primes = [n for n in range(60) if is_prime(n)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]
    assert is_prime(2**31 - 1)
    assert not is_prime(2**32 + 1)


def test_prime_field_modulus_is_x():
    f = make_extension_field(13, 1)
    assert f.modulus == (0, 1)
    assert f.deg == 1 and f.q == 13


def test_canonical_modulus_p5_d2_matches_exhaustive_scan():
    # oracle first: scan all monic quadratics over F_5 in the canonical order
    # (higher-degree coefficient most significant) and record the first
    # irreducible one by brute-force root checking
    p = 5
    first = None
    for c1 in range(p):
        for c0 in range(p):
            if brute_force_irreducible([c0, c1, 1], p):
                first = (c0, c1, 1)
                break
        if first:
            break
    assert first == (2, 0, 1)  # x^2 + 2
    f = make_extension_field(5, 2)
    assert f.modulus == first


def test_canonical_modulus_p13_d2():
    # -2 = 11 must avoid the squares mod 13 for x^2 + 2 to qualify
    squares = sorted({x * x % 13 for x in range(1, 13)})
    assert squares == [1, 3, 4, 9, 10, 12]
    assert 11 not in squares
    # nothing earlier in the scan order qualifies: x^2 is reducible and
    # x^2 + 1 has root since -1 = 12 is a square
    assert 12 in squares
    f = make_extension_field(13, 2)
    assert f.modulus == (2, 0, 1)


def test_reducible_modulus_rejected():
    with pytest.raises(ReducibleModulus, match="reducible"):
        Field(5, (1, 2, 1))  # (x+1)^2


def _mobius(n):
    mu, d = 1, 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            mu = -mu
        d += 1
    return -mu if n > 1 else mu


def _monic(p, d):
    """Every monic polynomial of degree d over F_p, lowest degree first."""
    return [tuple((n // p**i) % p for i in range(d)) + (1,) for n in range(p**d)]


def _products(p, d):
    """Oracle sieve: every monic of degree d with a factor of degree 1..d-1,
    as the set of products f g with deg f + deg g = d."""
    out = set()
    for e in range(1, d // 2 + 1):
        for f in _monic(p, e):
            for g in _monic(p, d - e):
                conv = [0] * (d + 1)
                for i, a in enumerate(f):
                    for j, b in enumerate(g):
                        conv[i + j] += a * b
                out.add(tuple(c % p for c in conv))
    return out


@pytest.mark.parametrize(
    "p,d", [(2, d) for d in range(1, 9)] + [(3, d) for d in range(1, 6)]
    + [(5, d) for d in range(1, 5)] + [(7, d) for d in range(1, 4)],
)
def test_field_accepts_exactly_the_irreducibles(p, d):
    # Gauss: (1/d) sum_{e | d} mu(d/e) p^e monic irreducibles of degree d,
    # and they are exactly the monics that are no product of lower degrees
    accepted = set()
    for m in _monic(p, d):
        try:
            Field(p, m)
        except ReducibleModulus:
            continue
        accepted.add(m)
    gauss = sum(_mobius(d // e) * p**e for e in range(1, d + 1) if d % e == 0) // d
    assert len(accepted) == gauss
    assert accepted == set(_monic(p, d)) - _products(p, d)


def test_search_tests_each_candidate_once(monkeypatch):
    # F_{37^40} has no binomial, so its search walks 74 candidates before
    # x^40 + 2x + 2; each must be tested by exactly one Field construction
    seen = []
    rabin = Field._rabin_irreducible

    def recorded(self):
        seen.append(self.modulus)
        return rabin(self)

    monkeypatch.setattr(Field, "_rabin_irreducible", recorded)
    p, d = 37, 40
    f = make_extension_field.__wrapped__(p, d)  # a fresh search, past the cache
    assert f.modulus == (2, 2) + (0,) * 38 + (1,)
    n_win = 2 + 2 * p
    candidates = [
        tuple((n // p**i) % p for i in range(d)) + (1,)
        for n in range(1, n_win + 1)
        if n % p
    ]
    assert len(candidates) == 74
    assert seen == candidates


@pytest.mark.parametrize("p,d", [(13, 1), (13, 2), (5, 4), (7, 3), (13, 6)])
def test_field_axioms_random(p, d):
    f = make_extension_field(p, d)
    rng = random.Random(7)
    for _ in range(40):
        a = FieldElement(f, f.random_t(rng))
        b = FieldElement(f, f.random_t(rng))
        c = FieldElement(f, f.random_t(rng))
        assert (a + b) * c == a * c + b * c
        assert (a * b) * c == a * (b * c)
        assert a + b == b + a
        if a != element(f, 0):
            assert a * (1 / a) == element(f, 1)
        # Frobenius is additive in characteristic p
        assert (a + b) ** p == a**p + b**p


@given(st.integers(0, 13**4 - 1), st.integers(0, 13**4 - 1))
@settings(max_examples=60, deadline=None)
def test_mul_matches_schoolbook_oracle(na, nb):
    # independent oracle: plain modular polynomial multiplication
    f = make_extension_field(13, 4)
    a = tuple((na // 13**i) % 13 for i in range(4))
    b = tuple((nb // 13**i) % 13 for i in range(4))
    conv = [0] * 7
    for i in range(4):
        for j in range(4):
            conv[i + j] += a[i] * b[j]
    # reduce by the field modulus, naive long division
    m = f.modulus
    for k in range(6, 3, -1):
        c = conv[k] % 13
        conv[k] = 0
        for i in range(4):
            conv[k - 4 + i] = (conv[k - 4 + i] - c * m[i]) % 13
    expected = tuple(c % 13 for c in conv[:4])
    assert f.unpack(f.mul_t(f.pack(a), f.pack(b))) == expected


def _schoolbook(f, a, b):
    """Reference product of two encodings: dense convolution, then the
    term-by-term reduction by the field modulus, x^d = tail(x) one top term
    at a time."""
    d, p = f.deg, f.p
    conv = [0] * (2 * d - 1)
    for i in range(d):
        for j in range(d):
            conv[i + j] += a[i] * b[j]
    tail = [(i, (-c) % p) for i, c in enumerate(f.modulus[:d]) if c]
    for k in range(2 * d - 2, d - 1, -1):
        c = conv[k] % p
        if c:
            for i, t in tail:
                conv[k - d + i] += c * t
    return tuple(c % p for c in conv[:d])


def _reference(f, a, b):
    """_schoolbook on raw operands."""
    return f.pack(_schoolbook(f, f.unpack(a), f.unpack(b)))


def _top(f):
    """The all-(p-1) element: the largest convolution sums, folded words and
    word bounds of the lane reduction."""
    return f.pack((f.p - 1,) * f.deg)


def _mul_pairs(f, rng, n=10):
    top = _top(f)
    pairs = [(top, top), (top, f.random_t(rng))]
    return pairs + [(f.random_t(rng), f.random_t(rng)) for _ in range(n)]


def _dense_fields():
    """Every field of the irreducible monics of degree 8 over F_2 and 5
    over F_3: dense moduli, folding in several rounds."""
    dense = []
    for p, d in ((2, 8), (3, 5)):
        for m in _monic(p, d):
            try:
                dense.append(Field(p, m))
            except ReducibleModulus:
                continue
    return dense


def test_packed_mul_against_dense_path():
    rng = random.Random(3)
    for p in (13, 37, 61):
        for d in (2, 4, 6, 8, 12, 24, 40, 72):
            f = make_extension_field(p, d)
            for a, b in _mul_pairs(f, rng):
                assert f.mul_t(a, b) == _reference(f, a, b), (p, d)


def test_general_path_moduli():
    # the plan takes the narrowest words that hold the all-(p-1) fold: a
    # trinomial, two binomials of one (p, d) either side of 2^32, and the
    # dense Gauss-test moduli, which take several rounds
    rng = random.Random(4)
    trinomial = make_extension_field(13, 5)
    assert trinomial.modulus == (2, 4, 0, 0, 0, 1)
    small_c = Field(1201, (-11, 0, 0, 0, 1))
    large_c = Field(1201, (-1190, 0, 0, 0, 1))
    # largest folded word (1 + 3c)(p-1)^2, at x^0
    assert (1 + 3 * 1190) * 1200**2 >= 2**32 > (1 + 3 * 11) * 1200**2
    assert trinomial.fold_plan == (32, 1)
    assert small_c.fold_plan == (32, 1) and large_c.fold_plan == (64, 1)
    dense = _dense_fields()
    most = max(dense, key=lambda f: f.fold_plan[1])
    assert most.modulus == (1, 1, 1, 0, 0, 0, 0, 1, 1) and most.fold_plan == (32, 7)
    for f in (trinomial, small_c, large_c, *dense):
        for a, b in _mul_pairs(f, rng):
            assert f.mul_t(a, b) == _reference(f, a, b), f.modulus


def _rabin_reference(p, m):
    """Rabin's irreducibility test with _schoolbook products, for a modulus
    Field refuses to build."""
    d = len(m) - 1
    f = types.SimpleNamespace(p=p, deg=d, modulus=m)
    x = (0, 1) + (0,) * (d - 2)

    def frobenius(a):
        out = (1,) + (0,) * (d - 1)
        for bit in bin(p)[2:]:
            out = _schoolbook(f, out, out)
            if bit == "1":
                out = _schoolbook(f, out, a)
        return out

    y = x
    for i in range(1, d + 1):
        y = frobenius(y)
        if i < d and d % i == 0 and is_prime(d // i):
            g, _ = fields_mod._xgcd([(u - v) % p for u, v in zip(y, x)], m, p)
            if len(g) != 1:
                return False
    return y == x


def test_fold_plan_guard():
    # a dense modulus whose fold would pass 64-bit words is refused before
    # the irreducibility test: x^12 + x^11 + ... + x + 2 is irreducible over
    # F_61, and its all-60 tail grows a word to about 1.6e23
    m = (2,) + (1,) * 12
    assert _rabin_reference(61, m)
    with pytest.raises(ValueError, match="past 2\\^64") as err:
        Field(61, m)
    assert not isinstance(err.value, ReducibleModulus)


def test_lane_plan_widens_the_words():
    # every word of F_40009 fits 32 bits, but no split-and-Barrett
    # reduction mod 40009 fits a 32-bit lane; the plan takes 64-bit words
    p = 40009
    assert (p - 1) ** 2 < 2**32
    assert fields_mod._lane_plan(p, 32, (p - 1) ** 2) is None
    f = Field(p, (0, 1))
    assert f.fold_plan == (64, 0) and f.lane_plan == ((), 45)
    a, b = p - 1, p - 2
    assert f.mul_t(a, b) == a * b % p and f.smul_t(a, b) == a * b % p
    assert f.add_t(a, b) == (a + b) % p and f.sub_t(b, a) == p - 1


def test_every_search_candidate_has_a_plan():
    # a candidate n < _MODULUS_SEARCH_CAP has coefficient i nonzero only
    # when p^i <= n, so its tail is at most p - 1 at indices 0..e with
    # p^e < cap; words and support grow with the tail, so this worst tail's
    # fold and lane plans bound every candidate's (ValueError otherwise)
    cap = fields_mod._MODULUS_SEARCH_CAP
    for p in (p for p in range(13, 400, 12) if is_prime(p)):
        e = 0
        while p ** (e + 1) < cap:
            e += 1
        for d in range(2, 81):
            tail = [p - 1 if i <= e else 0 for i in range(d)]
            bits, rounds, splits, k, bound = fields_mod._fold_plan(p, tail)
            assert bits in (32, 64) and 1 <= rounds <= 5, (p, d)
            assert len(splits) <= 2 and 0 < k < bits, (p, d)
            assert bound >= d * (p - 1) ** 2, (p, d)  # frob_t's sums fit


# (p, r) of the benchmark workloads (reciprocity 13 37 5 and 13 61 5, the
# grid p in {13,37,61}, l in {3,5}, N in {1,2,3,6}) and of reciprocity
# 37 61 7, and the degree of the field each order-r table is worked in;
# every one is a binomial except F_{37^40} = x^40 + 2x + 2 (5 does not
# divide 36, so it has no binomial and no half), and every one folds in
# one round at 32 bits
WORKLOAD_TORSION_DEGREES = {
    (13, 2): 2, (13, 3): 2, (13, 5): 4, (13, 37): 36, (13, 61): 6,
    (37, 2): 2, (37, 3): 2, (37, 5): 4, (37, 7): 6, (37, 13): 12, (37, 61): 40,
    (61, 2): 2, (61, 3): 2, (61, 5): 2, (61, 7): 6, (61, 13): 6, (61, 37): 36,
}


def test_workload_fields_take_expected_path():
    needed = set()
    for p, q, l in ((13, 37, 5), (13, 61, 5), (37, 61, 7)):
        for a, b in ((p, q), (q, p)):
            needed |= {(a, 2), (a, b), (a, l)}
    for p in (13, 37, 61):
        needed |= {(p, 2), (p, 3), (p, 5)}
    assert needed == set(WORKLOAD_TORSION_DEGREES)
    for p in (13, 37, 61):
        f = make_extension_field(p, 2)  # the class-table field
        assert f.modulus[1:] == (0, 1) and f.fold_plan == (32, 1), p
    for (p, r), d in sorted(WORKLOAD_TORSION_DEGREES.items()):
        f = torsion_field(p, r).field
        assert f.deg == d, (p, r)
        if (p, r) == (37, 61):
            assert f is make_extension_field(37, 40)
            assert f.modulus == (2, 2) + (0,) * 38 + (1,)
        else:
            assert f.modulus[1:] == (0,) * (d - 1) + (1,), (p, r)
        assert f.fold_plan == (32, 1), (p, r)


def test_torsion_embeddings_spread_to_canonical():
    # the half-field embedding picks the smaller root in F'; spread, it is
    # the canonical F_{p^2} -> F_{p^{2k}} (smaller root in F)
    for (p, r), d in sorted(WORKLOAD_TORSION_DEGREES.items()):
        tf = torsion_field(p, r)
        full = make_extension_field(p, 2 * torsion_order_extension(p, r))
        canonical = Embedding(make_extension_field(p, 2), full)
        if tf.delta is None:
            assert tf.field is full
            assert tf.emb.gen_image == canonical.gen_image
        else:
            assert spread_t(tf.field, full, tf.emb.gen_image) == canonical.gen_image


def test_nonresidue_skips_only_squares():
    # in even degree the search starts at x, past F_p, whose elements are
    # all squares (they lie in F_{p^2}); on every workload field it finds
    # the first non-square of the full search from 0
    workload = [make_extension_field(p, 2) for p in (13, 37, 61)]
    workload += [torsion_field(p, r).field for p, r in sorted(WORKLOAD_TORSION_DEGREES)]
    for f in workload + [make_extension_field(13, 3), make_extension_field(61, 1)]:
        e = (f.q - 1) // 2
        first = next(a for a in map(f.pack, f.iter_tuples()) if a and f.pow_t(a, e) != 1)
        assert f.nonresidue_t() == first, f
        assert f.deg % 2 or first >= f.gen.raw


def test_frob_t_is_the_p_squared_power():
    # every workload torsion field (the half fields and the trinomial
    # F_{37^40} included) and the class-table fields F_{p^2}
    fields = [torsion_field(p, r).field for p, r in WORKLOAD_TORSION_DEGREES]
    fields += [make_extension_field(p, 2) for p in (13, 37, 61)]
    fields = {id(f): f for f in fields}
    assert any(f.modulus[1] for f in fields.values())  # F_{37^40}
    rng = random.Random(7)
    for f in sorted(fields.values(), key=lambda f: (f.p, f.deg)):
        for a in [0, 1, f.gen.raw, f.neg_t(1)] + [f.random_t(rng) for _ in range(8)]:
            assert f.frob_t(a) == f.pow_t(a, f.p * f.p), (f, f.unpack(a))


def test_frob_constants_refuse_a_short_lane_bound():
    # mutation: a lane plan that cannot take frob_t's word sums,
    # d (p - 1)^2, refuses the constants instead of reducing them wrongly
    f = Field(61, make_extension_field(61, 36).modulus)
    assert f._lane_bound >= 36 * 60**2
    f._lane_bound = 36 * 60**2 - 1
    with pytest.raises(ValueError, match="past the lane bound"):
        f.frob_t(f.gen.raw)


def test_half_field_spread_is_an_order_keeping_embedding():
    rng = random.Random(6)
    for p, d in ((13, 8), (61, 12), (13, 72)):
        full = make_extension_field(p, d)
        sub = Field(p, full.modulus[0::2])  # as torsion_field builds F'
        x, y = full.gen, sub.gen
        assert spread_t(sub, full, y.raw) == (x * x).raw
        assert not sub.is_square_t(y.raw)
        for _ in range(10):
            a, b = sub.random_t(rng), sub.random_t(rng)
            sa, sb = spread_t(sub, full, a), spread_t(sub, full, b)
            assert spread_t(sub, full, sub.mul_t(a, b)) == full.mul_t(sa, sb)
            assert spread_t(sub, full, sub.add_t(a, b)) == full.add_t(sa, sb)
            assert unspread_t(sub, full, sa) == a
            assert (sub.unpack(a) < sub.unpack(b)) == (full.unpack(sa) < full.unpack(sb))
        with pytest.raises(NotInSubfield):
            unspread_t(sub, full, x.raw)


def _caught(f, bad, rng):
    """The field agrees with _schoolbook on _mul_pairs and its mutated copy
    does not."""
    pairs = _mul_pairs(f, rng)
    assert all(f.mul_t(a, b) == _reference(f, a, b) for a, b in pairs)
    return any(bad.mul_t(a, b) != _reference(f, a, b) for a, b in pairs)


def test_wrong_binomial_tail_is_caught():
    # mutation: a binomial x^d - c whose packed tail is c + 1
    rng = random.Random(5)
    for p, d in ((61, 2), (13, 12), (61, 72)):
        f = make_extension_field(p, d)
        bad = copy.copy(f)
        bad._tail = f._tail + 1
        assert f._tail == (-f.modulus[0]) % p
        assert _caught(f, bad, rng), (p, d)


def test_wrong_trinomial_tail_is_caught():
    # mutation: F_{37^40} = x^40 + 2x + 2 folding with a wrong x coefficient
    f = make_extension_field(37, 40)
    bits = f.fold_plan[0]
    assert f._tail == 35 + (35 << bits)
    bad = copy.copy(f)
    bad._tail = f._tail + (1 << bits)
    assert _caught(f, bad, random.Random(5))


def test_missing_fold_round_is_caught():
    # mutation: x^8 + x^7 + x^2 + x + 1 over F_2 (seven rounds) folding one
    # round short
    f = Field(2, (1, 1, 1, 0, 0, 0, 0, 1, 1))
    assert f.fold_plan == (32, 7)
    bad = copy.copy(f)
    bad._rounds = range(6)
    assert _caught(f, bad, random.Random(5))


def test_wrong_lane_reduction_is_caught():
    # mutations of the reduction mod p: m - 1 as the Barrett multiplier,
    # or the first split step dropped; either leaves some word of the
    # all-(p-1) square outside [0, p) or wrong
    small_c = Field(1201, (-11, 0, 0, 0, 1))
    assert small_c.lane_plan == ((17, 14), 25)
    cases = [
        (make_extension_field(61, 36), ("m", "split")),
        (make_extension_field(37, 40), ("m", "split")),
        (make_extension_field(13, 72), ("m",)),
        (make_extension_field(61, 2), ("split",)),
        (small_c, ("split",)),
    ]
    for f, mutations in cases:
        top = _top(f)
        assert f.mul_t(top, top) == _reference(f, top, top)
        for mutation in mutations:
            bad = copy.copy(f)
            if mutation == "m":
                bad._m = f._m - 1
            else:
                assert f._splits
                bad._splits = f._splits[1:]
            assert bad.mul_t(top, top) != _reference(f, top, top), (f, mutation)


def _lane_fields():
    """32-bit and 64-bit word plans, p = 2 and the dense multi-round moduli."""
    return [
        make_extension_field(61, 36),
        make_extension_field(37, 40),
        make_extension_field(13, 1),
        Field(1201, (-1190, 0, 0, 0, 1)),
        make_extension_field(2, 8),
        *_dense_fields()[::6],
    ]


def test_linear_ops_match_per_coefficient_reference():
    rng = random.Random(15)
    fields = _lane_fields()
    assert {f.fold_plan[0] for f in fields} == {32, 64}
    assert {2, 3} <= {f.p for f in fields}
    for f in fields:
        p, d = f.p, f.deg

        def operand():
            return [rng.choice((0, p - 1, rng.randrange(p))) for _ in range(d)]

        vectors = [[0] * d, [p - 1] * d, [(p - 1) * (i % 2) for i in range(d)]]
        vectors += [operand() for _ in range(12)]
        for u in vectors:
            a = f.pack(u)
            assert f.unpack(f.neg_t(a)) == tuple((-x) % p for x in u)
            for c in (0, 1, p - 1, p, -1, rng.randrange(p)):
                assert f.unpack(f.smul_t(c, a)) == tuple(c * x % p for x in u)
            for v in vectors:
                b = f.pack(v)
                assert f.unpack(f.add_t(a, b)) == tuple((x + y) % p for x, y in zip(u, v))
                assert f.unpack(f.sub_t(a, b)) == tuple((x - y) % p for x, y in zip(u, v))


def test_sqrt_examples_f13():
    f = make_extension_field(13, 1)
    assert f.sqrt_t(4) == 2  # canonical: 2 < 11
    # Euler criterion oracle: 2^6 = 64 = 12 != 1 mod 13, so no root
    assert pow(2, 6, 13) == 12
    with pytest.raises(NoSquareRoot):
        f.sqrt_t(2)


@pytest.mark.parametrize("p,d", [(13, 1), (13, 2), (5, 4), (61, 2), (7, 3)])
def test_sqrt_roundtrip(p, d):
    f = make_extension_field(p, d)
    rng = random.Random(11)
    found_nonsquare = False
    for _ in range(50):
        x = f.random_t(rng)
        sq = f.mul_t(x, x)
        r = f.sqrt_t(sq)
        assert f.mul_t(r, r) == sq
        assert f.unpack(r) == min(f.unpack(x), f.unpack(f.neg_t(x)))
        if x and not f.is_square_t(x):
            found_nonsquare = True
            with pytest.raises(NoSquareRoot):
                f.sqrt_t(x)
    if d % 2 == 1:
        assert found_nonsquare


def test_inverse_and_batch_inverse():
    f = make_extension_field(37, 6)
    rng = random.Random(5)
    items = [f.random_t(rng) for _ in range(20)]
    items = [t or 1 for t in items]
    batch = f.batch_inv_t(items)
    for t, ti in zip(items, batch):
        assert f.mul_t(t, ti) == 1
        assert ti == f.inv_t(t)
    with pytest.raises(ZeroDivisionError):
        f.inv_t(0)


@pytest.mark.parametrize(
    "p,d", [(13, 1), (61, 1), (61, 2), (13, 12), (13, 72), (13, 5), (37, 40)]
)
def test_inverse_matches_fermat(p, d):
    # prime fields, binomials, and trinomials (F_{13^5} = x^5 + 4x + 2,
    # F_{37^40} = x^40 + 2x + 2): a^-1 = a^(q-2)
    f = make_extension_field(p, d)
    rng = random.Random(8)
    items = [1, _top(f)] + [f.random_t(rng) for _ in range(3)]
    for a in items:
        if not a:
            continue
        ai = f.inv_t(a)
        assert f.mul_t(a, ai) == 1
        assert ai == f.pow_t(a, f.q - 2)


def test_field_mismatch_raises():
    f1 = make_extension_field(13, 1)
    f2 = make_extension_field(13, 2)
    with pytest.raises(FieldMismatch):
        element(f1, 1) + element(f2, 1)


def test_embedding_quadratic_into_tower():
    small = make_extension_field(13, 2)
    for k in (2, 3):
        big = make_extension_field(13, 2 * k)
        emb = Embedding(small, big)
        # ring homomorphism on random pairs, and descend round-trips
        rng = random.Random(2)
        for _ in range(20):
            a = FieldElement(small, small.random_t(rng))
            b = FieldElement(small, small.random_t(rng))
            assert emb(a * b) == emb(a) * emb(b)
            assert emb(a + b) == emb(a) + emb(b)
            assert emb.descend(emb(a)) == a
        # generator image is a root of the source modulus
        z = emb(small.gen)
        m = small.modulus
        assert z * z + m[1] * z + m[0] == element(big, 0)
        with pytest.raises(NotInSubfield):
            emb.descend(big.gen)  # big generator spans outside the quadratic


def test_embedding_refuses_other_sources():
    # embeddings run from F_{p^2} only, into even-degree fields
    for a, b in ((1, 4), (4, 8), (2, 3)):
        with pytest.raises(ValueError, match="F_{p\\^2}"):
            Embedding(make_extension_field(13, a), make_extension_field(13, b))


def test_field_refuses_a_composite_characteristic_or_a_non_monic_modulus():
    # unguarded, F_15[x]/(x + 1) and F_13[x]/(2x + 1) are built with
    # arithmetic that is not a field's: the fold plan reads the tail of the
    # modulus as if p were prime and the leading coefficient 1
    with pytest.raises(ValueError, match="characteristic 15 is not prime"):
        Field(15, (1, 1))
    for modulus in ((1, 2), (3, 1, 2), (5,)):
        with pytest.raises(ValueError, match="monic of degree >= 1"):
            Field(13, modulus)


def test_extension_field_refuses_a_non_prime_or_a_degree_below_one():
    # at p = 0 and 1 no candidate modulus reaches Field's own check (the
    # search range is empty, or its one candidate is divisible by x), so
    # unguarded the search ends in its cap error; d = 0 reaches only
    # Field's monic check and d < 0 a range over a float
    for p in (0, 1, 15):
        with pytest.raises(ValueError, match=f"{p} is not prime"):
            make_extension_field(p, 2)
    for d in (0, -1):
        with pytest.raises(ValueError, match="degree must be >= 1"):
            make_extension_field(13, d)


def test_embedding_refuses_another_characteristic_and_foreign_elements():
    # unguarded, F_{13^2} embeds into F_{37^4}, where every F_37 constant
    # is a square, so a root is found and the map is junk; and a constant
    # of the source or of F_13 descends as if it were in the target
    with pytest.raises(FieldMismatch, match="equal characteristic"):
        Embedding(make_extension_field(13, 2), make_extension_field(37, 4))
    small = make_extension_field(13, 2)
    emb = Embedding(small, make_extension_field(13, 4))
    for foreign in (element(small, 5), element(make_extension_field(13, 1), 5)):
        with pytest.raises(FieldMismatch, match="not in embedding target field"):
            emb.descend(foreign)


def test_element_refuses_raw_ints():
    # a *_t result is a raw packed int; element() reads ints as constants,
    # so it refuses any int that is not one
    f = make_extension_field(13, 2)
    with pytest.raises(ValueError, match=r"FieldElement\(field, raw\)"):
        element(f, f.gen.raw)
    with pytest.raises(ValueError, match=r"not in \[0, p\)"):
        element(f, -1)
    assert element(f, 12).coeffs == (12, 0)
    assert element(f, (0, 1)) == f.gen
    assert FieldElement(f, f.gen.raw) == f.gen
    E = EllipticCurve(element(f, 4), element(f, 7))
    with pytest.raises(ValueError, match="FieldElement"):
        on_curve_point(E, f.gen.raw, 0)
    # operators still coerce any int constant
    x = f.gen
    assert (4 * x).coeffs == (0, 4)
    assert (1728 - x).coeffs == (1728 % 13, 12)
    assert f.coerce_t(-1) == element(f, 12).raw


# a prime field, a binomial modulus and the trinomial one of F_{37^40}
@pytest.mark.parametrize("p, d", [(61, 1), (13, 4), (37, 40)])
def test_int_operand_product_matches_element_product(p, d):
    # an int operand takes Field.smul_t, an element operand the full mul_t
    f = make_extension_field(p, d)
    rng = random.Random(p * 100 + d)
    for _ in range(6):
        x = FieldElement(f, f.random_t(rng))
        for c in (0, 1, -1, p - 1, p, p + 3, -5 * p - 2, 3 * p * p + 7):
            const = element(f, c % p)
            assert (x * c).raw == (x * const).raw == f.mul_t(x.raw, const.raw)
            assert (c * x).raw == (x * const).raw


def test_element_order_and_encoding():
    f = make_extension_field(13, 2)
    xs = [element(f, (a, b)) for a in range(3) for b in range(3)]
    encs = sorted(x.coeffs for x in xs)
    assert encs[0] == (0, 0) and encs == sorted(set(encs))
    assert element(f, (2, 1)).coeffs < element(f, (2, 2)).coeffs
