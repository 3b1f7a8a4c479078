"""Exact arithmetic in prime fields and their extension towers.

A field is F_p[x]/(m) for a canonical monic irreducible m found by
deterministic search, so every run (and every machine) agrees on element
encodings.  An encoding is the coefficient tuple, lowest degree first; all
"lexicographically smaller" tie-breaks compare encodings.

Field works on raw elements: one packed int per element, coefficient i in
word i (32 or 64 bits), every word in [0, p).  Field.pack and
Field.unpack convert between raw ints and encodings, and the tuples appear
only there.  Two raw ints are equal exactly when their encodings are, so
raw ints serve as dict keys, but their order is not the encodings' order.
An integer constant's raw int is the constant mod p (Field.coerce_t).
FieldElement is a thin operator wrapper holding the raw int, for curve
coefficients and j-invariants; torsion x-coordinates and x-maps stay raw.

F_p[x] has one multiply and one Euclid.  Every product modulo m is
Field.mul_t; _xgcd, an extended Euclid on coefficient lists, gives both
inverses and the gcds of Rabin's irreducibility test, which Field runs on
its own arithmetic as it is built (ReducibleModulus if m fails).  The
modulus search builds a Field per candidate and keeps the first that
stands, so each candidate is tested once.

A single big-int multiply of two raw ints does the whole convolution, and
mul_t reduces it one way for every modulus: with x^d = tail(x) and the
tail packed into one integer T, each round folds the high words back as
low + high * T.  A binomial x^d - c is one round with T = c.  Every word
is then taken mod p at once, inside the integer: split steps
w -> (w >> s) (2^s mod p) + (w mod 2^s) shrink the words, and one Barrett
step (Barrett, CRYPTO '86) subtracts the exact quotient times p.  Sums and
differences subtract p from the words that reach it by reading a sign bit
per word.  Field derives the word width, the round count and the split
and Barrett constants from the modulus by folding the all-(p - 1) product
in exact integers, and refuses a modulus without such a plan (ValueError).

The p^2-power Frobenius is F_p-linear, so Field.frob_t is its one
definition: the coefficients scale d packed constants F_i = x^(i p^2),
derived once per field, and one lane reduction takes the sum, whose words
reach d (p - 1)^2; the field refuses constants its lane plan cannot take
(ValueError).
"""

from __future__ import annotations

import functools
import operator
import random
import struct
from typing import Iterator, Sequence

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; the base set covers n < 3.3e24."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class FieldMismatch(ValueError):
    """Raised when an operation mixes elements of different fields."""


class NoSquareRoot(ValueError):
    """Raised by sqrt on a quadratic non-residue."""


class NotInSubfield(ValueError):
    """Raised when descending an element that is not in the embedded image."""


class ReducibleModulus(ValueError):
    """Raised by Field for a modulus that is not irreducible over F_p."""


def factorize(n: int) -> list[tuple[int, int]]:
    """[(prime, exponent), ...] of n > 0 in increasing order, by trial division."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out


# ---------------------------------------------------------------------------
# F_p[x] outside the field: coefficient lists, lowest degree first, without
# trailing zeros, for the extended Euclid alone; products mod m go through
# Field.mul_t


def _poltrim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _xgcd(a: Sequence[int], m: Sequence[int], p: int) -> tuple[list[int], list[int]]:
    """Extended Euclid in F_p[x] for deg a < deg m: (g, s) with g a gcd of a
    and m (not made monic) and s a = g mod m.  Each remainder is reduced in
    place one leading term at a time, its cofactor updated alongside."""
    r0, r1 = list(m), _poltrim(list(a))
    s0, s1 = [], [1]  # r_i = s_i a mod m
    while r1:
        d1 = len(r1) - 1
        inv_lead = pow(r1[-1], p - 2, p)
        while len(r0) > d1:
            f = r0.pop() * inv_lead % p  # the leading term cancels
            shift = len(r0) - d1
            r0[shift:] = [(x - f * y) % p for x, y in zip(r0[shift:], r1)]
            _poltrim(r0)
            top = shift + len(s1)
            if len(s0) < top:
                s0 += [0] * (top - len(s0))
            s0[shift:top] = [(x - f * y) % p for x, y in zip(s0[shift:top], s1)]
        r0, r1, s0, s1 = r1, r0, s1, s0
    return r0, s0


def _fold_plan(
    p: int, tail: list[int]
) -> tuple[int, int, tuple[int, ...], int, int]:
    """(word bits, rounds, split shifts, Barrett k, lane bound) of the
    packed product modulo x^d - tail(x), d = len(tail), 0 <= tail[i] < p.
    The all-(p - 1) product is folded in exact integers; every word of
    every product is a sum of nonnegative terms, so no other product has a
    larger word or a longer support.  The words are the narrowest (32 or
    64 bits) that hold every folded word and admit a lane reduction of the
    largest word the fold leaves, the lane bound.  That is at least
    d (p - 1)^2, word d - 1 of the product, to which folding only adds."""
    d = len(tail)
    words = [(p - 1) ** 2 * min(k + 1, 2 * d - 1 - k) for k in range(2 * d - 1)]
    top, rounds = max(words), 0
    while len(words) > d:
        hi, words = words[d:], words[:d] + [0] * (len(words) - d - 1)
        for k, h in enumerate(hi):
            for i, t in enumerate(tail):
                words[k + i] += h * t
        while len(words) > d and not words[-1]:
            words.pop()
        top, rounds = max(top, *words), rounds + 1
    for bits in (32, 64):
        lanes = _lane_plan(p, bits, max(words)) if top < 2**bits else None
        if lanes is not None:
            return (bits, rounds, *lanes, max(words))
    raise ValueError(
        f"packed fold words reach {top}, past 2^64 or past a lane reduction"
        f" mod {p}, for x^{d} = {tail}"
    )


def _lane_plan(p: int, bits: int, bound: int) -> tuple[tuple[int, ...], int] | None:
    """(split shifts, Barrett k) reducing every word w <= bound of a packed
    integer mod p inside its own bits-wide lane, or None.  A split by s maps
    w to (w >> s) (2^s mod p) + (w mod 2^s); each takes the s that leaves
    the smallest bound, while the Barrett step is out of reach.  The
    Barrett step w - floor(w m / 2^k) p, m = ceil(2^k / p), needs
    bound * m < 2^bits (no lane spills into the next) and
    bound * (m p - 2^k) < 2^k (the quotient is exact, so the word lands in
    [0, p))."""
    splits: list[int] = []
    while True:
        for k in range(1, bits):
            m = -(-(1 << k) // p)
            if bound * m < 1 << bits and bound * (m * p - (1 << k)) < 1 << k:
                return tuple(splits), k
        nxt, s = min(
            ((bound >> s) * pow(2, s, p) + min(bound, (1 << s) - 1), s)
            for s in range(1, bits)
        )
        if nxt >= bound:
            return None
        splits.append(s)
        bound = nxt


# ---------------------------------------------------------------------------


class Field:
    """F_p[x]/(modulus).  Use make_extension_field for the canonical modulus.

    The *_t methods take and return raw elements: packed ints holding
    coefficient i in word i of the fold plan's width, every word in
    [0, p).  pack and unpack convert between raw ints and encodings."""

    def __init__(self, p: int, modulus: Sequence[int]):
        if not is_prime(p):
            raise ValueError(f"field characteristic {p} is not prime")
        modulus = tuple(c % p for c in modulus)
        if len(modulus) < 2 or modulus[-1] != 1:
            raise ValueError("modulus must be monic of degree >= 1")
        self.p = p
        self.modulus = modulus
        self.deg = d = len(modulus) - 1
        self.q = p**d
        self._nonresidue_t: int | None = None
        tail = [(-c) % p for c in modulus[:d]]  # x^d = sum(tail[i] x^i)
        bits, rounds, splits, k, bound = _fold_plan(p, tail)
        self.fold_plan = (bits, rounds)  # of mul_t's product
        self.lane_plan = (splits, k)  # of its reduction mod p
        self._lane_bound = bound  # the largest word _reduce takes

        def lanes(w: int) -> int:  # w in every word
            return sum(w << (bits * i) for i in range(d))

        self._shift = bits * d
        self._mask = (1 << self._shift) - 1
        self._tail = sum(t << (bits * i) for i, t in enumerate(tail))
        self._rounds = range(rounds)
        self._splits = tuple(
            (s, lanes((1 << (bits - s)) - 1), pow(2, s, p), lanes((1 << s) - 1))
            for s in splits
        )
        self._m, self._k = -(-(1 << k) // p), k
        self._quot_mask = lanes((1 << (bits - k)) - 1)
        # w + flip has bit bits-1 of a word set exactly when that word of w
        # is >= p, for words below 2p
        self._p_lanes, self._flip = lanes(p), lanes((1 << (bits - 1)) - p)
        self._sign, self._ones = bits - 1, lanes(1)
        self._bytes = bits // 8 * d
        words = struct.Struct(f"<{d}{'I' if bits == 32 else 'Q'}")
        self._pack, self._unpack = words.pack, words.unpack
        if d > 1 and not self._rabin_irreducible():
            raise ReducibleModulus(f"modulus {modulus} is reducible over F_{p}")

    def _rabin_irreducible(self) -> bool:
        """Rabin's test on the field's own arithmetic: walking y -> y^p from
        y = x, gcd(y - x, m) = 1 at each depth d/q for the primes q | d, and
        y = x at depth d."""
        p, d = self.p, self.deg
        x = self.gen.raw
        checkpoints = {d // q for q, _ in factorize(d)}
        y = x
        for i in range(1, d + 1):
            y = self.pow_t(y, p)
            if i in checkpoints:
                g, _ = _xgcd(self.unpack(self.sub_t(y, x)), self.modulus, p)
                if len(g) != 1:
                    return False
        return y == x

    # -- construction / conversion

    def pack(self, coeffs: Sequence[int]) -> int:
        """The raw int of an encoding: d coefficients in [0, p)."""
        return int.from_bytes(self._pack(*coeffs), "little")

    def unpack(self, a: int) -> tuple[int, ...]:
        """The encoding of a raw int, lowest degree first."""
        return self._unpack(a.to_bytes(self._bytes, "little"))

    def coerce_t(self, value: int) -> int:
        """The raw int of the integer constant `value`: the constant mod p."""
        return value % self.p

    @property
    def gen(self) -> "FieldElement":
        return FieldElement(self, 1 if self.deg == 1 else 1 << self.fold_plan[0])

    def iter_tuples(self, start: int = 0) -> Iterator[tuple[int, ...]]:
        """The q encodings in counting order (constant coefficient fastest),
        from index `start` on."""
        p, d = self.p, self.deg
        for n in range(start, self.q):
            yield tuple((n // p**i) % p for i in range(d))

    def random_t(self, rng: random.Random) -> int:
        return self.pack([rng.randrange(self.p) for _ in range(self.deg)])

    # -- raw arithmetic, every word at once

    def add_t(self, a, b):
        s = a + b  # words below 2p
        return s - ((s + self._flip) >> self._sign & self._ones) * self.p

    def sub_t(self, a, b):
        s = a + self._p_lanes - b  # words in [1, 2p)
        return s - ((s + self._flip) >> self._sign & self._ones) * self.p

    def neg_t(self, a):
        return self.sub_t(0, a)

    def smul_t(self, c: int, a):
        return self._reduce(a * (c % self.p))

    def mul_t(self, a, b):
        # one big-int multiply is the whole convolution, a coefficient per
        # little-endian word; each round folds the words from x^d up onto
        # the low d as high * T.  The plan keeps every word below 2^bits,
        # so no carry crosses a word, and leaves nothing above x^(d-1)
        prod = a * b
        mask, shift, tail = self._mask, self._shift, self._tail
        for _ in self._rounds:
            prod = (prod & mask) + (prod >> shift) * tail
        return self._reduce(prod)

    def _reduce(self, w: int) -> int:
        """Every word of w, each at most the fold plan's bound, mod p in its
        own lane: the split steps, then one Barrett step (see _lane_plan)."""
        for s, hi, c, lo in self._splits:
            w = (w >> s & hi) * c + (w & lo)
        return w - (w * self._m >> self._k & self._quot_mask) * self.p

    def frob_t(self, a):
        """a^(p^2), which is F_p-linear: sum a_i F_i with F_i = x^(i p^2),
        one lane reduction of d products of two words below p."""
        return self._reduce(sum(map(operator.mul, self.unpack(a), self._frob)))

    @functools.cached_property
    def _frob(self) -> tuple[int, ...]:
        """frob_t's constants F_i = x^(i p^2), i < d, derived once from the
        modulus; their sums have words up to d (p - 1)^2, which the lane
        plan must take."""
        p, d = self.p, self.deg
        if d * (p - 1) ** 2 > self._lane_bound:
            raise ValueError(
                f"p^2-Frobenius words reach {d * (p - 1) ** 2}, past the lane"
                f" bound {self._lane_bound} of F_{p}^{d}"
            )
        F1 = self.pow_t(self.gen.raw, p * p)
        out = [1]
        for _ in range(d - 1):
            out.append(self.mul_t(out[-1], F1))
        return tuple(out)

    def sq_t(self, a):
        return self.mul_t(a, a)

    def pow_t(self, a, e: int):
        if e < 0:
            return self.pow_t(self.inv_t(a), -e)
        result = 1
        base = a
        while e:
            if e & 1:
                result = self.mul_t(result, base)
            base = self.mul_t(base, base)
            e >>= 1
        return result

    def inv_t(self, a):
        if not a:
            raise ZeroDivisionError("inversion of zero field element")
        p = self.p
        # m is irreducible, so gcd(a, m) is a nonzero constant g and s a = g
        g, s = _xgcd(self.unpack(a), self.modulus, p)
        s += [0] * (self.deg - len(s))
        return self.smul_t(pow(g[0], p - 2, p), self.pack(s))

    def batch_inv_t(self, items: Sequence[int]) -> list[int]:
        """Montgomery trick: len(items) inversions for one inv_t."""
        n = len(items)
        if n == 0:
            return []
        prefix = [items[0]]
        for i in range(1, n):
            prefix.append(self.mul_t(prefix[-1], items[i]))
        acc = self.inv_t(prefix[-1])
        out: list[int] = [0] * n
        for i in range(n - 1, 0, -1):
            out[i] = self.mul_t(acc, prefix[i - 1])
            acc = self.mul_t(acc, items[i])
        out[0] = acc
        return out

    # -- quadratic residues

    def nonresidue_t(self) -> int:
        """First non-square in counting order; fixed search order keeps sqrt
        deterministic.  In even degree every element of F_p is a square (it
        lies in F_{p^2}), so the search starts at x, index p."""
        if self._nonresidue_t is None:
            e = (self.q - 1) // 2
            for t in self.iter_tuples(self.p if self.deg % 2 == 0 else 0):
                a = self.pack(t)
                if a and self.pow_t(a, e) != 1:
                    self._nonresidue_t = a
                    break
            else:  # pragma: no cover - half of all elements qualify
                raise RuntimeError("no quadratic non-residue found")
        return self._nonresidue_t

    def is_square_t(self, a) -> bool:
        return not a or self.pow_t(a, (self.q - 1) // 2) == 1

    def sqrt_t(self, a):
        """Canonical square root (the one with the lexicographically smaller
        encoding)."""
        if not a:
            return a
        q = self.q
        if self.pow_t(a, (q - 1) // 2) != 1:
            raise NoSquareRoot(
                f"{self.unpack(a)} is not a square in F_{self.p}^{self.deg}"
            )
        # Tonelli-Shanks with the canonical non-residue; for q = 3 mod 4
        # (s = 1) the loop never runs and r = a^((q+1)/4)
        m = q - 1
        s = (m & -m).bit_length() - 1
        m >>= s
        c = self.pow_t(self.nonresidue_t(), m)
        r = self.pow_t(a, (m + 1) // 2)
        t = self.pow_t(a, m)
        while t != 1:
            t2, i = t, 0
            while t2 != 1:
                t2 = self.sq_t(t2)
                i += 1
            b = c
            for _ in range(s - i - 1):
                b = self.sq_t(b)
            r = self.mul_t(r, b)
            c = self.sq_t(b)
            t = self.mul_t(t, c)
            s = i
        return min(r, self.neg_t(r), key=self.unpack)

    def __repr__(self) -> str:
        return f"Field(p={self.p}, deg={self.deg})"


class FieldElement:
    """Operator wrapper over Field's raw arithmetic: `raw` is the packed
    int, `coeffs` the coefficient tuple, lowest degree first, the key that
    sorts elements."""

    __slots__ = ("field", "raw")

    def __init__(self, field: Field, raw: int):
        self.field = field
        self.raw = raw

    @property
    def coeffs(self) -> tuple[int, ...]:
        return self.field.unpack(self.raw)

    def _coerce(self, other) -> int:
        if isinstance(other, FieldElement):
            if other.field is not self.field:
                raise FieldMismatch("operands from different fields")
            return other.raw
        if isinstance(other, int):
            return self.field.coerce_t(other)
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other):
        t = self._coerce(other)
        if t is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, self.field.add_t(self.raw, t))

    __radd__ = __add__

    def __sub__(self, other):
        t = self._coerce(other)
        if t is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, self.field.sub_t(self.raw, t))

    def __rsub__(self, other):
        t = self._coerce(other)
        if t is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, self.field.sub_t(t, self.raw))

    def __mul__(self, other):
        if isinstance(other, int):
            # a constant has no word above x^0, so its product needs no fold
            return FieldElement(self.field, self.field.smul_t(other, self.raw))
        t = self._coerce(other)
        if t is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, self.field.mul_t(self.raw, t))

    __rmul__ = __mul__

    def __truediv__(self, other):
        t = self._coerce(other)
        if t is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, self.field.mul_t(self.raw, self.field.inv_t(t)))

    def __rtruediv__(self, other):
        t = self._coerce(other)
        if t is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, self.field.mul_t(t, self.field.inv_t(self.raw)))

    def __pow__(self, e: int):
        return FieldElement(self.field, self.field.pow_t(self.raw, e))

    def __neg__(self):
        return FieldElement(self.field, self.field.neg_t(self.raw))

    def __eq__(self, other) -> bool:
        if isinstance(other, FieldElement):
            return self.field is other.field and self.raw == other.raw
        if isinstance(other, int):
            return self.raw == self.field.coerce_t(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((id(self.field), self.raw))

    def __bool__(self) -> bool:
        return self.raw != 0

    def __repr__(self) -> str:
        return f"FieldElement{self.coeffs}@F_{self.field.p}^{self.field.deg}"


_MODULUS_SEARCH_CAP = 500_000


@functools.cache
def make_extension_field(p: int, d: int) -> Field:
    """F_{p^d} with the canonical modulus: the first monic irreducible of
    degree d when non-leading coefficient vectors are ordered with the
    highest-degree coefficient most significant.  Cached, so field objects
    are shared and element identity checks are cheap."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if d < 1:
        raise ValueError("degree must be >= 1")
    for n in range(min(p**d, _MODULUS_SEARCH_CAP)):
        cand = [(n // p**i) % p for i in range(d)] + [1]
        if d > 1 and cand[0] == 0:
            continue  # divisible by x
        try:
            return Field(p, cand)
        except ReducibleModulus:
            continue
    raise RuntimeError(  # pragma: no cover - irreducibles are dense
        f"modulus search cap hit for p={p}, d={d}"
    )


class Embedding:
    """Canonical embedding F_{p^2} -> F_{p^b}, b even.

    The image of the source generator is the lexicographically smaller root
    of the source modulus in the target field, which makes the embedding
    (and hence every derived encoding) deterministic.  Into the subfield
    F' = F_p[y]/(g) of F = F_p[x]/(g(x^2)) (see curves.TorsionField) this
    is the restriction of the canonical embedding into F, since y -> x^2
    keeps the order of encodings and so picks the same root.
    """

    def __init__(self, src: Field, dst: Field):
        if src.p != dst.p:
            raise FieldMismatch("embedding requires equal characteristic")
        if src.deg != 2 or dst.deg % 2:
            raise ValueError("embeddings run from F_{p^2} into an even-degree field")
        self.src = src
        self.dst = dst
        # root of x^2 + b1 x + b0 via the quadratic formula
        b0, b1 = src.modulus[0], src.modulus[1]
        disc = dst.coerce_t((b1 * b1 - 4 * b0) % src.p)
        root = dst.sqrt_t(disc)
        inv2 = pow(2, dst.p - 2, dst.p)
        minus_b1 = dst.coerce_t(-b1)
        r1 = dst.smul_t(inv2, dst.add_t(minus_b1, root))
        r2 = dst.smul_t(inv2, dst.sub_t(minus_b1, root))
        self.gen_image = min(r1, r2, key=dst.unpack)

    # a constant's raw int is the constant itself, in every field

    def map_t(self, t: int) -> int:
        c0, c1 = self.src.unpack(t)
        return self.dst.add_t(c0, self.dst.smul_t(c1, self.gen_image))

    def unmap_t(self, t: int) -> int:
        """Inverse on the image; raises NotInSubfield otherwise."""
        dst, p = self.dst, self.dst.p
        z, c = dst.unpack(self.gen_image), dst.unpack(t)
        pivot = next((i for i in range(1, dst.deg) if z[i]), None)
        if pivot is None:  # pragma: no cover - generator never lies in F_p
            raise RuntimeError("degenerate embedding")
        c1 = c[pivot] * pow(z[pivot], p - 2, p) % p
        c0 = (c[0] - c1 * z[0]) % p
        out = self.src.pack((c0, c1))
        if self.map_t(out) != t:
            raise NotInSubfield(f"{c} is not in the embedded quadratic subfield")
        return out

    def __call__(self, x: FieldElement) -> FieldElement:
        if x.field is not self.src:
            raise FieldMismatch("element not in embedding source field")
        return FieldElement(self.dst, self.map_t(x.raw))

    def descend(self, x: FieldElement) -> FieldElement:
        if x.field is not self.dst:
            raise FieldMismatch("element not in embedding target field")
        return FieldElement(self.src, self.unmap_t(x.raw))
