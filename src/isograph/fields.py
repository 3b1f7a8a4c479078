"""Exact arithmetic in prime fields and their extension towers.

A field is F_p[x]/(m) for a canonical monic irreducible m found by
deterministic search, so every run (and every machine) agrees on element
encodings.  Elements are coefficient tuples, lowest degree first; all
"lexicographically smaller" tie-breaks are plain tuple comparison on those
encodings.  Raw tuple arithmetic lives on the Field object; FieldElement is
a thin operator wrapper around it.

F_p[x] has one multiply and one Euclid.  Every product modulo m is
Field.mul_t; _xgcd, an extended Euclid, gives both inverses and the gcds
of Rabin's irreducibility test, which Field runs on its own arithmetic as
it is built (ReducibleModulus if m fails).  The modulus search builds a
Field per candidate and keeps the first that stands, so each candidate is
tested once.

Multiplication packs each operand into one big integer, a coefficient per
machine word, so a single big-int multiply does the whole convolution, and
reduces it one way for every modulus: with x^d = tail(x) and the tail
packed into one integer T, each round folds the high words back as
low + high * T.  A binomial x^d - c is one round with T = c.  Field derives
the word width (32 or 64 bits) and the round count from the modulus by
folding the all-(p - 1) product in exact integers, and refuses a modulus
whose words would pass 2^64 (ValueError).

A field whose modulus is a polynomial in x^2 (every even-degree binomial)
has its index-2 subfield as a field of its own, HalfField, with the
coefficient spread into the full field; torsion tables live there.
"""

from __future__ import annotations

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


class OddModulus(ValueError):
    """Raised by HalfField for a modulus that is not a polynomial in x^2."""


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


def _fold_plan(p: int, tail: list[int]) -> tuple[int, int]:
    """(word bits, rounds) of the packed fold modulo x^d - tail(x), d =
    len(tail), 0 <= tail[i] < p.  The all-(p - 1) product is folded in
    exact integers; every word of every product is a sum of nonnegative
    terms, so no other product has a larger word or a longer support."""
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
        if top < 2**bits:
            return bits, rounds
    raise ValueError(f"packed fold words reach {top}, past 2^64, for x^{d} = {tail}")


# ---------------------------------------------------------------------------


class Field:
    """F_p[x]/(modulus).  Use make_extension_field for the canonical modulus."""

    def __init__(self, p: int, modulus: Sequence[int]):
        if not is_prime(p):
            raise ValueError(f"field characteristic {p} is not prime")
        modulus = tuple(c % p for c in modulus)
        if len(modulus) < 2 or modulus[-1] != 1:
            raise ValueError("modulus must be monic of degree >= 1")
        self.p = p
        self.modulus = modulus
        self.deg = len(modulus) - 1
        self.q = p**self.deg
        self.zero_t = (0,) * self.deg
        self.one_t = (1,) + (0,) * (self.deg - 1)
        self._nonresidue_t: tuple[int, ...] | None = None
        d = self.deg
        tail = [(-c) % p for c in modulus[:d]]  # x^d = sum(tail[i] x^i)
        self.fold_plan = _fold_plan(p, tail)  # (word bits, rounds) of mul_t
        bits, rounds = self.fold_plan
        self._shift = bits * d
        self._mask = (1 << self._shift) - 1
        self._tail = sum(t << (bits * i) for i, t in enumerate(tail))
        self._rounds = range(rounds)
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
        x = self.gen.coeffs
        checkpoints = {d // q for q, _ in factorize(d)}
        y = x
        for i in range(1, d + 1):
            y = self.pow_t(y, p)
            if i in checkpoints:
                g, _ = _xgcd(self.sub_t(y, x), self.modulus, p)
                if len(g) != 1:
                    return False
        return y == x

    # -- construction / conversion

    def element(self, value) -> "FieldElement":
        return FieldElement(self, self.coerce_t(value))

    def coerce_t(self, value) -> tuple[int, ...]:
        if isinstance(value, FieldElement):
            if value.field is not self:
                raise FieldMismatch("element belongs to a different field")
            return value.coeffs
        if isinstance(value, int):
            return (value % self.p,) + (0,) * (self.deg - 1)
        coeffs = [int(c) % self.p for c in value]
        if len(coeffs) > self.deg:
            raise ValueError("coefficient vector longer than field degree")
        coeffs += [0] * (self.deg - len(coeffs))
        return tuple(coeffs)

    @property
    def zero(self) -> "FieldElement":
        return FieldElement(self, self.zero_t)

    @property
    def one(self) -> "FieldElement":
        return FieldElement(self, self.one_t)

    @property
    def gen(self) -> "FieldElement":
        if self.deg == 1:
            return FieldElement(self, self.one_t)
        return FieldElement(self, (0, 1) + (0,) * (self.deg - 2))

    def iter_tuples(self) -> Iterator[tuple[int, ...]]:
        """All q encodings in counting order (constant coefficient fastest)."""
        p, d = self.p, self.deg
        for n in range(self.q):
            yield tuple((n // p**i) % p for i in range(d))

    def random_t(self, rng: random.Random) -> tuple[int, ...]:
        return tuple(rng.randrange(self.p) for _ in range(self.deg))

    # -- raw tuple arithmetic

    def add_t(self, a, b):
        p = self.p
        return tuple((x + y) % p for x, y in zip(a, b))

    def sub_t(self, a, b):
        p = self.p
        return tuple((x - y) % p for x, y in zip(a, b))

    def neg_t(self, a):
        p = self.p
        return tuple((-x) % p for x in a)

    def smul_t(self, c: int, a):
        p = self.p
        c %= p
        return tuple(c * x % p for x in a)

    def mul_t(self, a, b):
        # packed big-int convolution, one coefficient per little-endian
        # word; each round folds the words from x^d up onto the low d as
        # high * T.  The plan keeps every word below 2^bits, so no carry
        # crosses a word, and leaves nothing above x^(d-1)
        pack = self._pack
        prod = int.from_bytes(pack(*a), "little") * int.from_bytes(
            pack(*b), "little"
        )
        mask, shift, tail = self._mask, self._shift, self._tail
        for _ in self._rounds:
            prod = (prod & mask) + (prod >> shift) * tail
        p = self.p
        words = self._unpack(prod.to_bytes(self._bytes, "little"))
        return tuple([w % p for w in words])

    def sq_t(self, a):
        return self.mul_t(a, a)

    def pow_t(self, a, e: int):
        if e < 0:
            return self.pow_t(self.inv_t(a), -e)
        result = self.one_t
        base = a
        while e:
            if e & 1:
                result = self.mul_t(result, base)
            base = self.mul_t(base, base)
            e >>= 1
        return result

    def inv_t(self, a):
        if a == self.zero_t:
            raise ZeroDivisionError("inversion of zero field element")
        if self.deg == 1:
            return (pow(a[0], self.p - 2, self.p),)
        # m is irreducible, so gcd(a, m) is a nonzero constant g and s a = g
        p = self.p
        g, s = _xgcd(a, self.modulus, p)
        c = pow(g[0], p - 2, p)
        return tuple([x * c % p for x in s] + [0] * (self.deg - len(s)))

    def batch_inv_t(self, items: Sequence[tuple[int, ...]]) -> list[tuple[int, ...]]:
        """Montgomery trick: len(items) inversions for one inv_t."""
        n = len(items)
        if n == 0:
            return []
        prefix = [items[0]]
        for i in range(1, n):
            prefix.append(self.mul_t(prefix[-1], items[i]))
        acc = self.inv_t(prefix[-1])
        out: list[tuple[int, ...] | None] = [None] * n
        for i in range(n - 1, 0, -1):
            out[i] = self.mul_t(acc, prefix[i - 1])
            acc = self.mul_t(acc, items[i])
        out[0] = acc
        return out  # type: ignore[return-value]

    # -- quadratic residues

    def nonresidue_t(self) -> tuple[int, ...]:
        """First non-square in counting order; fixed search order keeps sqrt
        deterministic."""
        if self._nonresidue_t is None:
            e = (self.q - 1) // 2
            for t in self.iter_tuples():
                if t == self.zero_t:
                    continue
                if self.pow_t(t, e) != self.one_t:
                    self._nonresidue_t = t
                    break
            else:  # pragma: no cover - half of all elements qualify
                raise RuntimeError("no quadratic non-residue found")
        return self._nonresidue_t

    def is_square_t(self, a) -> bool:
        if a == self.zero_t:
            return True
        return self.pow_t(a, (self.q - 1) // 2) == self.one_t

    def sqrt_t(self, a):
        """Canonical square root (the lexicographically smaller of the pair)."""
        if a == self.zero_t:
            return a
        q = self.q
        if self.pow_t(a, (q - 1) // 2) != self.one_t:
            raise NoSquareRoot(f"{a} is not a square in F_{self.p}^{self.deg}")
        if q % 4 == 3:
            r = self.pow_t(a, (q + 1) // 4)
        else:
            # Tonelli-Shanks with the canonical non-residue
            m = q - 1
            s = (m & -m).bit_length() - 1
            m >>= s
            c = self.pow_t(self.nonresidue_t(), m)
            r = self.pow_t(a, (m + 1) // 2)
            t = self.pow_t(a, m)
            while t != self.one_t:
                t2, i = t, 0
                while t2 != self.one_t:
                    t2 = self.sq_t(t2)
                    i += 1
                b = c
                for _ in range(s - i - 1):
                    b = self.sq_t(b)
                r = self.mul_t(r, b)
                c = self.sq_t(b)
                t = self.mul_t(t, c)
                s = i
        return min(r, self.neg_t(r))

    def __repr__(self) -> str:
        return f"Field(p={self.p}, deg={self.deg})"


class FieldElement:
    """Operator wrapper over Field's raw tuple arithmetic."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: Field, coeffs: tuple[int, ...]):
        self.field = field
        self.coeffs = coeffs

    def encoding(self) -> tuple[int, ...]:
        return self.coeffs

    def _coerce(self, other) -> tuple[int, ...]:
        if isinstance(other, FieldElement):
            if other.field is not self.field:
                raise FieldMismatch("operands from different fields")
            return other.coeffs
        if isinstance(other, int):
            return self.field.coerce_t(other)
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other):
        t = self._coerce(other)
        if t is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, self.field.add_t(self.coeffs, t))

    __radd__ = __add__

    def __sub__(self, other):
        t = self._coerce(other)
        if t is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, self.field.sub_t(self.coeffs, t))

    def __rsub__(self, other):
        t = self._coerce(other)
        if t is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, self.field.sub_t(t, self.coeffs))

    def __mul__(self, other):
        t = self._coerce(other)
        if t is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, self.field.mul_t(self.coeffs, t))

    __rmul__ = __mul__

    def __truediv__(self, other):
        t = self._coerce(other)
        if t is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, self.field.mul_t(self.coeffs, self.field.inv_t(t)))

    def __rtruediv__(self, other):
        t = self._coerce(other)
        if t is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, self.field.mul_t(t, self.field.inv_t(self.coeffs)))

    def __pow__(self, e: int):
        return FieldElement(self.field, self.field.pow_t(self.coeffs, e))

    def __neg__(self):
        return FieldElement(self.field, self.field.neg_t(self.coeffs))

    def inverse(self) -> "FieldElement":
        return FieldElement(self.field, self.field.inv_t(self.coeffs))

    def sqrt(self) -> "FieldElement":
        return FieldElement(self.field, self.field.sqrt_t(self.coeffs))

    def __eq__(self, other) -> bool:
        if isinstance(other, FieldElement):
            return self.field is other.field and self.coeffs == other.coeffs
        if isinstance(other, int):
            return self.coeffs == self.field.coerce_t(other)
        return NotImplemented

    def __lt__(self, other: "FieldElement") -> bool:
        if not isinstance(other, FieldElement) or other.field is not self.field:
            raise FieldMismatch("comparison requires elements of one field")
        return self.coeffs < other.coeffs

    def __hash__(self) -> int:
        return hash((id(self.field), self.coeffs))

    def __bool__(self) -> bool:
        return self.coeffs != self.field.zero_t

    def __repr__(self) -> str:
        return f"FieldElement{self.coeffs}@F_{self.field.p}^{self.field.deg}"


_FIELD_CACHE: dict[tuple[int, int], Field] = {}

_MODULUS_SEARCH_CAP = 500_000


def make_extension_field(p: int, d: int) -> Field:
    """F_{p^d} with the canonical modulus: the first monic irreducible of
    degree d when non-leading coefficient vectors are ordered with the
    highest-degree coefficient most significant.  Cached, so field objects
    are shared and element identity checks are cheap."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if d < 1:
        raise ValueError("degree must be >= 1")
    key = (p, d)
    field = _FIELD_CACHE.get(key)
    if field is None:
        for n in range(min(p**d, _MODULUS_SEARCH_CAP)):
            cand = [(n // p**i) % p for i in range(d)] + [1]
            if d > 1 and cand[0] == 0:
                continue  # divisible by x
            try:
                field = Field(p, cand)
            except ReducibleModulus:
                continue
            break
        else:  # pragma: no cover - irreducibles are dense
            raise RuntimeError(f"modulus search cap hit for p={p}, d={d}")
        _FIELD_CACHE[key] = field
    return field


class Embedding:
    """Canonical embedding F_{p^a} -> F_{p^b} for a | b, a <= 2.

    The image of the source generator is the lexicographically smaller root
    of the source modulus in the target field, which makes the embedding
    (and hence every derived encoding) deterministic.  Into a HalfField F'
    of F this is the restriction of the canonical embedding into F, since
    spreading keeps the order of encodings and so picks the same root.
    """

    def __init__(self, src: Field, dst: Field):
        if src.p != dst.p:
            raise FieldMismatch("embedding requires equal characteristic")
        if dst.deg % src.deg != 0:
            raise ValueError("source degree must divide target degree")
        if src.deg > 2:
            raise NotImplementedError("only prime fields and quadratic sources")
        self.src = src
        self.dst = dst
        if src.deg == 1:
            gen_image = dst.one_t
        else:
            # root of x^2 + b1 x + b0 via the quadratic formula
            b0, b1 = src.modulus[0], src.modulus[1]
            disc = dst.coerce_t((b1 * b1 - 4 * b0) % src.p)
            root = dst.sqrt_t(disc)
            inv2 = pow(2, dst.p - 2, dst.p)
            minus_b1 = dst.coerce_t(-b1)
            r1 = dst.smul_t(inv2, dst.add_t(minus_b1, root))
            r2 = dst.smul_t(inv2, dst.sub_t(minus_b1, root))
            gen_image = min(r1, r2)
        self.gen_image = gen_image

    def map_t(self, t: tuple[int, ...]) -> tuple[int, ...]:
        if self.src.deg == 1:
            return self.dst.coerce_t(t[0])
        out = self.dst.coerce_t(t[0])
        out = self.dst.add_t(out, self.dst.smul_t(t[1], self.gen_image))
        return out

    def unmap_t(self, t: tuple[int, ...]) -> tuple[int, ...]:
        """Inverse on the image; raises NotInSubfield otherwise."""
        if self.src.deg == 1:
            if any(t[1:]):
                raise NotInSubfield(f"{t} has nonzero extension coordinates")
            return (t[0],)
        z = self.gen_image
        p = self.dst.p
        pivot = next((i for i in range(1, self.dst.deg) if z[i]), None)
        if pivot is None:  # pragma: no cover - generator never lies in F_p
            raise RuntimeError("degenerate embedding")
        c1 = t[pivot] * pow(z[pivot], p - 2, p) % p
        c0 = (t[0] - c1 * z[0]) % p
        if self.map_t((c0, c1)) != t:
            raise NotInSubfield(f"{t} is not in the embedded quadratic subfield")
        return (c0, c1)

    def __call__(self, x: FieldElement) -> FieldElement:
        if x.field is not self.src:
            raise FieldMismatch("element not in embedding source field")
        return FieldElement(self.dst, self.map_t(x.coeffs))

    def descend(self, x: FieldElement) -> FieldElement:
        if x.field is not self.dst:
            raise FieldMismatch("element not in embedding target field")
        return FieldElement(self.src, self.unmap_t(x.coeffs))


_EMBED_CACHE: dict[tuple[int, int], Embedding] = {}


def get_embedding(src: Field, dst: Field) -> Embedding:
    key = (id(src), id(dst))
    emb = _EMBED_CACHE.get(key)
    if emb is None:
        emb = Embedding(src, dst)
        _EMBED_CACHE[key] = emb
    return emb


class HalfField:
    """The subfield of index 2 in a field whose modulus is even, m(x) = g(x^2).

    F' = F_p[y]/(g) sits in F = F_p[x]/(m) by iota: y -> x^2, which moves
    coefficient i to position 2i (spread_t); unspread_t reads the even
    positions back and refuses any odd entry.  Every binomial x^d - c with
    d even is such a modulus.  All of this is exact: g is irreducible
    because g(x^2) is, and `delta` = y is a non-square of F' because its
    square roots +-x lie outside iota(F').  Spreading keeps the
    lexicographic order of encodings (it only interleaves zeros), so
    sorting in F' sorts exactly as in F.
    """

    def __init__(self, full: Field):
        m = full.modulus
        if full.deg % 2 or any(m[1::2]):
            raise OddModulus(f"modulus {m} is not a polynomial in x^2")
        self.full = full
        self.sub = Field(full.p, m[0::2])
        self.delta = self.sub.gen

    def spread_t(self, t: tuple[int, ...]) -> tuple[int, ...]:
        out = [0] * self.full.deg
        out[0::2] = t
        return tuple(out)

    def unspread_t(self, t: tuple[int, ...]) -> tuple[int, ...]:
        if any(t[1::2]):
            raise NotInSubfield(f"{t} has odd coordinates, so it is not in iota(F')")
        return tuple(t[0::2])
