"""Enumeration of supersingular j-invariants over F_{p^2} and the class
table of normalized curve models the graph builder works with.

Restricted to p = 1 mod 12: the class number is then exactly (p-1)/12,
j = 0 and j = 1728 are ordinary, and every class has automorphisms {+-1},
which keeps the counting combinatorics elsewhere twist-free.

The classes are the roots of Kaneko-Zagier's supersingular polynomial
ss_p, whose roots are the supersingular j-invariants themselves: one
plain-int Horner scan of the p^2 points of F_{p^2}.  ss_p has degree
(p-1)/12 and splits there without repeated roots, so any other root count
is an error.

Each class model is the twist on which the p^2-power Frobenius acts as
-p, and a table checks that sign on every model when it is constructed.
"""

from __future__ import annotations

import functools

from .curves import EllipticCurve, curve_from_j, twist_to_scalar_frobenius
from .curves import _check_frobenius_sign
from .fields import Field, FieldElement, is_prime, make_extension_field


class ClassTableError(ValueError):
    pass


def require_admissible_prime(p: int) -> None:
    if not is_prime(p):
        raise ClassTableError(f"{p} is not prime")
    if p % 12 != 1:
        raise ClassTableError(f"p = {p} is not 1 mod 12")


def supersingular_polynomial(p: int) -> tuple[int, ...]:
    """Coefficients mod p of Kaneko-Zagier's ss_p(j), highest degree first:
    c_k 1728^k for j^(m-k), k = 0..m, with m = (p-1)/12 and
    c_k = (1/12)_k (5/12)_k / k!^2, the Hasse invariant written in j.
    Each coefficient is the one before times 1728 (k - 11/12)(k - 7/12) / k^2."""
    out = [1]
    for k in range(1, (p - 1) // 12 + 1):
        out.append(out[-1] * 12 * (12 * k - 11) * (12 * k - 7) * pow(k * k, -1, p) % p)
    return tuple(out)


def _roots_in_fp2(f: Field, coeffs: tuple[int, ...]) -> list[int]:
    """Raw roots in f = F_{p^2} of the polynomial with coefficients `coeffs`
    in F_p (highest degree first), sorted by encoding: Horner at every
    x0 + x1 x, in plain ints with x^2 = -m1 x - m0."""
    p, m0, m1 = f.p, f.modulus[0], f.modulus[1]
    lead, rest = coeffs[0], coeffs[1:]
    roots = []
    for x0 in range(p):
        for x1 in range(p):
            a0, a1 = lead, 0
            for c in rest:
                hi = a1 * x1
                a0, a1 = (a0 * x0 - m0 * hi + c) % p, (a0 * x1 + a1 * x0 - m1 * hi) % p
            if not a0 and not a1:
                roots.append(f.pack((x0, x1)))
    return roots


class SupersingularClassTable:
    """Supersingular classes for one prime, indexed 0..h-1 in the sorted
    j order, each with a fixed model on which Frobenius acts as -p; the
    constructor checks every model (_check_frobenius_sign).  Instances are
    read-only, and copies and pickles are rebuilt through the constructor."""

    __slots__ = ("p", "field", "js", "models", "_index")

    def __init__(
        self,
        p: int,
        field: Field,
        js: tuple[FieldElement, ...],
        models: tuple[EllipticCurve, ...],
    ) -> None:
        for model in models:
            _check_frobenius_sign(model)
        self.p = p
        self.field = field
        self.js = js
        self.models = models
        self._index = {j.raw: i for i, j in enumerate(js)}

    def __setattr__(self, name, value) -> None:
        if hasattr(self, name):
            raise AttributeError(f"SupersingularClassTable.{name} is read-only")
        super().__setattr__(name, value)

    def __delattr__(self, name) -> None:
        raise AttributeError(f"SupersingularClassTable.{name} is read-only")

    def __reduce__(self):
        return self.__class__, (self.p, self.field, self.js, self.models)

    @property
    def class_count(self) -> int:
        return len(self.js)

    def class_of_j(self, j: FieldElement) -> int:
        try:
            return self._index[j.raw]
        except KeyError:
            raise ClassTableError(f"j = {j.coeffs} is not supersingular for p = {self.p}")


@functools.lru_cache(maxsize=None)
def build_class_table(p: int) -> SupersingularClassTable:
    """The classes of p: the roots of ss_p in F_{p^2}, (p-1)/12 of them and
    none 0 or 1728, each with a model on which Frobenius acts as -p."""
    require_admissible_prime(p)
    f = make_extension_field(p, 2)
    roots = _roots_in_fp2(f, supersingular_polynomial(p))
    expected = (p - 1) // 12
    if len(roots) != expected:
        raise ClassTableError(f"ss_{p} has {len(roots)} roots, expected {expected}")
    if any(j in (0, f.coerce_t(1728)) for j in roots):
        raise ClassTableError("j in {0, 1728} cannot occur for p = 1 mod 12")
    js = tuple(FieldElement(f, j) for j in roots)
    models = tuple(twist_to_scalar_frobenius(curve_from_j(j)) for j in js)
    return SupersingularClassTable(p, f, js, models)
