"""Enumeration of supersingular j-invariants over F_{p^2} and the class
table of normalized curve models the graph builder works with.

Restricted to p = 1 mod 12: the class number is then exactly (p-1)/12,
j = 0 and j = 1728 are ordinary, and every class has automorphisms {+-1},
which keeps the counting combinatorics elsewhere twist-free.

The class scan evaluates the Hasse polynomial H_p at all p^2 values of the
Legendre parameter at once, by Horner on two numpy coordinate arrays, and
maps only its roots to j-invariants.  H_p is separable with all
(p-1)/2 roots in F_{p^2}, so any other root count is an error, as is any
class count other than (p-1)/12.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .curves import EllipticCurve, curve_from_j, twist_to_scalar_frobenius
from .fields import Field, FieldElement, is_prime, make_extension_field


class ClassTableError(ValueError):
    pass


def require_admissible_prime(p: int) -> None:
    if not is_prime(p):
        raise ClassTableError(f"{p} is not prime")
    if p % 12 != 1:
        raise ClassTableError(f"p = {p} is not 1 mod 12")


def hasse_witt_polynomial(p: int) -> tuple[int, ...]:
    """Coefficients mod p of H_p(t) = sum C(m, i)^2 t^i with m = (p-1)/2.

    A Legendre curve y^2 = x(x-1)(x-t) is supersingular exactly at the
    roots of H_p, all of which lie in F_{p^2}.
    """
    m = (p - 1) // 2
    return tuple(math.comb(m, i) ** 2 % p for i in range(m + 1))


def _lambda_to_j(f: Field, lam_t: int) -> int:
    # j = 256 (l^2 - l + 1)^3 / (l^2 (l - 1)^2)
    lam = FieldElement(f, lam_t)
    num = lam * lam - lam + 1
    num = 256 * num * num * num
    den = lam * lam * (lam - 1) * (lam - 1)
    return (num / den).raw


def _hasse_roots(f: Field) -> list[int]:
    """Roots of H_p in F_{p^2} = f, in counting order.

    Horner over every lambda at once: lambda = l0 + l1 x with
    x^2 = -m1 x - m0 from f.modulus, one int64 array per coordinate.
    Every intermediate is below 3 p^2 in absolute value.
    """
    p = f.p
    m0, m1 = f.modulus[0], f.modulus[1]
    n = np.arange(p * p, dtype=np.int64)
    l0, l1 = n % p, n // p
    a0 = np.zeros_like(n)
    a1 = np.zeros_like(n)
    for c in reversed(hasse_witt_polynomial(p)):
        hi = a1 * l1 % p
        a0, a1 = (
            (a0 * l0 - m0 * hi + c) % p,
            (a0 * l1 + a1 * l0 - m1 * hi) % p,
        )
    roots = np.flatnonzero((a0 == 0) & (a1 == 0))
    return [f.pack((int(k % p), int(k // p))) for k in roots]


@functools.lru_cache(maxsize=None)
def _enumerate_supersingular_cached(p: int) -> tuple[FieldElement, ...]:
    """All supersingular j-invariants in F_{p^2}, sorted by encoding."""
    require_admissible_prime(p)
    f = make_extension_field(p, 2)
    roots = _hasse_roots(f)
    if len(roots) != (p - 1) // 2:
        raise ClassTableError(
            f"H_{p} has {len(roots)} roots in F_{p}^2, expected {(p - 1) // 2}"
        )
    # H_p(0) = 1 and H_p(1) = +-1, so lambda is never 0 or 1 here
    js = {_lambda_to_j(f, lam_t) for lam_t in roots}
    expected = (p - 1) // 12
    if len(js) != expected:
        raise ClassTableError(
            f"found {len(js)} supersingular classes for p={p}, expected {expected}"
        )
    out = sorted(js, key=f.unpack)
    bad = {0, f.coerce_t(1728)}
    if any(j in bad for j in out):
        raise ClassTableError("j in {0, 1728} cannot occur for p = 1 mod 12")
    return tuple(FieldElement(f, j) for j in out)


def enumerate_supersingular(p: int) -> list[FieldElement]:
    return list(_enumerate_supersingular_cached(p))


@dataclass(frozen=True)
class SupersingularClassTable:
    """Supersingular classes for one prime, indexed 0..h-1 in the sorted
    j order, each with a fixed model on which Frobenius acts as -p."""

    p: int
    field: Field
    js: tuple[FieldElement, ...]
    models: tuple[EllipticCurve, ...]
    _index: dict = dc_field(repr=False, hash=False, compare=False, default_factory=dict)

    def __post_init__(self):
        self._index.update({j.raw: i for i, j in enumerate(self.js)})

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
    js = _enumerate_supersingular_cached(p)
    models = tuple(twist_to_scalar_frobenius(curve_from_j(j)) for j in js)
    return SupersingularClassTable(p, js[0].field, js, models)
