"""Spectra of adjacency matrices and expansion measures.

Eigenvalues come from LAPACK (`numpy.linalg.eigvalsh`); tests check them
against exact trace identities.  Everything downstream (Ramanujan bound,
Laplacian gap, Cheeger bounds) consumes the sorted spectrum, so the
tolerance lives in one place.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class SpectralError(ValueError):
    pass


def _as_matrix(obj) -> np.ndarray:
    if hasattr(obj, "brandt"):
        obj = obj.brandt
    elif hasattr(obj, "adjacency"):
        obj = obj.adjacency
    A = np.asarray(obj, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise SpectralError("need a square matrix")
    if not np.array_equal(A, A.T):
        raise SpectralError("matrix must be symmetric")
    return A


@dataclass(frozen=True)
class Spectrum:
    """Adjacency spectrum of a k-regular graph, eigenvalues descending."""

    eigenvalues: tuple[float, ...]
    degree: int
    tol: float

    @property
    def n(self) -> int:
        return len(self.eigenvalues)

    @property
    def trivial(self) -> float:
        return self.eigenvalues[0]

    @property
    def nontrivial(self) -> tuple[float, ...]:
        return self.eigenvalues[1:]

    @property
    def lambda_star(self) -> float:
        """Largest nontrivial eigenvalue in absolute value."""
        if not self.nontrivial:
            return 0.0
        return max(abs(x) for x in self.nontrivial)

    @property
    def trivial_multiplicity(self) -> int:
        return sum(1 for x in self.eigenvalues if abs(x - self.degree) <= self.tol)

    @property
    def connected_spectrally(self) -> bool:
        return self.trivial_multiplicity == 1

    @property
    def bipartite_spectrally(self) -> bool:
        return abs(self.eigenvalues[-1] + self.degree) <= self.tol

    @property
    def laplacian_gap(self) -> float:
        """Second-smallest Laplacian eigenvalue k - lambda_1."""
        if self.n == 1:
            return 0.0
        return self.degree - self.eigenvalues[1]

    def laplacian_spectrum(self) -> tuple[float, ...]:
        return tuple(self.degree - x for x in self.eigenvalues)


def spectrum(graph_or_matrix, degree: int | None = None, tol: float = 1e-9) -> Spectrum:
    A = _as_matrix(graph_or_matrix)
    row_sums = A.sum(axis=1)
    if degree is None:
        if not np.allclose(row_sums, row_sums[0]):
            raise SpectralError("graph is not regular; pass degree explicitly")
        degree = int(round(float(row_sums[0])))
    eigs = np.linalg.eigvalsh(A)[::-1].tolist()
    if abs(eigs[0] - degree) > tol:
        raise SpectralError(
            f"top eigenvalue {eigs[0]} differs from degree {degree}"
        )
    return Spectrum(eigenvalues=tuple(eigs), degree=degree, tol=tol)


@dataclass(frozen=True)
class RamanujanReport:
    bound: float
    lambda_star: float
    margin: float
    ok: bool
    connected: bool


def ramanujan_report(spec: Spectrum, l: int, tol: float = 1e-9) -> RamanujanReport:
    """Check lambda* <= 2 sqrt(l) + tol for a (l+1)-regular spectrum."""
    if spec.degree != l + 1:
        raise SpectralError(f"degree {spec.degree} does not match l + 1 = {l + 1}")
    bound = 2.0 * math.sqrt(l)
    lam = spec.lambda_star
    return RamanujanReport(
        bound=bound,
        lambda_star=lam,
        margin=bound - lam,
        ok=lam <= bound + tol,
        connected=spec.connected_spectrally,
    )


# ----------------------------------------------------------------- Cheeger


EXACT_CHEEGER_LIMIT = 24


@dataclass(frozen=True)
class CheegerResult:
    value: float | None
    witness: tuple[int, ...] | None
    lower_bound: float
    upper_bound: float
    method: str


def _exact_cheeger(A: np.ndarray):
    """Minimize boundary(S)/|S| over nonempty S with |S| <= n/2 by
    enumerating bitmask subsets in vectorized chunks."""
    n = A.shape[0]
    if n == 1:
        return None, None
    degree = A.sum(axis=1)
    best = math.inf
    best_mask = 0
    chunk = 1 << 16
    total = 1 << n
    bit_cols = np.arange(n, dtype=np.uint32)
    for start in range(1, total, chunk):
        masks = np.arange(start, min(start + chunk, total), dtype=np.uint32)
        bits = ((masks[:, None] >> bit_cols[None, :]) & 1).astype(np.float64)
        sizes = bits.sum(axis=1)
        keep = (sizes > 0) & (2 * sizes <= n)
        if not keep.any():
            continue
        bits = bits[keep]
        sizes = sizes[keep]
        masks = masks[keep]
        vol = bits @ degree
        internal = np.einsum("ij,ij->i", bits @ A, bits)
        boundary = vol - internal
        ratios = boundary / sizes
        i = int(np.argmin(ratios))
        if ratios[i] < best:
            best = float(ratios[i])
            best_mask = int(masks[i])
    witness = tuple(v for v in range(n) if (best_mask >> v) & 1)
    return best, witness


def cheeger_constant(
    graph_or_matrix,
    degree: int | None = None,
    tol: float = 1e-9,
    spec: Spectrum | None = None,
) -> CheegerResult:
    """Isoperimetric constant with spectral sandwich bounds.

    Exact value (with witness subset) by enumeration when n <= 24, bounds
    only beyond that: lambda_1 / 2 <= h <= sqrt(2 k lambda_1).  A caller
    that already holds the matrix's spectrum passes it as `spec` instead
    of having it solved again."""
    A = _as_matrix(graph_or_matrix)
    if spec is None:
        spec = spectrum(A, degree=degree, tol=tol)
    elif spec.n != A.shape[0]:
        raise SpectralError(
            f"spectrum of size {spec.n} does not fit a {A.shape[0]}-vertex graph"
        )
    gap = spec.laplacian_gap
    k = spec.degree
    lower = gap / 2.0
    upper = math.sqrt(max(0.0, 2.0 * k * gap))
    n = A.shape[0]
    if n == 1:
        return CheegerResult(
            value=None, witness=None, lower_bound=lower, upper_bound=upper,
            method="undefined",
        )
    if n <= EXACT_CHEEGER_LIMIT:
        value, witness = _exact_cheeger(A)
        return CheegerResult(
            value=value, witness=witness, lower_bound=lower, upper_bound=upper,
            method="exact",
        )
    return CheegerResult(
        value=None, witness=None, lower_bound=lower, upper_bound=upper,
        method="bounds-only",
    )
