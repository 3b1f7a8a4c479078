"""Level structures and Brandt-style adjacency.

A vertex at level N is a pair (supersingular class, cyclic subgroup of
order N) with N squarefree and coprime to l p; the subgroup splits into
one cyclic piece per prime divisor, so it is stored as a tuple of
per-prime subgroup indices.  Edges are degree-l isogenies, tracked with
their kernels so the graph carries a genuine edge involution (dual
isogeny) rather than just a symmetric count matrix.

All per-prime torsion work happens in the field F' of curves.torsion_field.
With k the order of -p mod r, E[r] is rational over F_{p^{2k}}, but every
x-coordinate already lies in F_{p^{2k'}}, k' the order of -p in
(Z/r)^x/{+-1}.  When k' = k/2 and F_{p^{2k}} has an even modulus, F' is
that half-degree field and the points are sampled on the twist by a
non-square delta of F', their x mapped back by x -> x / delta; otherwise
F' = F_{p^{2k}} and nothing is twisted.  Slots hold untwisted x in F',
sorted by their encodings, which spread to the encodings F_{p^{2k}} holds
in the same order, so every table equals the full-field one.  Velu reads
the slots' x on the untwisted model; kernels are Galois-stable, so
quotient curves and x-maps descend to F_{p^2}, exactly and checked.

Level structure moves along an arrow one point per subgroup: the arrow's
degree l is prime to r, so the image of one generator fixes the image
subgroup.  Each (arrow, r) row of pushes is validated once, as a whole:
every image must hit the target table, the row must be a bijection on
the r + 1 subgroups, and for r >= 5 the lifted x-map must commute with
x-only doubling at one point.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field

from .curves import (
    EllipticCurve,
    XMap,
    _derive_seed,
    isomorphism_scale,
    torsion_basis,
    torsion_field,
    translates,
    velu_quotient,
    x_chain,
    x_double,
    x_multiples,
)
from .fields import FieldElement, factorize, is_prime
from .supersingular import (
    ClassTableError,
    SupersingularClassTable,
    build_class_table,
    require_admissible_prime,
)


class AdmissibilityError(ValueError):
    pass


class BrandtValidationError(ValueError):
    pass


class GraphBuildError(RuntimeError):
    """Internal consistency failure while assembling a graph."""


def check_admissible(p: int, l: int, N: int) -> list[int]:
    """Validate (p, l, N) and return the sorted prime divisors of N."""
    try:
        require_admissible_prime(p)
    except ClassTableError as e:
        raise AdmissibilityError(str(e)) from None
    if not is_prime(l):
        raise AdmissibilityError(f"l = {l} is not prime")
    if l == 2:
        raise AdmissibilityError("l must be an odd prime")
    if l == p:
        raise AdmissibilityError("l must differ from p")
    if not isinstance(N, int) or N < 1:
        raise AdmissibilityError(f"N = {N} must be a positive integer")
    fac = factorize(N)
    if any(e > 1 for _, e in fac):
        raise AdmissibilityError(f"N = {N} is not squarefree")
    primes = [r for r, _ in fac]
    if p in primes:
        raise AdmissibilityError(f"N = {N} shares the factor {p} with p")
    if l in primes:
        raise AdmissibilityError(f"N = {N} shares the factor {l} with l")
    return primes


def sigma1(N: int) -> int:
    """Sum of divisors; for squarefree N this is prod (r + 1)."""
    return sum(d for d in range(1, N + 1) if N % d == 0)


def vertex_count(p: int, N: int) -> int:
    """Mass count of enhanced classes: (p - 1) sigma1(N) / 12."""
    num = (p - 1) * sigma1(N)
    if num % 12 != 0:
        raise AdmissibilityError(f"(p-1) sigma1(N) = {num} is not divisible by 12")
    return num // 12


def vertex_table(class_count: int, primes) -> list[tuple[int, tuple[int, ...]]]:
    """Enhanced vertices (class, subgroup index per prime of N) in their
    canonical order: class major, subgroup tuples in product order."""
    combos = list(itertools.product(*[range(r + 1) for r in primes]))
    return [(c, S) for c in range(class_count) for S in combos]


@dataclass(frozen=True)
class QuotientArrow:
    """One outgoing l-isogeny at class level, arrows[ci][t]: the quotient
    of class ci by its kernel slot t, landing on the model of class
    `target` after the isomorphism x -> u2 * x.  `dual_index` is the
    kernel of the dual isogeny on the target class."""

    target: int
    u2: FieldElement
    xmap: XMap
    dual_index: int


def validate_symmetry_and_row_sums(matrix, l: int) -> None:
    """Square, non-negative integer entries, symmetric, every row summing
    to l + 1.  EnhancedGraph's involution check already implies all of
    this, so the one production caller is verify's symmetry_row_sums
    check, which records a failure as a verdict instead of raising."""
    n = len(matrix)
    for i, row in enumerate(matrix):
        if len(row) != n:
            raise BrandtValidationError("matrix is not square")
        if any(not isinstance(x, int) or x < 0 for x in row):
            raise BrandtValidationError("entries must be non-negative integers")
        if sum(row) != l + 1:
            raise BrandtValidationError(
                f"row {i} sums to {sum(row)}, expected {l + 1}"
            )
        for j in range(n):
            if row[j] != matrix[j][i]:
                raise BrandtValidationError(f"entry ({i},{j}) breaks symmetry")


def diagonal_parity_violations(matrix) -> tuple[int, ...]:
    """Vertices whose diagonal entry is odd.

    An odd diagonal entry records a self-dual degree-l endomorphism (trace
    zero, so the dual is the negative and has the same kernel); the loop
    edges at such a vertex cannot all be paired two-and-two.  This really
    occurs, e.g. at (p, l) = (37, 5) and (61, 7), so it is returned as data
    instead of being raised: downstream spectral and zeta computations stay
    valid, only EnhancedGraph.edge_reverse keeps one loop self-paired."""
    return tuple(i for i, row in enumerate(matrix) if row[i] % 2 != 0)


@dataclass(frozen=True)
class EnhancedGraph:
    """A finished level-N graph, fixed by its oriented edges eid =
    vertex * (l+1) + kernel slot: edge_target[eid] is the head of edge eid
    and edge_dual[eid] the edge of its dual isogeny.

    The constructor is the one check of that edge structure, for built and
    loaded graphs alike.  It derives primes, the vertex table, the matrix
    and the parity record, and raises GraphBuildError unless the vertex
    census matches the mass count, both arrays have n (l+1) entries in
    range, and edge_dual is an involution reversing endpoints; with l+1
    edges out of every vertex, that makes the matrix symmetric with rows
    summing to l+1.

    The involution can fix a loop (kernel of a trace-zero endomorphism),
    so it is not yet the loop pairing the abstract graph formalism wants.
    edge_reverse is that pairing: edge_dual with each vertex's loops
    re-paired two by two in eid order, which removes every fixed edge
    the matrix allows.  parity_violations lists vertices with an odd
    diagonal entry: empty in the common case, non-empty exactly when one
    loop there is forced to stay self-paired in edge_reverse."""

    p: int
    l: int
    level: int
    seed: int
    class_labels: tuple[str, ...]
    edge_target: tuple[int, ...]
    edge_dual: tuple[int, ...]
    primes: tuple[int, ...] = field(init=False)
    vertices: tuple[tuple[int, tuple[int, ...]], ...] = field(init=False)
    brandt: tuple[tuple[int, ...], ...] = field(init=False)
    edge_reverse: tuple[int, ...] = field(init=False)
    parity_violations: tuple[int, ...] = field(init=False)

    def __post_init__(self) -> None:
        primes = tuple(check_admissible(self.p, self.l, self.level))
        vertices = vertex_table(len(self.class_labels), primes)
        if len(vertices) != vertex_count(self.p, self.level):
            raise GraphBuildError("vertex census does not match the mass count")
        n, k = len(vertices), self.l + 1
        target, dual = self.edge_target, self.edge_dual
        if not (
            len(target) == len(dual) == n * k
            and all(0 <= w < n for w in target)
            and all(0 <= e < n * k for e in dual)
        ):
            raise GraphBuildError(
                f"edge arrays need {n * k} entries, targets below {n}"
                f" and duals below {n * k}"
            )
        for eid, de in enumerate(dual):
            if dual[de] != eid or target[de] != eid // k:
                raise GraphBuildError(f"edge involution broken at edge {eid}")
        brandt = [[0] * n for _ in range(n)]
        for eid, w in enumerate(target):
            brandt[eid // k][w] += 1
        reverse = list(dual)
        for v in range(n):
            loops = [e for e in range(v * k, (v + 1) * k) if target[e] == v]
            for a, b in zip(loops[0::2], loops[1::2]):
                reverse[a], reverse[b] = b, a
            if len(loops) % 2:
                reverse[loops[-1]] = loops[-1]
        object.__setattr__(self, "primes", primes)
        object.__setattr__(self, "vertices", tuple(vertices))
        object.__setattr__(self, "brandt", tuple(tuple(row) for row in brandt))
        object.__setattr__(self, "edge_reverse", tuple(reverse))
        object.__setattr__(self, "parity_violations", diagonal_parity_violations(brandt))

    @property
    def n(self) -> int:
        return len(self.vertices)

    @property
    def degree(self) -> int:
        return self.l + 1

    @property
    def oriented_edge_count(self) -> int:
        return len(self.edge_target)

    @property
    def geometric_edge_count(self) -> int:
        return len(self.edge_target) // 2

    def vertex_label(self, i: int) -> str:
        c, S = self.vertices[i]
        base = f"j={self.class_labels[c]}"
        if not S:
            return base
        part = ",".join(f"{r}:{s}" for r, s in zip(self.primes, S))
        return f"{base} C[{part}]"


def _fmt_class(j: FieldElement) -> str:
    c = j.coeffs
    if len(c) == 1 or not c[1]:
        return str(c[0])
    return f"{c[0]}+{c[1]}g"


class GraphBuilder:
    """Shared context for one (p, l): class table, per-prime subgroup
    tables, and class-level quotient arrows, all built lazily and reused
    across levels."""

    def __init__(self, p: int, l: int, seed: int = 0):
        check_admissible(p, l, 1)
        self.p = p
        self.l = l
        self.seed = seed
        self.table: SupersingularClassTable = build_class_table(p)
        self._subs: dict[int, list[list[tuple[FieldElement, ...]]]] = {}
        self._enc_index: dict[int, list[dict]] = {}
        self._arrows: list[list[QuotientArrow]] | None = None
        self._push_rows: dict[tuple[int, int, int], tuple[int, ...]] = {}

    # -- per-prime subgroup tables

    def level_subgroups(self, r: int) -> list[list[tuple[FieldElement, ...]]]:
        """For each class, the r + 1 cyclic order-r subgroups in canonical
        order, each as the sorted untwisted x-coordinates of its nonzero
        points (one per +-pair) in the order-r torsion field; the slots
        are sorted by x-coordinate signature."""
        if r in self._subs:
            return self._subs[r]
        tf = torsion_field(self.p, r)
        f = tf.field
        inv_delta = None if tf.delta is None else f.inv_t(tf.delta.raw)
        half = max(1, (r - 1) // 2)
        per_class = []
        index = []
        for ci, model in enumerate(self.table.models):
            E = tf.model(model)
            rng = random.Random(_derive_seed("subgroups", self.p, r, ci, self.seed))
            P, Q = torsion_basis(E, r, rng, delta=tf.delta)
            slots = []
            for G in [P] + translates(Q, P, r):
                xs = x_multiples(G, half)
                if inv_delta is not None:
                    xs = [FieldElement(f, f.mul_t(x.raw, inv_delta)) for x in xs]
                xs.sort(key=lambda x: x.coeffs)
                slots.append(tuple(xs))
            slots.sort(key=lambda s: tuple(x.coeffs for x in s))
            if len(set(slots)) != r + 1:
                raise GraphBuildError(f"repeated order-{r} subgroup at class {ci}")
            per_class.append(slots)
            index.append({x.raw: si for si, s in enumerate(slots) for x in s})
        self._subs[r] = per_class
        self._enc_index[r] = index
        return per_class

    # -- class-level isogeny arrows

    @property
    def arrows(self) -> list[list[QuotientArrow]]:
        if self._arrows is None:
            self._arrows = self._build_arrows()
        return self._arrows

    def _build_arrows(self) -> list[list[QuotientArrow]]:
        """Velu from each order-l slot's x on the untwisted class model,
        descended to F_{p^2} and matched to its target class; the dual
        kernels, found through the x-maps, must pair up."""
        l = self.l
        table = self.table
        subs = self.level_subgroups(l)
        enc_index = self._enc_index[l]
        emb = torsion_field(self.p, l).emb
        arrows: list[list[QuotientArrow]] = []
        for ci, model in enumerate(table.models):
            E = model.change_field(emb)
            row = []
            for t, slot in enumerate(subs[ci]):
                image, xmap = velu_quotient(E, slot, l)
                small = EllipticCurve(emb.descend(image.a), emb.descend(image.b))
                target = table.class_of_j(small.j_invariant())
                u2 = isomorphism_scale(small, table.models[target])
                if u2 is None:
                    raise GraphBuildError(
                        f"quotient of class {ci} not isomorphic to its class model"
                    )
                xmap_small = XMap(
                    [emb.descend(c) for c in xmap.num],
                    [emb.descend(c) for c in xmap.den],
                )
                other = subs[ci][1 if t == 0 else 0]
                x_dual = emb(u2) * xmap(other[0])
                try:
                    dual_index = enc_index[target][x_dual.raw]
                except KeyError:
                    raise GraphBuildError(
                        f"dual kernel of ({ci},{t}) missed the subgroup table"
                    ) from None
                row.append(QuotientArrow(target, u2, xmap_small, dual_index))
            arrows.append(row)
        for ci, row in enumerate(arrows):
            for t, ar in enumerate(row):
                back = arrows[ar.target][ar.dual_index]
                if back.target != ci or back.dual_index != t:
                    raise GraphBuildError(f"dual of dual broken at ({ci},{t})")
        # self-dual kernels do occur (trace-zero endomorphisms); they are
        # necessarily loops, re-paired in EnhancedGraph.edge_reverse
        return arrows

    # -- pushing level structure through arrows

    def _lifted_arrow(self, ci: int, t: int, r: int) -> tuple[XMap, FieldElement]:
        """Arrow t of class ci with its x-map and scale u2 lifted to the
        order-r torsion field."""
        ar = self.arrows[ci][t]
        emb = torsion_field(self.p, r).emb
        return ar.xmap.lift(emb), emb(ar.u2)

    def _push_row(self, ci: int, t: int, r: int) -> tuple[int, ...]:
        """Target-table indices of all r + 1 order-r subgroups of class ci
        pushed through arrow t, memoised per (ci, t, r).

        The arrow has degree l prime to r, so the image of one generator
        fixes the image subgroup: the lifted x-map is evaluated once per
        subgroup, at slot[0], with a single batched inversion.  Three
        guards run once per row instead of once per subgroup:
        (a) every image lies in the target table; (b) the r + 1 indices
        are distinct, since an isogeny of degree prime to r is a bijection
        on order-r subgroups; (c) for r >= 5, the map commutes with x-only
        doubling at one pushed point (on the target side without an
        inversion).  For r = 2 doubling is a pole and for r = 3 it fixes x,
        so those rows rest on (a) and (b)."""
        key = (ci, t, r)
        row = self._push_rows.get(key)
        if row is not None:
            return row
        xmap_r, u2_r = self._lifted_arrow(ci, t, r)
        src_slots = self.level_subgroups(r)[ci]
        target = self.arrows[ci][t].target
        index = self._enc_index[r][target]
        xs = [slot[0] for slot in src_slots]
        check_doubling = r >= 5
        if check_doubling:
            xs.append(x_double(self._lifted_model(ci, r), xs[0]))
        pushed = [u2_r * x for x in xmap_r.eval_many(xs)]
        try:
            row = tuple(index[x.raw] for x in pushed[: r + 1])
        except KeyError:
            raise GraphBuildError(
                f"pushed subgroup of arrow ({ci},{t}) at r={r} missed the table"
            ) from None
        if len(set(row)) != r + 1:
            raise GraphBuildError(
                f"arrow ({ci},{t}) at r={r} is not a bijection on subgroups"
            )
        if check_doubling:
            model = self._lifted_model(target, r)
            X, Z = x_chain(model, pushed[0], 2)[1]
            if X != model.field.mul_t(pushed[-1].raw, Z):
                raise GraphBuildError(
                    f"arrow ({ci},{t}) at r={r} does not commute with doubling"
                )
        self._push_rows[key] = row
        return row

    def _lifted_model(self, ci: int, r: int) -> EllipticCurve:
        """Class ci's untwisted model over the order-r torsion field."""
        return self.table.models[ci].change_field(torsion_field(self.p, r).emb)

    def push_subgroup(self, ci: int, t: int, r: int, s: int) -> int:
        """Index of the order-r subgroup obtained by pushing subgroup s of
        class ci through arrow t, on the target class's table.  Computed
        with the whole row of class ci; see _push_row."""
        return self._push_row(ci, t, r)[s]

    # -- graph assembly

    def build(self, N: int) -> EnhancedGraph:
        primes = check_admissible(self.p, self.l, N)
        arrows = self.arrows
        vertices = vertex_table(self.table.class_count, primes)
        vindex = {v: i for i, v in enumerate(vertices)}
        k = self.l + 1
        edge_target, edge_dual = [], []
        for c, S in vertices:
            for t in range(k):
                ar = arrows[c][t]
                S2 = tuple(
                    self.push_subgroup(c, t, r, s) for r, s in zip(primes, S)
                )
                w = vindex[(ar.target, S2)]
                edge_target.append(w)
                edge_dual.append(w * k + ar.dual_index)
        return EnhancedGraph(
            p=self.p,
            l=self.l,
            level=N,
            seed=self.seed,
            class_labels=tuple(_fmt_class(j) for j in self.table.js),
            edge_target=tuple(edge_target),
            edge_dual=tuple(edge_dual),
        )
