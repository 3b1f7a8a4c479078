"""Level structures and Brandt-style adjacency.

A vertex at level N is a pair (supersingular class, cyclic subgroup of
order N) with N squarefree and coprime to l p; the subgroup splits into
one cyclic piece per prime divisor, so it is stored as a tuple of
per-prime subgroup indices.  Edges are degree-l isogenies, tracked with
their kernels so the graph carries a genuine edge involution (dual
isogeny) rather than just a symmetric count matrix.

There are (p - 1) sigma1(N) / 12 vertices, sigma1 read off the
factorization of N.

All order-r torsion work happens on the class models lifted to the
field of curves.TorsionField, which owns the twist and the Frobenius
orbits.  A basis (P, Q) there labels the r + 1 subgroups by P^1(F_r):
<P> is oo, as torsion_basis walked it, and <Q + kP> is k.  One x-only
column chain per Frobenius orbit representative m gives x([m](Q + kP))
for all k < r, and each slot is its generator's orbits
(GraphBuilder.level_subgroups).  Slots hold x sorted by encoding, in the
order the full field F_{p^{2k}} gives them, so every table equals the
full-field one; the lifted models, the slots, their index and labels are
kept per r (_TorsionTables).  Velu reads the slots' x on the lifted
models; kernels are Galois-stable, so quotient curves and x-maps descend
to F_{p^2}, exactly and checked.

Level structure moves along an arrow by a Moebius map: the degree l is
prime to r, so the arrow maps E[r] onto E[r] by a 2 x 2 matrix mod r,
which acts on the labels.  Each (arrow, r) row is pushed once, read off
the map fixed by the images of oo, 0 and 1 (GraphBuilder._push_row).
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from typing import NamedTuple

from .curves import (
    EllipticCurve,
    TorsionField,
    XMap,
    _derive_seed,
    isomorphism_scale,
    torsion_basis,
    torsion_field,
    velu_quotient,
    walk_orbits,
    x_add,
    x_affine,
    x_chain,
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
    """Sum of divisors of N > 0, prod (r^(e+1) - 1) / (r - 1) over N's prime
    powers r^e; for squarefree N this is prod (r + 1)."""
    return math.prod((r ** (e + 1) - 1) // (r - 1) for r, e in factorize(N))


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


class QuotientArrow(NamedTuple):
    """One outgoing l-isogeny at class level, arrows[ci][t]: the quotient
    of class ci by its kernel slot t.  `xmap`, over F_{p^2}, maps x on
    class ci's model to x on class `target`'s model: Velu's map followed
    by the isomorphism x -> u2 x onto that model.  `dual_index` is the
    kernel of the dual isogeny on the target class."""

    target: int
    xmap: XMap
    dual_index: int


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

    The involution can fix a loop: the kernel of a trace-zero degree-l
    endomorphism, whose dual is its negative and so has the same kernel.
    So it is not yet the loop pairing the abstract graph formalism wants.
    edge_reverse is that pairing: edge_dual with each vertex's loops
    re-paired two by two in eid order, which removes every fixed edge
    the matrix allows.  brandt[v][v] counts the loops at v, and
    parity_violations lists the vertices where that count is odd, found
    in the same pass: there one loop stays self-paired in edge_reverse.
    This really occurs, e.g. at (p, l) = (37, 5) and (61, 7), so it is
    recorded as data, not raised; spectra and zeta functions stay valid.

    Instances are read-only: each attribute is set once, by the
    constructor.  Equality and hashing use the seven defining fields, and
    copies and pickles are rebuilt through the constructor."""

    __slots__ = (
        "p",
        "l",
        "level",
        "seed",
        "class_labels",
        "edge_target",
        "edge_dual",
        "primes",
        "vertices",
        "brandt",
        "edge_reverse",
        "parity_violations",
    )

    def __init__(
        self,
        p: int,
        l: int,
        level: int,
        seed: int,
        class_labels: tuple[str, ...],
        edge_target: tuple[int, ...],
        edge_dual: tuple[int, ...],
    ) -> None:
        self.p = p
        self.l = l
        self.level = level
        self.seed = seed
        self.class_labels = class_labels
        self.edge_target = edge_target
        self.edge_dual = edge_dual
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
        odd = []
        for v in range(n):
            loops = [e for e in range(v * k, (v + 1) * k) if target[e] == v]
            for a, b in zip(loops[0::2], loops[1::2]):
                reverse[a], reverse[b] = b, a
            if len(loops) % 2:
                reverse[loops[-1]] = loops[-1]
                odd.append(v)
        self.primes = primes
        self.vertices = tuple(vertices)
        self.brandt = tuple(tuple(row) for row in brandt)
        self.edge_reverse = tuple(reverse)
        self.parity_violations = tuple(odd)

    def __setattr__(self, name, value) -> None:
        if hasattr(self, name):
            raise AttributeError(f"EnhancedGraph.{name} is read-only")
        super().__setattr__(name, value)

    def __delattr__(self, name) -> None:
        raise AttributeError(f"EnhancedGraph.{name} is read-only")

    def _defining(self) -> tuple:
        return (
            self.p,
            self.l,
            self.level,
            self.seed,
            self.class_labels,
            self.edge_target,
            self.edge_dual,
        )

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._defining() == other._defining()

    def __hash__(self) -> int:
        return hash(self._defining())

    def __reduce__(self):
        return self.__class__, self._defining()

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


class _TorsionTables(NamedTuple):
    """A GraphBuilder's order-r tables: the torsion field, each class model
    lifted to it, and per class its r + 1 slots, each slot x's slot number
    keyed by its raw int, each slot's label, each label's slot, and the x
    _push_row evaluates: P, Q, Q + P, Q + 2P up to r + 1, then x(2P) if
    r >= 5.  Every x is a raw int of the torsion field."""

    tf: TorsionField
    models: tuple[EllipticCurve, ...]
    slots: list[list[tuple[int, ...]]]
    index: list[dict[int, int]]
    labels: list[tuple[int, ...]]
    slot_at: list[tuple[int, ...]]
    probes: list[list[int]]


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
        self._tables: dict[int, _TorsionTables] = {}
        self._push_rows: dict[tuple[int, int, int], tuple[int, ...]] = {}

    # -- per-prime subgroup tables

    def level_subgroups(self, r: int) -> list[list[tuple[int, ...]]]:
        """For each class, the r + 1 cyclic order-r subgroups in canonical
        order, each as the raw x-coordinates of its nonzero points (one per
        +-pair) on the class model lifted to the order-r torsion field,
        sorted by encoding; the slots are sorted by their encodings.

        torsion_basis gives x(P), x(Q) and the x of <P>, labelled r (for
        oo); <Q + kP> is labelled k.  Per orbit representative m, a column
        chain from x([m]Q), x([m](Q + P)) with difference x([m]P), read off
        <P>'s walk, gives x([m](Q + kP)) for all k < r; such a slot is
        walk_orbits of its generator's multiples.  Per class, one batched
        inversion for the heads x([m]Q), x([m](Q + P)), and one for the
        columns and the doubling probe x(2P).  Guards: no chain
        hits the identity, each orbit closes after o steps, each slot holds
        (r - 1)/2 distinct x, and no subgroup repeats."""
        if r in self._tables:
            return self._tables[r].slots
        tf = torsion_field(self.p, r)
        F, reps, o, c = tf.field, tf.reps, tf.orbit, tf.reps[-1]
        half, n = max(1, (r - 1) // 2), r * len(reps)
        models, per_class, index, labels, slot_at, probes = ([] for _ in range(6))
        for ci, model in enumerate(self.table.models):
            rng = random.Random(_derive_seed("subgroups", self.p, r, ci, self.seed))
            M = model.change_field(tf.emb)
            xP, xQ, p_xs = torsion_basis(M, r, rng, tf.delta)
            # x([m]Q) at m - 1, x([m](Q + P)) at c + m - 1
            chain = x_chain(M, xQ, c) + x_chain(M, x_add(M, xP, xQ), c)
            heads = x_affine(F, chain)
            columns = []  # x([m](Q + kP)) at i r + k for m = reps[i], then x(2P) if r >= 5
            for i, m in enumerate(reps):
                start = (heads[m - 1], heads[c + m - 1])
                columns += x_chain(M, p_xs[i * o], r, start)
            if r >= 5:
                columns.append(x_chain(M, xP, 2)[1])
            cols = x_affine(F, columns)
            slots = []
            for k in range(r + 1):
                xs = walk_orbits(F, cols[k:n:r], reps, o) if k < r else p_xs
                if len(xs) != half or len(set(xs)) != half:
                    raise GraphBuildError(
                        f"order-{r} slot at class {ci} has {len(set(xs))}"
                        f" distinct x of {len(xs)}, not {half}"
                    )
                slots.append(tuple(sorted(xs, key=F.unpack)))
            if len(set(slots)) != r + 1:
                raise GraphBuildError(f"repeated order-{r} subgroup at class {ci}")
            order = sorted(range(r + 1), key=lambda k: [F.unpack(x) for x in slots[k]])
            models.append(M)
            per_class.append([slots[k] for k in order])
            index.append({x: si for si, k in enumerate(order) for x in slots[k]})
            labels.append(tuple(order))
            slot_at.append(tuple(sorted(range(r + 1), key=order.__getitem__)))
            probes.append([xP] + cols[: min(r, 3)] + cols[n:])
        self._tables[r] = _TorsionTables(
            tf, tuple(models), per_class, index, labels, slot_at, probes
        )
        return per_class

    # -- class-level isogeny arrows

    @functools.cached_property
    def arrows(self) -> list[list[QuotientArrow]]:
        return self._build_arrows()

    def _build_arrows(self) -> list[list[QuotientArrow]]:
        """Velu from each order-l slot's x on the lifted class model,
        descended to F_{p^2} and scaled onto its target class's model; the
        dual kernels, found through the x-maps, must pair up."""
        l = self.l
        table = self.table
        subs = self.level_subgroups(l)
        tables = self._tables[l]
        emb = tables.tf.emb
        F, F2 = emb.dst, emb.src
        arrows: list[list[QuotientArrow]] = []
        for ci, E in enumerate(tables.models):
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
                    F2,
                    [F2.mul_t(u2.raw, emb.unmap_t(c)) for c in xmap.num],
                    map(emb.unmap_t, xmap.den),
                )
                other = subs[ci][1 if t == 0 else 0]
                x_dual = F.mul_t(emb.map_t(u2.raw), xmap.eval_many([other[0]])[0])
                try:
                    dual_index = tables.index[target][x_dual]
                except KeyError:
                    raise GraphBuildError(
                        f"dual kernel of ({ci},{t}) missed the subgroup table"
                    ) from None
                row.append(QuotientArrow(target, xmap_small, dual_index))
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

    def _push_row(self, ci: int, t: int, r: int) -> tuple[int, ...]:
        """Target-table indices of all r + 1 order-r subgroups of class ci
        pushed through arrow t, memoised per (ci, t, r).

        The arrow's x-map, lifted to the order-r torsion field, lands on
        the target class's model; it is evaluated at the table's probes
        with one batched inversion: a point of each subgroup labelled
        oo, 0, 1 and 2 (those there are), then x(2P) for r >= 5.  Guards:
        (a) each probed image lies in the target table; (b) the images are
        distinct, as an isogeny of degree prime to r is a bijection on
        order-r subgroups.  The row is read off the Moebius map fixed by
        the images of oo, 0 and 1; at r <= 3 every bijection of P^1(F_r)
        is one.  For r >= 5, (c) the image of 2 must agree with the map,
        and (d) the map must commute with x-only doubling at P, the target
        side comparing x_chain's (X : Z) without an inversion.  The
        EnhancedGraph constructor checks each entry again: the dual arrow
        must push it back."""
        key = (ci, t, r)
        row = self._push_rows.get(key)
        if row is not None:
            return row
        ar = self.arrows[ci][t]
        self.level_subgroups(r)
        tables = self._tables[r]
        pushed = ar.xmap.lift(tables.tf.emb).eval_many(tables.probes[ci])
        index = tables.index[ar.target]
        try:
            hits = [index[x] for x in pushed[:4]]
        except KeyError:
            raise GraphBuildError(
                f"pushed subgroup of arrow ({ci},{t}) at r={r} missed the table"
            ) from None
        if len(set(hits)) != len(hits):
            raise GraphBuildError(
                f"arrow ({ci},{t}) at r={r} is not a bijection on subgroups"
            )
        to_label = tables.labels[ar.target]
        # oo = [1 : 0] and k = [k : 1]; the matrix (u a | v b) takes 1 to a multiple of c
        vec = [(1, 0) if k == r else (k, 1) for k in map(to_label.__getitem__, hits)]
        (a0, a1), (b0, b1), (c0, c1) = vec[:3]
        u, v = c0 * b1 - c1 * b0, a0 * c1 - a1 * c0

        def image(k: int) -> int:
            x, y = (a0, a1) if k == r else (k * u * a0 + v * b0, (k * u * a1 + v * b1) % r)
            return x * pow(y, -1, r) % r if y else r

        if r >= 5:
            if image(2) != to_label[hits[3]]:
                raise GraphBuildError(
                    f"arrow ({ci},{t}) at r={r} is not a Moebius map on subgroups"
                )
            model = tables.models[ar.target]
            X, Z = x_chain(model, pushed[0], 2)[1]
            if X != model.field.mul_t(pushed[-1], Z):
                raise GraphBuildError(
                    f"arrow ({ci},{t}) at r={r} does not commute with doubling"
                )
        at = tables.slot_at[ar.target]
        row = tuple(at[image(k)] for k in tables.labels[ci])
        self._push_rows[key] = row
        return row

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
