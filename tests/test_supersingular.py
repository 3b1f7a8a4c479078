import copy
import math

import pytest

from isograph.curves import CurveError, curve_from_j
from isograph.fields import FieldElement, make_extension_field
from oracles import element
import isograph.supersingular as ss
from isograph.supersingular import (
    ClassTableError,
    SupersingularClassTable,
    build_class_table,
    supersingular_polynomial,
)


def brute_order(curve):
    f = curve.field
    at, bt = curve.a.raw, curve.b.raw
    n = 1
    for xt in map(f.pack, f.iter_tuples()):
        r = f.add_t(f.mul_t(f.add_t(f.mul_t(xt, xt), at), xt), bt)
        if not r:
            n += 1
        elif f.is_square_t(r):
            n += 2
    return n


def prime_field_supersingular_js(p):
    """Oracle: j in F_p (excluding 0, 1728) is supersingular iff a curve
    with that j has exactly p + 1 points over F_p.  Twist-independent."""
    f = make_extension_field(p, 1)
    out = []
    for j in range(p):
        if j in (0, 1728 % p):
            continue
        if brute_order(curve_from_j(element(f, j))) == p + 1:
            out.append(j)
    return out


def hasse_witt_polynomial(p):
    """Coefficients mod p of H_p(t) = sum C(m, i)^2 t^i with m = (p-1)/2.

    A Legendre curve y^2 = x(x-1)(x-t) is supersingular exactly at the
    roots of H_p, all of which lie in F_{p^2}."""
    m = (p - 1) // 2
    return tuple(math.comb(m, i) ** 2 % p for i in range(m + 1))


def lambda_to_j(f, lam_t):
    # j = 256 (l^2 - l + 1)^3 / (l^2 (l - 1)^2)
    lam = FieldElement(f, lam_t)
    num = lam * lam - lam + 1
    num = 256 * num * num * num
    den = lam * lam * (lam - 1) * (lam - 1)
    return (num / den).raw


def scalar_scan_js(p):
    """Oracle: Horner on the Hasse polynomial H_p one Legendre parameter
    at a time with Field.mul_t, then the j of every root (six lambdas each),
    sorted by encoding."""
    f = make_extension_field(p, 2)
    coeffs = hasse_witt_polynomial(p)  # constants, so their own raw ints
    js = set()
    for lam_t in map(f.pack, f.iter_tuples()):
        acc = 0
        for c in reversed(coeffs):
            acc = f.add_t(f.mul_t(acc, lam_t), c)
        if not acc:
            js.add(lambda_to_j(f, lam_t))
    return sorted(map(f.unpack, js))


def test_hasse_witt_frozen_13():
    assert hasse_witt_polynomial(13) == (1, 10, 4, 10, 4, 10, 1)


def test_hasse_witt_shape():
    for p in (13, 37, 61):
        h = hasse_witt_polynomial(p)
        assert len(h) == (p - 1) // 2 + 1
        assert h == h[::-1]  # C(m,i) = C(m,m-i)
        assert h[0] == 1
        m = (p - 1) // 2
        assert h[m // 2] == math.comb(m, m // 2) ** 2 % p


@pytest.mark.parametrize("p", [13, 37])
def test_enumeration_matches_prime_field_oracle(p):
    oracle = prime_field_supersingular_js(p)
    computed = [j.coeffs[0] for j in build_class_table(p).js if j.coeffs[1] == 0]
    assert computed == oracle


def test_p13_single_class():
    js = build_class_table(13).js
    assert len(js) == 1
    assert js[0] == 5


def test_class_counts():
    for p, h in {13: 1, 37: 3, 61: 5, 73: 6, 97: 8, 109: 9}.items():
        js = build_class_table(p).js
        assert len(js) == h == (p - 1) // 12


def test_extension_classes_p37():
    js = build_class_table(37).js
    f = js[0].field
    ext = [j for j in js if j.coeffs[1] != 0]
    assert len(ext) == 2
    # the two non-rational classes are Frobenius conjugates of each other
    conj = {f.pow_t(j.raw, 37) for j in ext}
    assert conj == {j.raw for j in ext}
    # and genuinely supersingular: curve order is (p-1)^2 or (p+1)^2
    for j in ext:
        assert brute_order(curve_from_j(j)) in (36**2, 38**2)


def test_models_have_frobenius_minus_p():
    for p in (13, 37):
        table = build_class_table(p)
        assert table.class_count == (p - 1) // 12
        for model in table.models:
            assert brute_order(model) == (p + 1) ** 2


# (a, b) encodings of the class models for p in {13, 37, 61}, in class order
PINNED_MODELS = {
    13: [((4, 0), (7, 0))],
    37: [((11, 23), (32, 3)), ((11, 14), (32, 34)), ((26, 0), (5, 0))],
    61: [
        ((8, 0), (46, 0)),
        ((29, 0), (60, 0)),
        ((54, 53), (36, 15)),
        ((54, 8), (36, 46)),
        ((56, 0), (17, 0)),
    ],
}


def test_class_models_pinned():
    # twist_to_scalar_frobenius picks these from one point per twist: p + 1
    # kills it on the (Z/(p+1))^2 twist and leaves [2]P != O on the other
    for p, models in PINNED_MODELS.items():
        table = build_class_table(p)
        assert [(m.a.coeffs, m.b.coeffs) for m in table.models] == models


def test_class_of_j_lookup():
    table = build_class_table(13)
    assert table.class_of_j(table.js[0]) == 0
    with pytest.raises(ClassTableError, match="not supersingular"):
        table.class_of_j(element(table.field, 3))


# classical degree-2 modular polynomial: Phi_2(j, j') = 0 iff some
# 2-isogeny joins curves with these j-invariants
def phi2(x, y):
    return (
        x**3
        + y**3
        - x * x * y * y
        + 1488 * (x * x * y + x * y * y)
        - 162000 * (x * x + y * y)
        + 40773375 * x * y
        + 8748000000 * (x + y)
        - 157464000000000
    )


@pytest.mark.parametrize("p", [13, 37, 61])
def test_two_isogeny_closure_reaches_everything(p):
    # the 2-isogeny graph on supersingular j-invariants is connected, so
    # walking Phi_2 inside the table from class 0 must reach every class
    js = build_class_table(p).js
    seen = {0}
    frontier = [0]
    while frontier:
        ci = frontier.pop()
        for cj, j in enumerate(js):
            if cj not in seen and not phi2(js[ci], j):
                seen.add(cj)
                frontier.append(cj)
    assert sorted(seen) == list(range(len(js)))


def test_rejects_bad_primes():
    with pytest.raises(ClassTableError, match="not 1 mod 12"):
        build_class_table(11)
    with pytest.raises(ClassTableError, match="not prime"):
        build_class_table(25)


def test_supersingular_polynomial_frozen():
    assert supersingular_polynomial(13) == (1, 8)  # j - 5: the one class
    # ss_37 = (j - 8)(j^2 - 6j - 6) over F_37, j^2 - 6j - 6 irreducible
    assert supersingular_polynomial(37) == (1, 23, 5, 11)


@pytest.mark.parametrize("p", [13, 37, 61])
def test_class_table_js_match_hasse_root_scan(p):
    # the roots of ss_p against the j of the Hasse polynomial's roots
    assert [j.coeffs for j in build_class_table(p).js] == scalar_scan_js(p)


@pytest.fixture
def fresh_tables():
    build_class_table.cache_clear()
    yield
    build_class_table.cache_clear()


def test_scan_root_count_guard_fires_on_dropped_root(fresh_tables, monkeypatch):
    scan = ss._roots_in_fp2
    monkeypatch.setattr(ss, "_roots_in_fp2", lambda f, coeffs: scan(f, coeffs)[1:])
    with pytest.raises(ClassTableError, match="2 roots"):
        build_class_table(37)


@pytest.mark.parametrize("root", [0, 1728])
def test_scan_guard_fires_on_j_0_or_1728(fresh_tables, monkeypatch, root):
    # j - root over F_13 has the one root that p = 13 expects
    monkeypatch.setattr(ss, "supersingular_polynomial", lambda p: (1, -root % 13))
    with pytest.raises(ClassTableError, match="1728"):
        build_class_table(13)


def test_scan_guards_fire_on_perturbed_hasse_coefficient(fresh_tables, monkeypatch):
    # ss_p is the Hasse invariant written in j: every change of one of its
    # coefficients is refused, by the root count or, where the bent
    # polynomial still has three roots in F_37^2, by the scalar-Frobenius
    # twist of a root that is not supersingular
    honest = supersingular_polynomial(37)
    for k in range(len(honest)):
        for delta in range(1, 37):
            bent = list(honest)
            bent[k] = (bent[k] + delta) % 37
            monkeypatch.setattr(ss, "supersingular_polynomial", lambda p: tuple(bent))
            build_class_table.cache_clear()
            with pytest.raises((ClassTableError, CurveError)):
                build_class_table(37)


def test_subset_table_builds_its_own_class_index():
    # the index is per instance: a table the constructor makes from some of
    # the cached table's classes neither shares nor writes into its index
    t = build_class_table(37)
    before = dict(t._index)
    one = SupersingularClassTable(37, t.field, t.js[:1], t.models[:1])
    assert one._index is not t._index
    assert one.class_of_j(t.js[0]) == 0
    with pytest.raises(ClassTableError):
        one.class_of_j(t.js[2])
    assert t._index == before
    assert [t.class_of_j(j) for j in t.js] == [0, 1, 2]


def test_class_table_is_read_only():
    t = build_class_table(13)
    for name in ("p", "field", "js", "models", "_index", "class_count"):
        with pytest.raises(AttributeError, match="read-only"):
            setattr(t, name, getattr(t, name))
        with pytest.raises(AttributeError, match="read-only"):
            delattr(t, name)
    with pytest.raises(AttributeError):
        t.extra = 1
    # running the constructor again on a table would overwrite it
    with pytest.raises(AttributeError, match="read-only"):
        t.__init__(13, t.field, t.js, t.models)


def test_class_table_copies_run_the_twist_check(monkeypatch):
    t = build_class_table(13)
    c = copy.copy(t)
    assert c is not t and c.js == t.js and c.class_of_j(t.js[0]) == 0

    # mutation: a sign check that refuses every model
    def refuse(model):
        raise CurveError("refused")

    monkeypatch.setattr(ss, "_check_frobenius_sign", refuse)
    with pytest.raises(CurveError, match="refused"):
        copy.copy(t)
