"""End-to-end tests for the command line interface and the cache file
format: determinism, self-validation, exit codes, and the grid parser."""

import hashlib
import json
import os
import shutil
from dataclasses import replace

import pytest

from isograph.cli import (
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_PARAMS,
    EXIT_VERIFY,
    JobConfig,
    _builder,
    build_or_load,
    graph_file_path,
    load_graph_file,
    main,
    parse_grid,
    write_graph_file,
)
import isograph.curves as curves_mod
import isograph.enhanced as enhanced_mod
from isograph.curves import TorsionBasisError
from isograph.enhanced import AdmissibilityError, GraphBuilder
from isograph.zeta import edge_matrix_zeta


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


# ------------------------------------------------------------- determinism


def test_same_seed_byte_identical(tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    c1 = JobConfig(13, 5, 6, seed=7, cache_dir=str(d1))
    c2 = JobConfig(13, 5, 6, seed=7, cache_dir=str(d2))
    build_or_load(c1, force=True)
    build_or_load(c2, force=True)
    b1 = open(graph_file_path(c1), "rb").read()
    b2 = open(graph_file_path(c2), "rb").read()
    assert b1 == b2


def test_different_seed_same_matrix(tmp_path):
    c1 = JobConfig(13, 5, 6, seed=0, cache_dir=str(tmp_path))
    c2 = JobConfig(13, 5, 6, seed=123, cache_dir=str(tmp_path))
    g1 = build_or_load(c1)
    g2 = build_or_load(c2)
    assert g1.brandt == g2.brandt
    assert g1.vertices == g2.vertices


def test_builder_memo_matches_fresh_builders(tmp_path):
    _builder.cache_clear()
    for N in (6, 1, 2, 3):
        shared = JobConfig(13, 5, N, cache_dir=str(tmp_path / "shared"))
        fresh = replace(shared, cache_dir=str(tmp_path / "fresh"))
        build_or_load(shared, force=True)
        b = GraphBuilder(13, 5, seed=0)
        write_graph_file(graph_file_path(fresh), b.build(N))
        assert (
            open(graph_file_path(shared), "rb").read()
            == open(graph_file_path(fresh), "rb").read()
        )
    assert _builder.cache_info().misses == 1
    other = JobConfig(13, 5, 6, seed=1, cache_dir=str(tmp_path / "shared"))
    build_or_load(other, force=True)
    assert _builder.cache_info().misses == 2
    assert _builder(13, 5, 1) is not _builder(13, 5, 0)
    assert json.load(open(graph_file_path(other)))["metadata"]["seed"] == 1


def test_cached_file_of_another_seed_is_rebuilt(tmp_path):
    c0 = JobConfig(13, 5, 2, seed=0, cache_dir=str(tmp_path))
    c1 = replace(c0, seed=1)
    build_or_load(c0, force=True)
    shutil.copy(graph_file_path(c0), graph_file_path(c1))
    assert build_or_load(c1).seed == 1
    assert json.load(open(graph_file_path(c1)))["metadata"]["seed"] == 1


@pytest.mark.parametrize(
    "p, l, N",
    [(37, 5, 1), (13, 5, 2), (13, 5, 6)],
    ids=["plain", "parity_violation", "two_primes"],
)
def test_cache_round_trip(tmp_path, p, l, N):
    cfg = JobConfig(p, l, N, cache_dir=str(tmp_path))
    built = build_or_load(cfg, force=True)
    loaded = load_graph_file(graph_file_path(cfg))
    assert loaded == built


# -------------------------------------------------------------- exit codes


def test_build_rejects_bad_prime(tmp_path, capsys):
    code, _ = run(capsys, "build", 65, 5, 1, "--cache-dir", tmp_path)
    assert code == EXIT_PARAMS


def test_build_rejects_composite_l(tmp_path, capsys):
    code, _ = run(capsys, "build", 13, 12, 1, "--cache-dir", tmp_path)
    assert code == EXIT_PARAMS


def test_every_command_rejects_l_2(tmp_path, capsys):
    # l must be an odd prime; the grid skips l = 2 as inadmissible
    for cmd in ("build", "spectrum", "zeta", "cheeger", "verify"):
        for N in (1, 3):
            code, _ = run(capsys, cmd, 13, 2, N, "--cache-dir", tmp_path)
            assert code == EXIT_PARAMS, (cmd, N)
    triples, skipped = parse_grid("p in {13}, l in {2, 3}, N in {1}")
    assert triples == [(13, 3, 1)] and skipped == [(13, 2, 1)]


def test_covering_rejects_non_divisor(tmp_path, capsys):
    # M = 0 is refused as a parameter before N % M is taken
    for M in (4, 0):
        code, _ = run(capsys, "covering", 13, 5, 6, M, "--cache-dir", tmp_path)
        assert code == EXIT_PARAMS


def _refuse_torsion_basis(*args, **kwargs):
    raise TorsionBasisError("patched")


_x_chain = curves_mod.x_chain


def _x_chain_wrong_past_2p(curve, x, count):
    """curves.x_chain, but every multiple past [2]P reads as x(P).  In
    `build 13 5 2` the x_multiples of the slot tables stop at [2]P
    ((5 - 1)/2 at r = 5, one at r = 2), so the tables stay right and only
    velu_quotient's guard, which asks for x([3]P) = x([2]P), sees the lie:
    on an order-5 kernel x(P) is not x([2]P)."""
    chain = _x_chain(curve, x, min(count, 2))
    return chain + chain[:1] * (count - len(chain))


# each construction error is an internal invariant: parameters are
# checked for admissibility before any construction starts; the message
# names the check that fired
CONSTRUCTION_FAULTS = {
    "torsion_basis": (enhanced_mod, "torsion_basis", _refuse_torsion_basis, "patched"),
    "kernel_guard": (
        curves_mod,
        "x_chain",
        _x_chain_wrong_past_2p,
        "x-coordinates do not form an order-5 kernel",
    ),
}


@pytest.mark.parametrize("fault", sorted(CONSTRUCTION_FAULTS))
def test_construction_errors_exit_internal(tmp_path, capsys, monkeypatch, fault):
    module, name, replacement, message = CONSTRUCTION_FAULTS[fault]
    monkeypatch.setattr(module, name, replacement)
    _builder.cache_clear()
    try:
        code = main(["build", "13", "5", "2", "--cache-dir", str(tmp_path)])
    finally:
        _builder.cache_clear()
    assert code == EXIT_INTERNAL
    assert f"internal error: {message}" in capsys.readouterr().err


def test_corrupted_cache_is_refused(tmp_path, capsys):
    cfg = JobConfig(13, 5, 2, cache_dir=str(tmp_path))
    build_or_load(cfg, force=True)
    path = graph_file_path(cfg)
    data = json.load(open(path))
    data["adjacency"][0][1] += 1
    json.dump(data, open(path, "w"))
    code, _ = run(capsys, "spectrum", 13, 5, 2, "--cache-dir", tmp_path)
    assert code == EXIT_INTERNAL


def test_verify_refuses_corrupted_coarse_level(tmp_path, capsys):
    # the covering check loads level 2 from the cache and re-validates it
    cfg = JobConfig(13, 5, 2, cache_dir=str(tmp_path))
    build_or_load(cfg, force=True)
    path = graph_file_path(cfg)
    data = json.load(open(path))
    data["adjacency"][0][1] += 1
    json.dump(data, open(path, "w"))
    code, _ = run(capsys, "verify", 13, 5, 6, "--cache-dir", tmp_path)
    assert code == EXIT_INTERNAL


def _swap_vertices(eg, a, b):
    """eg with vertices a and b trading places: a valid graph, isomorphic
    to eg, whose vertex ids no longer match the canonical vertex table."""
    k = eg.degree
    perm = list(range(eg.n))
    perm[a], perm[b] = b, a
    target, dual = [0] * eg.oriented_edge_count, [0] * eg.oriented_edge_count
    for e, (w, d) in enumerate(zip(eg.edge_target, eg.edge_dual)):
        moved = perm[e // k] * k + e % k
        target[moved] = perm[w]
        dual[moved] = perm[d // k] * k + d % k
    return replace(eg, edge_target=tuple(target), edge_dual=tuple(dual))


def test_verify_covering_catches_permuted_coarse_level(tmp_path, capsys):
    # the permuted file passes every load check, and even its matrix is
    # unchanged; only the covering's head check sees the wrong labels
    cfg = JobConfig(13, 5, 2, cache_dir=str(tmp_path))
    eg = build_or_load(cfg, force=True)
    swapped = _swap_vertices(eg, 1, 2)
    assert swapped.brandt == eg.brandt and swapped.edge_target != eg.edge_target
    write_graph_file(graph_file_path(cfg), swapped)
    assert load_graph_file(graph_file_path(cfg)) == swapped
    code, out = run(capsys, "verify", 13, 5, 6, "--cache-dir", tmp_path)
    assert code == EXIT_VERIFY
    (g,) = out["graphs"]
    assert g["checks"]["coverings"] is False
    assert g["detail"]["covering_2"] == "target map breaks at edge 0"
    assert "covering_1" not in g["detail"] and "covering_3" not in g["detail"]


def _truncate(path, data):
    text = open(path).read()
    open(path, "w").write(text[:100])


def _rewrite(edit):
    def corrupt(path, data):
        edit(data)
        json.dump(data, open(path, "w"))

    return corrupt


def _set_target(value):
    return _rewrite(lambda d: d["edges"]["target"].__setitem__(0, value))


def _directory_at_path(path, data):
    os.remove(path)
    os.mkdir(path)


def _swap_first_duals(d):
    dual = d["edges"]["dual"]
    dual[0], dual[1] = dual[1], dual[0]


CORRUPTIONS = {
    "truncated": _truncate,
    "directory_at_path": _directory_at_path,
    "missing_key": _rewrite(lambda d: d["edges"].pop("dual")),
    "target_out_of_range": _set_target(3),
    "target_not_int": _set_target("0"),
    "target_float": _set_target(0.0),
    "duplicate_vertex": _rewrite(
        lambda d: d.__setitem__("vertices", [[0, [0]], [0, [0]], [0, [2]]])
    ),
    "dual_not_involution": _rewrite(_swap_first_duals),
    # F_{13^2} is stored with the canonical modulus x^2 + 2
    "field_modulus": _rewrite(
        lambda d: d["field"].__setitem__("modulus", ["6", "0", "1"])
    ),
    "stale_primes": _rewrite(lambda d: d.__setitem__("primes", [3])),
    "extra_class_label": _rewrite(lambda d: d["class_labels"].append("0")),
    "non_string_class_label": _rewrite(lambda d: d.__setitem__("class_labels", [5])),
}


@pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
def test_malformed_cache_file_exits_internal(tmp_path, capsys, corruption):
    # (13, 5, 2) has three vertices (class 0 with subgroups 0, 1, 2)
    cfg = JobConfig(13, 5, 2, cache_dir=str(tmp_path))
    build_or_load(cfg, force=True)
    path = graph_file_path(cfg)
    data = json.load(open(path))
    assert data["vertices"] == [[0, [0]], [0, [1]], [0, [2]]]
    CORRUPTIONS[corruption](path, data)
    code = main(["zeta", "13", "5", "2", "--cache-dir", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == EXIT_INTERNAL
    assert captured.out == ""
    assert path in captured.err


def test_stale_parity_record_is_refused(tmp_path):
    cfg = JobConfig(13, 5, 2, cache_dir=str(tmp_path))
    build_or_load(cfg, force=True)
    path = graph_file_path(cfg)
    data = json.load(open(path))
    assert data["parity_violations"]
    data["parity_violations"] = []
    json.dump(data, open(path, "w"))
    with pytest.raises(Exception, match="parity"):
        load_graph_file(path)


# ----------------------------------------------------------------- outputs


def test_zeta_json(tmp_path, capsys):
    code, out = run(capsys, "zeta", 13, 5, 1, "--cache-dir", tmp_path)
    assert code == EXIT_OK
    assert out["chi"] == -2
    assert out["det_part"] == ["1", "-6", "5"]
    assert out["numerator"] == ["1"]
    assert out["denominator"] == ["1", "-6", "3", "12", "-9", "-6", "5"]
    # a negative leading coefficient of 1/Z moves its sign to the numerator
    code, out = run(capsys, "zeta", 13, 3, 1, "--cache-dir", tmp_path)
    assert code == EXIT_OK
    assert out["chi"] == -1
    assert out["det_part"] == ["1", "-4", "3"]
    assert out["numerator"] == ["-1"]
    assert out["denominator"] == ["-1", "4", "-2", "-4", "3"]


def test_covering_degree(tmp_path, capsys):
    code, out = run(capsys, "covering", 13, 5, 6, 2, "--cache-dir", tmp_path)
    assert code == EXIT_OK
    assert out["degree"] == 4
    assert out["vertex_fibers_ok"] and out["edge_fibers_ok"]


def test_spectrum_output(tmp_path, capsys):
    code, out = run(capsys, "spectrum", 37, 5, 1, "--cache-dir", tmp_path)
    assert code == EXIT_OK
    assert out["ramanujan"] and out["connected"]
    assert out["degree"] == 6
    assert abs(out["lambda_star"] - 2.0) < 1e-9


def test_dot_and_csv_files(tmp_path, capsys):
    dot, csv = tmp_path / "g.dot", tmp_path / "g.csv"
    code, _ = run(
        capsys, "build", 13, 5, 1, "--cache-dir", tmp_path,
        "--dot", dot, "--csv", csv,
    )
    assert code == EXIT_OK
    assert dot.read_text().startswith("graph isograph {")
    assert csv.read_text().splitlines() == ["6"]


def test_golden_export_digest(tmp_path, capsys):
    # DOT, CSV, zeta JSON and edge-oracle coefficients; (13,5,1) has loops
    # that only the re-pairing of edge_reverse pairs, and (13,5,2),
    # (37,5,1) and (13,7,2) keep self-paired loops
    h = hashlib.sha256()
    for p, l, N in ((13, 5, 1), (13, 5, 2), (37, 5, 1), (13, 7, 2), (61, 5, 1)):
        dot, csv = tmp_path / "g.dot", tmp_path / "g.csv"
        args = [str(a) for a in (p, l, N, "--cache-dir", tmp_path)]
        assert main(["build", *args, "--dot", str(dot), "--csv", str(csv)]) == EXIT_OK
        capsys.readouterr()
        assert main(["zeta", *args]) == EXIT_OK
        zeta_json = capsys.readouterr().out
        eg = load_graph_file(graph_file_path(JobConfig(p, l, N, cache_dir=str(tmp_path))))
        edge = repr(edge_matrix_zeta(eg).coeffs)
        for text in (dot.read_text(), csv.read_text(), zeta_json, edge):
            h.update(text.encode())
    assert h.hexdigest() == (
        "84d64c1aeb7a4c11f066f1a065ff69ffcaf827e19fccfc89eea82094b4fd7392"
    )


# ------------------------------------------------------------------ verify


def test_verify_single_clean(tmp_path, capsys):
    code, out = run(capsys, "verify", 13, 5, 1, "--cache-dir", tmp_path)
    assert code == EXIT_OK
    assert out["ok"]


def test_verify_solves_each_spectrum_once(tmp_path, monkeypatch):
    import isograph.cli as cli_mod
    import isograph.spectral as spectral_mod

    calls = []
    original = spectral_mod.spectrum

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(spectral_mod, "spectrum", counted)
    monkeypatch.setattr(cli_mod, "spectrum", counted)
    cfg = JobConfig(13, 5, 6, cache_dir=str(tmp_path))
    result = cli_mod.verify_graph(build_or_load(cfg), cfg)
    assert result["detail"]["cheeger_method"] == "exact"
    assert len(calls) == 1


def test_verify_computes_each_charpoly_once(tmp_path, monkeypatch):
    # a graph with at most 30 oriented edges gets the edge oracle: one
    # charpoly for the spectrum (reused by the zeta) and one for the oracle
    import isograph.cli as cli_mod
    import isograph.polys as polys_mod
    import isograph.spectral as spectral_mod
    import isograph.zeta as zeta_mod

    calls = []
    original = polys_mod.charpoly_int

    def counted(M):
        calls.append(len(M))
        return original(M)

    for mod in (polys_mod, spectral_mod, zeta_mod):
        monkeypatch.setattr(mod, "charpoly_int", counted)
    cfg = JobConfig(13, 5, 3, cache_dir=str(tmp_path))
    eg = build_or_load(cfg)
    assert eg.oriented_edge_count <= 30
    result = cli_mod.verify_graph(eg, cfg)
    assert "bass_edge_oracle" in result["checks"]
    assert calls == [eg.n, eg.oriented_edge_count]


def test_verify_loads_each_cache_file_once(tmp_path, capsys, monkeypatch):
    import isograph.cli as cli_mod

    argv = ("verify", "--grid", "p in {13}, l in {5}, N in {1,2,3,6}",
            "--workers", 1, "--cache-dir", tmp_path)
    cold_code, cold = run(capsys, *argv)
    paths = []
    original = cli_mod.load_graph_file

    def counted(path):
        paths.append(path)
        return original(path)

    monkeypatch.setattr(cli_mod, "load_graph_file", counted)
    code, out = run(capsys, *argv)
    assert (code, out) == (cold_code, cold)
    assert len(paths) == len(set(paths)) == 4


def test_verify_single_parity_failure(tmp_path, capsys):
    code, out = run(capsys, "verify", 13, 5, 2, "--cache-dir", tmp_path)
    assert code == EXIT_VERIFY
    (failure,) = out["failures"]
    assert "even_diagonal" in failure["failed_checks"]


def test_verify_grid_with_skips(tmp_path, capsys):
    code, out = run(
        capsys, "verify", "--grid", "p in {13}, l in {3}, N in {1,2,3,6}",
        "--cache-dir", tmp_path,
    )
    assert code == EXIT_OK
    assert [(g["p"], g["l"], g["N"]) for g in out["graphs"]] == [
        (13, 3, 1),
        (13, 3, 2),
    ]
    assert out["skipped_inadmissible"] == [[13, 3, 3], [13, 3, 6]]


def test_verify_refuses_triple_with_grid(tmp_path, capsys):
    code, out = run(
        capsys, "verify", 37, 5, 1, "--grid", "p in {13}, l in {3}, N in {1}",
        "--cache-dir", tmp_path,
    )
    assert code == EXIT_PARAMS and out is None


def test_verify_workers_match_serial(tmp_path, capsys):
    # the pool path: one task per (p, l) group, each group loading its
    # coarse levels once; manifest and cache bytes as with one worker
    grid = "p in {13,37}, l in {3,5}, N in {1,2,6}"
    runs = {}
    for workers in (1, 2):
        cache = tmp_path / f"w{workers}"
        runs[workers] = run(
            capsys, "verify", "--grid", grid, "--cache-dir", cache,
            "--workers", workers,
        )
        runs[workers] += ({f.name: f.read_bytes() for f in cache.iterdir()},)
    assert runs[1][0] == EXIT_VERIFY  # odd diagonals at (13, 5) and (37, 5)
    # ten graphs, plus level 3 of (13, 5) and (37, 5) as coarse levels of 6
    assert len(runs[1][1]["graphs"]) == 10 and len(runs[1][2]) == 12
    assert runs[2] == runs[1]


# ------------------------------------------------------------- grid parser


def test_parse_grid_full():
    triples, skipped = parse_grid("p in {13,37}, l in {3,5}, N in {1,2}")
    assert (13, 3, 1) in triples and (37, 5, 2) in triples
    assert len(triples) == 8
    assert skipped == []


def test_parse_grid_filters_inadmissible():
    triples, skipped = parse_grid("p in {13}, l in {5}, N in {1,5,10}")
    assert triples == [(13, 5, 1)]
    assert skipped == [(13, 5, 5), (13, 5, 10)]


def test_parse_grid_rejects_garbage():
    with pytest.raises(AdmissibilityError):
        parse_grid("p in {13}, l in {5}")
    with pytest.raises(AdmissibilityError):
        parse_grid("p in {13}, l in {5}, N in {}")
    with pytest.raises(AdmissibilityError):
        parse_grid("p in {13} nonsense, l in {5}, N in {1}")
    with pytest.raises(AdmissibilityError):
        parse_grid("p in {13}, p in {37}, l in {5}, N in {1}")
