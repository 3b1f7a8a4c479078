"""End-to-end tests for the command line interface and the cache file
format: determinism, self-validation, exit codes, and the grid parser."""

import hashlib
import json
import os
import shlex
import shutil

import pytest

from isograph.cli import (
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_PARAMS,
    EXIT_VERIFY,
    GraphFileError,
    JobConfig,
    _builder,
    build_or_load,
    build_parser,
    cmd_build,
    cmd_cheeger,
    cmd_covering,
    cmd_reciprocity,
    cmd_spectrum,
    cmd_verify,
    cmd_zeta,
    graph_file_path,
    load_graph_file,
    main,
    parse_grid,
    write_graph_file,
)
import isograph.curves as curves_mod
import isograph.enhanced as enhanced_mod
import isograph.zeta as zeta_mod
from isograph.curves import TorsionBasisError
from isograph.enhanced import AdmissibilityError, EnhancedGraph, GraphBuilder
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
        fresh = shared._replace(cache_dir=str(tmp_path / "fresh"))
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


def test_cached_file_of_another_seed_is_refused(tmp_path):
    # the file at seed 1's path holds the seed-0 graph: refused, naming
    # the path, and left as it is
    c0 = JobConfig(13, 5, 2, seed=0, cache_dir=str(tmp_path))
    c1 = c0._replace(seed=1)
    build_or_load(c0, force=True)
    path = graph_file_path(c1)
    shutil.copy(graph_file_path(c0), path)
    before = open(path, "rb").read()
    with pytest.raises(GraphFileError, match=r"\(p, l, N, seed\) = \(13, 5, 2, 0\)"):
        build_or_load(c1)
    assert open(path, "rb").read() == before
    assert build_or_load(c1, force=True).seed == 1


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
    # M = 4 is not squarefree and M = 7 an admissible level that does not
    # divide 6; M = 0 is refused as a parameter before N % M is taken
    for M in (4, 7, 0):
        code = main([str(a) for a in ("covering", 13, 5, 6, M, "--cache-dir", tmp_path)])
        captured = capsys.readouterr()
        assert code == EXIT_PARAMS and captured.out == "", M
        if M == 7:
            assert "7 does not divide 6" in captured.err


def _refused_output(capsys, argv):
    """Exit code and stderr of a run that must stop at an output path."""
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    assert captured.out == ""
    return code, captured.err.splitlines()


@pytest.mark.parametrize("flag", ["--dot", "--csv"])
def test_unwritable_export_path_is_a_bad_parameter(tmp_path, capsys, flag):
    target = tmp_path / "missing" / "g.out"
    code, err = _refused_output(
        capsys, ["build", 13, 5, 2, "--cache-dir", tmp_path, flag, target]
    )
    assert code == EXIT_PARAMS
    assert err == [f"error: cannot write {target}: No such file or directory"]
    assert not target.parent.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ("build", 13, 5, 2),
        ("spectrum", 13, 5, 2),
        ("verify", "--grid", "p in {13}, l in {5}, N in {1, 2}"),
    ],
    ids=["build", "spectrum", "verify-grid"],
)
def test_cache_dir_that_is_a_file_is_a_bad_parameter(tmp_path, capsys, argv):
    blocker = tmp_path / "cache"
    blocker.write_text("a regular file\n")
    code, err = _refused_output(capsys, [*argv, "--cache-dir", blocker])
    assert code == EXIT_PARAMS
    assert len(err) == 1 and err[0].startswith(f"error: cannot write {blocker}/")
    assert err[0].endswith(f": File exists: {blocker}")
    assert blocker.read_text() == "a regular file\n"


def _refuse_torsion_basis(*args, **kwargs):
    raise TorsionBasisError("patched")


_x_chain = curves_mod.x_chain


def _x_chain_wrong_past_2p(curve, x, count, start=None):
    """curves.x_chain, but every multiple past [2]P reads as x(P).  In
    `build 13 5 2` the x_multiples of the slot tables stop at [2]P
    ((5 - 1)/2 at r = 5, one at r = 2), and the chains from a start pair
    that give the generators pass through unchanged, so the tables stay
    right and only velu_quotient's guard, which asks for x([3]P) = x([2]P),
    sees the lie: on an order-5 kernel x(P) is not x([2]P)."""
    if start is not None:
        return _x_chain(curve, x, count, start)
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
    return EnhancedGraph(
        eg.p, eg.l, eg.level, eg.seed, eg.class_labels, tuple(target), tuple(dual)
    )


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
    # the covering command fails the same check, with the same exit code
    code, out = run(capsys, "covering", 13, 5, 6, 2, "--cache-dir", tmp_path)
    assert code == EXIT_VERIFY and out is None


def test_disconnected_graph_fails_checks(tmp_path, capsys):
    # every edge a loop, duals paired two by two: a valid edge structure
    # with matrix diag(6, 6, 6), so three components
    cfg = JobConfig(13, 5, 2, cache_dir=str(tmp_path))
    eg = build_or_load(cfg, force=True)
    m = eg.oriented_edge_count
    loops = EnhancedGraph(
        eg.p,
        eg.l,
        eg.level,
        eg.seed,
        eg.class_labels,
        edge_target=tuple(e // 6 for e in range(m)),
        edge_dual=tuple(e ^ 1 for e in range(m)),
    )
    assert loops.brandt == ((6, 0, 0), (0, 6, 0), (0, 0, 6))
    write_graph_file(graph_file_path(cfg), loops)
    code, out = run(capsys, "verify", 13, 5, 2, "--cache-dir", tmp_path)
    assert code == EXIT_VERIFY
    (g,) = out["graphs"]
    assert g["checks"]["connected"] is False
    assert "bass_edge_oracle" not in g["checks"]
    assert g["detail"]["bass_edge_oracle"] == "skipped: graph disconnected"
    code = main(["zeta", "13", "5", "2", "--cache-dir", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == EXIT_VERIFY and captured.out == ""
    assert "connected" in captured.err


def test_reciprocity_command_rejects_equal_primes(capsys):
    code, out = run(capsys, "reciprocity", 13, 13, 5)
    assert code == EXIT_PARAMS and out is None


def test_reciprocity_refuses_a_perturbed_euler_characteristic(capsys, monkeypatch):
    # mutation: the level-37 graph over 13 reports chi + 1, so chi_left
    # leaves the expected value; the D comparison alone would still agree
    honest = zeta_mod.euler_characteristic

    def shifted(eg):
        return honest(eg) + (eg.p == 13 and eg.level == 37)

    monkeypatch.setattr(zeta_mod, "euler_characteristic", shifted)
    code, cert = run(capsys, "reciprocity", 13, 37, 5)
    assert code == EXIT_VERIFY
    assert cert["chi"] == {"left": -71, "right": -72, "expected": -72}
    assert not cert["chi_ok"] and not cert["equal"]


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
    # a valid graph file, but of another seed than the path names
    "metadata_of_another_seed": _rewrite(lambda d: d["metadata"].__setitem__("seed", 7)),
}


# every command that reads the (13, 5, 2) cache file, as argv tails
LOADING_COMMANDS = (
    ("zeta",),
    ("spectrum",),
    ("cheeger",),
    ("verify",),
    ("covering", "1"),
)


@pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
def test_malformed_cache_file_exits_internal(tmp_path, capsys, corruption):
    # (13, 5, 2) has three vertices (class 0 with subgroups 0, 1, 2)
    cfg = JobConfig(13, 5, 2, cache_dir=str(tmp_path))
    build_or_load(cfg, force=True)
    path = graph_file_path(cfg)
    data = json.load(open(path))
    assert data["vertices"] == [[0, [0]], [0, [1]], [0, [2]]]
    CORRUPTIONS[corruption](path, data)
    for cmd, *extra in LOADING_COMMANDS:
        argv = [cmd, "13", "5", "2", *extra, "--cache-dir", str(tmp_path)]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == EXIT_INTERNAL, cmd
        assert captured.out == "", cmd
        assert path in captured.err, cmd


def test_unknown_format_marker_is_refused(tmp_path, capsys):
    # the rebuild comparison would refuse the file too; the marker check
    # comes first and names the cause
    cfg = JobConfig(13, 5, 2, cache_dir=str(tmp_path))
    build_or_load(cfg, force=True)
    path = graph_file_path(cfg)
    _rewrite(lambda d: d.__setitem__("format", "isograph.graph.v2"))(path, json.load(open(path)))
    code = main(["zeta", "13", "5", "2", "--cache-dir", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == EXIT_INTERNAL and captured.out == ""
    assert f"{path}: unknown format marker" in captured.err


def test_cache_file_with_an_extra_class_is_refused(tmp_path, capsys, monkeypatch):
    # a (13, 5, 1) file for two classes where p = 13 has one: each vertex's
    # six loops paired two by two, and every derived entry as graph_to_dict
    # writes it for two vertices, so only the vertex census tells it apart
    cfg = JobConfig(13, 5, 1, cache_dir=str(tmp_path))
    real = build_or_load(cfg, force=True)
    k = real.degree
    target, dual = (0,) * k + (1,) * k, tuple(e ^ 1 for e in range(2 * k))
    with monkeypatch.context() as m:
        m.setattr(enhanced_mod, "vertex_count", lambda p, N: 2)
        crafted = EnhancedGraph(13, 5, 1, 0, real.class_labels + ("0",), target, dual)
    path = graph_file_path(cfg)
    write_graph_file(path, crafted)
    assert json.load(open(path))["vertices"] == [[0, []], [1, []]]
    code = main(["verify", "13", "5", "1", "--cache-dir", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == EXIT_INTERNAL and captured.out == ""
    assert f"{path}: vertex census does not match the mass count" in captured.err


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
    assert out == {"fine": [13, 5, 6], "coarse": [13, 5, 2], "fiber_size": 4}


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


def test_cache_file_mode_follows_the_umask(tmp_path, capsys):
    # the cache file is written through a temporary file and renamed; its
    # mode must come from the umask, as the --dot file's does
    dot = tmp_path / "g.dot"
    old = os.umask(0o022)
    try:
        code, _ = run(capsys, "build", 13, 5, 1, "--cache-dir", tmp_path, "--dot", dot)
    finally:
        os.umask(old)
    assert code == EXIT_OK
    cached = graph_file_path(JobConfig(13, 5, 1, cache_dir=str(tmp_path)))
    assert os.stat(cached).st_mode & 0o777 == dot.stat().st_mode & 0o777 == 0o644
    assert sorted(p.name for p in tmp_path.iterdir()) == ["g.dot", os.path.basename(cached)]


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


def _count_charpolys(monkeypatch, calls):
    """Record (rows, number of partitions) of every charpoly_int call,
    under each name the package reaches it by."""
    import isograph.graph as graph_mod
    import isograph.polys as polys_mod
    import isograph.spectral as spectral_mod

    original = polys_mod.charpoly_int

    def counted(matrix, *restriction):
        calls.append((len(matrix), len(restriction[0]) if restriction else 0))
        return original(matrix, *restriction)

    for mod in (polys_mod, spectral_mod, graph_mod):
        monkeypatch.setattr(mod, "charpoly_int", counted)


def test_verify_computes_each_charpoly_once(tmp_path, monkeypatch, fresh_new_parts):
    # a graph with at most 30 oriented edges gets the edge oracle, which
    # counts walks.  The spectrum builds the level quotients once and takes
    # each level's new part and float block from them; the zeta asks the
    # level tower for the characteristic polynomial.  Each new part is
    # computed once, Q_1 on the 1-vertex level-1 quotient and Q_3 on the
    # whole graph, and each new block is solved once (1 and 3 rows); the
    # whole-matrix solver never runs
    import isograph.cli as cli_mod
    import isograph.graph as graph_mod
    import isograph.spectral as spectral_mod

    calls, towers, builds, solved, whole = [], [], [], [], []
    tower, quotients = graph_mod.tower_charpoly, graph_mod.level_quotients
    tridiagonalize = spectral_mod._tridiagonalize

    def counted_tower(eg):
        towers.append(eg.n)
        return tower(eg)

    def counted_quotients(eg):
        builds.append(eg.n)
        return quotients(eg)

    def counted_tridiagonalize(A):
        solved.append(len(A))
        return tridiagonalize(A)

    _count_charpolys(monkeypatch, calls)
    for mod in (graph_mod, zeta_mod):
        monkeypatch.setattr(mod, "tower_charpoly", counted_tower)
    monkeypatch.setattr(spectral_mod, "level_quotients", counted_quotients)
    monkeypatch.setattr(spectral_mod, "_tridiagonalize", counted_tridiagonalize)
    monkeypatch.setattr(spectral_mod, "symmetric_eigenvalues", whole.append)
    cfg = JobConfig(13, 5, 3, cache_dir=str(tmp_path))
    eg = build_or_load(cfg)
    assert eg.oriented_edge_count <= 30
    result = cli_mod.verify_graph(eg, cfg)
    assert "bass_edge_oracle" in result["checks"]
    assert builds == towers == [eg.n] == [4]
    assert [rows for rows, _ in calls] == [1, eg.n]
    assert solved == [1, 3] and whole == []
    # the same graph again: every new part and block comes from the cache
    cli_mod.verify_graph(eg, cfg)
    assert len(builds) == len(towers) == 2
    assert len(calls) == 2 and len(solved) == 2 and whole == []


def test_cheeger_command_takes_the_level_tower(tmp_path, capsys, monkeypatch, fresh_new_parts):
    # without a spectrum in hand, cheeger_constant asks for the graph's own:
    # the new parts Q_1, Q_2, Q_3 and Q_6 of G(6), never a Lanczos over the
    # whole 12-row matrix without a partition
    calls = []
    _count_charpolys(monkeypatch, calls)
    code, out = run(capsys, "cheeger", 13, 5, 6, "--cache-dir", tmp_path)
    assert code == 0 and out["method"] == "exact"
    assert (12, 0) not in calls
    assert calls == [(1, 0), (3, 1), (4, 1), (12, 2)]


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


@pytest.mark.parametrize("triple", [(), (13, 5)], ids=["none", "partial"])
def test_verify_refuses_neither_triple_nor_grid(tmp_path, capsys, triple):
    code = main([str(a) for a in ("verify", *triple, "--cache-dir", tmp_path)])
    captured = capsys.readouterr()
    assert code == EXIT_PARAMS and captured.out == ""
    assert "verify needs either p l N or --grid" in captured.err


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


def test_verify_pool_has_at_most_one_worker_per_task(tmp_path, capsys, monkeypatch):
    # a fork pool starts every worker it is asked for at the first submit,
    # so the pool is sized by the (p, l) groups; this fake runs them serially
    import concurrent.futures

    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    argv = ("verify", "--grid", "p in {13}, l in {3,5}, N in {1}", "--cache-dir", tmp_path)
    serial = run(capsys, *argv)
    assert sizes == []
    assert run(capsys, *argv, "--workers", 5000) == serial
    assert sizes == [2]
    for workers in (0, -3):
        assert run(capsys, *argv, "--workers", workers) == (EXIT_PARAMS, None)
    assert sizes == [2]


# --------------------------------------------------------------- arguments

_CACHE = {"cache_dir": "isograph-cache"}
_GRID = "p in {13}, l in {5}, N in {1}"

# every subcommand's parsed namespace: names, values and types, func included
PARSED = [
    (
        "build 13 5 6",
        dict(func=cmd_build, p=13, l=5, N=6, dot=None, csv=None, seed=0, **_CACHE),
    ),
    (
        "build 13 5 6 --dot g.dot --csv g.csv --seed 7 --cache-dir c",
        dict(func=cmd_build, p=13, l=5, N=6, dot="g.dot", csv="g.csv", seed=7,
             cache_dir="c"),
    ),
    ("spectrum 37 5 1", dict(func=cmd_spectrum, p=37, l=5, N=1, seed=0, **_CACHE)),
    ("zeta --seed 3 13 5 1", dict(func=cmd_zeta, p=13, l=5, N=1, seed=3, **_CACHE)),
    (
        "cheeger 13 5 2 --cache-dir c",
        dict(func=cmd_cheeger, p=13, l=5, N=2, seed=0, cache_dir="c"),
    ),
    ("covering 13 5 6 2", dict(func=cmd_covering, p=13, l=5, N=6, M=2, seed=0, **_CACHE)),
    ("reciprocity 13 37 5", dict(func=cmd_reciprocity, p=13, q=37, l=5, seed=0)),
    ("reciprocity 13 61 5 --seed 2", dict(func=cmd_reciprocity, p=13, q=61, l=5, seed=2)),
    (
        "verify 13 5 6",
        dict(func=cmd_verify, p=13, l=5, N=6, grid=None, workers=1, seed=0, **_CACHE),
    ),
    (
        f"verify --grid '{_GRID}' --workers 2 --seed 1",
        dict(func=cmd_verify, p=None, l=None, N=None, grid=_GRID, workers=2, seed=1,
             **_CACHE),
    ),
]


@pytest.mark.parametrize("line, expected", PARSED, ids=[line for line, _ in PARSED])
def test_parsed_arguments(line, expected):
    argv = shlex.split(line)
    typed = lambda d: {k: (v, type(v)) for k, v in d.items()}
    got = vars(build_parser().parse_args(argv))
    assert typed(got) == typed({"command": argv[0], **expected})


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
    # an empty clause is not read as an empty entry
    for empty in ("{}", "{ }"):
        with pytest.raises(AdmissibilityError, match="grid clause for N is empty"):
            parse_grid(f"p in {{13}}, l in {{5}}, N in {empty}")
    with pytest.raises(AdmissibilityError):
        parse_grid("p in {13} nonsense, l in {5}, N in {1}")
    with pytest.raises(AdmissibilityError):
        parse_grid("p in {13}, p in {37}, l in {5}, N in {1}")
    # not read as 13, nor as the same graph twice
    with pytest.raises(AdmissibilityError, match="p has a space inside an entry"):
        parse_grid("p in {1 3}, l in {5}, N in {1}")
    with pytest.raises(AdmissibilityError, match="N repeats a value"):
        parse_grid("p in {13}, l in {5}, N in {1,2,1}")
    # nor as the smaller grid {13, 37} x {5} x {1}
    with pytest.raises(AdmissibilityError, match="p has an empty entry"):
        parse_grid("p in {13,,37}, l in {5,}, N in {1}")
    with pytest.raises(AdmissibilityError, match="l has an empty entry"):
        parse_grid("p in {13,37}, l in {5,}, N in {1}")


@pytest.mark.parametrize(
    "grid",
    [
        "p in {1 3}, l in {5}, N in {1}",
        "p in {13,13}, l in {5}, N in {1}",
        "p in {13,,37}, l in {5,}, N in {1}",
    ],
)
def test_verify_grid_refuses_malformed_clause(tmp_path, capsys, grid):
    code, _ = run(capsys, "verify", "--grid", grid, "--cache-dir", tmp_path)
    assert code == EXIT_PARAMS
    assert not any(tmp_path.iterdir())
