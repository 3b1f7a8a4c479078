"""Command line front end: build graphs into a cache, inspect them, run
the verification suite.

Exit codes: 0 success, 2 bad parameters (an output path that cannot be
written included), 3 a verification check failed (a failed covering,
the zeta of a disconnected graph included), 4 an internal invariant was
violated (bug or corrupted cache).  All structured output is JSON on
stdout; human-facing errors go to stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import json
import os
import re
import sys
from typing import NamedTuple

from . import __version__
from .curves import CurveError, TorsionBasisError
from .enhanced import (
    AdmissibilityError,
    EnhancedGraph,
    GraphBuildError,
    GraphBuilder,
    check_admissible,
    vertex_count,
)
from .fields import NotInSubfield, make_extension_field
from .graph import (
    CoveringError,
    adjacency_csv,
    covering_map,
    euler_characteristic,
    to_dot,
    verify_covering,
)
from .spectral import SpectralError, cheeger_constant, cheeger_sandwich
from .spectral import is_bipartite, ramanujan_report, spectrum
from .supersingular import ClassTableError
from .zeta import ORACLE_EDGE_LIMIT, ZetaError, edge_matrix_zeta, ihara_zeta
from .zeta import reciprocity_check

EXIT_OK = 0
EXIT_PARAMS = 2
EXIT_VERIFY = 3
EXIT_INTERNAL = 4


class GraphFileError(RuntimeError):
    """Cache file failed self-validation."""


class OutputPathError(ValueError):
    """An output path (a cache directory, --dot or --csv) cannot be written."""


class JobConfig(NamedTuple):
    p: int
    l: int
    N: int
    seed: int = 0
    cache_dir: str = "isograph-cache"


# ---------------------------------------------------------------- GraphFile


def graph_file_path(cfg: JobConfig) -> str:
    return os.path.join(
        cfg.cache_dir, f"graph_p{cfg.p}_l{cfg.l}_N{cfg.N}_s{cfg.seed}.json"
    )


def graph_to_dict(eg: EnhancedGraph) -> dict:
    """The file format: what `build` writes and `load_graph_file` expects."""
    return {
        "format": "isograph.graph.v1",
        "metadata": {
            "p": eg.p,
            "l": eg.l,
            "level": eg.level,
            "seed": eg.seed,
            "tool_version": __version__,
        },
        "field": {
            "p": eg.p,
            "degree": 2,
            "modulus": [str(c) for c in make_extension_field(eg.p, 2).modulus],
        },
        "class_labels": list(eg.class_labels),
        "primes": list(eg.primes),
        "vertices": [[c, list(S)] for c, S in eg.vertices],
        "adjacency": [list(row) for row in eg.brandt],
        "edges": {
            "target": list(eg.edge_target),
            "dual": list(eg.edge_dual),
        },
        "parity_violations": list(eg.parity_violations),
    }


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


@contextlib.contextmanager
def _output(path: str):
    """Report an OSError while writing `path` as OutputPathError, naming
    the path that failed when it is another (an existing file where the
    cache directory should be, say)."""
    try:
        yield
    except OSError as e:
        at = "" if e.filename in (None, path) else f": {e.filename}"
        raise OutputPathError(f"cannot write {path}: {e.strerror or e}{at}") from None


def write_graph_file(path: str, eg: EnhancedGraph) -> None:
    payload = canonical_json(graph_to_dict(eg))
    directory = os.path.dirname(path) or "."
    with _output(path):
        os.makedirs(directory, exist_ok=True)
        # mode 0o666 less the umask, as for the --dot and --csv files
        tmp = f"{path}.{os.urandom(8).hex()}.tmp"
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(payload)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise


def load_graph_file(path: str) -> EnhancedGraph:
    """Rebuild a cached graph from its edges and compare.  The graph is
    constructed from the stored metadata, class labels and edge arrays,
    which checks the edge structure; every other entry must then equal
    what `graph_to_dict` writes for it (the tool version aside).  Anything
    else (undecodable, missing keys, wrong types, a broken edge structure,
    a stale derived entry) raises GraphFileError."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except ValueError as e:  # JSONDecodeError, UnicodeDecodeError
        raise GraphFileError(f"{path}: undecodable: {e}") from None
    except OSError as e:  # a directory or an unreadable file at the path
        raise GraphFileError(f"{path}: unreadable: {e.strerror}") from None
    if not isinstance(data, dict) or data.get("format") != "isograph.graph.v1":
        raise GraphFileError(f"{path}: unknown format marker")
    try:
        md, edges = data["metadata"], data["edges"]
        p, l, N, seed = md["p"], md["l"], md["level"], md["seed"]
        labels, target, dual = data["class_labels"], edges["target"], edges["dual"]
    except (KeyError, TypeError) as e:
        raise GraphFileError(f"{path}: missing or misplaced key {e}") from None
    if (
        not all(isinstance(v, list) for v in (labels, target, dual))
        or not all(type(v) is int for v in (p, l, N, seed, *target, *dual))
        or not all(type(v) is str for v in labels)
    ):
        raise GraphFileError(f"{path}: metadata, labels or edges of the wrong type")
    try:
        eg = EnhancedGraph(p, l, N, seed, tuple(labels), tuple(target), tuple(dual))
    except AdmissibilityError as e:
        raise GraphFileError(f"{path}: inadmissible parameters: {e}") from None
    except GraphBuildError as e:
        raise GraphFileError(f"{path}: {e}") from None
    expected = graph_to_dict(eg)
    expected["metadata"]["tool_version"] = md.get("tool_version")  # any version loads
    for key, value in expected.items():
        if data.get(key) != value:
            raise GraphFileError(f"{path}: stored {key!r} differs from the rebuild")
    return eg


@functools.cache
def _builder(p: int, l: int, seed: int) -> GraphBuilder:
    """One builder per (p, l, seed) for the life of the process, so every
    level built here shares its class table, torsion data and arrows."""
    return GraphBuilder(p, l, seed=seed)


def build_or_load(cfg: JobConfig, force: bool = False) -> EnhancedGraph:
    """`cfg`'s graph from its cache file, or built and written there.  A
    file whose metadata names another (p, l, N, seed) than its path is
    refused (GraphFileError), not overwritten."""
    path = graph_file_path(cfg)
    if not force and os.path.exists(path):
        eg = load_graph_file(path)
        stored = (eg.p, eg.l, eg.level, eg.seed)
        if stored != (cfg.p, cfg.l, cfg.N, cfg.seed):
            raise GraphFileError(f"{path}: holds the graph of (p, l, N, seed) = {stored}")
        return eg
    builder = _builder(cfg.p, cfg.l, cfg.seed)
    eg = builder.build(cfg.N)
    write_graph_file(path, eg)
    return eg


# ------------------------------------------------------------ verification


def _graph(cfg: JobConfig, graphs: dict) -> EnhancedGraph:
    """`cfg`'s graph, loaded or built at most once per `graphs` dict."""
    if cfg not in graphs:
        graphs[cfg] = build_or_load(cfg)
    return graphs[cfg]


def verify_graph(eg: EnhancedGraph, cfg: JobConfig, graphs: dict | None = None) -> dict:
    """Property suite for one graph; returns {check: bool} plus details.
    Coarser levels for the covering check come from `graphs` (by JobConfig)
    or else from `cfg`'s cache.  The checks read facts computed once: the
    parity record from the EnhancedGraph constructor, and symmetry and row
    sums from spectrum and ramanujan_report, which raise SpectralError
    (exit 4) on a matrix without them, so no manifest records it."""
    graphs = {} if graphs is None else graphs
    p, l, N = eg.p, eg.l, eg.level
    checks: dict[str, bool] = {}
    detail: dict[str, object] = {}
    spec = spectrum(eg)
    rep = ramanujan_report(spec, l)

    checks["vertex_count"] = eg.n == vertex_count(p, N)
    # spectrum() refused asymmetry and irregularity, ramanujan_report() degree != l + 1
    checks["symmetry_row_sums"] = spec.degree == l + 1
    checks["even_diagonal"] = eg.parity_violations == ()
    if eg.parity_violations:
        detail["even_diagonal"] = list(eg.parity_violations)

    checks["connected"] = rep.connected
    checks["non_bipartite"] = not is_bipartite(spec.charpoly)
    checks["ramanujan_window"] = rep.ok
    detail["lambda_star"] = rep.lambda_star
    detail["ramanujan_bound"] = rep.bound

    chi = euler_characteristic(eg)
    ok_chi = chi == eg.n * (1 - l) // 2
    if N == 1:
        ok_chi = ok_chi and chi == (p - 1) * (1 - l) // 24
    checks["euler_characteristic"] = ok_chi
    detail["chi"] = chi

    checks["laplacian_gap_window"] = rep.gap_floor
    detail["laplacian_gap"] = spec.laplacian_gap
    ch = cheeger_constant(eg, spec=spec)
    exact = ch.value is not None
    # without an exact h (n = 1 or n > 24), lambda_1 <= 2 sqrt(l) certifies the floor
    checks["cheeger_sandwich"] = cheeger_sandwich(spec, ch.value) if exact else rep.gap_floor
    detail["cheeger"] = float(ch.value) if exact else None
    detail["cheeger_method"] = ch.method

    if not rep.connected:  # the zeta function needs a connected graph
        detail["bass_edge_oracle"] = "skipped: graph disconnected"
    elif eg.oriented_edge_count <= ORACLE_EDGE_LIMIT:
        z = ihara_zeta(eg)
        checks["bass_edge_oracle"] = edge_matrix_zeta(eg) == z.inverse_polynomial()
    else:
        detail["bass_edge_oracle"] = "skipped: graph too large"

    # every proper divisor level must be covered with the right fibers
    cover_ok = True
    for M in range(1, N):
        if N % M != 0:
            continue
        coarse = _graph(cfg._replace(N=M), graphs)
        try:
            verify_covering(eg, coarse, covering_map(eg, coarse))
        except CoveringError as e:
            cover_ok = False
            detail[f"covering_{M}"] = str(e)
    checks["coverings"] = cover_ok

    return {
        "p": p,
        "l": l,
        "N": N,
        "n": eg.n,
        "checks": checks,
        "detail": detail,
        "ok": all(checks.values()),
    }


# ------------------------------------------------------------- grid parsing


_GRID_CLAUSE = re.compile(r"([plN])\s*in\s*\{([0-9,\s]*)\}")


def parse_grid(text: str) -> tuple[list[tuple[int, int, int]], list[tuple[int, int, int]]]:
    """Expand 'p in {13,37}, l in {3,5}, N in {1,2,3,6}' to the admissible
    (p, l, N) triples and the skipped inadmissible ones, each in grid
    order; inadmissible combinations are filtered, not errors.  A clause
    that repeats a value, an entry with a space inside ({1 3}) or an empty
    entry ({13,,37}) is refused rather than read as the same graph twice,
    as 13 or as a smaller grid."""
    found = dict.fromkeys("plN")
    for m in _GRID_CLAUSE.finditer(text):
        var, body = m.group(1), m.group(2)
        if found[var] is not None:
            raise AdmissibilityError(f"grid clause for {var} repeated")
        if not body.strip():
            raise AdmissibilityError(f"grid clause for {var} is empty")
        entries = [x.split() for x in body.split(",")]
        if any(len(e) > 1 for e in entries):
            raise AdmissibilityError(f"grid clause for {var} has a space inside an entry")
        if not all(entries):
            raise AdmissibilityError(f"grid clause for {var} has an empty entry")
        values = [int(e[0]) for e in entries]
        if len(set(values)) != len(values):
            raise AdmissibilityError(f"grid clause for {var} repeats a value")
        found[var] = values
    leftover = _GRID_CLAUSE.sub("", text).replace(",", "").strip()
    if leftover:
        raise AdmissibilityError(f"unparsed grid fragment: {leftover!r}")
    missing = [v for v, vals in found.items() if vals is None]
    if missing:
        raise AdmissibilityError(f"grid is missing clauses for {missing}")
    triples, skipped = [], []
    for t in itertools.product(found["p"], found["l"], found["N"]):
        try:
            check_admissible(*t)
            triples.append(t)
        except AdmissibilityError:
            skipped.append(t)
    return triples, skipped


# ----------------------------------------------------------- command bodies


def _emit(obj) -> None:
    sys.stdout.write(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def cmd_build(args) -> int:
    cfg = _config(args)
    eg = build_or_load(cfg, force=True)
    path = graph_file_path(cfg)
    for out, render in ((args.dot, to_dot), (args.csv, adjacency_csv)):
        if out:
            with _output(out), open(out, "w") as fh:
                fh.write(render(eg))
    _emit(
        {
            "path": path,
            "p": eg.p,
            "l": eg.l,
            "N": eg.level,
            "vertices": eg.n,
            "oriented_edges": eg.oriented_edge_count,
            "parity_violations": list(eg.parity_violations),
        }
    )
    return EXIT_OK


def cmd_spectrum(args) -> int:
    cfg = _config(args)
    eg = build_or_load(cfg)
    spec = spectrum(eg)
    rep = ramanujan_report(spec, eg.l)
    _emit(
        {
            "p": eg.p,
            "l": eg.l,
            "N": eg.level,
            "degree": spec.degree,
            "eigenvalues": list(spec.eigenvalues),
            "lambda_star": rep.lambda_star,
            "ramanujan_bound": rep.bound,
            "ramanujan": rep.ok,
            "connected": rep.connected,
            "laplacian_gap": spec.laplacian_gap,
        }
    )
    return EXIT_OK if rep.ok else EXIT_VERIFY


def cmd_zeta(args) -> int:
    cfg = _config(args)
    eg = build_or_load(cfg)
    z = ihara_zeta(eg)
    out = z.to_json_dict()
    out.update({"p": eg.p, "l": eg.l, "N": eg.level})
    _emit(out)
    return EXIT_OK


def cmd_cheeger(args) -> int:
    cfg = _config(args)
    eg = build_or_load(cfg)
    r = cheeger_constant(eg)
    _emit(
        {
            "p": eg.p,
            "l": eg.l,
            "N": eg.level,
            "value": float(r.value) if r.value is not None else None,
            "witness": list(r.witness) if r.witness is not None else None,
            "lower_bound": r.lower_bound,
            "upper_bound": r.upper_bound,
            "method": r.method,
        }
    )
    return EXIT_OK


def cmd_covering(args) -> int:
    cfg = _config(args)
    if args.M < 1:
        raise AdmissibilityError(f"M = {args.M} must be a positive integer")
    if args.N % args.M != 0:
        raise AdmissibilityError(f"{args.M} does not divide {args.N}")
    fine = build_or_load(cfg)
    coarse = build_or_load(cfg._replace(N=args.M))
    cov = covering_map(fine, coarse)
    verify_covering(fine, coarse, cov)
    _emit(
        {
            "fine": (fine.p, fine.l, fine.level),
            "coarse": (coarse.p, coarse.l, coarse.level),
            "fiber_size": cov.fiber_size,
        }
    )
    return EXIT_OK


def cmd_reciprocity(args) -> int:
    cert = reciprocity_check(args.p, args.q, args.l, seed=args.seed)
    _emit(cert)
    return EXIT_OK if cert["equal"] else EXIT_VERIFY


def _verify_one(cfg: JobConfig, graphs: dict) -> dict:
    return verify_graph(_graph(cfg, graphs), cfg, graphs)


def _verify_group(jobs: list[JobConfig]) -> list[dict]:
    """Verify `jobs` in order, loading each graph once for the whole group."""
    graphs: dict[JobConfig, EnhancedGraph] = {}
    return [_verify_one(cfg, graphs) for cfg in jobs]


def cmd_verify(args) -> int:
    if args.workers < 1:
        raise AdmissibilityError(f"--workers must be at least 1, not {args.workers}")
    if args.grid:
        if (args.p, args.l, args.N) != (None, None, None):
            raise AdmissibilityError("verify takes either p l N or --grid, not both")
        triples, skips = parse_grid(args.grid)
    else:
        if args.p is None or args.l is None or args.N is None:
            raise AdmissibilityError("verify needs either p l N or --grid")
        check_admissible(args.p, args.l, args.N)
        triples = [(args.p, args.l, args.N)]
        skips = []
    jobs = [_config(args)._replace(p=p, l=l, N=N) for p, l, N in triples]
    # coarse levels share (p, l) with the jobs that cover them, and grid
    # order keeps each (p, l) contiguous: one task per (p, l) group
    groups = [list(g) for _, g in itertools.groupby(jobs, lambda c: (c.p, c.l))]
    if args.workers > 1 and len(groups) > 1:
        from concurrent.futures import ProcessPoolExecutor

        # a fork pool starts all its workers at the first submit
        with ProcessPoolExecutor(max_workers=min(args.workers, len(groups))) as pool:
            results = [r for group in pool.map(_verify_group, groups) for r in group]
    else:
        results = _verify_group(jobs)
    failures = [r for r in results if not r["ok"]]
    manifest = {
        "graphs": results,
        "skipped_inadmissible": skips,
        "failures": [
            {
                "p": r["p"],
                "l": r["l"],
                "N": r["N"],
                "failed_checks": [c for c, ok in r["checks"].items() if not ok],
            }
            for r in failures
        ],
        "ok": not failures,
    }
    _emit(manifest)
    return EXIT_OK if not failures else EXIT_VERIFY


# ----------------------------------------------------------------- argparse


def _config(args) -> JobConfig:
    """JobConfig from the parsed arguments; fields whose flag the
    subcommand does not take keep their defaults."""
    given = vars(args)
    return JobConfig(**{f: given[f] for f in JobConfig._fields if f in given})


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="isograph",
        description="Supersingular isogeny graphs with level structure",
    )
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=int, default=0)
    cached = argparse.ArgumentParser(add_help=False, parents=[seeded])
    cached.add_argument("--cache-dir", default="isograph-cache")
    graph = argparse.ArgumentParser(add_help=False, parents=[cached])
    for name in ("p", "l", "N"):
        graph.add_argument(name, type=int)

    sp = subs.add_parser("build", parents=[graph], help="construct a graph and cache it")
    sp.add_argument("--dot", help="write a DOT rendering here")
    sp.add_argument("--csv", help="write the adjacency matrix as CSV here")
    sp.set_defaults(func=cmd_build)

    for name, func, text in (
        ("spectrum", cmd_spectrum, "adjacency spectrum and Ramanujan check"),
        ("zeta", cmd_zeta, "exact Ihara zeta function"),
        ("cheeger", cmd_cheeger, "isoperimetric constant and bounds"),
    ):
        subs.add_parser(name, parents=[graph], help=text).set_defaults(func=func)

    sp = subs.add_parser(
        "covering", parents=[graph], help="verify the projection to a coarser level"
    )
    sp.add_argument("M", type=int)
    sp.set_defaults(func=cmd_covering)

    sp = subs.add_parser(
        "reciprocity", parents=[seeded], help="zeta reciprocity for (p, q, l)"
    )
    for name in ("p", "q", "l"):
        sp.add_argument(name, type=int)
    sp.set_defaults(func=cmd_reciprocity)

    sp = subs.add_parser(
        "verify", parents=[cached], help="run the property suite on a graph or grid"
    )
    for name in ("p", "l", "N"):
        sp.add_argument(name, type=int, nargs="?")
    sp.add_argument("--grid", help='e.g. "p in {13,37}, l in {3,5}, N in {1,2,6}"')
    sp.add_argument("--workers", type=int, default=1)
    sp.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (AdmissibilityError, OutputPathError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PARAMS
    except (CoveringError, ZetaError) as e:
        print(f"check failed: {e}", file=sys.stderr)
        return EXIT_VERIFY
    except (
        ClassTableError,
        CurveError,
        GraphBuildError,
        GraphFileError,
        NotInSubfield,
        SpectralError,
        TorsionBasisError,
    ) as e:
        print(f"internal error: {e}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
