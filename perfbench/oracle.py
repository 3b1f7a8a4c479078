"""Reference oracle for the benchmark: compares what the `isograph` CLI
printed and wrote against `reference.json`.

An operation is one reciprocity triple or one graph of the verify grid.
It fails when any part of its output deviates from the reference:
integers, booleans and strings must match exactly, floats within `tol`.
Exit code 3 on the grid is part of the reference, not a failure: the
even-diagonal and classical Bass checks report honest negatives there.
"""

from __future__ import annotations

import hashlib
import json
import os

REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")


def load_reference() -> dict:
    with open(REFERENCE) as fh:
        return json.load(fh)


def matches(expected, actual, tol: float) -> bool:
    """Deep comparison; only floats get the tolerance."""
    if isinstance(expected, bool) or isinstance(actual, bool):
        return expected is actual
    if isinstance(expected, float) or isinstance(actual, float):
        return (
            isinstance(expected, (int, float))
            and isinstance(actual, (int, float))
            and abs(expected - actual) <= tol
        )
    if isinstance(expected, dict):
        return (
            isinstance(actual, dict)
            and expected.keys() == actual.keys()
            and all(matches(expected[k], actual[k], tol) for k in expected)
        )
    if isinstance(expected, (list, tuple)):
        return (
            isinstance(actual, (list, tuple))
            and len(expected) == len(actual)
            and all(matches(e, a, tol) for e, a in zip(expected, actual))
        )
    return type(expected) is type(actual) and expected == actual


def _sha256(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def graph_key(p: int, l: int, N: int) -> str:
    return f"{p},{l},{N}"


def graph_digests(graph_file: dict) -> dict:
    """Seed-independent digests of a cached graph file."""
    return {
        "adjacency_sha256": _sha256(graph_file["adjacency"]),
        "edges_sha256": _sha256(graph_file["edges"]),
    }


def grid_failures(
    exit_code: int,
    manifest: dict | None,
    graph_files: dict[str, dict],
    seed: int,
    reference: dict,
    tol: float,
) -> list[str]:
    """Keys of the reference graphs whose output deviates.

    `graph_files` maps graph keys to the parsed cache files.  A wrong exit
    code or a manifest whose grid-level fields (skipped triples, failure
    list, overall flag) or set of graphs deviate fails every graph of the
    pass."""
    ref = reference["grid"]
    keys = list(ref["graphs"])
    if exit_code != ref["exit_code"] or not isinstance(manifest, dict):
        return keys
    entries = {graph_key(g["p"], g["l"], g["N"]): g for g in manifest.get("graphs", [])}
    summary = {k: manifest.get(k) for k in ("skipped_inadmissible", "failures", "ok")}
    if entries.keys() != set(keys) or not matches(ref["summary"], summary, tol):
        return keys
    failed = []
    for key in keys:
        want = ref["graphs"][key]
        gfile = graph_files.get(key)
        if not (
            matches(want["entry"], entries[key], tol)
            and gfile is not None
            and graph_digests(gfile) == want["digests"]
            and gfile["metadata"]["seed"] == seed
        ):
            failed.append(key)
    return failed


def reciprocity_fails(
    triple: tuple[int, int, int], exit_code: int, certificate, reference: dict, tol: float
) -> bool:
    want = reference["reciprocity"][graph_key(*triple)]
    return exit_code != want["exit_code"] or not matches(
        want["certificate"], certificate, tol
    )
