"""Tests for the benchmark's reference oracle: a deviating output must
count as a failed operation.  Run with `python3 -m pytest perfbench`."""

import copy

import pytest

import oracle

TOL = 1e-9


@pytest.fixture
def grid_case():
    """A one-graph grid: reference, manifest and cache file that agree."""
    gfile = {
        "metadata": {"p": 13, "l": 5, "level": 2, "seed": 4},
        "adjacency": [[1, 5], [5, 1]],
        "edges": {"target": [0, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 1],
                  "dual": [0, 6, 7, 8, 9, 10, 1, 2, 3, 4, 5, 11]},
    }
    entry = {
        "p": 13, "l": 5, "N": 2, "n": 2, "ok": False,
        "checks": {"even_diagonal": False, "coverings": True},
        "detail": {"chi": -4, "lambda_star": 4.0, "cheeger_method": "exact"},
    }
    summary = {
        "skipped_inadmissible": [[13, 3, 3]],
        "failures": [{"p": 13, "l": 5, "N": 2, "failed_checks": ["even_diagonal"]}],
        "ok": False,
    }
    reference = {
        "grid": {
            "exit_code": 3,
            "summary": summary,
            "graphs": {"13,5,2": {"entry": entry, "digests": oracle.graph_digests(gfile)}},
        }
    }
    manifest = dict(copy.deepcopy(summary), graphs=[copy.deepcopy(entry)])
    return reference, manifest, {"13,5,2": copy.deepcopy(gfile)}


def failures(reference, manifest, files, exit_code=3, seed=4):
    return oracle.grid_failures(exit_code, manifest, files, seed, reference, TOL)


def test_agreeing_grid_has_no_failures(grid_case):
    assert failures(*grid_case) == []


def test_flipped_adjacency_entry_fails(grid_case):
    reference, manifest, files = grid_case
    files["13,5,2"]["adjacency"][0][1] = 4
    assert failures(reference, manifest, files) == ["13,5,2"]


def test_changed_edge_pairing_fails(grid_case):
    reference, manifest, files = grid_case
    dual = files["13,5,2"]["edges"]["dual"]
    dual[1], dual[2] = dual[2], dual[1]
    assert failures(reference, manifest, files) == ["13,5,2"]


def test_changed_check_value_fails(grid_case):
    reference, manifest, files = grid_case
    manifest["graphs"][0]["checks"]["coverings"] = False
    assert failures(reference, manifest, files) == ["13,5,2"]


def test_float_detail_within_tol_passes_beyond_fails(grid_case):
    reference, manifest, files = grid_case
    manifest["graphs"][0]["detail"]["lambda_star"] = 4.0 + TOL / 2
    assert failures(reference, manifest, files) == []
    manifest["graphs"][0]["detail"]["lambda_star"] = 4.0 + 10 * TOL
    assert failures(reference, manifest, files) == ["13,5,2"]


def test_wrong_seed_in_cache_file_fails(grid_case):
    assert failures(*grid_case, seed=5) == ["13,5,2"]


def test_missing_cache_file_fails(grid_case):
    reference, manifest, _ = grid_case
    assert failures(reference, manifest, {}) == ["13,5,2"]


def test_unexpected_exit_code_fails_every_graph(grid_case):
    assert failures(*grid_case, exit_code=0) == ["13,5,2"]
    assert failures(*grid_case, exit_code=4) == ["13,5,2"]


def test_changed_failure_summary_fails_every_graph(grid_case):
    reference, manifest, files = grid_case
    manifest["failures"] = []
    manifest["ok"] = True
    assert failures(reference, manifest, files) == ["13,5,2"]


def test_unparsable_manifest_fails_every_graph(grid_case):
    reference, _, files = grid_case
    assert failures(reference, None, files) == ["13,5,2"]


CERT = {
    "p": 13, "q": 37, "l": 5, "sizes": [38, 42], "degrees": [88, 88],
    "chi": {"left": -72, "right": -72, "expected": -72},
    "chi_ok": True, "equal": True,
}
REC_REF = {"reciprocity": {"13,37,5": {"exit_code": 0, "certificate": CERT}}}


def rec_fails(cert, exit_code=0):
    return oracle.reciprocity_fails((13, 37, 5), exit_code, cert, REC_REF, TOL)


def test_reciprocity_certificate_matches():
    assert not rec_fails(copy.deepcopy(CERT))


@pytest.mark.parametrize(
    "field, value",
    [("equal", False), ("chi_ok", False), ("sizes", [38, 43]), ("degrees", [88, 87])],
)
def test_deviating_certificate_fails(field, value):
    cert = dict(copy.deepcopy(CERT), **{field: value})
    assert rec_fails(cert)


def test_reciprocity_exit_code_and_garbage_fail():
    assert rec_fails(copy.deepcopy(CERT), exit_code=3)
    assert rec_fails(None)


def test_booleans_are_not_integers():
    assert not oracle.matches(True, 1, TOL)
    assert not oracle.matches(0, False, TOL)
    assert oracle.matches(2, 2.0 + TOL / 2, TOL)


def test_committed_reference_records_honest_results():
    """The grid's known negatives are part of the reference: even
    diagonal fails on 7 graphs and the classical Bass oracle on 3."""
    ref = oracle.load_reference()
    graphs = ref["grid"]["graphs"]
    assert len(graphs) == 18 and ref["grid"]["exit_code"] == 3
    failed = [c for g in graphs.values() for c, ok in g["entry"]["checks"].items() if not ok]
    assert sorted(failed) == ["bass_edge_oracle"] * 3 + ["even_diagonal"] * 7
    rec = ref["reciprocity"]
    assert rec["13,37,5"]["certificate"]["degrees"] == [88, 88]
    assert rec["13,61,5"]["certificate"]["degrees"] == [144, 144]
    assert all(r["exit_code"] == 0 and r["certificate"]["equal"] for r in rec.values())
