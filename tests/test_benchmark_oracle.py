"""The benchmark's correctness oracle as a tier-1 test: the grid that
`perfbench/run.py` verifies must reproduce `perfbench/reference.json`.

The oracle module is loaded by path, since perfbench/ is not a package."""

import importlib.util
import json
from pathlib import Path

from isograph.cli import main

ORACLE_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "oracle.py"
GRID = "p in {13,37,61}, l in {3,5}, N in {1,2,3,6}"


def _oracle():
    spec = importlib.util.spec_from_file_location("perfbench_oracle", ORACLE_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_grid_matches_benchmark_reference(tmp_path, capsys):
    oracle = _oracle()
    code = main(["verify", "--grid", GRID, "--seed", "0", "--workers", "1",
                 "--cache-dir", str(tmp_path)])
    manifest = json.loads(capsys.readouterr().out)
    graph_files = {}
    for path in tmp_path.glob("*.json"):
        data = json.loads(path.read_text())
        md = data["metadata"]
        graph_files[oracle.graph_key(md["p"], md["l"], md["level"])] = data
    reference = oracle.load_reference()
    assert len(graph_files) == len(reference["grid"]["graphs"]) == 18
    assert oracle.grid_failures(code, manifest, graph_files, 0, reference, 1e-9) == []
