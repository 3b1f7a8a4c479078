"""The benchmark tracer, run for real: `perfbench/tracer.py OUT -- ARGS`
installs its wrappers in a child process, runs the CLI there and writes
the per-span calls to OUT.  Its stdout and exit code must equal the
untraced CLI's, and the spans of the functions it wraps by name must
record calls, so a changed signature or a moved function shows here."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run(args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True
    )


def test_traced_verify_matches_untraced(tmp_path):
    cli = ["verify", "13", "5", "2", "--cache-dir"]
    plain = run(["-m", "isograph", *cli, str(tmp_path / "plain")], tmp_path)
    out = tmp_path / "trace.json"
    traced = run(
        [str(ROOT / "perfbench" / "tracer.py"), str(out), "--", *cli, str(tmp_path / "traced")],
        tmp_path,
    )
    assert traced.returncode == plain.returncode == 3, traced.stderr
    assert traced.stdout == plain.stdout
    calls = json.loads(out.read_text())["calls"]
    for span in (
        "cli.verify_graph",
        "zeta.ihara",
        "zeta.edge_oracle",
        "graph.covering",
        "curves.velu_quotient",
    ):
        assert calls.get(span, 0) >= 1, span
