"""Smoke tests: each script under scripts/ runs as a program on a small
input, exits 0 and prints its header, and refuses a bad argument with a
usage error (exit 2) rather than a traceback."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, timeout=300,
    )


@pytest.mark.parametrize(
    "name,args,header",
    [
        ("gap_tower.py", ["13", "5", "--chain", "1|2|6"], "p = 13, l = 5, bound 2 sqrt(l) = "),
    ],
)
def test_script_runs(name, args, header):
    proc = run_script(name, *args)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith(header), proc.stdout


@pytest.mark.parametrize(
    "chain,message",
    [
        ("1|x", "levels must be integers joined by |"),
        ("0|2", "N = 0 must be a positive integer"),
    ],
)
def test_gap_tower_refuses_bad_chain(chain, message):
    proc = run_script("gap_tower.py", "13", "5", "--chain", chain)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert message in proc.stderr
