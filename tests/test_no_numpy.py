"""Construction, zeta functions, coverings and reciprocity are pure Python:
with numpy blocked (sys.modules["numpy"] = None makes every import of it
fail), `import isograph.cli` and the commands that need no LAPACK and no
Cheeger enumeration must run as they do with numpy present."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BLOCKED = (
    "import sys; sys.modules['numpy'] = None; import isograph.cli; "
    "sys.exit(isograph.cli.main(sys.argv[1:]))"
)


def run(cwd, *argv, block):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    cwd.mkdir(exist_ok=True)
    head = ["-c", BLOCKED] if block else ["-m", "isograph"]
    return subprocess.run(
        [sys.executable, *head, *argv], cwd=cwd, env=env,
        capture_output=True, text=True, timeout=300,
    )


def test_pure_python_commands_run_without_numpy(tmp_path):
    commands = [
        ("build", "13", "5", "6"),
        ("zeta", "13", "5", "6"),
        ("covering", "13", "5", "6", "2"),
        ("reciprocity", "13", "37", "5"),
    ]
    for argv in commands:
        plain = run(tmp_path / "plain", *argv, block=False)
        blocked = run(tmp_path / "blocked", *argv, block=True)
        assert blocked.returncode == plain.returncode == 0, blocked.stderr
        assert blocked.stdout == plain.stdout, argv


@pytest.mark.parametrize("command", ["spectrum", "cheeger"])
def test_lapack_and_cheeger_commands_do_need_numpy(tmp_path, command):
    # the block is real: the commands that read numpy fail under it
    blocked = run(tmp_path, command, "13", "5", "1", block=True)
    assert blocked.returncode != 0 and "numpy" in blocked.stderr
