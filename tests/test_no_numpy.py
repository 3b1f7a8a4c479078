"""The package is pure Python: with numpy blocked (sys.modules["numpy"] =
None makes every import of it fail), `import isograph.cli` and every
command must run as they do with numpy present, and no module under
src/ imports numpy at all.  numpy serves the tests as an oracle only."""

import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BLOCK = "import sys; sys.modules['numpy'] = None; "
BLOCKED = BLOCK + "import isograph.cli; sys.exit(isograph.cli.main(sys.argv[1:]))"


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
        ("spectrum", "37", "5", "6"),
        ("cheeger", "13", "5", "6"),
        ("zeta", "13", "5", "6"),
        ("covering", "13", "5", "6", "2"),
        ("reciprocity", "13", "37", "5"),
        ("verify", "--grid", "p in {13,37,61}, l in {3}, N in {1,2}"),
    ]
    for argv in commands:
        plain = run(tmp_path / "plain", *argv, block=False)
        blocked = run(tmp_path / "blocked", *argv, block=True)
        assert blocked.returncode == plain.returncode == 0, blocked.stderr
        assert blocked.stdout == plain.stdout, argv


def test_the_block_is_real():
    blocked = subprocess.run(
        [sys.executable, "-c", BLOCK + "import numpy"],
        capture_output=True, text=True, timeout=60,
    )
    assert blocked.returncode != 0 and "numpy" in blocked.stderr


def test_no_source_module_imports_numpy():
    sources = sorted((ROOT / "src").rglob("*.py"))
    assert sources
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert not any(n.split(".")[0] == "numpy" for n in names), path
