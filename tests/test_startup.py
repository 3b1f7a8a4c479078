"""Every command is a fresh `python -m isograph` process, so whatever
`import isograph.cli` loads is paid on each call.  dataclasses (which
brings inspect, ast, dis and tokenize) and hashlib (which loads OpenSSL)
stay off that path: the records are NamedTuples and plain slotted
classes, and hashlib loads when a seed is first derived.  fractions (which
brings decimal and numbers) loads where an exact Cheeger constant or the
Lagrange reference first needs a Fraction."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
HEAVY = ("dataclasses", "inspect", "hashlib", "fractions", "decimal", "numbers")
PROBE = (
    "import sys; before = set(sys.modules); import isograph.cli; "
    f"print(' '.join(m for m in {HEAVY!r} if m in set(sys.modules) - before))"
)


def test_cli_import_skips_dataclasses_inspect_and_hashlib():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    out = subprocess.run(
        [sys.executable, "-c", PROBE], env=env,
        capture_output=True, text=True, timeout=60,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == []
