"""numpy stays off the import path.

The package declares no dependencies, so every entry point must import
and run in an interpreter where numpy cannot be imported, and a plain
``import repro.cli`` must not load it as a side effect (it would add
~0.17 s and ~13 MiB to every run).  Each check runs in a fresh
interpreter, because this test process may already have numpy loaded.
"""

import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def run_python(code: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=300)


def test_entry_points_run_with_numpy_unimportable():
    result = run_python(
        "import sys\n"
        "sys.modules['numpy'] = None  # any 'import numpy' now fails\n"
        "import repro.cli, repro.experiments, repro.campaign, "
        "repro.check, repro.core\n"
        "sys.exit(repro.cli.main(['check', '--explore', "
        "'--budget', '2']))\n")
    assert result.returncode == 0, result.stderr[-2000:]
    assert "verdict: PASS" in result.stdout


def test_cli_import_does_not_load_numpy():
    result = run_python(
        "import sys\n"
        "import repro.cli\n"
        "assert 'numpy' not in sys.modules, 'repro.cli imported numpy'\n")
    assert result.returncode == 0, result.stderr[-2000:]
