"""Import budget: the CLI, gateway, jsonl and store paths load no scipy.

Only the Appendix E regression (``scipy.special``) and the Figure 5
clustering (``scipy.cluster``) need scipy, and both import it inside
the functions that use it.  Each check runs in a fresh interpreter, since
this test process has long since imported scipy through other tests.
"""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys

import repro

SRC = pathlib.Path(repro.__file__).resolve().parent.parent

_REPORT_SCIPY = (
    "import sys\n"
    "loaded = sorted(m for m in sys.modules\n"
    "                if m == 'scipy' or m.startswith('scipy.'))\n"
    "print('scipy modules:', loaded)\n"
    "assert not loaded, loaded\n"
)


def _run_fresh(code: str, cwd: pathlib.Path) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep)
                      if p])
    return subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)


def test_importing_cli_serve_io_and_store_loads_no_scipy(tmp_path):
    result = _run_fresh(
        "import repro.cli, repro.serve, repro.io, repro.store\n"
        + _REPORT_SCIPY, tmp_path)
    assert result.returncode == 0, result.stdout + result.stderr


def test_cli_run_loads_no_scipy(tmp_path):
    out = tmp_path / "run.jsonl"
    result = _run_fresh(
        "import repro.cli\n"
        f"rc = repro.cli.main(['run', '--scale', '0.02', '--out', {str(out)!r}])\n"
        "assert rc in (0, None), rc\n"
        + _REPORT_SCIPY, tmp_path)
    assert result.returncode == 0, result.stdout + result.stderr
    assert out.stat().st_size > 0
