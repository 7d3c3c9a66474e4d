"""The benchmark's layer tracer must stay installable against ``src/``.

``perfbench/tracer.py`` patches traced entry points by name where their
callers look them up (module globals such as
``repro.core.basis.find_isomorphism``).  Removing or renaming one of
those names breaks every ``--trace 1`` benchmark run; this test makes
such a change fail here instead.  The install runs in a subprocess
because it patches modules process-wide.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_INSTALL = """
import sys
sys.path.insert(0, {perfbench!r})
import tracer
tracer.install({directory!r})
"""


def test_tracer_installs_against_src(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    script = _INSTALL.format(perfbench=str(ROOT / "perfbench"),
                             directory=str(tmp_path))
    completed = subprocess.run(
        [sys.executable, "-c", script], cwd=str(ROOT), env=env,
        capture_output=True, text=True, timeout=120)
    assert completed.returncode == 0, completed.stderr
