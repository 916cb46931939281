"""Importing the public surface pulls in only the stdlib and ``repro``.

The project has no runtime dependencies; a third-party import sneaking
into a module on the import path would cost every cold start (CLI,
batch workers, the daemon) its load time and resident memory.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SURFACE = (
    "repro",
    "repro.driver.cli",
    "repro.engine.batch",
    "repro.server.service",
    "repro.audit",
)

_PROBE = f"""
import importlib, json, sys
before = set(sys.modules)
for name in {SURFACE!r}:
    importlib.import_module(name)
loaded = {{m.split(".")[0] for m in set(sys.modules) - before}}
# __mp_main__ is multiprocessing's alias of the main module
print(json.dumps(sorted(
    loaded - set(sys.stdlib_module_names) - {{"repro", "__mp_main__"}}
)))
"""


def test_surface_imports_no_third_party_module():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[2] / "src")
    out = subprocess.run(
        [sys.executable, "-c", _PROBE],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    assert json.loads(out.stdout) == []
