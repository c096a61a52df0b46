"""Importing any ``repro`` module must leave interpreter-wide state alone
(no raised recursion limit, no ``sys.path`` edits)."""
from __future__ import annotations

import json
import os
import subprocess
import sys

import repro

_PROBE = """
import importlib, json, pkgutil, sys
import repro
limit, path = sys.getrecursionlimit(), list(sys.path)
names = [m.name for m in pkgutil.walk_packages(repro.__path__, "repro.")]
for name in names:
    importlib.import_module(name)
print(json.dumps({"names": names,
                  "limit": [limit, sys.getrecursionlimit()],
                  "path": sys.path == path}))
"""


def test_importing_repro_has_no_global_side_effects():
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", _PROBE],
        env=env, capture_output=True, text=True, check=True,
    )
    res = json.loads(out.stdout.strip().splitlines()[-1])
    assert "repro.core.rptrie" in res["names"]
    assert "repro.dist.repose" in res["names"]
    assert res["limit"][0] == res["limit"][1]
    assert res["path"]
