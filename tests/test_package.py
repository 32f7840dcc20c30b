"""Package-level contracts: the reported version and what importing loads.

Every ``repro`` process — the CLI, a benchmark interpreter, each forked or
spawned shard and each remote worker — pays for what ``import repro``
pulls in, so the import graph is part of the package's contract: the
runtime needs NumPy and SciPy only, and the remote executor's HTTP
transport loads on first use.
"""

import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import repro

REPO_ROOT = Path(__file__).resolve().parents[1]

UNUSED_AT_IMPORT = ("networkx", "http.server", "urllib.request", "ssl")
"""Modules no plain import of the package may load."""

PACKAGES = (
    "repro",
    "repro.analysis",
    "repro.core",
    "repro.design",
    "repro.devtools.lint",
    "repro.grid",
    "repro.io",
    "repro.nn",
)
"""Every package that declares ``__all__``."""

_PROBE = """
import importlib, json, sys
def loaded():
    return [name for name in %r if sys.modules.get(name) is not None]
report = {}
for module in ("repro", "repro.analysis", "repro.cli"):
    importlib.import_module(module)
    report[module] = loaded()
from repro.analysis import make_executor
report["remote executor"] = type(make_executor("remote")).__name__
report["after remote"] = loaded()
print(json.dumps(report))
""" % (UNUSED_AT_IMPORT,)


def test_version_matches_pyproject():
    """``repro.__version__`` is the version pip and importlib.metadata report.

    Parsed with a regex: Python 3.10 has no ``tomllib``.
    """
    text = (REPO_ROOT / "pyproject.toml").read_text(encoding="utf-8")
    declared = re.search(r'^version = "([^"]+)"$', text, re.MULTILINE)
    assert declared is not None
    assert repro.__version__ == declared.group(1)


def test_imports_load_neither_networkx_nor_the_http_transport():
    """Importing the package, its analysis layer or its CLI loads none of
    :data:`UNUSED_AT_IMPORT`; ``make_executor("remote")`` still resolves and
    loads the HTTP transport then."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    # Constructing the remote executor records the coordinator URL without
    # contacting it, so a closed loopback port is enough.
    env["REPRO_REMOTE_COORDINATOR"] = "http://127.0.0.1:9"
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert "http.server" in report.pop("after remote")
    assert report == {
        "repro": [],
        "repro.analysis": [],
        "repro.cli": [],
        "remote executor": "RemoteExecutor",
    }


def test_every_exported_name_resolves():
    """Each package's ``__all__`` names every export once, and each name
    resolves, so ``from package import *`` survives the deletion of a name."""
    for package in PACKAGES:
        module = importlib.import_module(package)
        exported = module.__all__
        assert len(set(exported)) == len(exported), package
        assert [name for name in exported if not hasattr(module, name)] == [], package
