"""Repository contracts that no single module owns.

* every ``tools/bench_guard.py --gates`` choice is run by CI — a gate the
  docs describe but CI never runs guards nothing;
* the package version has one source, ``repro.__version__``;
* ``docs/schemas/`` holds the current wire version's schemas and nothing
  else;
* the scalar search oracle lives with the tests, and the numba layer is
  gone from the package.
"""

from __future__ import annotations

import importlib.util
import re
import shlex
from pathlib import Path

import repro
from repro.api.requests import API_SCHEMA_VERSION
from repro.api.schemas import ALL_SCHEMAS

ROOT = Path(__file__).resolve().parent.parent


def _bench_guard():
    path = ROOT / "tools" / "bench_guard.py"
    spec = importlib.util.spec_from_file_location("_bench_guard", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _ci_gates(default):
    """The gates every ``bench_guard.py`` step of the CI workflow runs."""
    ran = set()
    workflow = (ROOT / ".github" / "workflows" / "ci.yml").read_text()
    for line in workflow.splitlines():
        if "tools/bench_guard.py" not in line:
            continue
        args = shlex.split(line.split("tools/bench_guard.py", 1)[1])
        if "--gates" in args:
            chosen = args[args.index("--gates") + 1]
            ran.update(g.strip() for g in chosen.split(",") if g.strip())
        else:
            ran.update(default)
    return ran


def test_every_bench_guard_gate_runs_in_ci():
    guard = _bench_guard()
    assert set(guard.DEFAULT_GATES) <= set(guard.GATES)
    missing = set(guard.GATES) - _ci_gates(guard.DEFAULT_GATES)
    assert not missing, f"bench_guard gates never run in CI: {sorted(missing)}"


def test_version_has_one_source():
    text = (ROOT / "pyproject.toml").read_text()
    project = text.split("[project]", 1)[1].split("\n[", 1)[0]
    assert not re.search(r"^version\s*=", project, re.MULTILINE), (
        "pyproject.toml pins a static version; it must read "
        "repro.__version__")
    assert re.search(r'^dynamic\s*=\s*\[[^\]]*"version"', project,
                     re.MULTILINE)
    assert re.search(r'^version\s*=\s*\{\s*attr\s*=\s*"repro.__version__"',
                     text, re.MULTILINE)
    assert re.fullmatch(r"\d+\.\d+\.\d+", repro.__version__)


def test_docs_schemas_hold_only_the_current_version():
    exported = {p.name for p in (ROOT / "docs" / "schemas").glob("*")}
    assert exported == {f"{name}.v{API_SCHEMA_VERSION}.json"
                        for name in ALL_SCHEMAS}


def test_the_scalar_oracle_lives_with_the_tests():
    assert importlib.util.find_spec("repro.kernel.jit") is None
    assert (ROOT / "tests" / "oracle.py").exists()
