"""Repository contracts that no single module owns.

* every ``tools/bench_guard.py --gates`` choice is run by CI — a gate the
  docs describe but CI never runs guards nothing — and so is every
  ``examples/*.py`` script;
* every co-search goes through ``Session`` → the engine function →
  ``Mapper``: the former fronts (``search_model``, ``SearchEngine``,
  ``evaluate_model``, ``model_costs``, ...) stay deleted;
* the package version has one source, ``repro.__version__``;
* ``docs/schemas/`` holds the current wire version's schemas and nothing
  else;
* the scalar search oracle lives with the tests, and the numba layer is
  gone from the package.
"""

from __future__ import annotations

import ast
import importlib
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


def test_every_example_runs_in_ci():
    """An example CI never runs can keep importing a deleted front."""
    workflow = (ROOT / ".github" / "workflows" / "ci.yml").read_text()
    commands = [line for line in workflow.splitlines()
                if not line.strip().startswith(("- name:", "name:", "#"))]
    ran = set()
    for pattern in re.findall(r"examples/([\w*]+\.py)", "\n".join(commands)):
        ran.update(p.name for p in (ROOT / "examples").glob(pattern))
    examples = {p.name for p in (ROOT / "examples").glob("*.py")}
    assert examples, "no examples found"
    missing = examples - ran
    assert not missing, f"examples never run in CI: {sorted(missing)}"


_REMOVED_FRONTS = {
    "repro.search": ("search_model", "search_models", "SearchEngine"),
    "repro.search.engine": ("search_model", "search_models", "SearchEngine"),
    "repro.layoutloop": ("evaluate_model", "compare_architectures",
                         "cosearch_layer"),
    "repro.layoutloop.cosearch": ("evaluate_model", "compare_architectures",
                                  "cosearch_layer"),
    "repro.experiments.common": ("model_costs",),
    "repro.experiments.fig13": ("workloads_for",),
}


def test_the_former_co_search_fronts_stay_deleted():
    for module_name, names in _REMOVED_FRONTS.items():
        module = importlib.import_module(module_name)
        present = [name for name in names if hasattr(module, name)]
        assert not present, f"{module_name} still exports {present}"


def _string_statements(path: Path):
    """Every bare string statement of a module: module, class and
    function docstrings and attribute docstrings."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, str)):
            yield node.lineno, node.value.value


def test_no_docstring_points_at_a_deprecated_front():
    stale = [f"{path.relative_to(ROOT)}:{line}"
             for path in sorted((ROOT / "src" / "repro").rglob("*.py"))
             for line, text in _string_statements(path)
             if re.search(r"deprecat|shim", text, re.IGNORECASE)]
    assert not stale, f"docstrings naming deprecated fronts: {stale}"


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
