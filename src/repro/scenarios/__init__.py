"""Declarative scenario-matrix sweeps over the co-search engine.

The paper's evaluation is a fixed grid of hand-picked workload/architecture
pairs; this package turns that grid into data.  A
:class:`~repro.scenarios.spec.Scenario` names one (workload set,
architecture, search config) cell; a
:class:`~repro.scenarios.spec.ScenarioMatrix` expands cross products into a
deterministic run plan; :func:`~repro.scenarios.runner.run_matrix` executes
the plan through :class:`repro.api.Session` search requests and emits
per-cell JSON records (:class:`~repro.scenarios.record.ScenarioRecord`)
plus CSV/markdown summaries, with content-addressed caching so completed
cells are never recomputed.

* ``python -m repro.scenarios list | run --filter PAT | diff A [B]`` is the
  CLI front.
* :mod:`repro.scenarios.builtin` ships the built-in matrix (smoke cells,
  the paper-figure ports, the widened coverage sweep, the golden cells).
* :mod:`repro.scenarios.ports` defines Fig. 2/10/13 and the search-stats
  table as scenarios — the one implementation of each figure's co-search,
  which :mod:`repro.experiments` runs.
* Every record embeds its RNG seed, the package version and a sha256
  content address, so any record can be re-run bit-identically
  (:func:`~repro.scenarios.runner.rerun_record`) on any worker count.
"""

from repro.scenarios.builtin import (
    builtin_matrix,
    coverage_matrix,
    cross_architecture_matrix,
    crossval_matrix,
    figure_matrix,
    golden_matrix,
    simulator_matrix,
    smoke_matrix,
)
from repro.scenarios.record import (
    LayerRecord,
    ScenarioRecord,
    diff_payloads,
    record_from_model_cost,
)
from repro.scenarios.registry import (
    arch_names,
    register_arch,
    register_workload_set,
    resolve_arch,
    resolve_workload_set,
    workload_set_names,
)
from repro.scenarios.runner import (
    CellResult,
    MatrixRun,
    cell_key,
    rerun_record,
    run_cell,
    run_matrix,
    scenario_from_record,
)
from repro.scenarios.spec import (
    Scenario,
    ScenarioMatrix,
    SearchConfig,
    scenario_backend_names,
    slugify,
)

__all__ = [
    "CellResult",
    "LayerRecord",
    "MatrixRun",
    "Scenario",
    "ScenarioMatrix",
    "ScenarioRecord",
    "SearchConfig",
    "arch_names",
    "builtin_matrix",
    "cell_key",
    "coverage_matrix",
    "cross_architecture_matrix",
    "crossval_matrix",
    "diff_payloads",
    "figure_matrix",
    "golden_matrix",
    "record_from_model_cost",
    "register_arch",
    "register_workload_set",
    "rerun_record",
    "resolve_arch",
    "resolve_workload_set",
    "run_cell",
    "run_matrix",
    "scenario_backend_names",
    "scenario_from_record",
    "simulator_matrix",
    "slugify",
    "smoke_matrix",
    "workload_set_names",
]
