"""The paper's figure/table co-searches as scenario definitions.

Each function returns a figure's cells as a
:class:`~repro.scenarios.spec.Scenario` or
:class:`~repro.scenarios.spec.ScenarioMatrix`; these cells are the one
implementation of each figure's co-search.  The experiment modules
(:mod:`repro.experiments.fig10`, ``fig13`` and ``tables``) run them with
:func:`~repro.scenarios.runner.run_cell` and rebuild their native outputs
from the records, and :func:`~repro.scenarios.builtin.figure_matrix`
lists them in the built-in matrix.

Only the engine-shaped part of each figure is a scenario (a scenario *is*
a co-search cell).  Fig. 2's fixed/theory/practice policies and Fig. 10's
systolic baseline are bespoke evaluations and stay in their experiment
modules; the Fig. 2 cells cover its FEATHER co-search column.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.baselines.registry import fig13_arch_suite
from repro.scenarios.spec import (
    Scenario,
    ScenarioMatrix,
    SearchConfig,
    default_cell_name,
)


def _suite_names(gemm: bool = False) -> List[str]:
    return [arch.name for arch in fig13_arch_suite(gemm=gemm)]


def _sliced(workload_set: str, max_layers: Optional[int]) -> str:
    return f"{workload_set}[:{max_layers}]" if max_layers else workload_set


# ----------------------------------------------------------------- Fig. 2
def fig2_scenarios(max_mappings: int = 60, seed: int = 0,
                   models: Sequence[str] = ("resnet50", "mobilenet_v3"),
                   ) -> ScenarioMatrix:
    """The FEATHER co-search column of Fig. 2, one cell per model chart.

    The engine settings of :func:`repro.experiments.fig2.run` (latency
    objective, ``max_mappings=60``) over the same motivation layers.
    """
    config = SearchConfig(name=f"latency-{max_mappings}", metric="latency",
                          max_mappings=max_mappings, seed=seed)
    matrix = ScenarioMatrix(name="fig2")
    return matrix.cross([f"fig2_{model}_motivation" for model in models],
                        ["FEATHER"], [config], tags=("fig2", "figure"))


# ---------------------------------------------------------------- Fig. 10
def fig10_scenario(max_mappings: int = 200, seed: int = 0) -> Scenario:
    """The FEATHER side of Fig. 10: the four skewed GEMMs on a 4x4 array."""
    config = SearchConfig(name=f"latency-{max_mappings}", metric="latency",
                          max_mappings=max_mappings, seed=seed)
    return Scenario(name=default_cell_name("fig10_gemms", "FEATHER-4x4",
                                           config),
                    workload_set="fig10_gemms", arch="FEATHER-4x4",
                    config=config, tags=("fig10", "figure"))


# ---------------------------------------------------------------- Fig. 13
def fig13_scenarios(
        workload_names: Sequence[str] = ("bert", "resnet50", "mobilenet_v3"),
        max_layers: Optional[int] = None, max_mappings: int = 50,
        seed: int = 0) -> ScenarioMatrix:
    """Fig. 13's grid: each paper workload across its architecture suite.

    One cell per (workload, architecture); the BERT chart uses the
    four-design GEMM suite, the CNN charts the full nine-design suite, as
    in the paper.
    """
    config = SearchConfig(name=f"edp-{max_mappings}", metric="edp",
                          max_mappings=max_mappings, seed=seed)
    matrix = ScenarioMatrix(name="fig13")
    for name in workload_names:
        matrix.cross([_sliced(name, max_layers)],
                     _suite_names(gemm=name == "bert"), [config],
                     tags=("fig13", "figure", name))
    return matrix


# ----------------------------------------------------------------- Tables
def tables_scenarios(workload_set: str = "resnet50", gemm: bool = False,
                     max_mappings: int = 50, seed: int = 0) -> ScenarioMatrix:
    """The ``search_stats_table`` sweep: one workload set across the suite."""
    config = SearchConfig(name=f"edp-{max_mappings}", metric="edp",
                          max_mappings=max_mappings, seed=seed)
    matrix = ScenarioMatrix(name="tables")
    return matrix.cross([workload_set], _suite_names(gemm=gemm), [config],
                        tags=("tables", "figure"))
