"""Execute scenario cells through the :mod:`repro.api` façade, with result
caching.

:func:`run_cell` is the unit of work: build a
:class:`~repro.api.SearchRequest` from the cell's declarative definition,
run it on a :class:`~repro.api.Session` (the module-default one unless a
session is passed), and wrap the outcome in a
:class:`~repro.scenarios.record.ScenarioRecord`.

Artifacts are **content-addressed**: every record embeds a sha256 ``key``
over the *resolved* cell definition — the workload shape signatures, the
full architecture + energy signature, the search-config identity and the
``repro`` version.  When a runs directory is given, a cell whose artifact
already exists with a matching key is skipped and the stored record is
returned (``cached=True``); editing a workload table, an architecture or
the package version changes the key and forces a re-run, so a stale
artifact can never masquerade as a fresh result.

``workers`` deliberately stays *out* of the key: the engine guarantees
bit-identical results for any worker count, so it is an execution detail,
not identity.  The golden regression tests pin that guarantee.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, List, Optional, Tuple

import repro
from repro.layoutloop.cost_model import DEFAULT_ENERGY_TABLE
from repro.scenarios.record import (
    SCHEMA_VERSION,
    ScenarioRecord,
    record_from_model_cost,
)
from repro.scenarios.registry import resolve_arch, resolve_workload_set
from repro.scenarios.spec import Scenario, ScenarioMatrix, SearchConfig, slugify
from repro.search.signatures import arch_signature, workload_signature

#: Default artifact directory of the CLI (relative to the invocation cwd).
DEFAULT_RUNS_DIR = Path("runs") / "scenarios"


def cell_key(scenario: Scenario) -> str:
    """Content address of one cell's resolved definition.

    Keys on structure (shape/arch signatures), never on free-text workload
    names, and embeds the package version so results cached by an older
    cost model are re-run rather than trusted.
    """
    return _resolved_cell_key(scenario,
                              resolve_workload_set(scenario.workload_set),
                              resolve_arch(scenario.arch))


def _resolved_cell_key(scenario: Scenario, workloads: List, arch) -> str:
    """:func:`cell_key` over already-resolved workloads/architecture."""
    payload = (
        SCHEMA_VERSION,
        repro.__version__,
        tuple(workload_signature(w) for w in workloads),
        arch_signature(arch, DEFAULT_ENERGY_TABLE),
        scenario.config.identity(),
        scenario.backend,
    )
    return hashlib.sha256(repr(payload).encode("utf-8")).hexdigest()


def artifact_path(runs_dir: Path, scenario: Scenario) -> Path:
    """Artifact location of a cell: one JSON file named after the cell.

    Slugification is lossy ("a b" and "a-b" collapse to the same stem), so
    whenever it changed the name a short hash of the exact name is
    appended — distinct cells can never overwrite each other's artifact.
    Slug-safe names (all the smoke/golden cells) keep their clean stem.
    Non-analytical backends get a ``--<backend>`` suffix so re-running the
    same cells under another backend never evicts the analytical artifacts.
    """
    stem = slugify(scenario.name)
    if stem != scenario.name:
        digest = hashlib.sha256(scenario.name.encode("utf-8")).hexdigest()
        stem = f"{stem}-{digest[:8]}"
    if scenario.backend != "analytical":
        stem = f"{stem}--{scenario.backend}"
    return Path(runs_dir) / f"{stem}.json"


@dataclass
class CellResult:
    """Outcome of :func:`run_cell`."""

    record: ScenarioRecord
    """The cell's record (freshly computed or loaded from the artifact)."""
    cached: bool
    """True when the artifact satisfied the request without a search."""
    path: Optional[Path] = None
    """Artifact location (None when running without a runs directory)."""


def run_cell(scenario: Scenario, workers: Optional[int] = None,
             runs_dir: Optional[Path] = None,
             force: bool = False, backend: Optional[str] = None,
             session=None) -> CellResult:
    """Run (or load) one scenario cell on its evaluation backend.

    The cell's co-search executes through the :mod:`repro.api` façade: a
    :class:`~repro.api.SearchRequest` on ``session`` (the module-default
    :func:`~repro.api.default_session` when not given).  ``workers=None``
    therefore follows the session's documented precedence — explicit
    argument > session default > ``REPRO_SEARCH_WORKERS`` > serial — the
    same resolution every other entry point gets.  The request runs with a
    private evaluation cache (``fresh_cache``) so the engine counters
    embedded in the record stay deterministic; results are bit-identical
    either way.

    ``backend`` overrides the scenario's declared backend for this run
    (the CLI's ``--backend`` flag); the override participates in the
    content key and the artifact name, so the same cell run under two
    backends produces two independent artifacts.

    With ``runs_dir`` set, a previously written artifact whose embedded key
    matches the cell's current content address is returned directly;
    ``force=True`` always re-runs.  Without ``runs_dir`` the cell is always
    computed and nothing is written.
    """
    import dataclasses

    from repro.api import SearchRequest
    from repro.api.session import default_session

    if backend is not None and backend != scenario.backend:
        scenario = dataclasses.replace(scenario, backend=backend)
    if session is None:
        session = default_session()

    workloads = resolve_workload_set(scenario.workload_set)
    arch = resolve_arch(scenario.arch)
    key = _resolved_cell_key(scenario, workloads, arch)
    path: Optional[Path] = None
    if runs_dir is not None:
        path = artifact_path(runs_dir, scenario)
        if path.exists() and not force:
            try:
                existing = ScenarioRecord.read(path)
            except (ValueError, KeyError, TypeError):
                existing = None  # corrupt/foreign artifact: recompute
            if existing is not None and existing.key == key:
                return CellResult(record=existing, cached=True, path=path)

    config = scenario.config
    start = time.perf_counter()
    response = session.run(SearchRequest(
        workloads=scenario.workload_set, arch=scenario.arch,
        model=scenario.name, metric=config.metric,
        max_mappings=config.max_mappings, seed=config.seed,
        prune=config.prune, policy=config.policy, budget=config.budget,
        frontier=config.frontier, fused=config.fused,
        backend=scenario.backend, workers=workers, fresh_cache=True))
    elapsed = time.perf_counter() - start
    record = record_from_model_cost(scenario, response.cost, key=key,
                                    repro_version=repro.__version__,
                                    workers=response.cost.search_stats.workers,
                                    elapsed_s=elapsed,
                                    backend=scenario.backend,
                                    crossval=response.crossval,
                                    frontiers=response.frontiers,
                                    fused=response.fused)
    if path is not None:
        path.parent.mkdir(parents=True, exist_ok=True)
        record.write(path)
    return CellResult(record=record, cached=False, path=path)


@dataclass
class MatrixRun:
    """Outcome of :func:`run_matrix`, in plan order."""

    results: List[CellResult]
    summary_csv: Optional[Path] = None
    summary_md: Optional[Path] = None
    skipped: List[Tuple[Scenario, str]] = field(default_factory=list)
    """Cells a backend override could not run (scenario, reason) — only
    populated when ``run_matrix`` is called with ``skip_incompatible``."""

    @property
    def records(self) -> List[ScenarioRecord]:
        return [r.record for r in self.results]

    @property
    def cached_count(self) -> int:
        return sum(r.cached for r in self.results)


def run_matrix(matrix: ScenarioMatrix, pattern: Optional[str] = None,
               workers: Optional[int] = None,
               runs_dir: Optional[Path] = None, force: bool = False,
               progress: Optional[Callable[[CellResult], None]] = None,
               backend: Optional[str] = None,
               skip_incompatible: bool = False,
               session=None) -> MatrixRun:
    """Run every (matching) cell of a matrix and emit summary artifacts.

    Cells run in plan order through one :class:`repro.api.Session`
    (``session``, defaulting to the module-default one), so worker
    resolution and backend instances are shared with every other façade
    entry point; ``progress`` (if given) is called after each cell with
    its :class:`CellResult`.  With ``runs_dir`` set, per-cell JSON records
    land there and ``summary.csv`` / ``summary.md`` are rewritten to cover
    the cells of this invocation.  ``backend`` (if given) overrides every
    cell's declared backend for this sweep; with ``skip_incompatible=True``
    cells the chosen backend declares it cannot run by design
    (:class:`~repro.errors.IncompatibleCellError`: a cell over the
    simulator's MAC bound, a non-RIR architecture) are collected in
    :attr:`MatrixRun.skipped` with their reason instead of aborting the
    sweep — genuine configuration errors still raise.
    """
    from repro.errors import IncompatibleCellError
    from repro.scenarios.artifacts import write_summary_csv, write_summary_md

    cells = matrix.filter(pattern).dedup()
    results: List[CellResult] = []
    skipped: List[Tuple[Scenario, str]] = []
    for scenario in cells:
        try:
            result = run_cell(scenario, workers=workers, runs_dir=runs_dir,
                              force=force, backend=backend, session=session)
        except IncompatibleCellError as exc:
            if not skip_incompatible:
                raise
            skipped.append((scenario, str(exc)))
            continue
        results.append(result)
        if progress is not None:
            progress(result)
    run = MatrixRun(results=results, skipped=skipped)
    if runs_dir is not None:
        runs_dir = Path(runs_dir)
        runs_dir.mkdir(parents=True, exist_ok=True)
        run.summary_csv = write_summary_csv(runs_dir / "summary.csv", results)
        run.summary_md = write_summary_md(runs_dir / "summary.md", results)
    return run


# ------------------------------------------------------------ reproduction
def scenario_from_record(record: ScenarioRecord) -> Scenario:
    """Rebuild the declarative cell a record was produced from.

    The record's embedded config (including its RNG seed) is authoritative,
    which is what makes the single-argument ``repro.scenarios diff
    <record>`` replay and the determinism tests possible: any record can be
    replayed exactly.
    """
    return Scenario(name=record.scenario, workload_set=record.workload_set,
                    arch=record.arch,
                    config=SearchConfig.from_dict(record.config),
                    backend=record.backend)


def rerun_record(record: ScenarioRecord,
                 workers: Optional[int] = 1) -> ScenarioRecord:
    """Re-run a record's cell from its embedded definition (no caching)."""
    scenario = scenario_from_record(record)
    return run_cell(scenario, workers=workers, runs_dir=None).record
