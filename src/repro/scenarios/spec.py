"""Declarative scenario specifications.

A :class:`Scenario` names one cell of the evaluation grid: a workload set,
an architecture and a search configuration, each referenced *by registry
name* (:mod:`repro.scenarios.registry`) rather than by object.  That keeps
scenarios serializable — a JSON record written by the runner carries enough
information to rebuild and re-run its cell bit-identically.

A :class:`ScenarioMatrix` is an ordered collection of scenarios with
cross-product expansion (:meth:`ScenarioMatrix.cross`), substring filtering
and name-level deduplication.  Expansion order is deterministic
(row-major over ``workload_sets x arches x configs`` in argument order), so
run plans, artifact directories and golden files are stable across runs.
"""

from __future__ import annotations

import dataclasses
import re
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

_METRICS = ("edp", "latency", "energy")
_POLICIES = ("exhaustive", "halving", "evolutionary")


@dataclass(frozen=True)
class SearchConfig:
    """Search-engine settings of one scenario cell.

    Only fields that change the *numbers* live here (they enter the cell's
    content-address); the one execution knob that is guaranteed
    result-neutral — ``workers`` — is a runner argument instead.
    """

    name: str
    """Short label used in cell names (e.g. ``"edp-50"`` or ``"smoke"``)."""
    metric: str = "edp"
    """Objective the co-search minimises: ``edp``, ``latency`` or ``energy``."""
    max_mappings: int = 50
    """Bound on sampled mappings per layer (the pruned-random budget)."""
    seed: int = 0
    """RNG seed of the mapping sampler; embedded in every record."""
    prune: bool = True
    """Admissible lower-bound pruning (exact; off only for A/B studies)."""
    policy: str = "exhaustive"
    """Search policy (``exhaustive``/``halving``/``evolutionary``)."""
    budget: Optional[int] = None
    """Per-shape cap on scored (mapping, layout) pairs; only meaningful
    with a non-exhaustive ``policy``."""
    frontier: bool = False
    """Keep a Pareto frontier over (EDP, latency, energy, buffer footprint)
    per unique shape alongside the scalar winner (analytical + exhaustive
    cells only)."""
    fused: bool = False
    """Additionally search fused two-layer mappings over adjacent fusible
    layer pairs (analytical + exhaustive cells only)."""

    def __post_init__(self) -> None:
        if self.metric not in _METRICS:
            raise ValueError(f"metric must be one of {_METRICS}, "
                             f"got {self.metric!r}")
        if self.max_mappings < 1:
            raise ValueError(f"max_mappings must be >= 1, "
                             f"got {self.max_mappings}")
        if self.policy not in _POLICIES:
            raise ValueError(f"policy must be one of {_POLICIES}, "
                             f"got {self.policy!r}")
        if self.budget is not None and self.budget < 1:
            raise ValueError(f"budget must be >= 1 (or None), "
                             f"got {self.budget}")
        if (self.frontier or self.fused) and self.policy != "exhaustive":
            raise ValueError(
                f"frontier/fused require policy='exhaustive', "
                f"got {self.policy!r}")

    def identity(self) -> Tuple:
        """The fields that determine search results (name excluded)."""
        return (self.metric, self.max_mappings, self.seed, self.prune,
                self.policy, self.budget, self.frontier, self.fused)

    def as_dict(self) -> Dict[str, object]:
        return {"name": self.name, "metric": self.metric,
                "max_mappings": self.max_mappings, "seed": self.seed,
                "prune": self.prune, "policy": self.policy,
                "budget": self.budget, "frontier": self.frontier,
                "fused": self.fused}

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "SearchConfig":
        budget = data.get("budget")
        return cls(name=str(data["name"]), metric=str(data["metric"]),
                   max_mappings=int(data["max_mappings"]),
                   seed=int(data["seed"]), prune=bool(data["prune"]),
                   policy=str(data.get("policy", "exhaustive")),
                   budget=None if budget is None else int(budget),
                   frontier=bool(data.get("frontier", False)),
                   fused=bool(data.get("fused", False)))


def scenario_backend_names() -> Tuple[str, ...]:
    """Backends a scenario cell may run on: every :mod:`repro.backends`
    registry name (including downstream-registered ones) plus the
    composite ``"crossval"`` mode (analytical search, then simulator
    execution of every winner with per-cell deltas)."""
    from repro.backends import backend_names

    return tuple(backend_names()) + ("crossval",)


@dataclass(frozen=True)
class Scenario:
    """One named (workload set, architecture, search config, backend) cell."""

    name: str
    """Unique human-readable cell name (doubles as the artifact stem)."""
    workload_set: str
    """Workload-set spec: a registry name, optionally sliced (``"bert[:2]"``)."""
    arch: str
    """Architecture registry name (e.g. ``"FEATHER"``, ``"Eyeriss-like"``)."""
    config: SearchConfig
    """Search settings of this cell."""
    tags: Tuple[str, ...] = ()
    """Free-form labels the CLI filter matches (e.g. ``("smoke",)``)."""
    backend: str = "analytical"
    """Evaluation backend of the cell (:func:`scenario_backend_names`); the
    CLI's ``run --backend`` overrides it for a whole sweep."""

    def __post_init__(self) -> None:
        allowed = scenario_backend_names()
        if self.backend not in allowed:
            raise ValueError(
                f"backend must be one of {allowed}, "
                f"got {self.backend!r}")

    def matches(self, pattern: Optional[str]) -> bool:
        """Case-insensitive substring match on name, tags and backend."""
        if not pattern:
            return True
        needle = pattern.lower()
        return (needle in self.name.lower()
                or needle in self.backend.lower()
                or any(needle in tag.lower() for tag in self.tags))


def default_cell_name(workload_set: str, arch: str,
                      config: SearchConfig) -> str:
    """Canonical name of a cross-product cell."""
    return f"{workload_set} @ {arch} @ {config.name}"


class ScenarioMatrix:
    """An ordered, expandable collection of scenarios.

    The matrix preserves insertion order everywhere: iteration, filtering
    and deduplication never reorder surviving cells, so a matrix expanded
    from the same inputs always produces the same run plan.
    """

    def __init__(self, name: str = "matrix",
                 scenarios: Iterable[Scenario] = ()):
        self.name = name
        self.scenarios: List[Scenario] = list(scenarios)

    # ------------------------------------------------------------ container
    def __len__(self) -> int:
        return len(self.scenarios)

    def __iter__(self) -> Iterator[Scenario]:
        return iter(self.scenarios)

    def __getitem__(self, index: int) -> Scenario:
        return self.scenarios[index]

    def names(self) -> List[str]:
        """Cell names in plan order."""
        return [s.name for s in self.scenarios]

    def get(self, name: str) -> Scenario:
        """Look one cell up by exact name."""
        for scenario in self.scenarios:
            if scenario.name == name:
                return scenario
        raise KeyError(f"no scenario named {name!r} in matrix {self.name!r}")

    # ------------------------------------------------------------ expansion
    def add(self, scenario: Scenario) -> "ScenarioMatrix":
        """Append one cell; returns ``self`` for chaining."""
        self.scenarios.append(scenario)
        return self

    def extend(self, scenarios: Iterable[Scenario]) -> "ScenarioMatrix":
        """Append several cells in the given order; returns ``self``."""
        self.scenarios.extend(scenarios)
        return self

    def cross(self, workload_sets: Sequence[str], arches: Sequence[str],
              configs: Sequence[SearchConfig], tags: Sequence[str] = (),
              backend: str = "analytical") -> "ScenarioMatrix":
        """Append the full cross product, row-major in argument order.

        Every combination is appended exactly once per call (cardinality is
        ``len(workload_sets) * len(arches) * len(configs)``); duplicates
        across calls are resolved later by :meth:`dedup`.  ``backend``
        applies to every appended cell.  Returns ``self``.
        """
        tag_tuple = tuple(tags)
        for wset in workload_sets:
            for arch in arches:
                for config in configs:
                    self.scenarios.append(Scenario(
                        name=default_cell_name(wset, arch, config),
                        workload_set=wset, arch=arch, config=config,
                        tags=tag_tuple, backend=backend))
        return self

    # ------------------------------------------------------------ refinement
    def filter(self, pattern: Optional[str]) -> "ScenarioMatrix":
        """A new matrix with the cells matching ``pattern``, order preserved."""
        return ScenarioMatrix(name=self.name,
                              scenarios=[s for s in self.scenarios
                                         if s.matches(pattern)])

    def dedup(self) -> "ScenarioMatrix":
        """A new matrix with one cell per name, in first-seen order.

        Duplicates must agree on their content: two groups may
        legitimately contribute the same cell (e.g. the fig13 and
        search-stats-table ports share their co-search cells), in which
        case their tags are unioned so both filter labels keep working.
        A name reused for *different* (workload set, arch, config) content
        raises — silently running only one of the two would report a
        sweep as complete with cells missing.
        """
        keep: Dict[str, Scenario] = {}
        order: List[str] = []
        for scenario in self.scenarios:
            existing = keep.get(scenario.name)
            if existing is None:
                keep[scenario.name] = scenario
                order.append(scenario.name)
                continue
            if (scenario.workload_set, scenario.arch, scenario.config,
                    scenario.backend) != (
                    existing.workload_set, existing.arch, existing.config,
                    existing.backend):
                raise ValueError(
                    f"scenario name {scenario.name!r} is reused for "
                    f"different cell content; rename one of the cells")
            new_tags = tuple(t for t in scenario.tags
                             if t not in existing.tags)
            if new_tags:
                keep[scenario.name] = dataclasses.replace(
                    existing, tags=existing.tags + new_tags)
        return ScenarioMatrix(name=self.name,
                              scenarios=[keep[name] for name in order])

    def merged(self, *others: "ScenarioMatrix") -> "ScenarioMatrix":
        """A new matrix concatenating this one and ``others``, deduplicated."""
        combined = ScenarioMatrix(name=self.name, scenarios=self.scenarios)
        for other in others:
            combined.scenarios = combined.scenarios + list(other.scenarios)
        return combined.dedup()


def slugify(name: str) -> str:
    """Filesystem-safe stem of a cell name (stable across platforms)."""
    slug = re.sub(r"[^A-Za-z0-9._-]+", "-", name).strip("-")
    return slug or "scenario"
