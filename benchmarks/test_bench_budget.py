"""Benchmark: budgeted search policies vs the exhaustive co-search.

The budgeted-search pitch is "same winners, a fraction of the full-fidelity
evaluations": ``halving`` orders the candidate universe by the admissible
lower bound and stops once the bound proves the incumbent optimal;
``evolutionary`` (warm-started from memoized per-shape winners, the repeat-
session case) refines from the previous optimum under a hard budget.  This
benchmark runs all three policies over the deduplicated ResNet-50 co-search
on FEATHER, asserts winner identity, and prints the trajectory —
evaluation counts, wall time, identity.  With ``REPRO_BENCH_RECORD=1`` the
run is also appended to ``BENCH_search.json`` at the repo root (the
committed datapoints CI's ``bench_guard --gates budget`` mirrors); without
it the benchmark writes nothing, so a tier-1 run never changes a tracked
file.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

import repro
from repro.layoutloop.arch import feather_arch
from repro.layoutloop.mapper import Mapper
from repro.search.budget import evolutionary_search, halving_search
from repro.search.signatures import workload_signature
from repro.workloads.resnet50 import resnet50_layers

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_search.json"
MAX_MAPPINGS = 24
#: Warm-started evolutionary budget: winner + one refinement candidate per
#: shape (7 layouts each).  Locally 3.13x; the gate floor is 3.0x.
EVOLUTIONARY_BUDGET = 14
MIN_WARM_REDUCTION = 3.0


def _unique_shapes():
    unique = {}
    for workload in resnet50_layers(include_fc=False):
        unique.setdefault(workload_signature(workload), workload)
    return list(unique.values())


def _identical(result, winner) -> bool:
    return (result.best_report.total_cycles == winner.best_report.total_cycles
            and result.best_report.total_energy_pj
            == winner.best_report.total_energy_pj
            and result.best_mapping.name == winner.best_mapping.name
            and result.best_layout.name == winner.best_layout.name)


#: Opt-in switch: append the run to ``BENCH_search.json`` only when "1".
RECORD_ENV = "REPRO_BENCH_RECORD"


def _record_run(policies) -> bool:
    """Append the run to ``BENCH_search.json`` when :data:`RECORD_ENV` is
    ``1``; returns whether it did."""
    if os.environ.get(RECORD_ENV) != "1":
        return False
    history = {"benchmark": "budgeted-search", "runs": []}
    if BENCH_PATH.exists():
        try:
            history = json.loads(BENCH_PATH.read_text())
        except json.JSONDecodeError:
            pass
    history.setdefault("runs", []).append({
        "repro_version": repro.__version__,
        "cpu_count": os.cpu_count(),
        "model": "resnet50",
        "arch": "FEATHER",
        "max_mappings": MAX_MAPPINGS,
        "policies": policies,
    })
    history["runs"] = history["runs"][-50:]  # bounded trajectory
    BENCH_PATH.write_text(json.dumps(history, indent=2, sort_keys=True)
                          + "\n")
    return True


@pytest.mark.benchmark(group="budget")
def test_budgeted_policies_reach_exhaustive_winner(best_of):
    shapes = _unique_shapes()
    arch = feather_arch()

    def run_exhaustive():
        mapper = Mapper(arch, max_mappings=MAX_MAPPINGS, seed=0)
        return mapper, [mapper.search(workload) for workload in shapes]

    def run_halving():
        mapper = Mapper(arch, max_mappings=MAX_MAPPINGS, seed=0)
        return [halving_search(mapper, workload) for workload in shapes]

    exhaustive_s, (exhaustive_mapper, winners) = best_of(run_exhaustive, 3)
    halving_s, halved = best_of(run_halving, 3)

    def run_warm_evolutionary():
        mapper = Mapper(arch, max_mappings=MAX_MAPPINGS, seed=0)
        mapper._cache.update(exhaustive_mapper._cache)  # repeat-session memo
        return [evolutionary_search(mapper, workload,
                                    budget=EVOLUTIONARY_BUDGET)
                for workload in shapes]

    warm_s, warm = best_of(run_warm_evolutionary, 3)

    baseline = sum(r.evaluated for r in winners)
    rows = {
        "exhaustive": (exhaustive_s, baseline, True),
        "halving": (halving_s, sum(r.evaluated for r in halved),
                    all(_identical(r, w) for r, w in zip(halved, winners))),
        "evolutionary-warm": (warm_s, sum(r.evaluated for r in warm),
                              all(_identical(r, w)
                                  for r, w in zip(warm, winners))),
    }

    title = (f"Budgeted search policies (ResNet-50 on FEATHER, "
             f"{len(shapes)} unique shapes)")
    print(f"\n{'=' * len(title)}\n{title}\n{'=' * len(title)}")
    print(f"{'policy':>20}  {'wall s':>8}  {'evaluations':>11}  "
          f"{'reduction':>9}  {'identical':>9}")
    policies = {}
    for name, (seconds, evaluations, identical) in rows.items():
        print(f"{name:>20}  {seconds:8.3f}  {evaluations:11d}  "
              f"{baseline / evaluations:8.2f}x  {str(identical):>9}")
        policies[name] = {
            "wall_s": round(seconds, 4),
            "evaluations": evaluations,
            "reduction": round(baseline / evaluations, 3),
            "winner_identical": identical,
        }
    if _record_run(policies):
        print(f"recorded in {BENCH_PATH.name}")
    else:
        print(f"not recorded (set {RECORD_ENV}=1 to append to "
              f"{BENCH_PATH.name})")

    # Identity is the contract: a cheap wrong winner is a regression.
    assert rows["halving"][2], "halving winner drifted from exhaustive"
    assert rows["evolutionary-warm"][2], (
        "warm evolutionary winner drifted from exhaustive")
    warm_reduction = baseline / rows["evolutionary-warm"][1]
    assert warm_reduction >= MIN_WARM_REDUCTION, (
        f"warm evolutionary reduction {warm_reduction:.2f}x below the "
        f"{MIN_WARM_REDUCTION:.1f}x floor")
    # The bound-stop must prune meaningfully even cold (no identity risk:
    # its winner is provably exhaustive) — locally 2.72x.
    assert baseline / rows["halving"][1] >= 2.0
