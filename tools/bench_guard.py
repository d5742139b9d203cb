#!/usr/bin/env python
"""CI performance guard: the fast paths must beat their reference paths.

Runs three comparisons on the ResNet-50 workload set and fails (exit 1)
when a fast path is not measurably faster than its reference:

* **kernel** — raw cost-model evaluations (every unique conv shape x sampled
  mappings x the conv layout library) on SIGMA with off-chip reordering,
  where the batched concordance analysis carries the load;
* **cosearch** — the whole deduplicated ResNet-50 co-search on FEATHER
  at ``workers=1``, the scalar test oracle (``tests/oracle.py``) vs the
  production path (a per-call ``SearchRequest(fresh_cache=True)`` on a
  :class:`repro.api.Session`);
* **api** — repeat traffic on a warm :class:`repro.api.Session` vs
  per-call searches on a fresh evaluation cache (the session's shared
  evaluation cache and persistent per-configuration mappers carry the
  load).

All comparisons also verify the results are identical — a fast wrong path
still fails the guard.  Thresholds are deliberately below the locally
measured speedups (~12x, ~6x and ~25x) so only a real regression trips on
a noisy CI box, while still proving "measurably faster".

The remaining gates are off by default.  **frontier** (``--gates frontier``)
is an identity gate on the Pareto-frontier search: on every unique shape
of the ResNet-50 residual block the frontier scan must return the scalar
winner bit-identically (and contain it as a frontier member) while scoring
no more candidates than the exhaustive universe.
**budget** (``--gates budget``) counts
full cost-model evaluations instead of wall-clock: the budgeted search
policies must reproduce the exhaustive winner on every unique ResNet-50
shape, with the warm-started evolutionary policy doing it in at least
``--min-budget-reduction`` (3x) fewer evaluations.
**bulk** (``--gates bulk``) checks the
batched bound pipeline: an exhaustive search must be bit-identical to the
oracle's scalar bound path (one bound per mapping, batched evaluation) on
every golden cell (winners, frontiers *and* counters), and the uncapped
exhaustive ResNet-50 co-search must run at least ``--min-bulk-speedup``
(1.5x) faster than that reference — the timing run is appended to
``BENCH_search.json``.
**constraints** (``--gates constraints``) is the identity gate on the
constraint layer: with no ConstraintSet bound, a mapper with the layer
forced off (``constraints="none"``) must be bit-identical to the default
mapper on every golden cell (winners, frontiers *and* counters, zero
repairs accounted), and on the constrained-backend golden cells every
candidate in the repaired universe must validate, repair must be
idempotent on it, and the coverage counters must close exactly:
``evaluated + pruned + repaired == universe_pairs``.
**service** is off by default because it reads a
measurement instead of taking one: ``--gates service`` checks that the
latest ``tools/loadtest.py`` run (``BENCH_service.json``) pushed the
threaded server past an *absolute* throughput floor with zero request
errors.  Absolute, not a threads-4-vs-threads-1 ratio: the ratio only
exceeds 1x when there are physical cores to offload to, and the guard
must stay honest on a 1-core runner.

Usage::

    PYTHONPATH=src python tools/bench_guard.py [--min-kernel-speedup X]
                                               [--min-cosearch-speedup Y]
    PYTHONPATH=src python tools/bench_guard.py --gates service \
        --min-service-throughput 20 --service-bench BENCH_service.json
"""

from __future__ import annotations

import argparse
import importlib.util
import sys
from pathlib import Path


def _load(relative: str, name: str):
    """A helper module of the repo, loaded by file path.

    Neither the benchmark suite nor the tests are importable packages, and
    both helpers must stay single-sourced: the best-of-N timer
    (``benchmarks/_timing.py``) so the guard and the benchmarks can never
    de-noise differently, the scalar search oracle (``tests/oracle.py``)
    so the guard times the same reference the equivalence tests pin.  Both
    are pytest-free — the guard needs only stdlib + numpy + repro.
    """
    path = Path(__file__).resolve().parent.parent / relative
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


best_of = _load("benchmarks/_timing.py", "_bench_timing").best_of
oracle = _load("tests/oracle.py", "_search_oracle")


def kernel_speedup(rounds: int) -> float:
    """Scalar vs batched evaluation speedup on the ResNet-50 shape set."""
    from repro.baselines.registry import sigma_like
    from repro.dataflow.space import MappingSpace
    from repro.layout.library import conv_layout_library
    from repro.layoutloop.cosearch import unique_workloads
    from repro.layoutloop.cost_model import CostModel, clear_slowdown_memo
    from repro.workloads.resnet50 import resnet50_layers

    model = CostModel(sigma_like(reorder="offchip"))
    layouts = conv_layout_library()
    cases = []
    for shape, _ in unique_workloads(resnet50_layers(include_fc=False)):
        for mapping in MappingSpace(shape, 16, 16).sample(4, seed=0):
            cases.append((shape, mapping))

    scalar_s, scalar = best_of(
        lambda: [oracle.evaluate_layouts(model, wl, m, layouts)
                 for wl, m in cases], rounds)
    def run_batched():
        # Every round times the kernel, not the previous round's memo.
        clear_slowdown_memo()
        return [model.evaluate_mapping_batch(wl, m, layouts)
                for wl, m in cases]

    batched_s, batched = best_of(run_batched, rounds)
    batched = [[record.report(wl, m, layout)
                for record, layout in zip(records, layouts)]
               for records, (wl, m) in zip(batched, cases)]
    if batched != scalar:
        print("FAIL: batched cost-model reports differ from the scalar oracle")
        sys.exit(1)
    print(f"kernel   : scalar {scalar_s:.3f}s  batched {batched_s:.3f}s  "
          f"speedup {scalar_s / batched_s:.2f}x "
          f"({len(cases) * len(layouts)} evaluations, identical reports)")
    return scalar_s / batched_s


def cosearch_speedup(rounds: int) -> float:
    """Scalar-oracle vs production whole-model co-search speedup on FEATHER.

    The reference is the oracle's fully scalar path — scalar evaluations
    *and* one bound per mapping — because the bulk bound pipeline
    accelerates the scalar-evaluation engine itself (~4x); a reference
    with bulk bounds would make this gate measure only the evaluation
    batching remainder instead of the fast path against its scalar oracle.
    """
    from repro.api import SearchRequest, Session
    from repro.layoutloop.arch import feather_arch
    from repro.workloads.resnet50 import resnet50_layers

    layers = resnet50_layers(include_fc=False)
    scalar_s, scalar = best_of(
        lambda: oracle.search_model(feather_arch(), layers, max_mappings=24),
        rounds)
    request = SearchRequest(workloads="resnet50", arch="FEATHER",
                            max_mappings=24, workers=1, fresh_cache=True)
    with Session(name="bench-guard-cosearch") as session:
        vector_s, vector = best_of(lambda: session.run(request).cost, rounds)
    if (vector.total_cycles != scalar.total_cycles
            or vector.total_energy_pj != scalar.total_energy_pj):
        print("FAIL: vectorized co-search totals differ from the scalar oracle")
        sys.exit(1)
    print(f"cosearch : scalar {scalar_s:.3f}s  vectorized {vector_s:.3f}s  "
          f"speedup {scalar_s / vector_s:.2f}x "
          f"(ResNet-50 on FEATHER, workers=1, identical totals)")
    return scalar_s / vector_s


def api_speedup(rounds: int) -> float:
    """Warm-:class:`Session` throughput vs per-call searches.

    Both run the deduplicated ResNet-50 co-search on FEATHER.  The
    per-call search (``fresh_cache=True``) rebuilds its evaluation cache
    every call; the session request reuses the session's shared cache, so
    repeat traffic must be measurably faster — and bit-identical.
    """
    from repro.api import SearchRequest, Session

    percall_request = SearchRequest(workloads="resnet50", arch="FEATHER",
                                    model="resnet50", max_mappings=24,
                                    workers=1, fresh_cache=True)
    with Session(name="bench-guard-per-call") as session:
        percall_s, percall = best_of(
            lambda: session.run(percall_request).cost, rounds)
    with Session(name="bench-guard") as session:
        request = SearchRequest(workloads="resnet50", arch="FEATHER",
                                model="resnet50", max_mappings=24)
        session.run(request)  # first request pays the cache fill once
        warm_s, warm = best_of(lambda: session.run(request), rounds)
    if (warm.totals["total_cycles"] != percall.total_cycles
            or warm.totals["total_energy_pj"] != percall.total_energy_pj):
        print("FAIL: warm-session totals differ from the per-call search")
        sys.exit(1)
    print(f"api      : per-call {percall_s:.3f}s  warm session {warm_s:.3f}s  "
          f"speedup {percall_s / warm_s:.2f}x "
          f"(ResNet-50 on FEATHER, identical totals)")
    return percall_s / warm_s


def budget_reduction() -> float:
    """Budgeted-policy evaluation reduction at exhaustive winner identity.

    Counts full cost-model evaluations — scored (mapping, layout) pairs —
    on the deduplicated ResNet-50 co-search on FEATHER, comparing:

    * **halving** (uncapped): must reproduce the exhaustive winner on every
      unique shape (the bound-order guarantee, checked here end to end);
      its reduction is reported but not gated — the bound can only prune
      what it can prove.
    * **evolutionary, warm-started** (budget=14): a repeat-session search
      seeded from the memoized per-shape winners; must also reproduce every
      exhaustive winner, and its reduction is the gated ratio.

    """
    from repro.layoutloop.arch import feather_arch
    from repro.layoutloop.mapper import Mapper
    from repro.search.budget import evolutionary_search, halving_search
    from repro.search.signatures import workload_signature
    from repro.workloads.resnet50 import resnet50_layers

    unique = {}
    for workload in resnet50_layers(include_fc=False):
        unique.setdefault(workload_signature(workload), workload)
    shapes = list(unique.values())

    arch = feather_arch()
    exhaustive = Mapper(arch, max_mappings=24, seed=0)
    winners = {}
    baseline = 0
    for workload in shapes:
        result = exhaustive.search(workload)
        baseline += result.evaluated
        winners[workload_signature(workload)] = result

    def identical(result, workload) -> bool:
        won = winners[workload_signature(workload)]
        return (result.best_report.total_cycles
                == won.best_report.total_cycles
                and result.best_report.total_energy_pj
                == won.best_report.total_energy_pj
                and result.best_mapping.name == won.best_mapping.name
                and result.best_layout.name == won.best_layout.name)

    cold = Mapper(arch, max_mappings=24, seed=0)
    halving_evals = 0
    for workload in shapes:
        result = halving_search(cold, workload)
        halving_evals += result.evaluated
        if not identical(result, workload):
            print(f"FAIL: halving winner differs from exhaustive on "
                  f"{result.workload}")
            sys.exit(1)

    warm = Mapper(arch, max_mappings=24, seed=0)
    warm._cache.update(exhaustive._cache)  # the repeat-session memo
    evo_evals = 0
    for workload in shapes:
        result = evolutionary_search(warm, workload, budget=14)
        evo_evals += result.evaluated
        if not identical(result, workload):
            print(f"FAIL: warm evolutionary winner differs from exhaustive "
                  f"on {result.workload}")
            sys.exit(1)

    reduction = baseline / evo_evals
    print(f"budget   : exhaustive {baseline}  halving {halving_evals} "
          f"({baseline / halving_evals:.2f}x)  warm evolutionary {evo_evals} "
          f"({reduction:.2f}x)  identical winners on {len(shapes)} shapes")
    return reduction


def frontier_identity() -> int:
    """Frontier-search correctness gate (``--gates frontier``).

    On every unique shape of the ResNet-50 residual block (FEATHER,
    ``max_mappings=12``), the Pareto frontier search must (a) return a
    scalar winner bit-identical to :meth:`Mapper.search` — report, mapping
    and layout — with the winner a member of the returned frontier, and
    (b) score no more candidates than the unpruned exhaustive universe
    (``mappings x layouts``): the dominance prune may only remove work.
    Identity gates, not timing gates — a frontier that disagrees with the
    scalar search breaks the ``frontier=`` API contract outright.
    """
    from repro.layoutloop.mapper import Mapper
    from repro.scenarios.registry import resolve_arch, resolve_workload_set

    arch = resolve_arch("FEATHER")
    shapes = resolve_workload_set("resnet50_residual_block")
    total_points = 0
    for workload in shapes:
        scalar = Mapper(arch, metric="edp", max_mappings=12).search(workload)
        mapper = Mapper(arch, metric="edp", max_mappings=12)
        result, frontier = mapper.search_frontier(workload)
        universe = (len(mapper.candidate_mappings(workload))
                    * len(mapper.candidate_layouts(workload)))
        if (result.best_report != scalar.best_report
                or result.best_mapping.name != scalar.best_mapping.name
                or result.best_layout.name != scalar.best_layout.name):
            print(f"FAIL: frontier scalar winner differs from Mapper.search "
                  f"on {result.workload}")
            sys.exit(1)
        winner = frontier.winner()
        if (winner.mapping, winner.layout) != (scalar.best_mapping.name,
                                               scalar.best_layout.name):
            print(f"FAIL: scalar winner is not the frontier's winner member "
                  f"on {result.workload}")
            sys.exit(1)
        if result.evaluated + result.pruned != universe:
            print(f"FAIL: frontier scan covered "
                  f"{result.evaluated + result.pruned} of {universe} "
                  f"candidates on {result.workload}")
            sys.exit(1)
        if result.evaluated > universe:
            print(f"FAIL: frontier search scored {result.evaluated} > "
                  f"exhaustive {universe} on {result.workload}")
            sys.exit(1)
        total_points += len(frontier.points)
    print(f"frontier : identical winners on {len(shapes)} shapes, "
          f"{total_points} frontier points, coverage == universe")
    return total_points


def bulk_speedup(rounds: int, bench_path: Path) -> float:
    """Bulk-bounds identity + speedup gate (``--gates bulk``).

    Two checks, in order:

    * **identity** — on every golden-matrix cell, an exhaustive search
      with the bulk bound pipeline (the production path) must be
      bit-identical to the oracle's scalar bound path
      (``ScalarMapper(batched=True)``: one bound per mapping, the same
      batched evaluations): same
      winner report, mapping, layout *and* the same evaluated/pruned
      counters, since the bulk bounds replicate the scalar float
      arithmetic exactly.  Frontier cells compare the full serialized
      frontier, point for point.
    * **speedup** — the *uncapped* exhaustive ResNet-50 co-search on
      FEATHER (every parallelism x order candidate per shape, 757-1845
      mappings each) must run measurably faster with the bulk pipeline;
      the ``--min-bulk-speedup`` floor sits below the locally measured
      ~2x so only a real regression trips.

    The timing run is appended to ``BENCH_search.json`` so the trajectory
    file carries the bulk datapoints alongside the budgeted-policy runs.
    """
    import json
    import os

    import repro
    from repro.backends import create_backend
    from repro.layoutloop.mapper import Mapper
    from repro.scenarios.builtin import golden_matrix
    from repro.scenarios.registry import resolve_arch, resolve_workload_set
    from repro.search.signatures import workload_signature
    from repro.workloads.resnet50 import resnet50_layers

    def mapper_for(cell, cls, **options) -> Mapper:
        # crossval cells search analytically (the simulator leg replays
        # winners); every other backend is instantiated as the cell runs it.
        arch = resolve_arch(cell.arch)
        backend = ("analytical" if cell.backend in ("analytical", "crossval")
                   else create_backend(cell.backend, arch,
                                       seed=cell.config.seed))
        return cls(arch, metric=cell.config.metric,
                   max_mappings=cell.config.max_mappings,
                   seed=cell.config.seed, prune=cell.config.prune,
                   backend=backend, **options)

    def unique(workloads):
        seen = {}
        for workload in workloads:
            seen.setdefault(workload_signature(workload), workload)
        return list(seen.values())

    cells = list(golden_matrix())
    checked = 0
    for cell in cells:
        scalar_mapper = mapper_for(cell, oracle.ScalarMapper, batched=True)
        bulk_mapper = mapper_for(cell, Mapper)
        for workload in unique(resolve_workload_set(cell.workload_set)):
            if cell.config.frontier:
                s_res, s_front = scalar_mapper.search_frontier(workload)
                b_res, b_front = bulk_mapper.search_frontier(workload)
                if s_front.to_dict() != b_front.to_dict():
                    print(f"FAIL: bulk frontier differs from scalar on "
                          f"{cell.name} / {s_res.workload}")
                    sys.exit(1)
            else:
                s_res = scalar_mapper.search(workload)
                b_res = bulk_mapper.search(workload)
            if (s_res.best_report != b_res.best_report
                    or s_res.best_mapping.name != b_res.best_mapping.name
                    or s_res.best_layout.name != b_res.best_layout.name
                    or (s_res.evaluated, s_res.pruned)
                    != (b_res.evaluated, b_res.pruned)):
                print(f"FAIL: bulk winner differs from scalar on "
                      f"{cell.name} / {s_res.workload}")
                sys.exit(1)
            checked += 1

    shapes = unique(resnet50_layers(include_fc=False))
    arch = resolve_arch("FEATHER")
    uncapped = 10 ** 9  # larger than any per-shape universe: exhaustive

    def run(cls, **options):
        mapper = cls(arch, max_mappings=uncapped, seed=0, **options)
        return [mapper.search(workload) for workload in shapes]

    scalar_s, scalar_results = best_of(
        lambda: run(oracle.ScalarMapper, batched=True), rounds)
    bulk_s, bulk_results = best_of(lambda: run(Mapper), rounds)
    for s_res, b_res in zip(scalar_results, bulk_results):
        if (s_res.best_report != b_res.best_report
                or s_res.best_mapping.name != b_res.best_mapping.name
                or s_res.best_layout.name != b_res.best_layout.name):
            print(f"FAIL: uncapped bulk winner differs from scalar on "
                  f"{s_res.workload}")
            sys.exit(1)
    speedup = scalar_s / bulk_s
    universe = sum(r.evaluated + r.pruned for r in bulk_results)

    history = {"benchmark": "budgeted-search", "runs": []}
    if bench_path.exists():
        try:
            history = json.loads(bench_path.read_text())
        except json.JSONDecodeError:
            pass
    history.setdefault("runs", []).append({
        "gate": "bulk",
        "repro_version": repro.__version__,
        "cpu_count": os.cpu_count(),
        "model": "resnet50",
        "arch": "FEATHER",
        "max_mappings": "uncapped",
        "candidates": universe,
        "scalar_wall_s": round(scalar_s, 4),
        "bulk_wall_s": round(bulk_s, 4),
        "speedup": round(speedup, 3),
        "winner_identical": True,
    })
    history["runs"] = history["runs"][-50:]
    bench_path.write_text(json.dumps(history, indent=2, sort_keys=True)
                          + "\n")

    print(f"bulk     : scalar {scalar_s:.3f}s  bulk {bulk_s:.3f}s  "
          f"speedup {speedup:.2f}x  ({universe} candidate pairs uncapped, "
          f"identical winners; {checked} golden cells identical)")
    return speedup


def constraints_identity() -> int:
    """Constraint-layer identity gate (``--gates constraints``).

    Two checks over the golden matrix, both exact:

    * **unconstrained bit-identity** — on every golden cell whose backend
      binds no :class:`~repro.constraints.ConstraintSet` (analytical,
      crossval, simulator), a mapper with the constraint layer forced off
      (``constraints="none"``) must be bit-identical to the default
      mapper: same winner report, mapping, layout and evaluated/pruned
      counters (frontier cells compare the full serialized frontier), with
      zero repairs accounted on either side.  With nothing bound the layer
      must be a no-op, not a cheap approximation of one.
    * **repaired-search legality + coverage** — on the constrained-backend
      golden cells (systolic, noc:*), every candidate in the repaired
      universe must ``validate()``, repair must be idempotent on it
      (already-legal mappings come back as the identical object), and the
      search counters must close over the raw universe exactly:
      ``evaluated + pruned + repaired == universe_pairs``.
    """
    from repro.backends import create_backend
    from repro.layoutloop.mapper import Mapper
    from repro.scenarios.builtin import golden_matrix
    from repro.scenarios.registry import resolve_arch, resolve_workload_set
    from repro.search.signatures import workload_signature

    def build(cell, constraints=None) -> Mapper:
        arch = resolve_arch(cell.arch)
        backend = ("analytical" if cell.backend in ("analytical", "crossval")
                   else create_backend(cell.backend, arch,
                                       seed=cell.config.seed))
        return Mapper(arch, metric=cell.config.metric,
                      max_mappings=cell.config.max_mappings,
                      seed=cell.config.seed, prune=cell.config.prune,
                      backend=backend, constraints=constraints)

    def unique(workloads):
        seen = {}
        for workload in workloads:
            seen.setdefault(workload_signature(workload), workload)
        return list(seen.values())

    identical = 0
    legal = 0
    for cell in golden_matrix():
        plain = build(cell)
        shapes = unique(resolve_workload_set(cell.workload_set))
        if plain.constraints is None:
            off = build(cell, constraints="none")
            for workload in shapes:
                if cell.config.frontier:
                    p_res, p_front = plain.search_frontier(workload)
                    o_res, o_front = off.search_frontier(workload)
                    if p_front.to_dict() != o_front.to_dict():
                        print(f"FAIL: constraints=\"none\" frontier differs "
                              f"from default on {cell.name} / "
                              f"{p_res.workload}")
                        sys.exit(1)
                else:
                    p_res = plain.search(workload)
                    o_res = off.search(workload)
                if (p_res.best_report != o_res.best_report
                        or p_res.best_mapping.name != o_res.best_mapping.name
                        or p_res.best_layout.name != o_res.best_layout.name
                        or (p_res.evaluated, p_res.pruned)
                        != (o_res.evaluated, o_res.pruned)):
                    print(f"FAIL: constraints=\"none\" search differs from "
                          f"default on {cell.name} / {p_res.workload}")
                    sys.exit(1)
                if (p_res.repaired or p_res.repair is not None
                        or o_res.repaired or o_res.repair is not None):
                    print(f"FAIL: repairs accounted with no constraints "
                          f"bound on {cell.name} / {p_res.workload}")
                    sys.exit(1)
                identical += 1
        else:
            cset = plain.constraints
            for workload in shapes:
                result = plain.search(workload)
                for mapping in plain.candidate_mappings(workload):
                    if not cset.validate(mapping, workload, plain.arch):
                        print(f"FAIL: illegal mapping {mapping.name!r} in "
                              f"the repaired universe of {cell.name} / "
                              f"{result.workload}")
                        sys.exit(1)
                    fixed, _ = cset.repair(mapping, workload, plain.arch)
                    if fixed is not mapping:
                        print(f"FAIL: repair is not idempotent on "
                              f"{mapping.name!r} ({cell.name} / "
                              f"{result.workload})")
                        sys.exit(1)
                universe = result.repair["universe_pairs"]
                if (result.evaluated + result.pruned + result.repaired
                        != universe):
                    print(f"FAIL: coverage {result.evaluated} evaluated + "
                          f"{result.pruned} pruned + {result.repaired} "
                          f"repaired != universe {universe} on {cell.name} "
                          f"/ {result.workload}")
                    sys.exit(1)
                legal += 1
    print(f"constrnt : constraints=\"none\" bit-identical on {identical} "
          f"unconstrained golden searches; repaired universes legal, "
          f"repair idempotent, coverage == universe on {legal} constrained "
          f"searches")
    return identical + legal


def service_throughput(bench_path: Path) -> float:
    """Threaded-server throughput from the latest loadtest run.

    Reads the last entry of ``BENCH_service.json`` (written by
    ``tools/loadtest.py``), picks the highest-``threads`` server
    configuration in it, and fails outright if any request errored —
    a fast server that drops requests is not a service.
    """
    import json

    if not bench_path.exists():
        print(f"FAIL: no service benchmark at {bench_path}; run "
              f"tools/loadtest.py first")
        sys.exit(1)
    runs = json.loads(bench_path.read_text()).get("runs", [])
    if not runs:
        print(f"FAIL: {bench_path} has no recorded runs")
        sys.exit(1)
    servers = runs[-1]["servers"]
    label, threaded = max(servers.items(),
                          key=lambda kv: kv[1].get("threads", 0))
    errors = sum(s["errors"] for s in servers.values())
    if errors:
        print(f"FAIL: the recorded loadtest run had {errors} request error(s)")
        sys.exit(1)
    print(f"service  : {label} {threaded['throughput_rps']:.2f} req/s  "
          f"p99 {threaded['latency_p99_ms']:.1f}ms  0 errors  "
          f"(cpu_count {runs[-1].get('cpu_count')})")
    return threaded["throughput_rps"]


#: Every ``--gates`` choice; CI runs each one (a test pins that).
GATES = ("kernel", "cosearch", "api", "budget", "frontier", "bulk",
         "constraints", "service")
#: The gates a bare ``bench_guard.py`` run checks.
DEFAULT_GATES = ("kernel", "cosearch", "api")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--gates", default=",".join(DEFAULT_GATES),
                        help="comma-separated gates to run "
                             f"({', '.join(GATES)})")
    parser.add_argument("--min-kernel-speedup", type=float, default=3.0,
                        help="minimum scalar/batched evaluation ratio")
    parser.add_argument("--min-cosearch-speedup", type=float, default=2.0,
                        help="minimum scalar-oracle/production co-search ratio")
    parser.add_argument("--min-api-speedup", type=float, default=3.0,
                        help="minimum per-call/warm-session ratio")
    parser.add_argument("--min-budget-reduction", type=float, default=3.0,
                        help="minimum exhaustive/warm-evolutionary full-"
                             "evaluation ratio at identical winners")
    parser.add_argument("--min-bulk-speedup", type=float, default=1.5,
                        help="minimum scalar/bulk uncapped-exhaustive "
                             "co-search ratio at identical winners")
    parser.add_argument("--search-bench", type=Path,
                        default=Path(__file__).resolve().parent.parent
                        / "BENCH_search.json",
                        help="search trajectory file the bulk gate appends "
                             "its timing run to")
    parser.add_argument("--min-service-throughput", type=float, default=10.0,
                        help="minimum threaded-server req/s in the latest "
                             "loadtest run (service gate)")
    parser.add_argument("--service-bench", type=Path,
                        default=Path(__file__).resolve().parent.parent
                        / "BENCH_service.json",
                        help="loadtest trajectory file for the service gate")
    parser.add_argument("--rounds", type=int, default=3,
                        help="timing rounds per path (best-of)")
    args = parser.parse_args(argv)
    gates = {g.strip() for g in args.gates.split(",") if g.strip()}
    unknown = gates - set(GATES)
    if unknown:
        parser.error(f"unknown gates: {sorted(unknown)}")

    failed = False
    if "kernel" in gates:
        kernel = kernel_speedup(args.rounds)
        if kernel < args.min_kernel_speedup:
            print(f"FAIL: kernel speedup {kernel:.2f}x below the "
                  f"{args.min_kernel_speedup:.2f}x floor")
            failed = True
    if "cosearch" in gates:
        cosearch = cosearch_speedup(args.rounds)
        if cosearch < args.min_cosearch_speedup:
            print(f"FAIL: cosearch speedup {cosearch:.2f}x below the "
                  f"{args.min_cosearch_speedup:.2f}x floor")
            failed = True
    if "api" in gates:
        api = api_speedup(args.rounds)
        if api < args.min_api_speedup:
            print(f"FAIL: api speedup {api:.2f}x below the "
                  f"{args.min_api_speedup:.2f}x floor")
            failed = True
    if "budget" in gates:
        budget = budget_reduction()
        if budget < args.min_budget_reduction:
            print(f"FAIL: budgeted-search reduction {budget:.2f}x below the "
                  f"{args.min_budget_reduction:.2f}x floor")
            failed = True
    if "frontier" in gates:
        frontier_identity()  # exits on any identity violation
    if "bulk" in gates:
        bulk = bulk_speedup(args.rounds, args.search_bench)
        if bulk < args.min_bulk_speedup:
            print(f"FAIL: bulk speedup {bulk:.2f}x below the "
                  f"{args.min_bulk_speedup:.2f}x floor")
            failed = True
    if "constraints" in gates:
        constraints_identity()  # exits on any identity violation
    if "service" in gates:
        service = service_throughput(args.service_bench)
        if service < args.min_service_throughput:
            print(f"FAIL: service throughput {service:.2f} req/s below the "
                  f"{args.min_service_throughput:.2f} req/s floor")
            failed = True
    if failed:
        return 1
    print("bench guard OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
