#!/usr/bin/env python3
"""Layoutloop (dataflow, layout) co-search over ResNet-50 layers.

Reproduces the core of the paper's evaluation flow (§V/§VI-C) on a few
representative layers: for each layer, search the best (dataflow, layout) pair
by energy-delay product for FEATHER and for three baselines, then print the
per-layer and aggregate comparison.

All searches are `SearchRequest`s on one `repro.api.Session`, whose engine
memoizes cost-model evaluations, prunes with admissible bounds, and can fan
the unique layer shapes out across worker processes (`--workers N`, results
are bit-identical to serial).

Run with:  python examples/resnet50_cosearch.py  [--full] [--workers N]
"""

import argparse

from repro.api import SearchRequest, Session
from repro.api.codec import workload_payload
from repro.workloads import resnet50_layer


def per_layer_demo(session: Session, layer_indices=(1, 14, 41)) -> None:
    print("Per-layer co-search (metric: EDP)")
    print(f"{'layer':22s} {'arch':14s} {'dataflow':28s} {'layout':12s} "
          f"{'util':>6s} {'slowdown':>9s} {'pJ/MAC':>7s}")
    for idx in layer_indices:
        layer = resnet50_layer(idx)
        for arch in ("NVDLA-like", "Eyeriss-like", "FEATHER"):
            response = session.run(SearchRequest(
                workloads=(workload_payload(layer),), arch=arch,
                max_mappings=80))
            result = response.cost.layer_choices[0].result
            report = result.best_report
            print(f"{layer.name:22s} {arch:14s} "
                  f"{result.best_mapping.name[:28]:28s} {result.best_layout.name:12s} "
                  f"{report.utilization:6.2f} {report.slowdown:9.2f} "
                  f"{report.energy_per_mac_pj:7.2f}")
        print()


def full_model_comparison(session: Session, max_layers=None,
                          workers=None) -> None:
    workloads = f"resnet50[:{max_layers}]" if max_layers else "resnet50"
    arches = ["NVDLA-like", "Eyeriss-like", "SIGMA-like (HWC_C32)", "FEATHER"]
    costs = {arch: session.run(SearchRequest(
        workloads=workloads, arch=arch, model="resnet50", max_mappings=60,
        workers=workers)).cost for arch in arches}
    feather = costs["FEATHER"]
    print(f"Whole-model comparison over {feather.search_stats.layers_total} "
          f"ResNet-50 layers (deduplicated by shape)")
    print(f"{'arch':22s} {'cycles':>14s} {'norm lat':>9s} {'pJ/MAC':>8s} "
          f"{'norm energy':>12s} {'avg util':>9s} {'stall %':>8s}")
    for name, cost in costs.items():
        print(f"{name:22s} {cost.total_cycles:14.0f} "
              f"{cost.total_cycles / feather.total_cycles:9.2f} "
              f"{cost.energy_per_mac_pj:8.2f} "
              f"{cost.energy_per_mac_pj / feather.energy_per_mac_pj:12.2f} "
              f"{cost.avg_utilization:9.2f} {cost.stall_fraction * 100:8.1f}")
    print(f"\nLayouts FEATHER switches between: {feather.layouts_used()}")
    print(f"Engine: {feather.search_stats}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--full", action="store_true",
                        help="run the whole 53-layer model (slower)")
    parser.add_argument("--workers", type=int, default=None,
                        help="worker processes for the co-search fan-out "
                             "(default: REPRO_SEARCH_WORKERS or serial)")
    args = parser.parse_args()

    with Session(name="resnet50-cosearch") as session:
        per_layer_demo(session)
        full_model_comparison(session,
                              max_layers=None if args.full else 16,
                              workers=args.workers)


if __name__ == "__main__":
    main()
