#!/usr/bin/env python3
"""Layout/bank-conflict analysis for one layer (the Fig. 2 / Fig. 4 story).

Takes ResNet-50 layer 1, searches the best layout-blind dataflow, then shows
what that dataflow actually costs under each of the paper's seven candidate
layouts on an accelerator *without* reordering support, and finally what
FEATHER achieves by co-switching the layout.

Run with:  python examples/layout_conflict_analysis.py [layer_index]
"""

import sys

from repro.api import SearchRequest, Session
from repro.api.codec import workload_payload
from repro.baselines import sigma_like
from repro.layout import conv_layout_library
from repro.layoutloop import CostModel
from repro.workloads import resnet50_layer


def search(session: Session, layer, layouts=None):
    """FEATHER's latency-best (dataflow, layout) for one layer."""
    response = session.run(SearchRequest(
        workloads=(workload_payload(layer),), arch="FEATHER",
        metric="latency", max_mappings=120, layouts=layouts))
    return response.cost.layer_choices[0].result


def main() -> None:
    index = int(sys.argv[1]) if len(sys.argv) > 1 else 1
    layer = resnet50_layer(index)
    print(f"Layer: {layer}\n")

    # One session serves both searches: the layout-blind and the
    # co-switched run share memoized cost-model evaluations.  The
    # layout-blind search may pick only one layout, so bank conflicts
    # never vary (what a conventional mapper reports).
    with Session(name="layout-conflicts") as session:
        theory = search(session, layer,
                        layouts=[conv_layout_library()[0].name])
        feather = search(session, layer)

    # 1. Layout-blind best dataflow.
    mapping = theory.best_mapping
    print(f"Layout-blind best dataflow : {mapping.describe()}")
    print(f"Theoretical latency        : {theory.best_report.total_cycles:,.0f} cycles\n")

    # 2. That dataflow under each real layout, no reordering support.
    fixed_model = CostModel(sigma_like(layout="HWC_C32", reorder="none"))
    print(f"{'layout':14s} {'lines/conflict slowdown':>24s} {'latency (cycles)':>18s} "
          f"{'vs theory':>10s}")
    for layout in conv_layout_library():
        report = fixed_model.evaluate(layer, mapping, layout)
        print(f"{layout.name:14s} {report.slowdown:24.2f} "
              f"{report.total_cycles:18,.0f} "
              f"{report.total_cycles / theory.best_report.total_cycles:9.1f}x")

    # 3. FEATHER: co-switch (dataflow, layout), reordering rides the reduction.
    print(f"\nFEATHER co-switched choice : {feather.best_mapping.describe()}")
    print(f"  layout {feather.best_layout.name}, "
          f"latency {feather.best_report.total_cycles:,.0f} cycles, "
          f"slowdown {feather.best_report.slowdown:.2f}, "
          f"energy {feather.best_report.energy_per_mac_pj:.2f} pJ/MAC")


if __name__ == "__main__":
    main()
