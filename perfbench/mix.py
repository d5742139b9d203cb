"""Seeded inputs of the three benchmark workloads.

Everything here is pure data built from ``--seed``: the same seed gives the
same grid order, the same request stream and the same simulator tensors.
Nothing in this module imports ``repro``, so the program under test only
ever sees the generated inputs.
"""

from __future__ import annotations

import random
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

#: The paper's co-search grid: (cell name, arch, workload set, backend).
GRID_ARCHES = ("FEATHER", "NVDLA-like", "Eyeriss-like",
               "SIGMA-like (HWC_C32)", "SIGMA-like (off-chip reorder)")
GRID_MODELS = ("resnet50", "mobilenet_v3")


def grid_cells() -> List[Tuple[str, str, str, str]]:
    """Every cell of the grid, in canonical order."""
    cells = [(f"{arch}/{model}", arch, model, "analytical")
             for arch in GRID_ARCHES for model in GRID_MODELS]
    cells.append(("FEATHER/resnet50/systolic", "FEATHER", "resnet50",
                  "systolic"))
    return cells


def grid_order(seed: int) -> List[Tuple[str, str, str, str]]:
    """The grid in the seed's order (one pass of ``cosearch-grid``)."""
    cells = grid_cells()
    random.Random(seed).shuffle(cells)
    return cells


# ------------------------------------------------------------------ serve-mix
#: Search families: (workload set, model label).
_SEARCH_SETS = (
    ("resnet50[:2]", "resnet2"), ("resnet50[:4]", "resnet4"),
    ("resnet50[:8]", "resnet8"), ("fig10_gemms", "fig10"),
    ("mobilenet_v3_depthwise[:4]", "mobilenet-dw"), ("bert", "bert"),
)
_SEARCH_ARCHES = ("FEATHER", "FEATHER-4x4", "Eyeriss-like",
                  "SIGMA-like (HWC_C32)")
#: Search variants; plain exhaustive searches count twice.
_VARIANTS = ("exhaustive", "exhaustive", "halving", "evolutionary",
             "frontier", "systolic", "noc:tree")
#: Search seeds come from a small range, so keys repeat.
SEARCH_SEEDS = 4

#: Eval cells: (workload set, layer count, candidate layouts).
_EVAL_SETS = (
    ("resnet50[:8]", 8, ("HWC_C32", "HWC_C4W8", "CHW_W32")),
    ("mobilenet_v3_depthwise[:4]", 4, ("HWC_C32", "HWC_C4W8", "CHW_W32")),
    ("fig10_gemms", 4, ("MK_K32", "MK_M32")),
    ("bert", 6, ("MK_K32", "MK_M32")),
)

#: Malformed requests and the wire error code each must get.
MALFORMED = (
    ("unknown-field", "search",
     {"workloads": "resnet50[:2]", "arch": "FEATHER", "max_mappings": 12,
      "turbo": True}, "invalid_request"),
    ("unknown-workload-set", "search",
     {"workloads": "resnet51", "arch": "FEATHER", "max_mappings": 12},
     "invalid_request"),
    ("bad-schema-version", "eval",
     {"workload": "resnet50[:8]#0", "arch": "FEATHER", "layout": "HWC_C32",
      "schema_version": 99}, "invalid_request"),
    ("non-integer-budget", "search",
     {"workloads": "resnet50[:2]", "arch": "FEATHER", "max_mappings": 12,
      "policy": "halving", "budget": "x"}, "invalid_request"),
)
#: The malformed case the service answers with a 500 today (a bare
#: ValueError out of the request constructor).  It stays in the mix and
#: its 500s are counted and reported; a 4xx with the code above passes.
KNOWN_DEFECT = "non-integer-budget"

#: Kinds of one block of 20 requests: 60% searches, 35% evals and 5%
#: malformed, in a seeded order.
_BLOCK = ("search",) * 12 + ("eval",) * 7 + ("malformed",)

#: One item of the request stream: (kind, body, expected error code or None,
#: malformed-case name or None).
MixItem = Tuple[str, Dict, Optional[str], Optional[str]]


class _Deck:
    """Deals items in seeded order without replacement, reshuffling when
    empty, so every seed draws each item equally often."""

    def __init__(self, rng: random.Random, items: List):
        self.rng, self.items, self.hand = rng, list(items), []

    def deal(self):
        if not self.hand:
            self.hand = list(self.items)
            self.rng.shuffle(self.hand)
        return self.hand.pop()


def _search_body(rng: random.Random, workloads: str, model: str, arch: str,
                 variant: str) -> Dict:
    body: Dict = {"workloads": workloads, "model": model, "arch": arch,
                  "max_mappings": rng.choice((12, 24)),
                  "seed": rng.randrange(SEARCH_SEEDS)}
    if variant in ("halving", "evolutionary"):
        body["policy"] = variant
        body["budget"] = rng.choice((24, 48))
    elif variant == "frontier":
        body["frontier"] = True
    elif variant in ("systolic", "noc:tree"):
        body["backend"] = variant
    return body


def serve_stream(seed: int) -> Iterator[MixItem]:
    """The endless seeded request stream of ``serve-mix``.

    Searches cycle through every (workload set, arch, variant) and evals
    through every (layer, arch, layout) in a seeded order; search
    ``max_mappings`` and seeds are drawn at random from small ranges.
    """
    rng = random.Random(seed)
    searches = _Deck(rng, [(workloads, model, arch, variant)
                           for workloads, model in _SEARCH_SETS
                           for arch in _SEARCH_ARCHES
                           for variant in _VARIANTS])
    evals = _Deck(rng, [(f"{workloads}#{index}", arch, layout)
                        for workloads, count, layouts in _EVAL_SETS
                        for index in range(count)
                        for arch in _SEARCH_ARCHES for layout in layouts])
    malformed = _Deck(rng, MALFORMED)
    while True:
        block = list(_BLOCK)
        rng.shuffle(block)
        for kind in block:
            if kind == "search":
                yield kind, _search_body(rng, *searches.deal()), None, None
            elif kind == "eval":
                workload, arch, layout = evals.deal()
                yield kind, {"workload": workload, "arch": arch,
                             "layout": layout}, None, None
            else:
                name, kind, body, code = malformed.deal()
                yield kind, dict(body), code, name


def serve_prefix(seed: int, count: int) -> List[MixItem]:
    """The first ``count`` items of :func:`serve_stream`."""
    stream = serve_stream(seed)
    return [next(stream) for _ in range(count)]


# ------------------------------------------------------------------- simulate
#: Half (a): Session searches on the simulator backend.
SIM_SEARCH_CELLS = tuple(
    (f"search/{arch}/{workloads}", arch, workloads)
    for arch in ("FEATHER", "FEATHER-8x8")
    for workloads in ("micro_convs", "micro_gemms"))
#: Half (b): direct accelerator runs at these array widths.
SIM_WIDTHS = (4, 8)


#: Layers of the direct runs, by the name ``repro.workloads`` gives them
#: (the Fig. 9 walkthrough layer comes from ``repro.experiments.fig9``).
DIRECT_LAYERS = ("micro_conv3x3", "micro_pointwise", "micro_depthwise",
                 "micro_gemm_square", "micro_gemm_deep",
                 "bert_head_micro_s32", "fig9_walkthrough")


def sim_order(seed: int) -> List[str]:
    """Cell names of one ``simulate`` pass, in the seed's order."""
    names = [name for name, _, _ in SIM_SEARCH_CELLS]
    names += [f"direct/AW{aw}/{layer}" for aw in SIM_WIDTHS
              for layer in DIRECT_LAYERS]
    random.Random(seed).shuffle(names)
    return names


def sim_tensors(seed: int, cell: str, a_shape: Tuple[int, ...],
                b_shape: Tuple[int, ...]) -> Tuple[np.ndarray, np.ndarray]:
    """Seeded int8-range operands of one direct-run cell."""
    rng = np.random.default_rng([seed, *cell.encode("utf-8")])
    return (rng.integers(-4, 5, a_shape, dtype=np.int64),
            rng.integers(-3, 4, b_shape, dtype=np.int64))
