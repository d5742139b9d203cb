"""Per-layer tracing for the traced benchmark run.

The tracer wraps the public functions of each layer from outside the
program: :meth:`Tracer.install` swaps each target for a timing wrapper and
:meth:`Tracer.uninstall` puts every original back.  Nothing in ``src/`` is
edited, and untraced runs never import this module's wrappers.

Each span records busy time (``time.perf_counter_ns``) and a call count.
Work done in a forked child (the benchmark's cold cell runs) is recorded on
the child's copy of the tracer and merged back with :meth:`Tracer.snapshot`
and :meth:`Tracer.merge`.
Only the outermost call of a span per thread is timed, so recursion and
wrappers that call each other are not counted twice.  Generators are timed
across their yields: the time spent inside the generator, not the time its
consumer holds it.
"""

from __future__ import annotations

import functools
import statistics
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple


def _p50(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


#: The tracer whose wrappers are installed, if any.
_INSTALLED: Optional["Tracer"] = None


def installed() -> Optional["Tracer"]:
    """The installed tracer, or None in an untraced run."""
    return _INSTALLED


class Tracer:
    """Span and counter recorder; one per traced run."""

    def __init__(self) -> None:
        self._patches: List[Tuple[object, str, object, bool]] = []
        self.reset()

    def reset(self) -> None:
        """Forget everything recorded (a forked child starts empty)."""
        self._lock = threading.Lock()
        self._local = threading.local()
        self._per_thread: List[Dict[str, List[int]]] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self.samples: Dict[str, List[float]] = defaultdict(list)
        self.session_ms_by_tag: Dict[str, float] = {}
        """``Session.submit`` latency per client ``X-Bench-Tag``."""

    def snapshot(self) -> Dict[str, Dict]:
        """Everything recorded, as JSON-able data for :meth:`merge`."""
        with self._lock:
            tables = list(self._per_thread)
        spans: Dict[str, List[int]] = defaultdict(lambda: [0, 0, 0])
        for table in tables:
            for span, (_, busy, calls, raised) in table.items():
                total = spans[span]
                total[0] += busy
                total[1] += calls
                total[2] += raised
        with self._lock:
            return {"spans": dict(spans), "counts": dict(self.counts),
                    "samples": {k: list(v) for k, v in self.samples.items()}}

    def merge(self, snapshot: Dict[str, Dict]) -> None:
        """Add another tracer's :meth:`snapshot` to this one."""
        table: Dict[str, List[int]] = defaultdict(lambda: [0, 0, 0, 0])
        for span, (busy, calls, raised) in snapshot["spans"].items():
            table[span] = [0, busy, calls, raised]
        with self._lock:
            self._per_thread.append(table)
            for name, value in snapshot["counts"].items():
                self.counts[name] += value
            for name, values in snapshot["samples"].items():
                self.samples[name].extend(values)

    # ------------------------------------------------------------- recording
    def _spans(self) -> Dict[str, List[int]]:
        """This thread's ``span -> [depth, busy_ns, calls, raised]`` table
        (per thread, so recording a call takes no lock)."""
        try:
            return self._local.spans
        except AttributeError:
            spans = self._local.spans = defaultdict(lambda: [0, 0, 0, 0])
            with self._lock:
                self._per_thread.append(spans)
            return spans

    def _total(self, span: str, field: int) -> int:
        with self._lock:
            tables = list(self._per_thread)
        return sum(table[span][field] for table in tables if span in table)

    def ms(self, span: str) -> float:
        return self._total(span, 1) / 1e6

    def calls(self, span: str) -> int:
        return self._total(span, 2)

    def raised(self, span: str) -> int:
        return self._total(span, 3)

    def count(self, name: str, value: float = 1.0) -> None:
        with self._lock:
            self.counts[name] += value

    def sample(self, name: str, value: float) -> None:
        with self._lock:
            self.samples[name].append(value)

    def timed(self, span: str, fn: Callable,
              on_result: Optional[Callable] = None) -> Callable:
        """``fn`` wrapped in a span; ``on_result(tracer, result)`` sees each
        outermost call's return value."""
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            entry = self._spans()[span]
            if entry[0]:
                return fn(*args, **kwargs)
            entry[0] = 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                entry[3] += 1
                raise
            finally:
                entry[0] = 0
                entry[1] += clock() - start
                entry[2] += 1
            if on_result is not None:
                on_result(self, result)
            return result

        return wrapper

    def timed_generator(self, span: str, fn: Callable) -> Callable:
        """A generator function wrapped so its own run time is the span."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            generator = fn(*args, **kwargs)
            busy = 0
            try:
                while True:
                    start = time.perf_counter_ns()
                    try:
                        item = next(generator)
                    finally:
                        busy += time.perf_counter_ns() - start
                    yield item
            except StopIteration:
                return
            finally:
                generator.close()
                entry = self._spans()[span]
                entry[1] += busy
                entry[2] += 1

        return wrapper

    # -------------------------------------------------------------- patching
    def _patch(self, owner, attr: str, replacement) -> None:
        had_own = attr in vars(owner)
        original = vars(owner)[attr] if had_own else getattr(owner, attr)
        self._patches.append((owner, attr, original, had_own))
        setattr(owner, attr, replacement)

    def patch_method(self, cls, attr: str, span: str,
                     on_result: Optional[Callable] = None,
                     generator: bool = False) -> None:
        original = getattr(cls, attr)
        wrapped = (self.timed_generator(span, original) if generator
                   else self.timed(span, original, on_result))
        self._patch(cls, attr, wrapped)

    def patch_function(self, module, attr: str, span: str) -> None:
        """Wrap a module-level function, and every ``from module import
        name`` binding of it in the loaded ``repro`` modules."""
        original = getattr(module, attr)
        wrapped = self.timed(span, original)
        for name, loaded in sorted(sys.modules.items()):
            if (name == "repro" or name.startswith("repro.")) and \
                    vars(loaded).get(attr) is original:
                self._patch(loaded, attr, wrapped)

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        global _INSTALLED
        _INSTALLED = None
        while self._patches:
            owner, attr, original, had_own = self._patches.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # ------------------------------------------------------------ the layers
    def install(self) -> None:
        """Wrap the public calls of every layer the workloads reach."""
        global _INSTALLED
        import repro.api.requests as requests
        import repro.kernel.concordance as kernel_concordance
        import repro.kernel.footprint as kernel_footprint
        import repro.layout.concordance as layout_concordance
        from repro.api.session import Session
        from repro.backends.analytical import AnalyticalBackend
        from repro.backends.noc import NocBackend
        from repro.backends.simulator import SimulatorBackend
        from repro.backends.systolic import SystolicBackend
        from repro.constraints.rules import ConstraintSet
        from repro.feather.accelerator import FeatherAccelerator
        from repro.feather.rir import RirPlanner
        from repro.layoutloop.cost_model import CostModel
        from repro.layoutloop.mapper import Mapper
        from repro.nest.array import NestArray
        from repro.noc.routing import BirrdRouter
        from repro.search.bulk import BulkUniverse
        from repro.search.cache import EvaluationCache
        from repro.serve import ReproRequestHandler
        from repro.store import ResultStore

        self.patch_method(Mapper, "search", "layoutloop.mapper.search")
        self.patch_method(BulkUniverse, "bounds", "search.bulk.bounds")
        self.patch_method(CostModel, "evaluate_mapping_batch",
                          "layoutloop.cost_model.batch")
        self.patch_function(kernel_concordance, "analyze_concordance_batch",
                            "kernel.concordance")
        self.patch_function(kernel_footprint, "streaming_access_coords",
                            "kernel.footprint")
        self.patch_method(EvaluationCache, "evaluate", "search.cache.evaluate")
        self.patch_method(EvaluationCache, "evaluate_batch",
                          "search.cache.evaluate")
        self.patch_method(ConstraintSet, "repair_candidates",
                          "constraints.repair")
        for cls, name in ((AnalyticalBackend, "analytical"),
                          (SimulatorBackend, "simulator"),
                          (SystolicBackend, "systolic"), (NocBackend, "noc")):
            for attr in ("evaluate", "evaluate_mapping"):
                self.patch_method(cls, attr, f"backends.{name}.evaluate")
        self.patch_function(requests, "request_from_dict", "api.codec.parse")
        self._patch(Session, "submit", self._timed_submit(Session.submit))
        self.patch_method(ResultStore, "get", "store.get")
        self.patch_method(ResultStore, "put_many", "store.put_many")
        self.patch_method(FeatherAccelerator, "run_gemm",
                          "feather.accelerator.run_gemm")
        self.patch_method(NestArray, "run_gemm_tile", "nest.run_gemm_tile",
                          generator=True)
        self.patch_function(layout_concordance, "analyze_concordance",
                            "layout.concordance")
        self.patch_method(RirPlanner, "plan_cycle", "feather.rir.plan_cycle")
        self.patch_method(BirrdRouter, "route", "noc.routing.route",
                          on_result=self._routing_result())
        self._patch(ReproRequestHandler, "do_POST",
                    self._tagged_post(ReproRequestHandler.do_POST))
        _INSTALLED = self

    def _timed_submit(self, submit: Callable) -> Callable:
        """``Session.submit`` timed until its future resolves."""

        @functools.wraps(submit)
        def wrapper(session, request):
            start = time.perf_counter()
            tag = getattr(self._local, "request_tag", None)
            future = submit(session, request)

            def done(_future) -> None:
                elapsed_ms = (time.perf_counter() - start) * 1e3
                self.sample("api.session.request_ms", elapsed_ms)
                if tag is not None:
                    with self._lock:
                        self.session_ms_by_tag[tag] = elapsed_ms

            future.add_done_callback(done)
            return future

        return wrapper

    def _tagged_post(self, do_post: Callable) -> Callable:
        """``do_POST`` that labels its thread's ``Session.submit`` call with
        the client's ``X-Bench-Tag`` header, pairing client and session
        latencies per request."""

        @functools.wraps(do_post)
        def wrapper(handler):
            self._local.request_tag = handler.headers.get("X-Bench-Tag")
            try:
                return do_post(handler)
            finally:
                self._local.request_tag = None

        return wrapper

    @staticmethod
    def _routing_result() -> Callable:
        # Results are kept alive so their ids cannot be reused.
        seen: Dict[int, object] = {}

        def on_result(tracer: "Tracer", result) -> None:
            # A memo hit hands back the very RoutingResult object an
            # earlier call produced.
            if id(result) in seen:
                tracer.count("noc.routing.memo_hits")
                return
            seen[id(result)] = result
            tracer.count("noc.routing.computed")
            tracer.count("noc.routing.routed", 1.0 if result.routed else 0.0)
            tracer.count("noc.routing.nodes", result.nodes_explored)

        return on_result


#: Spans reported as ``<span>_ms`` plus ``<span>_calls``.
SPANS = (
    "layoutloop.mapper.search", "search.bulk.bounds",
    "layoutloop.cost_model.batch", "kernel.concordance", "kernel.footprint",
    "search.cache.evaluate", "constraints.repair",
    "backends.analytical.evaluate", "backends.simulator.evaluate",
    "backends.systolic.evaluate", "backends.noc.evaluate",
    "api.codec.parse", "store.get", "store.put_many",
    "feather.accelerator.run_gemm", "nest.run_gemm_tile",
    "layout.concordance", "feather.rir.plan_cycle", "noc.routing.route",
)

#: Every other per-layer metric and its unit.
DERIVED = (
    ("search.evaluated_ratio", "ratio"), ("search.cache.hit_ratio", "ratio"),
    ("search.cache.entries", "count"), ("constraints.repaired", "count"),
    ("api.codec.rejected", "count"), ("api.session.request_ms_p50", "ms"),
    ("api.session.executed_ratio", "ratio"),
    ("api.session.coalesced", "count"), ("api.session.store_hits", "count"),
    ("serve.overhead_ms_p50", "ms"), ("serve.known_defect_500", "count"),
    ("store.hit_ratio", "ratio"), ("noc.routing.memo_hit_ratio", "ratio"),
    ("noc.routing.routed_ratio", "ratio"), ("noc.routing.nodes", "count"),
    ("bench.error_rate", "ratio"), ("trace.overhead_pct", "%"),
)


def per_layer_units() -> Dict[str, str]:
    """Every per-layer metric name and its unit."""
    units: Dict[str, str] = {}
    for span in SPANS:
        units[f"{span}_ms"] = "ms"
        units[f"{span}_calls"] = "count"
    units.update(DERIVED)
    return units


def per_layer_values(tracer: Tracer, counters: Dict[str, float],
                     serve_overheads_ms: List[float]) -> Dict[str, float]:
    """Per-layer values of one traced run (``trace.overhead_pct`` is added
    by the caller, which sees both runs).

    ``counters`` are the workload's response and ``Session.describe()``
    counters; ``serve_overheads_ms`` the per-request client latency minus
    the matching ``Session.submit`` time.
    """
    values: Dict[str, float] = {}
    for span in SPANS:
        values[f"{span}_ms"] = tracer.ms(span)
        values[f"{span}_calls"] = float(tracer.calls(span))
    c = defaultdict(float, counters)
    covered = c["evaluations"] + c["pruned"] + c["repaired"]
    routes = tracer.calls("noc.routing.route")
    computed = tracer.counts.get("noc.routing.computed", 0.0)
    values.update({
        "search.evaluated_ratio": _ratio(c["evaluations"], covered),
        "search.cache.hit_ratio": _ratio(
            c["cache_hits"], c["cache_hits"] + c["cache_misses"]),
        "search.cache.entries": c["cache_entries"],
        "constraints.repaired": c["repaired"],
        "api.codec.rejected": float(tracer.raised("api.codec.parse")),
        "api.session.request_ms_p50": _p50(
            tracer.samples.get("api.session.request_ms", [])),
        "api.session.executed_ratio": _ratio(c["session_executed"],
                                             c["session_requests"]),
        "api.session.coalesced": c["session_coalesced"],
        "api.session.store_hits": c["session_store_hits"],
        "serve.overhead_ms_p50": _p50(serve_overheads_ms),
        "serve.known_defect_500": c["known_defect_500"],
        "store.hit_ratio": _ratio(c["store_hits"],
                                  c["store_hits"] + c["store_misses"]),
        "noc.routing.memo_hit_ratio": _ratio(
            tracer.counts.get("noc.routing.memo_hits", 0.0), routes),
        "noc.routing.routed_ratio": _ratio(
            tracer.counts.get("noc.routing.routed", 0.0), computed),
        "noc.routing.nodes": tracer.counts.get("noc.routing.nodes", 0.0),
        "bench.error_rate": _ratio(c["failed"] + c["known_defect_500"],
                                   c["attempted"]),
    })
    return values
