"""The three benchmark workloads, driven only through public entry points.

* ``cosearch-grid`` — the paper's co-search grid, one uncapped exhaustive
  search per cell on a fresh :class:`repro.api.Session`;
* ``serve-mix`` — two closed-loop HTTP clients against
  :func:`repro.serve.create_server` on a store-backed session;
* ``simulate`` — simulator-backend searches plus direct
  :class:`repro.feather.FeatherAccelerator` runs.

Each runner measures for about ``seconds`` seconds of whole passes, checks
every output, and returns an :class:`Outcome`.  Every run of a batch cell
is cold: it runs in a forked child of a process that has imported the whole
program (:func:`preload`) but run none of it, so no process-wide memo of an
earlier cell or repeat serves it.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import os
import pkgutil
import statistics
import tempfile
import threading
import time
import traceback
import urllib.error
import urllib.request
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

import mix
import tracing

ROOT = Path(__file__).resolve().parent.parent
#: Scratch space inside the checkout (git-ignored); the serve store and
#: nothing else lives here, in a temporary directory per run.
SCRATCH = ROOT / ".perfbench-tmp"
REFERENCE = Path(__file__).resolve().parent / "reference.json"

#: ``max_mappings`` of an uncapped search.
UNCAPPED = 10 ** 9
#: Serve-mix drains a fixed prefix of its stream: this many requests per
#: second of ``--seconds`` (about ``--seconds`` of work on a 2-core host),
#: and at least :data:`MIN_REQUESTS`, so p99 has ten samples beyond it.
#: A fixed count, not a fixed time: the share of requests served from the
#: store grows along the stream, so a time-boxed run would do easier work
#: the faster the host happens to run.
SERVE_RATE = 100
MIN_REQUESTS = 1100
#: Fewest passes a batch workload runs, so every cell's median has samples
#: from passes seconds apart.
MIN_PASSES = 2
#: Within a pass, a batch cell is repeated until its runs cover this many
#: seconds (at most :data:`MAX_REPEATS` runs), so a short cell's median is
#: not one sample taken in one slow spell of the host.
CELL_MIN_S = 0.8
MAX_REPEATS = 6
#: Serve-mix runs in segments of this many requests, the host speed probed
#: between them.
SEGMENT = 200
#: The host-speed probe's loop time (ms) that timings are scaled to.  A
#: shared virtual host's speed can drift by 20-50% over seconds to minutes,
#: for the probe and the program alike (CPU time tracks wall time, so it is
#: not steal); each batch cell and serve-mix segment is reported at this
#: reference speed.
PROBE_REF_MS = 1.3
#: How long one probe runs (s).
PROBE_S = 0.03


def _loop_ms() -> float:
    """Median time (ms) of a fixed pure-Python loop, over :data:`PROBE_S`."""
    samples = []
    end = time.perf_counter() + PROBE_S
    while True:
        start = time.perf_counter_ns()
        total = 0
        for i in range(20000):
            total += i * i
        samples.append((time.perf_counter_ns() - start) / 1e6)
        if time.perf_counter() >= end:
            return statistics.median(samples)


def probe_ms() -> float:
    """The host's speed now: the loop time, averaged over every CPU this
    process may run on (their speeds differ by up to half at times)."""
    cpus = os.sched_getaffinity(0)
    times = []
    try:
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            times.append(_loop_ms())
    finally:
        os.sched_setaffinity(0, cpus)
    return statistics.mean(times)


class HostSpeed:
    """Scales timings to the reference host speed, from probes taken
    between the timed spans."""

    def __init__(self) -> None:
        self.last_ms = probe_ms()

    def factor(self) -> float:
        """Probe now; the factor that takes a time measured since the
        previous probe to the reference speed."""
        after = probe_ms()
        factor = 2 * PROBE_REF_MS / (self.last_ms + after)
        self.last_ms = after
        return factor


def percentile(values: List[float], share: float) -> float:
    """The sample at ``share`` of the sorted values (nearest rank)."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(share * len(ordered)))]


@dataclass
class Outcome:
    """What one workload run did, measured and checked."""

    attempted: int = 0
    failed: int = 0
    wall_s: float = 0.0
    cell_ms: Dict[str, List[float]] = field(
        default_factory=lambda: defaultdict(list))
    """Batch workloads: the latency of every run of each cell."""
    cell_ref_ms: Dict[str, List[float]] = field(
        default_factory=lambda: defaultdict(list))
    """The same latencies at the reference host speed."""
    speed: Optional[HostSpeed] = None
    """Set when the measured phase starts."""
    latencies_ms: List[float] = field(default_factory=list)
    """Serve-mix: every request's latency."""
    latencies_ref_ms: List[float] = field(default_factory=list)
    """The same latencies at the reference host speed."""
    segments: List[Tuple[int, float, float]] = field(default_factory=list)
    """Serve-mix: (requests, seconds, seconds at the reference speed) of
    every segment."""
    outputs: Dict[str, object] = field(default_factory=dict)
    """Checked output of every operation key (traced/untraced identity)."""
    counters: Dict[str, float] = field(
        default_factory=lambda: defaultdict(float))
    """Response and ``Session.describe()`` counters (per-layer metrics)."""
    failures: List[str] = field(default_factory=list)
    latency_ms_by_tag: Dict[str, float] = field(default_factory=dict)
    """Serve-mix: the client latency of every 200 response, by the
    ``X-Bench-Tag`` it was sent with."""
    deferred_check: Optional[Callable[[], None]] = None
    """Checks too costly for the measured phase (serve-mix re-runs)."""

    def finish(self) -> "Outcome":
        """Run the deferred checks, after measurement ended."""
        if self.deferred_check is not None:
            self.deferred_check()
            self.deferred_check = None
        return self

    def record_cell(self, name: str, seconds: float) -> None:
        """Record one batch cell's latency, and scaled to the reference
        host speed."""
        raw = seconds * 1e3
        self.cell_ms[name].append(raw)
        self.cell_ref_ms[name].append(raw * self.speed.factor())

    def record_segment(self, latencies_ms: List[float],
                       seconds: float) -> None:
        """Record one serve-mix segment, scaled like a batch cell."""
        factor = self.speed.factor()
        self.latencies_ms += latencies_ms
        self.latencies_ref_ms += [ms * factor for ms in latencies_ms]
        self.segments.append((len(latencies_ms), seconds, seconds * factor))

    def timing(self, raw: bool = False) -> Dict[str, float]:
        """Throughput and latency, at the reference host speed unless
        ``raw``.

        Batch workloads take each cell's median over the passes, so a slow
        spell of the shared host cannot skew it much; the throughput is
        cells per second of those medians.  Serve-mix takes requests per
        second over all segments and the percentiles of every request's
        latency.
        """
        if self.cell_ms:
            cells = [statistics.median(v) for v in
                     (self.cell_ms if raw else self.cell_ref_ms).values()]
            return {"ops_per_s": len(cells) / (sum(cells) / 1e3),
                    "latency_p50_ms": statistics.median(cells),
                    "latency_p99_ms": percentile(cells, 0.99)}
        latencies = self.latencies_ms if raw else self.latencies_ref_ms
        seconds = sum(segment[1 if raw else 2] for segment in self.segments)
        return {"ops_per_s": len(latencies) / seconds,
                "latency_p50_ms": statistics.median(latencies),
                "latency_p99_ms": percentile(latencies, 0.99)}

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 10:
            self.failures.append(message)

    def check(self, name: str, observed: Dict, expected: Optional[Dict]
              ) -> None:
        """Count one operation; a mismatch with its reference fails it."""
        self.attempted += 1
        if expected is None:
            self.fail(f"{name}: no reference value")
        elif {k: observed.get(k) for k in expected} != expected:
            self.fail(f"{name}: {observed} != reference {expected}")


def load_reference() -> Dict[str, Dict]:
    if not REFERENCE.exists():
        return {}
    return json.loads(REFERENCE.read_text())


def _search_summary(payload: Dict) -> Dict[str, float]:
    """Winner totals and coverage counters of a search response payload."""
    totals, search = payload["totals"], payload["search"]
    return {"total_cycles": totals["total_cycles"],
            "total_energy_pj": totals["total_energy_pj"],
            "edp": totals["edp"],
            "evaluations": search["evaluations"],
            "pruned": search["pruned"], "repaired": search["repaired"]}


def _count_search(counters: Dict[str, float], payload: Dict) -> None:
    search = payload["search"]
    for name in ("evaluations", "pruned", "repaired", "cache_hits",
                 "cache_misses"):
        counters[name] += search[name] or 0


def _count_session(counters: Dict[str, float], before: Dict,
                   after: Dict) -> None:
    for name in ("requests", "executed", "coalesced", "store_hits"):
        counters[f"session_{name}"] += after[name] - before[name]
    counters["cache_entries"] = max(counters["cache_entries"],
                                    after["evaluation_cache_entries"])


def _add_counters(into: Dict[str, float], counters: Dict[str, float]) -> None:
    for name, value in counters.items():
        into[name] = (max(into[name], value) if name == "cache_entries"
                      else into[name] + value)


def preload() -> None:
    """Import every module of the program, so a forked cold run imports
    nothing inside its timed span (``__main__`` modules are CLIs, not
    imported)."""
    import repro

    for module in pkgutil.walk_packages(repro.__path__, "repro."):
        if not module.name.endswith(".__main__"):
            importlib.import_module(module.name)


def _cold(run: Callable[[], Dict]) -> Dict:
    """``run()`` in a forked child, and its JSON result.

    The child starts from this process, which has imported the program but
    run none of it, so every process-wide memo starts empty.  An exception
    in ``run`` comes back as ``{"error": ...}``.  What the child records on
    an installed tracer is merged into the parent's tracer.
    """
    tracer = tracing.installed()
    reader, writer = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(reader)
            if tracer is not None:
                tracer.reset()
            try:
                result = run()
            except Exception as exc:  # a failed operation; see _record
                result = {"error": f"{type(exc).__name__}: {exc}"}
            if tracer is not None:
                result["trace"] = tracer.snapshot()
            with os.fdopen(writer, "w") as pipe:
                json.dump(result, pipe)
            code = 0
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(code)
    os.close(writer)
    with os.fdopen(reader) as pipe:
        text = pipe.read()
    _, status = os.waitpid(pid, 0)
    if status != 0 or not text:
        raise RuntimeError(f"cold run failed (wait status {status})")
    result = json.loads(text)
    if tracer is not None:
        tracer.merge(result.pop("trace"))
    return result


def _search_child(request) -> Dict:
    """One search on a fresh session: its latency, outputs and counters."""
    from repro.api import Session

    counters: Dict[str, float] = defaultdict(float)
    with Session(workers=1, threads=2, name="perfbench") as session:
        before = session.describe()
        start = time.perf_counter()
        response = session.run(request)
        elapsed = time.perf_counter() - start
        payload = response.to_dict()
        _count_search(counters, payload)
        _count_session(counters, before, session.describe())
    return {"elapsed": elapsed, "observed": _search_summary(payload),
            "counters": counters}


def _record(outcome: Outcome, name: str, result: Dict,
            expected: Optional[Dict]) -> Optional[float]:
    """Record, count and check one cold cell run; returns its latency (s),
    or None when it failed."""
    if "error" in result:
        outcome.attempted += 1
        outcome.fail(f"{name}: {result['error']}")
        return None
    _add_counters(outcome.counters, result.get("counters", {}))
    outcome.record_cell(name, result["elapsed"])
    outcome.outputs[name] = dict(result["observed"],
                                 **result.get("digest", {}))
    outcome.check(name, result["observed"], expected)
    return result["elapsed"]


def _session_search(outcome: Outcome, name: str, request,
                    expected: Optional[Dict]) -> Optional[float]:
    """One cold search on a fresh session: timed, counted and checked."""
    return _record(outcome, name, _cold(lambda: _search_child(request)),
                   expected)


def _repeat(run_once: Callable[[], Optional[float]]) -> None:
    """Run a cell until its runs cover :data:`CELL_MIN_S` (see there)."""
    covered = 0.0
    for _ in range(MAX_REPEATS):
        elapsed = run_once()
        if elapsed is None:
            return
        covered += elapsed
        if covered >= CELL_MIN_S:
            return


def _passes(outcome: Outcome, seconds: float,
            one_pass: Callable[[], None]) -> float:
    """Run whole passes until ``seconds`` have gone, and at least
    :data:`MIN_PASSES`; returns the wall time."""
    outcome.speed = HostSpeed()
    start = time.perf_counter()
    passes = 0
    while True:
        one_pass()
        passes += 1
        wall = time.perf_counter() - start
        if wall >= seconds and passes >= MIN_PASSES:
            return wall


# -------------------------------------------------------------- cosearch-grid
def cosearch_grid(seed: int, seconds: float) -> Outcome:
    """Uncapped exhaustive co-search of every grid cell, in seed order."""
    from repro.api import SearchRequest

    reference = load_reference().get("cosearch-grid", {})
    outcome = Outcome()

    def one_pass() -> None:
        for name, arch, model, backend in mix.grid_order(seed):
            request = SearchRequest(workloads=model, arch=arch, model=model,
                                    max_mappings=UNCAPPED, backend=backend)
            _repeat(lambda: _session_search(outcome, name, request,
                                            reference.get(name)))

    outcome.wall_s = _passes(outcome, seconds, one_pass)
    return outcome


# ------------------------------------------------------------------ simulate
def _direct_layers() -> Dict[str, object]:
    from repro.experiments.fig9 import walkthrough_layer
    from repro.workloads import micro_conv_layers, micro_gemm_layers

    layers = {layer.name: layer
              for layer in micro_conv_layers() + micro_gemm_layers()}
    layers["fig9_walkthrough"] = walkthrough_layer()
    return {name: layers[name] for name in mix.DIRECT_LAYERS}


def _numpy_conv(iacts: np.ndarray, weights: np.ndarray, layer) -> np.ndarray:
    """Direct convolution in numpy: the functional reference."""
    pad = layer.padding
    padded = np.pad(iacts, ((0, 0), (pad, pad), (pad, pad)))
    out = np.zeros((layer.m, layer.p, layer.q), dtype=np.int64)
    st = layer.stride
    for r in range(layer.r):
        for s in range(layer.s):
            window = padded[:, r:r + st * layer.p:st, s:s + st * layer.q:st]
            out += np.einsum("mc,cpq->mpq", weights[:, :, r, s], window)
    return out


def _direct_child(seed: int, cell: str, aw: int, layer) -> Dict:
    """One layer on a fresh routed accelerator: its latency (building and
    running the accelerator, not making the operands or the numpy
    reference), cycles and routed fraction; an error when the outputs
    differ from numpy."""
    from repro.feather import FeatherAccelerator
    from repro.feather.config import FeatherConfig
    from repro.workloads.conv import ConvLayerSpec

    conv = isinstance(layer, ConvLayerSpec)
    if conv:
        groups = layer.groups
        iacts, weights = mix.sim_tensors(
            seed, cell, (layer.c, layer.h, layer.w),
            (layer.m, layer.c // groups, layer.r, layer.s))
        sub = ConvLayerSpec(layer.name, m=layer.m // groups,
                            c=layer.c // groups, h=layer.h, w=layer.w,
                            r=layer.r, s=layer.s, stride=layer.stride,
                            padding=layer.padding)
        parts = [(iacts[g * sub.c:(g + 1) * sub.c],
                  weights[g * sub.m:(g + 1) * sub.m]) for g in range(groups)]
    else:
        weights, iacts = mix.sim_tensors(seed, cell, (layer.m, layer.k),
                                         (layer.k, layer.n))
    start = time.perf_counter()
    accelerator = FeatherAccelerator(
        FeatherConfig(array_rows=aw, array_cols=aw), route_birrd="auto")
    if conv:
        pieces, stats = [], None
        for g_iacts, g_weights in parts:
            out, g_stats = accelerator.run_conv(sub, g_iacts, g_weights)
            pieces.append(out)
            stats = g_stats if stats is None else stats.merge(g_stats)
        outputs = np.concatenate(pieces)
    else:
        outputs, stats = accelerator.run_gemm(weights, iacts)
    elapsed = time.perf_counter() - start
    expected = (np.concatenate([_numpy_conv(a, w, sub) for a, w in parts])
                if conv else weights @ iacts)
    if not np.array_equal(outputs, expected):
        return {"error": "outputs differ from numpy"}
    return {"elapsed": elapsed,
            "observed": {"cycles": int(stats.cycles),
                         "birrd_routed_fraction": float(
                             stats.routed_fraction)},
            "digest": {"outputs": hashlib.sha256(
                outputs.tobytes()).hexdigest()}}


def simulate(seed: int, seconds: float) -> Outcome:
    """Simulator-backend searches and direct routed accelerator runs."""
    from repro.api import SearchRequest

    reference = load_reference().get("simulate", {})
    searches = {name: (arch, workloads)
                for name, arch, workloads in mix.SIM_SEARCH_CELLS}
    layers = _direct_layers()
    outcome = Outcome()

    def direct(name: str) -> Optional[float]:
        _, width, layer_name = name.split("/")
        result = _cold(lambda: _direct_child(seed, name, int(width[2:]),
                                             layers[layer_name]))
        return _record(outcome, name, result, reference.get(name))

    def one_pass() -> None:
        for name in mix.sim_order(seed):
            if name in searches:
                arch, workloads = searches[name]
                request = SearchRequest(
                    workloads=workloads, arch=arch, model=workloads,
                    backend="simulator", max_mappings=UNCAPPED, seed=seed)
                _repeat(lambda: _session_search(outcome, name, request,
                                                reference.get(name)))
            else:
                _repeat(lambda: direct(name))

    outcome.wall_s = _passes(outcome, seconds, one_pass)
    return outcome


# ----------------------------------------------------------------- serve-mix
def _eval_totals(payload: Dict) -> Dict[str, float]:
    report = payload["report"]
    return {k: report[k] for k in ("total_cycles", "total_energy_pj", "edp")}


def _totals(kind: str, payload: Dict) -> Dict[str, float]:
    return payload["totals"] if kind == "search" else _eval_totals(payload)


#: Untimed warm-up requests (the first search starts the offload pool),
#: with seeds the mix never draws, so they pre-compute none of its keys.
_WARMUP = (
    ("search", {"workloads": "resnet50[:2]", "arch": "FEATHER",
                "max_mappings": 12, "seed": 1000}),
    ("eval", {"workload": "fig10_gemms#0", "arch": "FEATHER",
              "layout": "MK_K32", "seed": 1000}),
)


def _post(port: int, kind: str, body: Dict, tag: str):
    """One request on its own connection, as the repository's HTTP callers
    (``tools/loadtest.py``, ``tools/service_smoke.py``) send it; returns
    the status and the decoded reply."""
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}/v1/{kind}",
        data=json.dumps(body).encode("utf-8"), method="POST",
        headers={"Content-Type": "application/json", "X-Bench-Tag": tag})
    try:
        with urllib.request.urlopen(request, timeout=120) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        with error:
            return error.code, json.loads(error.read())


def _serve_segment(outcome: Outcome, port: int, items: List[tuple],
                   first: int, records: List[tuple]) -> None:
    """Two closed-loop clients drain ``items`` (stream indices from
    ``first``); then, with both idle, the host speed is probed to scale the
    segment."""
    lock = threading.Lock()
    pending = iter(enumerate(items, first))
    latencies: List[float] = []
    start = time.perf_counter()

    def client() -> None:
        while True:
            with lock:
                index, item = next(pending, (None, None))
            if item is None:
                return
            begin = time.perf_counter()
            status, payload = _post(port, item[0], item[1], str(index))
            latency = (time.perf_counter() - begin) * 1e3
            with lock:
                latencies.append(latency)
                records.append((index, item, status, payload, latency))

    clients = [threading.Thread(target=client) for _ in range(2)]
    for thread in clients:
        thread.start()
    for thread in clients:
        thread.join()
    outcome.record_segment(latencies, time.perf_counter() - start)


def serve_mix(seed: int, seconds: float) -> Outcome:
    """Two closed-loop clients drain a prefix of the seeded request stream
    over HTTP."""
    from repro.api import Session
    from repro.serve import create_server

    SCRATCH.mkdir(exist_ok=True)
    outcome = Outcome()
    records: List[tuple] = []
    count = max(MIN_REQUESTS, int(SERVE_RATE * seconds))
    items = mix.serve_prefix(seed, -(-count // SEGMENT) * SEGMENT)
    with tempfile.TemporaryDirectory(dir=SCRATCH) as tmp:
        # What `python -m repro.serve --threads 2 --store PATH` configures.
        offload = (os.cpu_count() or 1) > 1
        session = Session(name="serve", threads=2,
                          store_path=Path(tmp) / "store.sqlite",
                          offload=offload)
        server = create_server("127.0.0.1", 0, session)
        port = server.server_address[1]
        serving = threading.Thread(target=server.serve_forever,
                                   kwargs={"poll_interval": 0.05})
        serving.start()
        try:
            for kind, body in _WARMUP:
                _post(port, kind, body, "warmup")
            before = session.describe()
            outcome.speed = HostSpeed()
            start = time.perf_counter()
            for first in range(0, len(items), SEGMENT):
                _serve_segment(outcome, port, items[first:first + SEGMENT],
                               first, records)
            outcome.wall_s = time.perf_counter() - start
            after = session.describe()
        finally:
            server.shutdown()
            server.server_close()
            serving.join()
            session.close()

    _count_session(outcome.counters, before, after)
    for name in ("hits", "misses"):
        outcome.counters[f"store_{name}"] += (after["store"][name]
                                              - before["store"][name])
    records.sort(key=lambda record: record[0])
    outcome.latency_ms_by_tag = {
        str(index): latency
        for index, _, status, _, latency in records if status == 200}
    outcome.deferred_check = lambda: _check_serve(outcome, records)
    return outcome


def _check_serve(outcome: Outcome, records: List[tuple]) -> None:
    """Check every response; each 200 against the same request re-run on a
    private session (untimed)."""
    from repro.api import Session, request_from_dict

    expected: Dict[str, Dict] = {}
    with Session(workers=1, threads=2, name="perfbench-check") as private:
        for index, item, status, payload, _ in records:
            kind, body, code, case = item
            outcome.attempted += 1
            if case is not None:
                error = payload.get("error", {})
                if 400 <= status < 500 and error.get("code") == code:
                    continue
                if case == mix.KNOWN_DEFECT and status == 500:
                    outcome.counters["known_defect_500"] += 1
                    continue
                outcome.fail(f"#{index} {case}: {status} {error}")
                continue
            if status != 200:
                outcome.fail(f"#{index} {kind} {body}: {status} {payload}")
                continue
            if kind == "search":
                _count_search(outcome.counters, payload)
            key = f"{kind} {json.dumps(body, sort_keys=True)}"
            if key not in expected:
                try:
                    rerun = private.run(request_from_dict(kind, dict(body)))
                except Exception as exc:  # reported as a failed operation
                    outcome.fail(f"#{index} {key}: re-run raised {exc!r}")
                    continue
                expected[key] = _totals(kind, rerun.to_dict())
            got = _totals(kind, payload)
            outcome.outputs[key] = got
            if got != expected[key]:
                outcome.fail(f"#{index} {key}: {got} != {expected[key]}")


WORKLOADS = {"cosearch-grid": cosearch_grid, "serve-mix": serve_mix,
             "simulate": simulate}
