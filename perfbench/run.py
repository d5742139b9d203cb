#!/usr/bin/env python3
"""The repository benchmark: three seeded workloads, end to end and traced.

Run from the repository root::

    python3 perfbench/run.py --workload cosearch-grid --seed 1 --seconds 20 --trace 0

``--workload`` is ``cosearch-grid``, ``serve-mix`` or ``simulate`` (see
``BENCHMARK.json`` for why each exists).  With ``--trace 0`` the workload
runs untraced in this process and the end-to-end metrics are printed:

* ``ops_per_s`` — grid cells (``cosearch-grid``) or simulator cells
  (``simulate``) per second, from each cell's median latency over at least
  two passes; HTTP requests per second on ``serve-mix``;
* ``latency_p50_ms`` / ``latency_p99_ms`` — over the cells' median
  latencies, or over every ``serve-mix`` request (a fixed prefix of the
  seeded stream, 100 per second of ``--seconds`` and at least 1100, so
  p99 has ten samples beyond it);
* ``peak_rss_mb`` — resident memory of this process and its children
  (proportional set size, so pages a forked child shares with this
  process count once), and never less than the largest single process's
  peak resident set;
* ``setup_s`` — median time from process start to ready (imports,
  ``Session``, server bind) over five fresh processes.

Every timing is scaled to a reference host speed, measured by a fixed
pure-Python loop timed right before and after each batch cell, serve-mix
segment or set-up probe: a shared virtual host can run 20-50% faster or
slower for seconds to minutes at a time, which otherwise swamps any change
in the program.  The unscaled figures are printed on the stamp line
(``raw``).

With ``--trace 1`` the workload runs twice more in fresh child processes,
once untraced and once with the per-layer wrappers of
``perfbench/tracing.py`` installed; the two runs' outputs must be
identical, and the per-layer metrics are printed (``trace.overhead_pct``
is the throughput the tracing cost).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
stamps the host and run.  ``--record-reference`` rewrites
``perfbench/reference.json``, the checked outputs of the current program.

Exit status: 0 when the run completed (``correct`` says whether every
output matched), 2 when the program under test cannot be found.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Set-up probes per run; ``setup_s`` is their median.
SETUP_PROBES = 5

END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "1/s",
                    "latency_p50_ms": "ms", "latency_p99_ms": "ms",
                    "peak_rss_mb": "MB"}


# ---------------------------------------------------------------- set-up
def setup_probe(workload: str) -> None:
    """Child side of ``setup_s``: import, build the session, bind, report."""
    from repro.api import Session

    if workload != "serve-mix":
        with Session(workers=1, threads=2, name="probe"):
            print("ready", flush=True)
        return
    import tempfile

    from repro.serve import create_server

    from workloads import SCRATCH

    SCRATCH.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=SCRATCH) as tmp:
        session = Session(name="probe", threads=2,
                          store_path=Path(tmp) / "store.sqlite",
                          offload=(os.cpu_count() or 1) > 1)
        server = create_server("127.0.0.1", 0, session)
        print("ready", flush=True)
        server.server_close()
        session.close()


def measure_setup(workload: str) -> Tuple[float, float]:
    """Median wall time from process start to ready over several probes, at
    the reference host speed (like every timing) and raw."""
    from workloads import HostSpeed

    speed = HostSpeed()
    times, scaled = [], []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        probe = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        line = probe.stdout.readline()
        times.append(time.perf_counter() - start)
        probe.stdout.read()
        if probe.wait(timeout=120) != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed: {line!r}")
        scaled.append(times[-1] * speed.factor())
    return statistics.median(scaled), statistics.median(times)


# ------------------------------------------------------------ peak memory
def _rss_kb(pid: int) -> int:
    """Proportional set size of ``pid`` (its resident set size where the
    kernel gives no ``smaps_rollup``)."""
    for path, key in ((f"/proc/{pid}/smaps_rollup", "Pss:"),
                      (f"/proc/{pid}/status", "VmRSS:")):
        try:
            with open(path) as status:
                for line in status:
                    if line.startswith(key):
                        return int(line.split()[1])
        except OSError:
            pass
    return 0


def _descendants(root: int) -> List[int]:
    parents: Dict[int, int] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as stat:
                fields = stat.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        parents[int(entry)] = int(fields[1])
    found, frontier = [], [root]
    while frontier:
        parent = frontier.pop()
        children = [pid for pid, ppid in parents.items() if ppid == parent]
        found += children
        frontier += children
    return found


class PeakRss:
    """Samples the resident memory of this process and its children."""

    def __init__(self, interval: float = 0.25):
        self.interval = interval
        self.peak_kb = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        pid = os.getpid()
        while not self._stop.is_set():
            total = _rss_kb(pid) + sum(_rss_kb(c) for c in _descendants(pid))
            self.peak_kb = max(self.peak_kb, total)
            self._stop.wait(self.interval)

    def __enter__(self) -> "PeakRss":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        # Children too short-lived to be sampled still count.
        self.peak_kb = max(
            self.peak_kb,
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)


# ------------------------------------------------------------------ stamps
def stamp(workload: str, seed: int) -> Dict[str, object]:
    """Host and run identity printed with every result."""
    import numpy

    import repro

    try:
        import numba  # noqa: F401
        numba_available = True
    except ImportError:
        numba_available = False
    return {"workload": workload, "seed": seed, "cpu_count": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "numba": numba_available, "repro": repro.__version__,
            "commit": _commit(), "source_sha256": _source_digest()}


def _source_digest() -> str:
    """sha256 over ``src/`` (names the program where git cannot)."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode("utf-8"))
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _commit() -> str:
    """The git commit of the checkout, or ``unknown`` outside a git tree."""
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _metrics(values: Dict[str, float], units: Dict[str, str]) -> Dict:
    return {name: {"value": values[name], "unit": unit}
            for name, unit in units.items()}


def _emit(info: Dict, correct: bool, attempted: int, failed: int,
          metrics: Dict) -> None:
    print(json.dumps(info, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


# --------------------------------------------------------------------- runs
def end_to_end(args) -> int:
    from workloads import WORKLOADS

    with PeakRss() as rss:
        outcome = WORKLOADS[args.workload](args.seed, args.seconds)
    outcome.finish()
    # Probed after the workload, so the probes' own memory and start-up
    # never overlap the measured run.
    setup_s, raw_setup_s = measure_setup(args.workload)
    values = dict(outcome.timing(), peak_rss_mb=rss.peak_kb / 1024,
                  setup_s=setup_s)
    info = dict(stamp(args.workload, args.seed), trace=0,
                samples=(len(outcome.latencies_ms)
                         or sum(map(len, outcome.cell_ms.values()))),
                wall_s=outcome.wall_s,
                raw=dict(outcome.timing(raw=True), setup_s=raw_setup_s),
                cell_ms={name: statistics.median(values) for name, values
                         in sorted(outcome.cell_ref_ms.items())},
                known_defect_500=outcome.counters["known_defect_500"],
                error_rate=(outcome.failed
                            + outcome.counters["known_defect_500"])
                / outcome.attempted,
                failures=outcome.failures)
    _emit(info, outcome.failed == 0, outcome.attempted, outcome.failed,
          _metrics(values, END_TO_END_UNITS))
    return 0


def phase(args) -> int:
    """Child of a traced run: one untraced or traced workload run, printed
    as JSON."""
    from tracing import Tracer, per_layer_values

    from workloads import WORKLOADS

    tracer = Tracer() if args.phase == "traced" else None
    if tracer is not None:
        tracer.install()
    try:
        outcome = WORKLOADS[args.workload](args.seed, args.seconds)
    finally:
        if tracer is not None:
            tracer.uninstall()
    outcome.finish()
    layers = None
    if tracer is not None:
        counters = dict(outcome.counters, attempted=outcome.attempted,
                        failed=outcome.failed)
        # Serve overhead: each 200's client latency minus its session time.
        session_ms = tracer.session_ms_by_tag
        overheads = [latency - session_ms[tag] for tag, latency
                     in outcome.latency_ms_by_tag.items() if tag in session_ms]
        layers = per_layer_values(tracer, counters, overheads)
    print(json.dumps({
        "ops_per_s": outcome.timing()["ops_per_s"],
        "attempted": outcome.attempted, "failed": outcome.failed,
        "failures": outcome.failures, "outputs": outcome.outputs,
        "layers": layers}, sort_keys=True))
    return 0


def traced(args) -> int:
    """Untraced then traced child runs; per-layer metrics and overhead."""
    from tracing import per_layer_units

    runs = {}
    for name in ("untraced", "traced"):
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--phase", name,
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=170)
        if done.returncode != 0:
            raise RuntimeError(f"{name} run exited {done.returncode}")
        runs[name] = json.loads(done.stdout.strip().splitlines()[-1])
    plain, wrapped = runs["untraced"], runs["traced"]
    shared = set(plain["outputs"]) & set(wrapped["outputs"])
    identical = bool(shared) and all(
        plain["outputs"][k] == wrapped["outputs"][k] for k in shared)
    values = dict(wrapped["layers"])
    values["trace.overhead_pct"] = (
        plain["ops_per_s"] / wrapped["ops_per_s"] - 1.0) * 100.0
    attempted = plain["attempted"] + wrapped["attempted"]
    failed = plain["failed"] + wrapped["failed"]
    info = dict(stamp(args.workload, args.seed), trace=1,
                outputs_compared=len(shared), outputs_identical=identical,
                failures=plain["failures"] + wrapped["failures"])
    _emit(info, identical and failed == 0, attempted, failed,
          _metrics(values, per_layer_units()))
    return 0


def record_reference(seconds: float) -> int:
    """Write the checked outputs of one seed-0 run of each batch workload
    as the reference."""
    from workloads import REFERENCE, cosearch_grid, simulate

    REFERENCE.write_text("{}")
    reference = {}
    for name, runner in (("cosearch-grid", cosearch_grid),
                         ("simulate", simulate)):
        outcome = runner(0, seconds).finish()
        reference[name] = {
            key: {k: v for k, v in value.items() if k != "outputs"}
            for key, value in sorted(outcome.outputs.items())}
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True)
                         + "\n")
    print(f"wrote {REFERENCE}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="cosearch-grid",
                        choices=("cosearch-grid", "serve-mix", "simulate"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--phase", choices=("untraced", "traced"),
                        help=argparse.SUPPRESS)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--record-reference", action="store_true",
                        help="rewrite perfbench/reference.json and exit")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure ({SRC / 'repro'} is "
              "missing); run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        setup_probe(args.workload)
        return 0
    if args.phase or args.record_reference or not args.trace:
        from workloads import preload

        # Before any tracer is installed, so it wraps every binding.
        preload()
    if args.record_reference:
        return record_reference(1.0)
    if args.phase:
        return phase(args)
    return traced(args) if args.trace else end_to_end(args)


if __name__ == "__main__":
    raise SystemExit(main())
