"""End-to-end ``repro.serve``: real HTTP on an ephemeral port.

The server thread shares one :class:`~repro.api.Session` with the test,
so the core assertion is direct: ``POST /v1/search`` must return exactly
``session.run(SearchRequest(...)).to_dict()`` — the wire adds encoding,
never numbers.  Plus health, every error path with its stable code, eval
and sweep round trips.

The whole module runs twice: once over a single-threaded session
(``threads=1`` — requests serialize through one dispatch slot) and once
over the concurrent front (``threads=4``).  Every assertion must hold on
both, which is what pins "the threaded server changes scheduling, never
payloads".  Dedicated concurrency behavior (coalescing under parallel
load, the shared store) lives in ``test_serve_concurrent.py``.
"""

import http.client
import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.api import EvalRequest, SearchRequest, Session, SweepRequest
from repro.serve import create_server

SEARCH = {"workloads": "fig10_gemms", "arch": "FEATHER-4x4",
          "model": "e2e", "metric": "latency", "max_mappings": 6}


@pytest.fixture(scope="module", params=[1, 4],
                ids=["threads1", "threads4"])
def service(request):
    """A live server on an ephemeral port + the session behind it."""
    threads = request.param
    session = Session(name=f"test-serve-{threads}", threads=threads)
    server = create_server("127.0.0.1", 0, session)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    yield f"http://{host}:{port}", session
    server.shutdown()
    server.server_close()
    session.close()
    thread.join(timeout=10)


def _post(base: str, path: str, payload: dict):
    request = urllib.request.Request(
        base + path, data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"}, method="POST")
    try:
        with urllib.request.urlopen(request, timeout=120) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def test_healthz(service):
    base, session = service
    with urllib.request.urlopen(base + "/v1/healthz", timeout=30) as resp:
        payload = json.loads(resp.read())
    assert payload["status"] == "ok"
    assert payload["version"] == __import__("repro").__version__
    assert payload["name"] == session.name
    assert "analytical" in payload["backends"]


def _deterministic(payload: dict) -> dict:
    """Drop run metadata (wall clock, warm-vs-cold cache counters): the
    comparable part must be bit-identical between wire and direct runs."""
    data = {k: v for k, v in payload.items()
            if k not in ("elapsed_s", "workers")}
    data["search"] = {k: v for k, v in payload["search"].items()
                      if k not in ("cache_hits", "cache_misses")}
    return data


def test_search_over_http_equals_direct_session_run(service):
    base, session = service
    status, served = _post(base, "/v1/search", SEARCH)
    assert status == 200
    direct = session.run(SearchRequest(**SEARCH))
    assert _deterministic(served) == _deterministic(direct.to_dict())
    # Floats survive the wire exactly (shortest-round-trip repr).
    assert served["totals"]["total_cycles"] == direct.totals["total_cycles"]
    assert served["layers"] == direct.layers
    assert served["key"] == direct.key


def test_eval_over_http_equals_direct_session_run(service):
    base, session = service
    body = {"workload": "fig10_gemms#1", "arch": "FEATHER-4x4",
            "layout": "MK_M32"}
    status, served = _post(base, "/v1/eval", body)
    assert status == 200
    direct = session.run(EvalRequest(**body))
    assert served["report"] == direct.report
    assert served["backend"] == direct.backend
    assert served["key"] == direct.key


def test_sweep_over_http_equals_direct_session_run(service):
    base, session = service
    body = {"filter": "golden-fig10"}
    status, served = _post(base, "/v1/sweep", body)
    assert status == 200
    direct = session.run(SweepRequest(**body))

    def _records(payloads):
        # Wall clock is run metadata; everything else (totals, layers,
        # engine counters, keys) must be bit-identical.
        return [{k: v for k, v in record.items()
                 if k not in ("elapsed_s", "workers")}
                for record in payloads]

    assert _records(served["records"]) == _records(direct.records)
    assert [r["scenario"] for r in served["records"]] == ["golden-fig10-gemms"]


def test_error_codes_are_stable(service):
    base, _ = service
    cases = [
        ("/v1/search", {"workloads": "no-such-set", "arch": "FEATHER"},
         400, "invalid_request"),
        ("/v1/search", {"workloads": "micro_gemms", "arch": "FEATHER-4x4",
                        "backend": "bogus"}, 400, "unknown_backend"),
        ("/v1/search", {"workloads": "resnet50", "arch": "FEATHER",
                        "backend": "simulator"}, 422, "incompatible_cell"),
        ("/v1/search", {"workloads": "resnet50[:2]", "arch": "FEATHER",
                        "schema_version": 99}, 400, "invalid_request"),
        ("/v1/search", {"workloads": "resnet50[:2]", "arch": "FEATHER",
                        "policy": "halving", "budget": "x"},
         400, "invalid_request"),
        ("/v1/search", {"workloads": "resnet50[:2]", "arch": "FEATHER",
                        "max_mappings": True}, 400, "invalid_request"),
        ("/v1/search", {"workloads": "resnet50[:2]", "arch": "FEATHER",
                        "max_mappings": 2.7}, 400, "invalid_request"),
        ("/v1/search", {"workloads": "resnet50[:2]", "arch": "FEATHER",
                        "vectorize": False}, 400, "invalid_request"),
        ("/v1/search", {"workloads": "resnet50[:2]", "arch": "FEATHER",
                        "bulk": True}, 400, "invalid_request"),
        ("/v1/search", {"workloads": "resnet50[:2]", "arch": "FEATHER",
                        "compile": True}, 400, "invalid_request"),
        ("/v1/search", {"workloads": "resnet50[:2]", "arch": "FEATHER",
                        "schema_version": 4}, 400, "invalid_request"),
        ("/v1/eval", {"workload": "fig10_gemms#0", "arch": "FEATHER",
                      "layout": "garbage"}, 400, "invalid_request"),
        ("/v1/eval", {"workload": "fig10_gemms#0", "arch": "FEATHER",
                      "layout": "HWC_C32"}, 400, "invalid_request"),
        ("/v1/nope", {}, 404, "not_found"),
    ]
    for path, body, expected_status, expected_code in cases:
        status, payload = _post(base, path, body)
        assert status == expected_status, (path, body, payload)
        assert payload["error"]["code"] == expected_code
        assert payload["error"]["message"]


def test_keep_alive_requests_do_not_stall(service):
    """Ten requests on one keep-alive connection.  The server writes headers
    and body separately; with Nagle's algorithm on, each response's body
    waits for the client's delayed ACK (~40 ms a request)."""
    base, _ = service
    host, port = base[len("http://"):].split(":")
    body = json.dumps({"workload": "fig10_gemms#0", "arch": "FEATHER-4x4",
                       "layout": "MK_K32"}).encode("utf-8")
    connection = http.client.HTTPConnection(host, int(port), timeout=30)
    try:
        start = time.perf_counter()
        for _ in range(10):
            connection.request("POST", "/v1/eval", body=body, headers={
                "Content-Type": "application/json"})
            response = connection.getresponse()
            assert response.status == 200
            json.loads(response.read())
        elapsed = time.perf_counter() - start
    finally:
        connection.close()
    assert elapsed < 10 * 0.040 / 2, f"10 keep-alive requests took {elapsed}s"


def test_malformed_json_is_a_structured_400(service):
    base, _ = service
    request = urllib.request.Request(
        base + "/v1/search", data=b"{not json",
        headers={"Content-Type": "application/json"}, method="POST")
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        urllib.request.urlopen(request, timeout=30)
    assert excinfo.value.code == 400
    assert json.loads(excinfo.value.read())["error"]["code"] == \
        "invalid_request"


def test_repeat_traffic_is_served_warm(service):
    base, session = service
    before = session.describe()["evaluation_cache_entries"]
    _post(base, "/v1/search", SEARCH)  # may or may not be first overall
    status, warm = _post(base, "/v1/search", dict(SEARCH, model="warm"))
    assert status == 200
    assert warm["search"]["cache_misses"] == 0
    assert session.describe()["evaluation_cache_entries"] >= before
