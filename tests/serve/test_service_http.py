"""The HTTP front end: endpoints, streaming, error mapping, shutdown."""

import json
import threading
import urllib.request

import pytest

from repro.errors import AdmissionError, ExecutionError
from repro.serve import (
    MiningService,
    QuerySpec,
    Scheduler,
    ServeClient,
    ServeConfig,
)


@pytest.fixture
def service(er_graph):
    scheduler = Scheduler(ServeConfig(slots=2), graphs={"G": er_graph})
    svc = MiningService(scheduler, port=0).start()
    try:
        yield svc
    finally:
        svc.close()


@pytest.fixture
def client(service):
    return ServeClient(service.url, timeout=60.0)


def test_health_and_stats(client):
    health = client.health()
    assert health["ok"] is True
    assert health["slots"] == 2
    stats = client.stats()
    assert stats["submitted"] == 0
    assert "idle_workers" in stats


def test_streamed_query_roundtrip(client):
    doc = client.run(QuerySpec(family="kcl", k=3, dataset="G",
                               tenant="acme"))
    assert doc["status"] == "completed"
    kinds = [record["type"] for record in doc["records"]]
    assert kinds[0] == "queued"
    assert kinds[1] == "started"
    assert kinds[-2] == "result"
    assert kinds[-1] == "billing"
    assert kinds.count("partial") == 3  # one per k-clique level
    assert doc["result"]["cliques"] == doc["records"][-2]["cliques"]
    billing = doc["records"][-1]
    assert billing["tenant"] == "acme" and billing["status"] == "completed"


def test_streamed_query_is_one_round_trip(client, monkeypatch):
    requests = []
    urlopen = urllib.request.urlopen

    def counting(request, *args, **kwargs):
        requests.append(getattr(request, "full_url", request))
        return urlopen(request, *args, **kwargs)

    monkeypatch.setattr(urllib.request, "urlopen", counting)
    doc = client.run(QuerySpec(family="kcl", k=3, dataset="G",
                               tenant="acme"))
    assert len(requests) == 1 and requests[0].endswith("/v1/query")
    # The stream's closing record is the status document itself: nothing
    # is lost against asking again, and it is not one of the records.
    assert doc == client.query(doc["query"])
    assert all(record["type"] != "status" for record in doc["records"])
    assert list(client.submit(QuerySpec(
        family="kcl", k=3, dataset="G")))[-1]["type"] == "status"


def test_nowait_submit_and_poll(client):
    ticket = client.submit_nowait(QuerySpec(family="motifs", num_edges=2,
                                            dataset="G", tenant="poll"))
    assert ticket["status"] in ("queued", "running", "completed")
    deadline = 60.0
    import time
    start = time.monotonic()
    while True:
        doc = client.query(ticket["query"])
        if doc["status"] in ("completed", "failed"):
            break
        assert time.monotonic() - start < deadline
        time.sleep(0.05)
    assert doc["status"] == "completed"
    assert doc["result"]["total_instances"] >= 0
    assert doc["billing"]["family"] == "motifs"


def test_tenants_endpoint(client, service):
    service.scheduler.queue.register_tenant("vip", max_inflight=4)
    tenants = client.tenants()
    assert tenants["vip"]["max_inflight"] == 4
    assert tenants["vip"]["inflight"] == 0


def test_error_mapping(client, service):
    # Malformed spec -> 400 surfaced as ExecutionError.
    with pytest.raises(ExecutionError, match="400"):
        client.run({"family": "pagerank"})
    with pytest.raises(ExecutionError, match="400"):
        client.run({"bogus_field": 1})
    # Unknown paths and ids.
    with pytest.raises(ExecutionError, match="404"):
        client._get("/v1/nope")
    with pytest.raises(ExecutionError, match="404"):
        client.query(999999)
    with pytest.raises(ExecutionError, match="400"):
        client._get("/v1/query/not-a-number")
    # Quota exhaustion -> 429 surfaced as AdmissionError.
    service.scheduler.queue.register_tenant("full", max_pending=0)
    with pytest.raises(AdmissionError) as excinfo:
        client.run(QuerySpec(family="kcl", k=3, dataset="G",
                             tenant="full"))
    assert excinfo.value.tenant == "full"


def test_get_errors_are_json(service):
    # _get raises via urllib on 4xx; check the raw body shape instead.
    try:
        urllib.request.urlopen(service.url + "/v1/query/999999", timeout=10)
    except urllib.error.HTTPError as exc:
        assert exc.code == 404
        assert "error" in json.loads(exc.read().decode("utf-8"))
    else:  # pragma: no cover
        pytest.fail("expected HTTP 404")


def test_concurrent_tenants_over_http(client):
    results = {}
    errors = []

    def worker(tenant):
        try:
            doc = client.run(QuerySpec(family="kcl", k=4, dataset="G",
                                       tenant=tenant))
            results[tenant] = doc
        except Exception as exc:  # pragma: no cover
            errors.append((tenant, exc))

    threads = [threading.Thread(target=worker, args=(f"tenant-{i}",))
               for i in range(3)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    assert not errors
    assert len(results) == 3
    counts = {doc["result"]["cliques"] for doc in results.values()}
    assert len(counts) == 1  # same query, same answer, all tenants
    stats = client.stats()
    assert stats["completed"] >= 3


def test_shutdown_endpoint_stops_serve_forever(er_graph):
    scheduler = Scheduler(ServeConfig(slots=1), graphs={"G": er_graph})
    svc = MiningService(scheduler, port=0)
    thread = threading.Thread(target=svc.serve_forever, daemon=True)
    thread.start()
    client = ServeClient(svc.url, timeout=30.0)
    deadline = 30
    import time
    start = time.monotonic()
    while True:
        try:
            client.health()
            break
        except OSError:
            assert time.monotonic() - start < deadline
            time.sleep(0.05)
    assert client.shutdown()["stopping"] is True
    thread.join(timeout=30)
    assert not thread.is_alive()
