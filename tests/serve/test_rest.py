"""The REST surface end to end, against an in-process daemon.

Capacity jobs keep these tests fast: they exercise the full
submit → claim → run → observe → replay loop through real HTTP on a
loopback socket, but the campaign itself is a pure queueing model (no
PHY generation, no training).
"""

from __future__ import annotations

import http.client
import json

import pytest

from repro.api import CapacityJob
from repro.serve import ReproDaemon, ServeClient

CAPACITY = {"kind": "capacity", "links": [2, 4], "duration": 0.5}


@pytest.fixture
def daemon(tmp_path):
    instance = ReproDaemon(cache_dir=str(tmp_path), port=0, slots=1)
    instance.start()
    yield instance
    instance.request_stop()
    instance.stop()


@pytest.fixture
def client(daemon):
    return ServeClient(f"http://127.0.0.1:{daemon.port}")


class TestHealthz:
    def test_reports_ok_and_queue_histogram(self, client):
        response = client.healthz()
        assert response.status == 200
        payload = response.json()
        assert payload["status"] == "ok"
        assert payload["slots"] == 1
        assert payload["jobs"] == {}


class TestSubmission:
    def test_submit_runs_and_finishes(self, client):
        response = client.submit(CAPACITY)
        assert response.status == 201
        payload = response.json()
        assert payload["created"] is True
        job_id = payload["job"]["job_id"]
        assert job_id.startswith("capacity-")

        record = client.wait(job_id, timeout=60)
        assert record["state"] == "done"
        assert record["exit_code"] == 0
        assert "modeled point(s)" in record["summary"]

        events = client.events(job_id).json()
        assert events["counts"] == {"done": 3}
        assert {e["status"] for e in events["events"]} == {"done"}

        results = client.results(job_id)
        assert results.status == 200
        assert "Capacity curve" in results.json()["results"]["report"]

    def test_typed_spec_submission(self, client):
        response = client.submit(CapacityJob(links=(2, 4), duration=0.5))
        assert response.status == 201
        # Typed and dict submissions compute the same dedup key.
        assert response.json()["job"]["job_id"] == (
            client.submit(CAPACITY).json()["job"]["job_id"]
        )

    def test_resubmission_of_finished_job_is_pure_replay(self, client):
        job_id = client.submit(CAPACITY).json()["job"]["job_id"]
        first = client.wait(job_id, timeout=60)
        assert " executed, 0 resumed" in first["summary"]

        again = client.submit(CAPACITY)
        assert again.status == 201
        replay = client.wait(job_id, timeout=60)
        assert replay["submissions"] == 2
        assert "steps: 0 executed, 3 resumed from manifest" in (
            replay["summary"]
        )

    def test_options_flow_into_the_run(self, client):
        response = client.submit(CAPACITY, options={"jobs": 2})
        job_id = response.json()["job"]["job_id"]
        record = client.wait(job_id, timeout=60)
        assert record["state"] == "done"
        assert record["options"]["jobs"] == 2


class TestErrorStatuses:
    def test_unknown_kind_is_400(self, client):
        response = client.request("POST", "/v1/jobs", {"kind": "bogus"})
        assert response.status == 400
        assert response.json()["code"] == "invalid"

    def test_unknown_spec_field_is_400(self, client):
        response = client.submit({**CAPACITY, "linkz": [2]})
        assert response.status == 400

    def test_unknown_option_is_400(self, client):
        response = client.submit(CAPACITY, options={"cache_dir": "/x"})
        assert response.status == 400

    def test_unknown_scenario_is_404(self, client):
        response = client.submit({"kind": "sweep", "scenario": "atlantis"})
        assert response.status == 404
        assert response.json()["code"] == "not_found"

    def test_unknown_job_is_404(self, client):
        assert client.job("nope").status == 404
        assert client.events("nope").status == 404
        assert client.results("nope").status == 404

    def test_unknown_route_is_404(self, client):
        assert client.request("GET", "/v2/anything").status == 404

    def test_malformed_body_is_400(self, client):
        import urllib.request

        req = urllib.request.Request(
            f"{client.base_url}/v1/jobs", data=b"not json", method="POST"
        )
        import urllib.error

        with pytest.raises(urllib.error.HTTPError) as info:
            urllib.request.urlopen(req, timeout=10)
        info.value.close()
        assert info.value.code == 400

    def test_non_utf8_body_is_400(self, daemon):
        conn = http.client.HTTPConnection(
            "127.0.0.1", daemon.port, timeout=10
        )
        try:
            conn.request("POST", "/v1/jobs", body=b"\xff{")
            response = conn.getresponse()
            assert response.status == 400
            assert json.loads(response.read())["code"] == "invalid"
        finally:
            conn.close()

    def test_delete_finished_job_removes_record(self, client):
        job_id = client.submit(CAPACITY).json()["job"]["job_id"]
        client.wait(job_id, timeout=60)
        response = client.delete(job_id)
        assert response.status == 200
        assert response.json()["deleted"] is True
        assert client.job(job_id).status == 404

    def test_submission_during_shutdown_is_503(self, daemon, client):
        daemon.request_stop()
        response = client.submit(CAPACITY)
        assert response.status == 503
        assert response.json()["code"] == "unavailable"


class TestListing:
    def test_jobs_listing_contains_submissions(self, client):
        job_id = client.submit(CAPACITY).json()["job"]["job_id"]
        listing = client.jobs().json()["jobs"]
        assert [job["job_id"] for job in listing] == [job_id]


class TestKeepAlive:
    """Request framing on one persistent ``http.client`` connection."""

    @pytest.fixture
    def conn(self, daemon):
        conn = http.client.HTTPConnection(
            "127.0.0.1", daemon.port, timeout=10
        )
        yield conn
        conn.close()

    @staticmethod
    def _exchange(conn, method, path, body=None, headers=None):
        conn.request(method, path, body=body, headers=headers or {})
        response = conn.getresponse()
        return response.status, json.loads(response.read())

    @pytest.mark.parametrize(
        "method, path",
        [("POST", "/v1/nope"), ("GET", "/v1/nope"), ("DELETE", "/v1/nope")],
    )
    def test_failed_request_consumes_its_body(self, conn, method, path):
        status, payload = self._exchange(
            conn, method, path, body=json.dumps(CAPACITY).encode()
        )
        assert status == 404
        assert payload["code"] == "not_found"
        status, payload = self._exchange(conn, "GET", "/v1/healthz")
        assert status == 200
        assert payload["status"] == "ok"

    def test_non_integer_content_length_is_400(self, conn):
        status, payload = self._exchange(
            conn,
            "POST",
            "/v1/jobs",
            body=b"{}",
            headers={"Content-Length": "two"},
        )
        assert status == 400
        assert payload["code"] == "invalid"
        status, payload = self._exchange(conn, "GET", "/v1/healthz")
        assert status == 200
        assert payload["status"] == "ok"
