"""The JSONL protocol: dispatcher semantics and the socket round-trip."""

from __future__ import annotations

import json
import threading
import time

import pytest

from repro.errors import ServiceError
from repro.service.client import ServiceClient
from repro.service.jobs import JobStore
from repro.service.manager import CampaignService
from repro.service.protocol import ServiceProtocol, serve_socket
from repro.service.request import CampaignRequest
from repro.sim.parallel import RetryPolicy


def pa_request(n=60, deletions=15, seed=4) -> CampaignRequest:
    return CampaignRequest(
        generator="preferential_attachment",
        generator_params={"n": n},
        max_deletions=deletions,
        seed=seed,
    )


@pytest.fixture
def service(tmp_path):
    svc = CampaignService(
        tmp_path / "svc",
        max_workers=2,
        retry_policy=RetryPolicy.immediate(),
        poll_interval=0.02,
    )
    yield svc
    svc.shutdown()


def ask(protocol, message) -> list[dict]:
    return list(protocol.handle_line(json.dumps(message)))


class TestDispatcher:
    def test_ping(self, service):
        protocol = ServiceProtocol(service)
        [response] = ask(protocol, {"op": "ping"})
        assert response["ok"] and response["pong"]

    def test_submit_status_list_cancel(self, service):
        protocol = ServiceProtocol(service)
        [submitted] = ask(
            protocol,
            {"op": "submit", "request": pa_request().to_json()},
        )
        assert submitted["ok"] and submitted["created"]
        job_id = submitted["job"]
        [status] = ask(protocol, {"op": "status", "job": job_id})
        assert status["job"] == job_id
        [listing] = ask(protocol, {"op": "list"})
        assert [j["job"] for j in listing["jobs"]] == [job_id]
        [cancelled] = ask(protocol, {"op": "cancel", "job": job_id})
        assert cancelled["state"] == "cancelled"

    def test_metrics(self, service):
        protocol = ServiceProtocol(service)
        [response] = ask(protocol, {"op": "metrics"})
        assert response["metrics"]["queue_depth"] == 0
        assert "rounds_per_s" in response["metrics"]

    @pytest.mark.parametrize(
        "request_json, named",
        [
            ({"generator": "no-such"}, "no-such"),
            # Nothing supplies a request's `n`: refused at the door, not
            # by three runs of its worker.
            ({"generator": "pa:m=3"}, "missing required argument(s) n"),
        ],
        ids=("unknown-generator", "generator-without-n"),
    )
    def test_invalid_submission_is_an_error_response(
        self, service, request_json, named
    ):
        protocol = ServiceProtocol(service)
        [response] = ask(protocol, {"op": "submit", "request": request_json})
        assert not response["ok"]
        assert named in response["error"]
        assert not service.jobs

    def test_request_that_cannot_be_built_is_an_error_response(
        self, service
    ):
        # Its arguments bind, so it parses; submit builds it first.
        request = CampaignRequest(
            generator="preferential_attachment",
            generator_params={"n": 30},
            adversary="random-wave:schedule=geometric",
            max_rounds=2,
        )
        [response] = ask(
            ServiceProtocol(service),
            {"op": "submit", "request": request.to_json()},
        )
        assert not response["ok"]
        assert "initial" in response["error"]
        assert not service.jobs

    def test_unknown_op_and_bad_json(self, service):
        protocol = ServiceProtocol(service)
        [response] = ask(protocol, {"op": "frobnicate"})
        assert not response["ok"]
        [response] = list(protocol.handle_line("{not json"))
        assert not response["ok"]
        [response] = list(protocol.handle_line('"a string"'))
        assert not response["ok"]

    def test_unknown_job_is_an_error_response(self, service):
        protocol = ServiceProtocol(service)
        [response] = ask(protocol, {"op": "status", "job": "j99999-nope"})
        assert not response["ok"]
        [response] = ask(protocol, {"op": "status"})
        assert not response["ok"]

    def test_shutdown_sets_the_flag(self, service):
        protocol = ServiceProtocol(service)
        [response] = ask(protocol, {"op": "shutdown"})
        assert response["stopping"]
        assert protocol.shutdown_requested.is_set()


class TestDamagedLedger:
    """One queued job whose ledger holds a non-object line: the service
    still starts and answers, with the rounds read before the damage."""

    @pytest.fixture
    def damaged(self, tmp_path):
        root = tmp_path / "svc"
        job = JobStore(root).create(pa_request(), seq=1)
        job.ledger_path.write_text(
            '{"type": "round", "round": 7}\n[1,2]\n'
            '{"type": "round", "round": 8}\n'
        )
        service = CampaignService(root, retry_policy=RetryPolicy.none())
        yield service, job
        service.shutdown()

    def test_status_and_metrics_answer(self, damaged):
        service, job = damaged
        protocol = ServiceProtocol(service)
        [status] = ask(protocol, {"op": "status", "job": job.job_id})
        assert status["ok"] and status["state"] == "queued"
        assert status["rounds"] == 7
        [metrics] = ask(protocol, {"op": "metrics"})
        assert metrics["ok"]
        assert metrics["metrics"]["jobs"][job.job_id]["rounds"] == 7

    def test_watch_ends_in_an_error_naming_the_line(self, damaged):
        service, job = damaged
        responses = ask(
            ServiceProtocol(service), {"op": "watch", "job": job.job_id}
        )
        assert responses[0]["record"] == {"type": "round", "round": 7}
        assert not responses[-1]["ok"]
        assert "CheckpointError" in responses[-1]["error"]
        assert f"{job.ledger_path} at line 2" in responses[-1]["error"]


class TestSocketRoundTrip:
    def test_full_session(self, tmp_path, service):
        sock = tmp_path / "service.sock"
        server = threading.Thread(
            target=serve_socket, args=(service, sock), daemon=True
        )
        server.start()
        deadline = time.monotonic() + 10
        while not sock.exists() and time.monotonic() < deadline:
            time.sleep(0.01)
        client = ServiceClient(sock)
        assert client.ping()

        request = pa_request()
        job_id, created = client.submit(request)
        assert created
        dup_id, dup_created = client.submit(request)
        assert dup_id == job_id and not dup_created

        records = list(client.watch(job_id, timeout=60))
        assert records[-1]["done"]
        assert records[-1]["state"] == "done"
        rounds = [r["round"] for r in records if r.get("type") == "round"]
        assert rounds == sorted(rounds)
        assert any(r.get("type") == "end" for r in records)

        assert client.status(job_id)["state"] == "done"
        assert client.metrics()["completed"] == 1

        client.shutdown()
        server.join(timeout=10)
        assert not server.is_alive()
        assert not sock.exists()  # socket cleaned up on shutdown

    def test_client_error_when_no_service(self, tmp_path):
        client = ServiceClient(tmp_path / "missing.sock", timeout=1.0)
        with pytest.raises(ServiceError, match="repro serve"):
            client.ping()
