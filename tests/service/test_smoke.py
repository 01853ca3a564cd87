"""The service smoke: a real ``repro serve`` process under load.

This is the CI smoke job's driver (see ``.github/workflows/ci.yml``):
start ``repro serve`` as a genuine subprocess, submit four concurrent
pa1000-scale campaigns over the socket, SIGKILL one job's worker
mid-campaign, and assert that every job completes with a streamed
round sequence byte-equivalent to a one-shot ``run_campaign`` with the
same request — the kill included.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.errors import ServiceError
from repro.service.client import ServiceClient
from repro.service.request import CampaignRequest, run_request
from repro.service.stream import ResultStream

REPO_SRC = Path(__file__).resolve().parents[2] / "src"


def pa1000(seed: int) -> CampaignRequest:
    return CampaignRequest(
        generator="preferential_attachment",
        generator_params={"n": 1000, "m": 2},
        max_deletions=300,
        seed=seed,
    )


def round_lines(ledger_path) -> list[str]:
    stream = ResultStream(ledger_path, stop=lambda: True)
    return [
        json.dumps(r, sort_keys=True)
        for r in stream
        if r["type"] == "round"
    ]


@pytest.fixture
def serve(tmp_path):
    root = tmp_path / "svc"
    sock = tmp_path / "service.sock"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    process = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.cli",
            "serve",
            "--root",
            str(root),
            "--socket",
            str(sock),
            "--workers",
            "2",
            "--checkpoint-every",
            "4",
            "--backoff",
            "0",
        ],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    deadline = time.monotonic() + 30
    while not sock.exists() and time.monotonic() < deadline:
        if process.poll() is not None:
            raise AssertionError("repro serve exited during startup")
        time.sleep(0.05)
    assert sock.exists(), "service socket never appeared"
    yield root, ServiceClient(sock)
    if process.poll() is None:
        process.terminate()
        try:
            process.wait(timeout=10)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()


def test_concurrent_campaigns_survive_a_worker_kill(serve, tmp_path):
    root, client = serve
    assert client.ping()

    # The door: a generator that leaves `n` open is refused at submit.
    with pytest.raises(ServiceError, match=r"argument\(s\) n"):
        client._one(
            {
                "op": "submit",
                "request": {"generator": "pa:m=3", "adversary": "random"},
            }
        )
    assert client.list_jobs() == []

    requests = {seed: pa1000(seed) for seed in (1, 2, 3, 4)}
    job_ids = {}
    for seed, request in requests.items():
        job_id, created = client.submit(request)
        assert created
        job_ids[seed] = job_id

    # SIGKILL the first worker that shows progress.
    killed_job = None
    deadline = time.monotonic() + 60
    while killed_job is None and time.monotonic() < deadline:
        for seed, job_id in job_ids.items():
            view = client.status(job_id)
            if view["state"] == "running" and view["rounds"] >= 8:
                os.kill(view["pid"], signal.SIGKILL)
                killed_job = job_id
                break
        time.sleep(0.05)
    assert killed_job is not None, "no worker made progress to kill"

    # Every campaign — the murdered one included — must complete.
    for seed, job_id in job_ids.items():
        final = client.wait(job_id, timeout=300)
        assert final["state"] == "done", (seed, final)
        if job_id == killed_job:
            assert final["resumes"] >= 1

    # Streamed metrics are byte-equivalent to one-shot run_campaign.
    metrics = client.metrics()
    assert metrics["completed"] == 4
    for seed, request in requests.items():
        reference_ledger = tmp_path / f"one-shot-{seed}.jsonl"
        reference = run_request(request, ledger=reference_ledger)
        job_ledger = root / "jobs" / job_ids[seed] / "campaign.jsonl"
        assert round_lines(job_ledger) == round_lines(reference_ledger)
        final = client.status(job_ids[seed])
        assert final["result"]["values"] == dict(reference.values)
        assert final["result"]["deletions"] == reference.deletions

    client.shutdown()
