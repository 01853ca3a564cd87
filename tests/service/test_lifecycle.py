"""End-to-end job lifecycle against real worker subprocesses.

The contract under test, per ISSUE 8's acceptance criteria:

* submit → stream → complete, with streamed per-round records
  byte-equivalent to a one-shot ``run_campaign`` (same request, ledger
  attached);
* cancel mid-run kills the worker and terminates the job;
* a SIGKILL'd worker's job finishes via ledger resume on a fresh
  worker, and the *deduped streamed sequence* still equals the
  straight-through run's — resume is invisible to watchers;
* a service restart (new :class:`CampaignService` over the same root)
  loses neither queued nor running jobs.
"""

from __future__ import annotations

import json
import time

import pytest

import repro.recovery.ledger as ledger_module
import repro.service.request as request_module
from repro.errors import ConfigurationError, SimulatedCrash
from repro.recovery.faults import CrashAtRound, truncate_file
from repro.recovery.ledger import (
    CampaignLedger,
    LedgerReader,
    latest_campaign,
    read_ledger,
)
from repro.service.manager import CampaignService
from repro.service.jobs import JobState, JobStore
from repro.service.request import CampaignRequest, run_request
from repro.service.stream import ResultStream, ledger_progress
from repro.service.worker import worker_main
from repro.sim.metrics import default_metrics
from repro.sim.parallel import RetryPolicy


def make_service(root, **overrides) -> CampaignService:
    kwargs = dict(
        max_workers=2,
        retry_policy=RetryPolicy.immediate(retries=1),
        checkpoint_every=3,
        poll_interval=0.02,
    )
    kwargs.update(overrides)
    return CampaignService(root, **kwargs)


def pa_request(n=80, deletions=25, seed=4, **overrides) -> CampaignRequest:
    kwargs = dict(
        generator="preferential_attachment",
        generator_params={"n": n},
        max_deletions=deletions,
        seed=seed,
    )
    kwargs.update(overrides)
    return CampaignRequest(**kwargs)


def round_lines(ledger_path) -> list[str]:
    """The deduped streamed round sequence, canonically serialized."""
    records = ResultStream(ledger_path, stop=lambda: True)
    return [
        json.dumps(r, sort_keys=True)
        for r in records
        if r["type"] == "round"
    ]


def one_shot_round_lines(request, tmp_path) -> tuple[list[str], object]:
    ledger = tmp_path / "one-shot.jsonl"
    result = run_request(request, ledger=ledger)
    return round_lines(ledger), result


def crash_job(job, crash_round, monkeypatch) -> None:
    """Run ``job``'s campaign as a worker would, with a full snapshot
    every 4 rounds, until an injected crash ends it in round
    ``crash_round``."""
    with monkeypatch.context() as patched:
        patched.setattr(
            request_module,
            "default_metrics",
            lambda: default_metrics() + [CrashAtRound(crash_round)],
        )
        with pytest.raises(SimulatedCrash):
            run_request(
                job.request,
                checkpoint_every=4,
                checkpoint_dir=job.directory / "checkpoints",
                ledger=job.ledger_path,
            )


def wait_for_rounds(service, job_id, rounds, timeout=30.0) -> None:
    reader = LedgerReader(service.ledger_path(job_id))
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        done, _ = ledger_progress(reader)
        if done >= rounds:
            return
        time.sleep(0.01)
    raise AssertionError(f"{job_id} never reached round {rounds}")


class TestSubmitStreamComplete:
    def test_streamed_rounds_match_one_shot(self, tmp_path):
        service = make_service(tmp_path / "svc")
        request = pa_request()
        job_id, created = service.submit(request)
        assert created
        try:
            view = service.wait(job_id, timeout=60)
        finally:
            service.shutdown()
        assert view["state"] == "done"
        expected_lines, expected = one_shot_round_lines(request, tmp_path)
        assert round_lines(service.ledger_path(job_id)) == expected_lines
        assert view["result"]["deletions"] == expected.deletions
        assert view["result"]["final_alive"] == expected.final_alive
        assert view["result"]["values"] == dict(expected.values)

    def test_dedupe_by_spec_hash(self, tmp_path):
        service = make_service(tmp_path / "svc")
        try:
            job_id, created = service.submit(pa_request())
            dup_id, dup_created = service.submit(pa_request().with_priority(5))
            assert created and not dup_created
            assert dup_id == job_id
            assert service.counters["deduped"] == 1
        finally:
            service.shutdown()

    @pytest.mark.parametrize(
        "overrides",
        [
            {"adversary": "level-attack:branching=2"},
            {"extra_metrics": ("stretch:period=4",)},
        ],
        ids=["adversary", "metric"],
    )
    def test_uncheckpointable_request_refused(self, tmp_path, overrides):
        # Workers always checkpoint: such a job could only fail there.
        service = make_service(tmp_path / "svc")
        try:
            with pytest.raises(ConfigurationError, match="checkpoint"):
                service.submit(pa_request(**overrides))
            assert not service.jobs and not len(service.queue)
        finally:
            service.shutdown()

    def test_done_job_can_be_resubmitted(self, tmp_path):
        service = make_service(tmp_path / "svc")
        try:
            job_id, _ = service.submit(pa_request(n=40, deletions=8))
            service.wait(job_id, timeout=60)
            fresh_id, fresh_created = service.submit(
                pa_request(n=40, deletions=8)
            )
            assert fresh_created and fresh_id != job_id
        finally:
            service.shutdown()


class TestCancel:
    def test_cancel_queued_job(self, tmp_path):
        # max_workers=1 and a long job in front keeps the victim queued
        service = make_service(tmp_path / "svc", max_workers=1)
        try:
            service.submit(pa_request(n=2000, deletions=1500, seed=1))
            victim, _ = service.submit(pa_request(seed=2))
            service.poll()
            view = service.cancel(victim)
            assert view["state"] == "cancelled"
            assert service.status(victim)["state"] == "cancelled"
        finally:
            service.shutdown()

    def test_cancel_running_job_kills_its_worker(self, tmp_path):
        service = make_service(tmp_path / "svc", max_workers=1)
        job_id, _ = service.submit(
            pa_request(n=2000, deletions=1500, seed=3)
        )
        service.start()
        try:
            wait_for_rounds(service, job_id, 5)
            with service._lock:
                handle = service.workers[job_id]
            view = service.cancel(job_id)
            assert view["state"] == "cancelled"
            assert handle.poll() is not None  # the subprocess is dead
            # a cancelled job never restarts
            time.sleep(0.2)
            assert service.status(job_id)["state"] == "cancelled"
        finally:
            service.shutdown()


class TestWorkerDeath:
    def test_sigkill_resume_stream_equals_straight_through(self, tmp_path):
        service = make_service(tmp_path / "svc", max_workers=1)
        request = pa_request(n=600, deletions=200, seed=9)
        job_id, _ = service.submit(request)
        service.start()
        try:
            wait_for_rounds(service, job_id, 12)
            with service._lock:
                service.workers[job_id].process.kill()
            view = service.wait(job_id, timeout=120)
        finally:
            service.shutdown()
        assert view["state"] == "done"
        assert view["resumes"] == 1
        assert view["attempts"] == 0  # kills never charge the budget
        expected_lines, expected = one_shot_round_lines(request, tmp_path)
        assert round_lines(service.ledger_path(job_id)) == expected_lines
        assert view["result"]["values"] == dict(expected.values)

    def test_faulting_job_fails_after_retries(self, tmp_path):
        service = make_service(
            tmp_path / "svc",
            retry_policy=RetryPolicy.immediate(retries=1),
        )
        # n=0 passes registry validation (names and params are fine)
        # but explodes inside the worker at graph construction.
        job_id, _ = service.submit(pa_request(n=0, deletions=None))
        try:
            view = service.wait(job_id, timeout=60)
        finally:
            service.shutdown()
        assert view["state"] == "failed"
        assert view["attempts"] == 2  # first try + one retry
        assert view["error"]
        assert service.counters["retries"] == 1
        assert service.counters["failed"] == 1


    def test_a_damaged_ledger_fails_its_job_untouched(self, tmp_path):
        root = tmp_path / "svc"
        job = JobStore(root).create(pa_request(), seq=1)
        job.ledger_path.write_text('{"type": "campaign"}\n[1,2]\n')
        service = make_service(root, retry_policy=RetryPolicy.none())
        service.start()
        try:
            view = service.wait(job.job_id, timeout=60)
        finally:
            service.shutdown()
        assert view["state"] == "failed"
        assert "at line 2: expected an object" in view["error"]
        assert not service._readers
        assert job.ledger_path.read_text() == '{"type": "campaign"}\n[1,2]\n'

    def test_a_diverging_resume_fails_its_job(self, tmp_path, monkeypatch):
        # Resume restores round 8 and re-executes round 9, whose
        # recorded heal no longer matches: the job fails, charged as
        # any fault, instead of starting over on the same ledger.
        root = tmp_path / "svc"
        job = JobStore(root).create(pa_request(), seq=1)
        crash_job(job, 10, monkeypatch)
        records = read_ledger(job.ledger_path)
        (target,) = [
            r for r in records if r["type"] == "round" and r["round"] == 9
        ]
        target["heals"][0][3] += 1  # one more ID change than it charged
        job.ledger_path.write_text(
            "".join(json.dumps(r) + "\n" for r in records)
        )
        service = make_service(root, retry_policy=RetryPolicy.none())
        service.start()
        try:
            view = service.wait(job.job_id, timeout=60)
        finally:
            service.shutdown()
        assert view["state"] == "failed"
        assert view["attempts"] == 1
        assert "round 9 diverged" in view["error"]
        types = [r["type"] for r in read_ledger(job.ledger_path)]
        assert types.count("campaign") == 1 and "end" not in types

    def test_a_job_without_an_intact_checkpoint_runs_afresh(
        self, tmp_path, monkeypatch
    ):
        job = JobStore(tmp_path / "svc").create(pa_request(), seq=1)
        crash_job(job, 10, monkeypatch)
        for path in (job.directory / "checkpoints").glob("ckpt-*"):
            path.unlink()
        assert worker_main(job.directory) == 0
        assert not job.error_path.exists()
        types = [r["type"] for r in read_ledger(job.ledger_path)]
        assert types.count("campaign") == 2 and types.count("end") == 1
        expected_lines, _ = one_shot_round_lines(job.request, tmp_path)
        assert round_lines(job.ledger_path) == expected_lines


class TestProgressCost:
    def test_status_and_metrics_decode_only_appended_records(
        self, tmp_path, monkeypatch
    ):
        root = tmp_path / "svc"
        job = JobStore(root).create(pa_request(), seq=1)
        with CampaignLedger(job.ledger_path) as ledger:
            ledger.append({"type": "campaign"})
            for r in range(1, 51):
                ledger.append({"type": "round", "round": r}, sync=False)
        service = make_service(root)  # not started: the job stays queued
        decode = ledger_module._decode
        decodes = []

        def counted(line):
            decodes.append(line)
            return decode(line)

        monkeypatch.setattr(ledger_module, "_decode", counted)
        assert service.status(job.job_id)["rounds"] == 50
        service.metrics_snapshot()
        assert decodes == []
        with CampaignLedger(job.ledger_path) as ledger:
            for r in range(51, 54):
                ledger.append({"type": "round", "round": r}, sync=False)
        assert service.status(job.job_id)["rounds"] == 53
        assert len(decodes) == 3
        assert service.metrics_snapshot()["total_rounds"] == 53
        assert len(decodes) == 3


class TestResults:
    def test_result_is_the_ledgers_end_record(self, tmp_path):
        service = make_service(tmp_path / "svc")
        job_id, _ = service.submit(pa_request(n=40, deletions=8))
        try:
            view = service.wait(job_id, timeout=60)
        finally:
            service.shutdown()
        ledger = service.ledger_path(job_id)
        _, tail = latest_campaign(read_ledger(ledger))
        assert view["result"] == [r for r in tail if r["type"] == "end"][-1]
        assert not (ledger.parent / "result.json").exists()
        assert not service._readers  # a terminal job keeps no reader

    def test_redispatch_of_an_ended_job_reruns_nothing(self, tmp_path):
        service = make_service(tmp_path / "svc")
        job_id, _ = service.submit(pa_request(n=40, deletions=8))
        ledger = service.ledger_path(job_id)
        try:
            first = service.wait(job_id, timeout=60)["result"]
            before = ledger.read_bytes()
            # Its worker "died" after the end record landed: re-queued.
            job = service.jobs[job_id]
            job.state, job.result = JobState.CHECKPOINTED, None
            service._enqueue(job, force=True)
            view = service.wait(job_id, timeout=60)
        finally:
            service.shutdown()
        assert view["state"] == "done"
        assert view["result"] == first
        assert ledger.read_bytes() == before

    def test_an_end_record_that_lost_its_newline_counts(self, tmp_path):
        job = JobStore(tmp_path / "svc").create(pa_request(n=40), seq=1)
        run_request(job.request, ledger=job.ledger_path)
        truncate_file(job.ledger_path, drop_bytes=1)
        before = job.ledger_path.read_bytes()
        assert worker_main(job.directory) == 0
        assert job.ledger_path.read_bytes() == before + b"\n"

    def test_a_stale_result_json_is_ignored(self, tmp_path):
        # A job directory written by an older version holds result.json;
        # the result is read from the ledger, and gc removes both.
        root = tmp_path / "svc"
        service = make_service(root)
        job_id, _ = service.submit(pa_request(n=40, deletions=8))
        result = service.wait(job_id, timeout=60)["result"]
        service.shutdown()
        job = service.jobs[job_id]
        (job.directory / "result.json").write_text('{"stale": true}')
        job.state = JobState.RUNNING
        service.store.save(job)

        revived = make_service(root)
        try:
            assert revived.status(job_id)["result"] == result
            assert revived.gc(0) == [job_id]
        finally:
            revived.shutdown()
        assert not job.directory.exists()


class TestRestartRecovery:
    def test_restart_recovers_queued_and_running_jobs(self, tmp_path):
        root = tmp_path / "svc"
        service = make_service(root, max_workers=1)
        running = pa_request(n=600, deletions=200, seed=1)
        queued = pa_request(n=50, deletions=10, seed=2)
        j_running, _ = service.submit(running)
        j_queued, _ = service.submit(queued)
        service.start()
        wait_for_rounds(service, j_running, 8)
        service.shutdown()  # kills the worker; both jobs persisted
        assert service.status(j_running)["state"] == "checkpointed"
        assert service.status(j_queued)["state"] == "queued"

        revived = make_service(root, max_workers=2)
        assert revived.counters["recovered"] == 2
        try:
            v_running = revived.wait(j_running, timeout=120)
            v_queued = revived.wait(j_queued, timeout=60)
        finally:
            revived.shutdown()
        assert v_running["state"] == "done"
        assert v_queued["state"] == "done"
        expected_lines, expected = one_shot_round_lines(running, tmp_path)
        assert round_lines(revived.ledger_path(j_running)) == expected_lines
        assert v_running["result"]["values"] == dict(expected.values)

    def test_shutdown_counts_the_resume_it_causes(self, tmp_path):
        service = make_service(tmp_path / "svc", max_workers=1)
        job_id, _ = service.submit(pa_request(n=3000, deletions=2000))
        service.start()
        try:
            wait_for_rounds(service, job_id, 5)
        finally:
            service.shutdown()  # kills the worker mid-campaign
        job = service.jobs[job_id]
        assert job.state is JobState.CHECKPOINTED
        assert service.metrics_snapshot()["resumes"] == job.resumes == 1

    def test_restart_survives_a_job_that_no_longer_builds(self, tmp_path):
        # A stored record whose adversary its constructor refuses (saved
        # before submit checked it): recover() loads it by its binding
        # checks alone, and its worker fails it.
        root = tmp_path / "svc"
        stale = JobStore(root).create(
            pa_request(adversary="level-attack:branching=1"), seq=1
        )
        service = make_service(root)
        try:
            assert list(service.jobs) == [stale.job_id]
            service.start()
            view = service.wait(stale.job_id, timeout=60)
        finally:
            service.shutdown()
        assert view["state"] == "failed"
        assert "branching" in view["error"]

    def test_restart_finalizes_job_that_finished_unreaped(self, tmp_path):
        root = tmp_path / "svc"
        service = make_service(root)
        request = pa_request(n=40, deletions=8)
        job_id, _ = service.submit(request)
        service.wait(job_id, timeout=60)
        service.shutdown()
        # Forge the pre-crash state: the job record says "running" even
        # though its ledger holds the end record.
        job = service.jobs[job_id]
        job.state = JobState.RUNNING
        service.store.save(job)

        revived = make_service(root)
        try:
            assert revived.status(job_id)["state"] == "done"
            assert revived.status(job_id)["result"] is not None
        finally:
            revived.shutdown()
