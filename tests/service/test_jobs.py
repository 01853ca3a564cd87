"""Job state machine and JobStore persistence."""

from __future__ import annotations

import json

import pytest

from repro.errors import ConfigurationError, JobStateError
from repro.service.jobs import JobState, JobStore
from repro.service.request import CampaignRequest


def tiny_request(**overrides) -> CampaignRequest:
    kwargs = dict(
        generator="preferential_attachment",
        generator_params={"n": 30},
        max_deletions=5,
    )
    kwargs.update(overrides)
    return CampaignRequest(**kwargs)


class TestStateMachine:
    def test_happy_path(self, tmp_path):
        job = JobStore(tmp_path).create(tiny_request(), seq=1)
        assert job.state is JobState.QUEUED
        job.advance(JobState.RUNNING)
        job.advance(JobState.CHECKPOINTED)
        job.advance(JobState.RUNNING)
        job.advance(JobState.DONE)
        assert job.state.terminal

    def test_illegal_transitions_raise(self, tmp_path):
        job = JobStore(tmp_path).create(tiny_request(), seq=1)
        with pytest.raises(JobStateError):
            job.advance(JobState.DONE)  # queued -> done skips running
        job.advance(JobState.CANCELLED)
        with pytest.raises(JobStateError):
            job.advance(JobState.RUNNING)  # terminal states are final

    def test_terminal_flags(self):
        assert JobState.DONE.terminal
        assert JobState.FAILED.terminal
        assert JobState.CANCELLED.terminal
        assert not JobState.QUEUED.terminal
        assert not JobState.RUNNING.terminal
        assert not JobState.CHECKPOINTED.terminal


class TestPersistence:
    def test_roundtrip(self, tmp_path):
        store = JobStore(tmp_path)
        job = store.create(tiny_request(seed=3), seq=7)
        job.advance(JobState.RUNNING)
        job.attempts = 1
        job.resumes = 2
        job.rounds = 9
        store.save(job)
        loaded = store.load(job.job_id)
        assert loaded.state is JobState.RUNNING
        assert loaded.request == job.request
        assert (loaded.seq, loaded.attempts, loaded.resumes) == (7, 1, 2)
        assert loaded.rounds == 9
        assert loaded.directory == job.directory

    def test_job_id_embeds_seq_and_spec_hash(self, tmp_path):
        request = tiny_request()
        job = JobStore(tmp_path).create(request, seq=12)
        assert job.job_id == f"j00012-{request.spec_hash()[:8]}"

    def test_load_all_orders_by_seq(self, tmp_path):
        store = JobStore(tmp_path)
        store.create(tiny_request(seed=2), seq=2)
        store.create(tiny_request(seed=1), seq=1)
        assert [j.seq for j in store.load_all()] == [1, 2]

    def test_load_all_skips_torn_records(self, tmp_path):
        store = JobStore(tmp_path)
        job = store.create(tiny_request(), seq=1)
        torn = store.jobs_dir / "j00002-deadbeef"
        torn.mkdir()
        (torn / "job.json").write_text('{"version": 1, "job_id"')
        assert [j.job_id for j in store.load_all()] == [job.job_id]

    def test_load_all_skips_records_that_no_longer_bind(self, tmp_path):
        # A job stored with a generator that leaves `n` open could never
        # run; its record no longer loads, and is skipped like a torn one.
        store = JobStore(tmp_path)
        kept = store.create(tiny_request(), seq=1)
        stale = store.create(tiny_request(seed=2), seq=2)
        path = stale.directory / "job.json"
        payload = json.loads(path.read_text())
        payload["request"]["generator_params"] = {}
        path.write_text(json.dumps(payload))
        assert [j.job_id for j in store.load_all()] == [kept.job_id]

    def test_load_all_does_not_build_components(self, tmp_path):
        # A stored job loads by its binding checks alone: a trace file
        # moved after the job ran, or an adversary argument its
        # constructor now refuses, must not drop the record (status and
        # gc read jobs through load_all).
        trace = tmp_path / "trace.jsonl"
        trace.write_text('[["delete", 0]]\n')
        store = JobStore(tmp_path / "store")
        replay = tiny_request(
            adversary=f"trace-churn:path={trace}", max_deletions=None
        )
        replay.validate()
        done = store.create(replay, seq=1)
        done.advance(JobState.RUNNING)
        done.advance(JobState.DONE)
        store.save(done)
        trace.unlink()
        with pytest.raises(ConfigurationError, match="churn trace"):
            replay.validate()
        refused = store.create(
            tiny_request(adversary="level-attack:branching=1"), seq=2
        )
        loaded = {job.job_id: job for job in store.load_all()}
        assert set(loaded) == {done.job_id, refused.job_id}
        assert loaded[done.job_id].state is JobState.DONE
        assert loaded[refused.job_id].request == refused.request

    def test_next_seq_survives_restart(self, tmp_path):
        store = JobStore(tmp_path)
        assert store.next_seq() == 1
        store.create(tiny_request(), seq=store.next_seq())
        assert JobStore(tmp_path).next_seq() == 2

    def test_public_view_fields(self, tmp_path):
        job = JobStore(tmp_path).create(tiny_request(), seq=1)
        view = job.public_view()
        assert view["job"] == job.job_id
        assert view["state"] == "queued"
        assert view["healer"] == "dash"
        assert view["error"] is None

    def test_saved_record_is_valid_json(self, tmp_path):
        job = JobStore(tmp_path).create(tiny_request(), seq=1)
        payload = json.loads((job.directory / "job.json").read_text())
        assert payload["job_id"] == job.job_id
        assert payload["request"]["generator"] == "preferential_attachment"
