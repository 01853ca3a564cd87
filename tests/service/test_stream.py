"""ResultStream and ledger_progress: live tailing, resume dedupe, torn
fragments, damaged lines."""

from __future__ import annotations

import json
import threading
import time

import pytest

from repro.errors import CheckpointError, ServiceError
from repro.recovery.ledger import CampaignLedger, LedgerReader
from repro.service.request import CampaignRequest, run_request
from repro.service.stream import ResultStream, ledger_progress


def write_lines(path, records) -> None:
    with open(path, "a", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record) + "\n")


class TestStreaming:
    def test_streams_a_finished_campaign_ledger(self, tmp_path):
        ledger = tmp_path / "campaign.jsonl"
        request = CampaignRequest(
            generator="preferential_attachment",
            generator_params={"n": 40},
            max_deletions=12,
        )
        run_request(request, ledger=ledger)
        records = list(ResultStream(ledger))
        assert records[0]["type"] == "campaign"
        rounds = [r for r in records if r["type"] == "round"]
        assert [r["round"] for r in rounds] == list(range(1, 13))
        assert records[-1]["type"] == "end"

    def test_dedupes_replayed_rounds(self, tmp_path):
        ledger = tmp_path / "campaign.jsonl"
        write_lines(
            ledger,
            [
                {"type": "campaign", "version": 1},
                {"type": "round", "round": 1, "alive": 9},
                {"type": "round", "round": 2, "alive": 8},
                {"type": "round", "round": 3, "alive": 7},
                # crash + resume from the round-1 checkpoint: rounds 2-3
                # are re-appended byte-identically, then the campaign
                # continues
                {"type": "resumed", "round": 1},
                {"type": "round", "round": 2, "alive": 8},
                {"type": "round", "round": 3, "alive": 7},
                {"type": "round", "round": 4, "alive": 6},
                {"type": "end", "rounds": 4},
            ],
        )
        records = list(ResultStream(ledger))
        rounds = [r["round"] for r in records if r["type"] == "round"]
        assert rounds == [1, 2, 3, 4]

    def test_tails_a_live_writer(self, tmp_path):
        ledger = tmp_path / "campaign.jsonl"
        write_lines(ledger, [{"type": "campaign", "version": 1}])

        def writer() -> None:
            for r in range(1, 4):
                time.sleep(0.03)
                write_lines(ledger, [{"type": "round", "round": r}])
            write_lines(ledger, [{"type": "end", "rounds": 3}])

        thread = threading.Thread(target=writer)
        thread.start()
        records = list(ResultStream(ledger, poll_interval=0.01))
        thread.join()
        assert [r["round"] for r in records if r["type"] == "round"] == [
            1,
            2,
            3,
        ]
        assert records[-1]["type"] == "end"

    def test_buffers_partial_lines(self, tmp_path):
        ledger = tmp_path / "campaign.jsonl"
        full = json.dumps({"type": "round", "round": 1}) + "\n"
        with open(ledger, "w", encoding="utf-8") as fh:
            fh.write(full[: len(full) // 2])

        def finish() -> None:
            time.sleep(0.05)
            with open(ledger, "a", encoding="utf-8") as fh:
                fh.write(full[len(full) // 2 :])
                fh.write(json.dumps({"type": "end", "rounds": 1}) + "\n")

        thread = threading.Thread(target=finish)
        thread.start()
        records = list(ResultStream(ledger, poll_interval=0.01))
        thread.join()
        assert records[0] == {"type": "round", "round": 1}

    def test_stop_callable_ends_the_stream(self, tmp_path):
        ledger = tmp_path / "campaign.jsonl"
        write_lines(ledger, [{"type": "round", "round": 1}])
        records = list(
            ResultStream(ledger, poll_interval=0.01, stop=lambda: True)
        )
        assert [r["round"] for r in records] == [1]

    def test_timeout_raises(self, tmp_path):
        ledger = tmp_path / "campaign.jsonl"
        ledger.write_text("")
        stream = ResultStream(ledger, poll_interval=0.01, timeout=0.05)
        with pytest.raises(ServiceError, match="timed out"):
            list(stream)

    def test_follows_a_torn_fragment_the_writer_cuts(self, tmp_path):
        # A resumed worker reopens the ledger, which cuts the fragment
        # the stream has already read, then appends: the stream re-reads
        # from the fragment's start, so it sees exactly the new records.
        ledger = tmp_path / "campaign.jsonl"
        head = [{"type": "campaign"}, {"type": "round", "round": 1}]
        write_lines(ledger, head)
        with open(ledger, "a", encoding="utf-8") as fh:
            fh.write('{"type": "round", "rou')
        appended = [
            {"round": 1, "type": "resumed"},
            {"round": 2, "type": "round"},
            {"rounds": 2, "type": "end"},
        ]
        read_fragment = threading.Event()

        def stop() -> bool:
            read_fragment.set()  # a pass that ended at the fragment
            return False

        def resume() -> None:
            read_fragment.wait(10)
            with CampaignLedger(ledger) as writer:
                for record in appended:
                    writer.append(record)

        thread = threading.Thread(target=resume)
        thread.start()
        stream = ResultStream(
            ledger, poll_interval=0.01, timeout=10, stop=stop
        )
        records = list(stream)
        thread.join()
        assert records == head + appended

    def test_a_damaged_line_ends_the_stream_naming_it(self, tmp_path):
        ledger = tmp_path / "campaign.jsonl"
        ledger.write_text('{"type": "campaign"}\n[1, 2]\n')
        stream = iter(ResultStream(ledger, poll_interval=0.01))
        assert next(stream) == {"type": "campaign"}
        with pytest.raises(CheckpointError, match="jsonl at line 2"):
            next(stream)


class TestLedgerProgress:
    def test_missing_file(self, tmp_path):
        reader = LedgerReader(tmp_path / "nope.jsonl")
        assert ledger_progress(reader) == (0, None)

    def test_rounds_and_end(self, tmp_path):
        ledger = tmp_path / "campaign.jsonl"
        write_lines(
            ledger,
            [
                {"type": "campaign"},
                {"type": "round", "round": 1},
                {"type": "round", "round": 2},
            ],
        )
        reader = LedgerReader(ledger)
        assert ledger_progress(reader) == (2, None)
        write_lines(ledger, [{"type": "end", "rounds": 2}])
        assert ledger_progress(reader) == (2, {"type": "end", "rounds": 2})

    def test_tolerates_torn_tail(self, tmp_path):
        ledger = tmp_path / "campaign.jsonl"
        write_lines(ledger, [{"type": "round", "round": 5}])
        with open(ledger, "a", encoding="utf-8") as fh:
            fh.write('{"type": "round", "rou')
        assert ledger_progress(LedgerReader(ledger)) == (5, None)

    def test_a_damaged_line_keeps_the_counts_before_it(self, tmp_path):
        ledger = tmp_path / "campaign.jsonl"
        write_lines(ledger, [{"type": "round", "round": 5}])
        with open(ledger, "a", encoding="utf-8") as fh:
            fh.write("garbage\n")
        write_lines(ledger, [{"type": "round", "round": 6}])
        reader = LedgerReader(ledger)
        assert ledger_progress(reader) == (5, None)
        assert ledger_progress(reader) == (5, None)
