"""Tests for the append-only campaign ledger."""

from __future__ import annotations

import json

import pytest

from repro.errors import CheckpointError
from repro.recovery import CampaignLedger, latest_campaign, read_ledger
from repro.recovery.faults import truncate_file
from repro.recovery.ledger import LedgerReader


class TestAppendAndRead:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "campaign.jsonl"
        with CampaignLedger(path) as ledger:
            ledger.append({"type": "campaign", "n": 10})
            ledger.append({"type": "round", "round": 1, "victims": [3]})
            ledger.append({"type": "end", "values": {"waves": 1.0}})
        records = read_ledger(path)
        assert [r["type"] for r in records] == ["campaign", "round", "end"]
        assert records[1]["victims"] == [3]

    def test_append_mode_extends_existing_file(self, tmp_path):
        path = tmp_path / "campaign.jsonl"
        with CampaignLedger(path) as ledger:
            ledger.append({"type": "campaign"})
        with CampaignLedger(path) as ledger:
            ledger.append({"type": "round", "round": 1})
        assert len(read_ledger(path)) == 2

    def test_record_without_type_rejected(self, tmp_path):
        with CampaignLedger(tmp_path / "l.jsonl") as ledger:
            with pytest.raises(CheckpointError, match="'type'"):
                ledger.append({"round": 1})

    def test_append_after_close_raises(self, tmp_path):
        ledger = CampaignLedger(tmp_path / "l.jsonl")
        ledger.close()
        with pytest.raises(CheckpointError, match="closed"):
            ledger.append({"type": "round"})

    def test_creates_parent_directories(self, tmp_path):
        path = tmp_path / "deep" / "nested" / "l.jsonl"
        with CampaignLedger(path) as ledger:
            ledger.append({"type": "campaign"})
        assert read_ledger(path)[0]["type"] == "campaign"


class TestCrashTolerance:
    def test_torn_final_line_dropped(self, tmp_path):
        path = tmp_path / "l.jsonl"
        with CampaignLedger(path) as ledger:
            ledger.append({"type": "campaign"})
            ledger.append({"type": "round", "round": 1})
        # Simulate a crash mid-append: a partial record with no newline.
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"type": "rou')
        records = read_ledger(path)
        assert [r["type"] for r in records] == ["campaign", "round"]

    def test_reopen_cuts_a_torn_final_line(self, tmp_path):
        path = tmp_path / "l.jsonl"
        with CampaignLedger(path) as ledger:
            ledger.append({"type": "campaign"})
            ledger.append({"type": "round", "round": 1})
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"type": "rou')
        with CampaignLedger(path) as ledger:
            ledger.append({"type": "resumed", "round": 1})
        records = read_ledger(path, strict=True)
        assert [r["type"] for r in records] == [
            "campaign", "round", "resumed"
        ]

    def test_reopen_keeps_a_final_record_missing_its_newline(self, tmp_path):
        path = tmp_path / "l.jsonl"
        with CampaignLedger(path) as ledger:
            ledger.append({"type": "campaign"})
            ledger.append({"type": "round", "round": 1})
        truncate_file(path, drop_bytes=1)
        before = read_ledger(path)
        assert before[-1] == {"type": "round", "round": 1}
        with CampaignLedger(path) as ledger:
            ledger.append({"type": "end"})
        assert read_ledger(path, strict=True) == before + [{"type": "end"}]

    def test_reopen_cuts_a_fragment_longer_than_one_scan_block(
        self, tmp_path
    ):
        path = tmp_path / "l.jsonl"
        with CampaignLedger(path) as ledger:
            ledger.append({"type": "campaign"})
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"type": "round", "pad": "' + "x" * 200_000)
        with CampaignLedger(path) as ledger:
            ledger.append({"type": "end"})
        assert read_ledger(path, strict=True) == [
            {"type": "campaign"}, {"type": "end"}
        ]

    def test_reopen_of_a_file_holding_only_a_fragment(self, tmp_path):
        path = tmp_path / "l.jsonl"
        path.write_text('{"type": "camp')
        with CampaignLedger(path) as ledger:
            ledger.append({"type": "campaign"})
        assert read_ledger(path, strict=True) == [{"type": "campaign"}]

    def test_torn_tail_raises_in_strict_mode(self, tmp_path):
        path = tmp_path / "l.jsonl"
        with CampaignLedger(path) as ledger:
            ledger.append({"type": "campaign"})
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"truncat')
        with pytest.raises(CheckpointError, match="corrupt ledger"):
            read_ledger(path, strict=True)

    def test_mid_file_corruption_always_raises(self, tmp_path):
        path = tmp_path / "l.jsonl"
        path.write_text(
            '{"type": "campaign"}\ngarbage not json\n{"type": "end"}\n'
        )
        with pytest.raises(CheckpointError, match="line 2"):
            read_ledger(path)

    def test_non_object_record_rejected(self, tmp_path):
        path = tmp_path / "l.jsonl"
        path.write_text('{"type": "campaign"}\n[1, 2, 3]\n')
        with pytest.raises(CheckpointError, match="expected an object"):
            read_ledger(path)

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(CheckpointError, match="cannot read"):
            read_ledger(tmp_path / "absent.jsonl")


class TestLedgerReader:
    def test_a_record_split_across_two_passes(self, tmp_path):
        path = tmp_path / "l.jsonl"
        line = json.dumps({"type": "round", "round": 1}) + "\n"
        path.write_text('{"type": "campaign"}\n' + line[:9])
        reader = LedgerReader(path)
        assert list(reader.read()) == [{"type": "campaign"}]
        assert list(reader.read()) == []
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(line[9:])
        assert list(reader.read()) == [{"type": "round", "round": 1}]
        assert list(reader.read()) == []

    def test_a_multibyte_label_split_across_passes(self, tmp_path):
        path = tmp_path / "l.jsonl"
        record = {"type": "round", "round": 1, "victims": ["zürich"]}
        data = (json.dumps(record, ensure_ascii=False) + "\n").encode()
        cut = data.index("ü".encode()) + 1  # inside the two-byte ü
        path.write_bytes(data[:cut])
        reader = LedgerReader(path)
        assert list(reader.read()) == []
        with open(path, "ab") as fh:
            fh.write(data[cut:])
        assert list(reader.read()) == [record]

    def test_a_file_that_appears_after_the_first_pass(self, tmp_path):
        path = tmp_path / "l.jsonl"
        reader = LedgerReader(path)
        assert list(reader.read()) == []
        with CampaignLedger(path) as ledger:
            ledger.append({"type": "campaign"})
        assert list(reader.read()) == [{"type": "campaign"}]

    def test_error_line_numbers_hold_across_passes(self, tmp_path):
        path = tmp_path / "l.jsonl"
        path.write_text('{"type": "campaign"}\n{"type": "round"}\n')
        reader = LedgerReader(path)
        assert len(list(reader.read())) == 2
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"type": "round"}\n"a string"\n{"type": "end"}\n')
        with pytest.raises(
            CheckpointError, match="line 4: expected an object"
        ):
            list(reader.read())
        # The position stays before the damaged line: it raises again.
        with pytest.raises(CheckpointError, match="line 4"):
            list(reader.read())

    def test_undecodable_bytes_are_corruption(self, tmp_path):
        path = tmp_path / "l.jsonl"
        path.write_bytes(b'{"type": "campaign"}\n{"a": "\xff"}\n')
        with pytest.raises(CheckpointError, match="line 2: 'utf-8' codec"):
            list(LedgerReader(path).read())

    def test_folds_rounds_and_the_newest_campaigns_end(self, tmp_path):
        path = tmp_path / "l.jsonl"
        with CampaignLedger(path) as ledger:
            ledger.append({"type": "campaign"})
            ledger.append({"type": "round", "round": 1})
            ledger.append({"type": "end", "rounds": 1})
        reader = LedgerReader(path)
        list(reader.read())
        assert (reader.rounds, reader.end) == (1, {"type": "end", "rounds": 1})
        with CampaignLedger(path) as ledger:
            ledger.append({"type": "campaign"})
            ledger.append({"type": "round", "round": 3})
        list(reader.read())
        assert (reader.rounds, reader.end) == (3, None)


class TestLatestCampaign:
    def test_selects_newest_header(self, tmp_path):
        records = [
            {"type": "campaign", "run": 1},
            {"type": "round", "round": 1},
            {"type": "campaign", "run": 2},
            {"type": "round", "round": 1},
            {"type": "round", "round": 2},
        ]
        header, tail = latest_campaign(records)
        assert header["run"] == 2
        assert [r["round"] for r in tail] == [1, 2]

    def test_no_header_raises(self):
        with pytest.raises(CheckpointError, match="no campaign header"):
            latest_campaign([{"type": "round"}])

    def test_records_are_canonical_json_lines(self, tmp_path):
        path = tmp_path / "l.jsonl"
        with CampaignLedger(path) as ledger:
            ledger.append({"type": "round", "b": 1, "a": 2})
        line = path.read_text().strip()
        # sort_keys + compact separators: stable, diffable, greppable
        assert line == json.dumps(
            {"a": 2, "b": 1, "type": "round"},
            separators=(",", ":"),
            sort_keys=True,
        )
