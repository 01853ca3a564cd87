"""Tests for campaign checkpointing and byte-identical resume.

The differential scheme used throughout: run a campaign straight
through, run the *same* campaign with a fault injected mid-flight,
resume it from the ledger, and require the resumed result to match the
uninterrupted one exactly — final metric values, result metadata, and
the full :class:`~repro.core.network.HealEvent` stream.
"""

from __future__ import annotations

import gc
import json
import warnings
from dataclasses import replace

import pytest

import repro.sim.metrics as metrics_module
from repro.cli import main as cli_main
from repro.core.components import ComponentTracker
from repro.core.dash import Dash
from repro.errors import (
    CheckpointError,
    ConfigurationError,
    DivergenceError,
    SimulatedCrash,
)
from repro.graph.traversal import is_connected
from repro.recovery import (
    Checkpointer,
    CrashAtRound,
    read_ledger,
    resume_campaign,
    resume_from_ledger,
)
from repro.recovery.faults import chaos_round, crash_once, truncate_file
from repro.registry import component_registries
from repro.sim.engine import run_campaign

REGISTRIES = component_registries()

HEALERS = ("dash", "dash-random-order", "graph-heal-delta")
ADVERSARIES = ("max-node", "random", "random-wave", "targeted-wave")


def _components(healer_spec: str, adversary_spec: str, n: int, seed: int):
    graph = REGISTRIES["generator"].make(
        f"erdos_renyi:n={n},p=0.08,seed={seed}"
    )
    healer = REGISTRIES["healer"].make(healer_spec)
    adversary = REGISTRIES["adversary"].make(adversary_spec, seed=seed + 1)
    metrics = [
        REGISTRIES["metric"].make("messages"),
        REGISTRIES["metric"].make("components"),
    ]
    return graph, healer, adversary, metrics


def _straight(healer_spec: str, adversary_spec: str, *, n=50, seed=11):
    graph, healer, adversary, metrics = _components(
        healer_spec, adversary_spec, n, seed
    )
    return run_campaign(
        graph, healer, adversary, id_seed=3, metrics=metrics,
        keep_events=True,
    )


def _crash_and_resume(
    healer_spec: str,
    adversary_spec: str,
    tmp_path,
    *,
    n=50,
    seed=11,
    crash_round=3,
    checkpoint_every=2,
):
    graph, healer, adversary, metrics = _components(
        healer_spec, adversary_spec, n, seed
    )
    ledger = tmp_path / "campaign.jsonl"
    with pytest.raises(SimulatedCrash):
        run_campaign(
            graph, healer, adversary, id_seed=3,
            metrics=metrics + [CrashAtRound(crash_round)],
            keep_events=True,
            checkpoint_every=checkpoint_every,
            checkpoint_dir=tmp_path / "checkpoints",
            ledger=ledger,
        )
    return resume_from_ledger(ledger)


def _assert_identical(a, b):
    assert a.values == b.values
    assert (a.initial_n, a.deletions, a.final_alive, a.peak_delta) == (
        b.initial_n, b.deletions, b.final_alive, b.peak_delta
    )
    assert a.events == b.events


class TestByteIdenticalResume:
    @pytest.mark.parametrize("healer", HEALERS)
    @pytest.mark.parametrize("adversary", ADVERSARIES)
    def test_crash_resume_matrix(self, tmp_path, healer, adversary):
        straight = _straight(healer, adversary)
        resumed = _crash_and_resume(healer, adversary, tmp_path)
        _assert_identical(straight, resumed)

    def test_resume_mid_lazy_batch_accounting(self, tmp_path):
        # Wave campaigns mix quotient-merge and BFS rounds; a resume
        # between them must continue the message accounting
        # byte-identically.
        straight = _straight("dash", "random-wave", n=80, seed=23)
        resumed = _crash_and_resume(
            "dash", "random-wave", tmp_path, n=80, seed=23,
            crash_round=4, checkpoint_every=3,
        )
        _assert_identical(straight, resumed)

    @pytest.mark.parametrize("healer", ("dash", "forgiving-tree"))
    @pytest.mark.parametrize(
        "adversary", ("churn", "churn:rate=0.5,mean=10")
    )
    def test_churn_resume_through_full_snapshot(
        self, tmp_path, healer, adversary
    ):
        # A join raises its targets' degree baselines without healing;
        # the round-44 full snapshot must carry those raised baselines,
        # or δ — and with it DASH's (δ, ID) layout order — comes back
        # wrong after restore.
        straight = _straight(healer, adversary)
        resumed = _crash_and_resume(
            healer, adversary, tmp_path,
            crash_round=45, checkpoint_every=1,
        )
        _assert_identical(straight, resumed)

    def test_crash_between_checkpoints_replays_the_gap(self, tmp_path):
        # checkpoint_every=4, crash at round 7: resume restarts from
        # round 4 and must re-derive rounds 5-7 identically.
        straight = _straight("dash", "max-node")
        resumed = _crash_and_resume(
            "dash", "max-node", tmp_path,
            crash_round=7, checkpoint_every=4,
        )
        _assert_identical(straight, resumed)

    def test_double_crash_double_resume(self, tmp_path):
        graph, healer, adversary, metrics = _components(
            "dash", "random", 50, 11
        )
        ledger = tmp_path / "campaign.jsonl"
        with pytest.raises(SimulatedCrash):
            run_campaign(
                graph, healer, adversary, id_seed=3,
                metrics=metrics + [CrashAtRound(3)],
                keep_events=True, checkpoint_every=2,
                checkpoint_dir=tmp_path / "checkpoints", ledger=ledger,
            )
        # Crash the *resume* too (a fresh injector rides along — exempt
        # metrics are allowed next to the checkpointed ones), then
        # resume a second time.
        rebuilt = [
            REGISTRIES["metric"].make("messages"),
            REGISTRIES["metric"].make("components"),
        ]
        with pytest.raises(SimulatedCrash):
            resume_from_ledger(
                ledger, metrics=rebuilt + [CrashAtRound(3)]
            )
        resumed = resume_from_ledger(ledger)
        _assert_identical(_straight("dash", "random"), resumed)

    def test_ledger_records_complete_audit_trail(self, tmp_path):
        _crash_and_resume("dash", "max-node", tmp_path)
        records = read_ledger(tmp_path / "campaign.jsonl")
        types = [r["type"] for r in records]
        assert types[0] == "campaign"
        assert "resumed" in types
        assert types[-1] == "end"
        rounds = [r["round"] for r in records if r["type"] == "round"]
        # The crash replays the un-checkpointed tail: round numbers dip
        # back to the resume point but every round is accounted for.
        assert sorted(set(rounds)) == list(range(1, max(rounds) + 1))


class TestResumeSafety:
    def test_completed_campaign_refuses_resume(self, tmp_path):
        graph, healer, adversary, metrics = _components(
            "dash", "max-node", 30, 5
        )
        ledger = tmp_path / "campaign.jsonl"
        run_campaign(
            graph, healer, adversary, id_seed=1, metrics=metrics,
            checkpoint_every=4, checkpoint_dir=tmp_path / "ck",
            ledger=ledger,
        )
        with pytest.raises(CheckpointError, match="already completed"):
            resume_from_ledger(ledger)

    def test_truncated_newest_checkpoint_falls_back(self, tmp_path):
        graph, healer, adversary, metrics = _components(
            "dash", "max-node", 50, 11
        )
        ledger = tmp_path / "campaign.jsonl"
        with pytest.raises(SimulatedCrash):
            run_campaign(
                graph, healer, adversary, id_seed=3,
                metrics=metrics + [CrashAtRound(6)],
                keep_events=True, checkpoint_every=2,
                checkpoint_dir=tmp_path / "ck", ledger=ledger,
            )
        checkpoints = Checkpointer(tmp_path / "ck").list_checkpoints()
        assert len(checkpoints) >= 2
        # Tear the newest snapshot: sha256 in the ledger must reject it
        # and resume must fall back to the previous one.
        truncate_file(checkpoints[-1][1])
        resumed = resume_from_ledger(ledger)
        _assert_identical(_straight("dash", "max-node"), resumed)

    def test_torn_ledger_tail_survives_two_resumes(self, tmp_path):
        # A crash can tear the ledger's final line. A resume that glued
        # its first record onto the fragment would leave a corrupt line
        # mid-file: the ledger would stop reading, and a second crash
        # could not resume.
        graph, healer, adversary, metrics = _components(
            "dash", "max-node", 50, 11
        )
        ledger = tmp_path / "campaign.jsonl"
        with pytest.raises(SimulatedCrash):
            run_campaign(
                graph, healer, adversary, id_seed=3,
                metrics=metrics + [CrashAtRound(7)],
                keep_events=True, checkpoint_every=3,
                checkpoint_dir=tmp_path / "ck", ledger=ledger,
            )
        truncate_file(ledger, drop_bytes=10)
        rebuilt = [
            REGISTRIES["metric"].make("messages"),
            REGISTRIES["metric"].make("components"),
        ]
        with pytest.raises(SimulatedCrash):
            resume_from_ledger(ledger, metrics=rebuilt + [CrashAtRound(4)])
        types = [r["type"] for r in read_ledger(ledger, strict=True)]
        assert "resumed" in types and "end" not in types
        truncate_file(ledger, drop_bytes=10)
        resumed = resume_from_ledger(ledger)
        _assert_identical(_straight("dash", "max-node"), resumed)
        records = read_ledger(ledger, strict=True)
        assert [r["type"] for r in records].count("resumed") == 2
        assert records[-1]["type"] == "end"
        assert records[-1]["values"] == resumed.values

    def test_all_checkpoints_torn_raises(self, tmp_path):
        graph, healer, adversary, metrics = _components(
            "dash", "max-node", 50, 11
        )
        ledger = tmp_path / "campaign.jsonl"
        with pytest.raises(SimulatedCrash):
            run_campaign(
                graph, healer, adversary, id_seed=3,
                metrics=metrics + [CrashAtRound(6)],
                checkpoint_every=2,
                checkpoint_dir=tmp_path / "ck", ledger=ledger,
            )
        for _, path in Checkpointer(tmp_path / "ck").list_checkpoints():
            truncate_file(path, drop_bytes=10_000_000)
        with pytest.raises(CheckpointError, match="no intact checkpoint"):
            resume_from_ledger(ledger)

    def test_resume_with_explicit_components(self, tmp_path):
        # Components built directly (not via a registry) carry no
        # provenance; resume accepts explicit replacements and feeds
        # them the checkpointed state.
        from repro.adversary.classic import MaxNodeAttack
        from repro.core.dash import Dash
        from repro.graph.generators import erdos_renyi
        from repro.sim.metrics import MessageMetric

        graph = erdos_renyi(40, 0.1, seed=2)
        ledger = tmp_path / "campaign.jsonl"
        with pytest.raises(SimulatedCrash):
            run_campaign(
                graph, Dash(), MaxNodeAttack(), id_seed=1,
                metrics=[MessageMetric(), CrashAtRound(3)],
                keep_events=True, checkpoint_every=2,
                checkpoint_dir=tmp_path / "ck", ledger=ledger,
            )
        with pytest.raises(CheckpointError, match="provenance"):
            resume_from_ledger(ledger)
        resumed = resume_from_ledger(
            ledger,
            healer=Dash(),
            adversary=MaxNodeAttack(),
            metrics=[MessageMetric()],
        )
        straight = run_campaign(
            erdos_renyi(40, 0.1, seed=2), Dash(), MaxNodeAttack(),
            id_seed=1, metrics=[MessageMetric()], keep_events=True,
        )
        _assert_identical(straight, resumed)

    def test_checkpoint_window_is_pruned(self, tmp_path):
        graph, healer, adversary, metrics = _components(
            "dash", "max-node", 40, 5
        )
        run_campaign(
            graph, healer, adversary, id_seed=1, metrics=metrics,
            checkpoint_every=1, checkpoint_dir=tmp_path / "ck",
        )
        # 40 rounds at every=1 is 41 snapshots; the window keeps the
        # 3 newest.
        kept = Checkpointer(tmp_path / "ck").list_checkpoints()
        assert [r for r, _ in kept] == [38, 39, 40]


class TestCheckpointValidation:
    def test_non_checkpointable_adversary_rejected_up_front(self, tmp_path):
        graph, healer, _, metrics = _components("dash", "max-node", 30, 5)
        adversary = REGISTRIES["adversary"].make("level-attack:branching=2")
        with pytest.raises(CheckpointError, match="not checkpointable"):
            run_campaign(
                graph, healer, adversary, id_seed=1, metrics=metrics,
                checkpoint_every=4, checkpoint_dir=tmp_path / "ck",
            )

    def test_non_checkpointable_metric_rejected_up_front(self, tmp_path):
        from repro.sim.metrics import StretchMetric

        graph, healer, adversary, _ = _components("dash", "max-node", 30, 5)
        stretch = StretchMetric(graph.copy())
        with pytest.raises(CheckpointError, match="not checkpointable"):
            run_campaign(
                graph, healer, adversary, id_seed=1, metrics=[stretch],
                checkpoint_every=4, checkpoint_dir=tmp_path / "ck",
            )

    def test_unseeded_campaign_rejected_up_front(self, tmp_path):
        # id_seed=None draws the node IDs from OS entropy, which a
        # restore cannot draw again; an audit-only ledger never restores.
        graph, healer, adversary, metrics = _components(
            "dash", "max-node", 30, 5
        )
        with pytest.raises(CheckpointError, match="id_seed"):
            run_campaign(
                graph, healer, adversary, id_seed=None, metrics=metrics,
                checkpoint_every=4, checkpoint_dir=tmp_path / "ck",
            )
        assert not (tmp_path / "ck").exists()
        graph, healer, adversary, metrics = _components(
            "dash", "max-node", 30, 5
        )
        run_campaign(
            graph, healer, adversary, id_seed=None, metrics=metrics,
            ledger=tmp_path / "audit.jsonl",
        )

    def test_checkpoint_every_requires_dir(self):
        graph, healer, adversary, metrics = _components(
            "dash", "max-node", 30, 5
        )
        with pytest.raises(ConfigurationError, match="checkpoint_dir"):
            run_campaign(
                graph, healer, adversary, id_seed=1, metrics=metrics,
                checkpoint_every=4,
            )

    def test_ledger_without_checkpoints_is_allowed(self, tmp_path):
        # Audit-only mode: per-round records, no snapshots.
        graph, healer, adversary, metrics = _components(
            "dash", "max-node", 30, 5
        )
        ledger = tmp_path / "campaign.jsonl"
        run_campaign(
            graph, healer, adversary, id_seed=1, metrics=metrics,
            ledger=ledger,
        )
        records = read_ledger(ledger)
        assert records[0]["checkpoint_dir"] is None
        assert records[-1]["type"] == "end"

    def test_audit_only_crash_cannot_resume(self, tmp_path):
        graph, healer, adversary, metrics = _components(
            "dash", "max-node", 30, 5
        )
        ledger = tmp_path / "campaign.jsonl"
        with pytest.raises(SimulatedCrash):
            run_campaign(
                graph, healer, adversary, id_seed=1,
                metrics=metrics + [CrashAtRound(3)], ledger=ledger,
            )
        with pytest.raises(CheckpointError, match="without checkpointing"):
            resume_from_ledger(ledger)


class TestTrackerStateCompatibility:
    """Tracker payloads written before deferral was removed carried a
    ``dirty_roots`` list (always empty for registered healers) and the
    ``deferred_rounds``/``lazy_resolutions``/``resolved_splits``
    counters."""

    @staticmethod
    def _tracker_pair():
        graph, healer, adversary, _ = _components(
            "graph-heal", "random", 40, 7
        )
        network = run_campaign(
            graph,
            healer,
            adversary,
            id_seed=3,
            max_deletions=12,
            keep_network=True,
        ).network
        fresh = ComponentTracker(
            graph=network.graph,
            healing_graph=network.healing_graph,
            initial_ids=network.initial_ids,
        )
        return network.tracker, fresh

    def test_empty_dirty_roots_imports(self):
        tracker, fresh = self._tracker_pair()
        state = tracker.export_state()
        legacy = dict(
            state,
            dirty_roots=[],
            deferred_rounds=0,
            lazy_resolutions=0,
            resolved_splits=0,
        )
        fresh.import_state(legacy)
        assert fresh.export_state() == state
        assert fresh.labels() == tracker.labels()
        fresh.check_consistency()

    def test_pending_dirty_roots_refused(self):
        tracker, fresh = self._tracker_pair()
        state = dict(tracker.export_state(), dirty_roots=[5])
        with pytest.raises(CheckpointError, match="dirty_roots"):
            fresh.import_state(state)

    def test_export_has_no_deferral_keys(self):
        tracker, _ = self._tracker_pair()
        state = tracker.export_state()
        for key in (
            "dirty_roots",
            "deferred_rounds",
            "lazy_resolutions",
            "resolved_splits",
        ):
            assert key not in state


class TestFaultHelpers:
    def test_crash_once_latches(self, tmp_path):
        assert crash_once(tmp_path, "k") is True
        assert crash_once(tmp_path, "k") is False
        assert crash_once(tmp_path, "other") is True

    def test_chaos_round_deterministic_and_bounded(self):
        assert chaos_round(7) == chaos_round(7)
        rounds = {chaos_round(s, low=2, high=9) for s in range(50)}
        assert rounds <= set(range(2, 10))
        assert len(rounds) > 1

    def test_crash_at_round_counts_rounds_not_events(self):
        # A wave round emits one event per victim component; the
        # injector must count rounds (distinct steps).
        graph, healer, adversary, _ = _components(
            "dash", "random-wave", 60, 3
        )
        with pytest.raises(SimulatedCrash, match="after round 2"):
            run_campaign(
                graph, healer, adversary, id_seed=1,
                metrics=[CrashAtRound(2)],
            )


class TestSnapshotsAndReExecution:
    """Every cadence checkpoint is a full snapshot; resume restores the
    newest intact one and re-executes the later rounds, checking each
    against the ledger."""

    def _crash(self, tmp_path, *, crash_round, checkpoint_every):
        graph, healer, adversary, metrics = _components(
            "dash", "max-node", 50, 11
        )
        ledger = tmp_path / "campaign.jsonl"
        with pytest.raises(SimulatedCrash):
            run_campaign(
                graph, healer, adversary, id_seed=3,
                metrics=metrics + [CrashAtRound(crash_round)],
                keep_events=True,
                checkpoint_every=checkpoint_every,
                checkpoint_dir=tmp_path / "ck",
                ledger=ledger,
            )
        return ledger

    def test_checkpoint_kinds_follow_the_cadence(self, tmp_path):
        graph, healer, adversary, metrics = _components(
            "dash", "max-node", 60, 7
        )
        ledger = tmp_path / "campaign.jsonl"
        run_campaign(
            graph, healer, adversary, id_seed=1, metrics=metrics,
            checkpoint_every=3, checkpoint_dir=tmp_path / "ck",
            ledger=ledger,
        )
        checkpoints = [
            (r["round"], r["kind"])
            for r in read_ledger(ledger)
            if r.get("type") == "checkpoint"
        ]
        last = checkpoints[-1][0]
        assert last >= 30
        assert checkpoints == [(0, "init")] + [
            (r, "full") for r in range(3, last + 1, 3)
        ]

    def test_resume_reads_the_newest_snapshot_once(
        self, tmp_path, monkeypatch
    ):
        # Crash after round 4 at checkpoint_every=1: the newest snapshot
        # is round 4's full one, and restoring it reads nothing else.
        from repro.recovery import checkpoint as checkpoint_mod

        ledger = self._crash(tmp_path, crash_round=5, checkpoint_every=1)
        reads = []
        read = checkpoint_mod._read_checkpoint_file

        def spy(path, sha_map):
            reads.append(path.name)
            return read(path, sha_map)

        monkeypatch.setattr(checkpoint_mod, "_read_checkpoint_file", spy)
        resumed = resume_from_ledger(ledger)
        assert reads == ["ckpt-r00000004.json"]
        _assert_identical(_straight("dash", "max-node"), resumed)

    def test_resume_reads_static_once(self, tmp_path, monkeypatch):
        ledger = self._crash(tmp_path, crash_round=6, checkpoint_every=4)
        calls = []
        read_static = Checkpointer.read_static

        def spy(checkpointer):
            calls.append(checkpointer.static_path)
            return read_static(checkpointer)

        monkeypatch.setattr(Checkpointer, "read_static", spy)
        resumed = resume_from_ledger(ledger)
        assert len(calls) == 1
        _assert_identical(_straight("dash", "max-node"), resumed)

    @pytest.mark.parametrize("via", ["ledger", "directory"])
    def test_retired_batch_fast_path_param_is_ignored(self, tmp_path, via):
        # Older versions recorded the network's batch_fast_path switch
        # in static.json and the ledger header; resume ignores it.
        import json as json_mod

        ledger = self._crash(tmp_path, crash_round=5, checkpoint_every=2)
        static_path = tmp_path / "ck" / "static.json"
        static = json_mod.loads(static_path.read_text())
        static["params"]["batch_fast_path"] = False
        static_path.write_text(json_mod.dumps(static))
        records = read_ledger(ledger)
        assert records[0]["type"] == "campaign"
        records[0]["params"]["batch_fast_path"] = False
        ledger.write_text(
            "".join(json_mod.dumps(r) + "\n" for r in records)
        )
        if via == "ledger":
            resumed = resume_from_ledger(ledger)
        else:
            resumed = resume_campaign(tmp_path / "ck")
        _assert_identical(_straight("dash", "max-node"), resumed)

    @pytest.mark.parametrize("backend", ["object", "array"])
    def test_a_recorded_backend_is_ignored(self, tmp_path, backend):
        # Older versions recorded the graph backend in static.json;
        # either name resumes onto the one graph.
        import json as json_mod

        ledger = self._crash(tmp_path, crash_round=5, checkpoint_every=2)
        static_path = tmp_path / "ck" / "static.json"
        static = json_mod.loads(static_path.read_text())
        assert "backend" not in static
        static["backend"] = backend
        static_path.write_text(json_mod.dumps(static))
        resumed = resume_from_ledger(ledger)
        _assert_identical(_straight("dash", "max-node"), resumed)

    def test_restore_spans_a_gap_one_add_may_not(self):
        # Churn can leave live labels farther apart than one add may
        # grow a store; the restored store spans them in one step.
        from repro.graph.graph import GROWTH_SLACK, Graph
        from repro.recovery.checkpoint import _decode_graph, _graph_nodes

        far = 2 * 2 + GROWTH_SLACK
        payload = {"edges": [1, 0], "isolated": [far]}
        nodes = _graph_nodes(payload)
        with pytest.raises(ConfigurationError):
            Graph(nodes)
        graph = _decode_graph(payload, nodes)
        assert list(graph.nodes()) == [0, 1, far]
        assert list(graph.edges()) == [(0, 1)] and graph.num_nodes == 3

    def test_new_campaigns_do_not_record_it(self, tmp_path):
        import json as json_mod

        ledger = self._crash(tmp_path, crash_round=3, checkpoint_every=2)
        static = json_mod.loads((tmp_path / "ck" / "static.json").read_text())
        header = read_ledger(ledger)[0]
        for params in (static["params"], header["params"]):
            assert "batch_fast_path" not in params
            assert params["batch_rounds"] is False

    def test_replay_divergence_tripwire(self, tmp_path):
        import json as json_mod

        # checkpoint_every=4, crash at round 6: resume restores round 4
        # and re-executes round 5, which the ledger recorded.
        ledger = self._crash(tmp_path, crash_round=6, checkpoint_every=4)
        records = read_ledger(ledger)
        (target,) = [
            r
            for r in records
            if r.get("type") == "round" and r["round"] == 5
        ]
        target["alive"] += 1
        ledger.write_text(
            "".join(json_mod.dumps(r) + "\n" for r in records)
        )
        with pytest.raises(CheckpointError, match="round 5 diverged"):
            resume_from_ledger(ledger)
        # Resuming from the directory alone has no tripwire.
        resumed = resume_campaign(tmp_path / "ck", keep_checkpointing=False)
        _assert_identical(_straight("dash", "max-node"), resumed)

    def test_older_delta_records_are_skipped(self, tmp_path):
        # Older versions wrote "-delta" records between full snapshots.
        # Rewrite rounds 2 and 4 the way such a version would have left
        # them: resume must skip both and re-execute from the round-0
        # init snapshot their chain started from.
        import hashlib
        import json as json_mod

        from repro.recovery.checkpoint import load_checkpoint

        ledger = self._crash(tmp_path, crash_round=5, checkpoint_every=2)
        ck = tmp_path / "ck"
        records = read_ledger(ledger)
        for record in records:
            if record.get("type") != "checkpoint" or record["round"] == 0:
                continue
            (ck / record["file"]).unlink()
            name = f"ckpt-r{record['round']:08d}-delta.json"
            data = json_mod.dumps(
                {
                    "version": 1,
                    "kind": "delta",
                    "round": record["round"],
                    "deletions": record["round"],
                    "base": "ckpt-r00000000.json",
                    "victim_rounds": [],
                    "adversary": {},
                    "metrics": [],
                    "alive": 0,
                }
            ).encode()
            (ck / name).write_bytes(data)
            record.update(
                kind="delta",
                file=name,
                sha256=hashlib.sha256(data).hexdigest(),
            )
        ledger.write_text(
            "".join(json_mod.dumps(r) + "\n" for r in records)
        )
        assert [r for r, _ in Checkpointer(ck).list_checkpoints()] == [0]
        with pytest.raises(CheckpointError, match="kind 'delta'"):
            load_checkpoint(ck, checkpoint="ckpt-r00000004-delta.json")

        resumed = resume_from_ledger(ledger)
        _assert_identical(_straight("dash", "max-node"), resumed)
        marker = [
            r for r in read_ledger(ledger) if r.get("type") == "resumed"
        ]
        assert marker[0]["file"] == "ckpt-r00000000.json"


class _DropOneTreeEdge(Dash):
    """DASH that leaves out the last edge of the first reconstruction
    tree it builds: a re-execution that heals differently while a
    random attack's victims stay the same."""

    def __init__(self) -> None:
        self.dropped = None

    def plan(self, snapshot):
        plan = super().plan(snapshot)
        if self.dropped is None and plan.edges:
            self.dropped = snapshot.deleted
            return replace(plan, edges=plan.edges[:-1], component_safe=False)
        return plan


class TestOneTripwire:
    """Every re-executed round must reproduce every field its recorded
    round holds — each heal's fingerprint included — and reach the last
    recorded round."""

    @staticmethod
    def _crash(tmp_path):
        # checkpoint_every=4, crash in round 12: resume restores round 8
        # and re-executes rounds 9–11, which the ledger recorded.
        graph, healer, adversary, metrics = _components(
            "dash", "random", 50, 11
        )
        ledger = tmp_path / "campaign.jsonl"
        with pytest.raises(SimulatedCrash):
            run_campaign(
                graph,
                healer,
                adversary,
                id_seed=3,
                metrics=metrics + [CrashAtRound(12)],
                keep_events=True,
                checkpoint_every=4,
                checkpoint_dir=tmp_path / "ck",
                ledger=ledger,
            )
        return ledger

    @staticmethod
    def _rewrite(ledger, records) -> None:
        ledger.write_text("".join(json.dumps(r) + "\n" for r in records))

    def test_every_round_records_its_heals(self, tmp_path):
        ledger = self._crash(tmp_path)
        straight = _straight("dash", "random")
        heals = [
            r["heals"] for r in read_ledger(ledger) if r["type"] == "round"
        ]
        assert heals == [[e.fingerprint()] for e in straight.events[:11]]

    def test_a_dropped_tree_edge_fails_the_resume(self, tmp_path):
        ledger = self._crash(tmp_path)
        mutant = _DropOneTreeEdge()
        with pytest.raises(DivergenceError) as caught:
            resume_from_ledger(ledger, healer=mutant)
        (mutated,) = [
            r["round"]
            for r in read_ledger(ledger)
            if r["type"] == "round" and r["victims"] == [mutant.dropped]
        ]
        assert mutated > 8
        assert f"round {mutated} diverged" in str(caught.value)
        assert "heals=" in str(caught.value)

    def test_a_ledger_without_heals_resumes_byte_identical(self, tmp_path):
        # A ledger written before rounds recorded their heals.
        ledger = self._crash(tmp_path)
        records = read_ledger(ledger)
        for record in records:
            record.pop("heals", None)
        self._rewrite(ledger, records)
        _assert_identical(
            _straight("dash", "random"), resume_from_ledger(ledger)
        )

    def test_a_round_past_the_last_fails_the_resume(self, tmp_path):
        ledger = self._crash(tmp_path)
        records = read_ledger(ledger)
        last = [r for r in records if r["type"] == "round"][-1]
        self._rewrite(ledger, records + [dict(last, round=51)])
        with pytest.raises(
            DivergenceError, match="ended after round 50, but round 51"
        ):
            resume_from_ledger(ledger)
        assert not any(r["type"] == "end" for r in read_ledger(ledger))

    def test_repro_resume_exits_2_on_edited_heals(self, tmp_path, capsys):
        ledger = self._crash(tmp_path)
        records = read_ledger(ledger)
        (target,) = [
            r for r in records if r["type"] == "round" and r["round"] == 10
        ]
        target["heals"][0][3] += 1  # one more ID change than it charged
        self._rewrite(ledger, records)
        assert cli_main(["resume", str(ledger)]) == 2
        assert "round 10 diverged" in capsys.readouterr().err


class TestOwnedLedgerCloses:
    """A recorder that opened its ledger from a path closes it on every
    exit, not only at the campaign's end."""

    @staticmethod
    def _unclosed(ledger, run) -> list:
        """Run ``run`` and a full collection; the ResourceWarnings that
        name ``ledger``."""
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run()
            gc.collect()
        return [
            w
            for w in caught
            if issubclass(w.category, ResourceWarning)
            and str(ledger) in str(w.message)
        ]

    def test_a_crashed_campaign(self, tmp_path):
        graph, healer, adversary, metrics = _components(
            "dash", "random", 60, 5
        )
        ledger = tmp_path / "c.jsonl"

        def crash():
            with pytest.raises(SimulatedCrash):
                run_campaign(
                    graph,
                    healer,
                    adversary,
                    id_seed=1,
                    metrics=metrics + [CrashAtRound(5)],
                    checkpoint_every=4,
                    checkpoint_dir=tmp_path / "ck",
                    ledger=ledger,
                )

        assert self._unclosed(ledger, crash) == []

    def test_a_refused_first_snapshot(self, tmp_path):
        class TupleState(Dash):
            def export_state(self):
                return {"pair": (1, 2)}  # JSON would make it a list

        graph, _, adversary, metrics = _components("dash", "random", 60, 5)
        ledger = tmp_path / "c.jsonl"

        def refuse():
            with pytest.raises(CheckpointError, match="not JSON"):
                run_campaign(
                    graph,
                    TupleState(),
                    adversary,
                    id_seed=1,
                    metrics=metrics,
                    checkpoint_every=4,
                    checkpoint_dir=tmp_path / "ck",
                    ledger=ledger,
                )

        assert self._unclosed(ledger, refuse) == []

    def test_a_diverging_resume(self, tmp_path):
        ledger = TestOneTripwire._crash(tmp_path)
        records = read_ledger(ledger)
        (target,) = [
            r for r in records if r["type"] == "round" and r["round"] == 10
        ]
        target["heals"][0][3] += 1
        TestOneTripwire._rewrite(ledger, records)

        def diverge():
            with pytest.raises(DivergenceError):
                resume_from_ledger(ledger)

        assert self._unclosed(ledger, diverge) == []


class TestConnectivityResume:
    """A restored :class:`~repro.sim.metrics.ConnectivityMetric` holds no
    certificate mark (it is never exported), so the first check after a
    resume runs the BFS, and the resumed campaign still ends
    byte-identical to the straight run."""

    N = 40
    CRASH_ROUND = 7
    CHECKPOINT_EVERY = 4

    def _components(self, healer: str, period: int):
        return (
            REGISTRIES["generator"].make(
                f"preferential_attachment:n={self.N},m=3,seed=4"
            ),
            REGISTRIES["healer"].make(healer),
            REGISTRIES["adversary"].make("random", seed=5),
            [REGISTRIES["metric"].make(f"connectivity:period={period}")],
        )

    @pytest.mark.parametrize("period", (1, 3))
    @pytest.mark.parametrize("healer", ("dash", "none"))
    def test_first_check_after_restore_runs_the_bfs(
        self, tmp_path, monkeypatch, healer, period
    ):
        graph, heal, adversary, metrics = self._components(healer, period)
        straight = run_campaign(
            graph, heal, adversary, id_seed=3, metrics=metrics,
            keep_events=True,
        )
        graph, heal, adversary, metrics = self._components(healer, period)
        ledger = tmp_path / "campaign.jsonl"
        with pytest.raises(SimulatedCrash):
            run_campaign(
                graph, heal, adversary, id_seed=3,
                metrics=metrics + [CrashAtRound(self.CRASH_ROUND)],
                keep_events=True,
                checkpoint_every=self.CHECKPOINT_EVERY,
                checkpoint_dir=tmp_path / "checkpoints",
                ledger=ledger,
            )

        alive_at_bfs: list[int] = []
        monkeypatch.setattr(
            metrics_module,
            "is_connected",
            lambda g: alive_at_bfs.append(g.num_nodes) or is_connected(g),
        )
        resumed = resume_from_ledger(ledger)
        _assert_identical(straight, resumed)

        # Restored at round 4; one node dies per round.
        first_check = self.CHECKPOINT_EVERY + 1
        while first_check % period:
            first_check += 1
        first_disconnect = straight["first_disconnect_step"]
        assert first_disconnect == -1.0 or first_disconnect > first_check
        assert alive_at_bfs[0] == self.N - first_check
        if healer == "dash":
            assert straight["always_connected"] == 1.0
            assert len(alive_at_bfs) == 1
