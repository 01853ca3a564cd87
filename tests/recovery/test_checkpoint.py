"""Tests for campaign checkpointing and byte-identical resume.

The differential scheme used throughout: run a campaign straight
through, run the *same* campaign with a fault injected mid-flight,
resume it from the ledger, and require the resumed result to match the
uninterrupted one exactly — final metric values, result metadata, and
the full :class:`~repro.core.network.HealEvent` stream.
"""

from __future__ import annotations

import pytest

from repro.core.components import ComponentTracker
from repro.errors import CheckpointError, ConfigurationError, SimulatedCrash
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
        # Wave campaigns on the lazy tracker mix quotient-merge and BFS
        # rounds; a resume between them must continue the message
        # accounting byte-identically.
        straight = _straight("dash", "random-wave", n=80, seed=23)
        resumed = _crash_and_resume(
            "dash", "random-wave", tmp_path, n=80, seed=23,
            crash_round=4, checkpoint_every=3,
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
        # 40 rounds at every=1 is 41 snapshots (fulls at rounds 0, 8,
        # 16, 24, 32, 40; deltas between). The window keeps the 3 newest
        # fulls — plus every delta chained after the oldest kept full,
        # since a delta is unrestorable without its anchor.
        kept = Checkpointer(tmp_path / "ck").list_checkpoints()
        fulls = [
            r for r, p in kept if not p.name.endswith("-delta.json")
        ]
        assert fulls == [24, 32, 40]
        assert min(r for r, _ in kept) == 24
        assert len(kept) == 17  # rounds 24..40 inclusive


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


class TestDeltaChains:
    """Delta checkpoints: tiny victim-replay records chained onto rare
    full/init anchors, replayed through the real healer on restore."""

    def test_checkpoint_kinds_follow_the_chain_cadence(self, tmp_path):
        from repro.recovery.checkpoint import FULL_SNAPSHOT_EVERY

        graph, healer, adversary, metrics = _components(
            "dash", "max-node", 60, 7
        )
        ledger = tmp_path / "campaign.jsonl"
        run_campaign(
            graph, healer, adversary, id_seed=1, metrics=metrics,
            checkpoint_every=1, checkpoint_dir=tmp_path / "ck",
            ledger=ledger,
        )
        kinds = [
            r["kind"]
            for r in read_ledger(ledger)
            if r.get("type") == "checkpoint"
        ]
        assert kinds[0] == "init"
        for i, kind in enumerate(kinds[1:], 1):
            expected = "delta" if i % FULL_SNAPSHOT_EVERY else "full"
            assert kind == expected, f"checkpoint {i}: {kind}"
        # Deltas must actually be cheap: an order of magnitude smaller
        # than the O(n+m) full they hang off.
        files = {
            p.name: p
            for _, p in Checkpointer(tmp_path / "ck").list_checkpoints()
        }
        fulls = [p for p in files.values() if "-delta" not in p.name]
        deltas = [p for p in files.values() if "-delta" in p.name]
        assert fulls and deltas
        assert max(d.stat().st_size for d in deltas) < min(
            f.stat().st_size for f in fulls
        )

    def test_resumed_from_checkpoint_is_a_delta(self, tmp_path):
        # checkpoint_every=2, crash at round 3: the newest checkpoint is
        # round 2 — the first delta on the init anchor — and resume must
        # both pick it and reproduce the uninterrupted run exactly.
        straight = _straight("dash", "max-node")
        resumed = _crash_and_resume(
            "dash", "max-node", tmp_path,
            crash_round=3, checkpoint_every=2,
        )
        _assert_identical(straight, resumed)
        marker = [
            r
            for r in read_ledger(tmp_path / "campaign.jsonl")
            if r.get("type") == "resumed"
        ]
        assert marker and marker[0]["file"].endswith("-delta.json")

    def test_torn_delta_falls_back_along_the_chain(self, tmp_path):
        straight = _straight("dash", "max-node")
        graph, healer, adversary, metrics = _components(
            "dash", "max-node", 50, 11
        )
        ledger = tmp_path / "campaign.jsonl"
        with pytest.raises(SimulatedCrash):
            run_campaign(
                graph, healer, adversary, id_seed=3,
                metrics=metrics + [CrashAtRound(7)], keep_events=True,
                checkpoint_every=1, checkpoint_dir=tmp_path / "ck",
                ledger=ledger,
            )
        truncate_file(tmp_path / "ck" / "ckpt-r00000006-delta.json")
        resumed = resume_from_ledger(ledger)
        _assert_identical(straight, resumed)
        marker = [
            r for r in read_ledger(ledger) if r.get("type") == "resumed"
        ]
        assert marker[0]["file"] == "ckpt-r00000005-delta.json"

    def test_torn_anchor_fails_every_chain(self, tmp_path):
        graph, healer, adversary, metrics = _components(
            "dash", "max-node", 50, 11
        )
        ledger = tmp_path / "campaign.jsonl"
        with pytest.raises(SimulatedCrash):
            run_campaign(
                graph, healer, adversary, id_seed=3,
                metrics=metrics + [CrashAtRound(5)],
                checkpoint_every=2, checkpoint_dir=tmp_path / "ck",
                ledger=ledger,
            )
        # Every checkpoint so far chains back to the round-0 init
        # anchor; tearing it must brick them all, loudly.
        truncate_file(tmp_path / "ck" / "ckpt-r00000000.json")
        with pytest.raises(CheckpointError, match="no intact checkpoint"):
            resume_from_ledger(ledger)

    def test_replay_divergence_tripwire(self, tmp_path):
        import json as json_mod

        from repro.recovery.checkpoint import load_checkpoint

        graph, healer, adversary, metrics = _components(
            "dash", "max-node", 50, 11
        )
        with pytest.raises(SimulatedCrash):
            run_campaign(
                graph, healer, adversary, id_seed=3,
                metrics=metrics + [CrashAtRound(5)],
                checkpoint_every=2, checkpoint_dir=tmp_path / "ck",
                ledger=tmp_path / "campaign.jsonl",
            )
        # Corrupt a delta's recorded survivor count but keep it valid
        # JSON: without the ledger sha to reject it, the replay itself
        # must notice it did not land on the recorded state.
        target = tmp_path / "ck" / "ckpt-r00000004-delta.json"
        payload = json_mod.loads(target.read_text())
        payload["alive"] += 1
        target.write_text(json_mod.dumps(payload))
        with pytest.raises(CheckpointError, match="diverged"):
            load_checkpoint(tmp_path / "ck", checkpoint=target)
