"""Tests for the command-line interface."""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.recovery.ledger import read_ledger
from repro.service.client import ServiceClient

#: `simulate` stdout per invocation, the digest of the ledger's round and
#: end records for the checkpointed one, and the `spec_hash` of the
#: request `submit` sends per invocation
GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "cli_golden.json").read_text(
        encoding="utf-8"
    )
)


def submitted(monkeypatch, argv: list[str]):
    """The request `repro submit` sends, caught at the client."""
    sent = []

    def submit(self, request):
        sent.append(request)
        return "job-0", True

    monkeypatch.setattr(ServiceClient, "submit", submit)
    assert main(["submit", *argv]) == 0
    (request,) = sent
    return request


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_figure_args(self):
        args = build_parser().parse_args(
            ["figure", "fig8", "--sizes", "10", "20", "--reps", "2"]
        )
        assert args.name == "fig8"
        assert args.sizes == [10, 20]

    def test_version(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--version"])


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "dash" in out
        assert "neighbor-of-max" in out

    def test_unknown_figure(self, capsys):
        assert main(["figure", "nope"]) == 2
        assert "unknown figure" in capsys.readouterr().err

    def test_simulate(self, capsys):
        rc = main(
            [
                "simulate",
                "--n",
                "20",
                "--healer",
                "dash",
                "--adversary",
                "random",
                "--seed",
                "3",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "peak δ" in out
        assert "max_degree_increase" in out

    def test_simulate_wave_adversary(self, capsys):
        rc = main(
            [
                "simulate",
                "--n",
                "30",
                "--adversary",
                "random-wave",
                "--wave-size",
                "4",
                "--max-waves",
                "2",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "waves" in out
        assert "deletions        : 8" in out

    def test_simulate_wave_rejects_max_deletions(self, capsys):
        rc = main(
            [
                "simulate",
                "--n",
                "30",
                "--adversary",
                "random-wave",
                "--max-deletions",
                "5",
            ]
        )
        assert rc == 2
        assert "--max-waves" in capsys.readouterr().err

    def test_simulate_single_rejects_max_waves(self, capsys):
        rc = main(
            ["simulate", "--n", "30", "--adversary", "random",
             "--max-waves", "2"]
        )
        assert rc == 2
        assert "--max-deletions" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv,message",
        [
            (
                ["--adversary", "random", "--max-deletions", "-1"],
                "max_deletions must be >= 0, got -1",
            ),
            (
                ["--adversary", "random-wave", "--max-waves", "-1"],
                "max_rounds must be >= 0, got -1",
            ),
            (
                ["--checkpoint-every", "-3"],
                "checkpoint_every must be >= 1, got -3",
            ),
            (
                ["--checkpoint-every", "0"],
                "checkpoint_every must be >= 1, got 0",
            ),
        ],
    )
    def test_simulate_bad_cap_or_cadence_exits_2(
        self, capsys, tmp_path, argv, message
    ):
        if "--checkpoint-every" in argv:
            argv = argv + ["--checkpoint-dir", str(tmp_path / "state")]
        rc = main(["simulate", "--n", "20", *argv])
        assert rc == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["--workers", "0"], "max_workers must be >= 1, got 0"),
            (["--queue-capacity", "0"], "capacity must be >= 1, got 0"),
            (
                ["--checkpoint-every", "0"],
                "checkpoint_every must be >= 1, got 0",
            ),
            (["--heartbeat-ttl", "0"], "heartbeat_ttl must be > 0.2 s"),
            (["--retries", "-1"], "retries must be >= 0, got -1"),
            (["--backoff", "-1"], "backoff must be >= 0, got -1"),
        ],
    )
    def test_serve_bad_setting_exits_2(self, capsys, tmp_path, argv, message):
        root = tmp_path / "svc"
        rc = main(["serve", "--root", str(root), "--stdio", *argv])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not root.exists()

    def test_simulate_adversary_spec_string(self, capsys):
        rc = main(
            [
                "simulate",
                "--n",
                "40",
                "--adversary",
                "random-wave:size=5,schedule=constant",
                "--max-waves",
                "2",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "deletions        : 10" in out

    def test_simulate_generator_spec_string(self, capsys):
        rc = main(
            [
                "simulate",
                "--n",
                "24",
                "--generator",
                "erdos_renyi:p=0.3",
                "--adversary",
                "random",
            ]
        )
        assert rc == 0
        assert "peak δ" in capsys.readouterr().out

    def test_simulate_unknown_component_exits_2(self, capsys):
        rc = main(["simulate", "--healer", "nope"])
        assert rc == 2
        assert "available" in capsys.readouterr().err

    def test_simulate_bad_spec_argument_exits_2(self, capsys):
        rc = main(["simulate", "--adversary", "random:bogus=1"])
        assert rc == 2
        assert "random" in capsys.readouterr().err

    def test_simulate_out_of_range_adversary_argument_exits_2(self, capsys):
        rc = main(
            [
                "simulate",
                "--generator",
                "complete_kary_tree:2,4",
                "--adversary",
                "level-attack:1",
            ]
        )
        assert rc == 2
        assert capsys.readouterr().err == "branching must be >= 2, got 1\n"

    def test_list_shows_all_registries(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for family in (
            "figures", "healers", "adversaries", "generators",
            "wave schedules", "metrics",
        ):
            assert family in out
        assert "geometric" in out
        assert "connectivity" in out

    def test_figure_theorem2(self, capsys):
        rc = main(["figure", "theorem2", "--depths", "2", "--quiet"])
        assert rc == 0
        assert "LEVELATTACK" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "flags,message",
        [
            (["--reps", "0"], "repetitions must be >= 1"),
            (["--reps", "-1"], "repetitions must be >= 1"),
            (["--sizes", "1"], "sizes must be >= 2"),
        ],
        ids=["reps0", "reps-1", "sizes1"],
    )
    def test_figure_invalid_values_exit_2(
        self, capsys, tmp_path, flags, message
    ):
        rc = main(
            ["figure", "fig8", "--quiet", "--out", str(tmp_path), *flags]
        )
        assert rc == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert "Traceback" not in captured.err
        assert not (tmp_path / "fig8.csv").exists()

    def test_figure_small_fig8(self, capsys, tmp_path):
        rc = main(
            [
                "figure",
                "fig8",
                "--sizes",
                "12",
                "--reps",
                "2",
                "--quiet",
                "--out",
                str(tmp_path),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "fig8" in out
        assert (tmp_path / "fig8.csv").exists()


class TestGolden:
    """`simulate` output and `submit` requests, pinned byte for byte."""

    @pytest.mark.parametrize("argv", sorted(GOLDEN["simulate"]))
    def test_simulate_stdout(self, capsys, tmp_path, argv):
        state = tmp_path / "state"
        checkpointed = argv in GOLDEN["simulate_ledger"]
        extra = ["--checkpoint-dir", str(state)] if checkpointed else []
        assert main(["simulate", *argv.split(), *extra]) == 0
        assert capsys.readouterr().out == GOLDEN["simulate"][argv]
        if checkpointed:
            records = [
                r
                for r in read_ledger(state / "campaign.jsonl")
                if r["type"] in ("round", "end")
            ]
            canon = json.dumps(records, sort_keys=True, separators=(",", ":"))
            digest = hashlib.sha256(canon.encode("utf-8")).hexdigest()
            assert digest == GOLDEN["simulate_ledger"][argv]

    @pytest.mark.parametrize("argv", sorted(GOLDEN["submit_spec_hash"]))
    def test_submit_spec_hash(self, monkeypatch, capsys, argv):
        request = submitted(monkeypatch, argv.split())
        assert request.spec_hash() == GOLDEN["submit_spec_hash"][argv]


class TestOneCampaignDescription:
    """`simulate` and `submit` turn the same flags into the same
    campaign: `simulate` output equals the request `submit` sends (plus
    the connectivity metric `simulate` adds), run in-process."""

    @pytest.mark.parametrize(
        "argv",
        [
            "--n 200 --seed 7",
            # the healer's seed comes from --seed under both commands
            "--n 60 --healer dash-random-order --seed 3 --max-deletions 30",
            # n goes only where the generator takes it
            "--generator grid:rows=5,cols=5 --healer graph-heal --seed 1",
            # p=0.05 fills the parameter erdos_renyi requires
            "--generator erdos_renyi --n 80 --seed 1",
            "--generator gnm_random --n 40 --adversary random --seed 2",
        ],
    )
    def test_simulate_runs_the_request_submit_sends(
        self, monkeypatch, capsys, argv
    ):
        from repro.cli import _print_result
        from repro.service.request import run_request

        assert main(["simulate", *argv.split()]) == 0
        simulated = capsys.readouterr().out
        request = submitted(
            monkeypatch, [*argv.split(), "--metric", "connectivity"]
        )
        capsys.readouterr()
        _print_result(run_request(request))
        assert capsys.readouterr().out == simulated

    @pytest.mark.parametrize("command", ["simulate", "submit"])
    @pytest.mark.parametrize(
        "argv,flag",
        [
            (["--generator", "pa:n=500"], "--n"),
            (["--generator", "erdos_renyi:p=0.1,m=3", "--m", "3"], None),
            (["--generator", "pa:m=3", "--m", "3"], "--m"),
        ],
        ids=["pinned-n", "m-not-taken", "pinned-m"],
    )
    def test_spec_pinning_a_flag_exits_2(
        self, monkeypatch, capsys, command, argv, flag
    ):
        monkeypatch.setattr(
            ServiceClient, "submit", lambda self, request: ("job-0", True)
        )
        rc = main([command, *argv])
        err = capsys.readouterr().err
        if flag is None:
            # erdos_renyi takes no m: --m does not apply, and the spec's
            # own m is an unknown argument
            assert rc == 2 and "unexpected keyword argument 'm'" in err
        else:
            assert rc == 2
            assert argv[1] in err and f"set by {flag}" in err
