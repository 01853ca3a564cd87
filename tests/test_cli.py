"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


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
