"""Tests for the command-line front end (repro.cli)."""

import json
from pathlib import Path

import pytest

from repro.cli import build_parser, main

RESULTS = Path(__file__).resolve().parents[1] / "benchmarks" / "results"


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_glove_defaults(self):
        args = build_parser().parse_args(["glove"])
        assert args.command == "glove"
        assert args.sampler == "adaptive"
        assert args.duration == 10.0

    def test_bad_sampler_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["glove", "--sampler", "psychic"])

    def test_seed_global(self):
        args = build_parser().parse_args(["--seed", "7", "info"])
        assert args.seed == 7

    def test_lint_takes_only_a_root_and_a_format(self):
        args = build_parser().parse_args(["lint"])
        assert vars(args) == {
            "seed": 2003, "command": "lint", "root": None, "format": "text",
        }
        with pytest.raises(SystemExit):
            build_parser().parse_args(["lint", "--format", "xml"])


class TestCommands:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "AIMS" in out
        assert "28 sensors" in out

    def test_glove(self, capsys):
        assert main(["glove", "--duration", "3"]) == 0
        out = capsys.readouterr().out
        assert "NRMSE" in out
        assert "adaptive" in out

    def test_adhd(self, capsys):
        assert main(["adhd", "--subjects", "6", "--duration", "10"]) == 0
        out = capsys.readouterr().out
        assert "SVM" in out
        assert "%" in out

    def test_asl(self, capsys):
        assert main(["asl", "--signs", "GREEN", "RED"]) == 0
        out = capsys.readouterr().out
        assert "truth" in out
        assert "GREEN" in out

    def test_asl_unknown_sign(self, capsys):
        assert main(["asl", "--signs", "WINGDING"]) == 2
        assert "unknown signs" in capsys.readouterr().err

    def test_olap(self, capsys):
        assert main(["olap"]) == 0
        out = capsys.readouterr().out
        assert "progressive COUNT" in out
        assert "guarantee" in out

    def test_report(self, capsys):
        # One section per committed result table, in stem order.
        assert main(["report"]) == 0
        headers = [
            line for line in capsys.readouterr().out.splitlines()
            if line.startswith("==== ")
        ]
        stems = sorted(p.stem for p in RESULTS.glob("*.txt"))
        assert stems
        assert headers == [f"==== {stem} ====" for stem in stems]


class TestReplayCommand:
    def test_replay_proves_bitwise_fidelity(self, capsys):
        assert main(["replay", "--points", "150"]) == 0
        out = capsys.readouterr().out
        assert "replay drill" in out
        assert "bitwise-identical" in out
        assert "MISMATCH" not in out

    def test_replay_saves_a_loadable_record(self, capsys, tmp_path):
        from repro.streams.replay import REPLAY_SCHEMA, SessionRecord

        target = tmp_path / "drill.replay.jsonl"
        assert main(
            ["replay", "--points", "120", "--out", str(target)]
        ) == 0
        assert "record saved" in capsys.readouterr().out
        record = SessionRecord.load(target)
        assert record.header()["schema"] == REPLAY_SCHEMA
        assert record.points >= 120
        assert record.closed

    def test_replay_rejects_bad_points(self, capsys):
        assert main(["replay", "--points", "0"]) == 2
        assert "--points" in capsys.readouterr().err


class TestExplainCommand:
    def test_explain_prints_plan_and_provenance(self, capsys):
        assert main(["explain"]) == 0
        out = capsys.readouterr().out
        assert "answer (live" in out
        assert "provenance:" in out
        payload = json.loads(out.split("provenance:\n", 1)[1])
        assert payload["schema"] == "repro.provenance/v1"
        assert payload["epoch"] == payload["current_epoch"] == 3

    def test_explain_as_of_pins_the_epoch(self, capsys):
        assert main(["explain", "--as-of", "1", "--epochs", "2"]) == 0
        out = capsys.readouterr().out
        assert "as of epoch 1" in out
        payload = json.loads(out.split("provenance:\n", 1)[1])
        assert payload["epoch"] == 1
        assert payload["current_epoch"] == 2

    def test_explain_rejects_future_epoch(self, capsys):
        assert main(["explain", "--as-of", "99"]) == 2
        assert "--as-of" in capsys.readouterr().err

    def test_as_of_answers_differ_from_live(self, capsys):
        # Epoch 0 predates the demo history, so the pinned answer must
        # differ from the live one (the inserts hit the query range).
        assert main(["explain", "--as-of", "0"]) == 0
        pinned = capsys.readouterr().out
        assert main(["explain"]) == 0
        live = capsys.readouterr().out

        def answer(text):
            return float(
                text.split("answer (")[1].split(": ")[1].split()[0]
            )

        assert answer(pinned) != answer(live)


class TestChaosCommand:
    @pytest.mark.parametrize("asked", [20, 3])
    def test_chaos_runs_exactly_the_queries_asked_for(self, capsys, asked):
        assert main(["chaos", "--fault-rate", "0",
                     "--queries", str(asked)]) == 0
        out = capsys.readouterr().out
        assert f"chaos drill: {asked} degradable queries" in out
        assert f"degraded        : 0/{asked} " in out

    def test_chaos_rejects_a_non_positive_query_count(self, capsys):
        assert main(["chaos", "--queries", "0"]) == 2
        assert "--queries must be >= 1" in capsys.readouterr().err
