"""Tests for the command-line front end (repro.cli)."""

import json
import re
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.obs import MetricsRegistry, use_registry

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

    @pytest.mark.parametrize("argv", [
        ["chaos", "--fault-rate", "0.9"],
        ["chaos", "--queries", "0"],
        ["chaos", "--shards", "0"],
        ["chaos", "--cache-blocks", "-1"],
        ["cluster", "--backends", "0"],
        ["cluster", "--quota", "0"],
        ["cluster", "--flood", "-3"],
        ["replay", "--points", "0"],
        ["explain", "--epochs", "-2"],
        ["explain", "--as-of", "99"],
    ], ids=lambda argv: "_".join(argv).replace("--", ""))
    def test_a_bounded_flag_is_refused_at_the_parser(self, capsys, argv):
        # Refused before any work: exit 2, the flag named, no output.
        with pytest.raises(SystemExit) as refused:
            main(argv)
        assert refused.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("usage: aims")
        assert f"argument {argv[1]}: must be in [" in err


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
        # Recorded under write faults, replayed from the JSON-lines text.
        assert main(["replay", "--points", "150"]) == 0
        out = capsys.readouterr().out
        assert "replay drill" in out
        assert "bitwise-identical" in out
        assert "MISMATCH" not in out
        faults = re.search(r"through (\d+) injected write faults", out)
        assert int(faults.group(1)) > 0
        assert re.search(r"from \d+ bytes of JSON lines", out)

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


class TestExplainCommand:
    def test_explain_prints_plan_and_provenance(self, capsys):
        assert main(["explain"]) == 0
        out = capsys.readouterr().out
        assert "answer (live" in out
        assert "provenance:" in out
        payload = json.loads(out.split("provenance:\n", 1)[1])
        assert payload["schema"] == "repro.provenance/v2"
        assert payload["epoch"] == payload["current_epoch"] == 3

    def test_explain_as_of_pins_the_epoch(self, capsys):
        assert main(["explain", "--as-of", "1", "--epochs", "2"]) == 0
        out = capsys.readouterr().out
        assert "as of epoch 1" in out
        payload = json.loads(out.split("provenance:\n", 1)[1])
        assert payload["epoch"] == 1
        assert payload["current_epoch"] == 2

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


class TestStatsCommand:
    def test_stats_reports_its_own_run(self, capsys):
        with use_registry(MetricsRegistry()) as outer:
            outer.counter("query.exact.queries").inc(1000)
            assert main(["stats", "--json"]) == 0
        counters = json.loads(capsys.readouterr().out)["counters"]
        assert 0 < counters["query.exact.queries"] < 1000
        assert outer.counter("query.exact.queries").value == 1000
        assert outer.counter("storage.pool.hits").value == 0


class TestChaosCommand:
    def test_chaos_exits_zero_under_faults(self, capsys):
        assert main(["chaos", "--fault-rate", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "chaos drill" in out
        assert "breaker" in out
        assert "5% read-fault rate" in out
        # The default cache is smaller than the drill's cube, so reads
        # keep reaching the fault-injecting layer.
        injected = re.search(
            r"injected faults : (\d+) read, (\d+) torn, (\d+) slow", out
        )
        assert sum(map(int, injected.groups())) > 10

    def test_chaos_reports_its_own_run(self, capsys):
        # The drill counts into a registry of its own: run twice in one
        # process, it prints the same report, and the caller's registry
        # neither feeds the report nor receives the drill's counts.
        with use_registry(MetricsRegistry()) as outer:
            outer.counter("retry.retries").inc(1000)
            reports = []
            for _ in range(2):
                assert main(["chaos", "--fault-rate", "0.05"]) == 0
                reports.append(capsys.readouterr().out)
        assert reports[0] == reports[1]
        assert "retries/recovers: 1000" not in reports[0]
        assert outer.counter("retry.retries").value == 1000
        assert outer.counter("faults.injected.read_errors").value == 0

    def test_chaos_fault_free_control_run(self, capsys):
        assert main(["chaos", "--fault-rate", "0"]) == 0
        assert "degraded        : 0/" in capsys.readouterr().out

    @pytest.mark.parametrize("asked", [20, 3])
    def test_chaos_runs_exactly_the_queries_asked_for(self, capsys, asked):
        assert main(["chaos", "--fault-rate", "0",
                     "--queries", str(asked)]) == 0
        out = capsys.readouterr().out
        assert f"chaos drill: {asked} degradable queries" in out
        assert f"degraded        : 0/{asked} " in out
