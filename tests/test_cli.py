"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main
from repro.persist import MAGIC
from tests.conftest import make_runtime
from tests.persist.conftest import save_mismatched_checkpoint


class TestParser:
    def test_demo_defaults(self):
        args = build_parser().parse_args(["demo"])
        assert args.nodes == 100
        assert args.threshold == 1.0

    def test_query_options(self):
        args = build_parser().parse_args(
            ["query", "SELECT loc FROM sensors", "--sink", "3", "--plan"]
        )
        assert args.sql == "SELECT loc FROM sensors"
        assert args.sink == 3
        assert args.plan

    def test_experiment_id(self):
        args = build_parser().parse_args(["experiment", "fig6"])
        assert args.id == "fig6"

    def test_serve_options(self):
        args = build_parser().parse_args(
            ["serve", "--queries", "100", "--clients", "4", "--no-cache",
             "--max-cost", "500", "--sink", "2"]
        )
        assert args.queries == 100
        assert args.clients == 4
        assert args.no_cache
        assert args.max_cost == 500.0
        assert args.sink == 2

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.queries == 500
        assert args.clients == 8
        assert not args.no_cache
        assert args.max_cost is None

    def test_run_options(self):
        args = build_parser().parse_args(["run", "-n", "20000", "--duration", "4"])
        assert args.nodes == 20000
        assert args.duration == 4.0
        assert args.range is None  # auto degree-12 radius

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.nodes == 2000
        assert args.duration == 10.0
        assert not args.digest

    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestCommands:
    def test_run_pins_traffic_and_digest(self, capsys):
        code = main(["run", "-n", "300", "--classes", "2", "--digest"])
        assert code == 0
        out = capsys.readouterr().out
        assert "traffic: 4267 messages sent" in out
        assert (
            "digest : c10a08509af34d6078d407a80e32d7502a9f7b8447e682a0f00ef7183d2bd3b0"
            in out
        )
        assert "shards" not in out

    @pytest.mark.parametrize(
        "argv",
        [
            ["demo", "--nodes", "0"],
            ["report", "--nodes", "3", "--classes", "9"],
            ["run", "-n", "40", "--duration", "-1"],
            ["serve", "--queries", "-1"],
            ["query", "SELECT AVG(value) FROM sensors", "--range", "0"],
            ["resume", "missing.ckpt", "--rounds", "-1"],
        ],
        ids=["demo-nodes", "report-classes", "run-duration", "serve-queries",
             "query-range", "resume-rounds"],
    )
    def test_bad_value_is_one_usage_error(self, argv, capsys):
        code = main(argv)
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("repro: error: --")

    def test_demo_runs(self, capsys):
        code = main(["demo", "--nodes", "20", "--classes", "2", "--seed", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "snapshot:" in out
        assert "representatives" in out

    def test_query_aggregate(self, capsys):
        code = main(
            [
                "query",
                "SELECT AVG(value) FROM sensors USE SNAPSHOT",
                "--nodes", "20", "--classes", "2", "--seed", "1", "--sink", "0",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "answer:" in out
        assert "coverage:" in out

    def test_query_with_planner(self, capsys):
        code = main(
            [
                "query",
                "SELECT loc, value FROM sensors",
                "--plan", "--nodes", "20", "--classes", "2", "--seed", "1",
                "--sink", "0",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "plan:" in out
        assert "ran :" in out

    def test_query_syntax_error(self, capsys):
        code = main(["query", "DROP TABLE sensors", "--nodes", "20"])
        assert code == 2
        assert "syntax error" in capsys.readouterr().err

    def test_serve_runs(self, capsys):
        code = main(
            ["serve", "--nodes", "20", "--classes", "2", "--seed", "1",
             "--queries", "40", "--clients", "4", "--templates", "4"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "served : 40 queries" in out
        assert "qps    :" in out
        assert "cache  :" in out

    def test_serve_without_cache(self, capsys):
        code = main(
            ["serve", "--nodes", "20", "--classes", "2", "--seed", "1",
             "--queries", "20", "--clients", "2", "--no-cache"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "(cache off)" in out
        assert "0/20 served cached" in out

    def test_unknown_experiment(self, capsys):
        code = main(["experiment", "fig99"])
        assert code == 2
        assert "unknown experiment" in capsys.readouterr().err


def _write_checkpoint(path) -> None:
    assert main(["checkpoint", str(path), "--nodes", "20", "--rounds", "1"]) == 0


def _cut_in_payload(path, monkeypatch) -> None:
    _write_checkpoint(path)
    data = path.read_bytes()
    payload_start = data.index(b"\n", len(MAGIC)) + 1
    path.write_bytes(data[: (payload_start + len(data)) // 2])


def _cut_in_header(path, monkeypatch) -> None:
    _write_checkpoint(path)
    data = path.read_bytes()
    header_end = data.index(b"\n", len(MAGIC))
    path.write_bytes(data[: (len(MAGIC) + header_end) // 2])


def _mismatched_classes(path, monkeypatch) -> None:
    save_mismatched_checkpoint(make_runtime(n_nodes=10), path, monkeypatch)


DAMAGED = {
    "cut-in-payload": _cut_in_payload,
    "cut-in-header": _cut_in_header,
    "mismatched-classes": _mismatched_classes,
}


@pytest.mark.parametrize("damage", DAMAGED)
def test_unrestorable_checkpoint_is_one_resume_error(
    damage, tmp_path, monkeypatch, capsys
):
    """``repro resume`` on a file it cannot restore exits 2 with one
    ``cannot resume:`` line, never a traceback."""
    path = tmp_path / "run.ckpt"
    DAMAGED[damage](path, monkeypatch)
    capsys.readouterr()
    assert main(["resume", str(path), "--rounds", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("cannot resume: ")
