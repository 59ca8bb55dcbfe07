"""CLI coverage for ``repro fleet`` — parsing plus a real subprocess
control-plane round trip (start → status → reconfigure → stop)."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

import pytest

from repro.cli import build_parser
from repro.fleet import read_status

REPO = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


class TestParser:
    def test_start_defaults(self):
        args = build_parser().parse_args(["fleet", "start", "--dir", "/tmp/f"])
        assert args.fleet_command == "start"
        assert args.dir == "/tmp/f"
        assert args.slice == 25.0
        assert args.slices is None
        assert args.checkpoint_every == 8
        assert not args.chaos
        assert not args.no_probes

    def test_start_options(self):
        args = build_parser().parse_args(
            ["fleet", "start", "--dir", "/tmp/f", "--slices", "40",
             "--chaos", "--coverage-floor", "0.5", "--msg-ceiling", "9"]
        )
        assert args.slices == 40
        assert args.chaos
        assert args.coverage_floor == 0.5
        assert args.msg_ceiling == 9.0

    def test_reconfigure_set_pairs(self):
        args = build_parser().parse_args(
            ["fleet", "reconfigure", "--dir", "/tmp/f",
             "--set", "loss=0.1", "--set", "cache_policy=round-robin"]
        )
        assert args.set == ["loss=0.1", "cache_policy=round-robin"]

    def test_parse_change_json_and_raw(self):
        from repro.cli import _parse_change

        change = _parse_change(["loss=0.25", "cache_policy=round-robin"])
        assert change == {"loss": 0.25, "cache_policy": "round-robin"}
        with pytest.raises(ValueError):
            _parse_change(["nonsense"])


def _cli(*argv: str, **kwargs):
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO, "src"))
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", *argv],
        capture_output=True, text=True, timeout=120, env=env, **kwargs,
    )


@pytest.mark.soak
def test_fleet_control_plane_round_trip(tmp_path):
    """Operate a real fleet subprocess through its file control plane."""
    fleet_dir = str(tmp_path / "fleet")
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO, "src"))
    start = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "fleet", "start",
         "--dir", fleet_dir, "--nodes", "16", "--seed", "3",
         "--slice", "5", "--pace", "0.2", "--poll", "0.05",
         "--checkpoint-every", "4", "--slices", "500"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env,
    )
    try:
        # The runner publishes status.json once slicing begins.
        deadline = time.monotonic() + 60.0
        status = None
        while time.monotonic() < deadline:
            status = read_status(fleet_dir)
            if status is not None and status.get("slices_done", 0) >= 1:
                break
            assert start.poll() is None, (
                f"fleet start died early:\n{start.stdout.read()}"
            )
            time.sleep(0.1)
        assert status is not None and status["slices_done"] >= 1
        assert status["running"] is True
        assert status["n_nodes"] == 16

        # `fleet status` renders the same file.
        shown = _cli("fleet", "status", "--dir", fleet_dir)
        assert shown.returncode == 0, shown.stderr
        assert json.loads(shown.stdout)["n_nodes"] == 16

        # A bad reconfiguration is rejected when it is dequeued; the
        # fleet keeps slicing and still applies the good one after it.
        bad = _cli("fleet", "reconfigure", "--dir", fleet_dir,
                   "--set", "cache_policy=bogus")
        assert bad.returncode == 0, bad.stderr

        # A reconfiguration submitted through the control plane lands.
        reconf = _cli("fleet", "reconfigure", "--dir", fleet_dir,
                      "--set", "rotation_probability=0.5", "--set", "loss=0.05")
        assert reconf.returncode == 0, reconf.stderr
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            status = read_status(fleet_dir)
            if status and status.get("reconfigurations", 0) >= 1:
                break
            time.sleep(0.1)
        assert status["reconfigurations"] >= 1, "reconfiguration never applied"
        assert status["rotation_probability"] == 0.5

        # `fleet stop --wait` shuts the run down and confirms it.
        stop = _cli("fleet", "stop", "--dir", fleet_dir, "--wait", "60")
        assert stop.returncode == 0, stop.stderr
        assert "stopped" in stop.stdout
        out, _ = start.communicate(timeout=60)
        assert start.returncode == 0, out
        assert "reconfiguration(s)" in out
        assert "rejected reconfiguration" in out

        final = read_status(fleet_dir)
        assert final["running"] is False
        assert final["reconfigurations"] >= 1
        assert final["checkpoints"], "no ring checkpoints on disk"
        assert final["stream_records"] > 0
    finally:
        if start.poll() is None:
            start.kill()
            start.wait(timeout=30)


@pytest.mark.soak
def test_fleet_status_without_a_fleet_exits_2(tmp_path):
    result = _cli("fleet", "status", "--dir", str(tmp_path / "nothing"))
    assert result.returncode == 2
    assert "no fleet status" in result.stderr
