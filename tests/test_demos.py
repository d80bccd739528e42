"""Every demo script runs to completion against the current package."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_demo(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(script)], cwd=ROOT, env=env,
        capture_output=True, timeout=300,
    )


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_exits_zero(script):
    proc = run_demo(script)
    assert proc.returncode == 0, proc.stderr[-2000:].decode()


def assert_stdout_pinned(script, digest):
    proc = run_demo(ROOT / "demos" / script)
    assert proc.returncode == 0, proc.stderr[-2000:].decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == digest


def test_mac_forgery_game_stdout_is_pinned():
    # The exhaustive forgery table, the bounds and the seeded split-key
    # games are all deterministic, so the whole stdout is pinned.
    assert_stdout_pinned("mac_forgery_game.py",
        "fbc20116f593fd5b1e99d6cbc4f42940389b96961ba03f83a157b7abe1045bcf")


def test_connectivity_planning_stdout_is_pinned():
    # The path-count table and the grid mesh's max-flow paths.
    assert_stdout_pinned("connectivity_planning.py",
        "2ffeb2d82b69d6275369c9d99f551d9744bfa2d48700454786941e254de784aa")


def test_byzantine_strategies_stdout_is_pinned():
    # Four seeded 4000-trial runs; the failure-tag table reads the
    # tamper_shares run of the strategy table.
    assert_stdout_pinned("byzantine_strategies.py",
        "c081ad6bbbe57ada12303f5042ddd2ab062cdcac83ce0d1eaa53c893f6deb900")
