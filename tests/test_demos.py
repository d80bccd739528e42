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


def test_mac_forgery_game_stdout_is_pinned():
    # The exhaustive forgery table, the bounds and the seeded split-key
    # games are all deterministic, so the whole stdout is pinned.
    proc = run_demo(ROOT / "demos" / "mac_forgery_game.py")
    assert proc.returncode == 0, proc.stderr[-2000:].decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == (
        "fbc20116f593fd5b1e99d6cbc4f42940389b96961ba03f83a157b7abe1045bcf")
