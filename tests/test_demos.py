"""Every demo script runs to completion against the current package
and prints its pinned stdout."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

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


#: sha256 of the whole stdout of each demo; a pin also asserts exit
#: status 0.  Every demo is deterministic, so every demo is pinned.
STDOUT_SHA256 = {
    "mac_forgery_game.py":
        "fbc20116f593fd5b1e99d6cbc4f42940389b96961ba03f83a157b7abe1045bcf",
    "connectivity_planning.py":
        "d21488f7574b60af6fde11d4ffc8584c1d36b0c7082534a64d9a9d4b09e35148",
    "byzantine_strategies.py":
        "c081ad6bbbe57ada12303f5042ddd2ab062cdcac83ce0d1eaa53c893f6deb900",
    "two_path_session.py":
        "fb2cad233c78f551110ef468095b112ad61da70e8dd4e8a792128df3a009b42f",
    "privacy_amplification.py":
        "a8e4e78a0f98bde6ef0c5f6e61715c5fc68f0ad7b32431bd129b93a5540b5260",
}


def test_every_demo_is_pinned():
    assert sorted(p.name for p in DEMOS) == sorted(STDOUT_SHA256)


def assert_stdout_pinned(script):
    proc = run_demo(ROOT / "demos" / script)
    assert proc.returncode == 0, proc.stderr[-2000:].decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == STDOUT_SHA256[script]


def test_mac_forgery_game_stdout_is_pinned():
    # The exhaustive forgery table, the bounds and the seeded split-key
    # games are all deterministic, so the whole stdout is pinned.
    assert_stdout_pinned("mac_forgery_game.py")


def test_connectivity_planning_stdout_is_pinned():
    # The grid mesh's max-flow paths.
    assert_stdout_pinned("connectivity_planning.py")


def test_byzantine_strategies_stdout_is_pinned():
    # Four seeded 4000-trial runs; the failure-tag table reads the
    # tamper_shares run of the strategy table.
    assert_stdout_pinned("byzantine_strategies.py")


def test_two_path_session_stdout_is_pinned():
    # Both sessions draw from Random(7): the honest run, then the one
    # with a tampering repeater.
    assert_stdout_pinned("two_path_session.py")


def test_privacy_amplification_stdout_is_pinned():
    # Fixed keys and vectors, then the exhaustive uniformity oracle.
    assert_stdout_pinned("privacy_amplification.py")
