#!/usr/bin/env python3
"""qkdnet benchmark: trial throughput, set-up time and memory per workload.

Run from the repository root:

    python3 perfbench/run.py --workload honest_chains --seed 0 --seconds 15 --trace 0
    python3 perfbench/run.py            # every workload, one after another

One closed-loop caller in one process, no extra threads.  Each
workload first starts ``SETUP_PROBES`` fresh interpreters that import
``qkdnet.cli``, load the workload's scenarios, find their paths and run
the first trial (``setup_s`` is their median), then one fresh timed
worker.  The worker runs one checked warm-up pass and then timed passes
for ``--seconds``; a Monte-Carlo pass is ``qkdnet run --out`` on every
document of the workload, an oracle pass is one ``exact_oracles`` call.

``--trace 0`` reports the end-to-end metrics:
  trials_per_s  trials per second of a pass, median over passes; on
                ``oracles`` a trial is one oracle pass
  setup_s       cold set-up time, median over the probes
  peak_rss_mb   peak RSS of the timed worker plus its largest child

The host's speed drifts by about 20% within seconds, so every pass and
probe first times a fixed reference kernel and its figures are divided
by the measured slowdown (see ``worker.REF_NOMINAL_S``).  The raw
figures and the slowdowns are in the provenance line.

``--trace 1`` spends half the time untraced and half with every layer
boundary wrapped (see ``tracer.py``) and reports per-layer metrics.

Every pass is checked: the run's exit code (PASS verdict), the written
``trials.jsonl`` and ``summary.json`` against each other, trial seeds
and invariants, identical outcomes on every pass and, at ``--seed 0``,
the recorded digest and success count of each document.  The last line
of output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``; the line before it holds provenance and the spread of
each metric.  Exit code 0 when every check passes, 1 when one fails,
2 when the benchmark cannot run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from tracer import unit_of
from workloads import WORKLOADS, load_doc

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 3
#: Seconds a workload may take beyond ``--seconds`` before its worker is
#: killed; a run must end within 180 s.
BUDGET_S = 150


class BenchError(Exception):
    """The benchmark could not run (as opposed to a failed check)."""


def _worker(args: list, deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    timeout = max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"timed out after {timeout:.0f} s: {cmd}") from exc
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"exit {proc.returncode}: {' '.join(cmd)}")
    return json.loads(lines[-1])


def quartiles(values: list) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"q1": q1, "median": med, "q3": q3, "n": len(values)}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    """HEAD of the checkout when it is a git work tree, else unknown."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def _version(dist: str) -> str:
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return "missing"


def provenance(name: str, seed: int, seconds: float, trace: int) -> dict:
    wl = WORKLOADS[name]
    return {
        "workload": name,
        "seed": seed,
        "document_seeds": {d: load_doc(d)["seed"] + seed for d in wl.docs},
        "seconds": seconds,
        "trace": trace,
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "commit": _git_commit(),
    }


def run_workload(name: str, seed: int, seconds: float, trace: int):
    """(result object, provenance with spreads) for one workload."""
    deadline = time.monotonic() + seconds + BUDGET_S
    common = ["--workload", name, "--seed", str(seed)]
    probes = [_worker(["setup", *common], deadline)
              for _ in range(SETUP_PROBES)]
    timed = _worker(["timed", *common, "--seconds", str(seconds),
                     "--trace", str(trace)], deadline)

    def probe(key):
        return [p[key] for p in probes]

    spread = {key: quartiles(probe(key))
              for key in ("setup_s", "raw_setup_s", "speed")}
    spread.update(trials_per_s=quartiles(timed["rates"]),
                  raw_trials_per_s=quartiles(timed["raw_rates"]),
                  pass_speed=quartiles(timed["speeds"]))
    if trace:
        metrics = {k: (v, unit_of(k)) for k, v in timed["layer"].items()}
        for key, metric, scale in (("import_s", "setup.import_s", 1),
                                   ("load_s", "setup.load_ms", 1e3),
                                   ("paths_s", "network.paths_ms", 1e3),
                                   ("first_trial_s", "setup.first_trial_ms",
                                    1e3)):
            values = [v * scale for v in probe(key)]
            spread[metric] = quartiles(values)
            metrics[metric] = (statistics.median(values), unit_of(metric))
        correct = timed["failed"] == 0 and timed["counts_identical"]
    else:
        metrics = {
            "trials_per_s": (statistics.median(timed["rates"]), "1/s"),
            "setup_s": (statistics.median(probe("setup_s")), "s"),
            "peak_rss_mb": (timed["peak_rss_mb"], "MB"),
        }
        correct = timed["failed"] == 0
    prov = provenance(name, seed, seconds, trace)
    prov.update(spread=spread, digests=timed["digests"])
    if trace:
        prov.update(missing=timed["missing"],
                    counts_identical=timed["counts_identical"],
                    counts_per_pass=timed["counts"])
    result = {
        "correct": correct,
        "attempted": timed["attempted"],
        "failed": timed["failed"],
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    return result, prov


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="perfbench", description=__doc__,
        formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="one workload (default: all, in turn)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = [args.workload] if args.workload else list(WORKLOADS)
    try:
        runs = [(n, *run_workload(n, args.seed, args.seconds, args.trace))
                for n in names]
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"perfbench: cannot run: {exc}", file=sys.stderr)
        return 2
    for name, result, prov in runs:
        for metric, m in result["metrics"].items():
            print(f"{name} {metric} {m['value']} {m['unit']}")
        print(json.dumps({"provenance": prov}))
    if len(runs) == 1:
        final = runs[0][1]
    else:
        final = {
            "correct": all(r["correct"] for _, r, _ in runs),
            "attempted": sum(r["attempted"] for _, r, _ in runs),
            "failed": sum(r["failed"] for _, r, _ in runs),
            "metrics": {f"{n}.{k}": v for n, r, _ in runs
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
