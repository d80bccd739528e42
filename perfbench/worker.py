"""Child process of the benchmark: one set-up probe or one timed run.

    python3 perfbench/worker.py setup --workload W --seed S
    python3 perfbench/worker.py timed --workload W --seed S --seconds T --trace 0|1

Each prints one JSON object as its last line.  ``run.py`` starts every
worker in a fresh interpreter, so set-up is measured cold and the timed
run's peak RSS is its own.  qkdnet is imported from ``src/`` of the
checkout that holds this file.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import io
import json
import random
import resource
import statistics
import sys
import traceback
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
if not (ROOT / "src" / "qkdnet").is_dir():
    sys.exit(f"perfbench: {ROOT / 'src' / 'qkdnet'} not found")
sys.path.insert(0, str(ROOT / "src"))

from tracer import SPECS, Spec, Tracer, layer_metrics  # noqa: E402
from workloads import (  # noqa: E402
    INPUTS,
    ORACLE_CONFIGS,
    ORACLE_PARAMS,
    ORACLE_SEED,
    RECORDED,
    WORKLOADS,
    gated_digest,
    load_doc,
)

MIN_PASSES = 3
#: The host's speed drifts by 20% and more within seconds (shared
#: physical cores), and trials slow down with it.  Each timed figure is
#: divided by the host's slowdown, measured by ``reference_kernel`` right
#: before and after a pass or a set-up probe.  REF_NOMINAL_S is a fixed
#: scale, the kernel's time on a quiet Intel Xeon with 2 vCPUs under
#: CPython 3.11.7, so figures read as that host's.
REF_LOOPS = 100_000
REF_SESSIONS = 2_000
REF_NOMINAL_S = 0.1
#: Extra per-layer metrics computed here rather than by ``layer_metrics``.
EXTRA_LAYER_METRICS = ("trace.overhead_frac", "sim.report_bytes")


def trial_seed(master_seed: int, index: int) -> int:
    """The documented trial seed scheme, recomputed independently."""
    digest = hashlib.sha256(f"qkdnet:{master_seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


@dataclasses.dataclass(frozen=True)
class Pass:
    units: int          # trials, or 1 for an oracle pass
    seconds: float
    failed: int
    report_bytes: int
    ref_s: float = 0.0  # reference kernel time around the pass


@dataclasses.dataclass(frozen=True)
class Job:
    doc: str
    argv: tuple
    out: Path
    run_seed: int
    test_bits: int


class MonteCarlo:
    """One pass runs ``qkdnet run --out`` on every document of a workload
    and checks what it wrote."""

    root_span = "sim.run_trial"
    specs = ()

    def __init__(self, wl, seed: int):
        from qkdnet import cli

        self.cli = cli
        self.wl = wl
        self.seed = seed
        self.jobs = []
        for doc in wl.docs:
            d = load_doc(doc)
            run_seed = d["seed"] + seed
            out = WORK / "out" / Path(doc).stem
            self.jobs.append(Job(
                doc,
                ("run", "--scenario", str(INPUTS / doc),
                 "--trials", str(wl.trials), "--seed", str(run_seed),
                 "--out", str(out)),
                out, run_seed,
                d["params"]["n"] - 2 * d["params"]["s"],
            ))
        self.first_rows: dict = {}
        self.digests: dict = {}

    def run_pass(self) -> Pass:
        elapsed = 0.0
        failed = 0
        nbytes = 0
        for job in self.jobs:
            t0 = perf_counter()
            try:
                with redirect_stdout(io.StringIO()):
                    rc = self.cli.main(list(job.argv))
            except Exception:   # a crash is a failed pass, not a dead run
                traceback.print_exc()
                rc = None
            elapsed += perf_counter() - t0
            failed += self._check(job, rc)
            if job.out.is_dir():
                nbytes += sum(f.stat().st_size for f in job.out.iterdir())
        return Pass(self.wl.trials * len(self.jobs), elapsed, failed, nbytes)

    def _check(self, job: Job, rc) -> int:
        """Number of trials of this job that fail the correctness gate."""
        trials = self.wl.trials
        if rc != 0:
            return trials
        try:
            with open(job.out / "trials.jsonl") as fh:
                records = [json.loads(line) for line in fh]
            summary = json.loads((job.out / "summary.json").read_text())
        except (OSError, ValueError):
            traceback.print_exc()
            return trials
        successes = sum(r["succeeded"] for r in records)
        digest = gated_digest(records)
        self.digests[job.doc] = digest
        if (len(records) != trials or summary["trials"] != trials
                or summary["successes"] != successes):
            return trials
        if self.seed == 0 and RECORDED[job.doc] != (digest, successes):
            print(f"gate: {job.doc} digest {digest} successes {successes} "
                  f"!= recorded {RECORDED[job.doc]}", file=sys.stderr)
            return trials
        rows = [(r["index"], r["seed"], r["result"], r["result_prime"],
                 r["delta"], r["succeeded"], r["final_key_len"],
                 r["trash_size"]) for r in records]
        first = self.first_rows.setdefault(job.doc, rows)
        bad = 0
        for i, row in enumerate(rows):
            index, seed, result, result_prime, delta, ok, key_len, trash = row
            bad += (
                row != first[i]
                or index != i
                or seed != trial_seed(job.run_seed, i)
                or ok != int(result == result_prime == delta)
                or (key_len is not None and key_len + trash != job.test_bits)
                or (self.wl.all_succeed and not ok)
            )
        return bad


class Oracles:
    """One pass runs the exhaustive oracles at the ``qkdnet oracle``
    defaults and the criterion-6 forgery enumeration at w=4, which goes
    through the public ``tag``/``MacKey`` API.  Every check must be
    exact and repeat line for line."""

    root_span = "sim.oracle_pass"

    @property
    def specs(self) -> tuple:
        return (Spec(self.root_span, "sim", ((Oracles, "unit"),), unit=True),)

    def __init__(self, wl, seed: int):
        from qkdnet import sim
        from qkdnet.protocol import SecurityParams

        self.sim = sim
        self.params = SecurityParams(**ORACLE_PARAMS)
        self.oracle_seed = ORACLE_SEED + seed
        self.first_lines = None
        self.digests: dict = {}

    def unit(self):
        report = self.sim.exact_oracles(
            self.params, dpa_configs=ORACLE_CONFIGS,
            oracle_seed=self.oracle_seed,
        )
        return report, self.sim.mac_forgery_exact(4, 4)

    def run_pass(self) -> Pass:
        t0 = perf_counter()
        try:
            report, forgery = self.unit()
        except Exception:
            traceback.print_exc()
            report = None
        elapsed = perf_counter() - t0
        ok = (report is not None and report.all_exact
              and forgery <= Fraction(2, 1 << 4))
        if ok:
            lines = (*report.lines(),
                     f"mac_forgery(w=4, one block): {forgery}")
            if self.first_lines is None:
                self.first_lines = lines
                self.digests["oracles"] = hashlib.sha256(
                    "\n".join(lines).encode()).hexdigest()
            ok = lines == self.first_lines
        return Pass(1, elapsed, 0 if ok else 1, 0)


def make_runner(name: str, seed: int):
    wl = WORKLOADS[name]
    return (MonteCarlo if wl.docs else Oracles)(wl, seed)


@dataclasses.dataclass(frozen=True)
class _Record:
    index: int
    low: int
    node: object


class _Node:
    __slots__ = ("value", "bits")

    def __init__(self, value: int, bits: int):
        self.value = value
        self.bits = bits

    def xor(self, other: "_Node") -> "_Node":
        return _Node(self.value ^ other.value, self.bits)


def _mix(acc: int, i: int) -> int:
    return (acc * 31 + i) & 0xFFFFFFFF


def reference_kernel() -> float:
    """Seconds taken by fixed pure-Python work shaped like a trial: calls,
    dict stores, small and 256-bit integer arithmetic, sha256-seeded
    RNGs, slotted objects and frozen dataclasses."""
    t0 = perf_counter()
    table = {}
    acc = 0
    big = 1
    mask = (1 << 256) - 1
    for i in range(REF_LOOPS):
        acc = _mix(acc, i)
        table[i & 1023] = acc
        big = ((big << 1) ^ acc) & mask
    node = _Node(0, 256)
    records = []
    for i in range(REF_SESSIONS):
        digest = hashlib.sha256(b"ref:%d" % i).digest()
        rng = random.Random(int.from_bytes(digest[:8], "big"))
        for _ in range(8):
            node = node.xor(_Node(rng.getrandbits(256), 256))
            table[(i * 7 + node.value) & 1023] = node
        records.append(_Record(i, node.value & 0xFF, node))
        if len(records) > 64:
            records.clear()
    return perf_counter() - t0


def speed(ref_s: float) -> float:
    """Host slowdown against the nominal machine (>1 means slower)."""
    return ref_s / REF_NOMINAL_S


def measure(run_pass, seconds: float, min_passes: int) -> list:
    """Passes until ``seconds``, with the reference kernel timed between
    passes; each pass gets the mean kernel time on either side of it."""
    passes = []
    deadline = perf_counter() + seconds
    before = reference_kernel()
    while len(passes) < min_passes or perf_counter() < deadline:
        p = run_pass()
        after = reference_kernel()
        passes.append(dataclasses.replace(p, ref_s=(before + after) / 2))
        before = after
    return passes


def normalised_rate(p: Pass) -> float:
    return p.units / p.seconds * speed(p.ref_s)


def run_traced(runner, specs, seconds: float, min_passes: int):
    """Traced passes: (tracer, passes, exact counts of each pass)."""
    tracer = Tracer(specs + runner.specs)
    counts = []

    def traced_pass():
        before = tracer.snapshot()
        p = runner.run_pass()
        after = tracer.snapshot()
        counts.append({k: (after[k][0] - before[k][0],
                           after[k][1] - before[k][1]) for k in after})
        return p

    tracer.install()
    try:
        passes = measure(traced_pass, seconds, min_passes)
    finally:
        tracer.uninstall()
    return tracer, passes, counts


def peak_rss_mb() -> float:
    kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024


def cmd_setup(args) -> dict:
    """Cold start: import, load, path discovery, first trial."""
    wl = WORKLOADS[args.workload]
    ref_before = reference_kernel()
    t0 = perf_counter()
    import qkdnet.cli  # noqa: F401
    t1 = perf_counter()
    if wl.docs:
        from qkdnet import sim

        scenarios = [sim.load_scenario(str(INPUTS / d)) for d in wl.docs]
        t2 = perf_counter()
        paths = [sim.vertex_disjoint_paths(s.graph, s.a, s.b, s.params.ell)
                 for s in scenarios]
        t3 = perf_counter()
        for s, p in zip(scenarios, paths):
            sim.run_trial(s, sim.derive_trial_seed(s.seed + args.seed, 0),
                          0, paths=p)
    else:
        from qkdnet.bits import BitString
        from qkdnet.mac import MacKey, tag
        from qkdnet.protocol import SecurityParams

        params = SecurityParams(**ORACLE_PARAMS)
        t2 = t3 = perf_counter()
        tag(MacKey(BitString.zeros(params.s)), BitString.zeros(params.n))
    t4 = perf_counter()
    slow = speed((ref_before + reference_kernel()) / 2)
    return {"setup_s": (t4 - t0) / slow, "import_s": (t1 - t0) / slow,
            "load_s": (t2 - t1) / slow, "paths_s": (t3 - t2) / slow,
            "first_trial_s": (t4 - t3) / slow, "raw_setup_s": t4 - t0,
            "speed": slow}


def cmd_timed(args) -> dict:
    runner = make_runner(args.workload, args.seed)
    warm = runner.run_pass()   # lazy tables and caches fill; checked, untimed
    if not args.trace:
        passes = measure(runner.run_pass, args.seconds, MIN_PASSES)
        out = {"peak_rss_mb": peak_rss_mb()}
    else:
        passes = measure(runner.run_pass, args.seconds / 2, MIN_PASSES)
        tracer, traced, counts = run_traced(runner, SPECS, args.seconds / 2,
                                            2)
        layer = layer_metrics(tracer, runner.root_span)
        layer["trace.overhead_frac"] = (
            statistics.median(map(normalised_rate, passes))
            / statistics.median(map(normalised_rate, traced)) - 1)
        layer["sim.report_bytes"] = float(passes[-1].report_bytes)
        out = {
            "layer": layer,
            "missing": tracer.missing,
            "counts_identical": all(c == counts[0] for c in counts),
            "counts": counts[0],
        }
        WORK.mkdir(exist_ok=True)
        with open(WORK / f"spans_{args.workload}.jsonl", "w") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
        passes += traced
    every = [warm] + passes
    out.update(
        rates=[normalised_rate(p) for p in passes],
        raw_rates=[p.units / p.seconds for p in passes],
        speeds=[speed(p.ref_s) for p in passes],
        attempted=sum(p.units for p in every),
        failed=sum(p.failed for p in every),
        digests=runner.digests,
    )
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench-worker")
    parser.add_argument("mode", choices=("setup", "timed"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = (cmd_setup if args.mode == "setup" else cmd_timed)(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
