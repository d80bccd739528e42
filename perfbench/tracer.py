"""Layer tracer: wraps qkdnet's boundary functions from outside.

Each boundary is a name some caller looks up at run time (a module
global such as ``qkdnet.sim.full_session`` or a class attribute such as
``qkdnet.transport.LinkKeyPool.take``).  Installing the tracer replaces
those names with wrappers; no source file changes.  A timed wrapper
records the call's duration, its self time (duration minus the time of
traced calls nested inside it) and an optional work weight taken from
its arguments; a counting wrapper only counts calls.  A boundary whose
name no longer exists is reported as missing instead of failing.

The first ``KEEP_SPANS`` spans are kept in memory as
``(id, parent id, unit id, name, start ns, end ns)`` and written out by
the caller at exit; a unit is one trial or one oracle pass.
"""

from __future__ import annotations

import importlib
import math
from array import array
from dataclasses import dataclass
from time import perf_counter_ns

LAYERS = ("mac", "transport", "protocol", "adversary", "sim")
KEEP_SPANS = 20_000


def _hash_multiplies(args) -> int:
    """GF(2^w) multiplies of one ``_hash_value(w, x, value, nbits)`` call:
    one per content block, one for the length block, one final."""
    w, nbits = args[0], args[3]
    return -(-nbits // w) + 2


def _take_bits(args) -> int:
    return args[1]   # LinkKeyPool.take(self, nbits)


@dataclass(frozen=True)
class Spec:
    span: str
    layer: str
    targets: tuple            # (module name or object, "attr" or "Class.attr")
    timed: bool = True
    unit: bool = False        # the span is one unit (trial or oracle pass)
    in_unit: bool = True      # False: runs between units, not inside one
    keep_self: bool = False   # keep per-call self times (for percentiles)
    weigh: object = None      # args -> work units, summed into ``weight``


SPECS = (
    # the Monte-Carlo unit; the oracle pass is a span of the benchmark's own
    Spec("sim.run_trial", "sim", (("qkdnet.sim", "run_trial"),),
         unit=True, keep_self=True),
    # sim layer between units
    Spec("sim.derive_seed", "sim", (("qkdnet.sim", "derive_trial_seed"),),
         in_unit=False),
    Spec("sim.aggregate", "sim", (("qkdnet.sim", "aggregate"),),
         in_unit=False),
    Spec("sim.emit_report", "sim", (("qkdnet.cli", "emit_report"),),
         in_unit=False),
    # sim layer inside units
    Spec("sim.exact_oracles", "sim", (("qkdnet.sim", "exact_oracles"),)),
    Spec("sim.guessing_advantage", "adversary",
         (("qkdnet.sim", "guessing_advantage"),)),
    Spec("sim.oracle.parity_miss", "sim",
         (("qkdnet.sim", "parity_miss_rate_exact"),
          ("qkdnet.sim", "parity_miss_rate_tuple_enumeration"))),
    Spec("sim.oracle.share_privacy", "sim",
         (("qkdnet.sim", "share_privacy_exact"),)),
    Spec("sim.oracle.dpa_uniformity", "sim",
         (("qkdnet.sim", "dpa_uniformity_exact"),)),
    Spec("sim.oracle.mac_forgery", "sim",
         (("qkdnet.sim", "mac_forgery_exact"),)),
    # protocol layer
    Spec("protocol.session", "protocol", (("qkdnet.sim", "full_session"),),
         keep_self=True),
    Spec("protocol.provision", "protocol",
         (("qkdnet.protocol", "provision_pools"),)),
    Spec("protocol.establish", "protocol",
         (("qkdnet.protocol", "_forward_key_over"),)),
    Spec("protocol.challenge", "protocol",
         (("qkdnet.protocol", "_make_challenge"),)),
    Spec("protocol.verify_challenge", "protocol",
         (("qkdnet.protocol", "_verify_challenge"),)),
    Spec("protocol.response", "protocol",
         (("qkdnet.protocol", "_make_response"),)),
    Spec("protocol.verify_response", "protocol",
         (("qkdnet.protocol", "_verify_response"),)),
    Spec("protocol.distill", "protocol",
         (("qkdnet.protocol", "deterministic_pa"),)),
    # transport layer
    Spec("transport.hop", "transport",
         (("qkdnet.transport", "_hop_transfer"),)),
    Spec("transport.pool_take", "transport",
         (("qkdnet.transport", "LinkKeyPool.take"),), weigh=_take_bits),
    # mac layer
    Spec("mac.hash", "mac", (("qkdnet.mac", "_hash_value"),),
         weigh=_hash_multiplies),
    Spec("mac.tag", "mac",
         (("qkdnet.mac", "tag"), ("qkdnet.protocol", "mac_tag"),
          ("qkdnet.sim", "mac_tag"))),
    # adversary layer
    Spec("adversary.intercept", "adversary",
         (("qkdnet.adversary", "ScriptedAdversary.on_key_hop"),
          ("qkdnet.adversary", "ScriptedAdversary.on_classical_hop"),
          ("qkdnet.adversary", "ScriptedAdversary.on_hop_leak"))),
    # bits layer: allocations only
    Spec("bits.from_int", "bits", (("qkdnet.bits", "BitString.from_int"),),
         timed=False),
)


class Boundary:
    """Accumulated calls of one span name."""

    __slots__ = ("spec", "missing", "calls", "weight", "self_ns",
                 "durations", "selfs")

    def __init__(self, spec: Spec):
        self.spec = spec
        self.missing = False
        self.calls = 0
        self.weight = 0
        self.self_ns = 0
        self.durations = array("q")
        self.selfs = array("q") if spec.keep_self else None

    def counts(self) -> tuple:
        return self.calls, self.weight


def _resolve(target):
    """(owner, attribute, raw value) for a target, or None if it is gone."""
    owner, path = target
    if isinstance(owner, str):
        try:
            owner = importlib.import_module(owner)
        except ImportError:
            return None
    *owners, attr = path.split(".")
    for name in owners:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    if isinstance(owner, type):
        raw = owner.__dict__.get(attr)
    else:
        raw = getattr(owner, attr, None)
    if raw is None:
        return None
    return owner, attr, raw


class Tracer:
    def __init__(self, specs=SPECS):
        self.boundaries = {s.span: Boundary(s) for s in specs}
        self.spans: list[tuple] = []
        # frame: [child ns, span id, unit id]; the base frame is no span
        self._stack = [[0, 0, 0]]
        self._next_id = 1
        self._patched: list[tuple] = []

    @property
    def missing(self) -> list[str]:
        return [n for n, b in self.boundaries.items() if b.missing]

    def install(self) -> None:
        resolved = {}
        for name, b in self.boundaries.items():
            found = [_resolve(t) for t in b.spec.targets]
            if any(r is None for r in found):
                b.missing = True
            else:
                resolved[name] = found
        for name, found in resolved.items():
            b = self.boundaries[name]
            for owner, attr, raw in found:
                is_classmethod = isinstance(raw, classmethod)
                func = raw.__func__ if is_classmethod else raw
                wrapper = (self._timed(b, func) if b.spec.timed
                           else self._counted(b, func))
                setattr(owner, attr,
                        classmethod(wrapper) if is_classmethod else wrapper)
                self._patched.append((owner, attr, raw))

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._patched):
            setattr(owner, attr, raw)
        self._patched.clear()

    def snapshot(self) -> dict:
        """Exact call counts and work weights of every present boundary."""
        return {n: b.counts() for n, b in self.boundaries.items()
                if not b.missing}

    @staticmethod
    def _counted(b: Boundary, func):
        def wrapper(*args, **kwargs):
            b.calls += 1
            return func(*args, **kwargs)
        return wrapper

    def _timed(self, b: Boundary, func):
        stack = self._stack
        spans = self.spans
        clock = perf_counter_ns
        durations = b.durations
        selfs = b.selfs
        weigh = b.spec.weigh
        name = b.spec.span
        is_unit = b.spec.unit

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            sid = self._next_id
            self._next_id = sid + 1
            frame = [0, sid, sid if is_unit else parent[2]]
            stack.append(frame)
            t0 = clock()
            try:
                return func(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dt = t1 - t0
                parent[0] += dt
                own = dt - frame[0]
                durations.append(dt)
                b.self_ns += own
                b.calls += 1
                if selfs is not None:
                    selfs.append(own)
                if weigh is not None:
                    b.weight += weigh(args)
                if len(spans) < KEEP_SPANS:
                    spans.append((sid, parent[1], frame[2], name, t0, t1))
        return wrapper


def unit_of(metric: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if metric.endswith((".p50", ".p99")):
        return "us"
    if metric.endswith("pool_bits_per_trial"):
        return "bits"
    if metric.endswith("_bytes"):
        return "bytes"
    if metric.endswith(("_per_trial", "_calls")):
        return "count"
    if metric.endswith((".share", "_frac")):
        return "fraction"
    return metric.rsplit("_", 1)[1]   # _ms, _s


def percentile(values, q: float) -> float:
    """Nearest-rank percentile; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return float(ordered[max(0, math.ceil(q * len(ordered)) - 1)])


def layer_metrics(tracer: Tracer, root: str) -> dict:
    """Per-layer figures from a traced run; None marks a missing boundary.

    Per-trial counts divide by the calls of ``root`` (the unit span).
    ``<layer>.share`` is the layer's self time inside units over the
    total time of the units, so the five shares sum to about 1; wrapper
    cost lands in the caller's self time.
    """
    b_all = tracer.boundaries
    units = 0 if b_all[root].missing else b_all[root].calls
    out = {}

    def present(span):
        return not b_all[span].missing and units > 0

    def pct(metric, span, selfs=False):
        b = b_all[span]
        values = b.selfs if selfs else b.durations
        for label, q in (("p50", 0.5), ("p99", 0.99)):
            out[f"{metric}.{label}"] = (
                percentile(values, q) / 1e3 if present(span) else None)

    def per_unit(metric, span, weight=False):
        b = b_all[span]
        out[metric] = ((b.weight if weight else b.calls) / units
                       if present(span) else None)

    def ms(metric, span, per_unit_total=False):
        b = b_all[span]
        if not present(span):
            out[metric] = None
        elif per_unit_total:
            out[metric] = sum(b.durations) / units / 1e6
        else:
            out[metric] = percentile(b.durations, 0.5) / 1e6

    pct("mac.hash_us", "mac.hash")
    per_unit("mac.hash_calls_per_trial", "mac.hash")
    per_unit("mac.hash_blocks_per_trial", "mac.hash", weight=True)
    per_unit("mac.tag_calls", "mac.tag")
    pct("transport.hop_us", "transport.hop")
    per_unit("transport.hops_per_trial", "transport.hop")
    pct("transport.pool_take_us", "transport.pool_take")
    per_unit("transport.pool_bits_per_trial", "transport.pool_take",
             weight=True)
    for phase in ("provision", "establish", "challenge", "verify_challenge",
                  "response", "verify_response", "distill"):
        pct(f"protocol.{phase}_us", f"protocol.{phase}")
    per_unit("protocol.distill_calls_per_trial", "protocol.distill")
    pct("protocol.session_self_us", "protocol.session", selfs=True)
    pct("adversary.intercept_us", "adversary.intercept")
    per_unit("adversary.intercepts_per_trial", "adversary.intercept")
    pct("sim.trial_self_us", "sim.run_trial", selfs=True)
    pct("sim.derive_seed_us", "sim.derive_seed")
    pct("sim.run_trial_us", "sim.run_trial")
    per_unit("sim.guessing_advantage_calls", "sim.guessing_advantage")
    pct("sim.guessing_advantage_us", "sim.guessing_advantage")
    ms("sim.emit_report_ms", "sim.emit_report")
    ms("sim.aggregate_ms", "sim.aggregate")
    for check in ("parity_miss", "share_privacy", "dpa_uniformity",
                  "mac_forgery"):
        ms(f"sim.oracle.{check}_ms", f"sim.oracle.{check}",
           per_unit_total=True)
    per_unit("bits.allocs_per_trial", "bits.from_int")

    total = sum(b_all[root].durations) if units else 0
    for layer in LAYERS:
        spans = [b for b in b_all.values()
                 if b.spec.layer == layer and b.spec.timed and b.spec.in_unit]
        if total and not any(b.missing for b in spans):
            out[f"{layer}.share"] = sum(b.self_ns for b in spans) / total
        else:
            out[f"{layer}.share"] = None
    return out
