"""Scenario ingestion, Monte-Carlo execution, and bound validation.

A scenario is a JSON document naming the graph, endpoints, security
parameters, adversary script, and trial budget.  Trials are
shared-nothing: trial i runs on one module-level generator reseeded
with ``derive_trial_seed(seed, i)``, whose stream is that of
``random.Random(derive_trial_seed(seed, i))``, so any subset replays
bit-for-bit and aggregate statistics do not depend on execution order.

The empirical agreement frequency is compared against the lower bound

    (1 - eps) * (1 - 2^-m) * (1 - p_im)^(2*ell - 2)

by the exact Clopper-Pearson interval at ``CONFIDENCE`` (99%), with p_im
= L/2^w the challenge's forgery bound; the privacy figure reported
alongside is 2^-m + 2*ell*p_im + 2*eps.  Exhaustive
small-instance oracles validate the parity-miss rate, share privacy,
distillation uniformity, and the MAC forgery bound with zero tolerance.
The oracles import numpy when they run; loading, running and reporting
a w = 8 scenario does not.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import sys
from collections import namedtuple
from fractions import Fraction
from pathlib import Path

from .adversary import (
    DEFAULT_STRATEGIES,
    AdversaryView,
    corrupt,
    guessing_advantage,
)
from .errors import (
    InsufficientConnectivity,
    OutOfRange,
    ParameterViolation,
    ParseError,
    TooLarge,
    ValidationError,
    shown,
)
from . import mac, protocol
from .mac import impersonation_bound
from .mac import tag as mac_tag  # noqa: F401  (perfbench counts calls here)
from .network import NetworkGraph, QkdLink, vertex_disjoint_paths
from .protocol import (
    EVENTS,
    SecurityParams,
    _TrialRecord,
    deterministic_pa,
    full_session,
)


class Scenario(namedtuple("Scenario",
                          "name graph params adversary trials seed paths")):
    """A validated simulation configuration, with the ``ell`` disjoint
    paths every trial rides on; its endpoints ``a`` and ``b`` are the
    path set's."""

    __slots__ = ()

    @property
    def a(self) -> str:
        return self.paths.a

    @property
    def b(self) -> str:
        return self.paths.b


def _require(condition, message):
    if not condition:
        raise ValidationError(message)


#: Each kind of scenario field: the JSON types it accepts and the noun
#: its error message uses.  A bool is of no kind but "bool".
_KINDS = {
    "integer": (int, "an integer"), "number": ((int, float), "a number"),
    "bool": (bool, "true or false"), "string": (str, "a string"),
    "list": (list, "a list"), "object": (dict, "an object"),
    "strings": (list, "a list of strings"),
    "object_or_null": ((dict, type(None)), "an object or null"),
}


def _coerce(kind, value, field, where):
    """``value`` if it is of ``kind`` (a number as a float), else a
    ValidationError naming ``field`` of the ``where`` object."""
    types, noun = _KINDS[kind]
    if (isinstance(value, types) and isinstance(value, bool) == (kind == "bool")
            and (kind != "strings" or all(isinstance(v, str) for v in value))):
        try:
            return float(value) if kind == "number" else value
        except OverflowError:
            pass
    what = repr(field) if where == "scenario" else f"{where} {field!r}"
    raise ValidationError(f"{what} must be {noun}, got {value!r}")


_REQUIRED = object()

#: Every field of each scenario object, as (kind, default); a document
#: must give a ``_REQUIRED`` field.  An omitted field whose default is
#: None stays None: an empty adversary, or an unchecked ``w`` or ``t``.
_FIELDS = {
    "scenario": {
        "name": ("string", "unnamed"), "nodes": ("strings", _REQUIRED),
        "links": ("list", _REQUIRED), "endpoints": ("strings", _REQUIRED),
        "params": ("object", _REQUIRED), "adversary": ("object_or_null", None),
        "trials": ("integer", 1000), "seed": ("integer", 0),
    },
    "params": {
        "n": ("integer", _REQUIRED), "s": ("integer", _REQUIRED),
        "m": ("integer", _REQUIRED), "ell": ("integer", _REQUIRED),
        "w": ("integer", None),
    },
    "link": {
        "a": ("string", _REQUIRED), "b": ("string", _REQUIRED),
        "distance_km": ("number", 0.0), "epsilon": ("number", 0.0),
        "alive": ("bool", True),
    },
    "adversary": {
        "corrupted": ("strings", ()), "t": ("integer", None),
        "strategies": ("strings", DEFAULT_STRATEGIES),
    },
}


def _fields(obj: dict, where: str) -> dict:
    """The fields of ``obj``, a ``where`` object, checked against
    ``_FIELDS`` and with the defaults of omitted ones filled in."""
    fields = _FIELDS[where]
    unknown = sorted(set(obj) - fields.keys(), key=str)
    if unknown:
        raise ValidationError(f"unknown field {unknown[0]!r} in {where}")
    values = {}
    for field, (kind, default) in fields.items():
        if field not in obj and default is _REQUIRED:
            raise ValidationError(f"missing field {field!r} in {where}")
        values[field] = (_coerce(kind, obj[field], field, where)
                         if field in obj else default)
    return values


def load_scenario(source) -> Scenario:
    """Load and validate a scenario from a dict or a path (``str`` or ``Path``).

    ``_FIELDS`` lists every field with its kind and default.  Raises
    :class:`ParseError` for malformed documents and
    :class:`ValidationError` naming the violated invariant otherwise,
    as when corrupted relays sit on all ell paths (the hop plan's marks):
    both bounds assume at most ell-1 controlled paths; nothing else is
    raised.  ``params.w``, a link's ``distance_km`` and ``adversary.t``
    are checked and not kept: no session reads them.  The session's
    epsilon is the largest link epsilon (0.0 with no link), the failure
    probability of the leakiest link key the bounds compose over.
    """
    if isinstance(source, dict):
        doc = source
    else:
        if not isinstance(source, (str, Path)):
            raise ParseError(f"unsupported scenario source {type(source)!r}")
        try:
            text = Path(source).read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"scenario is not UTF-8 text: {exc}") from exc
        try:
            doc = json.loads(text)
        except ValueError as exc:   # an over-long integer literal too
            raise ParseError(f"scenario is not valid JSON: {exc}") from exc
        except RecursionError as exc:
            raise ParseError("scenario JSON is nested too deeply") from exc

    if not isinstance(doc, dict):
        raise ParseError("scenario document must be a JSON object")
    top = _fields(doc, "scenario")

    nodes = top["nodes"]
    _require(len(set(nodes)) == len(nodes), "node names must be unique")
    links = []
    for entry in top["links"]:
        _require(isinstance(entry, dict), "each link must be an object")
        link = _fields(entry, "link")
        km = link.pop("distance_km")
        _require(km >= 0, f"distance_km must be >= 0, got {km}")  # and not NaN
        links.append(QkdLink(**link))
    graph = NetworkGraph(nodes, links)

    _require(len(top["endpoints"]) == 2,
             "endpoints must be a list of two node names")
    a, b = top["endpoints"]

    p = _fields(top["params"], "params")
    w = p.pop("w")
    try:
        params = SecurityParams(
            **p, epsilon=max((l.epsilon for l in links), default=0.0))
    except ParameterViolation as exc:
        raise ValidationError(str(exc)) from exc
    _require(w is None or w * 2 == params.s,
             f"w={w} inconsistent with s={params.s} (s = 2w required)")

    # An omitted or null block is the empty adversary: no corrupted node.
    adv = _fields(top["adversary"] or {}, "adversary")
    adversary = corrupt(graph, adv["corrupted"], endpoints=(a, b),
                        strategies=tuple(adv["strategies"]))
    t, count = adv["t"], len(adversary.corrupted)
    _require(t is None or t >= 0, f"adversary 't' must be >= 0, got {shown(t)}")
    _require(t is None or count <= t,
             f"{count} corrupted nodes exceed t={shown(t)}")

    _require(top["trials"] >= 1, "trials must be >= 1")
    try:
        paths = vertex_disjoint_paths(graph, a, b, params.ell)
    except InsufficientConnectivity as exc:
        raise ValidationError(
            f"graph provides only {exc.max_paths} disjoint paths, "
            f"ell={params.ell} required"
        ) from exc
    routes = protocol._link_plan(graph, paths, adversary.corrupted)
    _require(not all(any(mark for _, mark in hops) for hops in routes),
             f"corrupted relays sit on all {params.ell} paths; the bounds "
             f"assume at most ell-1 = {params.ell - 1} controlled paths")

    return Scenario(
        name=top["name"], graph=graph, params=params,
        adversary=adversary, trials=top["trials"], seed=_check_seed(top["seed"]),
        paths=paths)


def _check_seed(seed: int) -> int:
    """``seed`` if :func:`derive_trial_seed` can write it in decimal,
    else a ValidationError naming the seed."""
    try:
        str(seed)
    except ValueError:   # past the interpreter's int-to-str digit limit
        raise ValidationError(
            f"seed must have at most {sys.get_int_max_str_digits()} digits"
        ) from None
    return seed


def derive_trial_seed(master_seed: int, index: int) -> int:
    """Trial seeds are the first 8 bytes of sha256("qkdnet:<seed>:<i>")."""
    digest = hashlib.sha256(f"qkdnet:{master_seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


class TrialResult(_TrialRecord):
    """One deterministic trial record; ``emit_report`` writes every field."""

    __slots__ = ("index", "seed", "result", "result_prime", "keys_equal",
                 "succeeded", "final_key_len", "trash_size", "leaked_epochs",
                 "failure_tags")

    def __init__(self, index: int, seed: int, result: int, result_prime: int,
                 keys_equal: bool, succeeded: bool, final_key_len: int | None,
                 trash_size: int | None, leaked_epochs: int,
                 failure_tags: tuple):
        self.index = index
        self.seed = seed
        self.result = result
        self.result_prime = result_prime
        self.keys_equal = keys_equal
        self.succeeded = succeeded
        self.final_key_len = final_key_len
        self.trash_size = trash_size
        self.leaked_epochs = leaked_epochs
        self.failure_tags = failure_tags


#: The one trial generator, reseeded by every :func:`run_trial`.
_TRIAL_RNG = random.Random()


def run_trial(scenario: Scenario, trial_seed: int, index: int = 0,
              paths=None) -> TrialResult:
    """Execute one session; the record is a pure function of the seed.

    The session rides ``paths`` (``ell`` paths, default
    ``scenario.paths``); a path set between other endpoints raises
    :class:`ParameterViolation` before any draw.  It runs on one
    module-level generator reseeded with ``trial_seed``: ``seed`` sets
    the whole Mersenne-Twister state and clears the cached Gaussian, so
    the stream equals that of ``random.Random(trial_seed)`` and no
    generator is built per trial.  The generator is shared by the
    process, so trials must not run concurrently in threads, and no
    callback of a trial may call ``run_trial``.
    """
    own = scenario.paths
    if paths is None:
        paths = own
    elif (paths.a, paths.b) != (own.a, own.b):
        raise ParameterViolation(
            f"paths run {paths.a}->{paths.b}, the scenario {own.a}->{own.b}")
    rng = _TRIAL_RNG
    rng.seed(trial_seed)
    outcome = full_session(scenario.graph, paths, scenario.params,
                           scenario.adversary, rng)
    trash = outcome.trash_a
    # positional, in field order: keyword matching costs ~0.5 us a trial
    return TrialResult(
        index, trial_seed, outcome.result, outcome.result_prime,
        outcome.keys_equal, outcome.succeeded,
        None if trash is None else scenario.params.test_bits - len(trash),
        None if trash is None else len(trash),
        outcome.view.leaked_epochs, outcome.events,
    )


def _tail_root(k: int, n: int, log_comb: float, log_target: float,
               start: float, upper: bool) -> float:
    """The p at which the log of the binomial tail P[Bin(n, p) >= k]
    (``upper``) or P[Bin(n, p) <= k] equals ``log_target``.

    The tail is pmf(k) * s: pmf(k) from ``log_comb`` = log C(n, k), and
    s sums the pmf ratios outward from k until a term no longer counts.
    The log tail is monotone and concave in p, so Newton's method
    converges without overshoot from the side where the tail is too
    small; a step from ``start`` on the other side lands on that side,
    clamped at a bound on the root.
    """
    # the tail counts m terms from k up or, mirrored, from n - k up, and
    # is at most C(n, k) x^m with x = p or 1 - p: the root is past edge,
    # which is kept below 1 so that log1p(-p) stays finite
    m = k if upper else n - k
    r = (log_target - log_comb) / m
    edge = min(math.exp(r) if upper else -math.expm1(r),
               math.nextafter(1.0, 0.0))
    clamp = max if upper else min
    # the Wilson start can round onto 0 or 1 (the low one at n = 10^17)
    p = clamp(start, edge) if 0.0 < start < 1.0 else edge
    for _ in range(64):     # converges in under 10 steps; a cap, not a test
        q = 1.0 - p
        odds, x = (p / q, p) if upper else (q / p, -q)
        s = term = 1.0
        for j in range(m, n):
            term *= odds * (n - j) / (j + 1)
            s += term
            if term < 1e-17 * s:
                break
        log_tail = log_comb + k * math.log(p) + (n - k) * math.log1p(-p)
        # d log_tail / dp = m / (x * s)
        step = (log_tail + math.log(s) - log_target) * x * s / m
        p_next = clamp(p - step, edge)
        if p_next == p or abs(step) <= 1e-10 * min(p, q) + math.ulp(p):
            return p_next
        p = p_next
    return p


#: Confidence level of every run's Clopper-Pearson interval.
CONFIDENCE = 0.99
#: -NormalDist().inv_cdf((1 - CONFIDENCE) / 2): the Wilson start's z.
_Z = 2.5758293035489


def clopper_pearson(successes: int, trials: int):
    """Exact binomial (Clopper-Pearson) interval at :data:`CONFIDENCE`.

    With alpha = 1 - CONFIDENCE, the low endpoint is the p at which
    P[Bin(trials, p) >= successes] = alpha/2 (0 at successes = 0) and
    the high endpoint the p at which P[Bin(trials, p) <= successes] =
    alpha/2 (1 at successes = trials).  Each is found by
    :func:`_tail_root`, started from the Wilson score interval and
    summing the tail's pmf terms directly, with log C(n, k) from the
    exact integer ``math.comb``.  Accuracy: up to 40 trials the exact
    rational tail brackets alpha/2 within 16 ulps of each endpoint, and
    up to 100000 trials each endpoint is within 1e-12 relative of
    scipy's ``betaincinv`` (the tests check both).  Raises
    :class:`ValidationError` unless successes and trials are ints (not
    bools), 1 <= trials <= 10^18 (the widest count the tests pin; at
    2^64 trials the root finder can loop without end) and 0 <= successes
    <= trials.
    """
    for name, value in (("successes", successes), ("trials", trials)):
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValidationError(
                f"{name} must be an integer, got {shown(value)}")
    if trials < 1:
        raise ValidationError("trials must be >= 1")
    if trials > 10**18:
        raise ValidationError(f"trials must be <= 10**18, got {shown(trials)}")
    if not 0 <= successes <= trials:
        raise ValidationError(
            f"successes must be in 0..{trials}, got {shown(successes)}")

    k, n, z = successes, trials, _Z
    log_target = math.log((1.0 - CONFIDENCE) / 2)
    log_comb = math.log(math.comb(n, k))
    center = (k + z * z / 2) / (n + z * z)
    half = z * math.sqrt(k * (n - k) / n + z * z / 4) / (n + z * z)
    low = 0.0 if k == 0 else _tail_root(
        k, n, log_comb, log_target, center - half, True)
    high = 1.0 if k == n else _tail_root(
        k, n, log_comb, log_target, center + half, False)
    return low, high


def check_bounds(params: SecurityParams):
    """(p_im, agreement lower bound, privacy failure upper bound); p_im
    is the L/2^w forgery bound of the larger authenticated message."""
    p_im = impersonation_bound(params.word_bits, params.challenge_bits)
    agreement = (
        (1.0 - params.epsilon)
        * (1.0 - 2.0 ** -params.m)
        * (1.0 - p_im) ** (2 * params.ell - 2)
    )
    privacy = 2.0 ** -params.m + 2 * params.ell * p_im + 2 * params.epsilon
    return p_im, agreement, privacy


def bounds_vacuous(agreement: float, privacy: float) -> bool:
    """True when the bounds assert nothing: an agreement bound <= 0 (it
    may have underflowed) or a privacy figure >= 1."""
    return agreement <= 0.0 or privacy >= 1.0


class Stats(namedtuple("Stats", (
        "trials successes empirical ci_low ci_high p_im agreement_bound "
        "privacy_bound verdict degenerate events"))):
    """Aggregated Monte-Carlo estimate versus the analytic bounds;
    ``events`` counts the trials showing each of ``EVENTS``, in its
    order."""

    __slots__ = ()

    @property
    def passed(self) -> bool:
        return self.verdict == "PASS"


#: A run of one scenario (by name) from its resolved master seed.
MonteCarloRun = namedtuple("MonteCarloRun",
                           "stats results scenario master_seed")


def aggregate(results, params: SecurityParams) -> Stats:
    """Order-independent merge of trial results into a verdict.

    The agreement bound is a one-sided lower bound on the success
    probability, so the verdict is PASS iff the interval's lower edge
    clears the bound or the interval contains it (ci_high >= bound).
    A bound that asserts nothing (agreement bound <= 0 or privacy figure
    >= 1) gives the verdict VACUOUS, never PASS.
    """
    trials = len(results)
    successes = sum(r.succeeded for r in results)
    low, high = clopper_pearson(successes, trials)
    p_im, agreement, privacy = check_bounds(params)
    if bounds_vacuous(agreement, privacy):
        verdict = "VACUOUS"
    else:
        verdict = "PASS" if high >= agreement else "FAIL"
    return Stats(
        trials=trials,
        successes=successes,
        empirical=successes / trials,
        ci_low=low,
        ci_high=high,
        p_im=p_im,
        agreement_bound=agreement,
        privacy_bound=privacy,
        verdict=verdict,
        degenerate=trials < 2,
        events=tuple(sum(e in r.failure_tags for r in results) for e in EVENTS),
    )


def run_monte_carlo(
    scenario: Scenario,
    trials: int | None = None,
    seed: int | None = None,
) -> MonteCarloRun:
    """Run independent trials and compare against the analytic bounds."""
    trials = scenario.trials if trials is None else trials
    seed = _check_seed(scenario.seed if seed is None else seed)
    if trials < 1:
        raise ValidationError("trials must be >= 1")
    results = tuple(
        run_trial(scenario, derive_trial_seed(seed, i), i)
        for i in range(trials)
    )
    return MonteCarloRun(
        stats=aggregate(results, scenario.params),
        results=results,
        scenario=scenario.name,
        master_seed=seed,
    )


# --- exhaustive small-instance oracles ------------------------------------


OracleCheck = namedtuple("OracleCheck", "name expected observed exact_match")


class OracleReport(namedtuple("OracleReport", "checks")):
    __slots__ = ()

    @property
    def all_exact(self) -> bool:
        return all(c.exact_match for c in self.checks)

    def lines(self):
        for c in self.checks:
            status = "exact" if c.exact_match else "MISMATCH"
            yield f"{c.name}: expected {c.expected}, observed {c.observed} [{status}]"


#: Exhaustive tables stop at 2^20 parity vectors, tuples or count cells.
EXACT_LIMIT_BITS = 20
#: Entries per numpy block of those tables (128 KiB of int64): larger
#: per-call arrays are mapped afresh by the allocator on every oracle
#: pass, ~200 page faults a pass.
_BLOCK_BITS = 14


def _check_parity_args(key_bits: int, m: int, diff: int) -> None:
    """Both parity oracles' argument checks; ``diff`` is tested by its bit
    length, so no 2^key_bits integer is built."""
    if key_bits < 1 or m < 1:
        raise ValidationError(
            f"key_bits and m must be >= 1, got key_bits={shown(key_bits)}, "
            f"m={shown(m)}")
    if diff < 1 or diff.bit_length() > key_bits:
        raise ValidationError("diff must be a nonzero key_bits-bit value")


def parity_miss_rate_exact(key_bits: int, m: int, diff: int) -> Fraction:
    """Exact miss probability of m random parity challenges against a
    fixed nonzero key difference, by full enumeration of one challenge.

    A vector misses when its parity of ``diff`` is 0: one call of the
    session's ``protocol._parities`` (read per call, as a patch would
    be) over all 2^key_bits vectors.  The m challenges are i.i.d., so
    the tuple-space fraction is that fraction to the m-th power.
    Raises :class:`ValidationError` unless key_bits and m are at least 1
    and ``diff`` is a nonzero key_bits-bit value, and :class:`TooLarge`
    past 2^``EXACT_LIMIT_BITS`` vectors.
    """
    _check_parity_args(key_bits, m, diff)
    if key_bits > EXACT_LIMIT_BITS:
        raise TooLarge(
            f"single-vector enumeration limited to 2^{EXACT_LIMIT_BITS} vectors")
    misses = protocol._parities(range(1 << key_bits), diff).count(0)
    return Fraction(misses, 1 << key_bits) ** m


def parity_miss_rate_tuple_enumeration(key_bits: int, m: int, diff: int) -> Fraction:
    """Literal enumeration over all (2^key_bits)^m challenge tuples.

    Every tuple is materialised as one integer of m key_bits-bit chunks,
    2^``_BLOCK_BITS`` tuples at a time, and each chunk is parity-tested
    against ``diff``: the chunks' popcounts are ORed, so a tuple misses
    when the low bit of the OR is clear, i.e. when every chunk has even
    parity: an independent check of the m-th power
    :func:`parity_miss_rate_exact` takes.  Raises
    :class:`TooLarge` past 2^``EXACT_LIMIT_BITS`` tuples and
    :class:`ValidationError` as :func:`parity_miss_rate_exact` does.
    """
    _check_parity_args(key_bits, m, diff)
    if key_bits * m > EXACT_LIMIT_BITS:
        raise TooLarge(
            f"tuple enumeration limited to 2^{EXACT_LIMIT_BITS} tuples")
    import numpy as np

    total = 1 << (key_bits * m)
    block = min(total, 1 << _BLOCK_BITS)
    test = np.uint32(diff)
    misses = 0
    for start in range(0, total, block):
        tuples = np.arange(start, start + block, dtype=np.uint32)
        odd = np.zeros(block, dtype=np.uint8)
        for j in range(m):
            odd |= np.bitwise_count((tuples >> np.uint32(j * key_bits)) & test)
        misses += block - int(np.count_nonzero(odd & np.uint8(1)))
    return Fraction(misses, total)


def dpa_uniformity_exact(key_bits: int, *configs) -> bool:
    """Exhaustive check of distillation uniformity for each of the
    ``configs``, each a set of ``key_bits``-bit integer parity vectors.

    Enumerates all 2^key_bits keys once and distills the whole key
    table in one call of the production :func:`deterministic_pa` per
    configuration.  Each key's count cell is its configuration, then its
    parity vector (one bit per lambda, the first lambda highest, padded
    with zero bits to the most vectors of any configuration), then its
    distilled key, padded to key_bits; one ``bincount`` gives one row
    per (configuration, parity vector).  The distilled keys within every
    non-empty group must cover each surviving value equally often: every
    row must equal its first entry over the 2^survivors values its
    configuration keeps (an empty row, as under a zero lambda or a
    padding bit, is all zeros).  Those values must also hold all
    2^key_bits keys of the configuration, so that no key lands past
    them.  With no configuration the answer is True.

    A configuration of m vectors needs 2^(key_bits + m) cells, so each
    must keep key_bits + m <= ``EXACT_LIMIT_BITS`` (20): past it,
    :class:`TooLarge` is raised before any table is built, as
    :class:`ValidationError` is for negative key_bits.  The
    configurations are counted in chunks of at most 2^``_BLOCK_BITS``
    cells, or one configuration per chunk where it needs more.
    """
    if key_bits < 0:
        raise ValidationError(f"key_bits must be >= 0, got {shown(key_bits)}")
    for lambdas in configs:
        if key_bits + len(lambdas) > EXACT_LIMIT_BITS:
            raise TooLarge(
                f"uniformity count table limited to 2^{EXACT_LIMIT_BITS} "
                f"cells, got key_bits={key_bits} with {len(lambdas)} vectors")
    import numpy as np

    most = max(map(len, configs), default=0)
    keys = np.arange(1 << key_bits, dtype=np.uint64)
    per_table = max(1, (1 << _BLOCK_BITS) >> (most + key_bits))
    return all(_uniform_rows(keys, key_bits, most,
                             configs[start:start + per_table])
               for start in range(0, len(configs), per_table))


def _uniform_rows(keys, key_bits: int, most: int, configs) -> bool:
    """One count table of :func:`dpa_uniformity_exact`: the ``configs``
    over the key table ``keys``, parity vectors padded to ``most``."""
    import numpy as np

    cells = np.empty((len(configs), keys.size), dtype=np.intp)
    kept = np.empty((len(configs), 1, 1), dtype=np.intp)
    for i, lambdas in enumerate(configs):
        # with every position trashed, the distilled key is the scalar 0
        cells[i], trash = deterministic_pa(keys, key_bits, lambdas)
        kept[i] = 1 << (key_bits - len(trash))
    group = np.arange(len(configs), dtype=np.intp)[:, None]
    for j in range(most):
        lam = np.array([c[j] if j < len(c) else 0 for c in configs],
                       dtype=np.uint64)
        parity = np.bitwise_count(keys & lam[:, None]) & np.uint8(1)
        group = (group << 1) | parity
    cells |= group << key_bits
    counts = np.bincount(cells.ravel(),
                         minlength=len(configs) << (most + key_bits))
    counts = counts.reshape(len(configs), 1 << most, 1 << key_bits)
    first = counts[:, :, :1]
    column = np.arange(1 << key_bits)
    return bool(((counts == first) | (column >= kept)).all()
                and (first.sum(axis=1, keepdims=True) * kept
                     == keys.size).all())


#: Most shares :func:`share_privacy_exact` checks: ell guessing_advantage
#: calls, each after ell - 1 recorded shares, took 0.16-0.19 s at 16-bit
#: and at 6-bit shares at the limit, nearly all of it building and
#: checking the views (2-vCPU Xeon, Python 3.11).
SHARE_PRIVACY_LIMIT = 1024


def _check_share_count(ell: int) -> None:
    """:class:`ValidationError` for no share, :class:`TooLarge` past
    :data:`SHARE_PRIVACY_LIMIT` shares."""
    if ell < 1:
        raise ValidationError(f"share privacy needs at least 1 share, got {ell}")
    if ell > SHARE_PRIVACY_LIMIT:
        raise TooLarge(
            f"share privacy of {ell} shares exceeds {SHARE_PRIVACY_LIMIT}")


def share_privacy_exact(key_bits: int, shares) -> bool:
    """Every (ell-1)-subset of the ell ``key_bits``-bit integer ``shares``
    leaves advantage exactly zero.  With no share, raises
    :class:`ValidationError`, and past :data:`SHARE_PRIVACY_LIMIT`
    shares :class:`TooLarge`, before any view is built."""
    import itertools

    ell = len(shares)
    _check_share_count(ell)
    for known in itertools.combinations(range(ell), ell - 1):
        view = AdversaryView(n_paths=ell, share_bits=key_bits)
        for i in known:
            view.record_share(i, shares[i])
        if guessing_advantage(view) != 0:
            return False
    return True


#: Largest forgery game :func:`mac_forgery_exact` plays, in (key,
#: message) pairs over all 2^(2w) keys: one block at w <= 6 and two
#: blocks at w = 5 fit, one block at w = 8 (2^16 keys x 510 messages)
#: does not.  The oracle hashes every message under each of the 2^w
#: hash keys, one Python call each: 2^-w of this count.
FORGERY_TABLE_LIMIT = 1 << 21


def _forgery_messages(w: int, message_bits: int) -> list:
    """The messages of the forgery game, as ``(value, nbits)`` pairs.

    The first is the observed message (value ``1 % 2^message_bits``);
    the others are every other message that pads to the same block
    count.  Raises :class:`TooLarge` past :data:`FORGERY_TABLE_LIMIT`
    (key, message) pairs.  With hi the padded message length, there are
    at least 2^(hi + 2w) pairs, so that exponent is tested before any
    large count is built.
    """
    content_blocks = -(-message_bits // w)
    lo = max(1, (content_blocks - 1) * w + 1)
    hi = content_blocks * w
    if hi + 2 * w >= FORGERY_TABLE_LIMIT.bit_length() or (
            max(1, (1 << (hi + 1)) - (1 << lo)) << (2 * w)
    ) > FORGERY_TABLE_LIMIT:
        raise TooLarge(
            f"forgery game of 2^{2 * w} keys x at least 2^{hi} messages "
            f"exceeds {FORGERY_TABLE_LIMIT} (key, message) pairs"
        )
    observed = 1 % (1 << message_bits)
    messages = [(observed, message_bits)]
    for nb in range(lo, hi + 1):
        messages += [(v, nb) for v in range(1 << nb)
                     if (v, nb) != (observed, message_bits)]
    return messages


def mac_forgery_exact(w: int, message_bits: int) -> Fraction:
    """Optimal single-pair forgery success by exhaustive key posterior.

    Observes one (message, tag) pair and maximizes acceptance
    probability over forged same-block-count messages and tags, for a
    uniform key x || y.  The tag is h_x(m) XOR y, so the observed pair
    (m0, t0) fits exactly one pad y per hash key x, and the posterior
    is uniform over 2^w keys; a forgery (m, t) is accepted on the x
    with h_x(m) XOR h_x(m0) == t XOR t0, whatever t0 is.  The best
    forgery is therefore the largest count of one (candidate,
    difference) pair over the 2^w hash keys, divided by 2^w.  Every
    hash is one positional call of the session's ``mac._hash_value``.
    Returns an exact Fraction; raises :class:`OutOfRange` for w < 1 or
    message_bits < 0 and :class:`TooLarge` past
    :data:`FORGERY_TABLE_LIMIT` (key, message) pairs.
    """
    if w < 1:
        raise OutOfRange(f"word size must be >= 1, got {shown(w)}")
    if message_bits < 0:
        raise OutOfRange(f"message_bits must be >= 0, got {shown(message_bits)}")
    (v0, n0), *candidates = _forgery_messages(w, message_bits)
    import numpy as np

    hash_value = mac._hash_value    # read per call, so a traced hash counts
    diffs = []
    for x in range(1 << w):
        h0 = hash_value(w, x, v0, n0)
        diffs.append([hash_value(w, x, v, nb) ^ h0 for v, nb in candidates])
    cells = np.array(diffs, dtype=np.intp)
    cells += np.arange(len(candidates)) << w
    peak = np.bincount(cells.ravel(), minlength=1).max()
    return Fraction(int(peak), 1 << w)


#: Cap on ``dpa_configs``: one configuration costs ~12 us at test_bits 8
#: and m = 2, ~1.2 s for a pass at the cap (2-vCPU Xeon, Python 3.11).
MAX_DPA_CONFIGS = 10**5


def exact_oracles(params: SecurityParams, dpa_configs: int = 25,
                  oracle_seed: int = 2024) -> OracleReport:
    """Exhaustive validators at desk scale.

    There is no size rule of its own: an instance too large for one
    oracle raises that oracle's :class:`TooLarge` before its table is
    built (more than :data:`SHARE_PRIVACY_LIMIT` paths, before any share
    is drawn; more than 2^``EXACT_LIMIT_BITS`` parity vectors or
    uniformity cells; a forgery game past :data:`FORGERY_TABLE_LIMIT`).
    Share privacy has no width limit: :func:`guessing_advantage` is the
    one-time pad's closed form (Shannon, BSTJ 1949), exact at any n.
    The parity tuple check runs when test_bits * m <=
    ``EXACT_LIMIT_BITS``.
    ``params`` that is not a :class:`SecurityParams`, or ``dpa_configs``
    or ``oracle_seed`` that is not an int (bools are refused), or
    ``dpa_configs`` outside 0..``MAX_DPA_CONFIGS``, raises
    :class:`ValidationError` before any work.
    """
    if not isinstance(params, SecurityParams):
        raise ValidationError(
            f"params must be SecurityParams, got {type(params).__name__}")
    for name, value in (("dpa_configs", dpa_configs),
                        ("oracle_seed", oracle_seed)):
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValidationError(
                f"{name} must be an integer, got {shown(value)}")
    if not 0 <= dpa_configs <= MAX_DPA_CONFIGS:
        raise ValidationError(f"dpa_configs must be in 0..{MAX_DPA_CONFIGS}")
    tb = params.test_bits
    rng = random.Random(oracle_seed)
    checks = []

    # (a) share privacy (XOR sharing leaves any ell-1 shares useless);
    # the advantage does not depend on the known shares' values, so one
    # share set answers for all
    _check_share_count(params.ell)
    ok = share_privacy_exact(
        params.n, [rng.getrandbits(params.n) for _ in range(params.ell)])
    checks.append(OracleCheck(
        name=f"share_privacy(n={params.n}, ell={params.ell})",
        expected="advantage 0 for every ell-1 subset",
        observed="advantage 0" if ok else "nonzero advantage",
        exact_match=ok,
    ))

    # (b) parity miss rate = 2^-m for keys differing outside the prefix
    expected_miss = Fraction(1, 1 << params.m)
    diffs = [1, (1 << tb) - 1] + [rng.randrange(1, 1 << tb) for _ in range(6)]
    rates = {parity_miss_rate_exact(tb, params.m, d) for d in diffs}
    ok = rates == {expected_miss}
    checks.append(OracleCheck(
        name=f"parity_miss(test_bits={tb}, m={params.m})",
        expected=str(expected_miss),
        observed=", ".join(sorted(str(r) for r in rates)),
        exact_match=ok,
    ))
    if tb * params.m <= EXACT_LIMIT_BITS:
        tup = parity_miss_rate_tuple_enumeration(tb, params.m, diffs[2])
        checks.append(OracleCheck(
            name=f"parity_miss_tuples(test_bits={tb}, m={params.m})",
            expected=str(expected_miss),
            observed=str(tup),
            exact_match=tup == expected_miss,
        ))

    # (c) distillation uniformity over random and adversarial vector sets
    configs = [[rng.getrandbits(tb) for _ in range(params.m)]
               for _ in range(dpa_configs)]
    repeated = [1 << (tb - 1)] * params.m
    disjoint = [1 << (tb - 1 - i) for i in range(params.m)]
    all_zero = [0] * params.m
    all_ones = [(1 << tb) - 1] * params.m
    ok = dpa_uniformity_exact(tb, *configs, repeated, disjoint, all_zero,
                              all_ones)
    checks.append(OracleCheck(
        name=f"dpa_uniformity(test_bits={tb}, m={params.m}, "
             f"configs={dpa_configs}+4)",
        expected="conditional distribution uniform",
        observed="uniform" if ok else "non-uniform group found",
        exact_match=ok,
    ))

    # (d) MAC forgery bound at small word size
    w = params.word_bits
    msg_bits = w  # one content block
    bound = Fraction(2, 1 << w)
    best = mac_forgery_exact(w, msg_bits)
    checks.append(OracleCheck(
        name=f"mac_forgery(w={w}, one block)",
        expected=f"<= {bound}",
        observed=str(best),
        exact_match=best <= bound,
    ))
    return OracleReport(checks=tuple(checks))


# --- reporting -------------------------------------------------------------


def emit_report(run: MonteCarloRun, destination) -> None:
    """Write one JSON line per trial of ``run`` plus a summary document.

    Each trial line is one f-string with its keys in sorted order, the
    bytes ``json.dumps(record, sort_keys=True, separators=(",", ":"))``
    would give (failure tags are plain identifiers: nothing to escape).
    Output depends only on the inputs (no timestamps,
    sorted keys), so a replay of the same scenario and seed is
    byte-identical.
    """
    dest = Path(destination)
    dest.mkdir(parents=True, exist_ok=True)
    stats = run.stats
    with open(dest / "trials.jsonl", "w") as fh:
        for r in run.results:
            tags = r.failure_tags
            tags = '["' + '","'.join(tags) + '"]' if tags else "[]"
            fh.write(
                f'{{"delta":{int(r.keys_equal)},"final_key_len":'
                f'{"null" if r.final_key_len is None else r.final_key_len},'
                f'"index":{r.index},"leaked_epochs":{r.leaked_epochs},'
                f'"result":{r.result},"result_prime":{r.result_prime},'
                f'"seed":{r.seed},"succeeded":{int(r.succeeded)},'
                f'"tags":{tags},"trash_size":'
                f'{"null" if r.trash_size is None else r.trash_size}}}\n'
            )
    summary = {
        "scenario": run.scenario,
        "master_seed": run.master_seed,
        "trials": stats.trials,
        "successes": stats.successes,
        "empirical": stats.empirical,
        "confidence": CONFIDENCE,
        "ci_low": stats.ci_low,
        "ci_high": stats.ci_high,
        "p_im": stats.p_im,
        "agreement_bound": stats.agreement_bound,
        "privacy_bound": stats.privacy_bound,
        "verdict": stats.verdict,
        "degenerate_interval": stats.degenerate,
    }
    with open(dest / "summary.json", "w") as fh:
        json.dump(summary, fh, sort_keys=True, indent=2)
        fh.write("\n")
