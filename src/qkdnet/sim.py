"""Scenario ingestion, Monte-Carlo execution, and bound validation.

A scenario is a JSON document naming the graph, endpoints, security
parameters, adversary script, and trial budget.  Trials are
shared-nothing: trial i runs on one module-level generator reseeded
with ``derive_trial_seed(seed, i)``, whose stream is that of
``random.Random(derive_trial_seed(seed, i))``, so any subset replays
bit-for-bit and aggregate statistics do not depend on execution order.

The empirical agreement frequency is compared against the lower bound

    (1 - eps) * (1 - 2^-m) * (1 - p_im)^(2*ell - 2)

with an exact (Clopper-Pearson) confidence interval; the privacy figure
reported alongside is 2^-m + 2*ell*p_im + 2*eps.  Exhaustive
small-instance oracles validate the parity-miss rate, share privacy,
distillation uniformity, and the MAC forgery bound with zero tolerance.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from .adversary import (
    EXACT_LIMIT_BITS,
    AdversaryConfig,
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
)
from . import mac
from .mac import impersonation_bound
from .mac import tag as mac_tag  # noqa: F401  (perfbench counts calls here)
from .network import NetworkGraph, PathSet, QkdLink, vertex_disjoint_paths
from .protocol import SecurityParams, deterministic_pa, full_session


@dataclass(frozen=True)
class Scenario:
    """A validated simulation configuration, with the ``ell`` disjoint
    paths every trial rides on."""

    name: str
    graph: NetworkGraph
    a: str
    b: str
    params: SecurityParams
    adversary: AdversaryConfig
    trials: int
    seed: int
    paths: PathSet


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
#: None stays None and ``load_scenario`` resolves it from other fields.
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
        "w": ("integer", None), "epsilon": ("number", None),
    },
    "link": {
        "a": ("string", _REQUIRED), "b": ("string", _REQUIRED),
        "distance_km": ("number", 0.0), "epsilon": ("number", 0.0),
        "alive": ("bool", True),
    },
    "adversary": {
        "corrupted": ("strings", ()), "t": ("integer", None),
        "strategies": ("strings", ("passive",)),
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
    :class:`ValidationError` naming the violated invariant otherwise.
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
        links.append(QkdLink(**_fields(entry, "link")))
    graph = NetworkGraph(nodes, links)

    _require(len(top["endpoints"]) == 2,
             "endpoints must be a list of two node names")
    a, b = top["endpoints"]
    _require(a in graph.nodes and b in graph.nodes, "endpoints must be graph nodes")
    _require(a != b, "endpoints must be distinct")

    p = _fields(top["params"], "params")
    w = p.pop("w")
    if p["epsilon"] is None:
        p["epsilon"] = max((l.epsilon for l in links), default=0.0)
    try:
        params = SecurityParams(**p)
    except ParameterViolation as exc:
        raise ValidationError(str(exc)) from exc
    _require(w is None or w * 2 == params.s,
             f"w={w} inconsistent with s={params.s} (s = 2w required)")

    # An omitted or null block is the empty adversary: no corrupted node.
    adv = _fields(top["adversary"] or {}, "adversary")
    t = len(adv["corrupted"]) if adv["t"] is None else adv["t"]
    adversary = corrupt(graph, adv["corrupted"], t, endpoints=(a, b),
                        strategies=tuple(adv["strategies"]) or ("passive",))

    _require(top["trials"] >= 1, "trials must be >= 1")
    try:
        paths = vertex_disjoint_paths(graph, a, b, params.ell)
    except InsufficientConnectivity as exc:
        raise ValidationError(
            f"graph provides only {exc.max_paths} disjoint paths, "
            f"ell={params.ell} required"
        ) from exc

    return Scenario(
        name=top["name"], graph=graph, a=a, b=b, params=params,
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


@dataclass(slots=True)
class TrialResult:
    """One deterministic trial record (slotted, unfrozen); ``emit_report``
    writes every field."""

    index: int
    seed: int
    result: int
    result_prime: int
    keys_equal: bool
    succeeded: bool
    final_key_len: int | None
    trash_size: int | None
    leaked_epochs: int
    failure_tags: tuple


def _failure_tags(outcome) -> tuple:
    tags = []
    if outcome.result == 1 and not outcome.keys_equal:
        tags.append("parity_miss")
    if outcome.result == 0 and outcome.keys_equal:
        tags.append("challenge_rejected")
    if outcome.result_prime != outcome.result:
        tags.append("response_mismatch")
    if outcome.result == 1 and outcome.result_prime == 1 and (
        outcome.final_key_a != outcome.final_key_b
        or len(outcome.trash_a) != len(outcome.trash_b)
    ):
        tags.append("final_key_mismatch")
    return tuple(tags)


#: The one trial generator, reseeded by every :func:`run_trial`.
_TRIAL_RNG = random.Random()


def run_trial(scenario: Scenario, trial_seed: int, index: int = 0,
              paths=None) -> TrialResult:
    """Execute one session; the record is a pure function of the seed.

    ``paths`` defaults to the scenario's own path set.  The session runs
    on one module-level generator reseeded with ``trial_seed``:
    ``seed`` sets the whole Mersenne-Twister state and clears the cached
    Gaussian, so the stream equals that of ``random.Random(trial_seed)``
    and no generator is built per trial.  The generator is shared by the
    process, so trials must not run concurrently in threads, and no
    callback of a trial may call ``run_trial``.
    """
    rng = _TRIAL_RNG
    rng.seed(trial_seed)
    outcome = full_session(
        scenario.graph, scenario.a, scenario.b, scenario.params,
        scenario.adversary, rng,
        paths=scenario.paths if paths is None else paths,
    )
    trash = outcome.trash_a
    return TrialResult(
        index=index,
        seed=trial_seed,
        result=outcome.result,
        result_prime=outcome.result_prime,
        keys_equal=outcome.keys_equal,
        succeeded=outcome.succeeded,
        final_key_len=(
            None if trash is None else scenario.params.test_bits - len(trash)
        ),
        trash_size=None if trash is None else len(trash),
        leaked_epochs=outcome.view.leaked_epochs,
        failure_tags=_failure_tags(outcome),
    )


def clopper_pearson(successes: int, trials: int, confidence: float = 0.99):
    """Exact binomial confidence interval.

    The endpoints are scipy's ``betaincinv`` floats, which are not always
    the correctly rounded roots; ``summary.json`` prints them, so replay
    pins scipy here.  It is imported on the first call so that only
    ``qkdnet run`` pays for loading it.  Raises :class:`ValidationError`
    unless trials >= 1, 0 <= successes <= trials and 0 < confidence < 1,
    before scipy is loaded.
    """
    if trials < 1:
        raise ValidationError("trials must be >= 1")
    if not 0 <= successes <= trials:
        raise ValidationError(
            f"successes must be in 0..{trials}, got {successes}")
    if not 0.0 < confidence < 1.0:
        raise ValidationError(
            f"confidence must be strictly between 0 and 1, got {confidence}")
    from scipy.special import betaincinv

    alpha = 1.0 - confidence
    if successes == 0:
        low = 0.0
    else:
        low = float(betaincinv(successes, trials - successes + 1, alpha / 2))
    if successes == trials:
        high = 1.0
    else:
        high = float(betaincinv(successes + 1, trials - successes, 1 - alpha / 2))
    return low, high


def protocol_impersonation_bound(params: SecurityParams) -> float:
    """p_im for the session's larger authenticated message (the challenge)."""
    return impersonation_bound(params.word_bits, params.challenge_bits)


def check_bounds(params: SecurityParams, p_im: float):
    """(agreement lower bound, privacy failure upper bound)."""
    agreement = (
        (1.0 - params.epsilon)
        * (1.0 - 2.0 ** -params.m)
        * (1.0 - p_im) ** (2 * params.ell - 2)
    )
    privacy = 2.0 ** -params.m + 2 * params.ell * p_im + 2 * params.epsilon
    return agreement, privacy


@dataclass(frozen=True)
class Stats:
    """Aggregated Monte-Carlo estimate versus the analytic bounds."""

    trials: int
    successes: int
    empirical: float
    ci_low: float
    ci_high: float
    confidence: float
    p_im: float
    agreement_bound: float
    privacy_bound: float
    verdict: str
    degenerate: bool

    @property
    def passed(self) -> bool:
        return self.verdict == "PASS"


@dataclass(frozen=True)
class MonteCarloRun:
    """A run of one scenario (by name) from its resolved master seed."""

    stats: Stats
    results: tuple
    scenario: str
    master_seed: int


#: Confidence level of every run's Clopper-Pearson interval.
CONFIDENCE = 0.99


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
    low, high = clopper_pearson(successes, trials, CONFIDENCE)
    p_im = protocol_impersonation_bound(params)
    agreement, privacy = check_bounds(params, p_im)
    if agreement <= 0.0 or privacy >= 1.0:
        verdict = "VACUOUS"
    else:
        verdict = "PASS" if high >= agreement else "FAIL"
    return Stats(
        trials=trials,
        successes=successes,
        empirical=successes / trials,
        ci_low=low,
        ci_high=high,
        confidence=CONFIDENCE,
        p_im=p_im,
        agreement_bound=agreement,
        privacy_bound=privacy,
        verdict=verdict,
        degenerate=trials < 2,
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
        run_trial(scenario, derive_trial_seed(seed, i), index=i)
        for i in range(trials)
    )
    return MonteCarloRun(
        stats=aggregate(results, scenario.params),
        results=results,
        scenario=scenario.name,
        master_seed=seed,
    )


# --- exhaustive small-instance oracles ------------------------------------


@dataclass(frozen=True)
class OracleCheck:
    name: str
    expected: str
    observed: str
    exact_match: bool


@dataclass(frozen=True)
class OracleReport:
    checks: tuple

    @property
    def all_exact(self) -> bool:
        return all(c.exact_match for c in self.checks)

    def lines(self):
        for c in self.checks:
            status = "exact" if c.exact_match else "MISMATCH"
            yield f"{c.name}: expected {c.expected}, observed {c.observed} [{status}]"


def _check_parity_args(key_bits: int, m: int) -> None:
    if key_bits < 1 or m < 1:
        raise ValidationError(
            f"key_bits and m must be >= 1, got key_bits={key_bits}, m={m}")


def parity_miss_rate_exact(key_bits: int, m: int, diff: int) -> Fraction:
    """Exact miss probability of m random parity challenges against a
    fixed nonzero key difference, by full enumeration of one challenge.

    The m challenges are independent and identically distributed, so the
    tuple-space fraction is the single-challenge fraction raised to the
    m-th power; the single-challenge count is exhaustive over all
    2^key_bits vectors.  Raises :class:`ValidationError` unless key_bits
    and m are at least 1 and ``diff`` is a nonzero key_bits-bit value,
    and :class:`TooLarge` past 2^24 vectors.
    """
    _check_parity_args(key_bits, m)
    if key_bits > 24:
        raise TooLarge("single-vector enumeration limited to 2^24 vectors")
    if not 0 < diff < (1 << key_bits):
        raise ValidationError("diff must be a nonzero key_bits-bit value")
    lams = np.arange(1 << key_bits, dtype=np.uint64)
    zero = int(np.count_nonzero(
        np.bitwise_count(lams & np.uint64(diff)) % 2 == 0
    ))
    return Fraction(zero, 1 << key_bits) ** m


def parity_miss_rate_tuple_enumeration(key_bits: int, m: int, diff: int) -> Fraction:
    """Literal enumeration over all (2^key_bits)^m challenge tuples.

    Every tuple is materialised as one integer of m key_bits-bit chunks,
    and each chunk is parity-tested against ``diff``: the chunks' popcounts
    are ORed, so a tuple misses when the low bit of the OR is clear,
    i.e. when every chunk has even parity.  Raises :class:`TooLarge` past
    2^16 tuples and :class:`ValidationError` for the arguments
    :func:`parity_miss_rate_exact` rejects.
    """
    _check_parity_args(key_bits, m)
    if (1 << (key_bits * m)) > 1 << 16:
        raise TooLarge("tuple enumeration limited to 2^16 tuples")
    if not 0 < diff < (1 << key_bits):
        raise ValidationError("diff must be a nonzero key_bits-bit value")
    total = 1 << (key_bits * m)
    tuples = np.arange(total, dtype=np.uint32)
    test = np.uint32(diff)
    odd = np.zeros(total, dtype=np.uint8)
    for j in range(m):
        odd |= np.bitwise_count((tuples >> np.uint32(j * key_bits)) & test)
    return Fraction(total - int(np.count_nonzero(odd & np.uint8(1))), total)


def dpa_uniformity_exact(key_bits: int, lambdas) -> bool:
    """Exhaustive check of distillation uniformity for one set of
    ``key_bits``-bit integer parity vectors.

    Enumerates all 2^key_bits keys and distills the whole key table in
    one call of the production :func:`deterministic_pa`.  Each key's
    count cell is its parity vector (one bit per lambda, the first
    lambda highest) above its distilled key; one ``bincount`` over the
    cells gives one row per parity vector.  The distilled keys within
    every non-empty group must cover each surviving value equally
    often, i.e. every such row's minimum must equal its maximum.  An
    empty row (a parity vector no key has, as under a zero lambda) is
    all zeros, so the test is that every row equals its first entry.
    Raises :class:`ValidationError` for negative key_bits and
    :class:`TooLarge` past ``EXACT_LIMIT_BITS`` key bits, before any
    table is built.
    """
    if key_bits < 0:
        raise ValidationError(f"key_bits must be >= 0, got {key_bits}")
    if key_bits > EXACT_LIMIT_BITS:
        raise TooLarge(
            f"uniformity enumeration limited to 2^{EXACT_LIMIT_BITS} keys, "
            f"got key_bits={key_bits}")
    m = len(lambdas)
    keys = np.arange(1 << key_bits, dtype=np.uint64)
    kstar, trash = deterministic_pa(keys, key_bits, lambdas)
    survivors = key_bits - len(trash)
    # with every position trashed, kstar is the scalar 0
    cells = np.broadcast_to(kstar, keys.shape).astype(np.intp)
    for j, lam in enumerate(reversed(lambdas)):
        parity = np.bitwise_count(keys & np.uint64(lam)) & np.uint8(1)
        cells |= parity.astype(np.intp) << (survivors + j)
    counts = np.bincount(cells, minlength=1 << (m + survivors))
    counts = counts.reshape(1 << m, 1 << survivors)
    return bool((counts == counts[:, :1]).all())


def share_privacy_exact(key_bits: int, ell: int, shares) -> bool:
    """Every (ell-1)-subset of the ``key_bits``-bit integer ``shares``
    leaves advantage exactly zero.  Raises :class:`ValidationError` when
    there are not exactly ``ell`` shares."""
    import itertools

    if len(shares) != ell:
        raise ValidationError(f"need {ell} shares, got {len(shares)}")

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
    (key, message) pairs.
    """
    observed = 1 % (1 << message_bits)
    content_blocks = -(-message_bits // w)
    lo = max(1, (content_blocks - 1) * w + 1)
    hi = content_blocks * w
    n_messages = max(1, (1 << (hi + 1)) - (1 << lo))
    if (n_messages << (2 * w)) > FORGERY_TABLE_LIMIT:
        raise TooLarge(
            f"forgery game of {1 << (2 * w)} keys x {n_messages} messages "
            f"exceeds {FORGERY_TABLE_LIMIT} (key, message) pairs"
        )
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
        raise OutOfRange(f"word size must be >= 1, got {w}")
    if message_bits < 0:
        raise OutOfRange(f"message_bits must be >= 0, got {message_bits}")
    (v0, n0), *candidates = _forgery_messages(w, message_bits)
    hash_value = mac._hash_value    # read per call, so a traced hash counts
    diffs = []
    for x in range(1 << w):
        h0 = hash_value(w, x, v0, n0)
        diffs.append([hash_value(w, x, v, nb) ^ h0 for v, nb in candidates])
    cells = np.array(diffs, dtype=np.intp)
    cells += np.arange(len(candidates)) << w
    peak = np.bincount(cells.ravel(), minlength=1).max()
    return Fraction(int(peak), 1 << w)


def exact_oracles(params: SecurityParams, dpa_configs: int = 100,
                  oracle_seed: int = 2024) -> OracleReport:
    """Exhaustive validators at desk scale.

    Requires test_bits <= 12, m <= 4, ell <= 3 (and n <= 16 for the
    share-privacy enumeration); otherwise raises :class:`TooLarge`.
    A negative ``dpa_configs`` raises :class:`ValidationError`.
    """
    if dpa_configs < 0:
        raise ValidationError(f"dpa_configs must be >= 0, got {dpa_configs}")
    tb = params.test_bits
    if tb > 12 or params.m > 4 or params.ell > 3 or params.n > 16:
        raise TooLarge(
            f"exhaustive mode limits exceeded: test_bits={tb}, m={params.m}, "
            f"ell={params.ell}, n={params.n}"
        )
    rng = random.Random(oracle_seed)
    checks = []

    # (a) share privacy (XOR sharing leaves any ell-1 shares useless)
    ok = all(
        share_privacy_exact(
            params.n, params.ell,
            [rng.getrandbits(params.n) for _ in range(params.ell)],
        )
        for _ in range(20)
    )
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
    if (1 << (tb * params.m)) <= 1 << 16:
        tup = parity_miss_rate_tuple_enumeration(tb, params.m, diffs[2])
        checks.append(OracleCheck(
            name=f"parity_miss_tuples(test_bits={tb}, m={params.m})",
            expected=str(expected_miss),
            observed=str(tup),
            exact_match=tup == expected_miss,
        ))

    # (c) distillation uniformity over random and adversarial vector sets
    ok = True
    for _ in range(dpa_configs):
        lambdas = [rng.getrandbits(tb) for _ in range(params.m)]
        ok = ok and dpa_uniformity_exact(tb, lambdas)
    repeated = [1 << (tb - 1)] * params.m
    disjoint = [1 << (tb - 1 - i) for i in range(params.m)]
    all_zero = [0] * params.m
    all_ones = [(1 << tb) - 1] * params.m
    for lambdas in (repeated, disjoint, all_zero, all_ones):
        ok = ok and dpa_uniformity_exact(tb, lambdas)
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
        "confidence": stats.confidence,
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
