"""Multipath key establishment, key authentication, and deterministic
privacy amplification.

A session is an imperative shell around a draw-free core.  The shell,
:func:`full_session`, finds no paths itself: over the ``PathSet`` it is
given it provisions the link pools, sends a fresh n-bit share along each
path hop by hop (both ends XOR their shares into full keys; any ell-1
controlled paths reveal nothing about the XOR) and draws the parity
vectors.  The core, :func:`_authenticate`, makes every later decision
and reaches the paths only through the shell's ``relay``.

Shares, keys, key parts (:func:`_key_parts`: first sub-key, second
sub-key, remainder), wire payloads, parity vectors and final keys are
plain integers.  A value's width is fixed by the parameters (an n-bit
key, test_bits-bit remainder and vectors) or travels beside it as
``nbits``; position 1 is the most significant bit.  The phase helpers
``_make_challenge``, ``_verify_challenge``, ``_make_response`` and
``_verify_response`` draw nothing and return plain tuples.  The
challenge message is built and parsed only by ``_encode_challenge`` /
``_decode_challenge``, and both authenticated messages travel in the
one frame ``message || w-bit tag``, sealed only by ``_seal`` and opened
only by ``_open_first``.  :class:`SessionOutcome` keeps the per-path
copies of both messages; its ``transcript()`` renders them.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property, lru_cache
from itertools import compress

from .adversary import AdversaryConfig, AdversaryView, ScriptedAdversary
from .errors import LengthMismatch, OutOfRange, ParameterViolation, shown
from .mac import _tag_value
from .mac import tag as mac_tag  # noqa: F401  (perfbench counts calls here)
from .network import NetworkGraph, PathSet, link_key
from .transport import LinkKeyPool, _classical_over, _forward_key_over

#: Largest single ``random.getrandbits`` draw (its argument is a C int):
#: the bound on ``ell`` and on a link's ``session_demand_bits``.
MAX_DRAW_BITS = (1 << 31) - 1
#: Largest MAC word size w = s/2: the first MAC call at a new w searches for
#: a degree-w reduction polynomial, ~1 ms at w = 64 but 1.45 s at w = 256.
MAX_WORD_BITS = 64


class SecurityParams(namedtuple("SecurityParams", "n s m ell epsilon")):
    """Session parameters.

    n:       bits per path share and per full key
    s:       MAC key bits per authenticated message (= 2w; w = s/2 is the
             field word size and tag width, at most MAX_WORD_BITS)
    m:       number of parity challenges
    ell:     number of vertex-disjoint paths
    epsilon: per-key failure probability of link-generated keys, used in
             bound formulas

    The derived widths below are computed on first read and then kept in
    the instance's ``__dict__`` (the class declares no ``__slots__``), as
    every trial reads them; no attribute can be assigned.  n, s, m and
    ell must be ints (not bools), and ``ell`` and ``session_demand_bits``
    must not exceed :data:`MAX_DRAW_BITS` (:class:`ParameterViolation`).
    """

    def __new__(cls, n: int, s: int, m: int, ell: int, epsilon: float = 0.0):
        self = tuple.__new__(cls, (n, s, m, ell, epsilon))
        for name in ("n", "s", "m", "ell"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ParameterViolation(
                    f"{name} must be an integer, got {value!r}")
        if self.s < 2 or self.s % 2 or self.s > 2 * MAX_WORD_BITS:
            raise ParameterViolation(f"s must be even and in [2, "
                                     f"{2 * MAX_WORD_BITS}], got {shown(self.s)}")
        if self.ell < 2:
            raise ParameterViolation(f"ell must be >= 2, got {shown(self.ell)}")
        if 2 * self.s >= self.n:
            raise ParameterViolation(
                f"n must exceed the 2s reserved MAC bits: n={shown(self.n)}, "
                f"s={self.s}")
        if not 1 <= self.m < self.test_bits:
            raise ParameterViolation(
                f"m < n - 2s required: m={shown(self.m)}, "
                f"n-2s={shown(self.test_bits)}")
        if not 0.0 <= self.epsilon <= 1.0:
            raise ParameterViolation(f"epsilon must lie in [0,1], got {self.epsilon}")
        if self.ell > MAX_DRAW_BITS:
            raise ParameterViolation(
                f"ell must be <= {MAX_DRAW_BITS}, got {shown(self.ell)}")
        if self.session_demand_bits > MAX_DRAW_BITS:
            # not printed: m*n can pass the int-to-str digit limit
            raise ParameterViolation(
                f"a link's session demand n + m*(n - 2s + 1) + 4s + 1 must "
                f"be <= {MAX_DRAW_BITS} bits")
        return self

    _make = classmethod(lambda cls, it: cls(*it))  # _replace runs __new__ too

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}")

    @cached_property
    def word_bits(self) -> int:
        return self.s // 2

    @cached_property
    def test_bits(self) -> int:
        """Length of the remainder key probed by the parity challenges."""
        return self.n - 2 * self.s

    @cached_property
    def challenge_bits(self) -> int:
        """Encoded challenge length m * (test_bits + 1)."""
        return self.m * (self.test_bits + 1)

    @cached_property
    def session_demand_bits(self) -> int:
        """Pool bits one link needs for a full session over it."""
        w = self.word_bits
        return self.n + self.challenge_bits + 8 * w + 1


def _key_parts(key: int, params: SecurityParams) -> tuple[int, int, int]:
    """(first sub-key, second sub-key, remainder) of an n-bit key value.

    The key's leading s bits are the first sub-key, the next s bits the
    second, and the last n - 2s bits the remainder.
    """
    tb = params.test_bits
    s = params.s
    return key >> (tb + s), (key >> tb) & ((1 << s) - 1), key & ((1 << tb) - 1)


def _encode_challenge(lambdas, parities, test_bits: int) -> int:
    """Challenge message ``lambda_1 || p_1 || ... || lambda_m || p_m``."""
    acc = 0
    for lam, p in zip(lambdas, parities):
        acc = (acc << (test_bits + 1)) | (lam << 1) | p
    return acc


def _decode_challenge(message: int, test_bits: int, m: int):
    """Inverse of :func:`_encode_challenge`: (vectors tuple, parities list)."""
    chunk_mask = (1 << (test_bits + 1)) - 1
    lambdas, parities = [], []
    for v in range(m - 1, -1, -1):
        chunk = (message >> (v * (test_bits + 1))) & chunk_mask
        lambdas.append(chunk >> 1)
        parities.append(chunk & 1)
    return tuple(lambdas), parities


def _seal(key2w: int, message: int, nbits: int, w: int) -> tuple[int, int]:
    """Wire copy ``(message || tag, nbits + w)`` of an ``nbits``-bit
    message, tagged under the 2w-bit MAC key ``key2w``."""
    return (message << w) | _tag_value(w, key2w, message, nbits), nbits + w


def _open_first(copies, key2w: int, nbits: int, w: int):
    """``(path index, message)`` of the first copy, in ascending path
    order, that is ``nbits + w`` bits wide and whose tag authenticates
    under ``key2w``; ``(None, None)`` when no copy does.  A dropped copy
    is None."""
    width = nbits + w
    tag_mask = (1 << w) - 1
    for h, copy in enumerate(copies):
        if copy is not None and copy[1] == width:
            message = copy[0] >> w
            if _tag_value(w, key2w, message, nbits) == copy[0] & tag_mask:
                return h, message
    return None, None


def _parities(lambdas, key: int) -> list:
    """``lambda . key mod 2`` per vector: A's disclosed parities, B's
    check of them, and the parity-miss oracle's count."""
    return [(lam & key).bit_count() & 1 for lam in lambdas]


def _make_challenge(auth_first: int, remainder: int, lambdas,
                    params: SecurityParams):
    """Wire copy of the challenge for the parity vectors ``lambdas``
    (test_bits-bit integers, index order) against ``remainder``, sealed
    under ``auth_first``."""
    message = _encode_challenge(lambdas, _parities(lambdas, remainder),
                                params.test_bits)
    return _seal(auth_first, message, params.challenge_bits,
                 params.word_bits)


def _verify_challenge(received, auth_first: int, remainder: int,
                      params: SecurityParams):
    """``(result, accepted path, vectors)`` for the per-path copies
    ``received``: the first copy that opens under ``auth_first`` is
    checked against the parities of ``remainder``.

    result=1 iff a copy opens and its parities are :func:`_parities` of
    its vectors and ``remainder``; path and vectors are None if none opens.
    """
    accepted, message = _open_first(received, auth_first,
                                    params.challenge_bits, params.word_bits)
    if accepted is None:
        return 0, None, None
    lambdas, parities = _decode_challenge(message, params.test_bits, params.m)
    return int(parities == _parities(lambdas, remainder)), accepted, lambdas


def _make_response(result: int, auth_second: int, params: SecurityParams):
    """Wire copy of the result bit sealed under ``auth_second``."""
    if result not in (0, 1):
        raise OutOfRange(f"result must be a bit, got {result}")
    return _seal(auth_second, result, 1, params.word_bits)


def _verify_response(received, auth_second: int, params: SecurityParams):
    """``(result', accepted path)``: result' is the bit of the first copy
    that opens under ``auth_second``, or 0 when no copy opens."""
    accepted, bit = _open_first(received, auth_second, 1, params.word_bits)
    return (0 if accepted is None else bit), accepted


@lru_cache(maxsize=8)
def _pivot_basis(lambdas: tuple, nbits: int):
    """``(copy steps, trash set)`` of :func:`deterministic_pa`; a copy
    step is ``(shift, mask, run)`` for one run of surviving bits."""
    basis: dict[int, int] = {}
    for v in lambdas:
        if v >> nbits:
            raise LengthMismatch(
                f"parity vector {v:#b} is wider than the {nbits}-bit key"
            )
        while v:
            pos = nbits - v.bit_length() + 1
            row = basis.get(pos)
            if row is None:
                basis[pos] = v
                break
            v ^= row
    steps = []
    prev = 0
    for pos in (*sorted(basis), nbits + 1):
        run = pos - prev - 1    # surviving bits prev+1 .. pos-1
        if run:
            steps.append((nbits - pos + 1, (1 << run) - 1, run))
        prev = pos
    return tuple(steps), frozenset(basis)


def deterministic_pa(key: int, nbits: int, lambdas) -> tuple[int, frozenset]:
    """Deterministic privacy amplification of the ``nbits``-bit ``key``.

    ``lambdas`` are ``nbits``-bit integer parity vectors; position 1 is
    the most significant bit.  Maintains a row-reduced basis of the
    disclosed vectors, processed in order: each vector is reduced
    against the pivots chosen so far, a vector surviving reduction
    trashes the leading (smallest) position of its reduced form, and a
    vector reducing to zero discloses nothing fresh and trashes nothing.
    The chosen positions support a triangular, hence invertible, system
    in the trashed bits, so conditioned on every disclosed parity the
    surviving bits remain exactly uniform.

    Note the pivot must come from the *reduced* vector: trashing the
    leading not-yet-trashed position of the raw vector leaves linear
    combinations of parities (e.g. of (011101, 100111, 010111)) landing
    entirely on surviving positions, which would leak.

    Returns the key with trashed positions deleted (original order
    preserved), an integer of ``nbits - len(trash)`` bits, and the
    1-based trash set.  At most one position is trashed per vector, and
    both ends compute identical outputs from identical vectors without
    communication.  The pivots depend only on the vectors, so they are
    memoised (:func:`_pivot_basis`) and the second end of a session
    reuses the first end's; the key costs at most m + 1 shift-and-mask
    steps.  Those steps work elementwise on a numpy uint64 array of keys
    too, so the exhaustive oracle distills a whole key table in one
    call.  A vector wider than ``nbits`` raises :class:`LengthMismatch`.
    """
    steps, trash = _pivot_basis(tuple(lambdas), nbits)
    out = 0
    for shift, mask, run in steps:
        out = (out << run) | ((key >> shift) & mask)
    return out, trash


@lru_cache(maxsize=64)
def _link_plan(graph: NetworkGraph, paths: PathSet, corrupted: frozenset):
    """(links in path/hop order of first use, each path's ``(link index,
    corrupted)`` hops: true where the receiver is a corrupted relay, not
    the endpoint), cached per graph object, path set and corrupted set:
    the one record of which hops, so which paths, corrupted relays hold."""
    index = {}
    routes = []
    for path in paths.paths:
        last = path[-1]
        routes.append(tuple(
            (index.setdefault(link_key(u, v), len(index)),
             v != last and v in corrupted)
            for u, v in zip(path[:-1], path[1:])
        ))
    links = tuple(graph.link_between(*key) for key in index)
    return links, tuple(routes)


def provision_pools(graph: NetworkGraph, paths: PathSet, corrupted: frozenset,
                    bits_per_link: int, rng):
    """Build one :class:`LinkKeyPool` per link of ``paths``, in path/hop
    order of first use, each drawing its fresh epoch (a dead link raises
    :class:`LinkDown`); return each path's ``(pool, corrupted)`` hops.
    The links, and the hops into a relay in ``corrupted``, are resolved
    once per graph, path set and corrupted set (:func:`_link_plan`).
    """
    links, routes = _link_plan(graph, paths, corrupted)
    pools = [LinkKeyPool(link, bits_per_link, rng) for link in links]
    return [[(pools[j], mark) for j, mark in route] for route in routes]


#: A session's failure events, in the order ``trials.jsonl`` tags them.
EVENTS = ("parity_miss", "challenge_rejected", "response_mismatch",
          "final_key_mismatch")


class _TrialRecord:
    """Equality and a ``Name(field=value, ...)`` repr over ``__slots__``,
    for the mutable records built in every trial: a slot reads faster
    than a named-tuple field, and as named tuples the two cost 1-2% of a
    trial."""

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"


class SessionOutcome(_TrialRecord):
    """Everything a trial records about one full session.

    ``keys_equal`` is delta over the full n-bit keys; a final key has
    test_bits - len(trash) bits.  The per-path copies hold the verbatim
    wire payloads as ``(value, nbits)`` pairs (None for ⊥).
    ``accepted_b`` and ``accepted_a`` are the paths whose challenge and
    response copies were accepted (None when no copy opened).  ``view``
    is what the adversary learned: the share of each path it saw, which
    is also all a disclosing adversary could publish.
    """

    __slots__ = ("result", "result_prime", "keys_equal", "final_key_a",
                 "final_key_b", "trash_a", "trash_b", "challenge_copies",
                 "response_copies", "accepted_b", "accepted_a", "view")

    def __init__(self, result: int, result_prime: int, keys_equal: bool,
                 final_key_a: int | None, final_key_b: int | None,
                 trash_a: frozenset | None, trash_b: frozenset | None,
                 challenge_copies: tuple, response_copies: tuple,
                 accepted_b: int | None, accepted_a: int | None,
                 view: AdversaryView):
        self.result = result
        self.result_prime = result_prime
        self.keys_equal = keys_equal
        self.final_key_a = final_key_a
        self.final_key_b = final_key_b
        self.trash_a = trash_a
        self.trash_b = trash_b
        self.challenge_copies = challenge_copies
        self.response_copies = response_copies
        self.accepted_b = accepted_b
        self.accepted_a = accepted_a
        self.view = view

    @property
    def identified_dishonest(self) -> frozenset:
        """Paths whose copy differs from an accepted copy (built on read)."""
        return frozenset(
            i
            for copies, h in ((self.challenge_copies, self.accepted_b),
                              (self.response_copies, self.accepted_a))
            if h is not None
            for i, c in enumerate(copies) if c != copies[h]
        )

    @property
    def succeeded(self) -> bool:
        """The agreement event: result = result' = delta."""
        return self.result == self.result_prime == int(self.keys_equal)

    @property
    def events(self) -> tuple:
        """The :data:`EVENTS` this session shows, in that order."""
        return tuple(compress(EVENTS, (
            self.result == 1 and not self.keys_equal,
            self.result == 0 and self.keys_equal,
            self.result_prime != self.result,
            self.result == self.result_prime == 1 and (
                self.final_key_a != self.final_key_b
                or len(self.trash_a) != len(self.trash_b)),
        )))

    def transcript(self) -> str:
        """Audit record of the authentication round trip: one line per
        copy (direction, path index, verbatim bits), then the verdicts."""
        lines = []
        for direction, copies in (
            ("challenge", self.challenge_copies),
            ("response", self.response_copies),
        ):
            for i, payload in enumerate(copies):
                bits = ("bottom" if payload is None
                        else format(payload[0], f"0{payload[1]}b"))
                lines.append(f"{direction} path={i} bits={bits}")
        lines.append(f"result={self.result} result_prime={self.result_prime}")
        return "\n".join(lines) + "\n"


def _authenticate(key_a: int, key_b: int, lambdas: tuple, params: SecurityParams,
                  relay, view: AdversaryView) -> SessionOutcome:
    """Challenge, response and distillation on A's and B's full keys.

    A splits her key into two MAC sub-keys (2s bits in all) and an
    n - 2s bit remainder and sends the parity vectors ``lambdas`` with
    her remainder's parities, tagged under her first sub-key.  B accepts
    the first copy that opens under his first sub-key and checks each
    parity against his remainder (differing keys slip through with
    probability 2^-m); his one-bit verdict returns tagged under his
    second sub-key.  Each end that accepts trashes one pivot bit per
    vector it holds (:func:`deterministic_pa`), cancelling the m
    disclosed parities.  Draws nothing: ``relay(kind, copy)`` returns the
    per-path copies (None if dropped) the other end receives of the
    ``"challenge"`` or ``"response"`` copy; ``view`` goes to the outcome.
    """
    first_a, second_a, rem_a = _key_parts(key_a, params)
    first_b, second_b, rem_b = _key_parts(key_b, params)
    challenge_copies = relay("challenge", _make_challenge(
        first_a, rem_a, lambdas, params))
    result, accepted_b, lambdas_b = _verify_challenge(
        challenge_copies, first_b, rem_b, params)
    response_copies = relay("response", _make_response(result, second_b, params))
    result_prime, accepted_a = _verify_response(response_copies, second_a, params)
    final_a = final_b = trash_a = trash_b = None
    tb = params.test_bits
    if result_prime == 1:
        final_a, trash_a = deterministic_pa(rem_a, tb, lambdas)
    if result == 1:
        final_b, trash_b = deterministic_pa(rem_b, tb, lambdas_b)
    # positional, in field order: keyword matching costs ~1 us a trial
    return SessionOutcome(
        result, result_prime, key_a == key_b, final_a, final_b,
        trash_a, trash_b, challenge_copies, response_copies,
        accepted_b, accepted_a, view,
    )


def full_session(
    graph: NetworkGraph,
    paths: PathSet,
    params: SecurityParams,
    adversary: AdversaryConfig,
    rng,
) -> SessionOutcome:
    """Establish keys over ``paths``, whose endpoints ``a`` and ``b``
    are the session's ends, then run :func:`_authenticate` on them.

    ``paths`` must hold exactly ``params.ell`` paths, else
    :class:`ParameterViolation` is raised before any draw.
    All randomness flows from ``rng`` in a fixed order (per-link pool
    epochs in path/hop order, then per-path shares, then the parity
    vectors, with adversary draws interleaved at interception points),
    so a seeded generator reproduces the trial bit-for-bit.  Protocol
    failures surface as result=0 outcomes, never exceptions.

    Every session runs one :class:`ScriptedAdversary`; the empty
    ``AdversaryConfig()`` (no corrupted node) draws nothing from
    ``rng`` and still records each epsilon-leaked hop in the view.
    """
    if len(paths) != params.ell:
        raise ParameterViolation(
            f"session needs ell={params.ell} paths, got {len(paths)}")
    view = AdversaryView(len(paths), params.n)
    interceptor = ScriptedAdversary(adversary, view, rng)
    hop_lists = provision_pools(graph, paths, adversary.corrupted,
                                params.session_demand_bits, rng)
    w = params.word_bits
    n = params.n
    key_a = key_b = 0
    for i, hops in enumerate(hop_lists):
        share = rng.getrandbits(n)
        key_a ^= share
        key_b ^= _forward_key_over(hops, share, n, w, interceptor, i)
    # map, not a comprehension: no per-trial function or cells on 3.11
    lambdas = tuple(map(rng.getrandbits, [params.test_bits] * params.m))

    def relay(kind, copy):
        value, nbits = copy
        return tuple([_classical_over(hops, value, nbits, w, interceptor, i, kind)
                      for i, hops in enumerate(hop_lists)])

    return _authenticate(key_a, key_b, lambdas, params, relay, view)
