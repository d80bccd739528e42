"""Multipath key establishment, key authentication, and deterministic
privacy amplification.

A session between two endpoints runs in four phases:

1. *Establish*: a fresh n-bit share rides each of the ell disjoint paths
   hop-by-hop; both ends XOR their per-path shares into full keys.  Any
   ell-1 controlled paths reveal nothing about the XOR.
2. *Challenge*: the initiator splits her key into two MAC sub-keys (2s
   bits total) and a remainder, draws m random parity vectors, and
   broadcasts the vectors with their remainder parities plus a tag under
   the first sub-key along every path.
3. *Response*: the responder accepts the first path whose copy
   authenticates under his first sub-key and checks every parity against
   his own remainder; the one-bit verdict travels back tagged under the
   second sub-key.  Differing keys slip through a parity check with
   probability 2^-m per session.
4. *Distill*: on mutual success both sides deterministically trash one
   pivot bit per parity vector (no communication), cancelling the m
   disclosed parity bits.

The reserved MAC prefix is 2s bits (two independent sub-keys of s bits,
one per direction), so the tested remainder has n - 2s bits.

:func:`full_session` is the one implementation of a session and runs
all four phases on plain integers: the XOR of the shares, the key parts
from :func:`_key_parts` (first sub-key, second sub-key, remainder), the
wire payloads of the challenge and the response, the parity vectors and
the distilled final keys.  A value's width is fixed by the parameters
(an n-bit key, test_bits-bit remainder and vectors) or travels beside
it as ``nbits``; position 1 is the most significant bit.  The phase
helpers ``_make_challenge``, ``_verify_challenge``, ``_make_response``
and ``_verify_response`` take those integers and return plain tuples.
The challenge message is built and parsed only by ``_encode_challenge``
/ ``_decode_challenge``, and both authenticated messages travel in the
one frame ``message || w-bit tag``, sealed only by ``_seal`` and opened
only by ``_open_first``.  :class:`SessionOutcome` keeps the per-path
copies of both messages; its ``transcript()`` renders them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .adversary import AdversaryConfig, AdversaryView, ScriptedAdversary
from .errors import LengthMismatch, OutOfRange, ParameterViolation
from .mac import _tag_value
from .mac import tag as mac_tag  # noqa: F401  (perfbench counts calls here)
from .network import NetworkGraph, PathSet, link_key, vertex_disjoint_paths
from .transport import LinkKeyPool, _classical_over, _forward_key_over


@dataclass(frozen=True)
class SecurityParams:
    """Session parameters.

    n:       bits per path share and per full key
    s:       MAC key bits per authenticated message (= 2w; s/2 is the
             field word size, so tags are s/2 bits)
    m:       number of parity challenges
    ell:     number of vertex-disjoint paths
    epsilon: per-key failure probability of link-generated keys, used in
             bound formulas
    """

    n: int
    s: int
    m: int
    ell: int
    epsilon: float = 0.0

    def __post_init__(self):
        if self.s < 2 or self.s % 2:
            raise ParameterViolation(f"s must be even and >= 2, got {self.s}")
        if self.ell < 2:
            raise ParameterViolation(f"ell must be >= 2, got {self.ell}")
        if 2 * self.s >= self.n:
            raise ParameterViolation(
                f"n must exceed the 2s reserved MAC bits: n={self.n}, s={self.s}"
            )
        if not 1 <= self.m < self.test_bits:
            raise ParameterViolation(
                f"m < n - 2s required: m={self.m}, n-2s={self.test_bits}"
            )
        if not 0.0 <= self.epsilon <= 1.0:
            raise ParameterViolation(f"epsilon must lie in [0,1], got {self.epsilon}")

    @property
    def word_bits(self) -> int:
        return self.s // 2

    @property
    def test_bits(self) -> int:
        """Length of the remainder key probed by the parity challenges."""
        return self.n - 2 * self.s

    @property
    def challenge_bits(self) -> int:
        """Encoded challenge length m * (test_bits + 1)."""
        return self.m * (self.test_bits + 1)

    @property
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


def _make_challenge(auth_first: int, remainder: int, params: SecurityParams, rng):
    """Draw m parity vectors (index order) against ``remainder``.

    Returns the vectors as a tuple of test_bits-bit integers and the wire
    copy of the challenge message sealed under ``auth_first``.
    """
    tb = params.test_bits
    lambdas = tuple(rng.getrandbits(tb) for _ in range(params.m))
    message = _encode_challenge(
        lambdas, [(lam & remainder).bit_count() & 1 for lam in lambdas], tb
    )
    return lambdas, _seal(auth_first, message, params.challenge_bits,
                          params.word_bits)


def _verify_challenge(received, auth_first: int, remainder: int,
                      params: SecurityParams):
    """``(result, accepted path, vectors)`` for the per-path copies
    ``received``: the first copy that opens under ``auth_first`` is
    checked against the parities of ``remainder``.

    result=1 iff an authenticated copy exists and every embedded parity
    matches; accepted path and vectors are None when no copy opens.
    """
    accepted, message = _open_first(received, auth_first,
                                    params.challenge_bits, params.word_bits)
    if accepted is None:
        return 0, None, None
    lambdas, parities = _decode_challenge(message, params.test_bits, params.m)
    ok = all(
        (lam & remainder).bit_count() & 1 == p
        for lam, p in zip(lambdas, parities)
    )
    return (1 if ok else 0), accepted, lambdas


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
def _link_plan(graph: NetworkGraph, paths: PathSet):
    """(links in path/hop order of first use, each path's ``(link index,
    receiver)`` hops), cached per graph object and path-set value.  The
    receiver is None on a path's final hop."""
    index = {}
    routes = []
    for path in paths.paths:
        last = path[-1]
        routes.append(tuple(
            (index.setdefault(link_key(u, v), len(index)),
             v if v != last else None)
            for u, v in zip(path[:-1], path[1:])
        ))
    links = tuple(graph.link_between(*key) for key in index)
    return links, tuple(routes)


def provision_pools(graph: NetworkGraph, paths: PathSet, bits_per_link: int, rng):
    """Build one :class:`LinkKeyPool` per link of ``paths``, in path/hop
    order of first use, each drawing its fresh epoch (a dead link raises
    :class:`LinkDown`); return each path's ``(pool, receiver)`` hops.
    The links are resolved once per graph and path set (:func:`_link_plan`).
    """
    links, routes = _link_plan(graph, paths)
    pools = [LinkKeyPool(link, bits_per_link, rng) for link in links]
    return [[(pools[j], stop) for j, stop in route] for route in routes]


@dataclass(slots=True)
class SessionOutcome:
    """Everything a trial records about one full session (slotted).

    The per-path copies hold the verbatim wire payloads as ``(value,
    nbits)`` pairs (None for ⊥).  ``accepted_b`` and ``accepted_a`` are
    the paths whose challenge and response copies were accepted (None
    when no copy opened).  ``view`` is what the adversary learned: the
    share of each path it saw, which is also all a disclosing adversary
    could publish.
    """

    result: int
    result_prime: int
    keys_equal: bool          # delta over the remainder keys
    final_key_a: int | None   # test_bits - len(trash_a) bits
    final_key_b: int | None
    trash_a: frozenset | None
    trash_b: frozenset | None
    challenge_copies: tuple
    response_copies: tuple
    accepted_b: int | None
    accepted_a: int | None
    shares_received: tuple    # n-bit share values, one per path
    paths: PathSet
    view: AdversaryView

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


def full_session(
    graph: NetworkGraph,
    a: str,
    b: str,
    params: SecurityParams,
    adversary: AdversaryConfig,
    rng,
    paths: PathSet | None = None,
) -> SessionOutcome:
    """Run establish, challenge, response, and distillation once.

    All randomness flows from ``rng`` in a fixed order (per-link pool
    epochs in path/hop order, then per-path shares, then the parity
    vectors, with adversary draws interleaved at interception points),
    so a seeded generator reproduces the trial bit-for-bit.  Protocol
    failures surface as result=0 outcomes, never exceptions.  Shares,
    keys, key parts, wire payloads, parity vectors and the final keys
    are all integers.

    Every session runs one :class:`ScriptedAdversary`; the empty
    ``AdversaryConfig()`` (no corrupted node, t=0) draws nothing from
    ``rng`` and still records each epsilon-leaked hop in the view.
    """
    if paths is None:
        paths = vertex_disjoint_paths(graph, a, b, params.ell)
    view = AdversaryView(len(paths), params.n)
    interceptor = ScriptedAdversary(adversary, view, rng)
    hop_lists = provision_pools(graph, paths, params.session_demand_bits, rng)

    w = params.word_bits
    n = params.n
    key_a = key_b = 0
    received = []
    for i, hops in enumerate(hop_lists):
        share = rng.getrandbits(n)
        key_a ^= share
        got = _forward_key_over(hops, share, n, w, interceptor, i)
        key_b ^= got
        received.append(got)
    first_a, second_a, rem_a = _key_parts(key_a, params)
    first_b, second_b, rem_b = _key_parts(key_b, params)

    lambdas, copy = _make_challenge(first_a, rem_a, params, rng)
    challenge_copies = tuple(
        _classical_over(hops, *copy, w, interceptor, i, "challenge")
        for i, hops in enumerate(hop_lists)
    )
    result, accepted_b, lambdas_b = _verify_challenge(
        challenge_copies, first_b, rem_b, params)

    copy = _make_response(result, second_b, params)
    response_copies = tuple(
        _classical_over(hops, *copy, w, interceptor, i, "response")
        for i, hops in enumerate(hop_lists)
    )
    result_prime, accepted_a = _verify_response(response_copies, second_a,
                                                params)

    final_a = final_b = None
    trash_a = trash_b = None
    tb = params.test_bits
    if result_prime == 1:
        final_a, trash_a = deterministic_pa(rem_a, tb, lambdas)
    if result == 1:
        final_b, trash_b = deterministic_pa(rem_b, tb, lambdas_b)

    return SessionOutcome(
        result=result,
        result_prime=result_prime,
        keys_equal=rem_a == rem_b,
        final_key_a=final_a,
        final_key_b=final_b,
        trash_a=trash_a,
        trash_b=trash_b,
        challenge_copies=challenge_copies,
        response_copies=response_copies,
        accepted_b=accepted_b,
        accepted_a=accepted_a,
        shares_received=tuple(received),
        paths=paths,
        view=view,
    )
