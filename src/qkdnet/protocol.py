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

:func:`full_session` runs the four phases on plain integers: the XOR of
the shares, the key parts from :func:`_key_parts` (first sub-key, second
sub-key, remainder) and the wire payloads of the challenge and the
response never become objects.  The phase helpers ``_make_challenge``,
``_verify_challenge``, ``_make_response`` and ``_verify_response`` take
those integers, and the challenge message is built and parsed only by
``_encode_challenge`` / ``_decode_challenge``.  The public
:class:`BitString` API (:func:`make_challenge`, :func:`verify_challenge`,
:func:`make_response`, :func:`verify_response`,
:func:`multipath_establish`, :func:`split_session_key`,
:func:`encode_challenge`, :func:`decode_challenge`) converts its
arguments once and calls the same helpers, so both levels compute the
same bits.
"""

from __future__ import annotations

from dataclasses import dataclass

from .adversary import (
    AdversaryConfig,
    AdversaryView,
    PublishedBundle,
    ScriptedAdversary,
    disclose,
)
from .bits import BitString
from .errors import LengthMismatch, OutOfRange, ParameterViolation
from .mac import MacKey, MacParams, Tag, _tag_value
from .mac import tag as mac_tag  # noqa: F401  (perfbench counts calls here)
from .network import NetworkGraph, PathSet, vertex_disjoint_paths
from .transport import (
    LinkKeyPool,
    _classical_over,
    _forward_key_over,
    _path_hops,
    qkd_generate,
)


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
    def mac(self) -> MacParams:
        return MacParams(self.word_bits)

    @property
    def reserved_bits(self) -> int:
        """Key bits consumed by the two MAC sub-keys."""
        return 2 * self.s

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


# --- integer-level kernel ---------------------------------------------------


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
    """Inverse of :func:`_encode_challenge`: (vectors, parities) lists."""
    chunk_mask = (1 << (test_bits + 1)) - 1
    lambdas, parities = [], []
    for v in range(m - 1, -1, -1):
        chunk = (message >> (v * (test_bits + 1))) & chunk_mask
        lambdas.append(chunk >> 1)
        parities.append(chunk & 1)
    return lambdas, parities


def _make_challenge(auth_first: int, remainder: int, params: SecurityParams, rng):
    """Draw m parity vectors (index order) against ``remainder``.

    Returns the vectors as bit strings and the wire payload, message ||
    tag under ``auth_first``, as an integer of challenge_bits + w bits.
    """
    tb = params.test_bits
    w = params.word_bits
    values = [rng.getrandbits(tb) for _ in range(params.m)]
    message = _encode_challenge(
        values, [(lam & remainder).bit_count() & 1 for lam in values], tb
    )
    tag = _tag_value(w, auth_first, message, params.challenge_bits)
    return (
        tuple(BitString.from_int(lam, tb) for lam in values),
        (message << w) | tag,
    )


def _verify_challenge(received, auth_first: int, remainder: int,
                      params: SecurityParams) -> ChallengeOutcome:
    w = params.word_bits
    cb = params.challenge_bits
    tag_mask = (1 << w) - 1
    accepted = None
    message = 0
    for h, payload in enumerate(received):
        if payload is None or payload.length != cb + w:
            continue
        pv = payload.value
        message = pv >> w
        if _tag_value(w, auth_first, message, cb) == pv & tag_mask:
            accepted = h
            break
    if accepted is None:
        return ChallengeOutcome(0, None, None, frozenset())
    identified = frozenset(
        i for i, payload in enumerate(received)
        if payload != received[accepted]
    )
    tb = params.test_bits
    values, parities = _decode_challenge(message, tb, params.m)
    ok = all(
        (lam & remainder).bit_count() & 1 == p
        for lam, p in zip(values, parities)
    )
    lambdas = tuple(BitString.from_int(lam, tb) for lam in values)
    return ChallengeOutcome(1 if ok else 0, accepted, lambdas, identified)


def _make_response(result: int, auth_second: int, params: SecurityParams) -> int:
    """Wire payload (result bit || tag under ``auth_second``) as an integer."""
    if result not in (0, 1):
        raise OutOfRange(f"result must be a bit, got {result}")
    w = params.word_bits
    return (result << w) | _tag_value(w, auth_second, result, 1)


def _verify_response(received, auth_second: int,
                     params: SecurityParams) -> ResponseOutcome:
    w = params.word_bits
    tag_mask = (1 << w) - 1
    for h, payload in enumerate(received):
        if payload is None or payload.length != 1 + w:
            continue
        pv = payload.value
        bit = pv >> w
        if _tag_value(w, auth_second, bit, 1) == pv & tag_mask:
            identified = frozenset(
                i for i, p in enumerate(received) if p != payload
            )
            return ResponseOutcome(bit, h, identified)
    return ResponseOutcome(0, None, frozenset())


def _establish(hop_lists, n: int, w: int, rng, interceptor):
    """One fresh n-bit share per path, drawn and forwarded in path order.

    Returns the sent share values and the received shares (bit strings,
    possibly substituted in length by an interceptor).
    """
    sent = []
    received = []
    for i, hops in enumerate(hop_lists):
        share = rng.getrandbits(n)
        sent.append(share)
        received.append(_forward_key_over(hops, share, n, w, interceptor, i))
    return sent, received


def _xor_values(values) -> int:
    acc = 0
    for v in values:
        acc ^= v
    return acc


# --- public BitString API -----------------------------------------------------


@dataclass(frozen=True)
class SessionKeyParts:
    """A full key split into the two MAC sub-keys and the remainder."""

    auth_first: MacKey
    auth_second: MacKey
    remainder: BitString


def _full_key_parts(full_key: BitString, params: SecurityParams):
    if full_key.length != params.n:
        raise OutOfRange(
            f"full key has {full_key.length} bits, params require {params.n}"
        )
    return _key_parts(full_key.value, params)


def split_session_key(full_key: BitString, params: SecurityParams) -> SessionKeyParts:
    first, second, remainder = _full_key_parts(full_key, params)
    s = params.s
    return SessionKeyParts(
        MacKey(BitString.from_int(first, s)),
        MacKey(BitString.from_int(second, s)),
        BitString.from_int(remainder, params.test_bits),
    )


@dataclass(frozen=True)
class Challenge:
    """Parity challenge: m vectors, their remainder parities, and a tag."""

    lambdas: tuple
    parities: tuple
    message: BitString
    tag: Tag

    def payload(self) -> BitString:
        """Wire form: message || tag."""
        return self.message.concat(self.tag.value)


def encode_challenge(lambdas, parities, test_bits: int) -> BitString:
    return BitString.from_int(
        _encode_challenge([lam.value for lam in lambdas], parities, test_bits),
        len(lambdas) * (test_bits + 1),
    )


def decode_challenge(message: BitString, params: SecurityParams):
    """Inverse of encode_challenge; None if the length is malformed."""
    if message.length != params.challenge_bits:
        return None
    tb = params.test_bits
    values, parities = _decode_challenge(message.value, tb, params.m)
    return (
        tuple(BitString.from_int(lam, tb) for lam in values),
        tuple(parities),
    )


def make_challenge(full_key: BitString, params: SecurityParams, rng) -> Challenge:
    """Draw m parity vectors against the key remainder and tag the bundle.

    Vectors are sampled in index order from ``rng`` for reproducibility.
    """
    first, _, remainder = _full_key_parts(full_key, params)
    lambdas, payload = _make_challenge(first, remainder, params, rng)
    message, tag = split_challenge_payload(
        BitString.from_int(payload, params.challenge_bits + params.word_bits),
        params,
    )
    _, parities = _decode_challenge(message.value, params.test_bits, params.m)
    return Challenge(lambdas, tuple(parities), message, tag)


def split_challenge_payload(payload: BitString, params: SecurityParams):
    """Split a wire payload into (message, tag); None if malformed."""
    w = params.word_bits
    cb = params.challenge_bits
    if payload.length != cb + w:
        return None
    pv = payload.value
    return (
        BitString.from_int(pv >> w, cb),
        Tag(BitString.from_int(pv & ((1 << w) - 1), w)),
    )


@dataclass(frozen=True)
class ChallengeOutcome:
    """Responder verdict: result bit, accepted path, decoded vectors."""

    result: int
    accepted_path: int | None
    lambdas: tuple | None
    identified_dishonest: frozenset


def verify_challenge(received, full_key: BitString, params: SecurityParams) -> ChallengeOutcome:
    """Scan per-path copies in ascending index; the first copy whose tag
    authenticates is checked against the local remainder parities.

    ``received`` holds one payload (or None for a dropped copy) per
    path.  result=1 iff an authenticated copy exists and every embedded
    parity matches; any other outcome gives result=0.
    """
    first, _, remainder = _full_key_parts(full_key, params)
    return _verify_challenge(received, first, remainder, params)


def make_response(result: int, full_key: BitString, params: SecurityParams) -> BitString:
    """One-bit verdict tagged under the second MAC sub-key (wire form)."""
    _, second, _ = _full_key_parts(full_key, params)
    return BitString.from_int(
        _make_response(result, second, params), 1 + params.word_bits
    )


@dataclass(frozen=True)
class ResponseOutcome:
    result_prime: int
    accepted_path: int | None
    identified_dishonest: frozenset


def verify_response(received, full_key: BitString, params: SecurityParams) -> ResponseOutcome:
    """result' is the bit of the first properly authenticated copy
    (ascending path index); 0 when no copy authenticates."""
    _, second, _ = _full_key_parts(full_key, params)
    return _verify_response(received, second, params)


def deterministic_pa(key: BitString, lambdas) -> tuple[BitString, frozenset]:
    """Deterministic privacy amplification.

    Maintains a row-reduced basis of the disclosed parity vectors,
    processed in order: each vector is reduced against the pivots chosen
    so far, a vector surviving reduction trashes the leading (smallest
    1-based) position of its reduced form, and a vector reducing to zero
    discloses nothing fresh and trashes nothing.  The chosen positions
    support a triangular, hence invertible, system in the trashed bits,
    so conditioned on every disclosed parity the surviving bits remain
    exactly uniform.

    Note the pivot must come from the *reduced* vector: trashing the
    leading not-yet-trashed position of the raw vector leaves linear
    combinations of parities (e.g. of (011101, 100111, 010111)) landing
    entirely on surviving positions, which would leak.

    Returns the key with trashed positions deleted (original order
    preserved) and the 1-based trash set.  At most one position is
    trashed per vector, and both ends compute identical outputs from
    identical vectors without communication.  The output is assembled
    from the runs of surviving bits between sorted trashed positions,
    at most m + 1 shift-and-mask steps.
    """
    nb = key.length
    basis: dict[int, int] = {}
    for lam in lambdas:
        if lam.length != nb:
            raise LengthMismatch(
                f"parity vector has {lam.length} bits, key has {nb}"
            )
        v = lam.value
        while v:
            pos = nb - v.bit_length() + 1
            row = basis.get(pos)
            if row is None:
                basis[pos] = v
                break
            v ^= row
    kv = key.value
    out = 0
    prev = 0
    for pos in sorted(basis):
        run = pos - prev - 1    # surviving bits prev+1 .. pos-1
        out = (out << run) | ((kv >> (nb - pos + 1)) & ((1 << run) - 1))
        prev = pos
    run = nb - prev
    out = (out << run) | (kv & ((1 << run) - 1))
    return BitString.from_int(out, nb - len(basis)), frozenset(basis)


@dataclass(frozen=True)
class AuthTranscript:
    """Audit record of the authentication round trip.

    Per-path copies hold the verbatim wire payloads (None for ⊥).
    """

    challenge_copies: tuple
    response_copies: tuple
    result: int
    result_prime: int
    identified_dishonest: frozenset

    def serialize(self) -> str:
        """One line per message: direction, path index, verbatim bits."""
        lines = []
        for direction, copies in (
            ("challenge", self.challenge_copies),
            ("response", self.response_copies),
        ):
            for i, payload in enumerate(copies):
                bits = str(payload) if payload is not None else "bottom"
                lines.append(f"{direction} path={i} bits={bits}")
        lines.append(f"result={self.result} result_prime={self.result_prime}")
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class EstablishResult:
    key_a: BitString
    key_b: BitString
    shares_sent: tuple
    shares_received: tuple
    paths: PathSet


def provision_pools(graph: NetworkGraph, paths: PathSet, bits_per_link: int, rng):
    """One fresh epoch per link used by ``paths``, in deterministic order."""
    pools = {}
    for i in range(len(paths)):
        for u, v in paths.hops(i):
            key = (u, v) if u <= v else (v, u)
            if key not in pools:
                pool = LinkKeyPool(graph.link_between(u, v))
                qkd_generate(pool, bits_per_link, rng)
                pools[key] = pool
    return pools


def multipath_establish(
    graph: NetworkGraph,
    a: str,
    b: str,
    params: SecurityParams,
    rng,
    interceptor=None,
    paths: PathSet | None = None,
    pools=None,
) -> EstablishResult:
    """Transport one fresh n-bit share per disjoint path and XOR them.

    With no active adversary the two ends compute identical keys; a
    tampering node on any path desynchronizes them without either party
    noticing at this layer.
    """
    if paths is None:
        paths = vertex_disjoint_paths(graph, a, b, params.ell)
    if pools is None:
        pools = provision_pools(
            graph, paths, params.n + 2 * params.word_bits, rng
        )
    n = params.n
    sent, received = _establish(
        [_path_hops(p, pools) for p in paths.paths], n, params.word_bits,
        rng, interceptor,
    )
    return EstablishResult(
        key_a=BitString.from_int(_xor_values(sent), n),
        key_b=BitString.from_int(
            _xor_values(r.value for r in received), n
        ),
        shares_sent=tuple(BitString.from_int(v, n) for v in sent),
        shares_received=tuple(received),
        paths=paths,
    )


@dataclass(frozen=True)
class SessionOutcome:
    """Everything a trial records about one full session."""

    result: int
    result_prime: int
    keys_equal: bool          # delta over the remainder keys
    full_keys_equal: bool
    final_key_a: BitString | None
    final_key_b: BitString | None
    trash_a: frozenset | None
    trash_b: frozenset | None
    transcript: AuthTranscript
    shares_sent: tuple
    shares_received: tuple
    challenge_lambdas: tuple
    paths: PathSet
    view: AdversaryView
    published: PublishedBundle | None
    leaked_epochs: int
    parity_bits_disclosed: int

    @property
    def succeeded(self) -> bool:
        """The agreement event: result = result' = delta."""
        return self.result == self.result_prime == int(self.keys_equal)


def full_session(
    graph: NetworkGraph,
    a: str,
    b: str,
    params: SecurityParams,
    adversary: AdversaryConfig | None,
    rng,
    paths: PathSet | None = None,
) -> SessionOutcome:
    """Run establish, challenge, response, and distillation once.

    All randomness flows from ``rng`` in a fixed order (per-link pool
    epochs in path/hop order, then per-path shares, then the parity
    vectors, with adversary draws interleaved at interception points),
    so a seeded generator reproduces the trial bit-for-bit.  Protocol
    failures surface as result=0 outcomes, never exceptions.  Keys, key
    parts and wire payloads stay integers; bit strings are built only
    for what the outcome records and for distillation.
    """
    if paths is None:
        paths = vertex_disjoint_paths(graph, a, b, params.ell)
    view = AdversaryView(len(paths), params.n)
    interceptor = (
        ScriptedAdversary(adversary, view, rng) if adversary is not None else None
    )
    pools = provision_pools(graph, paths, params.session_demand_bits, rng)
    hop_lists = [_path_hops(p, pools) for p in paths.paths]

    w = params.word_bits
    n = params.n
    sent, received = _establish(hop_lists, n, w, rng, interceptor)
    key_a = _xor_values(sent)
    key_b = _xor_values(r.value for r in received)
    first_a, second_a, rem_a = _key_parts(key_a, params)
    first_b, second_b, rem_b = _key_parts(key_b, params)

    lambdas, payload = _make_challenge(first_a, rem_a, params, rng)
    challenge_copies = tuple(
        _classical_over(hops, payload, params.challenge_bits + w,
                        w, interceptor, i, "challenge")
        for i, hops in enumerate(hop_lists)
    )
    cv = _verify_challenge(challenge_copies, first_b, rem_b, params)

    response = _make_response(cv.result, second_b, params)
    response_copies = tuple(
        _classical_over(hops, response, 1 + w, w, interceptor, i, "response")
        for i, hops in enumerate(hop_lists)
    )
    rv = _verify_response(response_copies, second_a, params)

    final_a = final_b = None
    trash_a = trash_b = None
    tb = params.test_bits
    if rv.result_prime == 1:
        final_a, trash_a = deterministic_pa(
            BitString.from_int(rem_a, tb), lambdas
        )
    if cv.result == 1:
        final_b, trash_b = deterministic_pa(
            BitString.from_int(rem_b, tb), cv.lambdas
        )

    published = None
    if interceptor is not None and interceptor.discloses:
        published = disclose(view)

    transcript = AuthTranscript(
        challenge_copies=challenge_copies,
        response_copies=response_copies,
        result=cv.result,
        result_prime=rv.result_prime,
        identified_dishonest=cv.identified_dishonest | rv.identified_dishonest,
    )
    return SessionOutcome(
        result=cv.result,
        result_prime=rv.result_prime,
        keys_equal=rem_a == rem_b,
        full_keys_equal=key_a == key_b,
        final_key_a=final_a,
        final_key_b=final_b,
        trash_a=trash_a,
        trash_b=trash_b,
        transcript=transcript,
        shares_sent=tuple(BitString.from_int(v, n) for v in sent),
        shares_received=tuple(received),
        challenge_lambdas=lambdas,
        paths=paths,
        view=view,
        published=published,
        leaked_epochs=len(view.compromised_link_bits),
        parity_bits_disclosed=params.m,
    )
