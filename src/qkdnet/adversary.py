"""t-bounded Byzantine adversary model.

Corruption is static per trial: a :class:`AdversaryConfig` fixes which
nodes are Byzantine and which scripted strategies they run.  During a
session a :class:`ScriptedAdversary` plugs into the transport layer as
its interceptor (the hook contract is in :mod:`qkdnet.transport`),
recording the key shares corrupted nodes and leaked hops reveal into an
:class:`AdversaryView` and applying the scripted behaviors:

* ``passive``        observe and forward faithfully
* ``tamper_shares``  XOR a random nonzero mask into relayed key shares
* ``forge_auth``     replace classical payloads with uniform random bits
                     of the same length
                     (a random well-formed message plus a uniform tag,
                     i.e. one impersonation attempt per interception)
* ``drop_auth``      deliver ⊥ for classical payloads

The session's hop plan (``protocol._link_plan``) marks the hops into
corrupted relays; only those call the hooks.  All the adversary knows
is which paths' shares it holds: the view maps each such path to the
share the sender put on it.  Disclosure to an honest-but-curious party
is reading the session's ``view``; there is no separate disclosure step.

Privacy is measured by exact Bayesian enumeration: all completions of
the unknown shares are enumerated (vectorised, in bounded numpy blocks)
and the advantage is the maximum posterior probability of any final key
minus the uniform 2^-k.  There is no sampling fallback: an instance past
the enumeration limit raises :class:`TooLarge`.  Only that enumeration
imports numpy, so a session never loads it.

Shares and messages are held as plain integers: a view's shares are
``view.share_bits`` wide.  ``AdversaryConfig()`` is the empty adversary
(no corrupted node, t = 0), the one form of "no adversary".
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import (
    BoundExceeded,
    EndpointCorruption,
    OutOfRange,
    TooLarge,
    ValidationError,
)
from .network import NetworkGraph

STRATEGIES = (
    "passive",
    "tamper_shares",
    "forge_auth",
    "drop_auth",
)
#: Strategies of an adversary that names none; ``()`` acts the same.
DEFAULT_STRATEGIES = ("passive",)


@dataclass(frozen=True)
class AdversaryConfig:
    """Static corrupted nodes (a frozenset: the hop plan's cache key) and
    scripted strategies; the defaults are the empty adversary."""

    corrupted: frozenset = frozenset()
    t_bound: int = 0
    strategies: tuple = DEFAULT_STRATEGIES

    def __post_init__(self):
        object.__setattr__(self, "corrupted", frozenset(self.corrupted))
        if self.t_bound < 0:
            raise ValidationError(f"t_bound must be >= 0, got {self.t_bound}")
        if len(self.corrupted) > self.t_bound:
            raise BoundExceeded(
                f"{len(self.corrupted)} corrupted nodes exceed t={self.t_bound}"
            )
        for s in self.strategies:
            if s not in STRATEGIES:
                raise ValidationError(f"unknown strategy {s!r}")


def corrupt(
    graph: NetworkGraph,
    nodes,
    t: int,
    endpoints,
    strategies=DEFAULT_STRATEGIES,
) -> AdversaryConfig:
    """Corrupt ``nodes`` under a t-bound.

    The session ``endpoints`` are never corruptible: naming one raises
    :class:`EndpointCorruption`.
    """
    nodes = frozenset(nodes)
    unknown = nodes - graph.nodes
    if unknown:
        raise ValidationError(f"cannot corrupt unknown node(s) {sorted(unknown)}")
    hit = nodes & frozenset(endpoints)
    if hit:
        raise EndpointCorruption(f"endpoints cannot be corrupted: {sorted(hit)}")
    return AdversaryConfig(corrupted=nodes, t_bound=t, strategies=tuple(strategies))


class AdversaryView:
    """Everything one observer has learned during a single trial.

    ``learned_shares`` maps a path index to the first share value seen
    on it, which is the value the sender put on the path.  The map
    gains an entry only when the path crosses a corrupted node or an
    epsilon-compromised hop.  ``leaked_epochs`` counts the hops that
    crossed a compromised epoch.
    """

    __slots__ = ("n_paths", "share_bits", "learned_shares", "leaked_epochs")

    def __init__(self, n_paths: int, share_bits: int):
        self.n_paths = n_paths
        self.share_bits = share_bits
        self.learned_shares: dict[int, int] = {}
        self.leaked_epochs = 0

    def record_share(self, path_index: int, value: int):
        self.learned_shares.setdefault(path_index, value)


class ScriptedAdversary:
    """Transport interceptor executing an :class:`AdversaryConfig`.

    The session's hop plan calls the relay hooks only at corrupted
    relays, so the adversary keeps no corrupted set.  Drop beats forge
    when both are scripted.  Tamper masks and forged payloads are drawn
    from the trial rng, so trials replay bit-for-bit.
    """

    __slots__ = ("view", "rng", "_tamper", "_forge", "_drop")

    def __init__(self, config: AdversaryConfig, view: AdversaryView, rng):
        self.view = view
        self.rng = rng
        self._tamper = "tamper_shares" in config.strategies
        self._forge = "forge_auth" in config.strategies
        self._drop = "drop_auth" in config.strategies

    def on_key_hop(self, path_index, value, nbits):
        self.view.record_share(path_index, value)
        if self._tamper:
            value ^= self.rng.randrange(1, 1 << nbits)
        return value

    def on_classical_hop(self, path_index, kind, value, nbits):
        if self._drop:
            return None
        if self._forge:
            return self.rng.getrandbits(nbits)
        return value

    def on_hop_leak(self, path_index, value):
        self.view.leaked_epochs += 1
        self.view.record_share(path_index, value)


#: Exhaustive enumeration limits: u unknown shares of k bits are
#: enumerated when k <= 16 and u*k <= EXACT_LIMIT_BITS.
EXACT_LIMIT_BITS = 20
#: Assignments per numpy block (2^16 values).
_BLOCK_BITS = 16


@lru_cache(maxsize=None)
def _block_arrays(block_bits: int):
    """The arrays of one :func:`guessing_advantage` block of
    2^block_bits assignments: the read-only ramp ``[0, 1, ...]``
    (uint32) and two work buffers, the assignments (uint32) and the keys
    they fold to (intp, the index type ``bincount`` reads without a cast
    copy).  Kept for the life of the process, so a warm call faults in
    no fresh pages."""
    import numpy as np

    ramp = np.arange(1 << block_bits, dtype=np.uint32)
    ramp.flags.writeable = False
    return ramp, np.empty_like(ramp), np.empty(ramp.size, np.intp)


def guessing_advantage(view: AdversaryView) -> Fraction:
    """Exact advantage of ``view`` at guessing the XOR of all path shares.

    The key is ``key_len = view.share_bits`` bits wide.  Enumerates every
    assignment of the u unknown shares, 2^(u*key_len) in all, in blocks
    of at most 2^16 written into reused work buffers: each block
    XOR-folds its u key_len-bit chunks into the known shares' XOR and
    adds the histogram of the resulting keys to a running count.  The
    first block's assignments are the ramp itself; the mask to key_len
    bits is needed only when two or more chunks are folded.  Every
    assignment is counted.
    Returns the maximum posterior probability minus 2^-key_len as a
    Fraction; 0 means perfect privacy.  There is no estimate: raises
    :class:`TooLarge` when key_len > 16 or u*key_len >
    ``EXACT_LIMIT_BITS``, and :class:`OutOfRange` when the view's shares
    are narrower than one bit, or before any enumeration when a known
    share's path index lies outside 0..n_paths-1 or its value outside
    [0, 2^key_len).  The work buffers are shared by the calls of one
    process, so calls must not run concurrently in threads.
    """
    key_len = view.share_bits
    if key_len < 1:
        raise OutOfRange(f"view shares must be >= 1 bit, got {key_len}")
    base = 0
    for i, share in view.learned_shares.items():
        if not (0 <= i < view.n_paths and 0 <= share < 1 << key_len):
            raise OutOfRange(
                f"known share {share} on path {i} is outside the view's "
                f"{view.n_paths} paths of {key_len}-bit shares"
            )
        base ^= share
    unknown = view.n_paths - len(view.learned_shares)

    uniform = Fraction(1, 1 << key_len)
    if unknown == 0:
        return Fraction(1) - uniform
    bits = unknown * key_len
    if key_len > 16 or bits > EXACT_LIMIT_BITS:
        raise TooLarge(
            f"{unknown} unknown shares of {key_len} bits exceed exact mode"
        )
    import numpy as np

    ramp, a, keys = _block_arrays(min(bits, _BLOCK_BITS))
    shift = np.uint32(key_len)
    for start in range(0, 1 << bits, ramp.size):
        # the first block's assignments are the ramp itself
        src = np.add(ramp, np.uint32(start), out=a) if start else ramp
        # the key is the known shares' XOR ^ the low key_len bits of
        # src ^ (src >> key_len) ^ (src >> 2*key_len) ^ ...
        np.bitwise_xor(src, base, out=keys)
        for _ in range(unknown - 1):
            src = np.right_shift(src, shift, out=a)
            np.bitwise_xor(keys, a, out=keys)
        if unknown > 1:
            np.bitwise_and(keys, (1 << key_len) - 1, out=keys)
        hist = np.bincount(keys, minlength=1 << key_len)
        if start:
            counts += hist
        else:
            counts = hist
    return Fraction(int(counts.max()), 1 << bits) - uniform
