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

Privacy is measured by exact Bayesian enumeration: the advantage is the
maximum posterior probability of any final key minus the uniform 2^-k.
The key is the known shares' XOR ^ the XOR of the u unknown ones, and
XOR by a constant only permutes the key histogram, so its peak depends
on k and u alone: all 2^(u*k) completions are enumerated once per
(k, u) and process, whatever the known shares are, in numpy blocks of
at most 2^16 that each call builds afresh; the memo of peak counts is
the only state kept.  There is no sampling fallback: an instance past the
enumeration limit raises :class:`TooLarge`.  Only that enumeration
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
def _peak_count(key_len: int, unknown: int) -> int:
    """The largest number of the 2^(unknown*key_len) assignments of
    ``unknown`` key_len-bit shares that XOR to one key.

    Enumerates every assignment in blocks of at most 2^``_BLOCK_BITS``,
    each in fresh arrays: a block XOR-folds the ``unknown`` key_len-bit
    chunks of its assignments into keys and adds the histogram of those
    keys to a running count.  The known shares' XOR is left out: it only
    permutes the histogram, so it cannot change the peak.
    :func:`guessing_advantage` bounds the arguments (key_len <= 16,
    unknown*key_len <= ``EXACT_LIMIT_BITS``), so the memo, the only
    state kept between calls, holds at most 62 ints.
    """
    import numpy as np

    bits = unknown * key_len
    block = 1 << min(bits, _BLOCK_BITS)
    counts = 0
    for start in range(0, 1 << bits, block):
        # intp, the index type bincount reads without a slow cast
        keys = np.arange(start, start + block, dtype=np.intp)
        # XOR in the keys shifted by key_len, 2*key_len, 4*key_len, ...:
        # each becomes a ^ (a >> key_len) ^ (a >> 2*key_len) ^ ... over
        # every chunk of its assignment a, whose low key_len bits are
        # the chunks' XOR
        shift = key_len
        while shift < bits:
            keys ^= keys >> shift
            shift *= 2
        keys &= (1 << key_len) - 1
        counts = counts + np.bincount(keys, minlength=1 << key_len)
    return int(counts.max())


def guessing_advantage(view: AdversaryView) -> Fraction:
    """Exact advantage of ``view`` at guessing the XOR of all path shares.

    The key is ``key_len = view.share_bits`` bits wide, and u shares are
    unknown.  The key is the known shares' XOR ^ the unknown shares'
    XOR; XOR by that constant is a bijection on the keys, so the peak of
    the key histogram over all 2^(u*key_len) assignments is that of the
    unknown shares alone, :func:`_peak_count` (key_len, u), enumerated
    once per process.  Every assignment is counted.
    Returns the maximum posterior probability minus 2^-key_len as a
    Fraction; 0 means perfect privacy.  There is no estimate: raises
    :class:`TooLarge` when key_len > 16 or u*key_len >
    ``EXACT_LIMIT_BITS``, and :class:`OutOfRange` before any enumeration
    when the view's share width or path count is not an int (bools are
    refused), its shares are narrower than one bit or its path count is
    negative, or when a known share or its path index is not an int, the
    index lies outside 0..n_paths-1 or the share outside [0, 2^key_len).
    """
    key_len = view.share_bits
    for name, value in (("share_bits", key_len), ("n_paths", view.n_paths)):
        if type(value) is not int:
            raise OutOfRange(f"view {name} must be an int, got {value!r}")
    if key_len < 1:
        raise OutOfRange(f"view shares must be >= 1 bit, got {key_len}")
    if view.n_paths < 0:
        raise OutOfRange(f"view must have >= 0 paths, got {view.n_paths}")
    n_keys = 1 << key_len
    for i, share in view.learned_shares.items():
        if not (type(i) is int and type(share) is int
                and 0 <= i < view.n_paths and 0 <= share < n_keys):
            raise OutOfRange(
                f"known share {share!r} on path {i!r} does not fit the "
                f"view's {view.n_paths} paths of {key_len}-bit int shares"
            )
    unknown = view.n_paths - len(view.learned_shares)

    uniform = Fraction(1, n_keys)
    if unknown == 0:
        return Fraction(1) - uniform
    bits = unknown * key_len
    if key_len > 16 or bits > EXACT_LIMIT_BITS:
        raise TooLarge(
            f"{unknown} unknown shares of {key_len} bits exceed exact mode"
        )
    return Fraction(_peak_count(key_len, unknown), 1 << bits) - uniform
