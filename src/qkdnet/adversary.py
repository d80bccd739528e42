"""Static Byzantine adversary model.

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

Privacy is the advantage of a view at guessing the key, the XOR of
every path's share: the maximum posterior probability of any key minus
the uniform 2^-k.  The shares are independent and uniform, so one
unknown share is a one-time pad on the rest (Shannon, BSTJ 1949): the
advantage is exactly 0 while any share is unknown, and 1 - 2^-k once
the view holds them all.

Shares and messages are held as plain integers: a view's shares are
``view.share_bits`` wide.  ``AdversaryConfig()`` is the empty adversary,
the one form of "no adversary".
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .errors import OutOfRange, ValidationError, shown
from .network import NetworkGraph

STRATEGIES = (
    "passive",
    "tamper_shares",
    "forge_auth",
    "drop_auth",
)
#: Strategies of an adversary that names none; ``()`` acts the same.
DEFAULT_STRATEGIES = ("passive",)
#: Largest single ``random.getrandbits`` draw (its argument is a C int):
#: the widest share a session draws, so the widest full view scored.
MAX_DRAW_BITS = (1 << 31) - 1


class AdversaryConfig(namedtuple("AdversaryConfig", "corrupted strategies")):
    """Static corrupted nodes, an iterable of node names held as a
    frozenset (the hop plan's cache key), and scripted strategies, a list
    or tuple of :data:`STRATEGIES` names; the defaults are the empty
    adversary.  A document's ``t`` is checked by ``load_scenario`` and
    not kept: the bounds count controlled paths."""

    __slots__ = ()

    def __new__(cls, corrupted: frozenset = frozenset(),
                strategies: tuple = DEFAULT_STRATEGIES):
        try:
            nodes = None if isinstance(corrupted, str) else frozenset(corrupted)
        except TypeError:   # not iterable, or holds an unhashable item
            nodes = None
        if nodes is None or not all(isinstance(v, str) for v in nodes):
            raise ValidationError("corrupted must be an iterable of node "
                                  f"names, got {shown(corrupted)}")
        if not isinstance(strategies, (list, tuple)):
            raise ValidationError("strategies must be a list or tuple of "
                                  f"names, got {shown(strategies)}")
        for s in strategies:
            if s not in STRATEGIES:
                raise ValidationError(f"unknown strategy {shown(s)}")
        return tuple.__new__(cls, (nodes, strategies))

    _make = classmethod(lambda cls, it: cls(*it))  # _replace runs __new__ too


def corrupt(graph: NetworkGraph, nodes, endpoints,
            strategies=DEFAULT_STRATEGIES) -> AdversaryConfig:
    """Corrupt ``nodes`` of ``graph``.

    The session ``endpoints`` are never corruptible: naming one, or a
    node outside the graph, raises :class:`ValidationError`.
    """
    nodes = frozenset(nodes)
    unknown = nodes - graph.nodes
    if unknown:
        raise ValidationError(f"cannot corrupt unknown node(s) {sorted(unknown)}")
    hit = nodes & frozenset(endpoints)
    if hit:
        raise ValidationError(f"endpoints cannot be corrupted: {sorted(hit)}")
    return AdversaryConfig(corrupted=nodes, strategies=tuple(strategies))


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


def guessing_advantage(view: AdversaryView) -> Fraction:
    """Exact advantage of ``view`` at guessing the XOR of all path shares.

    The key is ``key_len = view.share_bits`` bits wide.  While a share
    is unknown it pads the known shares' XOR (Shannon, BSTJ 1949), so
    every key stays equally likely and the advantage is 0; a view that
    holds every share knows the key, advantage 1 - 2^-key_len.  Returns
    a Fraction; 0 means perfect privacy, at any width.  Raises
    :class:`OutOfRange` when the view's share width or path count is not
    an int (bools are refused), its shares are narrower than one bit or
    its path count is negative, when a known share or its path index is
    not an int, the index lies outside 0..n_paths-1 or the share outside
    [0, 2^key_len), or when a view holding every share is wider than
    :data:`MAX_DRAW_BITS`.
    """
    key_len = view.share_bits
    for name, value in (("share_bits", key_len), ("n_paths", view.n_paths)):
        if type(value) is not int:
            raise OutOfRange(f"view {name} must be an int, got {shown(value)}")
    if key_len < 1:
        raise OutOfRange(f"view shares must be >= 1 bit, got {shown(key_len)}")
    if view.n_paths < 0:
        raise OutOfRange(f"view must have >= 0 paths, got {shown(view.n_paths)}")
    for i, share in view.learned_shares.items():
        if not (type(i) is int and type(share) is int and 0 <= i < view.n_paths
                and 0 <= share and share.bit_length() <= key_len):
            raise OutOfRange(
                f"known share {shown(share)} on path {shown(i)} does not fit "
                f"the view's {shown(view.n_paths)} paths of {shown(key_len)}"
                "-bit int shares"
            )
    if len(view.learned_shares) < view.n_paths:
        return Fraction(0)
    if key_len > MAX_DRAW_BITS:
        raise OutOfRange(f"a full view's shares must be <= {MAX_DRAW_BITS} "
                         f"bits, got {shown(key_len)}")
    return 1 - Fraction(1, 1 << key_len)
