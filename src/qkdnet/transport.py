"""Hop-by-hop key forwarding and classical message delivery.

Each link holds a :class:`LinkKeyPool`: one epoch of bits shared by its
two endpoints, drawn when the pool is built.  A session gives every
link of its paths exactly one epoch of ``session_demand_bits``, and the
three transfers that cross the link (share, challenge, response) use it
up.  Under the epsilon-ideal model an epoch is uniform and fresh, but
with probability ``link.epsilon`` it is flagged compromised (the
adversary learns its bits).  One hop, :func:`_hop_transfer`,
one-time-pads the payload and authenticates the ciphertext with a fresh
per-hop MAC key drawn from the same pool, so no pool bit is ever used
twice.

A path is the sequence of its ``(pool, receiver)`` hops, built by
``provision_pools`` in :mod:`qkdnet.protocol`; the receiver is None on
the final hop (delivery to the endpoint is not an interception point).
Key shares cross a path with :func:`_forward_key_over` and classical
protocol messages with :func:`_classical_over`; the session engine in
:mod:`qkdnet.protocol` is their caller.  Intermediate nodes of a path
see forwarded key material in plaintext (the trusted-repeater
property); an ``interceptor`` lets corrupted nodes record and
substitute values.  Classical messages on honest paths are always
delivered within the trial, which discretizes the eventual-delivery
assumption.

Interceptor contract.  Every session passes one interceptor, with or
without corrupted nodes.  Payloads are plain integers of ``nbits``
bits, first-sent bit most significant; a hook never changes the length.
The two relay hooks are called at every intermediate node and return
the value unchanged at an honest one.

* ``on_key_hop(path_index, node, value, nbits) -> int``: the share as
  the next hop will carry it, at each intermediate node of a key path.
* ``on_classical_hop(path_index, node, kind, value, nbits) -> int |
  None``: the message to relay (``kind`` is ``"challenge"`` or
  ``"response"``), or None to drop it.
* ``on_hop_leak(path_index, value)``: fires for each hop of a key
  share that crossed an epsilon-compromised epoch of its link, whether
  or not any node is corrupted.
"""

from __future__ import annotations

from .errors import InsufficientKey, LinkDown
from .mac import _tag_value
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


def _hop_transfer(pool: LinkKeyPool, value: int, nbits: int, w: int):
    """Object-free hop: OTP-encrypt, tag, deliver, decrypt.

    The in-model wire is never attacked (the adversary acts at corrupted
    nodes, which are legitimate hop endpoints), so the receiver-side tag
    check provably passes.  The hop tag is still computed and then
    discarded: that work changes no result and is a known waste, kept
    for now because the benchmark pins the per-trial hash-call counts.
    Consumes ``nbits + 2w`` bits of the link's one epoch in one call:
    the pad first, then the 2w-bit hop MAC key, so no pool bit is used
    twice.  A session's three transfers over a link use up exactly the
    ``session_demand_bits`` it was provisioned with; the
    :class:`InsufficientKey` guard in ``take`` still refuses a short pool.
    """
    combined, leaked = pool.take(nbits + 2 * w)
    mac_key = combined & ((1 << (2 * w)) - 1)
    otp = combined >> (2 * w)
    cipher = value ^ otp
    _tag_value(w, mac_key, cipher, nbits)
    return cipher ^ otp, leaked


def _forward_key_over(hops, value, nbits, w, interceptor, path_index):
    """Relay a key share hop by hop over ``hops``; return what B receives.

    ``hops`` are the path's ``(pool, receiver)`` pairs.  Every
    intermediate node observes the share in plaintext.  The
    ``interceptor`` is consulted at each intermediate node via
    ``on_key_hop`` and may record or substitute; epsilon-leaked hops are
    reported via ``on_hop_leak``.
    """
    for pool, stop in hops:
        value, leaked = _hop_transfer(pool, value, nbits, w)
        if leaked:
            interceptor.on_hop_leak(path_index, value)
        if stop is not None:
            value = interceptor.on_key_hop(path_index, stop, value, nbits)
    return value


def _classical_over(hops, value, nbits, w, interceptor, path_index, kind):
    """Deliver a classical protocol message over ``hops``.

    Returns the copy B receives as a ``(value, nbits)`` pair.  On a path
    with no corrupted node the message always arrives unmodified
    (eventual delivery, discretized to same-trial delivery).  At
    corrupted nodes the interceptor's ``on_classical_hop`` chooses what
    to relay; returning None drops the message, making the delivery ⊥
    (None).
    """
    for pool, stop in hops:
        value, _ = _hop_transfer(pool, value, nbits, w)
        if stop is not None:
            value = interceptor.on_classical_hop(path_index, stop, kind,
                                                 value, nbits)
            if value is None:
                return None
    return value, nbits
