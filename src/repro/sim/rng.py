"""Deterministic, named random-number streams.

Every stochastic component in the simulator (each node's MAC backoff, each
link's shadowing process, each workload timer, ...) draws from its own named
substream.  This gives two properties the experiments rely on:

* **Reproducibility** — a run is a pure function of the master seed.
* **Variance isolation** — changing how one component consumes randomness
  (e.g. adding a retransmission) does not perturb the random sequence seen
  by unrelated components, so A/B comparisons between protocols share the
  same channel realization.

A component that draws from its stream for the whole run holds an interned
stream (:meth:`RngManager.stream`); a component that draws a few values once
— a per-pair static shadowing sample — takes a one-shot
:meth:`RngManager.draw`, which yields the same values without keeping a
generator state per key alive for the run.
"""

from __future__ import annotations

import hashlib
import random
import struct
from typing import Any, Dict, Tuple, Union

_KeyPart = Union[str, int]

_U64 = struct.Struct("<Q")
_INT_PART = struct.Struct("<cQc")
_MASK64 = 0xFFFFFFFFFFFFFFFF


def _encode_part(part: _KeyPart) -> bytes:
    """Canonical encoding of one key part (type tag, payload, terminator)."""
    if isinstance(part, int):
        return _INT_PART.pack(b"i", part & _MASK64, b"\x00")
    return b"s" + part.encode("utf-8") + b"\x00"


def derive_seed(master_seed: int, *key: _KeyPart) -> int:
    """Derive a 64-bit seed from a master seed and a structured key.

    Uses BLAKE2b over a canonical encoding of the key parts, so the result
    is stable across processes and Python versions (unlike ``hash()``).
    """
    h = hashlib.blake2b(digest_size=8)
    h.update(_U64.pack(master_seed & _MASK64))
    for part in key:
        h.update(_encode_part(part))
    return int.from_bytes(h.digest(), "little")


class RngManager:
    """Factory of independent ``random.Random`` streams keyed by name.

    >>> mgr = RngManager(42)
    >>> a = mgr.stream("mac", 3)
    >>> b = mgr.stream("mac", 4)
    >>> a is mgr.stream("mac", 3)
    True
    """

    def __init__(self, master_seed: int) -> None:
        self.master_seed = master_seed
        self._streams: dict[Tuple[_KeyPart, ...], random.Random] = {}
        #: first key part → BLAKE2b state holding ``(master_seed, part)``;
        #: copied per derivation so the shared prefix is hashed once.
        self._prefixes: Dict[_KeyPart, Any] = {}
        #: The one generator every :meth:`draw` reseeds and hands out.
        self._scratch = random.Random(0)

    def _seed_for(self, key: Tuple[_KeyPart, ...]) -> int:
        """``derive_seed(self.master_seed, *key)``, reusing the hashed prefix."""
        if not key:
            return derive_seed(self.master_seed)
        head = key[0]
        prefix = self._prefixes.get(head)
        if prefix is None:
            prefix = hashlib.blake2b(digest_size=8)
            prefix.update(_U64.pack(self.master_seed & _MASK64))
            prefix.update(_encode_part(head))
            self._prefixes[head] = prefix
        h = prefix.copy()
        for part in key[1:]:
            h.update(_encode_part(part))
        return int.from_bytes(h.digest(), "little")

    def stream(self, *key: _KeyPart) -> random.Random:
        """Return the stream for ``key``, creating it on first use.

        The stream is interned for the manager's lifetime, so call sites
        on hot paths may look it up once and hold the reference.
        """
        stream = self._streams.get(key)
        if stream is None:
            stream = self._streams[key] = random.Random(self._seed_for(key))
        return stream

    #: Alias of :meth:`stream`; the name documents a hot-path call site
    #: that holds the returned reference.
    cached_stream = stream

    def draw(self, *key: _KeyPart) -> random.Random:
        """One-shot stream for ``key``: its values equal a fresh ``stream(*key)``.

        Returns this manager's single scratch generator, reseeded with
        ``derive_seed(master_seed, *key)`` (reseeding also clears the
        cached second ``gauss`` value), and interns nothing.  The result is
        valid only until the next :meth:`draw` on this manager: take every
        value the key needs first, and never store the generator.  A key
        that is drawn from again later must use :meth:`stream`.
        """
        scratch = self._scratch
        scratch.seed(self._seed_for(key))
        return scratch

    def fork(self, *key: _KeyPart) -> "RngManager":
        """Return a new manager whose master seed is derived from ``key``.

        Useful to hand a whole subsystem its own seed space.
        """
        return RngManager(derive_seed(self.master_seed, "fork", *key))
