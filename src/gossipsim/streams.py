"""Deterministic derivation of random streams.

Every random draw in the simulator comes from a Philox stream addressed by
``(experiment_seed, node_id, round_index, purpose_tag)``: the 128-bit
Philox key holds ``(seed, node)`` and the 256-bit starting counter holds
``(0, 0, round, tag)``.  Philox is counter based and platform independent,
so runs are reproducible bit-for-bit and order independent, and any stream
can be re-derived in isolation (e.g. a test can replay exactly the
gradient noise node 3 saw at round 117 without running the simulator).

Purpose tags of up to eight UTF-8 bytes are embedded verbatim; longer tags
are folded through an 8-byte blake2b digest.
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = ["stream", "tag_code", "StreamPool"]

_U64 = 2**64


def tag_code(tag: str) -> int:
    """Stable 64-bit code for a purpose tag."""
    raw = tag.encode("utf-8")
    if len(raw) <= 8:
        return int.from_bytes(raw, "little")
    return int.from_bytes(hashlib.blake2b(raw, digest_size=8).digest(), "little")


def stream(seed: int, *, node: int = 0, round_: int = 0, tag: str = "") -> np.random.Generator:
    """Fresh generator for ``(seed, node, round_, tag)``.

    Distinct keys give statistically independent streams; equal keys give
    identical draws regardless of what else has been consumed.
    """
    return StreamPool().get(seed, node=node, round_=round_, tag=tag)


class StreamPool:
    """Re-keyable generator for hot loops.

    ``get`` returns the same ``Generator`` object re-seeded to the requested
    address; :func:`stream` is a fresh pool's one handle.  The handle is
    invalidated by the next ``get`` call, so consume it immediately.  One
    pool belongs to one single-threaded loop.
    """

    def __init__(self):
        self._bitgen = np.random.Philox(counter=[0, 0, 0, 0], key=[0, 0])
        self._gen = np.random.Generator(self._bitgen)
        # Philox's state setter reads the fields element by element, and plain
        # ints read about 2.5x faster than numpy uint64 elements.  buffer_pos 4
        # marks the output buffer empty and has_uint32 0 drops a buffered
        # half-word, so the next draw starts at the new counter, as in a fresh
        # Philox.
        self._counter = [0, 0, 0, 0]
        self._key = [0, 0]
        self._state = {
            "bit_generator": "Philox",
            "state": {"counter": self._counter, "key": self._key},
            "buffer": [0, 0, 0, 0],
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }

    def get(self, seed: int, *, node: int = 0, round_: int = 0, tag: str | int = "") -> np.random.Generator:
        if not (0 <= seed < _U64 and 0 <= node < _U64 and 0 <= round_ < _U64):
            raise ValueError("seed, node and round_ must be in [0, 2**64)")
        self._counter[2] = round_
        self._counter[3] = tag if isinstance(tag, int) else tag_code(tag)
        self._key[0] = seed
        self._key[1] = node
        self._bitgen.state = self._state
        return self._gen
