"""Deterministic 64-bit PRNG (splitmix64) used by every sampler.

Identical seeds give identical streams on every platform and Python
version, which the reporting tools rely on for byte-identical output.
"""

from __future__ import annotations

import hashlib

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def _mix64(z: int) -> int:  # z < 2**64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def stable_hash(text: str) -> int:
    """Platform-stable 64-bit hash of a string (unlike builtin hash)."""
    digest = hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def derive_seed(seed: int, *parts: int | str) -> int:
    """Fold extra components into a seed; order-sensitive and deterministic."""
    acc = seed & _MASK
    for part in parts:
        n = stable_hash(part) if isinstance(part, str) else part & _MASK
        acc = _mix64(acc ^ ((n + _GAMMA) & _MASK))
    return acc


class Rng:
    """splitmix64 stream."""

    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next_u64(self) -> int:
        self._state = z = (self._state + _GAMMA) & _MASK
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK  # _mix64, in this frame
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def randint(self, lo: int, hi: int) -> int:
        """Uniform-ish integer in [lo, hi] (modulo bias is irrelevant here)."""
        if hi < lo:
            raise ValueError("empty range")
        return lo + self.next_u64() % (hi - lo + 1)

    def choice(self, items):
        if not items:
            raise ValueError("empty choice")
        return items[self.next_u64() % len(items)]

    def fork(self, *parts: int | str) -> "Rng":
        return Rng(derive_seed(self._state, *parts))
