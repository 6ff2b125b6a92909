"""Small deterministic PRNG for the scheduler.

xoshiro256** with splitmix64 seeding. The scheduler needs a fixed, named
generator so that identical (scenario, config, seed) triples replay the same
interleaving on any platform; the stdlib generator is not pinned to one
algorithm across that contract, so this one is spelled out here.
"""

from __future__ import annotations

_MASK = (1 << 64) - 1


def _splitmix64(state: int) -> tuple[int, int]:
    state = (state + 0x9E3779B97F4A7C15) & _MASK
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return state, z ^ (z >> 31)


def _rotl(x: int, k: int) -> int:
    return ((x << k) | (x >> (64 - k))) & _MASK


class Xoshiro256:
    """xoshiro256** seeded via splitmix64, as the reference construction does."""

    def __init__(self, seed: int) -> None:
        state = seed & _MASK
        s = []
        for _ in range(4):
            state, word = _splitmix64(state)
            s.append(word)
        # All-zero state would be a fixed point; splitmix64 never yields it
        # for four consecutive outputs, but guard anyway.
        if not any(s):
            s[0] = 1
        self._s = s

    def next_u64(self) -> int:
        s = self._s
        result = (_rotl((s[1] * 5) & _MASK, 7) * 9) & _MASK
        t = (s[1] << 17) & _MASK
        s[2] ^= s[0]
        s[3] ^= s[1]
        s[1] ^= s[2]
        s[0] ^= s[3]
        s[2] ^= t
        s[3] = _rotl(s[3], 45)
        return result

    def below(self, n: int) -> int:
        """Uniform integer in [0, n). Rejection sampling keeps it unbiased."""
        if n <= 0:
            raise ValueError("bound must be positive")
        if n == 1:
            return 0
        limit = _MASK - (_MASK + 1) % n
        while True:
            v = self.next_u64()
            if v <= limit:
                return v % n
