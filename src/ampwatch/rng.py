"""Small self-contained pseudo-random generator for reproducible traces.

The simulator deliberately avoids platform RNGs so that a (seed, config)
pair produces the same trace on any machine.  The stream is xorshift64*
(Marsaglia 2003, Vigna's multiplier) seeded through one splitmix64 step.

    splitmix64(s):  z = s + 0x9E3779B97F4A7C15
                    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
                    z = (z ^ (z >> 27)) * 0x94D049BB133111EB
                    return z ^ (z >> 31)

    xorshift64*:    x ^= x >> 12; x ^= x << 25; x ^= x >> 27
                    output = x * 0x2545F4914F6CDD1D

Uniform doubles take the top 53 bits; Gaussians use Box-Muller with the
spare value cached.
"""

import math

from .errors import InvalidInputError

_MASK = (1 << 64) - 1


def _splitmix64(x):
    x = (x + 0x9E3779B97F4A7C15) & _MASK
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK
    return x ^ (x >> 31)


class DeterministicRng:
    """xorshift64* stream with uniform and Gaussian helpers."""

    def __init__(self, seed: int):
        if type(seed) is not int:  # int() would take 1.5 as seed 1, and "7"
            raise InvalidInputError(f"seed must be an int, got {seed!r}")
        state = _splitmix64(seed & _MASK)
        if state == 0:
            state = 0x9E3779B97F4A7C15
        self._state = state
        self._spare = None

    def next_u64(self) -> int:
        x = self._state
        x ^= x >> 12
        x ^= (x << 25) & _MASK
        x ^= x >> 27
        self._state = x
        return (x * 0x2545F4914F6CDD1D) & _MASK

    def random(self) -> float:
        """Uniform double in [0, 1) with 53 bits of entropy."""
        return (self.next_u64() >> 11) * (2.0 ** -53)

    def uniform(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.random()

    def gauss(self, mu: float = 0.0, sigma: float = 1.0) -> float:
        return next(self.gausses(mu, sigma))

    def gausses(self, mu: float = 0.0, sigma: float = 1.0):
        """Endless Gaussian draws, the one Box-Muller implementation.
        ``_state`` and ``_spare`` are written back before each yield, so a
        dropped stream leaves the rng where ``gauss`` would.  Nothing else
        may draw from the rng while a stream is in use."""
        z = self._spare
        if z is not None:
            self._spare = None
            yield mu + sigma * z
        x = self._state
        sqrt, log, cos, sin, two_pi = math.sqrt, math.log, math.cos, math.sin, 2.0 * math.pi
        while True:  # Box-Muller over two inlined random() draws; u1 must be nonzero
            u1 = 0.0
            while u1 == 0.0:
                x ^= x >> 12
                x ^= (x << 25) & _MASK
                x ^= x >> 27
                u1 = (((x * 0x2545F4914F6CDD1D) & _MASK) >> 11) * (2.0 ** -53)
            x ^= x >> 12
            x ^= (x << 25) & _MASK
            x ^= x >> 27
            u2 = (((x * 0x2545F4914F6CDD1D) & _MASK) >> 11) * (2.0 ** -53)
            r = sqrt(-2.0 * log(u1))
            self._state = x
            self._spare = z = r * sin(two_pi * u2)
            yield mu + sigma * r * cos(two_pi * u2)
            self._spare = None
            yield mu + sigma * z
