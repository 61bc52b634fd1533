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

Uniform doubles take the top 53 bits; Gaussians use Box-Muller, two
draws from each pair of uniforms.
"""

import math

from .errors import InvalidInputError

_MASK = (1 << 64) - 1

# |draw - mu| < GAUSS_BOUND * sigma, as u1 >= 2**-53 bounds it at sqrt(106 ln 2) < 8.6
GAUSS_BOUND = 9


def _splitmix64(x):
    x = (x + 0x9E3779B97F4A7C15) & _MASK
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK
    return x ^ (x >> 31)


def _uniforms(x):
    """Endless uniform doubles in [0, 1), from state ``x`` on."""
    while True:
        x ^= x >> 12
        x ^= (x << 25) & _MASK
        x ^= x >> 27
        yield (((x * 0x2545F4914F6CDD1D) & _MASK) >> 11) * (2.0 ** -53)


class DeterministicRng:
    """One xorshift64* stream with uniform and Gaussian helpers."""

    def __init__(self, seed: int):
        if type(seed) is not int:  # int() would take 1.5 as seed 1, and "7"
            raise InvalidInputError(f"seed must be an int, got {seed!r}")
        state = _splitmix64(seed & _MASK)
        if state == 0:
            state = 0x9E3779B97F4A7C15
        self._u = _uniforms(state)

    def uniform(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * next(self._u)

    def gausses(self, mu: float = 0.0, sigma: float = 1.0):
        """Endless Gaussian draws, two from each pair of uniforms, a zero u1
        redrawn; a stream dropped mid-pair drops the pair's second draw."""
        u = self._u
        sqrt, log, cos, sin, two_pi = math.sqrt, math.log, math.cos, math.sin, 2.0 * math.pi
        for u1, u2 in zip(u, u):
            while u1 == 0.0:
                u1, u2 = u2, next(u)
            r = sqrt(-2.0 * log(u1))
            z = r * sin(two_pi * u2)
            yield mu + sigma * r * cos(two_pi * u2)
            yield mu + sigma * z
