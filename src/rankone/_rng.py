"""Counter-based deterministic random source for spacer realization.

The generator is the SplitMix64 output function applied to a pure counter,
so draw k depends only on (seed, k):

    state_k = (seed + (k + 1) * 0x9E3779B97F4A7C15) mod 2^64
    out_k   = mix(state_k)       # xor-shift/multiply finalizer below
    u_k     = (out_k >> 11) / 2^53    in [0, 1)

Because there is no sequential state, a realization to depth J1 agrees with
the prefix of a realization to depth J2 > J1 for the same seed, and the
stream can be reproduced in any other language from this comment alone.
uniform is the reference; uniforms computes a run of draws in numpy uint64
arithmetic, which wraps mod 2^64 as the formulas above do.
"""

import numpy as np

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix(x: int) -> int:
    x &= _MASK
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK
    x ^= x >> 31
    return x


def uniform(seed: int, k: int) -> float:
    """Draw k of the stream for this seed, uniform on [0, 1)."""
    out = _mix((seed + (k + 1) * _GOLDEN) & _MASK)
    return (out >> 11) / float(1 << 53)


def uniforms(seed: int, start: int, n: int) -> np.ndarray:
    """Draws start..start+n-1 of the stream, equal to uniform(seed, k)."""
    x = np.arange(start + 1, start + n + 1, dtype=np.uint64)
    x *= np.uint64(_GOLDEN)
    x += np.uint64(seed & _MASK)
    x ^= x >> np.uint64(30)
    x *= np.uint64(0xBF58476D1CE4E5B9)
    x ^= x >> np.uint64(27)
    x *= np.uint64(0x94D049BB133111EB)
    x ^= x >> np.uint64(31)
    return (x >> np.uint64(11)).astype(np.float64) / float(1 << 53)
