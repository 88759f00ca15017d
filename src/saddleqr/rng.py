"""Deterministic 64-bit pseudo-random streams.

The generator is counter-based splitmix64: draw ``i`` of stream ``seed`` is
``finalize(seed + (i+1) * GOLDEN)`` where ``finalize`` is the splitmix64
output mix (xor-shift / multiply twice).  Being a pure function of
(seed, index) it vectorizes cleanly and needs no carried state.  Sub-seeds
for derived streams come from :func:`mix64`.

Within one build the streams are bitwise reproducible; cross-platform
bit-equality of the Gaussian variates is not promised (libm differences).
"""

from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB


def _splitmix(seed: int, idx: np.ndarray) -> np.ndarray:
    """splitmix64 outputs ``finalize(seed + idx * GOLDEN)`` for uint64 ``idx``."""
    z = (np.uint64(seed & _MASK) + idx * np.uint64(_GOLDEN)).astype(np.uint64)
    z ^= z >> np.uint64(30)
    z *= np.uint64(_MIX_A)
    z ^= z >> np.uint64(27)
    z *= np.uint64(_MIX_B)
    z ^= z >> np.uint64(31)
    return z


def mix64(seed: int, salt: int) -> int:
    """Derive a sub-seed from (seed, salt): draw ``salt`` of stream ``seed``."""
    return int(_splitmix(seed, np.array([(salt + 1) & _MASK], dtype=np.uint64))[0])


def _uniforms_at(seed: int, k: np.ndarray) -> np.ndarray:
    """Doubles in (0, 1] from draws ``k`` (uint64) of stream ``seed``."""
    z = _splitmix(seed, k)
    # top 53 bits, shifted into (0, 1]
    return ((z >> np.uint64(11)).astype(np.float64) + 1.0) * 2.0**-53


def _polar(seed: int, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Box-Muller radius and angle of pairs ``k`` (1-based, uint64) of the
    normal stream ``seed``."""
    radius = np.sqrt(-2.0 * np.log(_uniforms_at(mix64(seed, 0), k)))
    return radius, 2.0 * np.pi * _uniforms_at(mix64(seed, 1), k)


def standard_normals(seed: int, count: int) -> np.ndarray:
    """``count`` standard normal deviates via Box-Muller over two uniform
    streams derived from ``seed``: with P = ceil(count / 2) pairs, deviate
    i is r cos(theta) of pair i for i < P and r sin(theta) of pair i - P
    after it."""
    radius, angle = _polar(seed, np.arange(1, (count + 1) // 2 + 1, dtype=np.uint64))
    out = np.concatenate([radius * np.cos(angle), radius * np.sin(angle)])
    return out[:count]


def normals_at(seed: int, count: int, idx: np.ndarray) -> np.ndarray:
    """Entries ``idx`` (an integer array of any shape) of
    ``standard_normals(seed, count)``, bitwise, computed without the rest."""
    pairs = (count + 1) // 2
    idx = np.asarray(idx, dtype=np.int64)
    radius, angle = _polar(seed, (idx % pairs + 1).astype(np.uint64))
    first = idx < pairs  # r cos(theta) here, r sin(theta) elsewhere: one trig call per entry
    np.cos(angle, where=first, out=angle)
    np.sin(angle, where=~first, out=angle)
    return radius * angle
