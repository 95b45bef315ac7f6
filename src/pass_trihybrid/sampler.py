"""Vectorized copy of ``numpy.random.default_rng((seed, i)).random(2)``.

Monte Carlo users are keyed by (seed, draw index): draw i takes the first two
doubles of a fresh default generator seeded with the entropy tuple
(seed, i).  Building one generator per draw costs more than the rest of a
batched draw, so this module reproduces the same bits for all draws at once:
the ``SeedSequence`` pool mixing in uint32 arithmetic, then ``PCG64``
seeding and two XSL-RR outputs in 128-bit arithmetic held as (high, low)
uint64 word pairs.  NumPy keeps both bit streams fixed across versions
(NEP 19); the tests compare against ``default_rng`` directly.
"""

from __future__ import annotations

import numpy as np

# SeedSequence hashing constants (numpy/random/bit_generator.pyx).
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_XSHIFT = 16
_POOL_SIZE = 4
_MASK32 = 0xFFFFFFFF

# PCG64 multiplier (pcg64.h PCG_DEFAULT_MULTIPLIER_128), high and low words.
_PCG_MULT = (0x2360ED051FC65DA4, 0x4385DF649FCCF645)


def _words32(value: int) -> list[int]:
    """Little-endian 32-bit words of a nonnegative int; [0] for zero."""
    words = [value & _MASK32]
    value >>= 32
    while value:
        words.append(value & _MASK32)
        value >>= 32
    return words


def _pool(seed: int, count: int) -> list[np.ndarray]:
    """``SeedSequence((seed, i)).pool`` for i = 0 .. count-1, one array per word.

    A 64-bit seed and a 32-bit index give at most three entropy words, never
    more than the pool holds, so SeedSequence's mixing of surplus words is
    not needed.
    """
    words =[np.full(count, w, dtype=np.uint32) for w in _words32(seed)]
    words.append(np.arange(count, dtype=np.uint32))
    hash_const = _INIT_A

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = (hash_const * _MULT_A) & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ (value >> _XSHIFT)

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        result = x * np.uint32(_MIX_MULT_L) - y * np.uint32(_MIX_MULT_R)
        return result ^ (result >> _XSHIFT)

    zero = np.zeros(count, dtype=np.uint32)
    mixer = [hashmix(words[i] if i < len(words) else zero) for i in range(_POOL_SIZE)]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                mixer[i_dst] = mix(mixer[i_dst], hashmix(mixer[i_src]))
    return mixer


def _state64(pool: list[np.ndarray]) -> list[np.ndarray]:
    """``generate_state(4, np.uint64)`` of each pool."""
    hash_const = _INIT_B
    out32 = []
    for i in range(8):
        value = pool[i % _POOL_SIZE] ^ np.uint32(hash_const)
        hash_const = (hash_const * _MULT_B) & _MASK32
        value = value * np.uint32(hash_const)
        out32.append((value ^ (value >> _XSHIFT)).astype(np.uint64))
    return [out32[2 * k] | (out32[2 * k + 1] << np.uint64(32)) for k in range(4)]


def _mul64(a: np.ndarray, b: int) -> tuple[np.ndarray, np.ndarray]:
    """Full 128-bit product of uint64 words ``a`` and the constant ``b``."""
    mask = np.uint64(_MASK32)
    shift = np.uint64(32)
    a0, a1 = a & mask, a >> shift
    b0, b1 = np.uint64(b & _MASK32), np.uint64(b >> 32)
    p00, p01, p10, p11 = a0 * b0, a0 * b1, a1 * b0, a1 * b1
    mid = (p00 >> shift) + (p01 & mask) + (p10 & mask)
    high = p11 + (p01 >> shift) + (p10 >> shift) + (mid >> shift)
    return high, (mid << shift) | (p00 & mask)


def _step(high, low, inc_high, inc_low):
    """One PCG64 LCG step: state * multiplier + increment, modulo 2**128."""
    mult_high, mult_low = _PCG_MULT
    prod_high, prod_low = _mul64(low, mult_low)
    prod_high = prod_high + low * np.uint64(mult_high) + high * np.uint64(mult_low)
    low = prod_low + inc_low
    return prod_high + inc_high + (low < prod_low), low


def _xsl_rr(high: np.ndarray, low: np.ndarray) -> np.ndarray:
    """PCG XSL-RR output: (high ^ low) rotated right by the top six bits."""
    value = high ^ low
    rot = high >> np.uint64(58)
    return (value >> rot) | (value << ((np.uint64(64) - rot) & np.uint64(63)))


def uniform_pairs(seed: int, count: int) -> np.ndarray:
    """Row i equals ``np.random.default_rng((seed, i)).random(2)``; shape (count, 2)."""
    if not 0 <= seed < 2**64:
        raise ValueError("seed must fit in 64 bits")
    if not 0 <= count <= 2**32:
        raise ValueError("draw indices must fit in 32 bits")
    one = np.uint64(1)
    seed_high, seed_low, seq_high, seq_low = _state64(_pool(seed, count))
    # pcg_setseq_128_srandom_r: inc = seq << 1 | 1; state = 0; step;
    # state += seed; step.
    inc_high = (seq_high << one) | (seq_low >> np.uint64(63))
    inc_low = (seq_low << one) | one
    low = inc_low + seed_low
    high = inc_high + seed_high + (low < inc_low)
    high, low = _step(high, low, inc_high, inc_low)
    out = np.empty((count, 2))
    for k in range(2):
        high, low = _step(high, low, inc_high, inc_low)
        out[:, k] = (_xsl_rr(high, low) >> np.uint64(11)) * (1.0 / 9007199254740992.0)
    return out
