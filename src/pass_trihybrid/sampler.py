"""Vectorized copy of ``numpy.random.default_rng((seed, i)).random(2)``.

Monte Carlo users are keyed by (seed, draw index): draw i takes the first two
doubles of a fresh default generator seeded with the entropy tuple
(seed, i).  Building one generator per draw costs more than the rest of a
batched draw, so this module reproduces the same bits for all draws at once,
in one stacked pass whose columns are the draws:

- ``SeedSequence`` pool: one (4, n) uint32 array.  The entropy words are the
  seed's one or two 32-bit words and the index, zero-padded to four.  The 16
  hashmix (xor, multiplier) pairs of the pool mixing and the 8 of
  ``generate_state`` are constant tables, so each of the four mixing rounds
  hashes its source row against the three others as one (3, n) operation,
  and ``generate_state(4, np.uint64)`` is one (2, 4, n) pass.
- ``PCG64``: seeding sets the state to 0 and the increment to
  inc = 2·seq + 1, steps, adds the seed and steps again; each ``random``
  double steps once more and takes the XSL-RR output of the new state.  With
  A the PCG64 multiplier, the two output states are, modulo 2¹²⁸,

      A²·seed + (A² + A + 1)·inc   and   A³·seed + (A³ + A² + A + 1)·inc.

  Both come from one 128-bit multiply-add per operand, stacked as (2, n)
  (high, low) uint64 word pairs: first 2(A² + A + 1, A³ + A² + A + 1)·seq
  plus (A² + A + 1, A³ + A² + A + 1), then (A², A³)·seed plus that.
- Chunks: the pass runs over :data:`_CHUNK` draws at a time into the
  preallocated (count, 2) output.  Its largest temporaries, the (2, 4, n)
  uint32 state words and the (4, n) uint64 state, take 32 bytes a draw, so
  chunks of 4000 draws keep every temporary at 125 KiB or less, under
  glibc's 128 KiB mmap threshold.  Unchunked, a (2, n) uint64 temporary
  crosses it at 10 000 draws, and a mapped temporary page-faults afresh on
  every call (ROADMAP "heap hazard"); smaller chunks pay the pass's fixed
  cost, about 120 numpy calls, more often.

NumPy keeps both bit streams fixed across versions (NEP 19); the tests
compare each stage against ``SeedSequence`` and the output against
``default_rng``.
"""

from __future__ import annotations

import numpy as np

_MASK32 = 0xFFFFFFFF
_MASK64 = 2**64 - 1
_MASK128 = 2**128 - 1
_CHUNK = 4000


def _hash_table(init: int, mult: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """(xor, multiplier) columns of ``count`` consecutive SeedSequence hashmix calls."""
    consts = [init]
    for _ in range(count):
        consts.append((consts[-1] * mult) & _MASK32)
    column = np.array(consts, dtype=np.uint32)[:, None]
    return column[:-1], column[1:]


# SeedSequence hashing constants (numpy/random/bit_generator.pyx): the pool
# mixing hashes the 4 entropy words, then 4 rounds of 3 words;
# generate_state(4, np.uint64) hashes 8 words.
_POOL_XOR, _POOL_MULT = _hash_table(0x43B0D7E5, 0x931E8875, 16)
_STATE_XOR, _STATE_MULT = (t.reshape(2, 4, 1) for t in _hash_table(0x8B51F9DD, 0x58F38DED, 8))
_MIX_MULT_L = np.uint32(0xCA01F9DD)
_MIX_MULT_R = np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)
# Mixing round src hashes pool row src into each other row, in order.
_OTHERS = tuple(np.array([dst for dst in range(4) if dst != src]) for src in range(4))

_U32 = np.uint64(_MASK32)
_SHIFT32 = np.uint64(32)


def _words128(values: tuple[int, int]) -> tuple[np.ndarray, ...]:
    """(high, low, low's low half, low's high half) uint64 columns of two 128-bit ints."""
    high = np.array([v >> 64 for v in values], dtype=np.uint64)[:, None]
    low = np.array([v & _MASK64 for v in values], dtype=np.uint64)[:, None]
    return high, low, low & _U32, low >> _SHIFT32


# PCG64 multiplier (pcg64.h PCG_DEFAULT_MULTIPLIER_128) and the jump constants.
_A = 0x2360ED051FC65DA44385DF649FCCF645
_A2 = _A * _A & _MASK128
_A3 = _A2 * _A & _MASK128
_INC_SUMS = ((_A2 + _A + 1) & _MASK128, (_A3 + _A2 + _A + 1) & _MASK128)
_SEED_MUL = _words128((_A2, _A3))
_SEQ_MUL = _words128(tuple(2 * s & _MASK128 for s in _INC_SUMS))
_SEQ_ADD = _words128(_INC_SUMS)[:2]


def _words32(value: int) -> list[int]:
    """Little-endian 32-bit words of a nonnegative int; [0] for zero."""
    words = [value & _MASK32]
    value >>= 32
    while value:
        words.append(value & _MASK32)
        value >>= 32
    return words


def _hashmix(value: np.ndarray, xor: np.ndarray, mult: np.ndarray) -> np.ndarray:
    """SeedSequence's hashmix of each row of ``value`` with its (xor, multiplier) column."""
    value = value ^ xor
    value *= mult
    value ^= value >> _XSHIFT
    return value


def _pool(seed: int, start: int, stop: int) -> np.ndarray:
    """``SeedSequence((seed, i)).pool`` for i = start .. stop-1, as (4, n) uint32 rows.

    A 64-bit seed and a 32-bit index give at most three entropy words, never
    more than the pool holds, so SeedSequence's mixing of surplus words is
    not needed.
    """
    words = _words32(seed)
    pool = np.zeros((4, stop - start), dtype=np.uint32)
    pool[: len(words)] = np.array(words, dtype=np.uint32)[:, None]
    pool[len(words)] = np.arange(start, stop, dtype=np.uint32)
    pool = _hashmix(pool, _POOL_XOR[:4], _POOL_MULT[:4])
    for src, others in enumerate(_OTHERS):
        k = 4 + 3 * src
        hashed = _hashmix(pool[src], _POOL_XOR[k : k + 3], _POOL_MULT[k : k + 3])
        hashed *= _MIX_MULT_R
        mixed = pool.take(others, axis=0)
        mixed *= _MIX_MULT_L
        mixed -= hashed
        mixed ^= mixed >> _XSHIFT
        pool[others] = mixed
    return pool


def _state64(pool: np.ndarray) -> np.ndarray:
    """``generate_state(4, np.uint64)`` of each pool column, as (4, n) rows."""
    words = _hashmix(pool, _STATE_XOR, _STATE_MULT).reshape(8, -1)
    state = words[1::2].astype(np.uint64)
    state <<= _SHIFT32
    state |= words[::2]
    return state


def _mul_add(high, low, mul, add_high, add_low) -> tuple[np.ndarray, np.ndarray]:
    """(high, low)·mul + (add_high, add_low) modulo 2**128, as (high, low) words.

    ``mul`` holds the :func:`_words128` columns of two multipliers, so the
    (n,) operand words give (2, n) results.
    """
    mul_high, mul_low, mul_low0, mul_low1 = mul
    low0, low1 = low & _U32, low >> _SHIFT32
    # high word of low·mul_low from 32-bit halves (Hacker's Delight mulhi)
    t = low1 * mul_low0
    t += (low0 * mul_low0) >> _SHIFT32
    w = low0 * mul_low1
    w += t & _U32
    out_high = low1 * mul_low1
    out_high += t >> _SHIFT32
    out_high += w >> _SHIFT32
    out_high += high * mul_low
    out_high += low * mul_high
    out_low = low * mul_low
    out_low += add_low
    out_high += add_high
    out_high += out_low < add_low
    return out_high, out_low


def _outputs(state: np.ndarray) -> np.ndarray:
    """Both XSL-RR outputs of PCG64 seeded with each column's state words, (2, n)."""
    # state rows: the seed's high and low words, then the seq's (pcg64_set_seed)
    high, low = _mul_add(state[2], state[3], _SEQ_MUL, *_SEQ_ADD)
    high, low = _mul_add(state[0], state[1], _SEED_MUL, high, low)
    value = high ^ low
    rot = high >> np.uint64(58)
    return (value >> rot) | (value << ((np.uint64(64) - rot) & np.uint64(63)))


def uniform_pairs(seed: int, count: int) -> np.ndarray:
    """Row i equals ``np.random.default_rng((seed, i)).random(2)``; shape (count, 2)."""
    if not 0 <= seed < 2**64:
        raise ValueError("seed must fit in 64 bits")
    if not 0 <= count <= 2**32:
        raise ValueError("draw indices must fit in 32 bits")
    out = np.empty((count, 2))
    for start in range(0, count, _CHUNK):
        stop = min(start + _CHUNK, count)
        bits = _outputs(_state64(_pool(seed, start, stop))) >> np.uint64(11)
        # the top 53 bits, exact as int64, times 2**-53; written row-major
        np.multiply(bits.view(np.int64), 1.0 / 9007199254740992.0, out=out[start:stop].T)
    return out
