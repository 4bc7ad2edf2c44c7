"""Keyed random streams: every seeded draw of the package is one key's stream here.

A key is a row of non-negative integers; README's stream table lists each layout.
"""

from functools import lru_cache

import numpy as np


# numpy's SeedSequence (a pool of four uint32 words) and PCG64 seeding, for a
# batch of keys at once. Every uint32 operand is an np.uint32, so the
# arithmetic wraps the same under any numpy casting rules.
_MASK32, _MASK128 = 0xFFFFFFFF, (1 << 128) - 1
_MIX_L, _MIX_R, _XSHIFT = np.uint32(0xCA01F9DD), np.uint32(0x4973F715), np.uint32(16)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


@lru_cache(maxsize=8)
def _hash_constants(init: int, mult: int, n: int) -> np.ndarray:
    """init * mult**k mod 2**32 for k = 0..n, read-only: a hash's multipliers."""
    consts = np.array([init * pow(mult, k, 1 << 32) & _MASK32 for k in range(n + 1)],
                      dtype=np.uint32)
    consts.flags.writeable = False
    return consts


def _hashmix(values, pre, post):
    """SeedSequence's hash: xor in the multiplier, step it, multiply by the next."""
    values = (values ^ pre) * post
    return values ^ values >> _XSHIFT


def _mix(x, y):
    mixed = _MIX_L * x - _MIX_R * y
    return mixed ^ mixed >> _XSHIFT


_HASH_A = _hash_constants(0x43B0D7E5, 0x931E8875, 16)  # the pool's first 16 hashes
# The pool's cross mix hashes word src into each other word in turn: per src,
# the (pre, post) multipliers in the other words' slots, 0 in its own
_CROSS = [[np.array([*_HASH_A[k:k + src], 0, *_HASH_A[k + src:k + 3]], dtype=np.uint32)
           for k in (4 + 3 * src, 5 + 3 * src)] for src in range(4)]
_HASH_B = _hash_constants(0x8B51F9DD, 0x58F38DED, 8)  # generate_state's


def seed_states(keys) -> np.ndarray:
    """np.random.SeedSequence(key).generate_state(4, np.uint64) of each of n keys
    of m non-negative integers (rows, or an (n, m) integer array), as (n, 4) uint64;
    column 0 is generate_state(1)."""
    if len(keys) == 0:
        return np.zeros((0, 4), dtype=np.uint64)
    if not (isinstance(keys, np.ndarray) and keys.dtype.kind in "iu"):  # else checked here
        keys = np.array(keys, dtype=object)  # not inferred: int64 and uint64 make float64
    if keys.ndim != 2 or keys.dtype == object and not all(issubclass(t, (int, np.integer))
            and t is not bool for t in set(map(type, keys.flat))) or keys.min() < 0:
        raise ValueError(f"keys must be rows of non-negative integers, got {keys!r}")
    top = int(keys.max())
    if top < 1 << 64:  # else they stay Python integers
        keys = keys.astype(np.uint64)
    # SeedSequence's entropy: each integer's 32-bit words, least significant
    # first (one word for 0), zero padded to the pool's four words
    width = max(1, -(-top.bit_length() // 32))  # the widest integer's words
    shifted = np.stack([keys >> 32 * j for j in range(width)], axis=2).reshape(len(keys), -1)
    keep = shifted != 0
    keep[:, ::width] = True  # an integer's lowest word
    lengths = keep.sum(axis=1)
    entropy = np.zeros((len(keys), max(4, lengths.max())), dtype=np.uint32)
    entropy[np.nonzero(keep)[0], (np.cumsum(keep, axis=1) - 1)[keep]] = shifted[keep] & _MASK32
    consts = _hash_constants(0x43B0D7E5, 0x931E8875, 4 * entropy.shape[1])
    pool = _hashmix(entropy[:, :4], consts[:4], consts[1:5])
    for src, (pre, post) in enumerate(_CROSS):
        mixed = _mix(pool, _hashmix(pool[:, src, None], pre, post))
        mixed[:, src] = pool[:, src]
        pool = mixed
    for src in range(4, entropy.shape[1]):  # a long key's words past the pool
        k = 4 * src  # its four hashes' multipliers
        mixed = _mix(pool, _hashmix(entropy[:, src, None], consts[k:k + 4], consts[k + 1:k + 5]))
        pool = np.where((lengths > src)[:, None], mixed, pool)
    state = _hashmix(np.tile(pool, 2), _HASH_B[:-1], _HASH_B[1:])
    return np.ascontiguousarray(state, dtype="<u4").view("<u8").astype(np.uint64)


def keyed_generators(keys):
    """Per key, np.random.default_rng(np.random.SeedSequence(key)) as it starts:
    one Generator, reseeded at each step, so draw from it before the next."""
    generator = np.random.Generator(np.random.PCG64())
    for s_hi, s_lo, i_hi, i_lo in seed_states(keys).tolist():
        # PCG64's seeding: two LCG steps from state 0, adding the seed between
        inc = ((i_hi << 64 | i_lo) << 1 | 1) & _MASK128
        state = ((inc + (s_hi << 64 | s_lo)) * _PCG_MULT + inc) & _MASK128
        generator.bit_generator.state = {"bit_generator": "PCG64", "has_uint32": 0,
                                         "state": {"state": state, "inc": inc}, "uinteger": 0}
        yield generator


_PCG_HI, _PCG_LO = np.uint64(_PCG_MULT >> 64), np.uint64(_PCG_MULT & (1 << 64) - 1)


def _pcg_step(hi, lo, inc_hi, inc_lo):
    """PCG64's LCG step, state * _PCG_MULT + inc mod 2**128, on uint64 (hi, lo) words."""
    lo0, lo1 = lo & _MASK32, lo >> 32
    p00, p01, p10 = lo0 * 0x9FCCF645, lo0 * 0x4385DF64, lo1 * 0x9FCCF645  # _PCG_LO's halves
    mid = (p00 >> 32) + (p01 & _MASK32) + (p10 & _MASK32)
    low = (mid << 32 | p00 & _MASK32) + inc_lo
    return (lo1 * 0x4385DF64 + (p01 >> 32) + (p10 >> 32) + (mid >> 32) + hi * _PCG_LO
            + lo * _PCG_HI + inc_hi + (low < inc_lo)), low


def keyed_uniforms(keys, k: int) -> np.ndarray:
    """Per key, the first k random() draws of its keyed_generators stream as (n, k), bit for
    bit: its seeding, PCG64's steps and the XSL-RR output's top 53 bits on uint64 words, for
    every key at once (keyed_generators' Python integers are faster for a few keys)."""
    s_hi, s_lo, i_hi, i_lo = seed_states(keys).T
    inc_hi, inc_lo = i_hi << 1 | i_lo >> 63, i_lo << 1 | 1
    lo = inc_lo + s_lo  # two LCG steps from state 0, adding the seed between
    hi, lo = _pcg_step(inc_hi + s_hi + (lo < s_lo), lo, inc_hi, inc_lo)
    draws = np.empty((len(lo), k))
    for j in range(k):
        hi, lo = _pcg_step(hi, lo, inc_hi, inc_lo)
        rot, xored = hi >> 58, hi ^ lo
        draws[:, j] = (xored >> rot | xored << (64 - rot & 63)) >> 11
    return draws * 2.0 ** -53
