"""Vectorized numpy kernels shared across the package.

``interpolate``: multilinear interpolation over the spacing coordinates of a
1D or 2D grid.  Evaluating and pushing forward densities both interpolate one
table of node values at many points.

``pcg64_states``: the starting states of many ``np.random.default_rng(seed)``
generators at once, so a campaign can seed one generator per experiment
without building a generator per experiment.
"""

from __future__ import annotations

import numpy as np


def backend() -> str:
    return "numpy"


def _locate(nodes: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Left node index of each point's cell and its clipped fraction across it."""
    i = np.clip(np.searchsorted(nodes, u, side="right") - 1, 0, nodes.size - 2)
    t = np.clip((u - nodes[i]) / (nodes[i + 1] - nodes[i]), 0.0, 1.0)
    return i, t


def interpolate(nodes, values, points) -> np.ndarray:
    """Interpolate ``values`` over the tensor grid ``nodes`` at ``points``.

    ``nodes`` holds one or two ascending node arrays and ``values`` has shape
    ``(len(n) for n in nodes)``.  ``points`` holds one coordinate array per
    axis; they broadcast together and the result has their broadcast shape, so
    scattered points ``(x, y)`` and a tensor product ``(x[:, None], y[None, :])``
    take the same path.  Points should already be clipped to the box.
    Interpolation is linear along each axis and exact at nodes.
    """
    values = np.ascontiguousarray(values, dtype=np.float64).ravel()
    located = [
        _locate(np.asarray(n, dtype=np.float64), np.asarray(p, dtype=np.float64))
        for n, p in zip(nodes, points, strict=True)
    ]
    if len(located) == 1:
        (i, t), = located
        return (1.0 - t) * values.take(i) + t * values.take(i + 1)
    (i0, t0), (i1, t1) = located
    stride = len(nodes[1])
    flat = i0 * stride + i1
    return (
        (1.0 - t0) * (1.0 - t1) * values.take(flat)
        + t0 * (1.0 - t1) * values.take(flat + stride)
        + (1.0 - t0) * t1 * values.take(flat + 1)
        + t0 * t1 * values.take(flat + stride + 1)
    )


# numpy's SeedSequence hash (``numpy/random/bit_generator.pyx``) with its
# default pool of four 32-bit words, and the 128-bit PCG64 multiplier as
# uint64 limbs.
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT_HI, _PCG64_MULT_LO = np.uint64(0x2360ED051FC65DA4), np.uint64(0x4385DF649FCCF645)


def _hash_constants(init: int, mult: int, count: int) -> np.ndarray:
    """The hash multiplier before each of ``count`` hashmix calls, and after
    the last, as a column: ``init``, ``init·mult``, ``init·mult²``, … mod 2³²."""
    consts = [init]
    for _ in range(count):
        consts.append(consts[-1] * mult & _MASK32)
    return np.array(consts, dtype=np.uint32)[:, None]


# The multipliers of seeds that fit the pool, and of generate_state's eight words.
_HASH_A = _hash_constants(_INIT_A, _MULT_A, 4 * _POOL_SIZE)
_HASH_B = _hash_constants(_INIT_B, _MULT_B, 8)


def _hashmix(value: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """numpy's ``hashmix`` with hash multipliers ``consts[:-1]`` advancing to
    ``consts[1:]``, one per row of the result."""
    value = (value ^ consts[:-1]) * consts[1:]
    return value ^ (value >> 16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
    return r ^ (r >> 16)


def _add128(a_hi, a_lo, b_hi, b_lo):
    """(a + b) mod 2¹²⁸ on uint64 limb arrays."""
    lo = a_lo + b_lo
    return a_hi + b_hi + (lo < a_lo), lo


def _mul128(a_hi, a_lo, b_hi: np.uint64, b_lo: np.uint64):
    """(a · b) mod 2¹²⁸ on uint64 limb arrays: the high word of a_lo·b_lo
    from 32-bit halves, plus the cross products that land in the high limb."""
    m32, s32 = np.uint64(_MASK32), np.uint64(32)
    a0, a1 = a_lo & m32, a_lo >> s32
    b0, b1 = b_lo & m32, b_lo >> s32
    p01, p10 = a0 * b1, a1 * b0
    mid = (a0 * b0 >> s32) + (p01 & m32) + (p10 & m32)
    carry = a1 * b1 + (p01 >> s32) + (p10 >> s32) + (mid >> s32)
    return carry + a_lo * b_hi + a_hi * b_lo, a_lo * b_lo


def pcg64_states(seeds) -> tuple[list[int], list[int]]:
    """The PCG64 ``(state, inc)`` that ``np.random.default_rng(s)`` starts from.

    ``seeds`` are integers >= 0 of any size.  Their ``SeedSequence`` pools are
    hashed as uint32 arrays with one column per seed, since the hash
    multipliers advance the same way for every seed.  Each pool's first four
    64-bit words then seed PCG64 as its ``srandom`` does, in uint64 limb
    pairs.  A generator whose ``bit_generator.state`` is set to a returned
    pair yields the same stream as ``default_rng(s)``.
    """
    seeds = [int(s) for s in seeds]
    width = max([_POOL_SIZE, *((s.bit_length() + 31) // 32 for s in seeds)])
    words = np.frombuffer(
        b"".join(s.to_bytes(4 * width, "little") for s in seeds), dtype="<u4"
    ).reshape(len(seeds), width).T.astype(np.uint32)

    # SeedSequence.mix_entropy.  Entropy shorter than the pool hashes as if
    # padded with zero words; each pool word is mixed into the other three,
    # then any entropy word past the pool into all four, for the seeds that
    # have that word.
    hash_a = _HASH_A if width == _POOL_SIZE else _hash_constants(_INIT_A, _MULT_A, 4 * width)
    pool = _hashmix(words[:_POOL_SIZE], hash_a[:_POOL_SIZE + 1])
    k = _POOL_SIZE
    for src in range(_POOL_SIZE):
        dst = [i for i in range(_POOL_SIZE) if i != src]
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], hash_a[k:k + len(dst) + 1]))
        k += len(dst)
    for src in range(_POOL_SIZE, width):
        mixed = _mix(pool, _hashmix(words[src], hash_a[k:k + _POOL_SIZE + 1]))
        pool = np.where(words[src:].any(axis=0), mixed, pool)
        k += _POOL_SIZE

    # SeedSequence.generate_state(4, np.uint64): eight uint32 words cycling
    # over the pool, paired little-endian into 64-bit words.
    cycle = [i % _POOL_SIZE for i in range(8)]
    out = _hashmix(pool[cycle], _HASH_B).astype(np.uint64)
    s_hi, s_lo, q_hi, q_lo = out[0::2] | (out[1::2] << np.uint64(32))

    # srandom(initstate, initseq): inc = 2·initseq + 1, state = 0, step,
    # state += initstate, step; a step is state·MULT + inc mod 2¹²⁸.
    one = np.uint64(1)
    inc_hi, inc_lo = q_hi << one | q_lo >> np.uint64(63), q_lo << one | one
    hi, lo = _add128(inc_hi, inc_lo, s_hi, s_lo)
    hi, lo = _mul128(hi, lo, _PCG64_MULT_HI, _PCG64_MULT_LO)
    hi, lo = _add128(hi, lo, inc_hi, inc_lo)
    return _join128(hi, lo), _join128(inc_hi, inc_lo)


def _join128(hi: np.ndarray, lo: np.ndarray) -> list[int]:
    return [h << 64 | l for h, l in zip(hi.tolist(), lo.tolist())]
