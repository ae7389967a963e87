"""Deterministic, order-independent random substreams.

Every randomized operation derives its generator from (seed, path) where
path is a tuple of integers and short labels, e.g. ``substream(seed,
"trial", 17)``.  Streams are independent Philox counter-based generators,
so results never depend on the order in which trials run or on the degree
of parallelism.

A campaign draws its trials in blocks: ``substreams(seed, "trial",
indices=range(lo, hi))`` derives the Philox keys of the whole block in one
array pass of ``SeedSequence``'s hash, then sets one reused generator to
each trial's stream in turn, exactly as ``substream(seed, "trial", t)``
would create it.
"""

from __future__ import annotations

import functools
import zlib

import numpy as np

from .errors import InputError

__all__ = ["substream", "substreams", "child_seed"]

# numpy's SeedSequence hash on uint32 words: its pool size and constants
_POOL = 4
_MASK = 0xFFFFFFFF
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _encode(part) -> int:
    if isinstance(part, (int, np.integer)):
        return int(part)
    if isinstance(part, str):
        return zlib.crc32(part.encode("utf-8"))
    raise TypeError(f"substream path parts must be int or str, got {type(part)!r}")


def substream(seed: int, *path) -> np.random.Generator:
    """Generator for the substream addressed by (seed, *path)."""
    key = tuple(_encode(p) for p in path)
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=key)
    return np.random.Generator(np.random.Philox(ss))


def child_seed(seed: int, *path) -> int:
    """Stable 63-bit integer seed for handing to seed-taking callables."""
    key = tuple(_encode(p) for p in path)
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=key)
    return int(ss.generate_state(1, dtype=np.uint64)[0] >> 1)


def _words(n: int) -> list:
    """A nonnegative integer as little-endian uint32 words, [0] for 0, as
    ``SeedSequence`` splits its entropy and spawn key."""
    if n < 0:
        raise InputError(f"substream seeds and path parts must be nonnegative, got {n}")
    words = [n & _MASK]
    while n >> 32:
        n >>= 32
        words.append(n & _MASK)
    return words


def _hashmix(value: int, const: int) -> tuple[int, int]:
    """SeedSequence's hashmix of a uint32 word; returns the hash and the next
    hash constant."""
    value ^= const
    const = const * _MULT_A & _MASK
    value = value * const & _MASK
    return value ^ value >> 16, const


def _mix(x, y):
    """SeedSequence's mix of two uint32 words (ints, or uint32 arrays)."""
    r = ((_MIX_L * x & _MASK) - (_MIX_R * y & _MASK)) & _MASK
    return r ^ r >> 16


def _constants(first: int, mult: int) -> np.ndarray:
    """The 5 hash constants a run of 4 hash steps passes through, as a
    (5, 1) uint32 column: step i xors with row i and multiplies by row i+1."""
    consts = [first]
    for _ in range(_POOL):
        consts.append(consts[-1] * mult & _MASK)
    return np.array(consts, dtype=np.uint32)[:, None]


# generate_state's four output words, one hash step each
_STATE_CONSTANTS = _constants(_INIT_B, _MULT_B)


@functools.lru_cache(maxsize=64)
def _spawn_pool(seed: int, prefix: tuple) -> tuple[np.ndarray, np.ndarray]:
    """SeedSequence's pool after mixing the entropy of ``seed`` and the
    spawn-key words of ``prefix``, as a (4, 1) uint32 column, and the hash
    constants that the next word's four hash steps use."""
    run = _words(seed)
    # a spawned SeedSequence pads its entropy with zeros to the pool size
    entropy = run + [0] * (_POOL - len(run)) + [w for part in prefix for w in _words(part)]
    const = _INIT_A
    pool = []
    for word in entropy[:_POOL]:
        value, const = _hashmix(word, const)
        pool.append(value)
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                value, const = _hashmix(pool[src], const)
                pool[dst] = _mix(pool[dst], value)
    for word in entropy[_POOL:]:
        for dst in range(_POOL):
            value, const = _hashmix(word, const)
            pool[dst] = _mix(pool[dst], value)
    return np.array(pool, dtype=np.uint32)[:, None], _constants(const, _MULT_A)


def _philox_keys(seed: int, prefix: tuple, indices) -> np.ndarray:
    """The (n x 2) uint64 Philox keys that ``SeedSequence(seed, spawn_key=
    prefix + (t,)).generate_state(2, np.uint64)`` gives for each t in
    indices.  Every word before the index is the same for the whole block,
    so its pool is mixed once; the index word then takes one hash step per
    pool word, and generate_state one per output word, each as one array
    operation over the (4 x n) block."""
    idx = np.asarray(indices)
    if idx.size and not (idx.min() >= 0 and idx.max() <= _MASK):
        raise InputError(f"substream indices must lie in [0, 2**32), got {int(idx.min())} to {int(idx.max())}")
    pool, consts = _spawn_pool(int(seed), tuple(_encode(p) for p in prefix))
    value = (idx.astype(np.uint32) ^ consts[:-1]) * consts[1:]
    words = _mix(pool, value ^ value >> 16)
    words = (words ^ _STATE_CONSTANTS[:-1]) * _STATE_CONSTANTS[1:]
    words ^= words >> 16
    # read as two little-endian uint64 words, as generate_state does
    return np.ascontiguousarray(words.T, dtype="<u4").view("<u8").astype(np.uint64)


class _Substreams:
    """The substreams of a block of indices, in order.  Iterating yields one
    reused generator, set to each stream in turn; each stream is valid until
    the next one is yielded."""

    def __init__(self, keys: np.ndarray):
        self._keys = keys

    def __len__(self) -> int:
        return len(self._keys)

    def __iter__(self):
        bitgen = np.random.Philox(key=0)
        gen = np.random.Generator(bitgen)
        zeros = np.zeros(4, dtype=np.uint64)
        # the state of a fresh Philox: counter 0, an empty buffer, no half word
        fresh = {"counter": zeros, "key": None}
        state = {
            "bit_generator": "Philox",
            "state": fresh,
            "buffer": zeros,
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
        for key in self._keys:
            fresh["key"] = key
            bitgen.state = state
            yield gen


def substreams(seed: int, *prefix, indices) -> _Substreams:
    """The generators of ``substream(seed, *prefix, t)`` for each t in
    ``indices`` (each below 2**32), drawing the same numbers, as a sized
    iterable that reuses one generator."""
    return _Substreams(_philox_keys(seed, prefix, indices))
