"""Deterministic, order-independent random substreams.

Every randomized operation derives its generator from (seed, path) where
path is a tuple of integers and short labels, e.g. ``substream(seed,
"trial", 17)``.  Streams are independent Philox counter-based generators,
so results never depend on the order in which trials run or on the degree
of parallelism.

A campaign draws its trials in blocks: ``substreams(seed, "trial",
indices=range(trials))`` derives the Philox keys of every trial in one
array pass of ``SeedSequence``'s hash, each block iterates its slice, and
iterating sets one reused generator to each trial's stream in turn,
exactly as ``substream(seed, "trial", t)`` would create it.

``integers(0, 2)`` keeps the top bit of a 32-bit draw, and Philox serves
each 64-bit word as two of them, low half first, so coin flips can be
read straight from raw words (``coin_signs``); this module is the one
place that decodes them.
"""

from __future__ import annotations

import functools
import zlib

import numpy as np

from .errors import InputError

__all__ = ["substream", "substreams", "coin_signs", "child_seed"]

# numpy's SeedSequence hash on uint32 words: its pool size and constants
_POOL = 4
_MASK = 0xFFFFFFFF
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
# in both 32-bit halves of a word: the top bit, and the bits of float32 1.0
_SIGN_BITS = np.uint64(0x8000_0000_8000_0000)
_FLOAT32_ONES = np.uint64(0x3F80_0000_3F80_0000)


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
    reused generator, set to each stream in turn at the start of the stream
    (counter 0, an empty buffer, no buffered half word); each stream is
    valid until the next one is yielded."""

    def __init__(self, keys: np.ndarray):
        self._keys = keys

    def __len__(self) -> int:
        return len(self._keys)

    def __getitem__(self, part: slice) -> "_Substreams":
        """The substreams of a slice of the indices, with no new key pass."""
        return _Substreams(self._keys[part])

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


def _coin_words(bits: np.random.Philox, k: int) -> np.ndarray:
    """The raw words that serve the next k ``integers(0, 2)`` draws of a
    Philox holding no buffered half, two draws a word.  An odd k leaves the
    unused high half of the last word buffered, as ``integers`` does."""
    words = bits.random_raw((k + 1) // 2)
    if k % 2:
        state = bits.state
        state.update(has_uint32=1, uinteger=int(words[-1] >> np.uint64(32)))
        bits.state = state
    return words


def _word_signs(words: np.ndarray, k: int) -> np.ndarray:
    """The first k signs of the 32-bit halves of each row of ``words``, low
    half first: +1.0 where the half's top bit is set, -1.0 where it is
    clear.  Consumes ``words``.  Each half becomes the bits of a float32 one
    with the negated top bit as its sign bit, read in little-endian byte
    order whatever the host's."""
    np.invert(words, out=words)
    words &= _SIGN_BITS
    words |= _FLOAT32_ONES
    return words.astype("<u8", copy=False).view("<f4")[..., :k]


def coin_signs(rngs, m: int, then) -> np.ndarray:
    """The (n, m) float64 matrix whose row b is ``gen.integers(0, 2,
    size=m) * 2 - 1`` for the b-th generator ``gen`` of the sized iterable
    ``rngs``, each draw followed by ``then(b, gen)``.  The streams of a
    ``substreams`` block start with no buffered half, so their signs come
    from their raw words, decoded once for the block; other generators call
    ``integers``."""
    if not isinstance(rngs, _Substreams):
        flips = np.empty((len(rngs), m), dtype=np.int64)
        for b, gen in enumerate(rngs):
            flips[b] = gen.integers(0, 2, size=m)
            then(b, gen)
        return flips * 2.0 - 1.0
    words = np.empty((len(rngs), (m + 1) // 2), dtype=np.uint64)
    for b, gen in enumerate(rngs):
        words[b] = _coin_words(gen.bit_generator, m)
        then(b, gen)
    return _word_signs(words, m).astype(np.float64)
