import tracemalloc

import numpy as np
import pytest

from relmargin import InputError
from relmargin.rademacher import SIGN_BLOCK_ROWS
from relmargin.rng import _encode, _word_signs, coin_signs, sign_rows, substream, substreams

SEEDS = (0, 2**31 - 1, 2**32, 2**64 + 5, 10**30)
PREFIXES = (("trial",), ("a", 3), ())
INDICES = (0, 1, 2, 39, 40, 1000, 2**31, 2**32 - 1)


def _state(gen):
    # the state holds small uint64 arrays, which repr in full
    return repr(gen.bit_generator.state)


def _live(gen):
    # integers leaves a spent half word in the state, which nothing reads
    state = gen.bit_generator.state
    return _state(gen) if state["has_uint32"] else repr({**state, "uinteger": 0})


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("prefix", PREFIXES)
def test_substreams_keys_and_words_match_numpy(seed, prefix):
    spawn = tuple(_encode(p) for p in prefix)
    streams = substreams(seed, *prefix, indices=INDICES)
    assert len(streams) == len(INDICES)
    seen = 0
    for t, gen in zip(INDICES, streams):
        key = np.random.SeedSequence(seed, spawn_key=spawn + (t,)).generate_state(2, np.uint64)
        assert np.array_equal(gen.bit_generator.state["state"]["key"], key)
        want = substream(seed, *prefix, t)
        assert _state(gen) == _state(want)
        assert np.array_equal(gen.bit_generator.random_raw(9), want.bit_generator.random_raw(9))
        assert _state(gen) == _state(want)
        seen += 1
    assert seen == len(INDICES)


def test_substreams_reset_a_buffered_half_word():
    # an odd count of integers(0, 2) leaves half a 64-bit word buffered
    indices = range(5, 12)
    for t, gen in zip(indices, substreams(7, "trial", indices=indices)):
        want = substream(7, "trial", t)
        assert _state(gen) == _state(want)
        a, b = gen.integers(0, 2, size=2 * t + 1), want.integers(0, 2, size=2 * t + 1)
        assert np.array_equal(a, b)
        assert gen.bit_generator.state["has_uint32"] == 1
        assert np.array_equal(gen.standard_normal(5), want.standard_normal(5))
        assert _state(gen) == _state(want)


def test_a_slice_of_substreams_is_the_streams_of_its_indices():
    streams = substreams(7, "trial", indices=range(100))
    for lo, hi in ((0, 40), (40, 80), (80, 100), (99, 100), (5, 5)):
        block = streams[lo:hi]
        assert len(block) == hi - lo
        seen = 0
        for t, gen in zip(range(lo, hi), block):
            want = substream(7, "trial", t)
            assert _state(gen) == _state(want)
            assert np.array_equal(gen.bit_generator.random_raw(3), want.bit_generator.random_raw(3))
            seen += 1
        assert seen == hi - lo


@pytest.mark.parametrize("m", [1, 2, 7, 200, 201])
def test_coin_signs_are_the_integers_draw_and_leave_each_stream_as_it_does(m):
    # a block decodes its raw words at once; a tuple takes each row from sign_rows
    block = substreams(3, "trial", indices=range(4))
    lone = tuple(substream(3, "trial", t) for t in range(4))

    for rngs in (block, lone):
        after = []
        signs = coin_signs(rngs, m, lambda b, gen: after.append((b, _live(gen), gen.standard_normal(3))))
        assert signs.shape == (4, m) and signs.dtype == np.float64
        for t in range(4):
            want = substream(3, "trial", t)
            assert np.array_equal(signs[t], want.integers(0, 2, size=m) * 2.0 - 1.0)
            assert after[t][:2] == (t, _live(want))
            assert np.array_equal(after[t][2], want.standard_normal(3))


def test_substreams_empty_and_out_of_range_indices():
    assert len(substreams(1, "trial", indices=range(0))) == 0
    assert list(substreams(1, "trial", indices=range(0))) == []
    with pytest.raises(InputError, match=r"substream indices must lie in \[0, 2\*\*32\)"):
        substreams(1, "trial", indices=[0, 2**32])
    with pytest.raises(InputError, match=r"substream indices must lie in \[0, 2\*\*32\)"):
        substreams(1, "trial", indices=[-1])


@pytest.mark.parametrize(
    "n,m",
    # odd n*m, n not a multiple of the block, m = 1, and the n_sigma values
    # campaigns and the CLI use
    [(1024, 5000), (1024, 201), (1001, 3), (2, 7), (7, 999), (3, 1), (1, 3), (SIGN_BLOCK_ROWS + 1, 5)],
)
def test_sign_rows_are_the_integers_draw(n, m):
    for seed in range(3):
        fast, ref = substream(seed, "sigma"), substream(seed, "sigma")
        got = sign_rows(fast, n, m)
        want = ref.integers(0, 2, size=(n, m)) * 2.0 - 1.0
        assert got.dtype == np.float32 and got.shape == (n, m)
        assert np.array_equal(got, want)
        # the generator is left where integers leaves it, buffered half included
        assert fast.integers(0, 2, size=9).tolist() == ref.integers(0, 2, size=9).tolist()
        assert fast.random() == ref.random()


def test_sign_rows_in_blocks_continue_one_draw():
    fast, ref = substream(4, "inner", 0), substream(4, "inner", 0)
    blocks = [sign_rows(fast, rows, 201) for rows in (SIGN_BLOCK_ROWS, SIGN_BLOCK_ROWS, 7)]
    want = ref.integers(0, 2, size=(2 * SIGN_BLOCK_ROWS + 7, 201)) * 2.0 - 1.0
    assert np.array_equal(np.concatenate(blocks), want)


def test_sign_rows_fall_back_to_integers():
    # another bit generator, and a Philox holding a buffered 32-bit half
    buffered, ref = substream(5, "sigma"), substream(5, "sigma")
    buffered.integers(0, 2, size=3)
    ref.integers(0, 2, size=3)
    pairs = [(np.random.default_rng(5), np.random.default_rng(5)), (buffered, ref)]
    for fast, slow in pairs:
        assert np.array_equal(sign_rows(fast, 6, 11), slow.integers(0, 2, size=(6, 11)) * 2.0 - 1.0)
        assert fast.random() == slow.random()


def test_word_signs_do_not_depend_on_byte_order():
    # the same values stored big-endian give the same signs
    words = substream(6, "sigma").bit_generator.random_raw(501)
    want = _word_signs(words.copy(), 1001)
    assert np.array_equal(_word_signs(words.astype(">u8"), 1001), want)
    assert np.array_equal(want, substream(6, "sigma").integers(0, 2, size=1001) * 2.0 - 1.0)


def _lone_generators(seed):
    """Another bit generator, a Philox holding a buffered 32-bit half, and a
    Philox mid-stream after normal draws, as a holdout block leaves it."""
    buffered, mid = substream(seed, "sigma"), substream(seed, "holdout")
    buffered.integers(0, 2, size=3)
    mid.standard_normal(7)
    return np.random.default_rng(seed), buffered, mid


@pytest.mark.parametrize("m", [1, 2, 7, 200, 201])
def test_coin_signs_of_lone_generators_are_the_integers_draw(m):
    after = []
    signs = coin_signs(_lone_generators(9), m, lambda b, gen: after.append((_live(gen), gen.standard_normal(3))))
    assert signs.shape == (3, m) and signs.dtype == np.float64
    for b, want in enumerate(_lone_generators(9)):
        assert np.array_equal(signs[b], want.integers(0, 2, size=m) * 2.0 - 1.0)
        assert after[b][0] == _live(want)
        assert np.array_equal(after[b][1], want.standard_normal(3))


def test_sign_rows_decode_without_copying_the_words():
    gen = substream(2, "sigma")
    tracemalloc.start()
    try:
        signs = sign_rows(gen, 64, 5000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert signs.nbytes == 1_280_000
    assert peak <= 1.25 * signs.nbytes
