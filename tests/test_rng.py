import numpy as np
import pytest

from relmargin import InputError
from relmargin.rng import _encode, coin_signs, substream, substreams

SEEDS = (0, 2**31 - 1, 2**32, 2**64 + 5, 10**30)
PREFIXES = (("trial",), ("a", 3), ())
INDICES = (0, 1, 2, 39, 40, 1000, 2**31, 2**32 - 1)


def _state(gen):
    # the state holds small uint64 arrays, which repr in full
    return repr(gen.bit_generator.state)


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
    # a block decodes raw words; a tuple of generators calls integers
    block = substreams(3, "trial", indices=range(4))
    lone = tuple(substream(3, "trial", t) for t in range(4))

    def live(gen):
        # integers leaves a spent half word in the state, which nothing reads
        state = gen.bit_generator.state
        return _state(gen) if state["has_uint32"] else repr({**state, "uinteger": 0})

    for rngs in (block, lone):
        after = []
        signs = coin_signs(rngs, m, lambda b, gen: after.append((b, live(gen), gen.standard_normal(3))))
        assert signs.shape == (4, m) and signs.dtype == np.float64
        for t in range(4):
            want = substream(3, "trial", t)
            assert np.array_equal(signs[t], want.integers(0, 2, size=m) * 2.0 - 1.0)
            assert after[t][:2] == (t, live(want))
            assert np.array_equal(after[t][2], want.standard_normal(3))


def test_substreams_empty_and_out_of_range_indices():
    assert len(substreams(1, "trial", indices=range(0))) == 0
    assert list(substreams(1, "trial", indices=range(0))) == []
    with pytest.raises(InputError, match=r"substream indices must lie in \[0, 2\*\*32\)"):
        substreams(1, "trial", indices=[0, 2**32])
    with pytest.raises(InputError, match=r"substream indices must lie in \[0, 2\*\*32\)"):
        substreams(1, "trial", indices=[-1])
