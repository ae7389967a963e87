import numpy as np
import pytest

from relmargin import InputError
from relmargin.rng import _encode, substream, substreams

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


def test_substreams_empty_and_out_of_range_indices():
    assert len(substreams(1, "trial", indices=range(0))) == 0
    assert list(substreams(1, "trial", indices=range(0))) == []
    with pytest.raises(InputError, match=r"substream indices must lie in \[0, 2\*\*32\)"):
        substreams(1, "trial", indices=[0, 2**32])
    with pytest.raises(InputError, match=r"substream indices must lie in \[0, 2\*\*32\)"):
        substreams(1, "trial", indices=[-1])
