import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repronet.exceptions import ConfigError
from repronet.seeding import StreamRole, stream, stream_words, streams

# each crosses a uint32 word boundary or sits on one: SeedSequence expands
# 2**32 and above into several words, and the batch path must hash them all
EDGE_SEEDS = [0, 2**32 - 1, 2**32, 2**64 + 3]
keys = st.integers(0, 2**70) | st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**32 + 1, 2**64, 2**64 + 3])


def assert_same_stream(got: np.random.Generator, want: np.random.Generator) -> None:
    assert got.bit_generator.state == want.bit_generator.state
    assert got.standard_normal(4).tobytes() == want.standard_normal(4).tobytes()


@given(
    master_seed=st.sampled_from(EDGE_SEEDS) | st.integers(0, 2**80),
    role=st.sampled_from(list(StreamRole)),
    idents=st.lists(keys, min_size=1, max_size=4),
    epoch=keys,
    trials=st.lists(keys, min_size=1, max_size=4),
)
@settings(max_examples=150)
def test_batch_streams_equal_stream_property(master_seed, role, idents, epoch, trials):
    got = streams(master_seed, role, idents, epoch, trials)
    want = [stream(master_seed, role, i, epoch, t) for i in idents for t in trials]
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert_same_stream(g, w)
    words = stream_words(master_seed, role, idents, epoch, trials)
    assert words.shape == (len(idents), len(trials), 4) and words.dtype == np.uint64


@pytest.mark.parametrize("master_seed", EDGE_SEEDS)
def test_batch_streams_every_role_and_wide_keys(master_seed):
    idents = [0, 7, 2**32 - 1, 2**32, 2**40 + 5]
    trials = range(2**32 - 2, 2**32 + 2)
    for role in StreamRole:
        for epoch in (0, 3, 2**33 + 1):
            got = streams(master_seed, role, idents, epoch, trials)
            want = [stream(master_seed, role, i, epoch, t) for i in idents for t in trials]
            for g, w in zip(got, want):
                assert_same_stream(g, w)


def test_batch_streams_default_key_and_empty():
    assert_same_stream(streams(5, StreamRole.SHUFFLER, [3])[0], stream(5, StreamRole.SHUFFLER, 3))
    assert streams(5, StreamRole.SHUFFLER, []) == []
    assert streams(5, StreamRole.SHUFFLER, [1], 0, []) == []


def test_negative_master_seed_raises_on_both_paths():
    with pytest.raises(ConfigError, match="master seed must be non-negative"):
        stream(-1, StreamRole.LOCAL_AUTHORITY)
    with pytest.raises(ConfigError, match="master seed must be non-negative"):
        streams(-1, StreamRole.LOCAL_AUTHORITY, range(3))
    with pytest.raises(ConfigError, match="master seed must be non-negative"):
        stream_words(-1, StreamRole.LOCAL_AUTHORITY, range(3))
