import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repronet.exceptions import ConfigError
from repronet.seeding import _KI, _WI, StreamBank, StreamRole, generators, stream, stream_words, streams

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


NEGATIVE_KEY = "stream key entries must be non-negative, got -1"


def test_stream_negative_ident_raises_config_error():
    with pytest.raises(ConfigError, match=NEGATIVE_KEY):
        stream(1, StreamRole.SHUFFLER, -1)
    with pytest.raises(ConfigError, match=NEGATIVE_KEY):
        streams(1, StreamRole.SHUFFLER, [-1])


def test_stream_negative_epoch_raises_config_error():
    with pytest.raises(ConfigError, match=NEGATIVE_KEY):
        stream(1, StreamRole.SHUFFLER, 0, -1)
    with pytest.raises(ConfigError, match=NEGATIVE_KEY):
        streams(1, StreamRole.SHUFFLER, [0], -1)


def test_stream_negative_trial_raises_config_error():
    with pytest.raises(ConfigError, match=NEGATIVE_KEY):
        stream(1, StreamRole.SHUFFLER, 0, 0, -1)
    with pytest.raises(ConfigError, match=NEGATIVE_KEY):
        streams(1, StreamRole.SHUFFLER, [0], 0, [-1])


@given(
    master_seed=st.integers(0, 2**70),
    idents=st.lists(keys, min_size=1, max_size=4),
    epoch=keys,
    trials=st.lists(keys, min_size=1, max_size=3),
    data=st.data(),
)
@settings(max_examples=100)
def test_bank_draws_what_numpy_generators_draw_property(master_seed, idents, epoch, trials, data):
    words = stream_words(master_seed, StreamRole.LOCAL_AUTHORITY, idents, epoch, trials).reshape(-1, 4)
    bank, gens = StreamBank(words), generators(words)
    assert len(bank) == len(gens)
    for _ in range(data.draw(st.integers(1, 4))):
        if data.draw(st.booleans()):
            counts = data.draw(st.lists(st.integers(0, 8), min_size=len(gens), max_size=len(gens)))
            want = np.concatenate([g.standard_normal(c) for g, c in zip(gens, counts)])
            assert bank.normals(counts).tobytes() == want.tobytes()
        else:
            rows = data.draw(st.lists(st.integers(0, len(gens) - 1), min_size=1, unique=True))
            low = np.array(data.draw(st.lists(st.floats(-10.0, 10.0), max_size=3)))
            high = low + np.array(data.draw(st.lists(st.floats(0.0, 5.0), min_size=low.size, max_size=low.size)))
            want = np.stack([gens[k].uniform(low, high) for k in rows])
            assert bank.uniform(rows, low, high).tobytes() == want.tobytes()
    for k, g in enumerate(gens):
        assert bank.state(k) == g.bit_generator.state["state"]


def test_bank_draws_a_million_normals_as_numpy_does():
    # 100,000 streams of 10 normals; the first raw output of each stream starts a draw,
    # and among those both rejection branches occur: the tail (layer 0) and the wedge
    words = stream_words(11, StreamRole.LOCAL_AUTHORITY, range(125), 4, range(800)).reshape(-1, 4)
    got = StreamBank(words).normals(np.full(len(words), 10))
    first = np.empty(len(words), dtype=np.uint64)
    for start in range(0, len(words), 10_000):  # few generators alive at once
        for k, g in enumerate(generators(words[start : start + 10_000]), start):
            assert got[10 * k : 10 * k + 10].tobytes() == g.standard_normal(10).tobytes()
        for k, g in enumerate(generators(words[start : start + 10_000]), start):
            first[k] = g.bit_generator.random_raw()
    layer = (first & np.uint64(0xFF)).astype(np.intp)
    rejected = (first >> np.uint64(9)) & np.uint64(2**52 - 1) >= _KI[layer]
    assert np.any(rejected & (layer == 0)) and np.any(rejected & (layer != 0))


PCG64_MULTIPLIER = 0x2360ED051FC65DA4_4385DF649FCCF645


def _about_to_output(r: int) -> np.random.Generator:
    """A generator whose next raw output is ``r``: its step lands on state ``r``, whose zero
    high word leaves the XSL-RR output unrotated.  ``inc`` is odd, as PCG64 needs."""
    state, inc = (0, r) if r & 1 else (1, (r - PCG64_MULTIPLIER) % 2**128)
    gen = np.random.Generator(np.random.PCG64())
    gen.bit_generator.state = {
        "bit_generator": "PCG64", "state": {"state": state, "inc": inc}, "has_uint32": 0, "uinteger": 0,
    }
    return gen


def test_committed_ziggurat_tables_are_the_installed_numpys():
    # an output r is layer r & 0xff, a sign bit, then the 52-bit magnitude
    for layer in range(256):
        # magnitude 1 draws wi exactly; layer 1 (ki = 0) reaches it through the wedge, which accepts
        assert _about_to_output(1 << 9 | layer).standard_normal() == _WI[layer]
        ki = int(_KI[layer])
        # a magnitude below ki is accepted from one output, one of ki is not
        for magnitude, accepted in ((ki - 1, True), (ki, False)):
            if magnitude >= 0:
                gen = _about_to_output(magnitude << 9 | layer)
                gen.standard_normal()
                assert (gen.bit_generator.state["state"]["state"] == magnitude << 9 | layer) is accepted
