"""Deterministic fan-out of one master seed into independent RNG streams.

Every random decision in the package draws from a stream keyed by
``(master seed, role, id, epoch, trial)`` through ``numpy``'s
``SeedSequence``, so runs are reproducible regardless of scheduling order
and distinct actors never share a stream.

``stream`` builds one key's generator through ``SeedSequence``.  The batch
path gives the same generators, bit for bit, for many keys at once, and
builds no ``SeedSequence``: ``stream_words`` runs ``SeedSequence``'s entropy
hash and ``generate_state(4, np.uint64)`` in ``uint32`` arrays over every
key, and ``generators`` seeds one PCG64 from each key's four words, as
``PCG64(SeedSequence(key))`` does.  A key's integers expand into ``uint32``
words as ``SeedSequence`` expands them (little-endian, one word for zero,
several for values of 2**32 or more), so keys whose words differ in number
are hashed in separate groups.
"""

from __future__ import annotations

import enum
from collections.abc import Iterable

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .exceptions import ConfigError

__all__ = ["StreamRole", "stream", "stream_words", "generators", "streams"]

# numpy's SeedSequence: a pool of four uint32 words and its hash constants
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF


class StreamRole(enum.IntEnum):
    CENTRAL_AUTHORITY = 0
    LOCAL_AUTHORITY = 1
    SHUFFLER = 2
    CLUSTER_AGGREGATOR = 3
    DATA_CENTER = 4
    SCENARIO = 5
    ANALYSIS = 6


def stream(
    master_seed: int,
    role: StreamRole,
    ident: int = 0,
    epoch: int = 0,
    trial: int = 0,
) -> np.random.Generator:
    """Independent generator for one (role, id, epoch, trial) slot."""
    if master_seed < 0:
        raise ConfigError(f"master seed must be non-negative, got {master_seed}")
    key = [int(master_seed), int(role), int(ident), int(epoch), int(trial)]
    return np.random.default_rng(np.random.SeedSequence(key))


def _words(value: int) -> list[int]:
    """``SeedSequence``'s expansion of a non-negative integer into uint32 words."""
    value = int(value)
    if value < 0:
        raise ConfigError(f"stream key entries must be non-negative, got {value}")
    return [value >> shift & _MASK32 for shift in range(0, max(value.bit_length(), 1), 32)]


def _state_words(entropy: np.ndarray) -> np.ndarray:
    """``SeedSequence(key).generate_state(4, np.uint64)`` for each row of ``(K, L)``
    uint32 key words, ``L >= 4``: numpy's hashes in numpy's order, over all rows at once.
    """
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ (value >> np.uint32(16))

    def mix(x, y):
        result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        return result ^ (result >> np.uint32(16))

    pool = [hashmix(entropy[:, i]) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for src in range(_POOL_SIZE, entropy.shape[1]):
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(entropy[:, src]))

    hash_const = _INIT_B
    state = np.empty((len(entropy), 8), dtype=np.uint32)
    for k in range(8):
        value = pool[k % _POOL_SIZE] ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * np.uint32(hash_const)
        state[:, k] = value ^ (value >> np.uint32(16))
    # pairs of words, low word first, as numpy pairs them; no copy on little-endian hosts
    return state.astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)


def _by_length(words: list[list[int]]) -> list[tuple[list[int], np.ndarray]]:
    """Indices of equally long word lists, with those lists as a ``(k, length)`` array."""
    groups: dict[int, list[int]] = {}
    for index, w in enumerate(words):
        groups.setdefault(len(w), []).append(index)
    return [(rows, np.array([words[r] for r in rows], dtype=np.uint32)) for rows in groups.values()]


def stream_words(
    master_seed: int,
    role: StreamRole,
    idents: Iterable[int],
    epoch: int = 0,
    trials: Iterable[int] = (0,),
) -> np.ndarray:
    """The words ``stream(master_seed, role, i, epoch, t)`` seeds its PCG64 from, for every
    ident i and trial t: ``(len(idents), len(trials), 4)`` uint64, without a ``SeedSequence``."""
    if master_seed < 0:
        raise ConfigError(f"master seed must be non-negative, got {master_seed}")
    head = np.array(_words(master_seed) + _words(role), dtype=np.uint32)
    middle = np.array(_words(epoch), dtype=np.uint32)
    ident_words = [_words(i) for i in idents]
    trial_words = [_words(t) for t in trials]
    out = np.empty((len(ident_words), len(trial_words), 4), dtype=np.uint64)
    for rows, ids in _by_length(ident_words):
        for cols, ts in _by_length(trial_words):
            shape = (len(rows), len(cols))
            parts = (head[None, None], ids[:, None], middle[None, None], ts[None, :])
            entropy = np.concatenate([np.broadcast_to(p, shape + p.shape[2:]) for p in parts], axis=2)
            out[np.ix_(rows, cols)] = _state_words(entropy.reshape(-1, entropy.shape[2])).reshape(shape + (4,))
    return out


class _Words(ISeedSequence):
    """Hands a bit generator the words ``SeedSequence.generate_state(4, np.uint64)`` would."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or dtype is not np.uint64:  # what PCG64 asks for
            raise ValueError(f"holds 4 uint64 words, asked for {n_words} of {dtype}")
        return self.words


def generators(words: np.ndarray) -> list[np.random.Generator]:
    """A PCG64 generator seeded with each row of ``(K, 4)`` uint64 state words."""
    return [np.random.Generator(np.random.PCG64(_Words(row))) for row in words]


def streams(
    master_seed: int,
    role: StreamRole,
    idents: Iterable[int],
    epoch: int = 0,
    trials: Iterable[int] = (0,),
) -> list[np.random.Generator]:
    """``stream(master_seed, role, i, epoch, t)`` for every ident i and trial t, ident-major
    (all trials of the first ident first), bit for bit, without building a ``SeedSequence``."""
    return generators(stream_words(master_seed, role, idents, epoch, trials).reshape(-1, 4))
