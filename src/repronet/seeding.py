"""Deterministic fan-out of one master seed into independent RNG streams.

Every random decision in the package draws from a stream keyed by
``(master seed, role, id, epoch, trial)`` through ``numpy``'s
``SeedSequence``, so runs are reproducible regardless of scheduling order
and distinct parties never share a stream.

``stream`` builds one key's generator through ``SeedSequence``.  The batch
path gives the same generators, bit for bit, for many keys at once, and
builds no ``SeedSequence``: ``stream_words`` runs ``SeedSequence``'s entropy
hash and ``generate_state(4, np.uint64)`` in ``uint32`` arrays over every
key, and ``generators`` seeds one PCG64 from each key's four words, as
``PCG64(SeedSequence(key))`` does.  A key's integers expand into ``uint32``
words as ``SeedSequence`` expands them (little-endian, one word for zero,
several for values of 2**32 or more), so keys whose words differ in number
are hashed in separate groups.  The pipeline builds generators only for its
trace's shuffler streams; its noise draws through ``StreamBank``.

``StreamBank`` draws from many keys' streams without building a generator:
it holds every key's PCG64 state (O'Neill 2014; a 128-bit LCG with an
XSL-RR output) as ``uint64`` arrays, seeds them from ``stream_words`` as
numpy's ``pcg64_set_seed`` does, and advances them in whole-array
operations, the 128-bit product through 32-bit limbs.  Its normals are
numpy's ``random_standard_normal`` (Marsaglia & Tsang's 2000 ziggurat, from
``distributions.c``) and its uniforms numpy's ``random_uniform``, so each row
returns the bits of ``Generator(PCG64(...))``'s ``standard_normal`` and
``uniform`` draws.  The wedge and tail branches take ``exp`` and ``log1p``
from ``math``, the C library's, as the compiled numpy does; ``np.exp`` is not
libm's (see ``privacy``).  The ziggurat tables ``ki``, ``wi`` and ``fi`` are
numpy's own, read from the ``ki_double``, ``wi_double`` and ``fi_double``
symbols of its ``libnpyrandom.a`` by ``scripts/ziggurat_tables.py`` and
committed below: recomputing them by the textbook float64 recurrence matches
1 of 256 entries of ``ki`` and of ``wi``.  numpy is BSD-3 licensed, Copyright
(c) 2005-2025, NumPy Developers; the tables and the two algorithms are copied
from it under that licence.
"""

from __future__ import annotations

import binascii
import enum
import math
from collections.abc import Iterable

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .exceptions import ConfigError

__all__ = ["StreamRole", "stream", "stream_words", "generators", "streams", "StreamBank"]

# numpy's SeedSequence: a pool of four uint32 words and its hash constants
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF

# numpy's PCG64: the state steps as state * multiplier + inc mod 2**128, held as (high, low)
# uint64 words.  Every constant is an np.uint64, so the arithmetic stays uint64 under numpy
# 1.x promotion too, and is applied to arrays only: uint64 scalar overflow warns.
_MULT = 0x2360ED051FC65DA4_4385DF649FCCF645
_MULT_HI, _MULT_LO = np.uint64(_MULT >> 64), np.uint64(_MULT & 2**64 - 1)
_MULT_LO_0, _MULT_LO_1 = np.uint64(_MULT & _MASK32), np.uint64(_MULT >> 32 & _MASK32)  # its 32-bit limbs
_LOW32, _LOW52, _LOW8 = np.uint64(_MASK32), np.uint64(2**52 - 1), np.uint64(0xFF)
_1, _8, _9, _11, _32, _58, _63, _64 = (np.uint64(v) for v in (1, 8, 9, 11, 32, 58, 63, 64))
# the ziggurat's tail start r and 1/r (numpy's ziggurat_nor_r, ziggurat_nor_inv_r)
_NOR_R, _NOR_INV_R = 3.6541528853610088, 0.27366123732975828


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
    # the key's words, as SeedSequence expands its integers; a negative entry raises ConfigError
    key = [int(master_seed), int(role)] + [w for value in (ident, epoch, trial) for w in _words(value)]
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


def _mulhi_mult_lo(a: np.ndarray) -> np.ndarray:
    """The high word of ``a * _MULT_LO`` as 128-bit products, from 32-bit limbs."""
    a0, a1 = a & _LOW32, a >> _32
    p00, p01, p10 = a0 * _MULT_LO_0, a0 * _MULT_LO_1, a1 * _MULT_LO_0
    middle = (p00 >> _32) + (p01 & _LOW32) + (p10 & _LOW32)
    return a1 * _MULT_LO_1 + (p01 >> _32) + (p10 >> _32) + (middle >> _32)


def _pcg_step(hi, lo, inc_hi, inc_lo):
    """One PCG64 step of (hi, lo) states: ``state * multiplier + inc`` mod 2**128."""
    new_lo = lo * _MULT_LO + inc_lo
    return _mulhi_mult_lo(lo) + lo * _MULT_HI + hi * _MULT_LO + inc_hi + (new_lo < inc_lo), new_lo


def _libm(fn, values: np.ndarray) -> np.ndarray:
    return np.fromiter(map(fn, values.tolist()), float, values.size)


class StreamBank:
    """The PCG64 streams seeded with each row of ``(K, 4)`` uint64 words, advanced together.

    Row k draws the bits that ``generators(words)[k]`` draws: ``normals`` its
    ``standard_normal`` draws and ``uniform`` its ``uniform`` draws, call for call.
    """

    def __init__(self, words: np.ndarray):
        s_hi, s_lo, i_hi, i_lo = np.asarray(words, dtype=np.uint64).reshape(-1, 4).T
        self._inc_hi, self._inc_lo = (i_hi << _1) | (i_lo >> _63), (i_lo << _1) | _1
        # pcg64_set_seed: from state 0 one step gives inc; add the seed, then step again
        lo = self._inc_lo + s_lo
        self._hi, self._lo = _pcg_step(self._inc_hi + s_hi + (lo < s_lo), lo, self._inc_hi, self._inc_lo)

    def __len__(self) -> int:
        return len(self._lo)

    def state(self, row: int) -> dict:
        """Row ``row``'s ``{"state", "inc"}``, as ``bit_generator.state["state"]`` holds it."""
        hi, lo, inc_hi, inc_lo = (int(v[row]) for v in (self._hi, self._lo, self._inc_hi, self._inc_lo))
        return {"state": hi << 64 | lo, "inc": inc_hi << 64 | inc_lo}

    def _next(self, rows: np.ndarray) -> np.ndarray:
        """``next_uint64`` of each of ``rows``: a step, then the XSL-RR output of the new state."""
        hi, lo = _pcg_step(self._hi[rows], self._lo[rows], self._inc_hi[rows], self._inc_lo[rows])
        self._hi[rows], self._lo[rows] = hi, lo
        value, rot = hi ^ lo, hi >> _58
        return (value >> rot) | (value << ((_64 - rot) & _63))

    def _doubles(self, rows: np.ndarray) -> np.ndarray:
        """``next_double``: the top 53 bits of an output over 2**53."""
        return (self._next(rows) >> _11).astype(float) * 2.0**-53

    def _normal(self, rows: np.ndarray) -> np.ndarray:
        """One ``random_standard_normal`` from each of ``rows``.  Each output r gives a
        layer ``r & 0xff``, a sign and a 52-bit magnitude; most draws are accepted at once,
        and the rest take the tail (layer 0) or wedge branch in arrays over those rows."""
        out = np.empty(len(rows))
        todo = np.arange(len(rows))  # positions in ``rows`` still drawing
        while todo.size:
            r = self._next(rows[todo])
            layer, magnitude = (r & _LOW8).astype(np.intp), (r >> _9) & _LOW52
            x = magnitude.astype(float) * _WI[layer]
            x = np.where(((r >> _8) & _1).astype(bool), -x, x)
            ok = magnitude < _KI[layer]
            out[todo[ok]] = x[ok]
            if ok.all():
                break
            todo, layer, magnitude, x = todo[~ok], layer[~ok], magnitude[~ok], x[~ok]

            tail = layer == 0
            pending, negative = todo[tail], ((magnitude[tail] >> _8) & _1).astype(bool)
            while pending.size:
                xx = -_NOR_INV_R * _libm(math.log1p, -self._doubles(rows[pending]))
                yy = -_libm(math.log1p, -self._doubles(rows[pending]))
                ok = yy + yy > xx * xx
                value = _NOR_R + xx[ok]
                out[pending[ok]] = np.where(negative[ok], -value, value)
                pending, negative = pending[~ok], negative[~ok]

            todo, layer, x = todo[~tail], layer[~tail], x[~tail]
            u = self._doubles(rows[todo])
            ok = (_FI[layer - 1] - _FI[layer]) * u + _FI[layer] < _libm(math.exp, -0.5 * x * x)
            out[todo[ok]] = x[ok]
            todo = todo[~ok]
        return out

    def normals(self, counts) -> np.ndarray:
        """``counts[k]`` standard normals from each row k, concatenated in row order.  A row's
        j-th draw needs its state after the one before, so the loop runs over positions."""
        counts = np.asarray(counts, dtype=np.intp)
        starts = np.cumsum(counts) - counts
        out = np.empty(int(counts.sum()))
        for j in range(int(counts.max(initial=0))):
            rows = np.flatnonzero(counts > j)
            out[starts[rows] + j] = self._normal(rows)
        return out

    def uniform(self, rows, low, high) -> np.ndarray:
        """``uniform(low, high)`` from each of ``rows``, ``(len(rows), len(low))``: per entry,
        ``low + (high - low) * next_double``, as numpy's ``random_uniform``."""
        rows = np.asarray(rows, dtype=np.intp)
        low, high = np.asarray(low, dtype=float), np.asarray(high, dtype=float)
        span = high - low
        out = np.empty((rows.size, low.size))
        for j in range(low.size):
            out[:, j] = low[j] + span[j] * self._doubles(rows)
        return out


# numpy's ziggurat tables for the standard normal, ki (uint64), then wi and fi (float64), 256
# entries each, as 768 little-endian 8-byte words in base64 (scripts/ziggurat_tables.py)
_ZIGGURAT = (
    "au8lgD3zDgAAAAAAAAAAAKjG+5i+CAwAQoG9+lSjDQDq7sF+9lEOAH730+lVsg4Aucp+gUvvDgCqRPoKRxkPABjL/2HtNw8AXCVh"
    "lUZPDwCWoxvkpWEPAKSWU3V6cA8AmkQo7LJ8DwDTV2MM8YYPAN4lg1emjw8A2tBNxySXDwAJ9dsHqZ0PAHT6gfVgow8A+Etb3m+o"
    "DwDcVNNg8awPAA+5GGf7sA8AxnRTjZ+0DwB3/mYj7LcPAA7loensug8A7QsEnau9DwBXbP9gMMAPAEiiNxCCwg8A0VvieqbEDwAx"
    "7nqXosYPAKSWKKl6yA8Ahd5LXjLKDwAaIwLpzMsPAMQ5+BJNzQ8AmeyPTbXODwAwyR2/B9APAObE1k1G0Q8AUPTiqHLSDwAeyfBP"
    "jtMPAHi0kJma1A8AUw+SuJjVDwDsmY7AidYPADLoyKlu1w8A6Ah7VEjYDwCMLK2LF9kPANKtpwfd2Q8AjF4QcJnaDwAgLsBdTdsP"
    "AND8W1z52w8AfZq5653cDwCdchiBO90PAJAvNIjS3Q8AZJ82ZGPeDwBOUY1w7t4PAC60pgF03w8AQO2ZZfTfDwDyJLzkb+APAFii"
    "JcLm4A8ATLgoPFnhDwCZP7yMx+EPAKoc2+kx4g8AkRvahZjiDwCGQbWP++IPAEqNVTNb4w8AKgDQmbfjDwB/rZ7pEOQPADR31EZn"
    "5A8AXAlM07rkDwAkldKuC+UPAHi8TvdZ5Q8AEhLkyKXlDwCJhhM+7+UPAHgQ2W825g8AeNXGdXvmDwCqER5mvuYPAPL05VX/5g8A"
    "AqcAWT7nDwA5nj6Ce+cPAKJwcOO25w8AQ0J3jfDnDwCM8FOQKOgPADoXNfte6A8AZAiE3JPoDwC8zvBBx+gPAPZOfTj56A8AHZuH"
    "zCnpDwDqiNMJWekPAKKak/uG6Q8AZkhxrLPpDwDVtpQm3+kPAHzmq3MJ6g8ApGbxnDLqDwAslTKrWuoPABp01aaB6g8A8Bzel6fq"
    "DwAg2fOFzOoPADzmZXjw6g8AE+wvdhPrDwBKKv6FNesPALRiMa5W6w8A+oTi9HbrDwAUIOZflusPAHydz/S06w8A0En0uNLrDwA+"
    "Lm6x7+sPAOi9HuML7A8AFVqxUifsDwDTr50EQuwPAJbxKf1b7A8A9O5sQHXsDwC0DFDSjewPABIfkbal7A8A/ifE8LzsDwAV+1SE"
    "0+wPALPIiHTp7A8At5F/xP7sDwAohTV3E+0PAANJhI8n7Q8ATC8kEDvtDwBuWK37Te0PAN3DmFRg7Q8A6E9BHXLtDwCCqeRXg+0P"
    "AMgspAaU7Q8ABLeFK6TtDwC0anTIs+0PAFJmQd/C7Q8AUm6kcdHtDwDTijyB3+0PAICZkA/t7Q8AFNQPHvrtDwDESxKuBu4PAAZa"
    "2cAS7g8A4AaQVx7uDwAkZUtzKe4PALzkChU07g8APJu4PT7uDwD0ginuR+4PAIawHSdR7g8AQX9A6VnuDwAutCg1Yu4PAPGXWAtq"
    "7g8Aegc+bHHuDwCCezJYeO4PALoGe89+7g8AskpI0oTuDwBDY7Zgiu4PAFHIzHqP7g8A2iV+IJTuDwDqKahRmO4PAFxIEw6c7g8A"
    "9HNyVZ/uDwCuzGInou4PAKxCa4Ok7g8AcS38aKbuDwD61m7Xp+4PAAr6BM6o7g8AOzPoS6nuDwAQZClQqe4PAF4HwNmo7g8AVHaJ"
    "56fuDwAkHUh4pu4PAIOeooqk7g8A2uQiHaLuDwAkIDUun+4PAC6vJryb7g8A5PIkxZfuDwA6CjxHk+4PABZ1VUCO7g8Aepw2roju"
    "DwD9PX+Ogu4PAIi4p9577g8A/zf/m3TuDwBevanDbO4PAH4AnlJk7g8AiCijRVvuDwC2V06ZUe4PAM8GAEpH7g8AUCzhUzzuDwDY"
    "KuCyMO4PAAWCrWIk7g8AWjy4XhfuDwBHFCqiCe4PAMxJ4yf77Q8AbCF26uvtDwB+BCLk2+0PANM5zg7L7Q8A9CwEZLntDwDJOOnc"
    "pu0PAI3pN3KT7Q8ANqg4HH/tDwArwLnSae0PAACuBo1T7Q8AIqTeQTztDwDYL2rnI+0PAETmL3MK7Q8ANP4H2u/sDwC4tw4Q1OwP"
    "ALRulQi37A8AwTAStpjsDwB4qQ0KeewPAP4xD/VX7A8AYsmGZjXsDwA1s7RMEewPANBvjpTr6w8AkragKcTrDwDcDO71musPAEKF"
    "yeFv6w8Anh+t00LrDwBLLQuwE+sPAOkCGlni6g8AVyKZrq7qDwAm446NeOoPAOVz/c8/6g8A9tmNTATqDwA7Vi/WxekPAKRHqTuE"
    "6Q8AKEcdRz/pDwDWxXa99ugPAOboxF2q6A8A6rF64FnoDwBAqZD2BOgPAMAzgkir5w8ApWofdUznDwACoioQ6OYPANirtqB95g8A"
    "fjA4nwzmDwBC9zhzlOUPAIByl3AU5Q8AWPQ21IvkDwA3Hv2/+eMPAJyx7jVd4w8A/uQvErXiDwBXVZkDAOIPABSDeII84Q8AsGfu"
    "xGjgDwCqcSuwgt8PAKr+fsWH3g8A/TvGCXXdDwATvynlRtwPAIICLvj42g8Adbqy4YXZDwAEz0jv5tcPAAtlva0T1g8AEvDiSQHU"
    "DwCsx7SnodEPAJ4fdgTizg8AshFe2KjLDwAiLc1u0scPAO0iHi8rww8AOrjAgWW9DwA0VADEBrYPAHQoKlhArA8AmEUBHpeeDwD8"
    "HaRI+okPACww8PfFZg8AShwzS1oaDwB52RV4O0nPPMb2/eMLjYs8tFssPK9QkjxhO0Q4uXyVPAynL+j8AZg8vNBMLgwjmjz3YTgv"
    "TQCcPHRydFovrJ08w9VMLUgynzytu44nMk2gPENdAjsF9aA8dzZBl6aSoTz1GnqPoieiPIDYYzgutaI89ZFXwD88ozwvsaLBnr2j"
    "PFWb/43vOaQ8p/49NruxpDx00xpidSWlPJbOB6eAlaU86n7ZzzECpjw9fKNh0mumPHAFAJKi0qY8pvhG09o2pzx3KrMQrZinPEP1"
    "Rq1F+Kc8dwpDU8xVqDyadnueZLGoPJjPTqkuC6k86h4sgkdjqTxGxTiOybmpPCynpNzMDqo8Wc13bWdiqjwwFhBurbSqPJxsE22x"
    "Bas8KXpCh4RVqzw6n1KONqSrPDKCvyrW8as8805Z+XA+rDxhOzKlE4qsPIsmcv7J1Kw8SLeADp8erTwQH+QpnWetPMO4IwDOr608"
    "U3bxqTr3rTz+7dK16z2uPABvejPpg648zoL5vTrJrjwmYvCE5w2vPIj22FT2Ua88rteHnm2VrzysLvp9U9ivPOw0QuBWDbA8mo85"
    "9UAusDz8pRae6k6wPBCgcltWb7A8C/RxkIaPsDwTYbyEfa+wPH/MS2Y9z7A8awgWS8jusDzuFZUyIA6xPL4PMQdHLbE8QZGOnz5M"
    "sTweIMS/CGuxPDTaeBqnibE8iG3uURuosTzLKvj4ZsaxPC7U4JOL5LE8n6BAmYoCsjzpxsRyZSCyPB/D6X0dPrI8+2upDLRbsjx/"
    "0x1mKnmyPBvXGceBlrI82i64YruzsjxTuOFi2NCyPI6py+jZ7bI810huDcEKszwwufThjiezPKFeJnBERLM81VLKuuJgszxqWAW+"
    "an2zPGSysm/dmbM8Az24vzu2szzgHVaYhtKzPINact6+7rM8dJ7gceUKtDxddKYt+ya0PKQwPOgAQ7Q8XcfKc/detDw2w2ae33q0"
    "PC+PSDK6lrQ8XUEC9oeytDzcEbOsSc60PAWmOBYA6rQ8YlVe76sFtTxaiwryTSG1PE9matXmPLU8yLIbTndYtTx4X1UOAHS1PBSF"
    "DsaBj7U8WRskI/2qtTw9c33Rcsa1PNOML3vj4bU8OF6fyE/9tTzDH6NguBi2PKKwougdNLY8Cya3BIFPtjxylslX4mq2PDcxsYNC"
    "hrY8sbJQKaKhtjy7Q7PoAb22PFLTKGFi2LY8VPhhMcTztjzraIv3Jw+3PMYUaVGOKrc83O5w3PdFtzwfc+U1ZWG3PEn07/rWfLc8"
    "k726yE2YtzwJFIs8yrO3PPsi2/NMz7c8595zjNbqtzwf6oakZwa4PHaGyNoAIrg8FZ+JzqI9uDy99dEfTlm4PMV+em8Ddbg8LfdH"
    "X8OQuDxDwAWSjqy4PJwMoatlyLg8J2pEUUnkuDyPtXMpOgC5PEeDKNw4HLk8/ArvEkY4uTyKogN5YlS5PO7VcLuOcLk8MSouicuM"
    "uTy/mT+TGam5PCzZ1Yx5xbk8EXRvK+zhuTxK0vomcv65PJI2+TkMG7o8W8iiIbs3ujyIuwuef1S6PKSpSnJacbo8PTGgZEyOujwI"
    "8Z8+Vqu6PM71Ws14yLo8NrOL4bTlujwaocNPCwO7PFuYmvB8ILs8AAzgoAo+uzwDPc5BtVu7PCeJP7l9ebs8PPfl8WSXuzxuJYXb"
    "a7W7PKLALmuT07s8g66Bm9zxuzygFuxsSBC8PC168OXXLrw8HA1uE4xNvDwFh+wIZmy8PBem6+Bmi7w8q6I2vY+qvDyQ1jvH4cm8"
    "PDfgaDBe6bw8bo+LMgYJvTwg7zcQ2yi9PEfGMxXeSL08I/HnlhBpvTyl+9f0c4m9PHBuIJkJqr08Dkn8+NLKvTw3LlKV0eu9PBzS"
    "SfsGDb489kbqxHQuvjyI0cGZHFC+PCX+ly8Acr48Cr8qSyGUvjwIb/fAgba+PDqnEHYj2b48qewBYQj8vjwhU8KKMh+/PG1Ntw+k"
    "Qr88aAHJIF9mvzyCl4kEZoq/PL8icRi7rr88hecv0mDTvzwL9hjBWfi/PHWg00fUDsA8R8mPAqghwDyrAqmDqTTAPMf1Pk7aR8A8"
    "frOt9jtbwDxoJqcj0G7APBcuY4+YgsA8VKLoCJeWwDzEwHF1zarAPEjU7tE9v8A8MD2qNOrTwDyTZRHP1OjAPLafpu///cA8QXAg"
    "BG4TwTw1XbubISnBPG0JxGkdP8E8Oy5gSGRVwTzz7p07+WvBPGES0nTfgsE8rOtOVhqawTyOL393rbHBPJSmcamcycE8Oa7k++vh"
    "wTwB2eLCn/rBPIHMBJ28E8I87tNvekctwjwknKykRUfCPOBYdse8YcI8Llmo+rJ8wjx4DnfNLpjCPFIKKlM3tMI8l9uWMdTQwjz1"
    "eKmxDe7CPO6uVtLsC8M8o6RoXnsqwzyjEq4FxEnDPECoM3rSacM8CkFWkrOKwzz6iK5wdazDPKYEF7Mnz8M8dfRgqtvywzza5bmc"
    "pBfEPJReVBWYPcQ8FTqnRM5kxDy8Q5x1Yo3EPCdaa51zt8Q8AonNDSXjxDxBrOlTnxDFPEJ+OlIRQMU8G+RKqbFxxTzZjXGLwKXF"
    "PP7QOiSK3MU8TB6Gz2kWxjzqagB7zlPGPMPln75AlcY8MuIJjWvbxjw0el/wKCfHPHMGCVaVecc8jM7W9C3Uxzw08ikFAznIPBR8"
    "qr8Pq8g8lkRvlOAuyTyrV0AB7svJPFp3lHjcj8o8sf14OB+YyzwzrQmCtDvNPAAAAAAAAPA/h/B5yWpE7z8VqWxbVLfuP3fwJ+AR"
    "P+4/ld4Ep2/T7T/yvFcGknDtP9wZoXhJFO0/6y2nqDO97D9/eKnOXmrsP+q67tkcG+w/gtzhTuvO6z9S9Y86ZYXrPxDdNII6Pus/"
    "ouhsPyr56j8EJXrx/rXqP+HJUNWLdOo/D6/1/ao06j/YH2XuO/bpP4EGJI0iuek/wXphV0Z96T9HehvCkULpP09xMb3xCOk/qArm"
    "T1XQ6D8C37pIrZjoP6y8N/zrYeg/bs9WDwUs6D/L4iBL7fbnP1honHeawuc/1bCgPAOP5z9W2HAHH1znPxJtP/TlKec/7nrqulD4"
    "5j+JWmOeWMfmPyo7UV73luY/I+OSKidn5j8YDFWY4jfmP2UmgJgkCeY/av9Kb+ja5T+JXMisKa3lP4+NTCbkf+U/Rp6N8BNT5T/V"
    "bGVatSblP2e2IOjE+uQ/wE5JTz/P5D94UtxyIaTkPxJQ319oeeQ/eTZJShFP5D/jXzWKGSXkP4JbWJl+++M/ozGvED7S4z8OzWKm"
    "VanjP9UA2ivDgOM/6VD1i4RY4z81OnDJlzDjP+84ZP36COM/7jvqVazh4j9KldcUqrriPxXNk47yk+I/7QQFKYRt4j+E25BaXUfi"
    "P/L3L6l8IeI/IJaSqeD74T9pmVT+h9bhPxHRP1dxseE/UDybcJuM4T/aOYYSBWjhP5ypXhCtQ+E/OB8xSJIf4T8TWTKis/vgP6BC"
    "QRAQ2OA/rtlwjaa04D+BXZkddpHgPzY88Mx9buA/Lj+mr7xL4D8qgovhMSngP8TKuIXcBuA/ob17jHfJ3z/KAKmnnYXfP/N6L8sp"
    "Qt8/lY9+cRr/3j9UH70gbrzeP8XDTmojet4/hZtf6jg43j8JOnZHrfbdP7FWCzJ/td0/M94mZK103T+AEAKhNjTdP21brrQZ9Nw/"
    "SKjAc1W03D/H1wC76HTcP7gsHW/SNdw/F2phfBH32z+RbXHWpLjbPxsTB3iLets/yjGzYsQ82z9ShaGeTv/aP55aXzopwto/gNik"
    "SlOF2j9NwCDqy0jaPz6ERjmSDNo/35MeXqXQ2T/GwBiEBJXZP5Of4NuuWdk/F8szm6Me2T8V8bn84ePYP4iR3j9pqdg/tlqsqDhv"
    "2D/ZDap/TzXYPxHZuBGt+9c/sBT0r1DC1z/rUpKvOYnXP+2xx2lnUNc/TGGpO9kX1z+qTBKGjt/WPyHeiK2Gp9Y/4sslGsFv1j8V"
    "5Xs3PTjWP8jSgHT6ANY/RMJ2Q/jJ1T++7tYZNpPVPwABPXCzXNU/7TtTwm8m1T+Sbb+OavDUP6KcEFejutQ/1GqtnxmF1D/+JMPv"
    "zE/UPxl6NdG8GtQ/29KO0Ojl0z+uQ/F8ULHTP3kTCGjzfNM/ntH5JdFI0z8v9lpN6RTTP2YHIXc74dI/3T+WPset0j8esU1BjHrS"
    "P4neFx+KR9I/nsz3ecAU0j8WgRj2LuLRP1DwwjnVr9E/6FRU7bJ90T9n7jS7x0vRPyMkz08TGtE/xAmHWZXo0D/aQrKITbfQPzZD"
    "kI87htA/2elCIl9V0D9+dMf2tyTQP8WT34mL6M8/NTK4jBCIzz/SmOls/ifPP0ScyaRUyM4/3TwoshJpzj+EcUUWOArOPwqQx1XE"
    "q80/T1Gy+LZNzT/Mb16KD/DMP1PfcZnNksw/R53Yt/A1zD+hGL56eNnLP6oxh3pkfcs/OtHMUrQhyz8HGFeiZ8bKP34mGQt+a8o/"
    "PX4tMvcQyj9a/tK/0rbJPyd8al8QXck/afp0v68DyT9bgZKRsKrIPziagYoSUsg/dXEfYtX5xz8jo2jT+KHHP6a1epx8Ssc/FkeW"
    "fmDzxj9c8iE+pJzGP5zxraJHRsY/+YP4dkrwxT9sHfOIrJrFPzVoyKltRcU/wR/jrY3wxD8tzvVsDJzEP9V1A8LpR8Q/rjFpiyX0"
    "wz/u1+iqv6DDP4irtAW4TcM/ZSp8hA77wj8aB3oTw6jCP7deg6LVVsI/NDwYJUYFwj9CfXWSFLTBP2MtqOVAY8E/uW6iHcsSwT+6"
    "CVI9s8LAP4W/uEv5csA/Kn0GVJ0jwD8sImvLPqm/PxwOUin/C78/S6Wa8ntvvj+P6HZhtdO9P+WRvbmrOL0/CnQ7SV+evD8VEAto"
    "0AS8PzPi8nj/a7s/M/bK6ezTuj+GYuozmTy6PxlbndwEprk/q6CkdTAQuT9SKL+dHHu4P9bvPgHK5rc/dhGqWjlTtz9MSmlza8C2"
    "PxhNhSRhLrY/pGZ0VxudtT+uK/oGmwy1PxMiG0DhfLQ/hpomI+/tsz9wPtnkxV+zPxExm89m0rI/kQ3dRNNFsj99iZe+DLqxP50X"
    "8tAUL7E/JZYVLO2ksD+X5DCelxuwPzVubCssJq8/gVGyR9UWrj9i8a3+LgmtPywqKA8+/as/cF84kAfzqj9jVSn5kOqpP6u1aCrg"
    "46g/Hievd/vepz9k0Jiz6dumP9St8jyy2qU/XScRDl3bpD/L7pjO8t2jP5f0Peh84qI/vGofnwXpoT8RgJYumPGgP8SlGNeB+J8/"
    "dYyC2xoSnj8aCc2DGTCcP/jrIk6fUpo/CsEAttF5mD+Cvwv02qWWP2Sw+/Lq1pQ/E16rjTgNkz8SMGA0A0mRP0ndck8qFY8/rI9P"
    "J42kiz94pI0NBEGIP+DPGkKW64Q/ki+VKZKlgT83aOz4YOF8P124DNmonnY//bGwAx+KcD9nsMFDn19lPw/3ubYFplQ/"
)
_KI, _WI, _FI = np.frombuffer(binascii.a2b_base64(_ZIGGURAT), dtype="<u8").reshape(3, 256)
_KI, _WI, _FI = _KI.astype(np.uint64), _WI.view("<f8").astype(float), _FI.view("<f8").astype(float)
