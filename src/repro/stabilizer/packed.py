"""Bit-packed lanes: 64 Monte-Carlo lanes per ``uint64`` word.

The Monte-Carlo engine (:mod:`repro.stabilizer.fused`) packs the **batch
axis** of its per-lane data into ``uint64`` words -- bit ``b`` of word ``w``
belongs to lane ``64*w + b`` -- so one word operation acts on 64 lanes.  This
module holds the word helpers shared by the engine and the shard layer:

* :func:`pack_bits` / :func:`unpack_bits` convert between ``(..., B)`` 0/1
  arrays and ``(..., ceil(B/64))`` words (little bit order);
* :func:`popcount` counts set bits, through ``np.bitwise_count`` when the
  installed numpy provides it (numpy >= 2.0) and an 8-bit lookup table
  otherwise;
* :func:`lane_mask_words` masks the logical lanes of a ragged last word.

Lanes past the logical batch size (the "ghost" bits padding the last word)
simulate along; every user-facing result is trimmed to the logical batch
size, so ragged batch sizes not divisible by 64 behave like aligned ones.
"""

from __future__ import annotations

import sys

import numpy as np

#: Lanes per packed word.
WORD_BITS = 64

_UINT64_MAX = np.uint64(np.iinfo(np.uint64).max)

#: Whether the installed numpy has a native popcount ufunc (numpy >= 2.0).
HAVE_BITWISE_COUNT = hasattr(np, "bitwise_count")

#: 8-bit popcount lookup table for the pre-``bitwise_count`` fallback.
_POPCOUNT_TABLE = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)

_LITTLE_ENDIAN = sys.byteorder == "little"


def num_words(batch_size: int) -> int:
    """Number of uint64 words needed to hold ``batch_size`` lane bits."""
    return (batch_size + WORD_BITS - 1) // WORD_BITS


def popcount(words: np.ndarray) -> np.ndarray:
    """Per-word set-bit count of a uint64 array.

    Uses the native ``np.bitwise_count`` ufunc when available and an 8-bit
    lookup table otherwise, so the engine runs on numpy versions predating
    the ufunc (added in numpy 2.0).
    """
    words = np.ascontiguousarray(words, dtype=np.uint64)
    if HAVE_BITWISE_COUNT:
        return np.bitwise_count(words).astype(np.int64)
    as_bytes = words.view(np.uint8)
    counts = _POPCOUNT_TABLE[as_bytes]
    return counts.reshape(words.shape + (8,)).sum(axis=-1, dtype=np.int64)


def pack_bits(bits: np.ndarray) -> np.ndarray:
    """Pack 0/1 values along the last axis into little-bit-order uint64 words.

    ``(..., B)`` binary input becomes ``(..., ceil(B/64))`` uint64 output with
    bit ``b`` of word ``w`` holding element ``64*w + b``.
    """
    bits = np.ascontiguousarray(bits)
    batch = bits.shape[-1]
    words = num_words(batch)
    packed8 = np.packbits(bits.astype(np.uint8), axis=-1, bitorder="little")
    padded = np.zeros(bits.shape[:-1] + (words * 8,), dtype=np.uint8)
    padded[..., : packed8.shape[-1]] = packed8
    if _LITTLE_ENDIAN:
        return padded.view(np.uint64)
    return padded.view("<u8").astype(np.uint64)


def unpack_bits(words: np.ndarray, count: int) -> np.ndarray:
    """Unpack uint64 words (little bit order) back into ``count`` 0/1 bytes."""
    words = np.ascontiguousarray(words, dtype=np.uint64)
    if not _LITTLE_ENDIAN:
        words = words.astype("<u8")
    as_bytes = words.view(np.uint8)
    return np.unpackbits(as_bytes, axis=-1, count=count, bitorder="little")


def lane_mask_words(batch_size: int) -> np.ndarray:
    """``(W,)`` uint64 mask with exactly the first ``batch_size`` lane bits set."""
    words = num_words(batch_size)
    mask = np.full(words, _UINT64_MAX, dtype=np.uint64)
    tail = batch_size % WORD_BITS
    if tail:
        mask[-1] = np.uint64((1 << tail) - 1)
    return mask
