"""Concatenated BCH codec: outer (3860,3824) + inner (2040,1930) + interleaver.

Frame pipeline: payload -> outer codewords -> serialized stream -> chop into
inner payloads (zero-padded tail when sizes do not divide) -> inner
codewords -> depth-D block interleave of the serialized frame. Interleaving
the channel-facing frame spreads a channel burst across inner words so each
sees at most ~burst/D errors.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .bch import STATUS_FAILURE, STATUS_OK, BchCodeSpec, DecodeOutcome
from .galois import FieldSpec

# Standard primitive polynomials: x^11+x^2+1 and x^12+x^6+x^4+x+1.
PRIMITIVE_POLY_M11 = 0b1000_0000_0101
PRIMITIVE_POLY_M12 = 0b1_0000_0101_0011

DEFAULT_INTERLEAVER_DEPTH = 8
DEFAULT_OUTER_WORDS_PER_FRAME = 4


@lru_cache(maxsize=64)
def interleave_indices(length: int, depth: int) -> np.ndarray:
    """Permutation for a row-major-write / column-major-read block interleaver.

    ``out[j] = data[perm[j]]``. Handles lengths that are not a multiple of
    ``depth`` by skipping the vacant tail cells, so the permutation is a
    bijection for every length. The array is cached per (length, depth) and
    read-only.
    """
    if depth < 1:
        raise ValueError("interleaver depth must be >= 1")
    width = -(-length // depth)
    idx = np.arange(depth * width, dtype=np.int64).reshape(depth, width)
    flat = idx.T.ravel()  # column-major read of row-major indices
    perm = flat[flat < length]
    perm.flags.writeable = False
    return perm


def interleave(bits: np.ndarray, depth: int) -> np.ndarray:
    return np.asarray(bits)[interleave_indices(len(bits), depth)]


def deinterleave(bits: np.ndarray, depth: int) -> np.ndarray:
    bits = np.asarray(bits)
    out = np.empty_like(bits)
    out[interleave_indices(len(bits), depth)] = bits
    return out


@lru_cache(maxsize=None)
def _field(m: int, poly: int) -> FieldSpec:
    return FieldSpec(m, poly)


@lru_cache(maxsize=None)
def _code(n: int, k: int, t: int, m: int, poly: int) -> BchCodeSpec:
    return BchCodeSpec(n, k, t, _field(m, poly))


class ConcatCodecSpec:
    """Framing, interleaving, and the two component codes of one link."""

    def __init__(self, outer: BchCodeSpec | None = None,
                 inner: BchCodeSpec | None = None,
                 interleaver_depth: int = DEFAULT_INTERLEAVER_DEPTH,
                 outer_words_per_frame: int = DEFAULT_OUTER_WORDS_PER_FRAME):
        self.outer = outer or _code(3860, 3824, 3, 12, PRIMITIVE_POLY_M12)
        self.inner = inner or _code(2040, 1930, 10, 11, PRIMITIVE_POLY_M11)
        if interleaver_depth < 1:
            raise ValueError("interleaver_depth must be >= 1")
        if outer_words_per_frame < 1:
            raise ValueError("outer_words_per_frame must be >= 1")
        self.interleaver_depth = interleaver_depth
        self.outer_words_per_frame = outer_words_per_frame

        self.frame_payload_bits = outer_words_per_frame * self.outer.k
        stream_bits = outer_words_per_frame * self.outer.n
        self.inner_words_per_frame = -(-stream_bits // self.inner.k)
        self.tail_pad_bits = self.inner_words_per_frame * self.inner.k - stream_bits
        self.frame_bits = self.inner_words_per_frame * self.inner.n

    def code_rate(self) -> float:
        return (self.inner.k / self.inner.n) * (self.outer.k / self.outer.n)

    def encode(self, payload_bits: np.ndarray) -> np.ndarray:
        payload = np.asarray(payload_bits, dtype=np.uint8)
        if payload.shape != (self.frame_payload_bits,):
            raise ValueError(
                f"payload must be {self.frame_payload_bits} bits, got {payload.shape}"
            )
        words = payload.reshape(self.outer_words_per_frame, self.outer.k)
        stream = self.outer.encode(words).ravel()
        if self.tail_pad_bits:
            stream = np.concatenate(
                [stream, np.zeros(self.tail_pad_bits, dtype=np.uint8)]
            )
        chunks = stream.reshape(self.inner_words_per_frame, self.inner.k)
        frame = self.inner.encode(chunks).ravel()
        return interleave(frame, self.interleaver_depth)

    def decode(self, frame_bits: np.ndarray) -> DecodeOutcome:
        """Inner decode, reassemble, outer decode; failures pass bits through.

        One syndrome call per code screens every word of the frame; only
        words with a nonzero syndrome go to the corrector. An outer word fed
        by a failed inner word is not trusted to the outer corrector (its
        error count is far beyond t); its received message bits pass through
        and the frame is flagged.
        """
        frame = np.asarray(frame_bits, dtype=np.uint8)
        if frame.shape != (self.frame_bits,):
            raise ValueError(
                f"frame must be {self.frame_bits} bits, got {frame.shape}"
            )
        inner, outer = self.inner, self.outer
        raw = deinterleave(frame, self.interleaver_depth)
        inner_words = raw.reshape(self.inner_words_per_frame, inner.n)

        corrected = 0
        chunks = inner_words[:, : inner.k].copy()
        inner_failed = np.zeros(self.inner_words_per_frame, dtype=bool)
        for i in np.flatnonzero(inner.syndromes(inner_words).any(axis=1)):
            outcome = inner.decode(inner_words[i])
            corrected += outcome.corrected_count
            inner_failed[i] = not outcome.ok
            chunks[i] = outcome.message_bits
        any_failure = bool(inner_failed.any())
        stream = chunks.ravel()
        if self.tail_pad_bits:
            stream = stream[: -self.tail_pad_bits]

        outer_words = stream.reshape(self.outer_words_per_frame, outer.n)
        payload = outer_words[:, : outer.k].copy()
        for w in np.flatnonzero(outer.syndromes(outer_words).any(axis=1)):
            start = w * outer.n
            stop = start + outer.n
            if inner_failed[start // inner.k:(stop - 1) // inner.k + 1].any():
                continue  # tainted: received message bits pass through
            outcome = outer.decode(outer_words[w])
            corrected += outcome.corrected_count
            any_failure |= not outcome.ok
            payload[w] = outcome.message_bits
        status = STATUS_FAILURE if any_failure else STATUS_OK
        return DecodeOutcome(payload.ravel(), corrected, status)


@lru_cache(maxsize=32)
def codec_for(interleaver_depth: int = DEFAULT_INTERLEAVER_DEPTH,
              outer_words_per_frame: int = DEFAULT_OUTER_WORDS_PER_FRAME) -> ConcatCodecSpec:
    """The shared codec of one framing, built once per argument list."""
    return ConcatCodecSpec(interleaver_depth=interleaver_depth,
                           outer_words_per_frame=outer_words_per_frame)
