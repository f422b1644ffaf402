"""Concatenated BCH codec: outer (3860,3824) + inner (2040,1930) + interleaver.

Frame pipeline: payload -> 4 outer codewords -> serialized stream -> chop
into inner payloads, two whole ones to an outer word (3860 = 2 x 1930) -> W
inner codewords -> interleave: channel bit j belongs to inner word j mod W.
Any burst of up to W*t channel bits then puts at most t errors in each inner
word. The receiver undoes it with an interleave of depth n. Each code is
named by n, t and its field's primitive polynomial; k follows from them.
"""

from __future__ import annotations

from functools import cache, lru_cache

import numpy as np

from .bch import BchCodeSpec, DecodeOutcome
from .galois import FieldSpec

# Standard primitive polynomials: x^11+x^2+1 and x^12+x^6+x^4+x+1.
PRIMITIVE_POLY_M11 = 0b1000_0000_0101
PRIMITIVE_POLY_M12 = 0b1_0000_0101_0011


def interleave(bits: np.ndarray, depth: int) -> np.ndarray:
    """Channel order of ``depth`` equal rows: channel bit j is bit j // depth
    of row j % depth. Works along the last axis; ``depth`` must divide its
    length L, and depth L / depth is the inverse. Shapes are explicit, so
    an array with no rows passes through."""
    bits = np.asarray(bits)
    if depth < 1 or bits.shape[-1] % depth:
        raise ValueError(f"depth {depth} does not divide length {bits.shape[-1]}")
    rows = bits.reshape(*bits.shape[:-1], depth, bits.shape[-1] // depth)
    return rows.swapaxes(-1, -2).reshape(bits.shape)


@lru_cache(maxsize=None)
def _code(n: int, t: int, poly: int) -> BchCodeSpec:
    return BchCodeSpec(n, t, FieldSpec(poly))


class ConcatCodecSpec:
    """Framing, interleaving, and the two component codes of one link."""

    def __init__(self, outer: BchCodeSpec | None = None,
                 inner: BchCodeSpec | None = None,
                 outer_words_per_frame: int = 4):
        self.outer = outer or _code(3860, 3, PRIMITIVE_POLY_M12)
        self.inner = inner or _code(2040, 10, PRIMITIVE_POLY_M11)
        if outer_words_per_frame < 1:
            raise ValueError("outer_words_per_frame must be >= 1")
        if self.outer.n % self.inner.k:
            raise ValueError(f"inner k={self.inner.k} does not divide "
                             f"outer n={self.outer.n}")
        self.outer_words_per_frame = outer_words_per_frame

        self.frame_payload_bits = outer_words_per_frame * self.outer.k
        self.inner_words_per_frame = (outer_words_per_frame * self.outer.n
                                      // self.inner.k)
        self.frame_bits = self.inner_words_per_frame * self.inner.n
        self.interleaver_depth = self.inner_words_per_frame

    def code_rate(self) -> float:
        return (self.inner.k / self.inner.n) * (self.outer.k / self.outer.n)

    def encode(self, payload_bits: np.ndarray) -> np.ndarray:
        payload = np.asarray(payload_bits, dtype=np.uint8)
        if payload.shape != (self.frame_payload_bits,):
            raise ValueError(
                f"payload must be {self.frame_payload_bits} bits, got {payload.shape}"
            )
        words = payload.reshape(self.outer_words_per_frame, self.outer.k)
        chunks = self.outer.encode(words).reshape(-1, self.inner.k)
        frame = self.inner.encode(chunks).ravel()
        return interleave(frame, self.interleaver_depth)

    def decode(self, frame_bits: np.ndarray) -> DecodeOutcome:
        """Inner decode, reassemble, outer decode of one frame or of each row
        of frames; failures pass bits through.

        One row-wise ``inner.decode`` call corrects every row's inner words;
        one ``syndromes`` call screens every outer word, and only dirty ones
        go to one ``outer.decode`` call. An outer word fed by a failed inner
        word is not trusted to the outer corrector (its error count is far
        beyond t); its received message bits pass through and its frame is
        flagged. ``failed`` has one flag per frame, 0-d for one frame. Every
        reshape names its sizes, so a batch of no frames decodes to no
        payloads, with nothing corrected and nothing failed.
        """
        frames = np.asarray(frame_bits, dtype=np.uint8)
        if frames.ndim not in (1, 2) or frames.shape[-1] != self.frame_bits:
            raise ValueError(
                f"frame must be {self.frame_bits} bits (or rows of them), "
                f"got {frames.shape}"
            )
        inner, outer = self.inner, self.outer
        n_frames = frames.size // self.frame_bits
        n_outer = n_frames * self.outer_words_per_frame
        raw = interleave(frames.reshape(n_frames, self.frame_bits), inner.n)
        inner_out = inner.decode(raw.reshape(n_frames * self.inner_words_per_frame,
                                             inner.n))
        corrected = inner_out.corrected_count
        inner_failed = inner_out.failed.reshape(n_frames, self.inner_words_per_frame)
        outer_words = inner_out.message_bits.reshape(n_outer, outer.n)
        payload = outer_words[:, : outer.k].copy()
        # each outer word is fed by outer.n // inner.k whole inner words
        tainted = inner_failed.reshape(n_outer, outer.n // inner.k).any(axis=1)
        dirty = outer.syndromes(outer_words).any(axis=1) & ~tainted
        failed = inner_failed.any(axis=1)
        if dirty.any():
            outcome = outer.decode(outer_words[dirty])
            corrected += outcome.corrected_count
            frame_of = np.flatnonzero(dirty) // self.outer_words_per_frame
            failed[frame_of[outcome.failed]] = True
            payload[dirty] = outcome.message_bits
        return DecodeOutcome(
            payload.reshape(*frames.shape[:-1], self.frame_payload_bits),
            corrected, failed.reshape(frames.shape[:-1]))


@cache
def codec_for() -> ConcatCodecSpec:
    """The shared production codec, built once."""
    return ConcatCodecSpec()
