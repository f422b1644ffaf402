"""Forward error correction: GF(2^m) fields, BCH codes, concatenated framing."""

from .bch import STATUS_OK, BchCodeSpec
from .concat import (
    DEFAULT_INTERLEAVER_DEPTH,
    DEFAULT_OUTER_WORDS_PER_FRAME,
    ConcatCodecSpec,
    codec_for,
    interleave,
)
