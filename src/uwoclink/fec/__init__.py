"""Forward error correction: GF(2^m) fields, BCH codes, concatenated framing."""

from .bch import BchCodeSpec
from .concat import ConcatCodecSpec, codec_for, interleave
