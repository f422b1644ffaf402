"""Binary BCH codes: systematic encode, Berlekamp-Massey decode, shortening.

Bit convention: arrays of 0/1 uint8, index 0 transmitted first. Bit i of an
n-bit word is the coefficient of x^(n-1-i), so a shortened code is the
parent code with the high-degree message coefficients fixed at zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .galois import FieldSpec, cyclotomic_coset, minimal_polynomial, poly_mul_gf2

STATUS_OK = "ok"
STATUS_FAILURE = "decode_failure"


@dataclass(frozen=True)
class DecodeOutcome:
    message_bits: np.ndarray
    corrected_count: int
    status: str

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK


def generator_polynomial(field: FieldSpec, t: int) -> int:
    """LCM of the minimal polynomials of alpha, alpha^3, ..., alpha^(2t-1)."""
    g = 1
    seen = set()
    for i in range(1, 2 * t, 2):
        coset = cyclotomic_coset(i, field.order)
        if coset in seen:
            continue
        seen.add(coset)
        g = poly_mul_gf2(g, minimal_polynomial(field, i))
    return g


def _pack_words(bits: np.ndarray) -> np.ndarray:
    """0/1 bits along the last axis as uint64 words, MSB-first, zero-filled."""
    n = bits.shape[-1]
    packed = np.zeros(bits.shape[:-1] + (8 * -(-n // 64),), dtype=np.uint8)
    packed[..., : -(-n // 8)] = np.packbits(bits, axis=-1)
    return packed.view(np.uint64)


class BchCodeSpec:
    """A (possibly shortened) t-error-correcting binary BCH code."""

    def __init__(self, n: int, k: int, t: int, field: FieldSpec):
        self.field = field
        self.parent_n = field.order
        if not 0 < n <= self.parent_n:
            raise ValueError(f"n={n} must be in (0, {self.parent_n}]")
        self.n = n
        self.k = k
        self.t = t
        self.shortening = self.parent_n - n

        self.generator = generator_polynomial(field, t)
        degree = self.generator.bit_length() - 1
        if degree != n - k:
            raise ValueError(
                f"generator degree {degree} does not match n-k={n - k} "
                f"for BCH({n},{k}) with t={t}"
            )
        self.parity_bits = degree
        self._build_tables()

    def _build_tables(self):
        n, r, g = self.n, self.parity_bits, self.generator
        # Column i of the parity-check matrix H = [P^T | I_r] is x^(n-1-i)
        # mod g: the parity contribution of message bit i, and the unit
        # vector of parity bit i - k. H.word is the word's parity disagreement.
        width = -(-r // 8)
        buf = bytearray()
        cur = 1  # x^d mod g for d = 0 .. n-1, as big-endian bytes
        for _ in range(n):
            buf += cur.to_bytes(width, "big")
            cur <<= 1
            if cur >> r:
                cur ^= g
        powers = np.frombuffer(buf, dtype=np.uint8).reshape(n, width)
        check = np.unpackbits(powers, axis=1)[::-1, -r:].T  # r x n
        # Bit-sliced: row c holds the r rows' bits 64c .. 64c+63 as packed
        # by _pack_words, so a word's chunk c meets all r rows at once.
        self._check_table = np.ascontiguousarray(_pack_words(check).T)

        # Syndrome table over the parity positions only (see syndromes):
        # row j-1, column i holds alpha^(j * deg), deg = r-1-i of parity bit i.
        order = self.field.order
        exp_np = self.field.exp_np
        degs = np.arange(r - 1, -1, -1, dtype=np.int64)
        self._syndrome_table = np.stack(
            [exp_np[(j * degs) % order] for j in range(1, 2 * self.t + 1)]
        )

        # Chien search support: for candidate error degree d, x = alpha^-d
        # and x^j = alpha^(j * (order - d)); precompute j*(order-d) mod order.
        d_arr = np.arange(order, dtype=np.int64)
        neg = (order - d_arr) % order
        self._chien_exponents = [(j * neg) % order for j in range(1, self.t + 1)]

    # --- encoding -----------------------------------------------------

    def _parity_check(self, bits: np.ndarray) -> np.ndarray:
        """H.bits over GF(2): r bits per word, for a word or rows of words.

        Bits past the end of the input count as zero, so a message alone
        gives its parity.
        """
        words = _pack_words(bits)
        terms = words[..., None] & self._check_table[: words.shape[-1]]
        return np.bitwise_count(np.bitwise_xor.reduce(terms, axis=-2)) & 1

    def encode(self, message_bits: np.ndarray) -> np.ndarray:
        """Systematic codeword: message followed by n-k parity bits.

        A 2-D array is encoded in one call, one message per row.
        """
        msg = np.asarray(message_bits, dtype=np.uint8)
        if msg.ndim not in (1, 2) or msg.shape[-1] != self.k:
            raise ValueError(
                f"message must be {self.k} bits (or rows of them), got {msg.shape}"
            )
        parity = self._parity_check(msg)
        return np.concatenate([msg, parity], axis=-1)

    # --- decoding -----------------------------------------------------

    def syndromes(self, words: np.ndarray) -> np.ndarray:
        """S_1 .. S_2t of a received word, or of each row of words.

        Re-encoding the received message gives a codeword, and syndromes are
        linear, so a word's syndromes are those of its difference from that
        codeword: the parity bits that disagree, which H.word marks. One
        parity check covers every row. When no bit disagrees, the result
        is zero at once; otherwise one masked reduction of the syndrome
        table covers all rows, and a clean row gives zero. (Selecting the
        dirty rows first costs more than it saves at 8 or 4 rows.)
        """
        words = np.asarray(words, dtype=np.uint8)
        if words.ndim not in (1, 2) or words.shape[-1] != self.n:
            raise ValueError(
                f"received word must be {self.n} bits (or rows of them), "
                f"got {words.shape}"
            )
        wrong = self._parity_check(words)
        if not wrong.any():
            return np.zeros(words.shape[:-1] + (2 * self.t,), dtype=np.int64)
        columns = self._syndrome_table * wrong[..., None, :]
        return np.bitwise_xor.reduce(columns, axis=-1)

    def _berlekamp_massey(self, synd: np.ndarray) -> tuple[list[int], int]:
        exp, log, order = self.field.exp, self.field.log, self.field.order
        s = [int(v) for v in synd]
        locator = [1]
        prev = [1]
        length = 0
        shift = 1
        prev_disc = 1
        for step in range(len(s)):
            disc = s[step]
            for i in range(1, length + 1):
                if i < len(locator) and locator[i] and s[step - i]:
                    disc ^= exp[(log[locator[i]] + log[s[step - i]]) % order]
            if disc == 0:
                shift += 1
                continue
            coef = exp[(log[disc] - log[prev_disc]) % order]
            update = [0] * shift + prev
            if len(update) > len(locator):
                locator = locator + [0] * (len(update) - len(locator))
            saved = list(locator)
            for i, u in enumerate(update):
                if u:
                    locator[i] ^= exp[(log[u] + log[coef]) % order]
            if 2 * length <= step:
                length = step + 1 - length
                prev = saved
                prev_disc = disc
                shift = 1
            else:
                shift += 1
        while len(locator) > 1 and locator[-1] == 0:
            locator.pop()
        return locator, length

    def _chien_roots(self, locator: list[int]) -> np.ndarray:
        """Degrees d in [0, parent_n) with locator(alpha^-d) = 0."""
        order = self.field.order
        exp_np, log = self.field.exp_np, self.field.log
        acc = np.ones(order, dtype=np.int64)  # constant term, locator[0] = 1
        for j in range(1, len(locator)):
            cj = locator[j]
            if cj:
                acc ^= exp_np[(log[cj] + self._chien_exponents[j - 1]) % order]
        return np.nonzero(acc == 0)[0]

    def decode(self, received_bits: np.ndarray) -> DecodeOutcome:
        """Correct up to t bit errors; failure is reported, never raised."""
        word = np.asarray(received_bits, dtype=np.uint8)
        if word.shape != (self.n,):
            raise ValueError(f"received word must be {self.n} bits, got {word.shape}")
        synd = self.syndromes(word)
        if not synd.any():
            return DecodeOutcome(word[: self.k].copy(), 0, STATUS_OK)

        locator, length = self._berlekamp_massey(synd)
        if length > self.t or len(locator) - 1 != length:
            return DecodeOutcome(word[: self.k].copy(), 0, STATUS_FAILURE)
        roots = self._chien_roots(locator)
        if len(roots) != length:
            return DecodeOutcome(word[: self.k].copy(), 0, STATUS_FAILURE)
        if len(roots) and roots.max() >= self.n:
            # error located in the shortened (never transmitted) prefix
            return DecodeOutcome(word[: self.k].copy(), 0, STATUS_FAILURE)
        corrected = word.copy()
        corrected[self.n - 1 - roots] ^= 1
        return DecodeOutcome(corrected[: self.k].copy(), int(len(roots)), STATUS_OK)

    def __repr__(self):
        return (f"BchCodeSpec(n={self.n}, k={self.k}, t={self.t}, "
                f"parent_n={self.parent_n})")
