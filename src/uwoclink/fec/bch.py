"""Binary BCH codes: systematic encode, Berlekamp-Massey decode, shortening.

Bit convention: arrays of 0/1 uint8, index 0 transmitted first. Bit i of an
n-bit word is the coefficient of x^(n-1-i), so a shortened code is the
parent code with the high-degree message coefficients fixed at zero.

The decoder is bounded-distance: it corrects every pattern of at most t
errors and either flags or miscorrects a heavier one. It finds the error
locator by binary Berlekamp-Massey in t steps, solves a locator of degree
1 or 2 in closed form, and runs a Chien search over the n transmitted
degrees only for degree 3 and up; a root in the shortened prefix is never
found, so the root count falls short and the word is flagged.
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
    corrected_count: int  # summed over the rows
    failed: np.ndarray  # one flag per row; 0-d for one word or one frame

    @property
    def ok(self) -> bool:
        return not self.failed.any()

    @property
    def status(self) -> str:
        return STATUS_OK if self.ok else STATUS_FAILURE


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

        # Chien table over the transmitted degrees only: for error degree d
        # in [0, n), x = alpha^-d and x^j = alpha^(j * (order - d)); row j-1
        # holds those exponents, to be offset by log sigma_j < order and
        # looked up in the doubled exp table.
        d_arr = np.arange(n, dtype=np.int64)
        self._chien_table = (np.arange(1, self.t + 1, dtype=np.int64)[:, None]
                             * ((order - d_arr) % order)) % order

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

    def _berlekamp_massey(self, synd: np.ndarray) -> list[int] | None:
        """Error locator sigma_0 .. sigma_L (sigma_0 = 1), or None when L > t.

        Binary Berlekamp-Massey: the syndromes of a binary word have
        S_2j = S_j^2, so every even step's discrepancy is zero and only the
        t odd steps are run (Berlekamp 1968; Lin & Costello, Error Control
        Coding, 6.2). L never decreases, so L > t ends the search at once.
        """
        exp, log, order, t = self.field.exp, self.field.log, self.field.order, self.t
        s = synd.tolist()
        locator = [1]
        prev = [1]
        length = 0
        shift = 1
        prev_disc_log = 0
        for step in range(0, 2 * t, 2):
            disc = s[step]
            for i in range(1, min(length, len(locator) - 1) + 1):
                if locator[i] and s[step - i]:
                    disc ^= exp[log[locator[i]] + log[s[step - i]]]
            if disc == 0:
                shift += 2
                continue
            coef_log = (log[disc] - prev_disc_log) % order
            grown = shift + len(prev) - len(locator)
            saved = list(locator)
            if grown > 0:
                locator += [0] * grown
            for i, u in enumerate(prev, shift):
                if u:
                    locator[i] ^= exp[log[u] + coef_log]
            if 2 * length <= step:
                length = step + 1 - length
                if length > t:
                    return None
                prev = saved
                prev_disc_log = log[disc]
                shift = 2
            else:
                shift += 2
        while locator[-1] == 0:
            locator.pop()
        return locator if len(locator) - 1 == length else None

    def _error_degrees(self, locator: list[int]) -> list[int] | None:
        """Degrees d in [0, n) of the L roots alpha^-d, or None if fewer.

        Degree 1 and 2 are solved in closed form; higher degrees by a Chien
        search over the n transmitted degrees. A root in the shortened
        prefix, a repeated root or an irreducible locator leaves fewer than
        L roots: a decoding failure.
        """
        field = self.field
        log, order = field.log, field.order
        length = len(locator) - 1
        if length == 1:
            degrees = [log[locator[1]]]
        elif length == 2:
            s1, s2 = locator[1], locator[2]
            if s1 == 0:
                return None  # 1 + s2 x^2 = (1 + sqrt(s2) x)^2: repeated root
            # x = (s1/s2) y turns the locator into y^2 + y = s2 / s1^2
            y = field.quadratic_root[field.exp[(log[s2] - 2 * log[s1]) % order]]
            if y < 0:
                return None
            scale = log[s1] - log[s2] + order
            degrees = [(order - (log[root] + scale)) % order for root in (y, y ^ 1)]
        else:
            coef = [j for j in range(1, length + 1) if locator[j]]
            exponents = (self._chien_table[np.array(coef) - 1]
                         + np.array([log[locator[j]] for j in coef])[:, None])
            terms = np.take(field.exp_np, exponents)
            # the constant term is 1, so sigma(alpha^-d) = 0 where the rest is 1
            degrees = np.flatnonzero(np.bitwise_xor.reduce(terms, axis=0) == 1).tolist()
            return degrees if len(degrees) == length else None
        return degrees if max(degrees) < self.n else None

    def decode(self, received_bits: np.ndarray) -> DecodeOutcome:
        """Correct up to t bit errors in a word, or in each row of words.

        One ``syndromes`` call covers every row. Failure is reported per row,
        never raised. Bounded-distance: a word with more than t errors either
        fails or is miscorrected to another codeword within distance t.
        """
        words = np.asarray(received_bits, dtype=np.uint8)
        synd = self.syndromes(words)
        message = words[..., : self.k].copy()
        failed = np.zeros(words.shape[:-1], dtype=bool)
        corrected = 0
        if synd.any():
            rows, row_failed = message.reshape(-1, self.k), failed.reshape(-1)
            synd = synd.reshape(-1, 2 * self.t)
            for r in np.flatnonzero(synd.any(axis=1)):
                locator = self._berlekamp_massey(synd[r])
                degrees = None if locator is None else self._error_degrees(locator)
                if degrees is None:
                    row_failed[r] = True
                    continue
                for d in degrees:
                    if d >= self.parity_bits:
                        rows[r, self.n - 1 - d] ^= 1
                corrected += len(degrees)
        return DecodeOutcome(message, corrected, failed)

    def __repr__(self):
        return (f"BchCodeSpec(n={self.n}, k={self.k}, t={self.t}, "
                f"parent_n={self.parent_n})")
