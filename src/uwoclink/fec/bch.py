"""Binary BCH codes: systematic encode, Berlekamp-Massey decode, shortening.

Bit convention: arrays of 0/1 uint8, index 0 transmitted first. Bit i of an
n-bit word is the coefficient of x^(n-1-i), so a shortened code is the
parent code with the high-degree message coefficients fixed at zero.

The decoder is bounded-distance: it corrects every pattern of at most t
errors and either flags or miscorrects a heavier one. Syndromes that fit
one, two or three errors are solved in closed form (Peterson 1960), and
checked against S_5 .. S_(2t-1) with one XOR of packed ints per error. Only
other words run binary Berlekamp-Massey, in t steps, and a Chien search
over the n transmitted degrees finds the roots of the locator, which then
has degree 4 or more. A root in the shortened prefix fails the word.

Encoding and syndromes go through byte tables: one lookup per packed byte
of a word gives its parity disagreement, and one per byte of that gives
its 2t syndromes. The production codec's tables hold about 2.3 MB, nearly
all of it the parity tables (ceil(n/8) x 256 entries of ceil(r/64) uint64
words per code).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .galois import FieldSpec

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
    """Product of (x + alpha^e) over the conjugates of alpha, alpha^3, ...,
    alpha^(2t-1): e = i 2^j mod 2^m - 1 for odd i < 2t and 0 <= j < m.

    This is the LCM of their minimal polynomials (Lin & Costello, Error
    Control Coding, 6.1), so its coefficients lie in GF(2); returned as a
    bitmask, bit k the coefficient of x^k.
    """
    exp, log = field.exp, field.log
    poly = [1]  # ascending coefficients, values in the extension field
    for e in {(i << j) % field.order for i in range(1, 2 * t, 2) for j in range(field.m)}:
        # times (x + alpha^e); b alpha^e is exp[log b + e], or 0 when b is 0
        poly = [a ^ (b and exp[log[b] + e]) for a, b in zip([0] + poly, poly + [0])]
    if any(c > 1 for c in poly):
        raise ValueError(f"generator polynomial for t={t} did not collapse to GF(2)")
    return sum(c << k for k, c in enumerate(poly))


def _byte_table(columns: np.ndarray) -> np.ndarray:
    """XOR sums of ``columns`` by packed byte, for lookup after ``packbits``.

    Row ``256 * b + v`` is the XOR of the columns ``8b + j`` whose bit is
    set in byte value ``v`` (MSB first, so column ``8b`` is bit 7). Columns
    past the end count as zero. Built by doubling, one bit at a time.
    """
    shape = columns.shape[1:]
    padded = np.zeros((-(-len(columns) // 8) * 8, *shape), dtype=columns.dtype)
    padded[: len(columns)] = columns
    padded = padded.reshape(-1, 8, *shape)
    table = np.zeros((len(padded), 256, *shape), dtype=columns.dtype)
    for bit in range(8):
        size = 1 << bit
        np.bitwise_xor(table[:, :size], padded[:, 7 - bit, None],
                       out=table[:, size:2 * size])
    return table.reshape(-1, *shape)


def _pack(values: np.ndarray) -> list[int]:
    """Each row of field elements as one int, 16 bits to an element, so that
    the XOR of packed rows is the packed XOR of the rows."""
    lanes = np.zeros((len(values), 4 * -(-values.shape[1] // 4) or 4), dtype=np.uint16)
    lanes[:, : values.shape[1]] = values
    words = lanes.view(np.uint64).astype(object)
    for i in range(1, words.shape[1]):
        words[:, 0] |= words[:, i] << 64 * i
    return words[:, 0].tolist()


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
        # Each column is stored as the r coefficients of x^(r-1) .. x^0,
        # MSB first and left-aligned in whole uint64 words (zero-filled).
        words = -(-r // 64)
        shift = 64 * words - r
        buf = bytearray()
        cur = 1  # x^d mod g for d = 0 .. n-1
        for _ in range(n):
            buf += (cur << shift).to_bytes(8 * words, "big")
            cur <<= 1
            if cur >> r:
                cur ^= g
        columns = np.frombuffer(buf, dtype=np.uint64).reshape(n, words)[::-1]
        # One flat table per uint64 word of parity: entry 256 b + v is that
        # word of the XOR of the columns that byte b = v of a packed word
        # selects. XOR acts on bytes alike, so the words' bytes, read back
        # in memory order, are the packed parity bits.
        self._parity_tables = [_byte_table(columns[:, w]) for w in range(words)]
        self._byte_offsets = 256 * np.arange(-(-n // 8), dtype=np.intp)
        self._parity_bytes = -(-r // 8)

        # Syndromes by byte of the packed parity disagreement (see
        # syndromes): parity bit c has degree r-1-c and adds alpha^(j (r-1-c))
        # to S_j, j = 1 .. 2t.
        order = self.field.order
        degs = np.arange(r - 1, -1, -1, dtype=np.int64)
        powers = np.outer(degs, np.arange(1, 2 * self.t + 1)) % order
        self._syndrome_lookup = _byte_table(self.field.exp_np[powers].astype(np.uint16))

        # The exp table t + 1 times over, for the Chien search (_error_degrees)
        self._exp_run = np.tile(self.field.exp_np[:order], self.t + 1).astype(np.uint16)
        # S_5, S_7, .., S_(2t-1) of one error at each degree, packed (the fit)
        odd = np.outer(np.arange(order), np.arange(5, 2 * self.t, 2)) % order
        self._odd_packed = _pack(self.field.exp_np[odd])

    # --- encoding -----------------------------------------------------

    def _parity_check(self, bits: np.ndarray) -> np.ndarray:
        """H.bits over GF(2), packed: ceil(r/8) bytes per word or per row.

        One table lookup per packed byte and uint64 word of parity, XORed
        along the row. Bits past the end of the input count as zero, so a
        message alone gives its parity.
        """
        packed = np.packbits(bits, axis=-1)
        index = packed + self._byte_offsets[: packed.shape[-1]]
        parity = np.empty(index.shape[:-1] + (len(self._parity_tables),), dtype=np.uint64)
        for w, table in enumerate(self._parity_tables):
            parity[..., w] = np.bitwise_xor.reduce(table.take(index), axis=-1)
        return parity.view(np.uint8)[..., : self._parity_bytes]

    def encode(self, message_bits: np.ndarray) -> np.ndarray:
        """Systematic codeword: message followed by n-k parity bits.

        A 2-D array is encoded in one call, one message per row.
        """
        msg = np.asarray(message_bits, dtype=np.uint8)
        if msg.ndim not in (1, 2) or msg.shape[-1] != self.k:
            raise ValueError(
                f"message must be {self.k} bits (or rows of them), got {msg.shape}"
            )
        parity = np.unpackbits(self._parity_check(msg), axis=-1, count=self.parity_bits)
        return np.concatenate([msg, parity], axis=-1)

    # --- decoding -----------------------------------------------------

    def syndromes(self, words: np.ndarray) -> np.ndarray:
        """S_1 .. S_2t of a received word, or of each row of words.

        Re-encoding the received message gives a codeword, and syndromes are
        linear, so a word's syndromes are those of its difference from that
        codeword: the parity bits that disagree, which H.word marks. One
        packed parity check covers every row. When no byte of it is set,
        every row is clean and the result is zero at once. Otherwise each
        row's syndromes are one table lookup per byte of its packed
        disagreement, XORed; a clean row's bytes are zero and look up zero.
        (Selecting the dirty rows first, timed on a 2-core host at the rows
        of one simulated second: at 48 inner rows it saved 20-25 of 90-115
        us with 1 to 6 rows dirty and cost 2-8 us with all 48 dirty; at 24
        outer rows it cost 4-20 us whatever the number dirty.)
        """
        words = np.asarray(words, dtype=np.uint8)
        if words.ndim not in (1, 2) or words.shape[-1] != self.n:
            raise ValueError(
                f"received word must be {self.n} bits (or rows of them), "
                f"got {words.shape}"
            )
        wrong = self._parity_check(words) if words.size else words
        if not wrong.any():
            return np.zeros(words.shape[:-1] + (2 * self.t,), dtype=np.int64)
        terms = self._syndrome_lookup[wrong + self._byte_offsets[: self._parity_bytes]]
        return np.bitwise_xor.reduce(terms, axis=-2).astype(np.int64)

    def _berlekamp_massey(self, synd) -> list[int] | None:
        """Error locator sigma_0 .. sigma_L (sigma_0 = 1), or None when L > t.

        Binary Berlekamp-Massey: the syndromes of a binary word have
        S_2j = S_j^2, so every even step's discrepancy is zero and only the
        t odd steps are run (Berlekamp 1968; Lin & Costello, Error Control
        Coding, 6.2). L never decreases, so L > t ends the search at once.
        """
        exp, log, order, t = self.field.exp, self.field.log, self.field.order, self.t
        s = [int(v) for v in synd]
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

    def _low_weight_degrees(self, s: list[int], packed: int) -> list[int] | None:
        """Degrees of the error pattern of weight 1, 2 or 3 with syndromes
        ``s``, over the whole 2^m - 1 cycle, or None when none fits.

        Peterson's direct solution. D = S_1^3 + S_3 = 0 leaves weight 1 at
        X = S_1 (a t = 1 code has no S_3). Otherwise sigma1 = S_1, sigma2 =
        (S_1^2 S_3 + S_5) / D and sigma3 = D + S_1 sigma2 (t = 2 has no S_5:
        sigma2 = D / S_1, sigma3 = 0), and sigma3 = 0 leaves weight 2. S_1 = 0
        with D != 0 can only be weight 3 with X_1 + X_2 + X_3 = 0. The pattern
        found gives S_1, S_3 and any S_5 used; the XOR of its degrees' rows of
        ``_odd_packed`` must be ``packed``, the word's S_5 .. S_(2t-1) as
        ``_pack`` packs them. A pattern of weight <= t is the only one of
        weight <= t with its 2t syndromes, so Berlekamp-Massey would return
        its locator; the even syndromes follow from the odd ones.
        """
        exp, log, order = self.field.exp, self.field.log, self.field.order
        s1, l1 = s[0], log[s[0]]
        d = (s1 and exp[3 * l1 % order]) ^ s[2] if self.t > 1 else 0
        if d == 0:
            degrees = [l1] if s1 else None
        else:
            if self.t > 2:
                num = (s1 and s[2] and exp[(2 * l1 + log[s[2]]) % order]) ^ s[4]
                sigma2 = num and exp[log[num] - log[d] + order]
            elif s1:
                sigma2 = exp[log[d] - l1 + order]
            else:
                return None
            sigma3 = d ^ (s1 and sigma2 and exp[l1 + log[sigma2]])
            if sigma3:
                degrees = self._cubic_degrees(s1, sigma2, sigma3)
            else:  # X = S_1 y turns X^2 + S_1 X + sigma2 into y^2 + y = sigma2 / S_1^2
                y = self.field.quadratic_root[exp[(log[sigma2] - 2 * l1) % order]]
                degrees = None if y < 0 else [(l1 + log[v]) % order for v in (y, y ^ 1)]
        if degrees is None:
            return None
        for e in degrees:
            packed ^= self._odd_packed[e]
        return None if packed else degrees

    def _cubic_degrees(self, s1: int, s2: int, s3: int) -> list[int] | None:
        """The three degrees d of the roots of 1 + s1 x + s2 x^2 + s3 x^3
        (s3 != 0), over the whole cycle, or None unless there are three.

        The roots are x = 1/X for X^3 + s1 X^2 + s2 X + s3 = 0. X = Y + s1
        gives Y^3 + p Y + q with p = s1^2 + s2 and q = s1 s2 + s3. For p != 0,
        Y = sqrt(p) Z gives Z^3 + Z = q / p^(3/2): one root from the table,
        the other two from the quadratic left after dividing it out. For
        p = 0 the roots are the cube roots of q, which are three only when
        3 divides 2^m - 1 (even m) and q is a cube.
        """
        exp, log, order = self.field.exp, self.field.log, self.field.order
        p = (s1 and exp[2 * log[s1]]) ^ s2
        q = (s1 and s2 and exp[log[s1] + log[s2]]) ^ s3
        if q == 0:
            return None  # Y (Y^2 + p): a repeated root, or Y = 0 three times
        if p:
            half = (log[p] + (log[p] & 1) * order) // 2  # log sqrt(p)
            z0 = self.field.cubic_root[exp[(log[q] - 3 * half) % order]]
            if z0 < 0:
                return None
            # (Z + z0)(Z^2 + z0 Z + z0^2 + 1); Z = z0 w: w^2 + w = 1 + 1/z0^2.
            # q != 0, so z0 and w are neither 0 nor 1: the roots are distinct.
            lz = log[z0]
            w = self.field.quadratic_root[exp[(log[exp[2 * lz] ^ 1] - 2 * lz) % order]]
            if w < 0:
                return None
            ys = [exp[(lz + lw + half) % order] for lw in (0, log[w], log[w ^ 1])]
        else:
            if order % 3 or log[q] % 3:
                return None  # one cube root (odd m) or none
            ys = [exp[log[q] // 3 + i * (order // 3)] for i in range(3)]
        return [log[y ^ s1] for y in ys]

    def _error_degrees(self, locator: list[int]) -> list[int] | None:
        """Degrees d in [0, n) of the L roots alpha^-d, or None if fewer.

        A Chien search over the n transmitted degrees. A root in the
        shortened prefix, a repeated root or an irreducible factor leaves
        fewer than L roots: a decoding failure.

        A locator of degree L < 4 is always a failure, because ``decode``
        gets here only when ``_low_weight_degrees`` found no fit. A binary
        Berlekamp-Massey locator of degree L <= t generates all 2t syndromes.
        If it has L distinct roots X_i, the syndromes are sums of c_i X_i^j,
        and S_2j = S_j^2 makes every c_i 1. So the roots are a weight-L
        pattern with the word's 2t syndromes, which the fit would have found
        and verified; otherwise the locator has fewer than L roots.

        sigma_j alpha^(-j d) for d = 0 .. n-1 is a basic slice of
        ``_exp_run``, stepping back by j from log sigma_j + j (2^m - 1): a
        view, with no index array. Their XOR with the constant term 1 reads
        zero at the roots.
        """
        length = len(locator) - 1
        if length < 4:
            return None
        log, order, n, run = self.field.log, self.field.order, self.n, self._exp_run
        value = np.ones(n, dtype=np.uint16)
        for j in range(1, length + 1):
            if locator[j]:
                start = log[locator[j]] + j * order
                value ^= run[start:start - j * n:-j]
        degrees = np.flatnonzero(value == 0).tolist()
        return degrees if len(degrees) == length else None

    def decode(self, received_bits: np.ndarray) -> DecodeOutcome:
        """Correct up to t bit errors in a word, or in each row of words.

        One ``syndromes`` call covers every row. A dirty row whose syndromes
        fit one, two or three errors is solved in closed form; any other goes
        through Berlekamp-Massey and the Chien search. The corrections of all
        rows are applied in one XOR. Failure is reported per row, never
        raised. Bounded-distance: a word with more than t errors either fails
        or is miscorrected to another codeword within distance t.
        """
        words = np.asarray(received_bits, dtype=np.uint8)
        synd = self.syndromes(words)
        message = words[..., : self.k].copy()
        failed = np.zeros(words.shape[:-1], dtype=bool)
        corrected = 0
        if synd.any():
            row_failed, flips = failed.reshape(-1), []
            synd = synd.reshape(-1, 2 * self.t)
            dirty = np.flatnonzero(synd.any(axis=1))
            rows, n, k, r_bits = synd[dirty], self.n, self.k, self.parity_bits
            for r, s, packed in zip(dirty.tolist(), rows.tolist(), _pack(rows[:, 4::2])):
                degrees = self._low_weight_degrees(s, packed)
                if degrees is None:
                    locator = self._berlekamp_massey(s)
                    degrees = None if locator is None else self._error_degrees(locator)
                elif max(degrees) >= n:
                    degrees = None  # a root in the shortened prefix
                if degrees is None:
                    row_failed[r] = True
                    continue
                last = r * k + n - 1  # bit n-1-d of row r, if not parity
                flips += [last - d for d in degrees if d >= r_bits]
                corrected += len(degrees)
            message.reshape(-1)[flips] ^= 1
        return DecodeOutcome(message, corrected, failed)

    def __repr__(self):
        return (f"BchCodeSpec(n={self.n}, k={self.k}, t={self.t}, "
                f"parent_n={self.parent_n})")
