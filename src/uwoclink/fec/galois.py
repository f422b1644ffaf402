"""GF(2^m) arithmetic via log/antilog tables.

Elements are ints in [0, 2^m); addition is XOR. The generator alpha is the
polynomial x, so exp[i] = x^i mod primitive_poly. Construction verifies the
polynomial is primitive by walking the full multiplicative cycle.
"""

from __future__ import annotations

import numpy as np


class FieldSpec:
    """Tables for one binary extension field GF(2^m)."""

    def __init__(self, m: int, primitive_poly: int):
        if not 2 <= m <= 16:
            raise ValueError("field degree m must be in [2, 16]")
        if primitive_poly.bit_length() != m + 1:
            raise ValueError(
                f"primitive_poly must have degree {m} "
                f"(got degree {primitive_poly.bit_length() - 1})"
            )
        self.m = m
        self.primitive_poly = primitive_poly
        self.order = (1 << m) - 1

        exp = [0] * self.order
        log = [0] * (self.order + 1)
        x = 1
        for i in range(self.order):
            exp[i] = x
            log[x] = i
            x <<= 1
            if x & (1 << m):
                x ^= primitive_poly
        # Primitive iff x returns to 1 only after a full cycle of distinct
        # nonzero values.
        if x != 1 or 0 in exp or len(set(exp)) != self.order:
            raise ValueError(
                f"polynomial {primitive_poly:#x} is not primitive over GF(2^{m})"
            )
        self.exp = exp
        self.log = log
        # numpy mirror for vectorized syndrome/Chien evaluation
        self.exp_np = np.array(exp, dtype=np.int64)

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self.exp[(self.log[a] + self.log[b]) % self.order]

    def __repr__(self):
        return f"FieldSpec(m={self.m}, primitive_poly={self.primitive_poly:#x})"


def cyclotomic_coset(i: int, order: int) -> frozenset[int]:
    """Exponent coset {i, 2i, 4i, ...} mod order."""
    coset = set()
    c = i % order
    while c not in coset:
        coset.add(c)
        c = (c * 2) % order
    return frozenset(coset)


def minimal_polynomial(field: FieldSpec, i: int) -> int:
    """Minimal polynomial of alpha^i over GF(2), as a bitmask (bit k = x^k).

    Computed as prod (x + alpha^s) over the cyclotomic coset of i; the
    product's coefficients must collapse into {0, 1}.
    """
    coset = cyclotomic_coset(i, field.order)
    poly = [1]  # ascending coefficients, values in the extension field
    for s in coset:
        root = field.exp[s]
        nxt = [0] * (len(poly) + 1)
        for j, cj in enumerate(poly):
            if cj:
                nxt[j + 1] ^= cj
                nxt[j] ^= field.mul(cj, root)
        poly = nxt
    if any(c not in (0, 1) for c in poly):
        raise ValueError(f"minimal polynomial of alpha^{i} did not collapse to GF(2)")
    mask = 0
    for j, cj in enumerate(poly):
        mask |= cj << j
    return mask


def poly_mul_gf2(a: int, b: int) -> int:
    """Carry-less product of two GF(2)[x] polynomials in bitmask form."""
    result = 0
    while b:
        if b & 1:
            result ^= a
        a <<= 1
        b >>= 1
    return result
