"""GF(2^m) arithmetic via log/antilog tables.

A field is named by its primitive polynomial alone: m is its degree.
Elements are ints in [0, 2^m); addition is XOR, and callers multiply two
nonzero elements as exp[log a + log b]. The generator alpha is the
polynomial x, so exp[i] = x^i mod primitive_poly. Construction verifies the
polynomial is primitive by walking the full multiplicative cycle, and
tabulates a root of y^2 + y = c and of z^3 + z = c for every c (Berlekamp,
Rumsey & Solomon 1967), which solve any quadratic and any cubic after a
change of variable. The BCH decoder fits an error pattern of
weight 1, 2 or 3 to its syndromes in closed form, with the first table at
weight 2 and the second at weight 3; only a heavier word's error locator
goes to the Chien search.
"""

from __future__ import annotations

import numpy as np


class FieldSpec:
    """Tables for GF(2^m), where m, in [2, 16], is the degree of ``primitive_poly``."""

    def __init__(self, primitive_poly: int):
        m = primitive_poly.bit_length() - 1
        if not 2 <= m <= 16:
            raise ValueError(f"field degree m must be in [2, 16] (got {m})")
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
        # Doubled, so that exp[log a + log b] needs no reduction mod order.
        self.exp = exp + exp
        self.log = log
        # numpy mirror for vectorized syndrome/Chien evaluation
        self.exp_np = np.array(self.exp, dtype=np.int64)

        # quadratic_root[c] is a y with y^2 + y = c, or -1 when there is none
        # (trace of c is 1); the other root is y + 1.
        y = np.arange(self.order + 1)
        logs = np.array(log)
        squares = np.where(y > 0, self.exp_np[2 * logs], 0)
        roots = np.full(self.order + 1, -1, dtype=np.int64)
        roots[squares ^ y] = y
        self.quadratic_root = roots.tolist()
        # cubic_root[c] is a z with z^3 + z = c, or -1 when there is none;
        # the other roots, if any, solve a quadratic (see BchCodeSpec).
        cubes = np.where(y > 0, self.exp_np[3 * logs % self.order], 0)
        roots = np.full(self.order + 1, -1, dtype=np.int64)
        roots[cubes ^ y] = y
        self.cubic_root = roots.tolist()

    def __repr__(self):
        return f"FieldSpec({self.primitive_poly:#x})"

