import numpy as np
import pytest

from uwoclink.fec.concat import PRIMITIVE_POLY_M11, PRIMITIVE_POLY_M12
from uwoclink.fec.galois import FieldSpec


def poly_mul_gf2(a: int, b: int) -> int:
    """Carry-less product of two GF(2)[x] polynomials in bitmask form."""
    result = 0
    while b:
        if b & 1:
            result ^= a
        a <<= 1
        b >>= 1
    return result


def poly_mod_gf2(a: int, b: int) -> int:
    """Remainder of a / b over GF(2)[x]."""
    db = b.bit_length()
    while a.bit_length() >= db:
        a ^= b << (a.bit_length() - db)
    return a


def oracle_mul(a: int, b: int, poly: int) -> int:
    """GF(2^m) product without tables: carry-less multiply, then reduce."""
    return poly_mod_gf2(poly_mul_gf2(a, b), poly)


def test_gf16_alpha_powers(gf16):
    # alpha^4 = alpha + 1 and alpha^5 = alpha^2 + alpha with x^4 + x + 1
    assert (gf16.m, gf16.order) == (4, 15)
    assert gf16.exp[4] == 0b0011
    assert gf16.exp[5] == 0b0110

@pytest.mark.parametrize("m, poly", [(1, 0b11), (17, (1 << 17) | 0b1001)])
def test_degree_outside_2_to_16_rejected(m, poly):
    # m is the polynomial's degree
    with pytest.raises(ValueError, match=rf"field degree m must be in \[2, 16\] \(got {m}\)"):
        FieldSpec(poly)


def test_reducible_polynomial_rejected():
    # x^4 + x^2 + 1 = (x^2 + x + 1)^2
    with pytest.raises(ValueError):
        FieldSpec(0b10101)


def test_non_primitive_irreducible_rejected():
    # x^4 + x^3 + x^2 + x + 1 is irreducible but its root has order 5
    with pytest.raises(ValueError):
        FieldSpec(0b11111)


def test_m11_default_poly_full_cycle():
    field = FieldSpec(PRIMITIVE_POLY_M11)
    assert (field.m, field.order) == (11, 2047)  # m is the polynomial's degree
    assert len(set(field.exp)) == 2047
    assert field.exp[0] == 1


def test_m12_default_poly_full_cycle():
    field = FieldSpec(PRIMITIVE_POLY_M12)
    assert (field.m, field.order) == (12, 4095)
    assert len(set(field.exp)) == 4095


def test_mul_inverse_roundtrip(gf16):
    # nonzero elements multiply as exp[log a + log b]
    for a in range(1, 16):
        inverse = next(b for b in range(1, 16) if oracle_mul(a, b, gf16.primitive_poly) == 1)
        assert gf16.exp[gf16.log[a] + gf16.log[inverse]] == 1


def test_mul_matches_log_identity(gf16):
    # the doubled exp table takes every sum of two logs without a reduction:
    # every product on GF(16), and a sample on the inner code's GF(2^11)
    rng = np.random.default_rng(3)
    for field, pairs in ((gf16, [(a, b) for a in range(1, 16) for b in range(1, 16)]),
                         (FieldSpec(PRIMITIVE_POLY_M11),
                          rng.integers(1, 2048, (2000, 2)).tolist())):
        assert len(field.exp) == 2 * field.order
        for a, b in pairs:
            assert field.exp[field.log[a] + field.log[b]] == oracle_mul(a, b, field.primitive_poly)


@pytest.mark.parametrize("m, poly", [(4, 0b10011), (11, PRIMITIVE_POLY_M11),
                                     (12, PRIMITIVE_POLY_M12)])
def test_quadratic_root_table(m, poly):
    # y^2 + y = c has a root for exactly half of all c; the table holds one
    field = FieldSpec(poly)
    solvable = {oracle_mul(y, y, poly) ^ y for y in range(1 << m)}
    assert len(solvable) == 1 << (m - 1)
    assert len(field.quadratic_root) == 1 << m
    for c, y in enumerate(field.quadratic_root):
        if c in solvable:
            assert oracle_mul(y, y, poly) ^ y == c
        else:
            assert y == -1


@pytest.mark.parametrize("m, poly", [(4, 0b10011), (11, PRIMITIVE_POLY_M11),
                                     (12, PRIMITIVE_POLY_M12)])
def test_cubic_root_table(m, poly):
    # z^3 + z = c: the table holds one root for every c that has one
    field = FieldSpec(poly)
    solvable = {oracle_mul(oracle_mul(z, z, poly), z, poly) ^ z for z in range(1 << m)}
    assert len(field.cubic_root) == 1 << m
    for c, z in enumerate(field.cubic_root):
        if c in solvable:
            assert oracle_mul(oracle_mul(z, z, poly), z, poly) ^ z == c
        else:
            assert z == -1


def test_poly_mul_mod_gf2():
    # (x^2+1)(x+1) = x^3+x^2+x+1
    assert poly_mul_gf2(0b101, 0b11) == 0b1111
    assert poly_mod_gf2(0b1111, 0b11) == 0
    assert poly_mod_gf2(0b1011, 0b101) == 0b1  # x^3+x+1 mod x^2+1
