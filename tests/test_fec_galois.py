import numpy as np
import pytest

from uwoclink.fec.concat import PRIMITIVE_POLY_M11, PRIMITIVE_POLY_M12
from uwoclink.fec.galois import FieldSpec, cyclotomic_coset, minimal_polynomial, poly_mul_gf2


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
    assert gf16.exp[4] == 0b0011
    assert gf16.exp[5] == 0b0110

def test_reducible_polynomial_rejected():
    # x^4 + x^2 + 1 = (x^2 + x + 1)^2
    with pytest.raises(ValueError):
        FieldSpec(4, 0b10101)


def test_non_primitive_irreducible_rejected():
    # x^4 + x^3 + x^2 + x + 1 is irreducible but its root has order 5
    with pytest.raises(ValueError):
        FieldSpec(4, 0b11111)


def test_m11_default_poly_full_cycle():
    field = FieldSpec(11, PRIMITIVE_POLY_M11)
    assert field.order == 2047
    assert len(set(field.exp)) == 2047
    assert field.exp[0] == 1


def test_m12_default_poly_full_cycle():
    field = FieldSpec(12, PRIMITIVE_POLY_M12)
    assert field.order == 4095
    assert len(set(field.exp)) == 4095


def test_mul_inverse_roundtrip(gf16):
    for a in range(1, 16):
        inverse = next(b for b in range(1, 16) if oracle_mul(a, b, gf16.primitive_poly) == 1)
        assert gf16.mul(a, inverse) == 1


def test_mul_matches_log_identity(gf16):
    rng = np.random.default_rng(3)
    for _ in range(200):
        a, b = int(rng.integers(1, 16)), int(rng.integers(1, 16))
        assert gf16.log[gf16.mul(a, b)] == (gf16.log[a] + gf16.log[b]) % 15
        assert gf16.mul(a, b) == oracle_mul(a, b, gf16.primitive_poly)


def test_zero_handling(gf16):
    assert gf16.mul(0, 7) == 0
    assert gf16.mul(7, 0) == 0


def test_cyclotomic_coset_closure():
    coset = cyclotomic_coset(1, 15)
    assert coset == frozenset({1, 2, 4, 8})
    assert cyclotomic_coset(3, 15) == frozenset({3, 6, 12, 9})


def test_minimal_polynomials_gf16(gf16):
    # classic table for GF(16)/x^4+x+1
    assert minimal_polynomial(gf16, 1) == 0b10011          # x^4+x+1
    assert minimal_polynomial(gf16, 3) == 0b11111          # x^4+x^3+x^2+x+1
    assert minimal_polynomial(gf16, 5) == 0b111            # x^2+x+1


def test_minimal_polynomial_annihilates_root(gf16):
    for i in (1, 3, 5, 7):
        mp = minimal_polynomial(gf16, i)
        # evaluate at alpha^i by summing alpha^(i*k) over set coefficients
        acc = 0
        for k in range(mp.bit_length()):
            if (mp >> k) & 1:
                acc ^= gf16.exp[(i * k) % gf16.order]
        assert acc == 0


def test_poly_mul_mod_gf2():
    # (x^2+1)(x+1) = x^3+x^2+x+1
    assert poly_mul_gf2(0b101, 0b11) == 0b1111
    assert poly_mod_gf2(0b1111, 0b11) == 0
    assert poly_mod_gf2(0b1011, 0b101) == 0b1  # x^3+x+1 mod x^2+1
