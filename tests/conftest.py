import pytest

from uwoclink.config import load_preset
from uwoclink.fec import BchCodeSpec, codec_for
from uwoclink.fec.galois import FieldSpec

# GF(16) with x^4 + x + 1, the textbook reference field
GF16_POLY = 0b10011


@pytest.fixture(scope="session")
def gf16():
    return FieldSpec(4, GF16_POLY)


@pytest.fixture(scope="session")
def bch15_7(gf16):
    return BchCodeSpec(15, 7, 2, gf16)


@pytest.fixture(scope="session")
def bch15_5(gf16):
    return BchCodeSpec(15, 5, 3, gf16)


@pytest.fixture(scope="session")
def codec():
    return codec_for()


@pytest.fixture(scope="session")
def green():
    return load_preset("green-125M")


@pytest.fixture(scope="session")
def blue():
    return load_preset("blue-6M25")


@pytest.fixture(scope="session")
def blue_nlos():
    return load_preset("blue-6M25-nlos")
