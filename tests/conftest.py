import numpy as np
import pytest

from uwoclink.config import load_preset
from uwoclink.fec import BchCodeSpec, codec_for
from uwoclink.fec.galois import FieldSpec
from uwoclink.modem import flipped_bits

# GF(16) with x^4 + x + 1, the textbook reference field
GF16_POLY = 0b10011


@pytest.fixture(scope="session")
def gf16():
    return FieldSpec(GF16_POLY)


@pytest.fixture(scope="session")
def bch15_7(gf16):
    return BchCodeSpec(15, 2, gf16)


@pytest.fixture(scope="session")
def bch15_5(gf16):
    return BchCodeSpec(15, 3, gf16)


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


def _chain_ber(kind: str, snr: float, n_bits: int, seed: int) -> float:
    """Share of ``n_bits`` uniform bits that ``modem.flipped_bits`` flips at
    unit amplitude and sigma = 1 / snr; the bits come first from
    ``default_rng(seed)``, the noise after."""
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2, n_bits).astype(np.uint8)
    return len(flipped_bits(kind, 1.0 / snr, rng, bits)) / n_bits


@pytest.fixture(scope="session")
def chain_ber():
    return _chain_ber
