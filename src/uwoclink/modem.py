"""Slot-level modulation for the two line formats: OOK and 4-PPM.

Streams carry normalized slot amplitudes (1 = full on). Slot timing is
ideal; the receive chain's aggregate noise enters as additive Gaussian per
slot. Theoretical error rates use amplitude SNR = peak amplitude / noise
sigma.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate
from scipy.special import ndtr
from scipy.stats import norm

OOK = "ook"
PPM4 = "ppm4"

# natural binary dibit -> pulse slot: 00,01,10,11 -> 0,1,2,3
_PPM4_BITS_PER_SYMBOL = 2
_PPM4_SLOTS_PER_SYMBOL = 4


def slot_rate_for(kind: str, bit_rate_bps: float) -> float:
    """Line slot rate: OOK is 1 bit/slot; 4-PPM spends 4 slots on 2 bits."""
    if bit_rate_bps <= 0:
        raise ValueError("bit_rate_bps must be > 0")
    if kind == OOK:
        return float(bit_rate_bps)
    if kind == PPM4:
        return float(bit_rate_bps) * _PPM4_SLOTS_PER_SYMBOL / _PPM4_BITS_PER_SYMBOL
    raise ValueError(f"unknown modulation kind {kind!r}")


@dataclass(frozen=True)
class ModulationScheme:
    kind: str
    bit_rate_bps: float

    def __post_init__(self):
        slot_rate_for(self.kind, self.bit_rate_bps)  # validates both fields


@dataclass(frozen=True)
class SlotStream:
    amplitudes: np.ndarray
    pad_bits: int = 0


@dataclass(frozen=True)
class DetectionParams:
    noise_sigma: float
    ook_threshold: float = 0.5

    def __post_init__(self):
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be >= 0")


def ook_modulate(bits: np.ndarray) -> SlotStream:
    amps = np.asarray(bits, dtype=np.float64)
    return SlotStream(amps)


def ook_demodulate(stream: SlotStream, params: DetectionParams) -> np.ndarray:
    if not 0.0 < params.ook_threshold < 1.0:
        raise ValueError("ook_threshold must be in (0, 1)")
    return (stream.amplitudes > params.ook_threshold).astype(np.uint8)


def ppm4_modulate(bits: np.ndarray) -> SlotStream:
    """One pulse per 4-slot symbol; odd bit counts are zero-padded."""
    b = np.asarray(bits, dtype=np.uint8)
    pad = len(b) % _PPM4_BITS_PER_SYMBOL
    if pad:
        b = np.concatenate([b, np.zeros(pad, dtype=np.uint8)])
    pairs = b.reshape(-1, _PPM4_BITS_PER_SYMBOL)
    slots = pairs[:, 0] * 2 + pairs[:, 1]
    amps = np.zeros((len(slots), _PPM4_SLOTS_PER_SYMBOL), dtype=np.float64)
    amps[np.arange(len(slots)), slots] = 1.0
    return SlotStream(amps.ravel(), pad_bits=pad)


def ppm4_demodulate(stream: SlotStream) -> np.ndarray:
    """Arg-max slot per symbol; ties resolve to the lowest slot index."""
    amps = stream.amplitudes.reshape(-1, _PPM4_SLOTS_PER_SYMBOL)
    slots = np.argmax(amps, axis=1)
    bits = np.empty((len(slots), _PPM4_BITS_PER_SYMBOL), dtype=np.uint8)
    bits[:, 0] = slots >> 1
    bits[:, 1] = slots & 1
    out = bits.ravel()
    if stream.pad_bits:
        out = out[: -stream.pad_bits]
    return out


def add_noise(stream: SlotStream, sigma: float,
              rng: np.random.Generator) -> SlotStream:
    if sigma < 0:
        raise ValueError("sigma must be >= 0")
    noisy = stream.amplitudes + rng.standard_normal(len(stream.amplitudes)) * sigma
    return SlotStream(noisy, stream.pad_bits)


def qfunc(x: float) -> float:
    """Gaussian tail probability Q(x)."""
    return float(norm.sf(x))


def ppm4_symbol_error_rate(snr_amplitude: float) -> float:
    """Order-statistics SER: pulse slot vs three noise-only slots.

    P(correct) = E_u[ Phi(u + snr)^3 ] with u the pulse slot's noise. The
    error probability is integrated directly, as
    E_u[ Q(u + snr) (1 + Phi + Phi^2) ], since 1 - P(correct) cancels to 0
    in the far tail. The integrand peaks near u = -snr/2, so the window
    follows it.
    """
    if snr_amplitude < 0:
        raise ValueError("snr must be >= 0")
    s = snr_amplitude

    def integrand(u: float) -> float:
        cdf = ndtr(u + s)
        pdf = math.exp(-0.5 * u * u) / math.sqrt(2.0 * math.pi)
        return pdf * ndtr(-u - s) * (1.0 + cdf + cdf * cdf)

    centre = -s / 2.0
    p_error, _ = integrate.quad(integrand, centre - 12.0, centre + 12.0,
                                points=[centre], epsabs=0.0, epsrel=1e-10)
    return min(1.0, p_error)


def theoretical_ber(kind: str, snr_amplitude: float) -> float:
    """Reference bit error rate at the given amplitude SNR.

    OOK with a midpoint threshold errs at Q(snr/2); 4-PPM converts symbol
    errors to bit errors with the orthogonal-signaling factor M/(2(M-1)).
    """
    if snr_amplitude < 0:
        raise ValueError("snr must be >= 0")
    if kind == OOK:
        return qfunc(snr_amplitude / 2.0)
    if kind == PPM4:
        factor = _PPM4_SLOTS_PER_SYMBOL / (2.0 * (_PPM4_SLOTS_PER_SYMBOL - 1))
        return factor * ppm4_symbol_error_rate(snr_amplitude)
    raise ValueError(f"unknown modulation kind {kind!r}")


def mean_optical_power(stream: SlotStream) -> float:
    """Average slot amplitude (1/4 for 4-PPM, bit density for OOK)."""
    return float(np.mean(stream.amplitudes))


def modulate(kind: str, bits: np.ndarray) -> SlotStream:
    if kind == OOK:
        return ook_modulate(bits)
    if kind == PPM4:
        return ppm4_modulate(bits)
    raise ValueError(f"unknown modulation kind {kind!r}")


def demodulate(kind: str, stream: SlotStream, params: DetectionParams) -> np.ndarray:
    if kind == OOK:
        return ook_demodulate(stream, params)
    if kind == PPM4:
        return ppm4_demodulate(stream)
    raise ValueError(f"unknown modulation kind {kind!r}")


def mc_bit_error_rate(kind: str, snr_amplitude: float, n_bits: int,
                      seed: int) -> float:
    """Monte-Carlo BER of the modem chain at unit amplitude, sigma = 1/snr."""
    if snr_amplitude <= 0:
        raise ValueError("snr must be > 0 for a Monte-Carlo run")
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2, n_bits).astype(np.uint8)
    stream = modulate(kind, bits)
    sigma = 1.0 / snr_amplitude
    noisy = add_noise(stream, sigma, rng)
    out = demodulate(kind, noisy, DetectionParams(noise_sigma=sigma))
    return float(np.mean(out != bits))
