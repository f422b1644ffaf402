"""Slot-level modulation for the two line formats: OOK and 4-PPM.

Streams carry normalized slot amplitudes (1 = full on): uint8 0/1 as
modulated, float64 once noise has moved a slot. Slot timing is ideal; the
receive chain's aggregate noise enters as additive Gaussian per slot.
``flipped_bits`` is the slot chain each simulated frame goes through; 4-PPM
takes an even number of bits. Theoretical error rates use amplitude SNR =
peak amplitude / noise sigma.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

OOK = "ook"
PPM4 = "ppm4"

# natural binary dibit -> pulse slot: 00,01,10,11 -> 0,1,2,3
_PPM4_BITS_PER_SYMBOL = 2
_PPM4_SLOTS_PER_SYMBOL = 4

# OOK decides at the midpoint between the off (0) and on (1) amplitudes
_OOK_THRESHOLD = 0.5

# add_noise draws noise only for the aligned 4-slot groups holding a slot
# past the decision margin, unless more than this share of slots lies past
# it. Timed on 16,320- and 32,640-slot frames, the sparse draw is faster up
# to a share of 0.04 and the dense one from 0.05.
_SPARSE_MAX_SHARE = 0.04

# The 4-PPM SER integrand is smooth and negligible beyond 12 sigma of its
# peak; 6 Gauss-Legendre panels of 96 nodes on that window agree with an
# adaptive quadrature at epsrel 1e-10 to within 1e-13 for SNR 0..40.
_SER_HALF_WIDTH = 12.0
_SER_PANELS = 6
_SER_NODES = 96


@dataclass(frozen=True)
class ModulationScheme:
    kind: str
    bit_rate_bps: float

    def __post_init__(self):
        if not 1e3 <= self.bit_rate_bps <= 1e11:
            raise ValueError("bit_rate_bps must be in [1e3, 1e11] b/s")
        if self.kind not in (OOK, PPM4):
            raise ValueError(f"unknown modulation kind {self.kind!r}")


@dataclass(frozen=True)
class SlotStream:
    """Slot amplitudes and, when ``add_noise`` drew noise only for some
    aligned 4-slot groups, those groups' indices in ascending order (``None``
    when every slot may have moved)."""

    amplitudes: np.ndarray
    touched: np.ndarray | None = None


@cache
def _ppm4_byte_slots() -> np.ndarray:
    """Row v holds the 16 uint8 slot amplitudes of byte v's four dibits,
    first dibit in the high bits; read-only, built on first use."""
    dibits = (np.arange(256)[:, None] >> np.array([6, 4, 2, 0])) & 3
    table = (dibits[:, :, None] == np.arange(_PPM4_SLOTS_PER_SYMBOL)).view(np.uint8)
    table = table.reshape(256, -1)
    table.flags.writeable = False
    return table


def add_noise(stream: SlotStream, sigma: float,
              rng: np.random.Generator) -> SlotStream:
    """Each slot plus sigma times a standard normal, drawn only where it can
    change a decision.

    A slot whose noise stays inside the margin tau = 0.5 / sigma cannot cross
    the OOK threshold, nor change the arg-max of an aligned 4-PPM group whose
    slots all stay inside it. So the number of slots past tau is drawn as
    Bin(N, q) with q = 2 Q(tau), and those slots are placed uniformly without
    replacement. Given that set, i.i.d. normals are independent draws: each
    hit slot gets a random sign times a draw from the tail beyond tau
    (Marsaglia's method), and the other slots of its aligned group get draws
    truncated to (-tau, tau). Every other slot keeps its noiseless amplitude,
    so demodulated bits have exactly the law of one normal per slot, and the
    groups drawn for are recorded as ``touched``. Where q exceeds
    ``_SPARSE_MAX_SHARE`` (dark seconds among them) every slot gets a normal
    and ``touched`` is ``None``. With no slot past tau, ``stream`` itself is
    returned. The input is never written: a moved stream is a float64 copy.
    """
    if sigma < 0:
        raise ValueError("sigma must be >= 0")
    amps = stream.amplitudes
    tau = _OOK_THRESHOLD / sigma if sigma > 0 else math.inf
    q = 2.0 * qfunc(tau)
    if q > _SPARSE_MAX_SHARE:
        noisy = rng.standard_normal(len(amps))
        noisy *= sigma
        noisy += amps
        return SlotStream(noisy)
    count = rng.binomial(len(amps), q)
    if not count:
        return stream
    hits = rng.choice(len(amps), count, replace=False)
    groups = np.unique(hits // _PPM4_SLOTS_PER_SYMBOL)
    slots = _group_members(groups, _PPM4_SLOTS_PER_SYMBOL, len(amps))
    noisy = amps.astype(np.float64)
    noisy[slots] += sigma * _bulk_normals(tau, len(slots), rng)
    tail = np.copysign(_tail_normals(tau, len(hits), rng), rng.random(len(hits)) - 0.5)
    noisy[hits] = amps[hits] + sigma * tail
    return SlotStream(noisy, groups)


def _group_members(groups: np.ndarray, width: int, limit: int) -> np.ndarray:
    """Indices ``width * g + j`` for each of ``groups`` and 0 <= j < width,
    below ``limit``; ascending when ``groups`` are."""
    members = (groups[:, None] * width + np.arange(width)).ravel()
    return members[members < limit]


def _bulk_normals(tau: float, size: int, rng: np.random.Generator) -> np.ndarray:
    """``size`` standard normals conditioned on |z| < tau, by rejection."""
    out = np.empty(size)
    filled = 0
    while filled < size:
        z = rng.standard_normal(size - filled)
        z = z[np.abs(z) < tau]
        out[filled:filled + len(z)] = z
        filled += len(z)
    return out


def _tail_normals(tau: float, size: int, rng: np.random.Generator) -> np.ndarray:
    """``size`` standard normals conditioned on z > tau: Marsaglia (1964)
    proposes x = sqrt(tau^2 + 2 E), E exponential, and keeps x with
    probability tau / x."""
    out = np.empty(size)
    filled = 0
    while filled < size:
        x = np.sqrt(tau * tau + 2.0 * rng.standard_exponential(size - filled))
        x = x[rng.random(len(x)) * x < tau]
        out[filled:filled + len(x)] = x
        filled += len(x)
    return out


def qfunc(x: float) -> float:
    """Gaussian tail probability Q(x)."""
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def _check_snr(snr_amplitude: float) -> None:
    if not (math.isfinite(snr_amplitude) and snr_amplitude >= 0):
        raise ValueError("snr must be finite and >= 0")


@cache
def _ser_rule() -> tuple[np.ndarray, np.ndarray]:
    """Nodes (offsets from the window centre) and weights of a composite
    Gauss-Legendre rule on [-_SER_HALF_WIDTH, _SER_HALF_WIDTH]."""
    x, w = np.polynomial.legendre.leggauss(_SER_NODES)
    half = _SER_HALF_WIDTH / _SER_PANELS
    mids = np.linspace(-_SER_HALF_WIDTH + half, _SER_HALF_WIDTH - half, _SER_PANELS)
    return (mids[:, None] + half * x).ravel(), np.tile(half * w, _SER_PANELS)


def ppm4_symbol_error_rate(snr_amplitude: float) -> float:
    """Order-statistics SER: pulse slot vs three noise-only slots.

    P(correct) = E_u[ Phi(u + snr)^3 ] with u the pulse slot's noise. The
    error probability is integrated directly, as
    E_u[ Q(u + snr) (1 + Phi + Phi^2) ], since 1 - P(correct) cancels to 0
    in the far tail. The integrand peaks near u = -snr/2, so the window
    follows it.
    """
    _check_snr(snr_amplitude)
    s = snr_amplitude
    offsets, weights = _ser_rule()
    u = offsets - s / 2.0
    q = np.array([qfunc(v) for v in (u + s).tolist()])
    cdf = 1.0 - q  # only enters as 1 + Phi + Phi^2 >= 1, so no tail is lost
    pdf = np.exp(-0.5 * u * u) / math.sqrt(2.0 * math.pi)
    return min(1.0, float(weights @ (pdf * q * (1.0 + cdf + cdf * cdf))))


def theoretical_ber(kind: str, snr_amplitude: float) -> float:
    """Reference bit error rate at the given amplitude SNR.

    OOK with a midpoint threshold errs at Q(snr/2); 4-PPM converts symbol
    errors to bit errors with the orthogonal-signaling factor M/(2(M-1)).
    """
    _check_snr(snr_amplitude)
    if kind == OOK:
        return qfunc(snr_amplitude / 2.0)
    if kind == PPM4:
        factor = _PPM4_SLOTS_PER_SYMBOL / (2.0 * (_PPM4_SLOTS_PER_SYMBOL - 1))
        return factor * ppm4_symbol_error_rate(snr_amplitude)
    raise ValueError(f"unknown modulation kind {kind!r}")


def modulate(kind: str, bits: np.ndarray) -> SlotStream:
    """uint8 slot amplitudes: OOK sends the bits themselves; 4-PPM sends one
    pulse per 4-slot symbol, from an even number of bits, each packed byte
    looking up its four symbols in one table row (the slots of the dibits
    ``packbits`` zero-filled in the last byte are cut off)."""
    b = np.asarray(bits, dtype=np.uint8)
    if kind == OOK:
        return SlotStream(b)
    if kind != PPM4:
        raise ValueError(f"unknown modulation kind {kind!r}")
    if len(b) % _PPM4_BITS_PER_SYMBOL:
        raise ValueError(f"4-PPM takes an even number of bits, got {len(b)}")
    n_slots = len(b) // _PPM4_BITS_PER_SYMBOL * _PPM4_SLOTS_PER_SYMBOL
    return SlotStream(_ppm4_byte_slots().take(np.packbits(b), axis=0).ravel()[:n_slots])


def demodulate(kind: str, stream: SlotStream) -> np.ndarray:
    """OOK decides each slot at the threshold; 4-PPM takes the arg-max slot
    per symbol, the first bit saying whether the pulse is in the upper slot
    pair and the second which slot of that pair (strict ``>`` keeps ties at
    the lowest slot)."""
    if kind == OOK:
        return (stream.amplitudes > _OOK_THRESHOLD).view(np.uint8)
    if kind != PPM4:
        raise ValueError(f"unknown modulation kind {kind!r}")
    a0, a1, a2, a3 = stream.amplitudes.reshape(-1, _PPM4_SLOTS_PER_SYMBOL).T
    high = np.maximum(a2, a3) > np.maximum(a0, a1)
    bits = np.empty((len(high), _PPM4_BITS_PER_SYMBOL), dtype=np.uint8)
    bits[:, 0] = high
    bits[:, 1] = np.where(high, a3 > a2, a1 > a0)
    return bits.ravel()


def flipped_bits(kind: str, sigma: float, rng: np.random.Generator,
                 frame: np.ndarray) -> np.ndarray:
    """One frame through modulation, additive slot noise and demodulation;
    returns the ascending positions of the line bits that came out flipped.

    When ``add_noise`` returns the stream it was given, no slot moved and
    nothing is flipped. When it drew noise only for some aligned 4-slot
    groups (``touched``), no other decision can change, so only those groups
    are re-decided, in one ``demodulate`` call on their slots: for OOK the
    bits are the slots, for 4-PPM each group decides two bits. Otherwise the
    whole stream is demodulated and compared.
    """
    sent = modulate(kind, frame)
    noisy = add_noise(sent, sigma, rng)
    if noisy is sent:
        return np.empty(0, dtype=np.intp)
    if noisy.touched is None:
        return np.flatnonzero(demodulate(kind, noisy) != frame)
    slots = _group_members(noisy.touched, _PPM4_SLOTS_PER_SYMBOL, len(sent.amplitudes))
    bits = slots if kind == OOK else _group_members(
        noisy.touched, _PPM4_BITS_PER_SYMBOL, len(frame))
    decided = demodulate(kind, SlotStream(noisy.amplitudes[slots]))
    return bits[decided != frame[bits]]
