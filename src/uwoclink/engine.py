"""End-to-end link simulation and the deterministic goodput calculator.

A scenario run walks simulated seconds: draw one fading sample, update the
AGC against the multiplicative receiver plant, then push a handful of
frames through FEC -> modulation -> additive noise -> demodulation -> FEC
decode. Slot noise comes from the link margin through a single calibrated
offset (margin_db + snr_offset_db -> amplitude SNR), the one free constant
the field system never published.
"""

from __future__ import annotations

import hashlib
import itertools
import math
from collections.abc import Callable, Iterator
from dataclasses import asdict, dataclass, field
from functools import partial

import numpy as np

from . import modem
from .agc import AgcState, ReceiverChain, agc_step
from .channel import (
    FadingSpec,
    LinkGeometry,
    NlosPath,
    WaterOptics,
    sample_fading_db,
    total_loss_db,
)
from .fec import (
    DEFAULT_INTERLEAVER_DEPTH,
    DEFAULT_OUTER_WORDS_PER_FRAME,
    ConcatCodecSpec,
    codec_for,
)
from .modem import ModulationScheme

# Ethernet per-frame overhead: 14 header + 4 FCS + 8 preamble + 12 interframe gap
ETHERNET_OVERHEAD_BYTES = 38
MIN_PAYLOAD_BYTES = 46
MAX_PAYLOAD_BYTES = 1500


@dataclass(frozen=True)
class LinkSpec:
    """Everything needed to simulate or budget one directed optical link."""

    name: str
    tx_power_w: float
    water: WaterOptics
    geometry: LinkGeometry
    modulation: ModulationScheme
    budget_db: float
    receiver: ReceiverChain = field(default_factory=ReceiverChain)
    fading: FadingSpec = field(default_factory=FadingSpec)
    nlos: NlosPath | None = None
    sync_overhead_fraction: float = 0.0
    iface_cap_bps: float = 100e6
    frame_payload_bytes: int = 1500
    snr_offset_db: float = 0.0
    agc_window_v: tuple[float, float] = (0.5, 5.0)
    interleaver_depth: int = DEFAULT_INTERLEAVER_DEPTH
    outer_words_per_frame: int = DEFAULT_OUTER_WORDS_PER_FRAME
    sim_frames_per_second: int = 6

    def __post_init__(self):
        if self.tx_power_w <= 0:
            raise ValueError("tx_power_w must be > 0")
        if self.budget_db <= 0:
            raise ValueError("budget_db must be > 0")
        if not 0.0 <= self.sync_overhead_fraction < 1.0:
            raise ValueError("sync_overhead_fraction must be in [0, 1)")
        if self.iface_cap_bps <= 0:
            raise ValueError("iface_cap_bps must be > 0")
        if not MIN_PAYLOAD_BYTES <= self.frame_payload_bytes <= MAX_PAYLOAD_BYTES:
            raise ValueError(
                f"frame_payload_bytes must be in "
                f"[{MIN_PAYLOAD_BYTES}, {MAX_PAYLOAD_BYTES}]"
            )
        lo, hi = self.agc_window_v
        if not 0 < lo < hi:
            raise ValueError("agc_window_v must satisfy 0 < low < high")
        if self.sim_frames_per_second < 1:
            raise ValueError("sim_frames_per_second must be >= 1")

    @property
    def codec(self) -> ConcatCodecSpec:
        return codec_for(self.interleaver_depth, self.outer_words_per_frame)

    def fingerprint(self) -> str:
        """Stable short hash of the full configuration."""
        return hashlib.sha256(repr(self).encode()).hexdigest()[:16]


@dataclass(frozen=True)
class SimReport:
    """Per-run statistics; a pure function of (configuration, seed)."""

    name: str
    seed: int
    config_hash: str
    duration_s: int
    frames_sent: int
    bits_simulated: int
    payload_bits_simulated: int
    pre_fec_bit_errors: int
    pre_fec_ber: float
    post_fec_bit_errors: int
    post_fec_ber: float
    packet_loss_count: int
    decode_failures: int
    goodput_bps: float
    agc_saturated_seconds: int
    link_dark_seconds: int
    beps_series: tuple[int, ...]
    loss_series: tuple[int, ...]
    margin_trace_db: tuple[float, ...]

    def to_dict(self) -> dict:
        """Fields in declaration order; tuples become lists, as in JSON."""
        return {key: list(value) if isinstance(value, tuple) else value
                for key, value in asdict(self).items()}


def goodput_bps(line_rate_bps: float, fec_rate: float,
                sync_overhead_fraction: float, iface_cap_bps: float,
                frame_payload_bytes: int = 1500) -> float:
    """Usable Ethernet payload rate after coding, sync, cap, and framing."""
    if line_rate_bps < 0 or fec_rate < 0 or iface_cap_bps <= 0:
        raise ValueError("rates must be non-negative, iface cap positive")
    if not 0.0 <= sync_overhead_fraction < 1.0:
        raise ValueError("sync_overhead_fraction must be in [0, 1)")
    if not MIN_PAYLOAD_BYTES <= frame_payload_bytes <= MAX_PAYLOAD_BYTES:
        raise ValueError(
            f"frame_payload_bytes must be in [{MIN_PAYLOAD_BYTES}, {MAX_PAYLOAD_BYTES}]"
        )
    if line_rate_bps == 0:
        return 0.0
    carried = min(line_rate_bps * fec_rate * (1.0 - sync_overhead_fraction),
                  iface_cap_bps)
    efficiency = frame_payload_bytes / (frame_payload_bytes + ETHERNET_OVERHEAD_BYTES)
    return carried * efficiency


def goodput_for(spec: LinkSpec) -> float:
    return goodput_bps(
        spec.modulation.bit_rate_bps,
        spec.codec.code_rate(),
        spec.sync_overhead_fraction,
        spec.iface_cap_bps,
        spec.frame_payload_bytes,
    )


def initial_agc_state(spec: LinkSpec) -> AgcState:
    g_min, g_max = spec.receiver.pmt_gain_range
    return AgcState(
        lc_voltage=spec.receiver.lc_voltage_range[0],
        pmt_gain=math.sqrt(g_min * g_max),
        window_low_v=spec.agc_window_v[0],
        window_high_v=spec.agc_window_v[1],
    )


def margin_to_snr(margin_db: float, snr_offset_db: float) -> float:
    """Amplitude SNR from link margin through the calibrated offset."""
    return 10.0 ** ((margin_db + snr_offset_db) / 20.0)


@dataclass
class _AnalogLog:
    """What the slot channel recorded per simulated second; empty for flips."""

    margins: list[float] = field(default_factory=list)
    saturated_seconds: int = 0
    dark_seconds: int = 0


def _slot_chain(kind: str, sigma: float, rng: np.random.Generator,
                frame: np.ndarray) -> np.ndarray:
    """One frame through modulation, additive slot noise and demodulation."""
    noisy = modem.add_noise(modem.modulate(kind, frame), sigma, rng)
    return modem.demodulate(kind, noisy)


def _slot_channel(spec: LinkSpec, rng: np.random.Generator,
                  log: _AnalogLog) -> Iterator[Callable]:
    """Per simulated second: one fading draw and AGC update, then the slot
    chain at the noise level the resulting margin sets."""
    static = total_loss_db(spec.geometry, spec.water, spec.nlos)
    agc = initial_agc_state(spec)
    while True:
        fading = sample_fading_db(spec.fading, rng)
        total = static.total_db + fading
        margin = spec.budget_db - total
        log.margins.append(margin)
        if static.link_dark:
            log.dark_seconds += 1
            snr = 0.0
        else:
            snr = margin_to_snr(margin, spec.snr_offset_db)
            p_rx = spec.tx_power_w * 10.0 ** (-total / 10.0)
            measured = spec.receiver.amplitude_v(p_rx, agc.lc_voltage, agc.pmt_gain)
            if measured > 0:
                agc = agc_step(spec.receiver, agc, measured)
                log.saturated_seconds += int(agc.saturated)
        sigma = 1.0 / max(snr, 1e-9)
        yield partial(_slot_chain, spec.modulation.kind, sigma, rng)


def _flip_channel(ber: float, rng: np.random.Generator,
                  log: _AnalogLog) -> Iterator[Callable]:
    """Every second, flip each line bit i.i.d. with probability ``ber``; the
    analog chain is bypassed."""
    def flip(frame: np.ndarray) -> np.ndarray:
        if ber == 0:
            return frame
        return frame ^ (rng.random(len(frame)) < ber).astype(np.uint8)

    return itertools.repeat(flip)


def _simulate(spec: LinkSpec, seed: int, n_frames: int, channel) -> SimReport:
    """The frame loop: random payload -> encode -> corrupt -> decode -> tally.

    ``channel(rng, log)`` yields, at the start of each simulated second of
    ``sim_frames_per_second`` frames, the function that corrupts that
    second's frames. A last partial second is tallied as its own entry.
    """
    rng = np.random.default_rng(seed)
    codec = spec.codec
    fps = spec.sim_frames_per_second
    log = _AnalogLog()
    seconds = channel(rng, log)
    beps = []
    loss_series = []
    post_err_total = 0
    failures = 0
    for start in range(0, n_frames, fps):
        corrupt = next(seconds)
        second_errors = 0
        second_losses = 0
        for _ in range(min(fps, n_frames - start)):
            payload = rng.integers(0, 2, codec.frame_payload_bits).astype(np.uint8)
            frame = codec.encode(payload)
            received = corrupt(frame)
            outcome = codec.decode(received)
            post_err = int(np.count_nonzero(outcome.message_bits != payload))
            second_errors += int(np.count_nonzero(received != frame))
            post_err_total += post_err
            failures += int(not outcome.ok)
            second_losses += int((not outcome.ok) or post_err > 0)
        beps.append(second_errors)
        loss_series.append(second_losses)

    pre_err_total = sum(beps)
    bits_sim = n_frames * codec.frame_bits
    payload_bits_sim = n_frames * codec.frame_payload_bits
    return SimReport(
        name=spec.name,
        seed=seed,
        config_hash=spec.fingerprint(),
        duration_s=len(beps),
        frames_sent=n_frames,
        bits_simulated=bits_sim,
        payload_bits_simulated=payload_bits_sim,
        pre_fec_bit_errors=pre_err_total,
        pre_fec_ber=pre_err_total / bits_sim,
        post_fec_bit_errors=post_err_total,
        post_fec_ber=post_err_total / payload_bits_sim,
        packet_loss_count=sum(loss_series),
        decode_failures=failures,
        goodput_bps=goodput_for(spec),
        agc_saturated_seconds=log.saturated_seconds,
        link_dark_seconds=log.dark_seconds,
        beps_series=tuple(beps),
        loss_series=tuple(loss_series),
        margin_trace_db=tuple(log.margins),
    )


def run_scenario(spec: LinkSpec, duration_s: int, seed: int) -> SimReport:
    """Simulate ``duration_s`` seconds of the link; deterministic per seed."""
    if duration_s <= 0:
        raise ValueError("duration_s must be > 0")
    return _simulate(spec, seed, duration_s * spec.sim_frames_per_second,
                     partial(_slot_channel, spec))


def inject_errors_run(spec: LinkSpec, pre_fec_ber_target: float, n_bits: int,
                      seed: int = 0) -> SimReport:
    """Flip line bits i.i.d. at the target rate, bypassing the analog chain."""
    if not 0.0 <= pre_fec_ber_target < 0.5:
        raise ValueError("pre_fec_ber_target must be in [0, 0.5)")
    if n_bits <= 0:
        raise ValueError("n_bits must be > 0")
    n_frames = -(-n_bits // spec.codec.frame_bits)
    return _simulate(spec, seed, n_frames,
                     partial(_flip_channel, pre_fec_ber_target))


def epoch_seed(master_seed: int, epoch_index: int) -> int:
    """Derived per-epoch seed, independent of evaluation order."""
    ss = np.random.SeedSequence(master_seed, spawn_key=(epoch_index,))
    return int(ss.generate_state(1, np.uint64)[0])


def long_term_monitor(spec: LinkSpec, epochs: int, epoch_duration_s: int,
                      seed: int) -> list[SimReport]:
    """Independent seeded epochs standing in for day-by-day monitoring."""
    if epochs < 1:
        raise ValueError("epochs must be >= 1")
    return [
        run_scenario(spec, epoch_duration_s, epoch_seed(seed, i))
        for i in range(epochs)
    ]
