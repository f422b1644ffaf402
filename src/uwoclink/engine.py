"""End-to-end link simulation and the deterministic goodput calculator.

Every run is one frame loop: source -> codec -> tally. Each simulated
second, the channel hands the loop an error source; each frame is encoded,
the source returns the ascending positions of the line bits it flipped, and
the loop counts them as pre-FEC errors. A simulated second holds
``LinkSpec.sim_frames_per_second`` = 6 frames, 0.08 % of green's ~7,660
frames/s and 1.6 % of blue's ~383; no config key sets it, and a file that
still does exits 2. A second's payloads come from one draw. Only the frames
with a flip reach the FEC decoder, each as its error pattern alone, ones at
the flipped positions: both BCH codes are linear and each decoder reads
only syndromes, so a pattern fails and is corrected as the received frame
would be, and the set bits of its decoded payload are the frame's post-FEC
errors. The patterns wait, packed together and across seconds, until a
second's worth can go to one decode call, and one more call at the end of
the run takes the rest. A frame with no flip is a codeword, and a
bounded-distance decoder returns a codeword's own payload with no
correction and no failure, so decoding it would change no count.

A scenario run's source draws one fading sample per second, steps the AGC
at that second's received power in dBW, and hands each frame to the slot
chain, ``modem.flipped_bits``: modulation -> additive noise ->
demodulation. Slot noise comes from the link margin through a single
calibrated offset (margin_db + snr_offset_db -> amplitude SNR), the one
free constant the field system never published. An injection run's source
flips line bits i.i.d. at a fixed rate, in one draw per second.

Everything runs on the caller's thread. Each scenario run draws its slot
noise, when a frame needs it, from a stream spawned from the run's seed;
``modem.add_noise`` and the flip channel draw only the errors a decision can
see, so a report stays a pure function of (configuration, seed).
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Callable, Iterator
from dataclasses import asdict, dataclass, field
from functools import partial
from typing import ClassVar

import numpy as np

from . import modem
from .agc import AgcState, agc_step
from .channel import (
    FadingSpec,
    LinkGeometry,
    NlosPath,
    sample_fading_db,
    total_loss_db,
)
from .fec import ConcatCodecSpec, codec_for
from .modem import ModulationScheme

# The one 100 Mb/s Ethernet port each link feeds; a frame on the wire is a 1500-byte
# payload and 14 header + 4 FCS + 8 preamble + 12 interframe gap bytes
ETHERNET_CAP_BPS = 100e6
ETHERNET_PAYLOAD_BYTES = 1500
ETHERNET_OVERHEAD_BYTES = 38
SYNC_OVERHEAD_FRACTION = 0.037


@dataclass(frozen=True)
class LinkSpec:
    """Everything needed to simulate or budget one directed optical link.

    Each number that feeds a dB sum, an exponent or a logarithm has a
    closed physical interval, checked once here and in ``LinkGeometry``,
    ``NlosPath`` and ``FadingSpec``; the paper's link is 30 m long and its
    longest range 337.5 m. Inside them nothing in the model overflows or
    becomes NaN:
    - the static loss is under 1.1e5 dB: attenuation is at most 10 dB/m
      over 1e4 m; the spot is under 3.5e4 m wide (a half angle of at most
      60 degrees has tan under 1.74), so spread costs under
      20 log10(3.5e4 / 1e-4) = 171 dB; reflectance costs at most
      3,240 dB, -10 log10 of the least subnormal;
    - a fading draw lies within 2,800 dB of 0: sigma is at most 30 dB, a
      numpy normal's |z| is far below 90, a burst is at most 100 dB;
    - so the amplitude SNR is at most 10^((300 + 2,800 + 100) / 20) =
      1e160, and where it underflows to 0 instead the second is all noise;
      the AGC works on the received power in dBW, which stays finite.
    """

    name: str
    tx_power_w: float
    c_db_per_m: float  # diffuse attenuation of the water column, dB/m
    geometry: LinkGeometry
    modulation: ModulationScheme
    budget_db: float
    fading: FadingSpec = field(default_factory=FadingSpec)
    nlos: NlosPath | None = None
    snr_offset_db: float = 0.0
    # frames simulated per second of link time: 6 of green's ~7,660 frames/s
    # (0.08 %) and of blue's ~383 (1.6 %)
    sim_frames_per_second: ClassVar[int] = 6

    def __post_init__(self):
        # the config format reads a name back stripped, one line to a key
        if self.name != self.name.strip() or len(self.name.splitlines()) > 1:
            raise ValueError(f"name {self.name!r} has edge whitespace or a line break")
        if not 0.0 < self.tx_power_w <= 1e3:
            raise ValueError("tx_power_w must be in (0, 1000] W")
        if not 0.0 <= self.c_db_per_m <= 10.0:
            raise ValueError("c_db_per_m must be in [0, 10] dB/m")
        if not 0.0 < self.budget_db <= 300.0:
            raise ValueError("budget_db must be in (0, 300] dB")
        if not -100.0 <= self.snr_offset_db <= 100.0:
            raise ValueError("snr_offset_db must be in [-100, 100] dB")

    @property
    def codec(self) -> ConcatCodecSpec:
        return codec_for()

    def fingerprint(self) -> str:
        """Stable short hash of the canonical scenario text."""
        import hashlib  # here, not at the top: it costs milliseconds of import

        from .config import render_scenario  # here: config imports this module

        return hashlib.sha256(render_scenario(self).encode()).hexdigest()[:16]


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
    beps_series: tuple[int, ...]
    loss_series: tuple[int, ...]
    margin_trace_db: tuple[float, ...]

    def to_dict(self) -> dict:
        """Fields in declaration order; tuples become lists, as in JSON."""
        return {key: list(value) if isinstance(value, tuple) else value
                for key, value in asdict(self).items()}


def goodput_for(spec: LinkSpec) -> float:
    """Usable Ethernet payload rate: the coded line rate less
    ``SYNC_OVERHEAD_FRACTION``, capped at ``ETHERNET_CAP_BPS``, times the
    share ``ETHERNET_PAYLOAD_BYTES`` holds of each frame on the wire."""
    carried = min(spec.modulation.bit_rate_bps * spec.codec.code_rate()
                  * (1.0 - SYNC_OVERHEAD_FRACTION), ETHERNET_CAP_BPS)
    payload = ETHERNET_PAYLOAD_BYTES
    return carried * (payload / (payload + ETHERNET_OVERHEAD_BYTES))


def margin_to_snr(margin_db: float, snr_offset_db: float) -> float:
    """Amplitude SNR from link margin through the calibrated offset."""
    return 10.0 ** ((margin_db + snr_offset_db) / 20.0)


@dataclass
class _AnalogLog:
    """What the slot channel recorded per simulated second; empty for flips."""

    margins: list[float] = field(default_factory=list)
    saturated_seconds: int = 0


def _slot_channel(spec: LinkSpec, rng: np.random.Generator,
                  log: _AnalogLog) -> Iterator[Callable]:
    """Per simulated second: one fading draw, an AGC step at the received
    power in dBW, then the slot chain at the noise level the resulting
    margin sets.

    Slot noise comes from a child of ``rng``, so the fading draws do not
    depend on how many normals a frame needed.
    """
    kind = spec.modulation.kind
    static = total_loss_db(spec.geometry, spec.c_db_per_m, spec.nlos)
    tx_dbw = 10.0 * math.log10(spec.tx_power_w)
    agc = AgcState()
    noise = rng.spawn(1)[0]
    while True:
        fading = sample_fading_db(spec.fading, rng)
        total = static.total_db + fading
        margin = spec.budget_db - total
        log.margins.append(margin)
        snr = margin_to_snr(margin, spec.snr_offset_db)
        agc = agc_step(agc, tx_dbw - total)
        log.saturated_seconds += int(agc.saturated)
        sigma = 1.0 / max(snr, 1e-9)
        yield partial(modem.flipped_bits, kind, sigma, noise)


def _flip_channel(spec: LinkSpec, ber: float, rng: np.random.Generator,
                  log: _AnalogLog) -> Iterator[Callable]:
    """Every second, flip each line bit i.i.d. with probability ``ber``; the
    analog chain is bypassed. One draw per second covers the n line bits of
    ``sim_frames_per_second`` frames: a flip count of Bin(n, ber) and that
    many positions uniformly without replacement, the same law, sorted. The
    i-th frame of the second takes the flips in
    [i * frame_bits, (i + 1) * frame_bits); a last partial second draws for
    a whole one and uses the slices of the frames it has. At ``ber == 0``
    nothing is drawn and nothing flipped."""
    frame_bits = spec.codec.frame_bits
    n = spec.sim_frames_per_second * frame_bits
    starts = np.arange(frame_bits, n, frame_bits)
    while True:
        count = rng.binomial(n, ber) if ber else 0
        flips = np.sort(rng.choice(n, count, replace=False, shuffle=False))
        frames = iter(np.split(flips, np.searchsorted(flips, starts)))
        yield lambda frame, frames=frames: next(frames) % frame_bits


def _simulate(spec: LinkSpec, seed: int, n_frames: int, channel) -> SimReport:
    """The frame loop: random payload -> encode -> error source -> decode of
    the error pattern -> tally.

    ``channel(rng, log)`` is a generator that yields, at the start of each
    simulated second of ``sim_frames_per_second`` frames, that second's
    error source: a function of the sent frame that returns the ascending,
    distinct positions of the line bits it flipped. A last partial second is
    tallied as its own entry. A second's payload bits are unpacked from one
    draw of uniform random bytes; its frames are encoded and flipped one by
    one, and a frame's pre-FEC errors are its flip count. A frame with no
    flip is a codeword, which decodes to its own payload with no correction
    and no failure, so it is not decoded. A flipped frame's error pattern
    waits in the next zero row of ``patterns``, tagged with the second it
    was sent in. One ``codec.decode`` call takes every waiting row once
    ``sim_frames_per_second`` of them wait, and one more at the end of the
    run, made even when none wait; the rows it took are zeroed after it.
    The set bits of each decoded pattern are post-FEC errors (the module
    docstring says why), and a failed or wrong frame is lost, in the second
    it was sent in.
    """
    rng = np.random.default_rng(seed)
    codec = spec.codec
    payload_bytes = -(-codec.frame_payload_bits // 8)
    fps = spec.sim_frames_per_second
    # fewer than fps frames wait from earlier seconds, and a second adds fps
    patterns = np.zeros((2 * fps, codec.frame_bits), dtype=np.uint8)
    sent_in = []
    log = _AnalogLog()
    seconds = channel(rng, log)
    beps = []
    loss_series = [0] * -(-n_frames // fps)
    post_err_total = failures = 0

    def decode_waiting():
        nonlocal post_err_total, failures
        rows = len(sent_in)
        outcome = codec.decode(patterns[:rows])
        wrong = np.packbits(outcome.message_bits, axis=1)
        failures += int(np.count_nonzero(outcome.failed))
        post_err_total += int(np.bitwise_count(wrong).sum())
        for sent in itertools.compress(sent_in, outcome.failed | wrong.any(axis=1)):
            loss_series[sent] += 1
        patterns[:rows] = 0
        sent_in.clear()

    for second, start in enumerate(range(0, n_frames, fps)):
        errors = next(seconds)
        drawn = rng.integers(0, 256, (min(fps, n_frames - start), payload_bytes),
                             dtype=np.uint8)
        second_errors = 0
        for payload in np.unpackbits(drawn, axis=1, count=codec.frame_payload_bits):
            positions = errors(codec.encode(payload))
            if len(positions):
                patterns[len(sent_in), positions] = 1
                sent_in.append(second)
                second_errors += len(positions)
        beps.append(second_errors)
        if len(sent_in) >= fps:
            decode_waiting()
    decode_waiting()

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
                     partial(_flip_channel, spec, pre_fec_ber_target))


def long_term_monitor(spec: LinkSpec, epochs: int, epoch_duration_s: int,
                      seed: int) -> list[SimReport]:
    """Independent seeded epochs standing in for day-by-day monitoring; epoch
    i runs on the first 64-bit word of the i-th child of ``seed``'s seed
    sequence, whatever the evaluation order."""
    if epochs < 1:
        raise ValueError("epochs must be >= 1")
    return [
        run_scenario(spec, epoch_duration_s, int(child.generate_state(1, np.uint64)[0]))
        for child in np.random.SeedSequence(seed).spawn(epochs)
    ]
