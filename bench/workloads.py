"""The benchmark's workloads and the checks every simulated report must pass.

Each timed call is one public call into uwoclink that simulates SIM_SECONDS
seconds of link time (120 frames); short calls give many samples per run for
the median. The checks hold for any correct simulator, not only for this RNG
stream: frame and bit accounting, binomial bounds on injected errors and
losses, the C9 pre-FEC BER decade, and a codec round trip with at most t
errors per inner word.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass

import numpy as np
from scipy.stats import binom

# One-sided false-alarm probability of each statistical check.
ALPHA = 1e-9
# C9: green pre-FEC BER stays below this decade.
GREEN_BER_LIMIT = 1e-5
INJECT_BER = 1e-3
SIM_SECONDS = 20


@dataclass(frozen=True)
class Workload:
    name: str
    preset: str
    inject_ber: float | None  # None: run_scenario; a rate: inject_errors_run
    ber_limit: float | None  # bound on a run's pre-FEC BER, if the preset has one
    why: str

    def call(self, u, spec, seed: int, sim_seconds: int = SIM_SECONDS):
        """One public call into the package; returns its SimReport."""
        if self.inject_ber is None:
            return u.run_scenario(spec, sim_seconds, seed)
        n_bits = sim_seconds * spec.sim_frames_per_second * spec.codec.frame_bits
        return u.inject_errors_run(spec, self.inject_ber, n_bits, seed)


WORKLOADS = {w.name: w for w in (
    Workload("green-ook", "green-125M", None, GREEN_BER_LIMIT,
             "OOK chain on clean frames: encode and clean-word syndromes dominate; "
             "a solve-step (BM/Chien) change should not move it"),
    Workload("blue-nlos-ppm", "blue-6M25-nlos", None, None,
             "4-PPM slot chain with burst fades: dirty and failed frames, AGC and "
             "fading at work; the workload for modem, agc and channel"),
    Workload("inject-dirty", "green-125M", INJECT_BER, None,
             "i.i.d. flips at BER 1e-3 straight into the codec: most inner words "
             "need BM and Chien; modem, agc and channel are bypassed"),
)}


def sub_seed(seed: int, index: int) -> int:
    """Seed of the ``index``-th call of a run started with ``seed``."""
    return seed * 100_000 + index


def digest(report) -> str:
    """Short hash of the deterministic report."""
    text = json.dumps(report.to_dict(), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def simulated_stats(report) -> dict:
    return {
        "frames": report.frames_sent,
        "pre_fec_bit_errors": report.pre_fec_bit_errors,
        "decode_failures": report.decode_failures,
        "packet_losses": report.packet_loss_count,
        "digest": digest(report),
    }


def check_report(workload: Workload, spec, report, seed: int,
                 secs: int = SIM_SECONDS) -> list[str]:
    """Problems with one report; an empty list means it passed."""
    codec = spec.codec
    fps = spec.sim_frames_per_second
    frames = secs * fps
    r = report
    problems = []

    def need(ok: bool, what: str):
        if not ok:
            problems.append(what)

    need((r.name, r.seed, r.config_hash) == (spec.name, seed, spec.fingerprint()),
         "report identity (name, seed, config hash)")
    need(r.frames_sent == frames, f"frames_sent {r.frames_sent} != {frames}")
    need(r.bits_simulated == frames * codec.frame_bits, "bits_simulated")
    need(r.payload_bits_simulated == frames * codec.frame_payload_bits,
         "payload_bits_simulated")
    need(0 <= r.pre_fec_bit_errors <= r.bits_simulated, "pre_fec_bit_errors range")
    need(0 <= r.post_fec_bit_errors <= r.payload_bits_simulated,
         "post_fec_bit_errors range")
    need(math.isclose(r.pre_fec_ber, r.pre_fec_bit_errors / r.bits_simulated),
         "pre_fec_ber != errors / bits")
    need(math.isclose(r.post_fec_ber,
                      r.post_fec_bit_errors / r.payload_bits_simulated),
         "post_fec_ber != errors / payload bits")
    need(0 <= r.decode_failures <= r.packet_loss_count <= r.frames_sent,
         "decode_failures <= packet losses <= frames")
    need(r.duration_s == secs == len(r.beps_series) == len(r.loss_series),
         "per-second series length")
    need(sum(r.beps_series) == r.pre_fec_bit_errors, "beps_series sum")
    need(sum(r.loss_series) == r.packet_loss_count, "loss_series sum")
    need(all(0 <= n <= fps for n in r.loss_series), "loss_series entry range")

    if workload.inject_ber is None:
        need(len(r.margin_trace_db) == secs, "margin_trace_db length")
        need(0 <= r.agc_saturated_seconds <= secs, "agc_saturated_seconds range")
    else:
        need(r.margin_trace_db == () and r.agc_saturated_seconds == 0,
             "injection run touched the analog chain")
        problems += _injection_bounds(workload.inject_ber, codec, r)
    return problems


def check_run_ber(workload: Workload, errors: int, bits: int) -> list[str]:
    """The pre-FEC BER of all of a run's calls together against the preset's
    long-term decade; one short call may legitimately exceed it."""
    if workload.ber_limit is None or errors < workload.ber_limit * bits:
        return []
    return [f"pre-FEC BER {errors / bits:.2e} over the run >= {workload.ber_limit:g}"]


def _injection_bounds(p: float, codec, r) -> list[str]:
    problems = []
    lo = binom.ppf(ALPHA, r.bits_simulated, p)
    hi = binom.isf(ALPHA, r.bits_simulated, p)
    if not lo <= r.pre_fec_bit_errors <= hi:
        problems.append(f"injected errors {r.pre_fec_bit_errors} outside "
                        f"binomial bounds [{lo:.0f}, {hi:.0f}]")
    # A frame is lost only if some inner word took more than t flips: with at
    # most t per word the inner decode is exact and the outer words are clean.
    inner = codec.inner
    q_word = binom.sf(inner.t, inner.n, p)
    q_frame = -math.expm1(codec.inner_words_per_frame * math.log1p(-q_word))
    max_losses = binom.isf(ALPHA, r.frames_sent, q_frame)
    if r.packet_loss_count > max_losses:
        problems.append(f"{r.packet_loss_count} packet losses above the "
                        f"inner-word binomial tail bound {max_losses:.0f}")
    return problems


def codec_probe(u, spec, rng, frames: int = 4) -> list[str]:
    """Encode the benchmark's payloads, add at most t errors to every inner
    word, and require the decoder to return each payload exactly."""
    codec = spec.codec
    inner = codec.inner
    problems = []
    for f in range(frames):
        payload = rng.integers(0, 2, codec.frame_payload_bits, dtype=np.uint8)
        frame = codec.encode(payload)
        counts = rng.integers(0, inner.t + 1, codec.inner_words_per_frame)
        counts[f % len(counts)] = inner.t
        raw = np.zeros(codec.frame_bits, dtype=np.uint8)
        for w, c in enumerate(counts):
            raw[w * inner.n + rng.choice(inner.n, size=c, replace=False)] = 1
        errors = u.fec.interleave(raw, codec.interleaver_depth)
        outcome = codec.decode(frame ^ errors)
        if not (outcome.ok and np.array_equal(outcome.message_bits, payload)
                and outcome.corrected_count == int(counts.sum())):
            problems.append(f"codec probe frame {f}: {int(counts.sum())} errors "
                            f"(<= t per inner word) not corrected")
    return problems
