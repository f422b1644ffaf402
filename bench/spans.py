"""Spans and counts recorded around uwoclink's layer entry points.

The tracer replaces each entry point with a wrapper for the duration of a
``with tracer.installed(u):`` block and restores the original afterwards, so
nothing under ``src/`` knows it is being traced. Spans stay in memory as
``(name, start, end, parent)`` tuples; ``parent`` is the index of the
enclosing span, or -1 for a root.
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager

INNER_N = 2040  # the inner BCH code's length; the outer code has n = 3860

# Every per-layer metric with its unit, in report order.
PER_LAYER_UNITS = {
    "bch.syndromes_s": "s",
    "bch.syndromes_calls": "count",
    "bch.solve_s": "s",
    "bch.decode_calls": "count",
    "bch.dirty_word_ratio": "ratio",
    "bch.word_fail_ratio": "ratio",
    "bch.encode_s": "s",
    "concat.encode_s": "s",
    "concat.encode_calls": "count",
    "concat.decode_self_s": "s",
    "concat.decode_calls": "count",
    "concat.frame_fail_ratio": "ratio",
    "modem.modulate_s": "s",
    "modem.noise_s": "s",
    "modem.demodulate_s": "s",
    "modem.slots": "count",
    "agc.step_s": "s",
    "agc.step_calls": "count",
    "agc.saturated_ratio": "ratio",
    "channel.fading_s": "s",
    "channel.fading_calls": "count",
    "engine.self_s": "s",
    "trace.overhead_ratio": "ratio",
}


def _bch_name(op: str):
    inner, outer = f"bch.{op}.inner", f"bch.{op}.outer"
    return lambda args: inner if args[0].n == INNER_N else outer


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []
        self.counts: Counter[str] = Counter()
        self._open: list[int] = []

    def wrap(self, fn, name, on_result=None):
        """``fn`` recording one span per call; ``name`` is a string or a
        function of the call's positional arguments."""
        spans, open_spans, clock = self.spans, self._open, time.perf_counter

        def traced(*args, **kwargs):
            label = name(args) if callable(name) else name
            index = len(spans)
            spans.append((label, 0.0, 0.0, -1))
            parent = open_spans[-1] if open_spans else -1
            open_spans.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                open_spans.pop()
                spans[index] = (label, start, end, parent)
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def _count_if(self, key: str, predicate):
        counts = self.counts

        def on_result(result):
            if predicate(result):
                counts[key] += 1

        return on_result

    def _count_slots(self, stream):
        self.counts["modem.slots"] += stream.amplitudes.size

    @contextmanager
    def installed(self, u):
        """Wrap the layer entry points of the imported package ``u``."""
        engine, modem = u.engine, u.modem
        patches = [
            (u.ConcatCodecSpec, "encode", "concat.encode", None),
            (u.ConcatCodecSpec, "decode", "concat.decode",
             self._count_if("concat.failed_frames", lambda o: not o.ok)),
            (u.BchCodeSpec, "encode", _bch_name("encode"), None),
            (u.BchCodeSpec, "syndromes", _bch_name("syndromes"),
             self._count_if("bch.dirty_words", lambda s: s.any())),
            (u.BchCodeSpec, "decode", _bch_name("decode"),
             self._count_if("bch.failed_words", lambda o: not o.ok)),
            (modem, "modulate", "modem.modulate", self._count_slots),
            (modem, "add_noise", "modem.add_noise", None),
            (modem, "demodulate", "modem.demodulate", None),
            (engine, "agc_step", "agc.step",
             self._count_if("agc.saturated", lambda state: state.saturated)),
            (engine, "sample_fading_db", "channel.fading", None),
        ]
        saved = []
        try:
            for owner, attr, name, on_result in patches:
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(original, name, on_result))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


def layer_table(spans) -> dict[str, tuple[int, float, float]]:
    """Per span name: (calls, total seconds, self seconds). Self time is a
    span's duration minus the durations of its direct children."""
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    table: dict[str, tuple[int, float, float]] = {}
    for (name, start, end, _), covered in zip(spans, child):
        calls, total, own = table.get(name, (0, 0.0, 0.0))
        table[name] = (calls + 1, total + end - start, own + end - start - covered)
    return table


def per_layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer metrics of one traced pass, all but trace.overhead_ratio,
    which compares passes."""
    table = layer_table(tracer.spans)
    counts = tracer.counts

    def layer(prefix: str) -> tuple[int, float, float]:
        rows = [row for name, row in table.items()
                if name == prefix or name.startswith(prefix + ".")]
        return (sum(r[0] for r in rows), sum(r[1] for r in rows),
                sum(r[2] for r in rows))

    def ratio(part: int, whole: int) -> float:
        return part / whole if whole else 0.0

    synd_calls, synd_s, _ = layer("bch.syndromes")
    decode_calls, _, solve_s = layer("bch.decode")
    concat_enc_calls, concat_enc_s, _ = layer("concat.encode")
    concat_dec_calls, _, concat_dec_self = layer("concat.decode")
    agc_calls, agc_s, _ = layer("agc.step")
    fading_calls, fading_s, _ = layer("channel.fading")
    return {
        "bch.syndromes_s": synd_s,
        "bch.syndromes_calls": synd_calls,
        "bch.solve_s": solve_s,
        "bch.decode_calls": decode_calls,
        "bch.dirty_word_ratio": ratio(counts["bch.dirty_words"], decode_calls),
        "bch.word_fail_ratio": ratio(counts["bch.failed_words"], decode_calls),
        "bch.encode_s": layer("bch.encode")[1],
        "concat.encode_s": concat_enc_s,
        "concat.encode_calls": concat_enc_calls,
        "concat.decode_self_s": concat_dec_self,
        "concat.decode_calls": concat_dec_calls,
        "concat.frame_fail_ratio": ratio(counts["concat.failed_frames"],
                                         concat_dec_calls),
        "modem.modulate_s": layer("modem.modulate")[1],
        "modem.noise_s": layer("modem.add_noise")[1],
        "modem.demodulate_s": layer("modem.demodulate")[1],
        "modem.slots": counts["modem.slots"],
        "agc.step_s": agc_s,
        "agc.step_calls": agc_calls,
        "agc.saturated_ratio": ratio(counts["agc.saturated"], agc_calls),
        "channel.fading_s": fading_s,
        "channel.fading_calls": fading_calls,
        "engine.self_s": layer("engine")[2],
    }
