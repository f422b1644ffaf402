"""Command-line front end: plan, simulate, monitor, fec, calibrate.

Every emitted report embeds the seed and a hash of the fully-resolved
configuration so any run can be reproduced exactly. Validation problems
print a single ``error: ...`` line on stderr and exit 2; a clean run exits
0. ``fec decode`` exits 1 when blocks failed to decode but the program
itself ran fine.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import sys

import numpy as np

from .agc import CalibrationError, ReceiverChain, fit_calibration
from .config import ConfigError, load_preset, parse_number, parse_scenario, preset_names
from .engine import LinkSpec, SimReport, inject_errors_run, long_term_monitor, run_scenario
from .fec import STATUS_OK, codec_for
from .planner import (
    WITH_GEOMETRY,
    WITHOUT_GEOMETRY,
    SolverError,
    distance_curve,
    max_distance_m,
)


def _load_spec(args) -> LinkSpec:
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            return parse_scenario(fh.read(), preset=args.preset)
    if args.preset:
        return load_preset(args.preset)
    raise ConfigError("provide --preset and/or --config")


def _emit(text: str, out_path: str | None):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def render_report(report: SimReport, output_format: str = "json") -> str:
    """Deterministic serialization of a SimReport."""
    if output_format == "json":
        return json.dumps(report.to_dict(), indent=2)
    if output_format == "csv":
        return beps_csv(report)
    raise ConfigError(f"unknown format {output_format!r}")


def beps_csv(report: SimReport) -> str:
    buf = io.StringIO()
    buf.write(f"# name={report.name} seed={report.seed} "
              f"config_hash={report.config_hash}\n")
    buf.write("second,errors,margin_db,packet_losses\n")
    margins = report.margin_trace_db
    for second, errors in enumerate(report.beps_series):
        margin = str(margins[second]) if second < len(margins) else ""
        buf.write(f"{second},{errors},{margin},{report.loss_series[second]}\n")
    return buf.getvalue()


def curve_csv(spec: LinkSpec, rows, seed: int) -> str:
    buf = io.StringIO()
    buf.write(f"# name={spec.name} seed={seed} config_hash={spec.fingerprint()}\n")
    buf.write("z_m,loss_db_with_geometry,loss_db_without,budget_db\n")
    for row in rows:
        cells = [row["z_m"], row["loss_db_with_geometry"],
                 row["loss_db_without"], row["budget_db"]]
        buf.write(",".join(str(c) for c in cells) + "\n")
    return buf.getvalue()


# --- subcommands --------------------------------------------------------


def _cmd_plan(args) -> int:
    spec = _load_spec(args)
    without = max_distance_m(spec.budget_db, spec.water, mode=WITHOUT_GEOMETRY)
    with_geo = max_distance_m(spec.budget_db, spec.water, spec.geometry,
                              WITH_GEOMETRY)
    z_max = args.z_max if args.z_max else without.max_distance_m * 1.05
    rows = distance_curve(spec, args.z_min, z_max, args.points)

    if args.format == "csv":
        _emit(curve_csv(spec, rows, args.seed), args.out)
        return 0
    payload = {
        "name": spec.name,
        "seed": args.seed,
        "config_hash": spec.fingerprint(),
        "budget_db": spec.budget_db,
        "solutions": {
            WITHOUT_GEOMETRY: without.to_dict(),
            WITH_GEOMETRY: with_geo.to_dict(),
        },
    }
    _emit(json.dumps(payload, indent=2), args.out)
    if args.curve_out:
        with open(args.curve_out, "w", encoding="utf-8") as fh:
            fh.write(curve_csv(spec, rows, args.seed))
    return 0


def _cmd_simulate(args) -> int:
    spec = _load_spec(args)
    if args.inject_ber is not None:
        report = inject_errors_run(spec, args.inject_ber, args.n_bits, args.seed)
    else:
        report = run_scenario(spec, args.duration_s, args.seed)
    _emit(render_report(report, args.format), args.out)
    return 0


def _cmd_monitor(args) -> int:
    spec = _load_spec(args)
    reports = long_term_monitor(spec, args.epochs, args.duration_s, args.seed)
    payload = {
        "name": spec.name,
        "seed": args.seed,
        "config_hash": spec.fingerprint(),
        "epochs": args.epochs,
        "epoch_duration_s": args.duration_s,
        "max_pre_fec_ber": max(r.pre_fec_ber for r in reports),
        "max_post_fec_ber": max(r.post_fec_ber for r in reports),
        "total_packet_losses": sum(r.packet_loss_count for r in reports),
        "reports": [r.to_dict() for r in reports],
    }
    _emit(json.dumps(payload, indent=2), args.out)
    return 0


def _bits_to_hex(bits: np.ndarray) -> str:
    """MSB-first hex; trailing pad bits (to a nibble) are zero."""
    pad = (-len(bits)) % 4
    padded = np.concatenate([bits, np.zeros(pad, dtype=np.uint8)])
    nibbles = padded.reshape(-1, 4)
    weights = np.array([8, 4, 2, 1], dtype=np.uint8)
    values = nibbles @ weights
    return "".join(f"{v:x}" for v in values)


# ASCII only: int(c, 16) also reads other scripts' digits, such as '٣' or '１'.
_HEX_DIGITS = frozenset("0123456789abcdefABCDEF")


def _hex_to_bits(text: str, n_bits: int) -> np.ndarray:
    expected = -(-n_bits // 4)
    if len(text) != expected:
        raise ConfigError(
            f"expected {expected} hex digits for {n_bits} bits, got {len(text)}"
        )
    if not set(text) <= _HEX_DIGITS:
        raise ConfigError(f"invalid hex block {text!r}")
    values = [int(c, 16) for c in text]
    bits = np.zeros(expected * 4, dtype=np.uint8)
    for i, v in enumerate(values):
        bits[4 * i:4 * i + 4] = [(v >> 3) & 1, (v >> 2) & 1, (v >> 1) & 1, v & 1]
    if bits[n_bits:].any():
        raise ConfigError("nonzero pad bits past the block length")
    return bits[:n_bits]


def _cmd_fec(args) -> int:
    codec = codec_for()
    if args.code == "inner":
        n_in, n_out = codec.inner.k, codec.inner.n
        encode, decode = codec.inner.encode, codec.inner.decode
    elif args.code == "outer":
        n_in, n_out = codec.outer.k, codec.outer.n
        encode, decode = codec.outer.encode, codec.outer.decode
    else:
        n_in, n_out = codec.frame_payload_bits, codec.frame_bits
        encode, decode = codec.encode, codec.decode

    failures = 0
    for lineno, raw in enumerate(sys.stdin, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if args.action == "encode":
            bits = _hex_to_bits(line, n_in)
            print(_bits_to_hex(encode(bits)))
        else:
            bits = _hex_to_bits(line, n_out)
            outcome = decode(bits)
            print(_bits_to_hex(outcome.message_bits))
            status = outcome.status
            print(f"line {lineno}: status={status} "
                  f"corrected={outcome.corrected_count}", file=sys.stderr)
            failures += int(status != STATUS_OK)
    return 1 if failures else 0


def _cmd_calibrate(args) -> int:
    rows = []
    with open(args.samples, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.replace(",", " ").split()
            if len(parts) != 4:
                raise ConfigError(
                    f"{args.samples}:{lineno}: expected 4 fields "
                    f"(P_watts lc_volts gain measured_volts), got {len(parts)}"
                )
            try:
                rows.append(tuple(parse_number(p) for p in parts))
            except ValueError:
                raise ConfigError(
                    f"{args.samples}:{lineno}: non-numeric field in {line!r}"
                ) from None
    if args.preset or args.config:
        chain = _load_spec(args).receiver
    else:
        chain = ReceiverChain()
    cal = fit_calibration(rows, chain)
    with open(args.samples, "rb") as fh:
        samples_hash = hashlib.sha256(fh.read()).hexdigest()[:16]
    payload = {
        "samples_path": args.samples,
        "samples_hash": samples_hash,
        "n_samples": cal.n_samples,
        "responsivity_db": cal.responsivity_db,
        "responsivity_v_per_w": 10.0 ** (cal.responsivity_db / 10.0),
        "att_scale_db": cal.att_scale_db,
        "residual_rms_db": cal.residual_rms_db,
        "residual_max_db": cal.residual_max_db,
    }
    _emit(json.dumps(payload, indent=2), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uwoclink",
        description="Underwater optical link simulator, codec, and planner",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    presets = preset_names()

    def add_common(p, needs_seed=True):
        p.add_argument("--config", help="scenario file path")
        p.add_argument("--preset", choices=presets,
                       help="named base configuration")
        p.add_argument("--out", help="write output to this path")
        if needs_seed:
            p.add_argument("--seed", type=int, default=0)

    p_plan = sub.add_parser("plan", help="range solutions and loss curve")
    add_common(p_plan)
    p_plan.add_argument("--format", choices=["json", "csv"], default="json")
    p_plan.add_argument("--z-min", type=float, default=1.0)
    p_plan.add_argument("--z-max", type=float, default=None)
    p_plan.add_argument("--points", type=int, default=200)
    p_plan.add_argument("--curve-out", help="also write the curve CSV here")
    p_plan.set_defaults(func=_cmd_plan)

    p_sim = sub.add_parser("simulate", help="seeded end-to-end scenario run")
    add_common(p_sim)
    p_sim.add_argument("--format", choices=["json", "csv"], default="json")
    p_sim.add_argument("--duration-s", type=int, default=60)
    p_sim.add_argument("--inject-ber", type=float, default=None,
                       help="bypass the analog chain, flip bits i.i.d.")
    p_sim.add_argument("--n-bits", type=int, default=10_000_000,
                       help="line bits for --inject-ber runs")
    p_sim.set_defaults(func=_cmd_simulate)

    p_mon = sub.add_parser("monitor", help="independent seeded epochs")
    add_common(p_mon)
    p_mon.add_argument("--epochs", type=int, default=30)
    p_mon.add_argument("--duration-s", type=int, default=60)
    p_mon.set_defaults(func=_cmd_monitor)

    p_fec = sub.add_parser("fec", help="hex block encode/decode on stdio")
    p_fec.add_argument("action", choices=["encode", "decode"])
    p_fec.add_argument("--code", choices=["inner", "outer", "concat"],
                       default="concat")
    p_fec.set_defaults(func=_cmd_fec)

    p_cal = sub.add_parser("calibrate", help="fit the receiver chain model")
    add_common(p_cal, needs_seed=False)
    p_cal.add_argument("--samples", required=True,
                       help="file of P_watts lc_volts gain measured_volts rows")
    p_cal.set_defaults(func=_cmd_calibrate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, CalibrationError, SolverError, ValueError, KeyError,
            OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
