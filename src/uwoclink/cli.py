"""Command-line front end: plan, simulate, monitor, fec.

Every emitted report embeds the seed and a hash of the canonical scenario
text, so any run can be reproduced exactly. Validation problems, a
configuration too large for memory and JSON output past float range print
a single ``error: ...`` line on stderr and exit 2; a clean run exits 0.
``fec decode`` exits 1 when blocks failed to decode but the program ran.
"""

from __future__ import annotations

import argparse
import codecs
import io
import json
import sys

import numpy as np

from .channel import MAX_DISTANCE_M
from .config import ConfigError, load_preset, parse_scenario, preset_names
from .engine import LinkSpec, SimReport, inject_errors_run, long_term_monitor, run_scenario
from .fec import codec_for
from .planner import (
    WITH_GEOMETRY,
    WITHOUT_GEOMETRY,
    SolverError,
    check_curve_span,
    distance_curve,
    max_distance_m,
)


def _read_text(path: str) -> str:
    """The file's text, decoded as ``utf-8-sig`` does."""
    with open(path, "rb") as fh:
        body = fh.read().removeprefix(codecs.BOM_UTF8)  # error offsets index body
    try:
        return body.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = body.count(b"\n", 0, exc.start) + 1
        raise ConfigError(
            f"{path}:{line}: not UTF-8 text (byte 0x{body[exc.start]:02x})") from None


def _load_spec(args) -> LinkSpec:
    if args.config:
        return parse_scenario(_read_text(args.config), preset=args.preset)
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
        return json.dumps(report.to_dict(), indent=2, allow_nan=False)
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
    without = max_distance_m(spec.budget_db, spec.c_db_per_m)
    with_geo = max_distance_m(spec.budget_db, spec.c_db_per_m, spec.geometry)
    z_max = (args.z_max if args.z_max is not None
             else min(without.max_distance_m * 1.05, MAX_DISTANCE_M))
    if args.format == "csv":
        rows = distance_curve(spec, args.z_min, z_max, args.points)
        _emit(curve_csv(spec, rows, args.seed), args.out)
        return 0
    # the JSON report holds no curve, but its span is checked all the same
    check_curve_span(args.z_min, z_max, args.points)
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
    _emit(json.dumps(payload, indent=2, allow_nan=False), args.out)
    return 0


def _cmd_simulate(args) -> int:
    if args.inject_ber is None:
        if args.n_bits is not None:
            raise ConfigError("--n-bits applies only with --inject-ber")
        duration_s = 60 if args.duration_s is None else args.duration_s
        report = run_scenario(_load_spec(args), duration_s, args.seed)
    else:
        if args.duration_s is not None:
            raise ConfigError("--duration-s does not apply with --inject-ber")
        n_bits = 10_000_000 if args.n_bits is None else args.n_bits
        report = inject_errors_run(_load_spec(args), args.inject_ber, n_bits, args.seed)
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
    _emit(json.dumps(payload, indent=2, allow_nan=False), args.out)
    return 0


def _bits_to_hex(bits: np.ndarray) -> str:
    """MSB-first hex; trailing pad bits (to a nibble) are zero."""
    return np.packbits(bits).tobytes().hex()[: -(-len(bits) // 4)]


# ASCII digits only, checked first: bytes.fromhex skips spaces
_HEX_DIGITS = frozenset("0123456789abcdefABCDEF")


def _hex_to_bits(text: str, n_bits: int) -> np.ndarray:
    expected = -(-n_bits // 4)
    if len(text) != expected:
        raise ConfigError(
            f"expected {expected} hex digits for {n_bits} bits, got {len(text)}"
        )
    if not set(text) <= _HEX_DIGITS:
        raise ConfigError(f"invalid hex block {text!r}")
    packed = bytes.fromhex(text + "0" * (len(text) % 2))
    bits = np.unpackbits(np.frombuffer(packed, dtype=np.uint8))
    if bits[n_bits:].any():
        raise ConfigError("nonzero pad bits past the block length")
    return bits[:n_bits]


def _cmd_fec(args) -> int:
    codec = codec_for()
    if args.code == "concat":
        code, n_in, n_out = codec, codec.frame_payload_bits, codec.frame_bits
    else:
        code = getattr(codec, args.code)
        n_in, n_out = code.k, code.n
    n_bits = n_in if args.action == "encode" else n_out
    failures = 0
    for lineno, raw in enumerate(sys.stdin.buffer, start=1):
        try:  # decoded here, so that an undecodable line names its number too
            line = raw.decode("utf-8").strip()
            if not line or line.startswith("#"):
                continue
            bits = _hex_to_bits(line, n_bits)
        except (UnicodeDecodeError, ConfigError) as exc:
            raise ConfigError(f"line {lineno}: {exc}") from None
        if args.action == "encode":
            print(_bits_to_hex(code.encode(bits)))
        else:
            outcome = code.decode(bits)
            print(_bits_to_hex(outcome.message_bits))
            status = "ok" if outcome.ok else "decode_failure"
            print(f"line {lineno}: status={status} "
                  f"corrected={outcome.corrected_count}", file=sys.stderr)
            failures += not outcome.ok
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uwoclink",
        description="Underwater optical link simulator, codec, and planner",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    presets = preset_names()

    def add_common(p):
        p.add_argument("--config", help="scenario file path")
        p.add_argument("--preset", choices=presets,
                       help="named base configuration")
        p.add_argument("--out", help="write output to this path")
        p.add_argument("--seed", type=int, default=0)

    p_plan = sub.add_parser("plan", help="range solutions and loss curve")
    add_common(p_plan)
    p_plan.add_argument("--format", choices=["json", "csv"], default="json")
    p_plan.add_argument("--z-min", type=float, default=0.0)
    p_plan.add_argument("--z-max", type=float, default=None)
    p_plan.add_argument("--points", type=int, default=200)
    p_plan.set_defaults(func=_cmd_plan)

    p_sim = sub.add_parser("simulate", help="seeded end-to-end scenario run")
    add_common(p_sim)
    p_sim.add_argument("--format", choices=["json", "csv"], default="json")
    p_sim.add_argument("--duration-s", type=int,
                       help="simulated seconds (default 60)")
    p_sim.add_argument("--inject-ber", type=float, default=None,
                       help="bypass the analog chain, flip bits i.i.d.")
    p_sim.add_argument("--n-bits", type=int,
                       help="line bits for --inject-ber runs (default 10,000,000)")
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

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "seed", 0) < 0:  # numpy seeds are non-negative
        parser.error(f"argument --seed: must be >= 0, got {args.seed}")
    try:
        return args.func(args)
    except (ConfigError, SolverError, ValueError, KeyError,
            OSError, MemoryError) as exc:
        # a bare MemoryError has no message; numpy's names the allocation
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
