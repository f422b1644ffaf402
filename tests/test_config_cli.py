import argparse
import codecs
import contextlib
import hashlib
import io
import json
import math
import pathlib
import string
import tempfile
import types
from dataclasses import fields, is_dataclass, replace
from typing import get_args, get_type_hints

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import uwoclink
from uwoclink import cli
from uwoclink.channel import FadingSpec, LinkGeometry, NlosPath
from uwoclink.cli import _bits_to_hex, _hex_to_bits, build_parser, main, render_report
from uwoclink.config import (
    SCHEMA,
    ConfigError,
    load_preset,
    parse_mapping,
    parse_scenario,
    render_scenario,
)
from uwoclink.engine import LinkSpec, run_scenario
from uwoclink.modem import OOK, PPM4, ModulationScheme

PRESET_DIR = pathlib.Path(uwoclink.__file__).parent / "presets"
SHIPPED = sorted(path.stem for path in PRESET_DIR.glob("*.cfg"))
FLOAT_KEYS = [(section, key) for section, keys in SCHEMA.items()
              for key, (kind, _) in keys.items() if kind == "float"]
NON_FINITE = ["nan", "NaN", "inf", "-inf", "+Infinity", "1e999"]
# float values past float range once a link budget works on them
EXTREME_FLOATS = ["1e308", "-1e308", "1e-308", "7000"]
# numbers float() or int() accept that a config must not: other scripts'
# digits (Arabic-Indic, full-width) and underscore digit separators
NOT_PLAIN_NUMBERS = ["\u0661\u0662", "\uff11\uff10", "1_000", "1_0", "\u0668"]


def error_lines(err):
    return [line for line in err.splitlines() if "error:" in line]


def stdin_of(data: str | bytes) -> io.TextIOWrapper:
    """A strict UTF-8 text stdin over ``data``, with the byte ``buffer`` under it."""
    raw = data.encode() if isinstance(data, str) else data
    return io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8", errors="strict")


def reject_constant(name):
    raise AssertionError(f"{name} is not JSON")


def run_cli(argv):
    """(exit code, stdout, stderr) of ``main(argv)``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def assert_strict_json_or_exit_2(argv):
    """``main(argv)`` exits 0 with JSON that has no NaN or Infinity, or
    exits 2 with nothing on stdout and one error line."""
    code, out, err = run_cli(argv)
    if code == 0:
        return json.loads(out, parse_constant=reject_constant)
    assert code == 2, argv
    assert out == ""
    assert len(error_lines(err)) == 1, err
    return None


def leaf_paths(cls, prefix=""):
    """SCHEMA-style paths of every field under dataclass ``cls``, nested
    dataclasses walked."""
    hints = get_type_hints(cls)
    for f in fields(cls):
        path, hint = prefix + f.name, hints[f.name]
        if isinstance(hint, types.UnionType):
            hint, = (arg for arg in get_args(hint) if arg is not type(None))
        if is_dataclass(hint):
            yield from leaf_paths(hint, path + ".")
        else:
            yield path


# each number with a physical box: (least, greatest, least excluded); the
# field a message names is the key less its "nlos_" prefix
BOX = {
    ("link", "tx_power_w"): (0.0, 1e3, True),
    ("link", "bit_rate_bps"): (1e3, 1e11, False),
    ("link", "budget_db"): (0.0, 300.0, True),
    ("link", "snr_offset_db"): (-100.0, 100.0, False),
    ("water", "c_db_per_m"): (0.0, 10.0, False),
    ("geometry", "distance_m"): (0.0, 1e4, False),
    ("geometry", "half_angle_deg"): (0.01, 60.0, False),
    ("geometry", "rx_aperture_m"): (1e-4, 10.0, False),
    ("geometry", "k_override_m2"): (1e-12, 1e6, False),
    ("geometry", "nlos_reflectance"): (0.0, 1.0, True),
    ("geometry", "nlos_unfolded_distance_m"): (0.0, 1e4, False),
    ("fading", "sigma_db"): (0.0, 30.0, False),
    ("fading", "burst_depth_db"): (0.0, 100.0, False),
}


def in_box(draw, section, key):
    lo, hi, lo_open = BOX[section, key]
    return draw(st.floats(lo, hi, exclude_min=lo_open))


@st.composite
def config_specs(draw):
    """Any LinkSpec the config format can express, over each number's whole
    box, its corners included, and an NLOS path beside a k override."""
    f = st.floats
    geometry = LinkGeometry(
        distance_m=in_box(draw, "geometry", "distance_m"),
        half_angle_deg=in_box(draw, "geometry", "half_angle_deg"),
        rx_aperture_m=in_box(draw, "geometry", "rx_aperture_m"),
        k_override_m2=draw(st.none() | f(1e-12, 1e6)),
    )
    nlos = None
    if draw(st.booleans()):
        nlos = NlosPath(in_box(draw, "geometry", "nlos_reflectance"),
                        in_box(draw, "geometry", "nlos_unfolded_distance_m"))
    return LinkSpec(
        name=draw(st.text(string.ascii_letters + string.digits + "-_.",
                          min_size=1, max_size=20)),
        tx_power_w=in_box(draw, "link", "tx_power_w"),
        c_db_per_m=in_box(draw, "water", "c_db_per_m"),
        geometry=geometry,
        modulation=ModulationScheme(draw(st.sampled_from([OOK, PPM4])),
                                    in_box(draw, "link", "bit_rate_bps")),
        budget_db=in_box(draw, "link", "budget_db"),
        fading=FadingSpec(in_box(draw, "fading", "sigma_db"), draw(f(0.0, 1.0)),
                          in_box(draw, "fading", "burst_depth_db")),
        nlos=nlos,
        snr_offset_db=in_box(draw, "link", "snr_offset_db"),
    )


class TestPresets:
    def test_green_preset_values(self, green):
        assert green.tx_power_w == 2.36
        assert green.geometry.half_angle_deg == 0.53
        assert green.geometry.rx_aperture_m == 0.046
        assert green.budget_db == 82.77
        assert green.modulation.kind == "ook"
        assert green.modulation.bit_rate_bps == 125e6
        assert green.c_db_per_m == 0.358

    def test_blue_preset_values(self, blue):
        assert blue.tx_power_w == 2.1
        assert blue.geometry.half_angle_deg == 3.83
        assert blue.geometry.rx_aperture_m == 0.008
        assert blue.budget_db == 100.54
        assert blue.modulation.kind == "ppm4"
        assert blue.modulation.bit_rate_bps == 6.25e6
        assert blue.nlos is None

    def test_nlos_preset(self, blue_nlos):
        assert blue_nlos.nlos is not None
        assert blue_nlos.nlos.reflectance == 0.05
        assert blue_nlos.nlos.unfolded_distance_m == 34.0

    def test_unknown_preset(self):
        known = ", ".join(SHIPPED)
        with pytest.raises(ConfigError,
                           match=f"unknown preset 'violet-1G' \\(known: {known}\\)"):
            load_preset("violet-1G")

    def test_unknown_preset_cli_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["plan", "--preset", "violet-1G"])
        assert exit_info.value.code == 2
        err_lines = capsys.readouterr().err.splitlines()
        assert len([line for line in err_lines if "error:" in line]) == 1
        assert "violet-1G" in err_lines[-1]


class TestParsing:
    def test_empty_without_preset_lists_missing(self):
        with pytest.raises(ConfigError) as err:
            parse_scenario("")
        message = str(err.value)
        assert "missing required keys" in message
        assert "[link] name" in message
        assert "[water] c_db_per_m" in message

    def test_unknown_key_names_key_and_line(self):
        text = "[link]\nname = x\nwarp_factor = 9\n"
        with pytest.raises(ConfigError, match=r"line 3: unknown key 'warp_factor'"):
            parse_scenario(text)

    def test_unknown_section(self):
        with pytest.raises(ConfigError, match=r"line 1: unknown section"):
            parse_scenario("[reactor]\n")

    def test_duplicate_key(self):
        text = "[link]\nname = a\nname = b\n"
        with pytest.raises(ConfigError, match="duplicate key 'name'"):
            parse_scenario(text)

    def test_bad_value_type(self):
        text = "[link]\ntx_power_w = lots\n"
        with pytest.raises(ConfigError, match=r"line 2: key 'tx_power_w'"):
            parse_scenario(text)

    def test_key_outside_section(self):
        with pytest.raises(ConfigError, match="outside any"):
            parse_scenario("name = x\n")

    def test_overlay_overrides_preset(self):
        spec = parse_scenario("[geometry]\ndistance_m = 50.0\n",
                              preset="green-125M")
        assert spec.geometry.distance_m == 50.0
        assert spec.tx_power_w == 2.36  # untouched preset value

    @pytest.mark.parametrize("text, water", [
        ("c_db_per_m = 0.5\n", {"c_db_per_m": 0.5}),
    ])
    def test_water_section_replaces_preset_pair(self, text, water):
        spec = parse_scenario("[water]\n" + text, preset="green-125M")
        assert spec == replace(load_preset("green-125M"), **water)

    def test_empty_water_section_keeps_preset_pair(self):
        # an empty [water] header keeps the preset's c_db_per_m
        assert parse_scenario("[water]\n", preset="green-125M") == \
            load_preset("green-125M")

    def test_nlos_requires_both_keys(self):
        with pytest.raises(ConfigError, match="NLOS"):
            parse_scenario("[geometry]\nnlos_reflectance = 0.1\n",
                           preset="blue-6M25")

    def test_invariant_violation_surfaces_as_config_error(self):
        with pytest.raises(ConfigError):
            parse_scenario("[link]\nbudget_db = -5\n", preset="green-125M")

    @pytest.mark.parametrize("section, key", FLOAT_KEYS)
    def test_non_finite_float_rejected(self, section, key):
        for value in NON_FINITE:
            text = f"[{section}]\n{key} = {value}\n"
            message = f"line 2: key '{key}' expects a finite float, got '{value}'"
            with pytest.raises(ConfigError) as err:
                parse_mapping(text)
            assert str(err.value) == message

    @pytest.mark.parametrize("value", NOT_PLAIN_NUMBERS)
    @pytest.mark.parametrize("section, key, kind", [
        ("geometry", "distance_m", "float"),
        ("link", "budget_db", "float"),
        ("water", "c_db_per_m", "float"),
        ("fading", "sigma_db", "float"),
    ])
    def test_not_plain_number_rejected(self, section, key, kind, value):
        # float() reads these as numbers
        text = f"[{section}]\n{key} = {value}\n"
        with pytest.raises(ConfigError) as err:
            parse_mapping(text)
        assert str(err.value) == f"line 2: key '{key}' expects {kind}, got {value!r}"

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_fuzz_parses_or_raises_config_error(self, data):
        # assignments to one section's own keys reach the value parsing;
        # other headers and free text, put in anywhere, reach the rest
        section = data.draw(st.sampled_from(list(SCHEMA)))
        keys = data.draw(st.lists(st.sampled_from(list(SCHEMA[section])),
                                  unique=True, max_size=5))
        value = st.one_of(st.text(max_size=12), st.sampled_from(
            NON_FINITE + ["1", "-2.5e3", "0x10", *NOT_PLAIN_NUMBERS]))
        values = [data.draw(value) for _ in keys]
        lines = [f"{key}{data.draw(st.sampled_from([' = ', '=']))}{text}"
                 for key, text in zip(keys, values)]
        noise = st.one_of(
            st.text(max_size=20),
            st.sampled_from([*SCHEMA, "reactor", ""]).map(lambda sec: f"[{sec}]"),
        )
        for extra in data.draw(st.lists(noise, max_size=2)):
            lines.insert(data.draw(st.integers(0, len(lines))), extra)
        if data.draw(st.booleans()):
            lines.insert(0, f"[{section}]")
        text = "\n".join(lines)
        try:
            mapping = parse_mapping(text)
        except ConfigError:
            return
        for sec, parsed_values in mapping.items():
            for key, parsed in parsed_values.items():
                kind, _ = SCHEMA[sec][key]
                assert type(parsed).__name__ == kind
                assert kind != "float" or math.isfinite(parsed)
        # every assignment reached its numeric parse: each number was plain
        # ASCII without digit separators (the rest of a value's text after
        # a line break is a line of its own)
        for key, text in zip(keys, values):
            if SCHEMA[section][key][0] != "str":
                number = (text.splitlines() or [""])[0].strip()
                assert number.isascii() and "_" not in number

    def test_comments_and_blanks_ignored(self):
        text = "# header\n\n[geometry]\n# inline note\ndistance_m = 42.0\n"
        spec = parse_scenario(text, preset="green-125M")
        assert spec.geometry.distance_m == 42.0


class TestRoundtrip:
    @pytest.mark.parametrize("preset", ["green-125M", "blue-6M25",
                                        "blue-6M25-nlos"])
    def test_presets_roundtrip(self, preset):
        spec = load_preset(preset)
        assert parse_scenario(render_scenario(spec)) == spec

    def test_every_spec_field_has_a_key(self):
        paths = {path for keys in SCHEMA.values() for _, path in keys.values()}
        assert set(leaf_paths(LinkSpec)) == paths

    @given(config_specs())
    @settings(max_examples=200, deadline=None)
    def test_randomized_specs_roundtrip(self, spec):
        text = render_scenario(spec)
        assert parse_scenario(text) == spec
        assert spec.fingerprint() == hashlib.sha256(text.encode()).hexdigest()[:16]

    @given(name=st.text())
    @settings(max_examples=300, deadline=None)
    def test_any_name_is_rejected_or_roundtrips(self, name):
        # a name the config format cannot carry (edge whitespace, a line
        # break) is refused when the spec is built, never altered on render
        try:
            spec = replace(load_preset("blue-6M25-nlos"), name=name)
        except ValueError:
            assert name != name.strip() or len(name.splitlines()) > 1
            return
        back = parse_scenario(render_scenario(spec))
        assert back == spec
        assert back.fingerprint() == spec.fingerprint()


class TestShippedConfigs:
    def test_cli_preset_choices_are_the_shipped_files(self):
        assert SHIPPED == ["blue-6M25", "blue-6M25-nlos", "green-125M"]
        commands = next(action for action in build_parser()._actions
                        if isinstance(action, argparse._SubParsersAction))
        choices = {
            command: list(action.choices)
            for command, sub in commands.choices.items()
            for action in sub._actions if "--preset" in action.option_strings
        }
        assert choices == dict.fromkeys(["plan", "simulate", "monitor"], SHIPPED)

    @pytest.mark.parametrize("name", SHIPPED)
    def test_parses_without_overlay(self, name):
        spec = parse_scenario((PRESET_DIR / f"{name}.cfg").read_text())
        assert spec.name == name
        assert spec == load_preset(name)


class TestRenderReport:
    def test_fixed_key_order(self, green):
        report = run_scenario(green, 3, seed=5)
        text = render_report(report)
        keys = list(json.loads(text).keys())
        assert keys[:3] == ["name", "seed", "config_hash"]

    def test_json_reparses_to_equal_values(self, green):
        report = run_scenario(green, 3, seed=5)
        parsed = json.loads(render_report(report))
        assert parsed == report.to_dict()

    def test_unknown_format_rejected(self, green):
        report = run_scenario(green, 1, seed=5)
        with pytest.raises(ConfigError, match="unknown format 'xml'"):
            render_report(report, "xml")

    def test_csv_row_count(self, green):
        report = run_scenario(green, 7, seed=5)
        lines = render_report(report, "csv").strip().splitlines()
        # comment, header, one row per second
        assert len(lines) == 2 + len(report.beps_series)
        assert lines[1] == "second,errors,margin_db,packet_losses"
        assert lines[0].startswith("# name=green-125M seed=5 config_hash=")


class TestCliCommands:
    def test_plan_json(self, capsys):
        assert main(["plan", "--preset", "green-125M"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["solutions"]["without_geometry"]["max_distance_m"] == \
            pytest.approx(231.20, abs=0.01)
        assert payload["seed"] == 0
        assert payload["config_hash"]

    def test_plan_csv(self, capsys):
        assert main(["plan", "--preset", "blue-6M25", "--format", "csv",
                     "--points", "5"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out[1] == "z_m,loss_db_with_geometry,loss_db_without,budget_db"
        assert len(out) == 2 + 5

    def test_plan_k_override_config(self, tmp_path, capsys):
        cfg = tmp_path / "k.cfg"
        cfg.write_text("[geometry]\nk_override_m2 = 1.198\n")
        assert main(["plan", "--preset", "green-125M",
                     "--config", str(cfg)]) == 0
        payload = json.loads(capsys.readouterr().out)
        with_geo = payload["solutions"]["with_geometry"]
        assert with_geo["max_distance_m"] == pytest.approx(117.7, rel=1e-3)
        assert with_geo["k_used_m2"] == 1.198

    def test_plan_one_water_key_over_preset(self, tmp_path, capsys):
        cfg = tmp_path / "water.cfg"
        cfg.write_text("[water]\nc_db_per_m = 0.5\n")
        assert main(["plan", "--preset", "green-125M",
                     "--config", str(cfg)]) == 0
        payload = json.loads(capsys.readouterr().out)
        without = payload["solutions"]["without_geometry"]
        assert without["max_distance_m"] == pytest.approx(82.77 / 0.5)

    @pytest.mark.parametrize("output_format", ["json", "csv"])
    @pytest.mark.parametrize("budget_db", ["1e-4", "0.3", "1e-300"])
    def test_plan_short_range_link(self, tmp_path, capsys, budget_db, output_format):
        # 0.3 dB used to end in "z_min must be < z_max", as the curve began
        # at 1 m, and 1e-4 dB in "no sign change in bracket [0.001, 1]"
        cfg = tmp_path / "short.cfg"
        cfg.write_text(f"[link]\nbudget_db = {budget_db}\n")
        assert main(["plan", "--preset", "green-125M", "--config", str(cfg),
                     "--format", output_format]) == 0
        out = capsys.readouterr().out
        if output_format == "json":
            solutions = json.loads(out)["solutions"].values()
            assert all(s["max_distance_m"] > 0 for s in solutions)
        else:
            rows = [line.split(",") for line in out.splitlines()[2:]]
            assert len(rows) == 200 and rows[0][0] == "0.0"
            assert all(math.isfinite(float(cell)) for row in rows for cell in row)

    def test_plan_non_finite_z_max_exit_2(self, capsys):
        # used to end in "error: math domain error"
        assert main(["plan", "--preset", "green-125M", "--z-max", "inf"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = error_lines(captured.err)
        assert len(lines) == 1
        assert "z_max" in lines[0]

    def test_plan_zero_z_max_exit_2(self, capsys):
        # 0 used to be taken for "unset" and replaced by the default range
        assert main(["plan", "--preset", "green-125M", "--z-max", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert error_lines(captured.err) == ["error: z_min must be < z_max"]

    @pytest.mark.parametrize("k_override", [False, True])
    def test_plan_longest_z_max_rows_finite(self, tmp_path, capsys, k_override):
        cfg = tmp_path / "k.cfg"
        cfg.write_text("[geometry]\nk_override_m2 = 1.198\n" if k_override else "")
        assert main(["plan", "--preset", "green-125M", "--config", str(cfg),
                     "--z-max", "10000", "--format", "csv"]) == 0
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[2:]]
        assert len(rows) == 200
        assert all(math.isfinite(float(cell)) for row in rows for cell in row)
        assert float(rows[-1][0]) == 1e4

    def test_plan_csv_from_zero_with_k_override(self, tmp_path, capsys):
        # used to exit 2 with "k_override_m2 needs distance_m > 0", though the
        # JSON plan took the same span; z^2 <= k collects the whole spot
        cfg = tmp_path / "k.cfg"
        cfg.write_text("[geometry]\nk_override_m2 = 1.198\n")
        assert main(["plan", "--preset", "green-125M", "--config", str(cfg),
                     "--format", "csv", "--z-min", "0"]) == 0
        rows = capsys.readouterr().out.splitlines()[2:]
        assert rows[0] == "0.0,0.0,0.0,82.77"

    @pytest.mark.parametrize("z_max", ["10000.000000000002", "1e308"])
    def test_plan_z_max_past_the_box_exit_2(self, capsys, z_max):
        # 1e308 used to plot a curve, or fail on the loss overflowing there
        assert main(["plan", "--preset", "green-125M", "--z-max", z_max]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert error_lines(captured.err) == [
            f"error: z_max must be in [0, 10000] m, got {float(z_max)}"]

    def test_plan_json_builds_no_curve(self, monkeypatch, capsys):
        # the JSON report holds no curve, yet its span is still checked
        monkeypatch.setattr(uwoclink.cli, "distance_curve", None)
        assert main(["plan", "--preset", "green-125M"]) == 0
        assert main(["plan", "--preset", "green-125M", "--points", "1"]) == 2
        assert error_lines(capsys.readouterr().err) == ["error: n_points must be >= 2"]

    @pytest.mark.parametrize("preset, c_db_per_m, code", [
        ("green-125M", "0.001", 2), ("blue-6M25", "0.001", 2), ("blue-6M25", "0", 2),
        ("blue-6M25", "0.0102", 0)])
    def test_plan_range_near_the_box_edge(self, tmp_path, capsys, preset, c_db_per_m,
                                          code):
        # at 0.001 dB/m the range without spread is 82.8 or 100.5 km, past
        # the 10 km no LinkGeometry can go, and clear water has no range;
        # at 0.0102 dB/m blue's is 9.9 km, and its curve stops at the box
        # edge, not at 1.05 * 9.9 km
        cfg = tmp_path / "clear.cfg"
        cfg.write_text(f"[water]\nc_db_per_m = {c_db_per_m}\n")
        assert main(["plan", "--preset", preset, "--config", str(cfg), "--format",
                     "csv"]) == code
        captured = capsys.readouterr()
        if code:
            assert captured.out == ""
            assert error_lines(captured.err) == [
                "error: the without_geometry range passes MAX_DISTANCE_M = 10000 m"]
        else:
            assert float(captured.out.splitlines()[-1].split(",")[0]) == 1e4

    def test_simulate_deterministic_stdout(self, capsys):
        args = ["simulate", "--preset", "green-125M", "--duration-s", "3",
                "--seed", "12"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        second = capsys.readouterr().out
        assert first == second
        assert json.loads(first)["seed"] == 12

    def test_simulate_csv_and_outfile(self, tmp_path, capsys):
        out = tmp_path / "beps.csv"
        assert main(["simulate", "--preset", "green-125M", "--duration-s", "4",
                     "--seed", "1", "--format", "csv", "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 2 + 4

    def test_simulate_inject(self, capsys):
        assert main(["simulate", "--preset", "green-125M", "--inject-ber",
                     "1e-5", "--n-bits", "163200", "--seed", "3"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["post_fec_bit_errors"] == 0

    @pytest.mark.parametrize("flags, message", [
        (["--n-bits", "1000"], "--n-bits applies only with --inject-ber"),
        (["--n-bits", "10000000", "--duration-s", "2"],
         "--n-bits applies only with --inject-ber"),
        (["--inject-ber", "1e-3", "--duration-s", "60"],
         "--duration-s does not apply with --inject-ber"),
    ], ids=["n-bits-alone", "n-bits-default-value", "duration-with-inject"])
    def test_length_flag_the_run_ignores_exit_2(self, capsys, flags, message):
        # a length the run would not read is an error, even at its default
        assert main(["simulate", "--preset", "green-125M", *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert error_lines(captured.err) == [f"error: {message}"]

    def test_run_lengths_default_to_60_s_and_10m_bits(self, monkeypatch, capsys):
        seen = []

        def record(name):
            def run(spec, *args):
                seen.append((name, *args))
                raise ConfigError("recorded")
            return run

        monkeypatch.setattr(cli, "run_scenario", record("scenario"))
        monkeypatch.setattr(cli, "inject_errors_run", record("inject"))
        assert main(["simulate", "--preset", "green-125M"]) == 2
        assert main(["simulate", "--preset", "green-125M", "--inject-ber", "1e-3"]) == 2
        assert main(["simulate", "--preset", "green-125M", "--duration-s", "0"]) == 2
        assert main(["simulate", "--preset", "green-125M", "--inject-ber", "1e-3",
                     "--n-bits", "0"]) == 2
        assert seen == [("scenario", 60, 0), ("inject", 1e-3, 10_000_000, 0),
                        ("scenario", 0, 0), ("inject", 1e-3, 0, 0)]
        assert capsys.readouterr().err == "error: recorded\n" * 4

    def test_monitor(self, capsys):
        assert main(["monitor", "--preset", "green-125M", "--epochs", "3",
                     "--duration-s", "2", "--seed", "5"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["epochs"] == 3
        assert len(payload["reports"]) == 3
        assert payload["max_pre_fec_ber"] < 1e-4

    @pytest.mark.parametrize("command", [
        ["plan", "--seed", "-1"],
        ["simulate", "--duration-s", "2", "--seed", "-1"],
        ["monitor", "--epochs", "1", "--duration-s", "2", "--seed", "-3"],
    ])
    def test_negative_seed_exit_2(self, capsys, command):
        # simulate and monitor used to end in numpy's "expected non-negative
        # integer", which does not name the flag; plan accepted the seed
        with pytest.raises(SystemExit) as exit_info:
            main([*command, "--preset", "green-125M"])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert error_lines(captured.err) == [
            f"uwoclink: error: argument --seed: must be >= 0, got {command[-1]}"]

    def test_missing_inputs_exit_2(self, capsys):
        assert main(["simulate"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")

    def test_bad_config_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("[link]\nwarp = 9\n")
        assert main(["simulate", "--config", str(cfg)]) == 2
        assert "unknown key" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["simulate", "--duration-s", "2"], ["plan"]])
    def test_interleaver_depth_key_is_gone_exit_2(self, tmp_path, capsys, command):
        # the interleave is fixed (bit j to inner word j mod 8); a scenario
        # file that still sets the depth stops at its [codec] section, not
        # silently
        cfg = tmp_path / "old.cfg"
        cfg.write_text("[codec]\nouter_words_per_frame = 4\ninterleaver_depth = 8\n")
        assert main([*command, "--preset", "green-125M", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert error_lines(captured.err) == ["error: line 1: unknown section [codec]"]

    @pytest.mark.parametrize("command", [["simulate", "--duration-s", "2"], ["plan"],
                                         ["monitor", "--epochs", "1"]])
    def test_codec_section_is_gone_exit_2(self, tmp_path, capsys, command):
        # the frame is fixed at 4 outer words, the frame fec encodes and
        # decodes; a file that still sizes it stops at the section
        cfg = tmp_path / "old.cfg"
        cfg.write_text("[link]\nsnr_offset_db = -3.0\n\n[codec]\n"
                       "outer_words_per_frame = 2\n")
        assert main([*command, "--preset", "green-125M", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert error_lines(captured.err) == ["error: line 4: unknown section [codec]"]

    def test_c_per_m_key_is_gone_exit_2(self, tmp_path, capsys):
        # attenuation is given in dB/m only; a file in the per-metre form
        # stops at the key
        cfg = tmp_path / "old.cfg"
        cfg.write_text("[water]\nc_per_m = 0.1\n")
        assert main(["plan", "--preset", "green-125M", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert error_lines(captured.err) == [
            "error: line 2: unknown key 'c_per_m' in section [water]"]

    def test_no_water_without_preset_exit_2(self, tmp_path, capsys):
        # every other key of a full scenario is there
        text = render_scenario(load_preset("green-125M"))
        head, water, tail = text.partition("[water]\nc_db_per_m = 0.358\n")
        assert water
        cfg = tmp_path / "dry.cfg"
        cfg.write_text(head + tail)
        assert main(["plan", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert error_lines(captured.err) == [
            "error: missing required keys: [water] c_db_per_m"]

    def test_bom_scenario_reads_as_without_bom(self, tmp_path):
        # Windows editors often write a UTF-8 byte-order mark; it used to end
        # in "line 1: expected 'key = value', got '\ufeff[link]'"
        text = render_scenario(load_preset("blue-6M25-nlos"))
        plain, bom = tmp_path / "plain.cfg", tmp_path / "bom.cfg"
        plain.write_text(text, encoding="utf-8")
        bom.write_text(text, encoding="utf-8-sig")
        assert bom.read_bytes() == b"\xef\xbb\xbf" + plain.read_bytes()
        parser = build_parser()
        specs = [cli._load_spec(parser.parse_args(["plan", "--config", str(path)]))
                 for path in (plain, bom)]
        assert specs[0] == specs[1] == load_preset("blue-6M25-nlos")
        outputs = [run_cli(["simulate", "--config", str(path), "--duration-s", "3",
                            "--seed", "1"]) for path in (plain, bom)]
        assert outputs[0][0] == 0 and outputs[0] == outputs[1]

    @pytest.mark.parametrize("section, key, command", [
        ("link", "budget_db", ["simulate", "--duration-s", "2"]),
        ("geometry", "distance_m", ["simulate", "--duration-s", "2"]),
        ("link", "budget_db", ["plan"]),
        ("water", "c_db_per_m", ["plan"]),
    ])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_config_exit_2(self, tmp_path, capsys, section, key, command,
                                      value):
        # nan used to run to exit 0 (pre_fec_ber 0.4995), inf to a math error
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"[{section}]\n{key} = {value}\n")
        assert main([*command, "--preset", "green-125M", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert error_lines(captured.err) == [
            f"error: line 2: key '{key}' expects a finite float, got '{value}'"
        ]

    @pytest.mark.parametrize("command", [
        ["simulate", "--duration-s", "1"],
        ["monitor", "--epochs", "1", "--duration-s", "1"],
        ["plan", "--points", "3"],
    ], ids=["simulate", "monitor", "plan"])
    @pytest.mark.parametrize("section, key", FLOAT_KEYS)
    def test_extreme_float_reports_or_exits_2(self, tmp_path, section, key, command):
        # under simulate and monitor, [link] budget_db and snr_offset_db at
        # 7000 or 1e308 used to end in an OverflowError traceback, and
        # [water] c_db_per_m = 1e308 in a margin_trace_db of -Infinity
        cfg = tmp_path / "x.cfg"
        for value in EXTREME_FLOATS:
            cfg.write_text(f"[{section}]\n{key} = {value}\n")
            assert_strict_json_or_exit_2(
                [*command, "--preset", "blue-6M25-nlos", "--config", str(cfg)])

    def test_extreme_fading_reports_or_exits_2(self, tmp_path):
        # used to end in an OverflowError traceback: a fading draw of about
        # -1e300 dB gives a margin whose SNR and received power overflow
        cfg = tmp_path / "x.cfg"
        cfg.write_text("[fading]\nsigma_db = 1e300\n")
        assert_strict_json_or_exit_2(["simulate", "--preset", "green-125M", "--config",
                                      str(cfg), "--duration-s", "3", "--seed", "1"])

    @pytest.mark.parametrize("key, value", [("budget_db", "300"), ("snr_offset_db", "100")])
    def test_highest_snr_in_the_box_is_noiseless(self, tmp_path, key, value):
        # 10^((margin + offset) / 20) is 1e6 or more here: no slot moves
        cfg = tmp_path / "x.cfg"
        cfg.write_text(f"[link]\n{key} = {value}\n")
        report = assert_strict_json_or_exit_2(
            ["simulate", "--preset", "blue-6M25-nlos", "--config", str(cfg),
             "--duration-s", "2"])
        assert report["pre_fec_bit_errors"] == 0

    @pytest.mark.parametrize("output_format", ["json", "csv"])
    def test_fading_past_the_box_exit_2(self, tmp_path, capsys, output_format):
        # the draw used to overflow silently: JSON refused the -inf margin,
        # naming no key, and CSV exited 0 with inf and -inf margins
        cfg = tmp_path / "x.cfg"
        cfg.write_text("[fading]\nsigma_db = 1.7e308\n")
        assert main(["simulate", "--preset", "green-125M", "--config", str(cfg),
                     "--duration-s", "4", "--seed", "1", "--format", output_format]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert error_lines(captured.err) == [
            "error: invalid configuration: sigma_db must be in [0, 30] dB"]

    @pytest.mark.parametrize("section, key", BOX)
    @pytest.mark.parametrize("edge", ["least", "greatest"])
    def test_box_edges_simulate(self, tmp_path, section, key, edge):
        lo, hi, lo_open = BOX[section, key]
        value = hi if edge == "greatest" else math.nextafter(lo, math.inf) if lo_open else lo
        cfg = tmp_path / "x.cfg"
        cfg.write_text(f"[{section}]\n{key} = {value!r}\n")
        report = assert_strict_json_or_exit_2(
            ["simulate", "--preset", "blue-6M25-nlos", "--config", str(cfg),
             "--duration-s", "1"])
        assert report is not None

    @pytest.mark.parametrize("section, key", BOX)
    @pytest.mark.parametrize("side", ["below", "above"])
    def test_past_the_box_exit_2(self, tmp_path, capsys, section, key, side):
        lo, hi, lo_open = BOX[section, key]
        value = (math.nextafter(hi, math.inf) if side == "above"
                 else lo if lo_open else math.nextafter(lo, -math.inf))
        cfg = tmp_path / "x.cfg"
        cfg.write_text(f"[{section}]\n{key} = {value!r}\n")
        assert main(["plan", "--preset", "blue-6M25-nlos", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = error_lines(captured.err)
        assert line.startswith(
            f"error: invalid configuration: {key.removeprefix('nlos_')} must be in ")

    @given(spec=config_specs())
    @settings(max_examples=25, deadline=None)
    def test_any_spec_in_the_box_reports_or_plan_exits_2(self, spec):
        # simulate and monitor run every spec in the box to strict JSON and
        # a CSV without inf or nan; plan may find no range and exit 2
        with tempfile.TemporaryDirectory() as tmp:
            cfg = pathlib.Path(tmp) / "box.cfg"
            cfg.write_text(render_scenario(spec))
            common = ["--config", str(cfg), "--duration-s", "1"]
            for argv in (["simulate", *common], ["monitor", "--epochs", "1", *common]):
                code, out, err = run_cli(argv)
                assert code == 0, err
                json.loads(out, parse_constant=reject_constant)
            code, out, err = run_cli(["simulate", *common, "--format", "csv"])
            assert code == 0, err
            rows = "\n".join(out.splitlines()[2:])  # below the name and header
            assert "inf" not in rows and "nan" not in rows
            assert_strict_json_or_exit_2(["plan", "--config", str(cfg), "--points", "5"])

    @pytest.mark.parametrize("section, key, kind, value, command", [
        ("geometry", "distance_m", "float", "\u0661\u0662", ["plan"]),
        ("geometry", "distance_m", "float", "1_0", ["simulate", "--duration-s", "2"]),
        ("link", "budget_db", "float", "1_0", ["simulate", "--duration-s", "2"]),
        ("link", "budget_db", "float", "\u0668", ["plan"]),
    ])
    def test_not_plain_number_config_exit_2(self, tmp_path, capsys, section, key,
                                            kind, value, command):
        # each used to parse: distance_m = 12.0 or 10.0, budget_db = 10.0 or 8.0
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"[{section}]\n{key} = {value}\n", encoding="utf-8")
        assert main([*command, "--preset", "green-125M", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert error_lines(captured.err) == [
            f"error: line 2: key '{key}' expects {kind}, got {value!r}"
        ]

    @pytest.mark.parametrize("command", [["simulate", "--duration-s", "2"], ["plan"],
                                         ["monitor", "--epochs", "1"]])
    def test_agc_section_is_gone_exit_2(self, tmp_path, capsys, command):
        # the receiver is the deployed PMT + LC chain, fixed in code; a file
        # that still tunes it stops at the section
        cfg = tmp_path / "old.cfg"
        cfg.write_text("[link]\nsnr_offset_db = -3.0\n\n[agc]\nlc_steepness = 0\n")
        assert main([*command, "--preset", "green-125M", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert error_lines(captured.err) == ["error: line 4: unknown section [agc]"]

    @pytest.mark.parametrize("key, value", [("sync_overhead_fraction", "0.037"),
                                            ("iface_cap_bps", "1e9"),
                                            ("frame_payload_bytes", "1500"),
                                            ("sim_frames_per_second", "6")])
    @pytest.mark.parametrize("command", [["simulate", "--duration-s", "2"], ["plan"]])
    def test_ethernet_keys_are_gone_exit_2(self, tmp_path, capsys, key, value, command):
        # one 100 Mb/s port with 1500-byte payloads and a 3.7 % sync share,
        # and six frames to a simulated second, fixed in code; a file that
        # still sets one of them stops at the key
        cfg = tmp_path / "old.cfg"
        cfg.write_text(f"[link]\nsnr_offset_db = -3.0\n{key} = {value}\n")
        assert main([*command, "--preset", "green-125M", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert error_lines(captured.err) == [
            f"error: line 3: unknown key '{key}' in section [link]"]

    @pytest.mark.parametrize("command", [["simulate", "--duration-s", "2"], ["plan"]])
    def test_pointing_offset_key_is_gone_exit_2(self, tmp_path, capsys, command):
        # links are aligned; a file that still sets a static offset stops at
        # the key
        cfg = tmp_path / "old.cfg"
        cfg.write_text("[link]\nsnr_offset_db = -3.0\n[geometry]\npointing_offset_m = 0.0\n")
        assert main([*command, "--preset", "green-125M", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert error_lines(captured.err) == [
            "error: line 4: unknown key 'pointing_offset_m' in section [geometry]"]

    @pytest.mark.parametrize("command", [["simulate", "--duration-s", "2"], ["plan"]])
    def test_exit_diameter_key_is_gone_exit_2(self, tmp_path, capsys, command):
        # the beam leaves from a point; a file that still sets an exit
        # diameter stops at the key
        cfg = tmp_path / "exit.cfg"
        cfg.write_text("[geometry]\ntx_exit_diameter_m = 0.0\n")
        assert main([*command, "--preset", "green-125M", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert error_lines(captured.err) == [
            "error: line 2: unknown key 'tx_exit_diameter_m' in section [geometry]"]

    @pytest.mark.parametrize("command", [["simulate", "--duration-s", "2"], ["plan"]])
    def test_no_keys_names_every_required_key_exit_2(self, tmp_path, capsys, command):
        # the keys whose LinkSpec field has no default, in SCHEMA order
        cfg = tmp_path / "empty.cfg"
        cfg.write_text("")
        assert main([*command, "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert error_lines(captured.err) == [
            "error: missing required keys: [link] name, [link] tx_power_w, "
            "[link] modulation, [link] bit_rate_bps, [link] budget_db, "
            "[water] c_db_per_m, [geometry] distance_m, [geometry] half_angle_deg, "
            "[geometry] rx_aperture_m"]

    @pytest.mark.parametrize("command", [["simulate", "--duration-s", "2"], ["plan"],
                                         ["monitor", "--epochs", "1"]])
    def test_zero_reflectance_exit_2(self, tmp_path, capsys, command):
        # a bounce that reflects nothing used to simulate as a "dark" link
        # whose margin trace still read 35 dB
        cfg = tmp_path / "dark.cfg"
        cfg.write_text("[geometry]\nnlos_reflectance = 0\n")
        assert main([*command, "--preset", "blue-6M25-nlos", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert error_lines(captured.err) == [
            "error: invalid configuration: reflectance must be in (0, 1]"]

    def test_calibrate_is_gone_exit_2(self, capsys):
        # its fit of the receiver in volts fed nothing the simulator reads
        with pytest.raises(SystemExit) as exit_info:
            main(["calibrate", "--samples", "x"])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "invalid choice: 'calibrate'" in captured.err

    @pytest.mark.parametrize("data, line, byte", [
        ("[link]\nname = café\n".encode("latin-1"), 2, "0xe9"),
        ("[link]\nname = café\n".encode("utf-16"), 1, "0xff"),
        # behind a byte-order mark the line still counts from the file's start
        (b"\xef\xbb\xbf[link]\n\nname = caf\xe9\n", 3, "0xe9"),
    ], ids=["latin-1", "utf-16", "bom-latin-1"])
    def test_undecodable_scenario_names_its_line_exit_2(self, tmp_path, capsys, data,
                                                        line, byte):
        # these used to end in "error: 'utf-8' codec can't decode byte 0xe9 in
        # position 17: ...", which named neither the file nor the line
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(data)
        assert main(["simulate", "--preset", "green-125M", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Traceback" not in captured.err
        assert error_lines(captured.err) == [
            f"error: {cfg}:{line}: not UTF-8 text (byte {byte})"]

    @pytest.mark.parametrize("command", [
        ["plan"], ["plan", "--format", "csv", "--points", "20"],
        ["simulate", "--format", "csv", "--duration-s", "2"],
        ["monitor", "--epochs", "2", "--duration-s", "2"],
    ], ids=["plan-json", "plan-csv", "simulate-csv", "monitor"])
    def test_bom_config_gives_the_same_output(self, tmp_path, command):
        # every command reads --config through the same BOM-stripping reader
        text = render_scenario(load_preset("green-125M"))
        plain, bom = tmp_path / "plain.cfg", tmp_path / "bom.cfg"
        plain.write_text(text, encoding="utf-8")
        bom.write_text(text, encoding="utf-8-sig")
        outputs = [run_cli([*command, "--config", str(path), "--seed", "3"])
                   for path in (plain, bom)]
        assert outputs[0][0] == 0 and outputs[0][1]
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("data, line, byte", [
        ("[link]\nname = café\n".encode("latin-1"), 2, "0xe9"),
        ("[link]\nname = café\n".encode("utf-16"), 1, "0xff"),
        (b"\xef\xbb\xbf[link]\n\nname = caf\xe9\n", 3, "0xe9"),
    ], ids=["latin-1", "utf-16", "bom-latin-1"])
    @pytest.mark.parametrize("command", [["plan"], ["monitor", "--epochs", "2"]],
                             ids=["plan", "monitor"])
    def test_undecodable_config_exit_2_on_every_command(self, tmp_path, capsys, command,
                                                        data, line, byte):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(data)
        assert main([*command, "--preset", "blue-6M25", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert error_lines(captured.err) == [
            f"error: {cfg}:{line}: not UTF-8 text (byte {byte})"]

    def test_sequence_cut_at_the_end_names_the_last_line(self, tmp_path, capsys):
        # a file cut inside a multi-byte character fails on its last line
        text = render_scenario(load_preset("green-125M"))
        cfg = tmp_path / "cut.cfg"
        cfg.write_bytes(text.encode() + "# café".encode()[:-1])
        assert main(["plan", "--config", str(cfg)]) == 2
        assert error_lines(capsys.readouterr().err) == [
            f"error: {cfg}:{text.count(chr(10)) + 1}: not UTF-8 text (byte 0xc3)"]

    def test_only_one_bom_is_stripped(self, tmp_path, capsys):
        # a second mark is text, and no config key starts with it
        text = render_scenario(load_preset("green-125M"))
        cfg = tmp_path / "twice.cfg"
        cfg.write_bytes(codecs.BOM_UTF8 * 2 + text.encode())
        assert main(["plan", "--config", str(cfg)]) == 2
        assert error_lines(capsys.readouterr().err) == [
            "error: line 1: expected 'key = value', got '\\ufeff[link]'"]

    def test_crlf_config_reads_as_lf(self, tmp_path):
        text = render_scenario(load_preset("blue-6M25-nlos"))
        lf, crlf = tmp_path / "lf.cfg", tmp_path / "crlf.cfg"
        lf.write_bytes(text.encode())
        crlf.write_bytes(text.replace("\n", "\r\n").encode())
        outputs = [run_cli(["simulate", "--config", str(path), "--duration-s", "2"])
                   for path in (lf, crlf)]
        assert outputs[0][0] == 0 and outputs[0] == outputs[1]

    @pytest.mark.parametrize("command", [["plan"], ["simulate", "--duration-s", "2"],
                                         ["monitor", "--epochs", "2"]],
                             ids=["plan", "simulate", "monitor"])
    def test_missing_config_file_exit_2(self, tmp_path, capsys, command):
        cfg = tmp_path / "absent.cfg"
        assert main([*command, "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert error_lines(captured.err) == [
            f"error: [Errno 2] No such file or directory: '{cfg}'"]

    def test_directory_as_config_exit_2(self, tmp_path, capsys):
        assert main(["plan", "--config", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert error_lines(captured.err) == [
            f"error: [Errno 21] Is a directory: '{tmp_path}'"]

    @pytest.mark.parametrize("section, key, value, message", [
        ("geometry", "nlos_unfolded_distance_m", "-1",
         "unfolded_distance_m must be in [0, 10000] m"),
        ("water", "c_db_per_m", "-1", "c_db_per_m must be in [0, 10] dB/m"),
    ])
    def test_invalid_value_plan_exit_2(self, tmp_path, capsys, section, key, value,
                                       message):
        # plan simulates nothing, but a value no link can have still stops it
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"[{section}]\n{key} = {value}\n")
        assert main(["plan", "--preset", "blue-6M25-nlos", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert error_lines(captured.err) == [f"error: invalid configuration: {message}"]

    def test_out_of_memory_exit_2(self, monkeypatch, capsys):
        # a codec too large for memory (outer_words_per_frame = 100000, a
        # key since removed) used to end in a numpy _ArrayMemoryError
        # traceback; the stub raises without allocating anything
        def exhausted(*args):
            raise MemoryError("Unable to allocate 18.6 GiB for an array")

        monkeypatch.setattr("uwoclink.engine.codec_for", exhausted)
        assert main(["simulate", "--preset", "green-125M"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert error_lines(captured.err) == [
            "error: Unable to allocate 18.6 GiB for an array"]

class TestFecCli:
    def test_hex_roundtrip_helpers(self):
        rng = np.random.default_rng(6)
        for nbits in (4, 7, 1930, 3824):
            bits = rng.integers(0, 2, nbits).astype(np.uint8)
            assert np.array_equal(_hex_to_bits(_bits_to_hex(bits), nbits), bits)

    def test_bad_hex_rejected(self):
        with pytest.raises(ConfigError):
            _hex_to_bits("zz", 8)
        with pytest.raises(ConfigError):
            _hex_to_bits("ff", 7)  # nonzero pad bit

    @pytest.mark.parametrize("text", ["\u0663f", "\uff11f", "f\uff41", " f", "+f", "_f"])
    def test_non_ascii_hex_digits_rejected(self, text):
        # int(c, 16) reads Arabic-Indic and full-width digits as hex digits
        with pytest.raises(ConfigError, match="invalid hex block"):
            _hex_to_bits(text, 8)

    @given(text=st.one_of(st.text(max_size=12),
                          st.text(alphabet="0123456789abcdefABCDEF\u0663\uff11g ",
                                  max_size=12)),
           slack=st.integers(-4, 4))
    @settings(max_examples=300, deadline=None)
    def test_fuzz_hex_roundtrips_or_raises_config_error(self, text, slack):
        n_bits = max(0, 4 * len(text) + slack)
        try:
            bits = _hex_to_bits(text, n_bits)
        except ConfigError:
            return
        assert bits.shape == (n_bits,)
        assert _bits_to_hex(bits) == text.lower()

    def test_non_ascii_hex_cli_exit_2(self, monkeypatch, capsys):
        block = "\u0663" * 965  # 3860 bits, one outer word
        monkeypatch.setattr("sys.stdin", stdin_of(block + "\n"))
        assert main(["fec", "decode", "--code", "outer"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(error_lines(captured.err)) == 1
        assert "invalid hex block" in captured.err

    @pytest.mark.parametrize("action, code, n_bits, bad, message", [
        ("encode", "inner", 1930, "ab", "expected 483 hex digits for 1930 bits, got 2"),
        ("encode", "inner", 1930, "g" * 483, "invalid hex block"),
        ("encode", "inner", 1930, "f" * 483, "nonzero pad bits"),  # 1930 = 4 * 482 + 2
        ("decode", "outer", 3860, "ab", "expected 965 hex digits for 3860 bits, got 2"),
        ("decode", "outer", 3860, "0" * 964 + "x", "invalid hex block"),
        ("decode", "concat", 16320, "0" * 4079, "expected 4080 hex digits"),
    ])
    def test_bad_block_error_names_its_line(self, monkeypatch, capsys,
                                            action, code, n_bits, bad, message):
        # a valid block, a blank line, then the bad one; every code's n is a
        # multiple of 4, so only encode blocks can have pad bits
        good = _bits_to_hex(np.zeros(n_bits, dtype=np.uint8))
        monkeypatch.setattr("sys.stdin", stdin_of(f"{good}\n\n{bad}\n"))
        assert main(["fec", action, "--code", code]) == 2
        captured = capsys.readouterr()
        assert len(captured.out.splitlines()) == 1  # the valid block's output
        [error] = error_lines(captured.err)
        assert error.startswith("error: line 3: ") and message in error

    @pytest.mark.parametrize("bad", [b"\xff", b"0" * 508 + b"\xff", b"\xef\xbb"],
                             ids=["lone-ff", "ff-after-digits", "truncated-sequence"])
    def test_undecodable_line_names_its_line(self, monkeypatch, capsys, bad):
        # under strict decoding a bad byte used to stop the run before line 1
        # was decoded, with an error that named no line
        good = _bits_to_hex(np.zeros(2040, dtype=np.uint8))
        monkeypatch.setattr("sys.stdin", stdin_of(f"{good}\n".encode() + bad + b"\n"))
        assert main(["fec", "decode", "--code", "inner"]) == 2
        captured = capsys.readouterr()
        assert captured.out == _bits_to_hex(np.zeros(1930, dtype=np.uint8)) + "\n"
        [error] = error_lines(captured.err)
        assert error.startswith("error: line 2: 'utf-8' codec can't decode byte")
        assert captured.err.splitlines()[-1] == error

    def test_encode_decode_pipeline(self, monkeypatch, capsys, codec):
        rng = np.random.default_rng(7)
        msg = rng.integers(0, 2, codec.outer.k).astype(np.uint8)
        monkeypatch.setattr("sys.stdin", stdin_of(_bits_to_hex(msg) + "\n"))
        assert main(["fec", "encode", "--code", "outer"]) == 0
        cw_hex = capsys.readouterr().out.strip()

        # corrupt two bits, decode, expect recovery and exit 0
        cw = _hex_to_bits(cw_hex, codec.outer.n)
        cw[[10, 500]] ^= 1
        monkeypatch.setattr("sys.stdin", stdin_of(_bits_to_hex(cw) + "\n"))
        assert main(["fec", "decode", "--code", "outer"]) == 0
        captured = capsys.readouterr()
        assert captured.out.strip() == _bits_to_hex(msg)
        assert "corrected=2" in captured.err

    def test_decode_failure_exit_1(self, monkeypatch, capsys, codec):
        rng = np.random.default_rng(8)
        cw = codec.inner.encode(rng.integers(0, 2, 1930).astype(np.uint8))
        cw[rng.choice(2040, 60, replace=False)] ^= 1
        monkeypatch.setattr("sys.stdin", stdin_of(_bits_to_hex(cw) + "\n"))
        assert main(["fec", "decode", "--code", "inner"]) == 1
        assert "decode_failure" in capsys.readouterr().err
