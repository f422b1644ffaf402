import argparse
import contextlib
import io
import json
import math
import pathlib
import string
import tempfile
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import uwoclink
from uwoclink.agc import ReceiverChain
from uwoclink.channel import FadingSpec, LinkGeometry, NlosPath, WaterOptics
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
# numbers float() or int() accept that a config must not: other scripts'
# digits (Arabic-Indic, full-width) and underscore digit separators
NOT_PLAIN_NUMBERS = ["\u0661\u0662", "\uff11\uff10", "1_000", "1_0", "\u0668"]


def error_lines(err):
    return [line for line in err.splitlines() if "error:" in line]


@st.composite
def config_specs(draw):
    """Any LinkSpec the config format can express, NLOS and k override
    included; the unfolded NLOS path shares the direct path's optics."""
    f = st.floats
    geometry = LinkGeometry(
        distance_m=draw(f(0.0, 500.0)),
        half_angle_deg=draw(f(0.01, 89.0)),
        tx_exit_diameter_m=draw(f(0.0, 0.1)),
        rx_aperture_m=draw(f(1e-3, 0.5)),
        pointing_offset_m=draw(f(0.0, 1.0)),
        k_override_m2=draw(st.none() | f(1e-3, 10.0)),
    )
    nlos = None
    if draw(st.booleans()):
        unfolded = replace(geometry, distance_m=draw(f(0.0, 500.0)),
                           k_override_m2=None)
        nlos = NlosPath(draw(f(0.0, 1.0)), unfolded)
    gain_min = draw(f(1.0, 1e4))
    v_min = draw(f(-5.0, 5.0))
    window_low = draw(f(0.01, 5.0))
    receiver = ReceiverChain(
        pmt_gain_range=(gain_min, gain_min * draw(f(1.5, 1e4))),
        lc_voltage_range=(v_min, v_min + draw(f(0.5, 10.0))),
        responsivity_v_per_w=draw(f(1e-3, 1e3)),
        lc_attenuation_range_db=draw(f(0.0, 40.0)),
        lc_steepness=draw(f(-5.0, 5.0)),
    )
    return LinkSpec(
        name=draw(st.text(string.ascii_letters + string.digits + "-_.",
                          min_size=1, max_size=20)),
        tx_power_w=draw(f(1e-3, 100.0)),
        water=WaterOptics.from_per_m(draw(f(0.0, 2.0))),
        geometry=geometry,
        modulation=ModulationScheme(draw(st.sampled_from([OOK, PPM4])),
                                    draw(f(1e3, 1e9))),
        budget_db=draw(f(1.0, 200.0)),
        receiver=receiver,
        fading=FadingSpec(draw(f(0.0, 5.0)), draw(f(0.0, 1.0)),
                          draw(f(0.0, 20.0))),
        nlos=nlos,
        sync_overhead_fraction=draw(f(0.0, 0.99)),
        iface_cap_bps=draw(f(1e3, 1e9)),
        frame_payload_bytes=draw(st.integers(46, 1500)),
        snr_offset_db=draw(f(-60.0, 60.0)),
        agc_window_v=(window_low, window_low * draw(f(1.5, 10.0))),
        interleaver_depth=draw(st.integers(1, 64)),
        outer_words_per_frame=draw(st.integers(1, 16)),
        sim_frames_per_second=draw(st.integers(1, 60)),
    )


class TestPresets:
    def test_green_preset_values(self, green):
        assert green.tx_power_w == 2.36
        assert green.geometry.half_angle_deg == 0.53
        assert green.geometry.rx_aperture_m == 0.046
        assert green.budget_db == 82.77
        assert green.modulation.kind == "ook"
        assert green.modulation.bit_rate_bps == 125e6
        assert green.water.c_db_per_m == 0.358

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
        assert blue_nlos.nlos.unfolded.distance_m == 34.0

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
        assert "[water]" in message

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
        ("c_db_per_m = 0.5\n", WaterOptics.from_db_per_m(0.5)),
        ("c_per_m = 0.1\n", WaterOptics.from_per_m(0.1)),
        ("c_per_m = 0.1\nc_db_per_m = 0.434\n", WaterOptics(0.1, 0.434)),
    ])
    def test_water_section_replaces_preset_pair(self, text, water):
        # the preset's other key used to stay behind and clash
        spec = parse_scenario("[water]\n" + text, preset="green-125M")
        assert spec.water == water
        assert spec.geometry == load_preset("green-125M").geometry

    def test_empty_water_section_keeps_preset_pair(self):
        assert parse_scenario("[water]\n", preset="green-125M") == \
            load_preset("green-125M")

    def test_inconsistent_water_pair_over_preset_rejected(self):
        with pytest.raises(ConfigError, match="c_db_per_m=0.9 inconsistent"):
            parse_scenario("[water]\nc_per_m = 0.1\nc_db_per_m = 0.9\n",
                           preset="green-125M")

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
        ("codec", "interleaver_depth", "int"),
        ("link", "sim_frames_per_second", "int"),
    ])
    def test_not_plain_number_rejected(self, section, key, kind, value):
        # float() and int() read these as numbers
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

    @given(config_specs())
    @settings(max_examples=200, deadline=None)
    def test_randomized_specs_roundtrip(self, spec):
        assert parse_scenario(render_scenario(spec)) == spec


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
        assert choices == dict.fromkeys(
            ["plan", "simulate", "monitor", "calibrate"], SHIPPED)

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

    def test_plan_non_finite_z_max_exit_2(self, capsys):
        # used to end in "error: math domain error"
        assert main(["plan", "--preset", "green-125M", "--z-max", "inf"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = error_lines(captured.err)
        assert len(lines) == 1
        assert "z_max" in lines[0]

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

    def test_monitor(self, capsys):
        assert main(["monitor", "--preset", "green-125M", "--epochs", "3",
                     "--duration-s", "2", "--seed", "5"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["epochs"] == 3
        assert len(payload["reports"]) == 3
        assert payload["max_pre_fec_ber"] < 1e-4

    def test_missing_inputs_exit_2(self, capsys):
        assert main(["simulate"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")

    def test_bad_config_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("[link]\nwarp = 9\n")
        assert main(["simulate", "--config", str(cfg)]) == 2
        assert "unknown key" in capsys.readouterr().err

    def test_calibrate(self, tmp_path, capsys):
        from uwoclink.agc import ReceiverChain
        chain = ReceiverChain()
        rows = []
        for p in (1e-5, 1e-4):
            for v in (0.0, 2.0, 4.0):
                for g in (1e3, 1e5):
                    rows.append(f"{p} {v} {g} {chain.amplitude_v(p, v, g)}")
        samples = tmp_path / "cal.txt"
        samples.write_text("\n".join(rows) + "\n")
        assert main(["calibrate", "--samples", str(samples)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["responsivity_v_per_w"] == pytest.approx(50.0, rel=1e-6)
        assert payload["n_samples"] == 12
        assert payload["samples_hash"]

    @pytest.mark.parametrize("section, key, command", [
        ("link", "budget_db", ["simulate", "--duration-s", "2"]),
        ("geometry", "distance_m", ["simulate", "--duration-s", "2"]),
        ("link", "budget_db", ["plan"]),
        ("water", "c_per_m", ["plan"]),
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

    @pytest.mark.parametrize("section, key, kind, value, command", [
        ("geometry", "distance_m", "float", "\u0661\u0662", ["plan"]),
        ("geometry", "distance_m", "float", "1_0", ["simulate", "--duration-s", "2"]),
        ("codec", "interleaver_depth", "int", "1_0", ["simulate", "--duration-s", "2"]),
        ("codec", "interleaver_depth", "int", "\u0668", ["plan"]),
    ])
    def test_not_plain_number_config_exit_2(self, tmp_path, capsys, section, key,
                                            kind, value, command):
        # each used to parse: distance_m = 12.0, interleaver_depth = 10 or 8
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"[{section}]\n{key} = {value}\n", encoding="utf-8")
        assert main([*command, "--preset", "green-125M", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert error_lines(captured.err) == [
            f"error: line 2: key '{key}' expects {kind}, got {value!r}"
        ]

    @pytest.mark.parametrize("field", [0, 3])
    @pytest.mark.parametrize("value", ["\u0661e-4", "1_000", "\uff12.0"])
    def test_calibrate_not_plain_number_exit_2(self, tmp_path, capsys, field, value):
        valid = pathlib.Path(__file__).parent.parent / "configs" / "calibration-example.txt"
        lines = valid.read_text().splitlines()
        parts = ["1e-4", "2.0", "1e3", "1.0"]
        parts[field] = value
        samples = tmp_path / "cal.txt"
        samples.write_text("\n".join([*lines, " ".join(parts)]) + "\n",
                           encoding="utf-8")
        assert main(["calibrate", "--samples", str(samples)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(error_lines(captured.err)) == 1
        assert f":{len(lines) + 1}: non-numeric field in" in captured.err

    @pytest.mark.parametrize("row", [
        "nan 1 1 1", "1e-4 2.0 1e3 inf", "1e-6 nan 1e5 1", "1e-5 0 -inf 0.5",
    ])
    def test_calibrate_non_finite_exit_2(self, tmp_path, capsys, row):
        valid = pathlib.Path(__file__).parent.parent / "configs" / "calibration-example.txt"
        lines = valid.read_text().splitlines()
        samples = tmp_path / "cal.txt"
        samples.write_text("\n".join([*lines[:4], row, *lines[4:]]) + "\n")
        assert main(["calibrate", "--samples", str(samples)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(error_lines(captured.err)) == 1
        assert "error: sample 4: " in captured.err
        assert "not finite" in captured.err

    @given(rows=st.lists(st.lists(st.one_of(
        st.sampled_from(["1e-5", "1e-4", "0", "2.0", "4.0", "1e3", "1e5", "0.5", "-1",
                         "nan", "inf", "1e308", "1e-308", "x", "#"]),
        st.floats(allow_nan=True, allow_infinity=True).map(repr),
        st.text(max_size=6),
    ), min_size=3, max_size=5).map(" ".join), max_size=14))
    @settings(max_examples=150, deadline=None)
    def test_fuzz_calibrate_reports_or_exits_2(self, rows):
        # any samples file gives strict JSON with exit 0, or exit 2 with one
        # error line; never a traceback
        out, err = io.StringIO(), io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            samples = pathlib.Path(tmp) / "cal.txt"
            samples.write_text("\n".join(rows) + "\n", encoding="utf-8")
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(["calibrate", "--samples", str(samples)])
        if code == 0:
            payload = json.loads(out.getvalue(), parse_constant=pytest.fail)
            assert payload["n_samples"] >= 8
        else:
            assert code == 2
            assert out.getvalue() == ""
            assert len(error_lines(err.getvalue())) == 1

    def test_calibrate_degenerate_exit_2(self, tmp_path, capsys):
        samples = tmp_path / "cal.txt"
        samples.write_text("\n".join(["1e-4 2.0 1e3 1.0"] * 10) + "\n")
        assert main(["calibrate", "--samples", str(samples)]) == 2
        assert "rank deficient" in capsys.readouterr().err


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
        monkeypatch.setattr("sys.stdin", io.StringIO(block + "\n"))
        assert main(["fec", "decode", "--code", "outer"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(error_lines(captured.err)) == 1
        assert "invalid hex block" in captured.err

    def test_encode_decode_pipeline(self, monkeypatch, capsys, codec):
        rng = np.random.default_rng(7)
        msg = rng.integers(0, 2, codec.outer.k).astype(np.uint8)
        monkeypatch.setattr("sys.stdin", io.StringIO(_bits_to_hex(msg) + "\n"))
        assert main(["fec", "encode", "--code", "outer"]) == 0
        cw_hex = capsys.readouterr().out.strip()

        # corrupt two bits, decode, expect recovery and exit 0
        cw = _hex_to_bits(cw_hex, codec.outer.n)
        cw[[10, 500]] ^= 1
        monkeypatch.setattr("sys.stdin", io.StringIO(_bits_to_hex(cw) + "\n"))
        assert main(["fec", "decode", "--code", "outer"]) == 0
        captured = capsys.readouterr()
        assert captured.out.strip() == _bits_to_hex(msg)
        assert "corrected=2" in captured.err

    def test_decode_failure_exit_1(self, monkeypatch, capsys, codec):
        rng = np.random.default_rng(8)
        cw = codec.inner.encode(rng.integers(0, 2, 1930).astype(np.uint8))
        cw[rng.choice(2040, 60, replace=False)] ^= 1
        monkeypatch.setattr("sys.stdin", io.StringIO(_bits_to_hex(cw) + "\n"))
        assert main(["fec", "decode", "--code", "inner"]) == 1
        assert "decode_failure" in capsys.readouterr().err
