"""Sectioned key-value scenario files and their LinkSpec materialization.

Format: ``[section]`` headers, ``key = value`` lines, ``#`` comments, blank
lines ignored. Unknown sections or keys are hard errors that name the
offender and its line. A preset, one of the ``presets/<name>.cfg`` files
shipped in the package, supplies base values; file keys override. A key
that neither gives takes its dataclass default. render/parse round-trip
exactly for any config-expressible spec.
"""

from __future__ import annotations

import math
from dataclasses import fields
from functools import cache
from importlib import resources
from typing import get_type_hints

from .channel import NlosPath, WaterOptics
from .engine import LinkSpec

_PRESET_DIR = resources.files(__package__) / "presets"


class ConfigError(ValueError):
    """Scenario file problem; message carries the key and line number."""


_FLOAT = "float"
_INT = "int"
_STR = "str"

# section -> key -> (value type, the LinkSpec attribute path it sets); a
# trailing 0 or 1 in a path names one end of a range tuple
SCHEMA = {
    "link": {
        "name": (_STR, "name"),
        "tx_power_w": (_FLOAT, "tx_power_w"),
        "modulation": (_STR, "modulation.kind"),
        "bit_rate_bps": (_FLOAT, "modulation.bit_rate_bps"),
        "budget_db": (_FLOAT, "budget_db"),
        "sync_overhead_fraction": (_FLOAT, "sync_overhead_fraction"),
        "iface_cap_bps": (_FLOAT, "iface_cap_bps"),
        "frame_payload_bytes": (_INT, "frame_payload_bytes"),
        "snr_offset_db": (_FLOAT, "snr_offset_db"),
        "sim_frames_per_second": (_INT, "sim_frames_per_second"),
    },
    "water": {
        "c_per_m": (_FLOAT, "water.c_per_m"),
        "c_db_per_m": (_FLOAT, "water.c_db_per_m"),
    },
    "geometry": {
        "distance_m": (_FLOAT, "geometry.distance_m"),
        "half_angle_deg": (_FLOAT, "geometry.half_angle_deg"),
        "tx_exit_diameter_m": (_FLOAT, "geometry.tx_exit_diameter_m"),
        "rx_aperture_m": (_FLOAT, "geometry.rx_aperture_m"),
        "pointing_offset_m": (_FLOAT, "geometry.pointing_offset_m"),
        "k_override_m2": (_FLOAT, "geometry.k_override_m2"),
        "nlos_reflectance": (_FLOAT, "nlos.reflectance"),
        "nlos_unfolded_distance_m": (_FLOAT, "nlos.unfolded.distance_m"),
    },
    "codec": {
        "interleaver_depth": (_INT, "interleaver_depth"),
        "outer_words_per_frame": (_INT, "outer_words_per_frame"),
    },
    "fading": {
        "sigma_db": (_FLOAT, "fading.sigma_db"),
        "burst_probability": (_FLOAT, "fading.burst_probability"),
        "burst_depth_db": (_FLOAT, "fading.burst_depth_db"),
    },
    "agc": {
        "pmt_gain_min": (_FLOAT, "receiver.pmt_gain_range.0"),
        "pmt_gain_max": (_FLOAT, "receiver.pmt_gain_range.1"),
        "lc_voltage_min": (_FLOAT, "receiver.lc_voltage_range.0"),
        "lc_voltage_max": (_FLOAT, "receiver.lc_voltage_range.1"),
        "responsivity_v_per_w": (_FLOAT, "receiver.responsivity_v_per_w"),
        "lc_attenuation_range_db": (_FLOAT, "receiver.lc_attenuation_range_db"),
        "lc_steepness": (_FLOAT, "receiver.lc_steepness"),
        "window_low_v": (_FLOAT, "agc_window_v.0"),
        "window_high_v": (_FLOAT, "agc_window_v.1"),
    },
}

_REQUIRED = (
    ("link", "name"),
    ("link", "tx_power_w"),
    ("link", "modulation"),
    ("link", "bit_rate_bps"),
    ("link", "budget_db"),
    ("geometry", "distance_m"),
    ("geometry", "half_angle_deg"),
    ("geometry", "rx_aperture_m"),
)


def parse_number(text: str, convert=float):
    """``convert(text)`` for plain ASCII numbers only.

    ``float()`` and ``int()`` also read other scripts' digits ('\u0661\u0662'
    is 12) and underscore digit separators ('1_0' is 10); both raise
    ``ValueError`` here.
    """
    if not text.isascii() or "_" in text:
        raise ValueError(f"not a plain ASCII number: {text!r}")
    return convert(text)


def parse_mapping(text: str) -> dict:
    """Parse sectioned key-value text into {section: {key: value}}."""
    mapping: dict[str, dict] = {}
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in SCHEMA:
                raise ConfigError(f"line {lineno}: unknown section [{section}]")
            mapping.setdefault(section, {})
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        if section is None:
            raise ConfigError(f"line {lineno}: key outside any [section]")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in SCHEMA[section]:
            raise ConfigError(
                f"line {lineno}: unknown key '{key}' in section [{section}]"
            )
        if key in mapping[section]:
            raise ConfigError(
                f"line {lineno}: duplicate key '{key}' in section [{section}]"
            )
        kind, _ = SCHEMA[section][key]
        try:
            if kind == _FLOAT:
                parsed = parse_number(value, float)
            elif kind == _INT:
                parsed = parse_number(value, int)
            else:
                parsed = value
        except ValueError:
            raise ConfigError(
                f"line {lineno}: key '{key}' expects {kind}, got {value!r}"
            ) from None
        if kind == _FLOAT and not math.isfinite(parsed):
            raise ConfigError(
                f"line {lineno}: key '{key}' expects a finite float, got {value!r}"
            )
        mapping[section][key] = parsed
    return mapping


def _overlay(base: dict, extra: dict) -> dict:
    """``extra``'s keys over ``base``'s; a ``[water]`` section that sets
    either key replaces the pair, since each key fixes the other."""
    merged = {sec: dict(keys) for sec, keys in base.items()}
    for sec, keys in extra.items():
        if sec == "water" and keys:
            merged[sec] = {}
        merged.setdefault(sec, {}).update(keys)
    return merged


def _by_path(mapping: dict) -> dict:
    """The mapping's values nested along their SCHEMA paths."""
    nested: dict = {}
    for section, keys in mapping.items():
        for key, value in keys.items():
            *parents, leaf = SCHEMA[section][key][1].split(".")
            node = nested
            for name in parents:
                node = node.setdefault(name, {})
            node[leaf] = value
    return nested


@cache
def _field_types(cls) -> dict:
    return get_type_hints(cls)


def _build(cls, values: dict):
    """``cls(**values)``; a nested dict first becomes its field's dataclass,
    or the field's default range tuple with the ends it names replaced."""
    types = _field_types(cls)
    kwargs = dict(values)
    for f in fields(cls):
        part = values.get(f.name)
        if isinstance(part, dict):
            kwargs[f.name] = (
                tuple(part.get(str(i), end) for i, end in enumerate(f.default))
                if isinstance(f.default, tuple) else _build(types[f.name], part))
    return cls(**kwargs)


def build_spec(mapping: dict) -> LinkSpec:
    """Validate a merged mapping and materialize the LinkSpec.

    Keys that the mapping leaves out take their dataclass defaults.
    """
    missing = [
        f"[{sec}] {key}"
        for sec, key in _REQUIRED
        if mapping.get(sec, {}).get(key) is None
    ]
    water = mapping.get("water", {})
    if "c_per_m" not in water and "c_db_per_m" not in water:
        missing.append("[water] c_per_m or c_db_per_m")
    if missing:
        raise ConfigError("missing required keys: " + ", ".join(missing))
    geometry = mapping.get("geometry", {})
    if ("nlos_reflectance" in geometry) != ("nlos_unfolded_distance_m" in geometry):
        raise ConfigError(
            "NLOS needs both nlos_reflectance and nlos_unfolded_distance_m")

    values = _by_path(mapping)
    try:
        if "c_per_m" not in water:
            values["water"] = WaterOptics.from_db_per_m(water["c_db_per_m"])
        elif "c_db_per_m" not in water:
            values["water"] = WaterOptics.from_per_m(water["c_per_m"])
        if "nlos" in values:
            # the bounce path has the direct path's optics but not its k
            unfolded = {**values["geometry"], "k_override_m2": None,
                        **values["nlos"]["unfolded"]}
            values["nlos"] = _build(NlosPath, {**values["nlos"],
                                               "unfolded": unfolded})
        return _build(LinkSpec, values)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"invalid configuration: {exc}") from exc


def preset_names() -> tuple[str, ...]:
    """Names of the shipped presets, one per ``presets/<name>.cfg`` file."""
    return tuple(sorted(entry.name.removesuffix(".cfg")
                        for entry in _PRESET_DIR.iterdir()
                        if entry.name.endswith(".cfg")))


def parse_scenario(text: str, preset: str | None = None) -> LinkSpec:
    """Parse scenario text, optionally overlaid on a named preset."""
    mapping = parse_mapping(text)
    if preset is not None:
        names = preset_names()
        if preset not in names:
            raise ConfigError(
                f"unknown preset {preset!r} (known: {', '.join(names)})")
        preset_text = (_PRESET_DIR / f"{preset}.cfg").read_text(encoding="utf-8")
        mapping = _overlay(parse_mapping(preset_text), mapping)
    return build_spec(mapping)


def load_preset(name: str) -> LinkSpec:
    return parse_scenario("", preset=name)


def spec_to_mapping(spec: LinkSpec) -> dict:
    """{section: {key: value}} for every key whose path holds a value."""
    mapping: dict[str, dict] = {}
    for section, keys in SCHEMA.items():
        for key, (_, path) in keys.items():
            value = spec
            for name in path.split("."):
                if value is not None:
                    value = value[int(name)] if name.isdigit() else getattr(value, name)
            if value is not None:
                mapping.setdefault(section, {})[key] = value
    return mapping


def render_scenario(spec: LinkSpec) -> str:
    """Canonical text form; parse(render(spec)) == spec."""
    lines = []
    for section, keys in spec_to_mapping(spec).items():
        lines.append(f"[{section}]")
        lines += [f"{key} = {value}" for key, value in keys.items()]
        lines.append("")
    return "\n".join(lines)
