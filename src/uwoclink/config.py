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
from dataclasses import replace
from importlib import resources

from .agc import ReceiverChain
from .channel import FadingSpec, LinkGeometry, NlosPath, WaterOptics
from .engine import LinkSpec
from .modem import OOK, ModulationScheme

_PRESET_DIR = resources.files(__package__) / "presets"


class ConfigError(ValueError):
    """Scenario file problem; message carries the key and line number."""


_FLOAT = "float"
_INT = "int"
_STR = "str"

# section -> key -> value type
SCHEMA = {
    "link": {
        "name": _STR,
        "tx_power_w": _FLOAT,
        "modulation": _STR,
        "bit_rate_bps": _FLOAT,
        "budget_db": _FLOAT,
        "sync_overhead_fraction": _FLOAT,
        "iface_cap_bps": _FLOAT,
        "frame_payload_bytes": _INT,
        "snr_offset_db": _FLOAT,
        "sim_frames_per_second": _INT,
    },
    "water": {
        "c_per_m": _FLOAT,
        "c_db_per_m": _FLOAT,
    },
    "geometry": {
        "distance_m": _FLOAT,
        "half_angle_deg": _FLOAT,
        "tx_exit_diameter_m": _FLOAT,
        "rx_aperture_m": _FLOAT,
        "pointing_offset_m": _FLOAT,
        "k_override_m2": _FLOAT,
        "nlos_reflectance": _FLOAT,
        "nlos_unfolded_distance_m": _FLOAT,
    },
    "codec": {
        "interleaver_depth": _INT,
        "outer_words_per_frame": _INT,
    },
    "fading": {
        "sigma_db": _FLOAT,
        "burst_probability": _FLOAT,
        "burst_depth_db": _FLOAT,
    },
    "agc": {
        "pmt_gain_min": _FLOAT,
        "pmt_gain_max": _FLOAT,
        "lc_voltage_min": _FLOAT,
        "lc_voltage_max": _FLOAT,
        "responsivity_v_per_w": _FLOAT,
        "lc_attenuation_range_db": _FLOAT,
        "lc_steepness": _FLOAT,
        "window_low_v": _FLOAT,
        "window_high_v": _FLOAT,
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
        kind = SCHEMA[section][key]
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
    merged = {sec: dict(keys) for sec, keys in base.items()}
    for sec, keys in extra.items():
        merged.setdefault(sec, {}).update(keys)
    return merged


def _dataclass_defaults() -> dict:
    """Every optional key's default, read back from the dataclass fields.

    The placeholders fill only the required keys, which ``build_spec``
    checks before it reads a default.
    """
    placeholder = LinkSpec(name="", tx_power_w=1.0, water=WaterOptics(0.0, 0.0),
                           geometry=LinkGeometry(1.0, 1.0),
                           modulation=ModulationScheme(OOK, 1.0), budget_db=1.0)
    return spec_to_mapping(placeholder)


def build_spec(mapping: dict) -> LinkSpec:
    """Validate a merged mapping and materialize the LinkSpec."""
    missing = [
        f"[{sec}] {key}"
        for sec, key in _REQUIRED
        if mapping.get(sec, {}).get(key) is None
    ]
    water_sec = mapping.get("water", {})
    if water_sec.get("c_per_m") is None and water_sec.get("c_db_per_m") is None:
        missing.append("[water] c_per_m or c_db_per_m")
    if missing:
        raise ConfigError("missing required keys: " + ", ".join(missing))

    defaults = _dataclass_defaults()

    def get(sec: str, key: str):
        value = mapping.get(sec, {}).get(key)
        if value is None:
            value = defaults[sec].get(key)
        return value

    try:
        if water_sec.get("c_per_m") is None:
            water = WaterOptics.from_db_per_m(water_sec["c_db_per_m"])
        elif water_sec.get("c_db_per_m") is None:
            water = WaterOptics.from_per_m(water_sec["c_per_m"])
        else:
            water = WaterOptics(water_sec["c_per_m"], water_sec["c_db_per_m"])

        geometry = LinkGeometry(
            distance_m=get("geometry", "distance_m"),
            half_angle_deg=get("geometry", "half_angle_deg"),
            tx_exit_diameter_m=get("geometry", "tx_exit_diameter_m"),
            rx_aperture_m=get("geometry", "rx_aperture_m"),
            pointing_offset_m=get("geometry", "pointing_offset_m"),
            k_override_m2=get("geometry", "k_override_m2"),
        )
        nlos = None
        reflectance = get("geometry", "nlos_reflectance")
        unfolded_z = get("geometry", "nlos_unfolded_distance_m")
        if reflectance is not None or unfolded_z is not None:
            if reflectance is None or unfolded_z is None:
                raise ConfigError(
                    "NLOS needs both nlos_reflectance and nlos_unfolded_distance_m"
                )
            unfolded = replace(geometry, distance_m=unfolded_z, k_override_m2=None)
            nlos = NlosPath(reflectance=reflectance, unfolded=unfolded)

        receiver = ReceiverChain(
            pmt_gain_range=(get("agc", "pmt_gain_min"), get("agc", "pmt_gain_max")),
            lc_voltage_range=(get("agc", "lc_voltage_min"),
                              get("agc", "lc_voltage_max")),
            responsivity_v_per_w=get("agc", "responsivity_v_per_w"),
            lc_attenuation_range_db=get("agc", "lc_attenuation_range_db"),
            lc_steepness=get("agc", "lc_steepness"),
        )

        return LinkSpec(
            name=get("link", "name"),
            tx_power_w=get("link", "tx_power_w"),
            water=water,
            geometry=geometry,
            modulation=ModulationScheme(get("link", "modulation"),
                                        get("link", "bit_rate_bps")),
            budget_db=get("link", "budget_db"),
            receiver=receiver,
            fading=FadingSpec(
                sigma_db=get("fading", "sigma_db"),
                burst_probability=get("fading", "burst_probability"),
                burst_depth_db=get("fading", "burst_depth_db"),
            ),
            nlos=nlos,
            sync_overhead_fraction=get("link", "sync_overhead_fraction"),
            iface_cap_bps=get("link", "iface_cap_bps"),
            frame_payload_bytes=get("link", "frame_payload_bytes"),
            snr_offset_db=get("link", "snr_offset_db"),
            agc_window_v=(get("agc", "window_low_v"), get("agc", "window_high_v")),
            interleaver_depth=get("codec", "interleaver_depth"),
            outer_words_per_frame=get("codec", "outer_words_per_frame"),
            sim_frames_per_second=get("link", "sim_frames_per_second"),
        )
    except ConfigError:
        raise
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
    mapping = {
        "link": {
            "name": spec.name,
            "tx_power_w": spec.tx_power_w,
            "modulation": spec.modulation.kind,
            "bit_rate_bps": spec.modulation.bit_rate_bps,
            "budget_db": spec.budget_db,
            "sync_overhead_fraction": spec.sync_overhead_fraction,
            "iface_cap_bps": spec.iface_cap_bps,
            "frame_payload_bytes": spec.frame_payload_bytes,
            "snr_offset_db": spec.snr_offset_db,
            "sim_frames_per_second": spec.sim_frames_per_second,
        },
        "water": {
            "c_per_m": spec.water.c_per_m,
            "c_db_per_m": spec.water.c_db_per_m,
        },
        "geometry": {
            "distance_m": spec.geometry.distance_m,
            "half_angle_deg": spec.geometry.half_angle_deg,
            "tx_exit_diameter_m": spec.geometry.tx_exit_diameter_m,
            "rx_aperture_m": spec.geometry.rx_aperture_m,
            "pointing_offset_m": spec.geometry.pointing_offset_m,
        },
        "codec": {
            "interleaver_depth": spec.interleaver_depth,
            "outer_words_per_frame": spec.outer_words_per_frame,
        },
        "fading": {
            "sigma_db": spec.fading.sigma_db,
            "burst_probability": spec.fading.burst_probability,
            "burst_depth_db": spec.fading.burst_depth_db,
        },
        "agc": {
            "pmt_gain_min": spec.receiver.pmt_gain_range[0],
            "pmt_gain_max": spec.receiver.pmt_gain_range[1],
            "lc_voltage_min": spec.receiver.lc_voltage_range[0],
            "lc_voltage_max": spec.receiver.lc_voltage_range[1],
            "responsivity_v_per_w": spec.receiver.responsivity_v_per_w,
            "lc_attenuation_range_db": spec.receiver.lc_attenuation_range_db,
            "lc_steepness": spec.receiver.lc_steepness,
            "window_low_v": spec.agc_window_v[0],
            "window_high_v": spec.agc_window_v[1],
        },
    }
    if spec.geometry.k_override_m2 is not None:
        mapping["geometry"]["k_override_m2"] = spec.geometry.k_override_m2
    if spec.nlos is not None:
        mapping["geometry"]["nlos_reflectance"] = spec.nlos.reflectance
        mapping["geometry"]["nlos_unfolded_distance_m"] = spec.nlos.unfolded.distance_m
    return mapping


def render_scenario(spec: LinkSpec) -> str:
    """Canonical text form; parse(render(spec)) == spec."""
    mapping = spec_to_mapping(spec)
    lines = []
    for section in SCHEMA:
        keys = mapping.get(section)
        if not keys:
            continue
        lines.append(f"[{section}]")
        for key in SCHEMA[section]:
            if key in keys:
                lines.append(f"{key} = {keys[key]}")
        lines.append("")
    return "\n".join(lines)
