"""Sectioned key-value scenario files and their LinkSpec materialization.

Format: ``[section]`` headers, ``key = value`` lines, ``#`` comments, blank
lines ignored. Unknown sections or keys are hard errors that name the
offender and its line. A preset, one of the ``presets/<name>.cfg`` files
shipped in the package, supplies base values; file keys override. A key
is required when its dataclass field has no default, and takes the default
otherwise. render/parse round-trip exactly for any config-expressible spec.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, fields
from importlib import resources

from .channel import FadingSpec, LinkGeometry, NlosPath
from .engine import LinkSpec
from .modem import ModulationScheme

_PRESET_DIR = resources.files(__package__) / "presets"


class ConfigError(ValueError):
    """Scenario file problem; message carries the key and line number."""


_FLOAT = "float"
_STR = "str"

# section -> key -> (value type, the LinkSpec attribute path it sets)
SCHEMA = {
    "link": {
        "name": (_STR, "name"),
        "tx_power_w": (_FLOAT, "tx_power_w"),
        "modulation": (_STR, "modulation.kind"),
        "bit_rate_bps": (_FLOAT, "modulation.bit_rate_bps"),
        "budget_db": (_FLOAT, "budget_db"),
        "snr_offset_db": (_FLOAT, "snr_offset_db"),
    },
    "water": {
        "c_db_per_m": (_FLOAT, "c_db_per_m"),
    },
    "geometry": {
        "distance_m": (_FLOAT, "geometry.distance_m"),
        "half_angle_deg": (_FLOAT, "geometry.half_angle_deg"),
        "rx_aperture_m": (_FLOAT, "geometry.rx_aperture_m"),
        "k_override_m2": (_FLOAT, "geometry.k_override_m2"),
        "nlos_reflectance": (_FLOAT, "nlos.reflectance"),
        "nlos_unfolded_distance_m": (_FLOAT, "nlos.unfolded_distance_m"),
    },
    "fading": {
        "sigma_db": (_FLOAT, "fading.sigma_db"),
        "burst_probability": (_FLOAT, "fading.burst_probability"),
        "burst_depth_db": (_FLOAT, "fading.burst_depth_db"),
    },
}

# the dataclass that a path's first name builds under LinkSpec
_PARTS = {"geometry": LinkGeometry, "modulation": ModulationScheme,
          "fading": FadingSpec, "nlos": NlosPath}


def _required(path: str) -> bool:
    """Whether no field along a SCHEMA path, from LinkSpec down, has a default."""
    names = path.split(".")
    owners = [LinkSpec, *(_PARTS[name] for name in names[:-1])]
    return all(field.default is MISSING and field.default_factory is MISSING
               for owner, name in zip(owners, names)
               for field in fields(owner) if field.name == name)


_REQUIRED = tuple((section, key) for section, keys in SCHEMA.items()
                  for key, (_, path) in keys.items() if _required(path))


def _parse_float(text: str) -> float:
    """``float(text)`` for plain ASCII numbers only.

    ``float()`` also reads other scripts' digits ('\u0661\u0662' is 12) and
    underscore digit separators ('1_0' is 10); both raise ``ValueError`` here.
    """
    if not text.isascii() or "_" in text:
        raise ValueError(f"not a plain ASCII number: {text!r}")
    return float(text)


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
            parsed = _parse_float(value) if kind == _FLOAT else value
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
    """``extra``'s keys over ``base``'s."""
    merged = {sec: dict(keys) for sec, keys in base.items()}
    for sec, keys in extra.items():
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


def build_spec(mapping: dict) -> LinkSpec:
    """Validate a merged mapping and build the LinkSpec and its ``_PARTS``.

    Keys that the mapping leaves out take their dataclass defaults.
    """
    missing = [
        f"[{sec}] {key}"
        for sec, key in _REQUIRED
        if mapping.get(sec, {}).get(key) is None
    ]
    if missing:
        raise ConfigError("missing required keys: " + ", ".join(missing))
    geometry = mapping.get("geometry", {})
    if ("nlos_reflectance" in geometry) != ("nlos_unfolded_distance_m" in geometry):
        raise ConfigError(
            "NLOS needs both nlos_reflectance and nlos_unfolded_distance_m")

    try:
        return LinkSpec(**{name: _PARTS[name](**part) if name in _PARTS else part
                           for name, part in _by_path(mapping).items()})
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
                value = getattr(value, name, None)  # None under an unset nlos
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
