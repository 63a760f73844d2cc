"""Sectioned key-value configuration for the command-line front end.

Config files use INI syntax with sections [scenario], [filter],
[experiment], and [output].  Operator-facing units are kilometres, knots,
and degrees; the builders below convert to SI.  Process-noise intensity
stays in m^2/s^3 (it has no operator-friendly unit).  ``KEYS`` is the one
table of keys: default text, parser and domain.  ``load_config`` checks
every key once, so a bad value fails before any command starts.
"""

from __future__ import annotations

import configparser
import hashlib
import math
from dataclasses import dataclass, field
from typing import Any, Callable

from .bench import Scenario, build_canonical_scenario
from .filters import PossibilityPFOptions
from .tma import PriorConfig

KNOT = 1852.0 / 3600.0  # metres per second
DEGREE = math.pi / 180.0  # radians


class ConfigError(ValueError):
    """Invalid configuration: unreadable file, bad syntax, or bad value."""


_BOOLEANS = {"true": True, "yes": True, "on": True, "1": True, "false": False, "no": False, "off": False, "0": False}


def _numbers(raw: str) -> list[float]:
    values = [float(part) for part in raw.split(",") if part.strip()]
    if not values:
        raise ValueError(raw)
    return values


# Parser name (as error messages print it) -> parser.
PARSERS: dict[str, Callable[[str], Any]] = {
    "a number": float,
    "an integer": int,
    "a boolean": lambda raw: _BOOLEANS[raw.strip().lower()],
    "comma-separated numbers": _numbers,
    "text": str.strip,
}


@dataclass(frozen=True)
class Domain:
    text: str
    holds: Callable[[Any], bool]


FINITE = Domain("finite", math.isfinite)
POSITIVE = Domain("positive and finite", lambda x: 0 < x < math.inf)
NONNEGATIVE = Domain("nonnegative and finite", lambda x: 0 <= x < math.inf)
POSITIVE_OR_INF = Domain("positive (inf allowed)", lambda x: x > 0)  # NaN fails


def at_least(k: int) -> Domain:
    return Domain(f"at least {k}", lambda n: n >= k)


def one_of(*choices: str) -> Domain:
    return Domain("one of " + ", ".join(choices), lambda s: s in choices)


@dataclass(frozen=True)
class Key:
    default: str  # hashed into every CSV header: changing it changes config_hash
    parser: str
    domain: Domain


KEYS: dict[str, dict[str, Key]] = {
    "scenario": {
        "scans":                 Key("40", "an integer", at_least(2)),
        "sample_time_s":         Key("40.0", "a number", POSITIVE),
        "target_range_km":       Key("10.0", "a number", POSITIVE),
        "target_bearing_deg":    Key("0.0", "a number", FINITE),
        "target_speed_kn":       Key("7.7754", "a number", NONNEGATIVE),   # 4.0 m/s
        "target_heading_deg":    Key("140.0", "a number", FINITE),
        "observer_speed_kn":     Key("14.5788", "a number", NONNEGATIVE),  # 7.5 m/s
        "observer_headings_deg": Key("70, 340, 70, 340", "comma-separated numbers",
                                     Domain("finite", lambda xs: all(map(math.isfinite, xs)))),
        "observer_leg_scans":    Key("10", "an integer", at_least(1)),
        "noise":                 Key("gaussian", "text", one_of("gaussian", "student-t")),
        "noise_sigma_deg":       Key("1.0", "a number", POSITIVE),
        "noise_dof":             Key("inf", "a number", POSITIVE_OR_INF),
        "process_noise":         Key("1e-3", "a number", NONNEGATIVE),     # run and table1 need > 0
        "deterministic_target":  Key("false", "a boolean", Domain("true/yes/on/1 or false/no/off/0", lambda b: True)),
    },
    "filter": {
        "kind":                    Key("possibility", "text", one_of("possibility", "standard")),
        "particles":               Key("5000", "an integer", at_least(1)),
        "sigma_deg":               Key("1.0", "a number", POSITIVE),
        "range_prior_km":          Key("10.0", "a number", POSITIVE),
        "range_prior_sigma_km":    Key("3.5", "a number", POSITIVE),
        "velocity_prior_sigma_kn": Key("5.0540", "a number", POSITIVE),    # 2.6 m/s
        "init_covariance":         Key("consistent", "text", one_of("consistent", "swapped")),
        "proposal":                Key("density", "text", one_of("density", "max-entropy")),
        "transition_weighting":    Key("ignorance", "text", one_of("ignorance", "gaussian")),
        "proposal_inflation":      Key("1.5", "a number", POSITIVE),
        "map_peak_cut":            Key("0.5", "a number", NONNEGATIVE),
    },
    "experiment": {
        "runs":        Key("100", "an integer", at_least(1)),
        "base_seed":   Key("20240501", "an integer", at_least(0)),
        "parallelism": Key("1", "an integer", at_least(1)),
        "n_grid":      Key("2000, 5000", "comma-separated numbers",
                           Domain("whole numbers >= 1", lambda xs: all(x >= 1 and x.is_integer() for x in xs))),
        "nu_grid":     Key("3, 5, 8, inf", "comma-separated numbers",
                           Domain("positive (inf allowed)", lambda xs: all(x > 0 for x in xs))),
    },
    "output": {
        "directory": Key(".", "text", Domain("a non-empty path", bool)),
    },
}


def _read(section: str, key: str):
    """An accessor that reads one parsed value."""
    return lambda self: self.parsed[section][key]


@dataclass
class Config:
    """Raw key texts (hashed) and their parsed, checked values."""

    values: dict[str, dict[str, str]]
    parsed: dict[str, dict[str, Any]]
    key_lines: dict[tuple[str, str], int] = field(default_factory=dict)

    def _fail(self, section: str, key: str, message: str):
        raise _error(section, key, self.key_lines, message)

    def _si(self, section: str, key: str, scale: float) -> float:
        """The value times ``scale``; fails naming the key if that leaves the key's domain."""
        value, domain = self.parsed[section][key] * scale, KEYS[section][key].domain
        if not domain.holds(value):
            self._fail(section, key, f"must be {domain.text} in SI units, got {value!r}")
        return value

    def scenario(self, filtering: bool = False) -> Scenario:
        """The configured scenario.

        ``filtering=True`` is for commands that run a filter: its transition
        noise must be nondegenerate, so process_noise = 0 is rejected here.
        The bound alone (``crlb``) accepts a noise-free target.
        """
        s = self.parsed["scenario"]
        if filtering and s["process_noise"] == 0:
            self._fail("scenario", "process_noise", "must be positive to run a filter (only crlb accepts 0)")
        range_m = self._si("scenario", "target_range_km", 1e3)
        self._si("scenario", "noise_sigma_deg", DEGREE)  # the library converts to radians
        self._si("filter", "sigma_deg", DEGREE)
        try:
            return build_canonical_scenario(
                scan_count=s["scans"],
                T=s["sample_time_s"],
                initial_range_m=range_m,
                initial_bearing_deg=s["target_bearing_deg"],
                target_speed=s["target_speed_kn"] * KNOT,
                target_heading_deg=s["target_heading_deg"],
                observer_speed=s["observer_speed_kn"] * KNOT,
                observer_headings_deg=tuple(s["observer_headings_deg"]),
                observer_leg_scans=s["observer_leg_scans"],
                q=s["process_noise"],
                noise_kind=s["noise"],
                noise_sigma_deg=s["noise_sigma_deg"],
                noise_nu=s["noise_dof"],
                filter_sigma_deg=self.parsed["filter"]["sigma_deg"],
                deterministic_target=s["deterministic_target"],
            )
        except ValueError as exc:
            # Every key is in its domain, so only the observer track as a whole
            # is left: it must manoeuvre, and its positions must not overflow.
            self._fail("scenario", "observer_headings_deg", f"{exc} (the track also depends on "
                       "observer_speed_kn, observer_leg_scans, sample_time_s and scans)")

    def prior(self) -> PriorConfig:
        v = self.parsed["filter"]["velocity_prior_sigma_kn"] * KNOT
        return PriorConfig(
            range_mean=self._si("filter", "range_prior_km", 1e3),
            range_sigma=self._si("filter", "range_prior_sigma_km", 1e3),
            vel_sigma=(v, v),
            covariance_form=self.parsed["filter"]["init_covariance"],
        )

    def filter_options(self) -> PossibilityPFOptions:
        names = ("proposal", "transition_weighting", "proposal_inflation", "map_peak_cut")
        return PossibilityPFOptions(**{name: self.parsed["filter"][name] for name in names})

    filter_kind = _read("filter", "kind")
    particles = _read("filter", "particles")
    runs = _read("experiment", "runs")
    base_seed = _read("experiment", "base_seed")
    parallelism = _read("experiment", "parallelism")
    nu_grid = _read("experiment", "nu_grid")
    output_directory = _read("output", "directory")

    def n_grid(self) -> list[int]:
        return [int(n) for n in self.parsed["experiment"]["n_grid"]]

    def hash(self) -> str:
        """Stable digest of the experiment configuration, for CSV headers.

        Output location is excluded: the same experiment written to two
        directories is the same experiment.
        """
        canon = "\n".join(
            f"{section}.{key}={self.values[section][key].strip()}"
            for section in sorted(self.values)
            if section != "output"
            for key in sorted(self.values[section])
        )
        return hashlib.sha256(canon.encode()).hexdigest()[:12]


def _error(section: str, key: str, key_lines: dict[tuple[str, str], int], message: str) -> ConfigError:
    line = key_lines.get((section, key))
    return ConfigError(f"[{section}] {key}" + (f" (line {line})" if line else "") + f": {message}")


def _key_line_map(text: str) -> dict[tuple[str, str], int]:
    lines, section = {}, None
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if stripped.startswith("[") and stripped.endswith("]"):
            section = stripped[1:-1].strip().lower()
        elif "=" in stripped and section is not None and not stripped.startswith(("#", ";")):
            lines[(section, stripped.split("=", 1)[0].strip().lower())] = lineno
    return lines


def _parse(section: str, key: str, raw: str, key_lines) -> Any:
    row = KEYS[section][key]
    try:
        value = PARSERS[row.parser](raw)
    except (KeyError, ValueError):
        raise _error(section, key, key_lines, f"expected {row.parser}, got {raw!r}") from None
    if not row.domain.holds(value):
        raise _error(section, key, key_lines, f"must be {row.domain.text}, got {raw!r}")
    return value


def load_config(path: str | None, overrides: list[str] | None = None) -> Config:
    """Load a config file (or pure defaults), apply --set overrides, check every key.

    Overrides use the form ``section.key=value``.  Unknown sections or keys
    and values outside their domain are errors naming the offending entry.
    """
    values = {section: {key: row.default for key, row in rows.items()} for section, rows in KEYS.items()}
    key_lines: dict[tuple[str, str], int] = {}

    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc.strerror}") from exc
        # No default section and no interpolation: [DEFAULT] is an unknown
        # section like any other, and values are read as --set reads them.
        parser = configparser.ConfigParser(
            inline_comment_prefixes=("#", ";"), default_section="", interpolation=None
        )
        try:
            parser.read_string(text, source=path)
        except configparser.Error as exc:
            raise ConfigError(f"config syntax error: {exc}") from exc
        key_lines = _key_line_map(text)
        for section in parser.sections():
            sec = section.lower()
            if sec not in values:
                raise ConfigError(f"unknown config section [{section}]")
            for key, value in parser.items(section):
                if key not in values[sec]:
                    raise _error(sec, key, key_lines, "unknown key")
                values[sec][key] = value

    for item in overrides or []:
        if "=" not in item or "." not in item.split("=", 1)[0]:
            raise ConfigError(f"override must look like section.key=value, got {item!r}")
        dotted, value = item.split("=", 1)
        section, key = dotted.split(".", 1)
        section, key = section.strip().lower(), key.strip().lower()
        if section not in values or key not in values[section]:
            raise ConfigError(f"unknown override key {section}.{key}")
        values[section][key] = value
        key_lines.pop((section, key), None)  # the override, not the file line, set it

    parsed = {
        section: {key: _parse(section, key, raw, key_lines) for key, raw in keys.items()}
        for section, keys in values.items()
    }
    return Config(values=values, parsed=parsed, key_lines=key_lines)
