"""Sectioned key-value configuration for the command-line front end.

Config files use INI syntax with sections [scenario], [filter],
[experiment], and [output].  Operator-facing units are kilometres, knots,
and degrees; everything is converted to SI at parse time.  Process-noise
intensity stays in m^2/s^3 (it has no operator-friendly unit).
Every key has a default, so an empty file is a valid configuration.
"""

from __future__ import annotations

import configparser
import hashlib
import math
from dataclasses import dataclass, field

from .bench import Scenario, build_canonical_scenario
from .filters import PossibilityPFOptions
from .tma import PriorConfig

KNOT = 1852.0 / 3600.0  # metres per second


class ConfigError(ValueError):
    """Invalid configuration: unreadable file, bad syntax, or bad value."""


_DEFAULTS = {
    "scenario": {
        "scans": "40",
        "sample_time_s": "40.0",
        "target_range_km": "10.0",
        "target_bearing_deg": "0.0",
        "target_speed_kn": "7.7754",       # 4.0 m/s
        "target_heading_deg": "140.0",
        "observer_speed_kn": "14.5788",    # 7.5 m/s
        "observer_headings_deg": "70, 340, 70, 340",
        "observer_leg_scans": "10",
        "noise": "gaussian",
        "noise_sigma_deg": "1.0",
        "noise_dof": "inf",
        "process_noise": "1e-3",
        "deterministic_target": "false",
    },
    "filter": {
        "kind": "possibility",
        "particles": "5000",
        "sigma_deg": "1.0",
        "range_prior_km": "10.0",
        "range_prior_sigma_km": "3.5",
        "velocity_prior_sigma_kn": "5.0540",  # 2.6 m/s
        "init_covariance": "consistent",
        "proposal": "density",
        "transition_weighting": "ignorance",
        "proposal_inflation": "1.5",
        "map_peak_cut": "0.5",
    },
    "experiment": {
        "runs": "100",
        "base_seed": "20240501",
        "parallelism": "1",
        "n_grid": "2000, 5000",
        "nu_grid": "3, 5, 8, inf",
    },
    "output": {
        "directory": ".",
    },
}


@dataclass
class Config:
    """Fully resolved configuration with SI-unit accessors."""

    values: dict[str, dict[str, str]]
    key_lines: dict[tuple[str, str], int] = field(default_factory=dict)

    # -- low-level typed getters ------------------------------------------------
    def _raw(self, section: str, key: str) -> str:
        return self.values[section][key]

    def _fail(self, section: str, key: str, message: str):
        line = self.key_lines.get((section, key))
        where = f" (line {line})" if line else ""
        raise ConfigError(f"[{section}] {key}{where}: {message}")

    def get_float(self, section: str, key: str) -> float:
        raw = self._raw(section, key)
        try:
            return float(raw)
        except ValueError:
            self._fail(section, key, f"expected a number, got {raw!r}")

    def get_int(self, section: str, key: str) -> int:
        raw = self._raw(section, key)
        try:
            return int(raw)
        except ValueError:
            self._fail(section, key, f"expected an integer, got {raw!r}")

    def get_bool(self, section: str, key: str) -> bool:
        raw = self._raw(section, key).strip().lower()
        if raw in ("true", "yes", "1", "on"):
            return True
        if raw in ("false", "no", "0", "off"):
            return False
        self._fail(section, key, f"expected a boolean, got {raw!r}")

    def get_choice(self, section: str, key: str, choices) -> str:
        raw = self._raw(section, key).strip()
        if raw not in choices:
            self._fail(section, key, f"expected one of {sorted(choices)}, got {raw!r}")
        return raw

    def get_float_list(self, section: str, key: str) -> list[float]:
        raw = self._raw(section, key)
        try:
            return [float(part.strip()) for part in raw.split(",") if part.strip()]
        except ValueError:
            self._fail(section, key, f"expected comma-separated numbers, got {raw!r}")

    # -- domain objects ---------------------------------------------------------
    def scenario(self) -> Scenario:
        try:
            return build_canonical_scenario(
                scan_count=self.get_int("scenario", "scans"),
                T=self.get_float("scenario", "sample_time_s"),
                initial_range_m=self.get_float("scenario", "target_range_km") * 1e3,
                initial_bearing_deg=self.get_float("scenario", "target_bearing_deg"),
                target_speed=self.get_float("scenario", "target_speed_kn") * KNOT,
                target_heading_deg=self.get_float("scenario", "target_heading_deg"),
                observer_speed=self.get_float("scenario", "observer_speed_kn") * KNOT,
                observer_headings_deg=tuple(self.get_float_list("scenario", "observer_headings_deg")),
                observer_leg_scans=self.get_int("scenario", "observer_leg_scans"),
                q=self.get_float("scenario", "process_noise"),
                noise_kind=self.get_choice("scenario", "noise", ("gaussian", "student-t")),
                noise_sigma_deg=self.get_float("scenario", "noise_sigma_deg"),
                noise_nu=self.get_float("scenario", "noise_dof"),
                filter_sigma_deg=self.get_float("filter", "sigma_deg"),
                deterministic_target=self.get_bool("scenario", "deterministic_target"),
            )
        except ConfigError:
            raise
        except ValueError as exc:
            raise ConfigError(f"invalid scenario: {exc}") from exc

    def prior(self) -> PriorConfig:
        v = self.get_float("filter", "velocity_prior_sigma_kn") * KNOT
        try:
            return PriorConfig(
                range_mean=self.get_float("filter", "range_prior_km") * 1e3,
                range_sigma=self.get_float("filter", "range_prior_sigma_km") * 1e3,
                vel_sigma=(v, v),
                covariance_form=self.get_choice("filter", "init_covariance", ("consistent", "swapped")),
            )
        except ConfigError:
            raise
        except ValueError as exc:
            raise ConfigError(f"invalid prior: {exc}") from exc

    def filter_options(self) -> PossibilityPFOptions:
        try:
            return PossibilityPFOptions(
                proposal=self.get_choice("filter", "proposal", ("density", "max-entropy")),
                transition_weighting=self.get_choice(
                    "filter", "transition_weighting", ("ignorance", "gaussian")
                ),
                proposal_inflation=self.get_float("filter", "proposal_inflation"),
                map_peak_cut=self.get_float("filter", "map_peak_cut"),
            )
        except ConfigError:
            raise
        except ValueError as exc:
            raise ConfigError(f"invalid filter options: {exc}") from exc

    def filter_kind(self) -> str:
        return self.get_choice("filter", "kind", ("possibility", "standard"))

    def particles(self) -> int:
        n = self.get_int("filter", "particles")
        if n < 1:
            self._fail("filter", "particles", "must be at least 1")
        return n

    def runs(self) -> int:
        r = self.get_int("experiment", "runs")
        if r < 1:
            self._fail("experiment", "runs", "must be at least 1")
        return r

    def base_seed(self) -> int:
        return self.get_int("experiment", "base_seed")

    def parallelism(self) -> int:
        p = self.get_int("experiment", "parallelism")
        if p < 1:
            self._fail("experiment", "parallelism", "must be at least 1")
        return p

    def n_grid(self) -> list[int]:
        grid = self.get_float_list("experiment", "n_grid")
        if not grid or not all(x >= 1 and x.is_integer() for x in grid):
            self._fail("experiment", "n_grid", f"needs positive integer particle counts, got {grid}")
        return [int(x) for x in grid]

    def nu_grid(self) -> list[float]:
        grid = self.get_float_list("experiment", "nu_grid")
        if not grid or any(nu <= 0 for nu in grid):
            self._fail("experiment", "nu_grid", "needs positive degrees of freedom")
        return grid

    def output_directory(self) -> str:
        return self._raw("output", "directory")

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


def _key_line_map(text: str) -> dict[tuple[str, str], int]:
    lines = {}
    section = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith(("#", ";")):
            continue
        if stripped.startswith("[") and stripped.endswith("]"):
            section = stripped[1:-1].strip().lower()
            continue
        if "=" in stripped and section is not None:
            key = stripped.split("=", 1)[0].strip().lower()
            lines[(section, key)] = lineno
    return lines


def load_config(path: str | None, overrides: list[str] | None = None) -> Config:
    """Load a config file (or pure defaults), then apply --set overrides.

    Overrides use the form ``section.key=value``.  Unknown sections or keys
    are errors, naming the offending entry.
    """
    values = {section: dict(keys) for section, keys in _DEFAULTS.items()}
    key_lines: dict[tuple[str, str], int] = {}

    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc.strerror}") from exc
        parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
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
                    line = key_lines.get((sec, key))
                    where = f" (line {line})" if line else ""
                    raise ConfigError(f"unknown key [{section}] {key}{where}")
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

    return Config(values=values, key_lines=key_lines)
