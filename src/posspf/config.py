"""Sectioned key-value configuration for the command-line front end.

Config files use INI syntax with sections [scenario], [filter],
[experiment], and [output].  Operator-facing units are kilometres, knots,
and degrees; the builders below convert to SI, the only units the library
takes.  Process-noise intensity stays in m^2/s^3 (it has no
operator-friendly unit).  ``KEYS`` is the one table of keys: default text,
parser and domain.  ``load_config`` checks every key once, so a bad value
fails before any command starts.
"""

from __future__ import annotations

import math
import re
import sys
from dataclasses import dataclass, field, fields
from typing import Any, Callable

from .bench import FILTER_KINDS, MIN_NOISE_DOF, NoiseModel, ProcessNoiseError, Scenario
from .filters import PROPOSALS, TRANSITION_WEIGHTINGS, PossibilityPFOptions
from .tma import PriorConfig

KNOT = 1852.0 / 3600.0  # metres per second
DEGREE = math.pi / 180.0  # radians


class ConfigError(ValueError):
    """Invalid configuration: unreadable file, bad syntax, or bad value."""


def _numbers(raw: str) -> list[float]:
    values = [float(part) for part in raw.split(",") if part.strip()]
    if not values:
        raise ValueError(raw)
    return values


# Parser name (as error messages print it) -> parser.
PARSERS: dict[str, Callable[[str], Any]] = {
    "a number": float,
    "an integer": int,
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
NOISE_DOF = Domain(f"at least {MIN_NOISE_DOF} (inf allowed)", lambda x: x >= MIN_NOISE_DOF)  # NaN fails


def at_least(k: int) -> Domain:
    return Domain(f"at least {k}", lambda n: n >= k)


def between(lo: int, hi: int) -> Domain:
    return Domain(f"from {lo} to {hi}", lambda n: lo <= n <= hi)


# Count budgets, so that a typo fails at load and not deep in numpy or after
# hours: one particle set of MAX_PARTICLES holds 32 MB of states.
MAX_PARTICLES = 10**6
MAX_RUNS = 10**6
MAX_SCANS = 10**5


# The prior's position spread pairs the range scale with the cross-range scale
# range_prior_km * sigma_deg.  Measured over 4206 first bearings, its Cholesky
# factor fails from a ratio of 1e-8 (or 1e8) and never from 1e-7 to 1e7.
MAX_PRIOR_SCALE_RATIO = 1e6
# max-entropy water-pours the prior's computed possibility mass, which must be
# at least 1.  Within the ratio above it stays within 1.3e-4 of the exact mass
# (2 pi)^2 * range_sigma * (range_mean * sigma) * vel_sigma^2 at every first
# bearing measured, so an exact mass of 1.001 keeps it above 1.
MIN_MAX_ENTROPY_PRIOR_MASS = 1.001


def one_of(*choices: str) -> Domain:
    return Domain("one of " + ", ".join(choices), lambda s: s in choices)


@dataclass(frozen=True)
class Key:
    default: str  # hashed into every CSV header: changing it changes config_hash
    parser: str
    domain: Domain


KEYS: dict[str, dict[str, Key]] = {
    "scenario": {
        "scans":                 Key("40", "an integer", between(2, MAX_SCANS)),
        "sample_time_s":         Key("40.0", "a number", POSITIVE),
        "target_range_km":       Key("10.0", "a number", POSITIVE),
        "target_bearing_deg":    Key("0.0", "a number", FINITE),
        "target_speed_kn":       Key("7.775377969762419", "a number", NONNEGATIVE),  # 4.0 m/s
        "target_heading_deg":    Key("140.0", "a number", FINITE),
        "observer_speed_kn":     Key("14.578833693304535", "a number", NONNEGATIVE),  # 7.5 m/s
        "observer_headings_deg": Key("70, 340, 70, 340", "comma-separated numbers",
                                     Domain("finite", lambda xs: all(map(math.isfinite, xs)))),
        "observer_leg_scans":    Key("10", "an integer", at_least(1)),
        "noise":                 Key("gaussian", "text", one_of("gaussian", "student-t")),
        "noise_sigma_deg":       Key("1.0", "a number", POSITIVE),
        "noise_dof":             Key("inf", "a number", NOISE_DOF),
        "process_noise":         Key("1e-3", "a number", POSITIVE),
    },
    "filter": {
        "kind":                    Key("possibility", "text", one_of(*FILTER_KINDS)),
        "particles":               Key("5000", "an integer", between(1, MAX_PARTICLES)),
        "sigma_deg":               Key("1.0", "a number", POSITIVE),
        "range_prior_km":          Key("10.0", "a number", POSITIVE),
        "range_prior_sigma_km":    Key("3.5", "a number", POSITIVE),
        "velocity_prior_sigma_kn": Key("5.053995680345572", "a number", POSITIVE),  # 2.6 m/s
        "proposal":                Key("density", "text", one_of(*PROPOSALS)),
        "transition_weighting":    Key("ignorance", "text", one_of(*TRANSITION_WEIGHTINGS)),
        "proposal_inflation":      Key("1.5", "a number", POSITIVE),
        "map_peak_cut":            Key("0.5", "a number", NONNEGATIVE),
    },
    "experiment": {
        "runs":        Key("100", "an integer", between(1, MAX_RUNS)),
        "base_seed":   Key("20240501", "an integer", at_least(0)),
        "parallelism": Key("1", "an integer", at_least(1)),
        "n_grid":      Key("2000, 5000", "comma-separated numbers",
                           Domain(f"whole numbers from 1 to {MAX_PARTICLES}",
                                  lambda xs: all(1 <= x <= MAX_PARTICLES and x.is_integer() for x in xs))),
        "nu_grid":     Key("3, 5, 8, inf", "comma-separated numbers",
                           Domain(NOISE_DOF.text, lambda xs: all(map(NOISE_DOF.holds, xs)))),
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

    def scenario(self) -> Scenario:
        """The configured engagement in SI units; a process noise matrix, or the possibility filter's
        proposal built from it, that is not usable fails here naming sample_time_s or proposal_inflation."""
        s = self.parsed["scenario"]
        # Converted ahead of the try below, which would rename a ConfigError (a ValueError) raised here.
        si = dict(
            scan_count=s["scans"],
            T=s["sample_time_s"],
            initial_range=self._si("scenario", "target_range_km", 1e3),
            initial_bearing=s["target_bearing_deg"] * DEGREE,
            target_speed=s["target_speed_kn"] * KNOT,
            target_heading=s["target_heading_deg"] * DEGREE,
            observer_speed=s["observer_speed_kn"] * KNOT,
            observer_headings=tuple(h * DEGREE for h in s["observer_headings_deg"]),
            observer_leg_scans=s["observer_leg_scans"],
            q=s["process_noise"],
            true_noise=NoiseModel(self._si("scenario", "noise_sigma_deg", DEGREE),
                                  s["noise_dof"] if s["noise"] == "student-t" else math.inf),
            filter_noise=NoiseModel(self._si("filter", "sigma_deg", DEGREE)),
        )
        try:
            scenario = Scenario(**si)
        except ProcessNoiseError as exc:
            self._fail("scenario", "sample_time_s", "gives a process noise matrix that is not finite and positive "
                       f"definite ({exc.__cause__}); process_noise also shapes it")
        except ValueError as exc:
            # Every key is in its domain, so only the tracks as a whole are left: the
            # observer's must manoeuvre, and neither may overflow nor meet the other.
            self._fail("scenario", "observer_headings_deg", f"{exc} (the tracks also depend on observer_speed_kn, "
                       "observer_leg_scans, target_range_km, target_bearing_deg, target_speed_kn, "
                       "target_heading_deg, sample_time_s and scans)")
        try:
            self.filter_options().proposal_sampler(scenario.process_noise)
        except ValueError as exc:
            self._fail("filter", "proposal_inflation", "scales the process noise matrix to a proposal that "
                       "max-entropy cannot water-pour, or to a spread that is not finite and positive definite "
                       f"({exc}); sample_time_s and process_noise also shape it")
        return scenario

    def prior(self) -> PriorConfig:
        """The configured prior in SI units.  A spread that would not factor at some first bearing, and
        under max-entropy a possibility mass below 1, fail here naming sigma_deg and the prior keys."""
        prior = PriorConfig(
            range_mean=self._si("filter", "range_prior_km", 1e3),
            range_sigma=self._si("filter", "range_prior_sigma_km", 1e3),
            vel_sigma=self.parsed["filter"]["velocity_prior_sigma_kn"] * KNOT,
        )
        cross = prior.range_mean * self._si("filter", "sigma_deg", DEGREE)
        ratio = cross / prior.range_sigma
        # Products, not **, which raises OverflowError on a Python float.
        variances = (prior.range_sigma * prior.range_sigma, cross * cross, prior.vel_sigma * prior.vel_sigma)
        others = "range_prior_km, range_prior_sigma_km and velocity_prior_sigma_kn also shape it"
        if not (1 / MAX_PRIOR_SCALE_RATIO <= ratio <= MAX_PRIOR_SCALE_RATIO and min(variances) >= sys.float_info.min):
            self._fail("filter", "sigma_deg", f"gives a singular prior spread: range_prior_km * sigma_deg must be "
                       f"from {1 / MAX_PRIOR_SCALE_RATIO:g} to {MAX_PRIOR_SCALE_RATIO:g} times range_prior_sigma_km "
                       f"(it is {ratio:.6g} times) and no prior variance may underflow; {others}")
        mass = (2.0 * math.pi) ** 2 * prior.range_sigma * cross * prior.vel_sigma * prior.vel_sigma
        if self.parsed["filter"]["proposal"] == "max-entropy" and mass < MIN_MAX_ENTROPY_PRIOR_MASS:
            self._fail("filter", "sigma_deg", f"gives a prior whose possibility mass {mass:.6g} is below "
                       f"{MIN_MAX_ENTROPY_PRIOR_MASS}, which proposal = max-entropy cannot water-pour; {others}")
        return prior

    def filter_options(self) -> PossibilityPFOptions:
        return PossibilityPFOptions(**{f.name: self.parsed["filter"][f.name] for f in fields(PossibilityPFOptions)})

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

        Output location and parallelism are excluded: neither changes a
        result.
        """
        canon = "\n".join(
            f"{section}.{key}={self.values[section][key].strip()}"
            for section in sorted(self.values)
            if section != "output"
            for key in sorted(self.values[section])
            if (section, key) != ("experiment", "parallelism")
        )
        import hashlib  # here, not at module level: set-up never hashes

        return hashlib.sha256(canon.encode()).hexdigest()[:12]


def _error(section: str, key: str, key_lines: dict[tuple[str, str], int], message: str) -> ConfigError:
    line = key_lines.get((section, key))
    return ConfigError(f"[{section}] {key}" + (f" (line {line})" if line else "") + f": {message}")


def _key_line_map(text: str) -> dict[tuple[str, str], int]:
    """The line of each key, by configparser's rules: a comment starts at ``#`` or ``;``
    after whitespace, ``:`` ends a key as ``=`` does, and a deeper-indented line
    continues the value above it."""
    import configparser  # here and in load_config only: a config without a file never parses INI

    lines, section, key, indent = {}, None, None, 0
    for lineno, line in enumerate(text.split("\n"), start=1):
        value = re.split(r"(?:^|(?<=\s))[#;]", line, maxsplit=1)[0].strip()
        if not value:
            continue
        depth = len(line) - len(line.lstrip())
        if key is not None and depth > indent:
            continue
        indent, header = depth, configparser.ConfigParser.SECTCRE.match(value)
        if header:
            section, key = header.group("header").lower(), None
        elif section is not None:
            key = re.split("[=:]", value, maxsplit=1)[0].strip().lower()
            lines[(section, key)] = lineno
    return lines


def _parse(section: str, key: str, raw: str, key_lines) -> Any:
    row = KEYS[section][key]
    try:
        value = PARSERS[row.parser](raw)
    except ValueError:
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
        except UnicodeDecodeError as exc:  # a ValueError, not an OSError
            raise ConfigError(
                f"cannot read config file {path}: not UTF-8 text (byte {exc.object[exc.start]:#04x} at offset {exc.start})"
            ) from exc
        import configparser
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
