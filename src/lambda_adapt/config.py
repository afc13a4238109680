"""INI-style run configuration for the command line tools.

A config file holds plain ``key = value`` lines in the sections
[system], [pulse], [grid], [mixture] and [bath], plus optional [sweep]
and [optimize] sections for the corresponding subcommands.  Every domain
invariant is re-validated on load by constructing the real model objects,
and unknown sections or keys are rejected outright so a typo cannot
silently fall back to a default.
"""

from __future__ import annotations

import io
import math
from configparser import ConfigParser, Error as ConfigParserError
from dataclasses import dataclass, replace
from pathlib import Path

from .errors import ConfigurationError
from .model import (FAMILIES, InitialMixture, LambdaSystem, PulseSpec,
                    SimGrid, make_pulse)
from .optimize import DRIVE_PARAMETERS, OBJECTIVES, SweepSpec
from .oracle import DiscreteBath

try:
    # hashlib loads OpenSSL's libcrypto, about 3.4 MB resident, to hash
    # a few hundred bytes: take CPython's built-in SHA-256 first
    from _sha2 import sha256
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10 and 3.11
    except ImportError:
        from hashlib import sha256

_WIDTH_KEY = {"exponential": "delta", "gaussian": "sigma",
              "rectangular": "tau"}


@dataclass(frozen=True)
class OptimizeSpec:
    """Bounds and objective for the optimize subcommand."""

    bounds: dict
    objective: str = "p_ab_infty"
    budget: int = 500


@dataclass(frozen=True)
class RunConfig:
    """Validated model objects built from one config file."""

    system: LambdaSystem
    pulse: PulseSpec
    mixture: InitialMixture
    bath: DiscreteBath
    grid: SimGrid | None
    sweep: SweepSpec | None
    optimize: OptimizeSpec | None
    sha256: str

    def make_grid(self) -> SimGrid:
        """The [grid] section's grid if present, else the default grid."""
        if self.grid is not None:
            return self.grid
        return SimGrid.auto(self.system, self.pulse)


def _float(section: str, key: str, raw: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise ConfigurationError(
            f"[{section}] {key} = {raw!r} is not a number") from None
    if not math.isfinite(value):
        raise ConfigurationError(
            f"[{section}] {key} = {raw!r} is not a finite number")
    return value


def _int(section: str, key: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigurationError(
            f"[{section}] {key} = {raw!r} is not an integer") from None


def _name(section: str, key: str, raw: str) -> str:
    return raw.strip().lower()


def _names(section: str, key: str, raw: str) -> tuple[str, ...]:
    names = tuple(name.strip().lower() for name in raw.split(",")
                  if name.strip())
    if not names:
        raise ConfigurationError(f"[{section}] {key} list is empty")
    return names


# every section's keys, each with the parser of its value
_KEYS = {
    "system": dict.fromkeys(("omega_a", "delta_ab", "gamma_a", "gamma_b"),
                            _float),
    "pulse": {"family": _name, "delta_l": _float,
              **dict.fromkeys(_WIDTH_KEY.values(), _float)},
    "grid": {"t_max": _float, "dt": _float},
    "mixture": {"p_a0": _float},
    "bath": {"n_modes": _int, "bandwidth": _float},
    "sweep": {"parameter": _name, "lo": _float, "hi": _float,
              "n_points": _int, "objective": _name},
    "optimize": {"parameters": _names, "objective": _name, "budget": _int,
                 **{f"{name}_{end}": _float for name in DRIVE_PARAMETERS
                    for end in ("lo", "hi")}},
}


def _values(parser: ConfigParser, section: str, required=()) -> dict:
    """The section's keys and their parsed values, {} if it is absent or
    empty; a section with keys must hold each ``required`` one."""
    keys = parser[section] if parser.has_section(section) else {}
    for key in required:
        if keys and key not in keys:
            raise ConfigurationError(
                f"[{section}] missing required key {key!r}")
    parse = _KEYS[section]
    return {key: parse[key](section, key, raw) for key, raw in keys.items()}


def _build_pulse(parser: ConfigParser, system: LambdaSystem) -> PulseSpec:
    if not parser.has_section("pulse"):
        raise ConfigurationError("missing required section [pulse]")
    values = _values(parser, "pulse")
    family = values.get("family", "")
    if family not in _WIDTH_KEY:
        raise ConfigurationError(
            f"[pulse] family must be one of {sorted(_WIDTH_KEY)}, "
            f"got {family!r}")
    width_key = _WIDTH_KEY[family]
    for key in _WIDTH_KEY.values():
        if key != width_key and key in values:
            raise ConfigurationError(
                f"[pulse] key {key!r} does not belong to the "
                f"{family} family")
    if width_key not in values:
        raise ConfigurationError(
            f"[pulse] family {family} requires the {width_key!r} key")
    envelope = FAMILIES[family](values[width_key])
    return make_pulse(envelope, system.omega_a + values.get("delta_l", 0.0))


def _build_optimize(values: dict) -> OptimizeSpec:
    bounds = {}
    for name in values["parameters"]:
        lo_key, hi_key = f"{name}_lo", f"{name}_hi"
        if lo_key not in values or hi_key not in values:
            raise ConfigurationError(
                f"[optimize] parameter {name!r} needs {lo_key} and {hi_key}")
        bounds[name] = (values[lo_key], values[hi_key])
    options = {key: values[key] for key in ("objective", "budget")
               if key in values}
    if "objective" in options and options["objective"] not in OBJECTIVES:
        raise ConfigurationError(
            f"[optimize] objective must be one of {OBJECTIVES}, "
            f"got {options['objective']!r}")
    return OptimizeSpec(bounds=bounds, **options)


def load_config(path) -> RunConfig:
    """Parse and validate a config file into model objects.

    The file is read as UTF-8, a leading byte-order mark dropped, with
    universal newlines, and ``sha256`` is the digest of its bytes as they
    are on disk.

    Raises
    ------
    ConfigurationError
        On unreadable or undecodable (not UTF-8) files, unknown
        sections or keys, missing required keys and malformed numbers.
        Domain violations (negative rates, p_a0 outside [0, 1], coarse
        grids...) raise the specific errors of the model constructors.
    """
    path = Path(path)
    try:
        data = path.read_bytes()
        # the mark goes after decoding, so an error's byte offset counts it
        text = data.decode("utf-8").removeprefix("\ufeff")
    except OSError as exc:
        raise ConfigurationError(f"cannot read config {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigurationError(
            f"cannot read config {path}: not UTF-8 "
            f"(byte {exc.start})") from None
    parser = ConfigParser(interpolation=None,
                          inline_comment_prefixes=("#", ";"))
    try:
        parser.read_file(io.StringIO(text, newline=None), source=str(path))
    except ConfigParserError as exc:
        # configparser quotes the offending lines on lines of their own
        message = " ".join(line.strip() for line in str(exc).splitlines())
        raise ConfigurationError(
            f"malformed config {path}: {message}") from exc
    for section in parser.sections():
        if section not in _KEYS:
            raise ConfigurationError(f"unknown config section [{section}]")
        for key in parser[section]:
            if key not in _KEYS[section]:
                raise ConfigurationError(
                    f"unknown key {key!r} in section [{section}]; "
                    f"allowed: {sorted(_KEYS[section])}")

    values = _values(parser, "system")
    if "omega_a" not in values:
        raise ConfigurationError("[system] omega_a is required")
    system = LambdaSystem(**values)
    pulse = _build_pulse(parser, system)
    mixture = InitialMixture(_values(parser, "mixture").get("p_a0", 1.0))
    bath = replace(DiscreteBath.default(system), **_values(parser, "bath"))
    # an empty optional section is an absent one
    grid = _values(parser, "grid")
    grid = SimGrid.auto(system, pulse, **grid) if grid else None
    sweep = _values(parser, "sweep", required=("parameter", "lo", "hi"))
    sweep = SweepSpec(**sweep) if sweep else None
    optimize = _values(parser, "optimize", required=("parameters",))
    optimize = _build_optimize(optimize) if optimize else None
    return RunConfig(system=system, pulse=pulse, mixture=mixture, bath=bath,
                     grid=grid, sweep=sweep, optimize=optimize,
                     sha256=sha256(data).hexdigest())
