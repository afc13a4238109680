"""INI-style run configuration for the command line tools.

A config file holds plain ``key = value`` lines in the sections
[system], [pulse], [grid], [mixture] and [bath], plus optional [sweep]
and [optimize] sections for the corresponding subcommands.  Every domain
invariant is re-validated on load by constructing the real model objects,
and unknown sections or keys are rejected outright so a typo cannot
silently fall back to a default.
"""

from __future__ import annotations

import hashlib
import math
from configparser import ConfigParser, Error as ConfigParserError
from dataclasses import dataclass
from pathlib import Path

from .errors import ConfigurationError
from .model import (Exponential, Gaussian, InitialMixture, LambdaSystem,
                    PulseSpec, Rectangular, SimGrid, make_pulse)
from .optimize import OBJECTIVES, SweepSpec
from .oracle import DiscreteBath

_SECTION_KEYS = {
    "system": {"omega_a", "delta_ab", "gamma_a", "gamma_b"},
    "pulse": {"family", "delta", "sigma", "tau", "delta_l"},
    "grid": {"t_max", "dt"},
    "mixture": {"p_a0"},
    "bath": {"n_modes", "bandwidth"},
    "sweep": {"parameter", "lo", "hi", "n_points", "objective"},
    "optimize": {"parameters", "objective", "budget",
                 "linewidth_lo", "linewidth_hi",
                 "detuning_lo", "detuning_hi",
                 "rate_ratio_lo", "rate_ratio_hi"},
}

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


def _check_keys(parser: ConfigParser):
    for section in parser.sections():
        if section not in _SECTION_KEYS:
            raise ConfigurationError(f"unknown config section [{section}]")
        allowed = _SECTION_KEYS[section]
        for key in parser[section]:
            if key not in allowed:
                raise ConfigurationError(
                    f"unknown key {key!r} in section [{section}]; "
                    f"allowed: {sorted(allowed)}")


def _build_pulse(parser: ConfigParser, system: LambdaSystem) -> PulseSpec:
    if not parser.has_section("pulse"):
        raise ConfigurationError("missing required section [pulse]")
    sec = parser["pulse"]
    family = sec.get("family", "").strip().lower()
    if family not in _WIDTH_KEY:
        raise ConfigurationError(
            f"[pulse] family must be one of {sorted(_WIDTH_KEY)}, "
            f"got {family!r}")
    width_key = _WIDTH_KEY[family]
    for other, key in _WIDTH_KEY.items():
        if other != family and key in sec and key != width_key:
            raise ConfigurationError(
                f"[pulse] key {key!r} does not belong to the "
                f"{family} family")
    if width_key not in sec:
        raise ConfigurationError(
            f"[pulse] family {family} requires the {width_key!r} key")
    width = _float("pulse", width_key, sec[width_key])
    if family == "exponential":
        envelope = Exponential(linewidth=width)
    elif family == "gaussian":
        envelope = Gaussian(sigma=width)
    else:
        envelope = Rectangular(duration=width)
    delta_l = _float("pulse", "delta_l", sec.get("delta_l", "0"))
    return make_pulse(envelope, system.omega_a + delta_l, system)


def _build_grid(parser: ConfigParser, system: LambdaSystem,
                pulse: PulseSpec) -> SimGrid | None:
    if not parser.has_section("grid") or not dict(parser["grid"]):
        return None
    sec = parser["grid"]
    vals = {k: _float("grid", k, sec[k]) for k in sec}
    return SimGrid.auto(system, pulse, t_max=vals.get("t_max"),
                        dt=vals.get("dt"))


def _build_sweep(parser: ConfigParser) -> SweepSpec | None:
    if not parser.has_section("sweep") or not dict(parser["sweep"]):
        return None
    sec = parser["sweep"]
    for key in ("parameter", "lo", "hi"):
        if key not in sec:
            raise ConfigurationError(f"[sweep] missing required key {key!r}")
    return SweepSpec(
        parameter=sec["parameter"].strip().lower(),
        lo=_float("sweep", "lo", sec["lo"]),
        hi=_float("sweep", "hi", sec["hi"]),
        n_points=_int("sweep", "n_points", sec.get("n_points", "21")),
        objective=sec.get("objective", "p_ab_infty").strip().lower(),
    )


def _build_optimize(parser: ConfigParser) -> OptimizeSpec | None:
    if not parser.has_section("optimize") or not dict(parser["optimize"]):
        return None
    sec = parser["optimize"]
    if "parameters" not in sec:
        raise ConfigurationError("[optimize] missing required key 'parameters'")
    names = [p.strip().lower() for p in sec["parameters"].split(",")
             if p.strip()]
    if not names:
        raise ConfigurationError("[optimize] parameters list is empty")
    bounds = {}
    for name in names:
        lo_key, hi_key = f"{name}_lo", f"{name}_hi"
        if lo_key not in sec or hi_key not in sec:
            raise ConfigurationError(
                f"[optimize] parameter {name!r} needs {lo_key} and {hi_key}")
        bounds[name] = (_float("optimize", lo_key, sec[lo_key]),
                        _float("optimize", hi_key, sec[hi_key]))
    objective = sec.get("objective", "p_ab_infty").strip().lower()
    if objective not in OBJECTIVES:
        raise ConfigurationError(
            f"[optimize] objective must be one of {OBJECTIVES}, "
            f"got {objective!r}")
    return OptimizeSpec(bounds=bounds, objective=objective,
                        budget=_int("optimize", "budget",
                                    sec.get("budget", "500")))


def load_config(path) -> RunConfig:
    """Parse and validate a config file into model objects.

    Raises
    ------
    ConfigurationError
        On unreadable files, unknown sections or keys, missing required
        keys and malformed numbers.  Domain violations (negative rates,
        p_a0 outside [0, 1], coarse grids...) raise the specific errors
        of the model constructors.
    """
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigurationError(f"cannot read config {path}: {exc}") from exc
    parser = ConfigParser(interpolation=None,
                          inline_comment_prefixes=("#", ";"))
    try:
        parser.read_string(text, source=str(path))
    except ConfigParserError as exc:
        raise ConfigurationError(f"malformed config {path}: {exc}") from exc
    _check_keys(parser)

    if not parser.has_section("system") or "omega_a" not in parser["system"]:
        raise ConfigurationError("[system] omega_a is required")
    sec = parser["system"]
    system = LambdaSystem(
        omega_a=_float("system", "omega_a", sec["omega_a"]),
        delta_ab=_float("system", "delta_ab", sec.get("delta_ab", "0")),
        gamma_a=_float("system", "gamma_a", sec.get("gamma_a", "1")),
        gamma_b=_float("system", "gamma_b", sec.get("gamma_b", "1")),
    )
    pulse = _build_pulse(parser, system)

    p_a0 = 1.0
    if parser.has_section("mixture") and "p_a0" in parser["mixture"]:
        p_a0 = _float("mixture", "p_a0", parser["mixture"]["p_a0"])
    mixture = InitialMixture(p_a0=p_a0, p_b0=1.0 - p_a0)

    if parser.has_section("bath") and dict(parser["bath"]):
        bsec = parser["bath"]
        n_modes = _int("bath", "n_modes", bsec.get("n_modes", "2001"))
        if "bandwidth" in bsec:
            bandwidth = _float("bath", "bandwidth", bsec["bandwidth"])
        else:
            bandwidth = 40.0 * system.gamma_total
        bath = DiscreteBath(n_modes=n_modes, bandwidth=bandwidth)
    else:
        bath = DiscreteBath.default(system)

    grid = _build_grid(parser, system, pulse)
    return RunConfig(system=system, pulse=pulse, mixture=mixture, bath=bath,
                     grid=grid, sweep=_build_sweep(parser),
                     optimize=_build_optimize(parser),
                     sha256=hashlib.sha256(text.encode()).hexdigest())
