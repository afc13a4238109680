"""Seeded inputs for the benchmark workloads.

``build_plan(workload, seed, seconds)`` draws every parameter from
``random.Random(seed)`` and returns the command plan: one entry per CLI
command, each with the INI text the program will read and the drawn
parameters the output checks need.  The program itself only ever sees
the INI files written by ``write_inputs``.

Draws are never validated, skipped or redrawn here: a draw the model
constructors reject shows up as a failed command.

The batch size follows ``seconds`` through the per-command cost of the
seed commit on a 2-core x86 sandbox (COST_S below), so a run of the
seed code measures at least about ``seconds`` of work; a faster program
finishes the same fixed batch sooner.  The composition of each batch is
stratified (family, resonance, bath size cycle in a fixed order) so runs
with different seeds do the same kind of work.

This module uses only the standard library, so a fresh interpreter can
import it without paying for numpy.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

WORKLOADS = ("simulate", "narrowband", "oracle")
FAMILIES = ("exponential", "gaussian", "rectangular")
WIDTH_KEY = {"exponential": "delta", "gaussian": "sigma",
             "rectangular": "tau"}

# Seed-commit cost of one unit of each workload's batch, in seconds: one
# simulate command, one narrowband round (optimize + 2 sweeps), one
# oracle round (3 oracle-verify commands).
COST_S = {"simulate": 0.075, "narrowband": 9.5, "oracle": 37.0}
MIN_UNITS = {"simulate": 24, "narrowband": 1, "oracle": 1}

# Oracle bath sizes: 801 modes puts the forward run on the dense eigh
# path (dim 1603 <= 2100), 2001 modes on rk4 (dim 4003).  The Gaussian,
# which passes every check, runs on the eigh side next to the known
# exponential failure; the rectangular pulse (a known failure too, with
# the same deviation at either size) runs on the rk4 side.
ORACLE_BATHS = {"exponential": 801, "gaussian": 801, "rectangular": 2001}


def batch_units(workload: str, seconds: float) -> int:
    return max(MIN_UNITS[workload], math.ceil(seconds / COST_S[workload]))


def batch_cost(workload: str, seconds: float) -> float:
    """Seed-commit seconds of the batch a run of ``seconds`` plans."""
    return batch_units(workload, seconds) * COST_S[workload]


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return _log_range(rng.random(), lo, hi)


def _width_value(family: str, scale: float) -> float:
    """Envelope parameter whose spectral scale is ``scale``."""
    return scale if family == "exponential" else 1.0 / scale


def _ini(sections: dict) -> str:
    lines = []
    for name, body in sections.items():
        lines.append(f"[{name}]")
        lines.extend(f"{key} = {value}" for key, value in body.items())
        lines.append("")
    return "\n".join(lines)


def _repr(x: float) -> str:
    return repr(float(x))


def _stratified(rng: random.Random, n: int) -> list[float]:
    """n uniforms in [0, 1), one per stratum [k/n, (k+1)/n), shuffled.

    Every seed then covers each parameter range evenly, so the total
    work of a batch barely depends on the seed.
    """
    u = [(k + rng.random()) / n for k in range(n)]
    rng.shuffle(u)
    return u


def _log_range(u: float, lo: float, hi: float) -> float:
    return math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))


def _simulate_plan(rng: random.Random, units: int) -> list[dict]:
    # the 12-cycle family x resonance x delta_ab fixes the composition;
    # widths, rate ratios and detunings are stratified per family
    counts = {f: len(range(k, units, 3)) for k, f in enumerate(FAMILIES)}
    draws = {f: [iter(_stratified(rng, n)) for _ in range(3)]
             for f, n in counts.items()}
    plan = []
    for i in range(units):
        family = FAMILIES[i % 3]
        u_width, u_ratio, u_detune = (next(it) for it in draws[family])
        resonant = (i // 3) % 2 == 0
        delta_ab = 0.2 if (i // 6) % 2 else 0.0
        gamma_a = 1.0
        gamma_b = _log_range(u_ratio, 0.25, 4.0)
        gamma = gamma_a + gamma_b
        scale = gamma * _log_range(u_width, 0.3, 3.0)
        width = _width_value(family, scale)
        delta_l = 0.0 if resonant else \
            rng.choice((-1.0, 1.0)) * gamma * (0.25 + 0.75 * u_detune)
        omega_a = rng.uniform(30.0, 80.0)
        p_a0 = rng.uniform(0.2, 0.8)
        params = {"family": family, "width": width, "omega_a": omega_a,
                  "delta_ab": delta_ab, "gamma_a": gamma_a,
                  "gamma_b": gamma_b, "delta_l": delta_l, "p_a0": p_a0}
        plan.append(_entry(f"sim-{i:04d}", "simulate", params))
    return plan


def _narrowband_plan(rng: random.Random, units: int) -> list[dict]:
    # The optimize box is the default config's, so the Nelder-Mead path
    # (56 evaluations on the seed commit) does not change with the seed;
    # the seed moves the linewidth, the sweeps' rate ratio and detuning.
    plan = []
    for i in range(units):
        # linewidth ~1.25e-3 Gamma (Gamma = 2): ~760 k RK4 steps per
        # objective evaluation on the seed commit
        base = {"family": "exponential", "omega_a": rng.uniform(30.0, 80.0),
                "delta_ab": 0.0, "p_a0": 0.5}
        width = 2.5e-3 * rng.uniform(0.95, 1.05)
        opt = dict(base, width=width, gamma_a=1.0, gamma_b=1.0, delta_l=0.0,
                   optimize={"detuning": (-0.5, 0.5),
                             "rate_ratio": (0.25, 4.0)})
        plan.append(_entry(f"opt-{i:03d}", "optimize", opt))
        for j, detuned in enumerate((False, True)):
            ratio = _log_uniform(rng, 0.5, 2.0)
            lo = 2.5e-3 * rng.uniform(0.95, 1.05)
            delta_l = rng.choice((-1.0, 1.0)) * rng.uniform(0.05, 0.2) \
                if detuned else 0.0
            sw = dict(base, width=lo, gamma_a=2.0 / (1.0 + ratio),
                      gamma_b=2.0 * ratio / (1.0 + ratio), delta_l=delta_l,
                      sweep={"parameter": "linewidth", "lo": lo,
                             "hi": 2.0 * lo, "n_points": 21})
            plan.append(_entry(f"swp-{i:03d}-{j}", "sweep", sw))
    return plan


# Oracle pulse widths, per family, within 5-10% of the reference pulses:
# Exponential(0.5) (the documented oracle failure), Gaussian(1.2) (the
# default config) and Rectangular(2.0) (the narrowest rectangular pulse
# the tests certify; narrower ones put more than 1% of their spectrum
# outside the comb, which discretize_pulse refuses by design).  The cost
# of one command grows with the pulse's settle time (~1/width), and each
# run holds one command per family, so wider ranges would make the
# per-run median follow the seed.
ORACLE_WIDTHS = {"exponential": (0.475, 0.525), "gaussian": (1.14, 1.26),
                 "rectangular": (2.0, 2.2)}


def _oracle_plan(rng: random.Random, units: int) -> list[dict]:
    plan = []
    for i in range(units):
        for family in FAMILIES:
            params = {"family": family,
                      "width": rng.uniform(*ORACLE_WIDTHS[family]),
                      "omega_a": rng.uniform(30.0, 80.0),
                      "delta_ab": rng.choice((0.0, 0.2)), "gamma_a": 1.0,
                      "gamma_b": 1.0, "delta_l": 0.0,
                      "p_a0": rng.uniform(0.2, 0.8),
                      "n_modes": ORACLE_BATHS[family]}
            plan.append(_entry(f"orc-{i:03d}-{family[:3]}", "oracle-verify",
                               params))
    return plan


def _entry(cid: str, command: str, params: dict) -> dict:
    sections = {
        "system": {"omega_a": _repr(params["omega_a"]),
                   "delta_ab": _repr(params["delta_ab"]),
                   "gamma_a": _repr(params["gamma_a"]),
                   "gamma_b": _repr(params["gamma_b"])},
        "pulse": {"family": params["family"],
                  WIDTH_KEY[params["family"]]: _repr(params["width"]),
                  "delta_l": _repr(params["delta_l"])},
        "mixture": {"p_a0": _repr(params["p_a0"])},
    }
    if "n_modes" in params:
        sections["bath"] = {"n_modes": str(params["n_modes"])}
    if "sweep" in params:
        sw = params["sweep"]
        sections["sweep"] = {"parameter": sw["parameter"],
                             "lo": _repr(sw["lo"]), "hi": _repr(sw["hi"]),
                             "n_points": str(sw["n_points"]),
                             "objective": "p_ab_infty"}
    if "optimize" in params:
        box = params["optimize"]
        body = {"parameters": ", ".join(box), "objective": "p_ab_infty",
                "budget": "500"}
        for name, (lo, hi) in box.items():
            body[f"{name}_lo"] = _repr(lo)
            body[f"{name}_hi"] = _repr(hi)
        sections["optimize"] = body
    return {"id": cid, "command": command, "config": f"{cid}.ini",
            "params": params, "ini": _ini(sections)}


_BUILDERS = {"simulate": _simulate_plan, "narrowband": _narrowband_plan,
             "oracle": _oracle_plan}


def build_plan(workload: str, seed: int, seconds: float) -> list[dict]:
    rng = random.Random(f"{workload}:{seed}")
    return _BUILDERS[workload](rng, batch_units(workload, seconds))


def write_inputs(plan: list[dict], directory: Path):
    """Write one INI file per command plus ``plan.json`` into directory."""
    directory.mkdir(parents=True, exist_ok=True)
    for entry in plan:
        (directory / entry["config"]).write_text(entry["ini"])
    (directory / "plan.json").write_text(json.dumps(plan, indent=1))
