"""Parameter sweeps and derivative-free search over drive parameters.

The objectives are scalar figures of merit of a single-photon scattering
run: the asymptotic transfer probability ``p_ab_infty`` and the absorbed
drive energy in units of hbar omega_a, ``w_over_hw``.  Both are evaluated
from actual trajectories (not closed forms), so optima found here confirm
the analytic picture end to end: adaptation is maximal for a resonant,
narrowband drive with balanced decay rates.

Only derivative-free methods are used.  The objectives come out of
quadratures with deterministic errors of about 2e-9 and finite
differences below that scale are meaningless.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Callable, Mapping

import numpy as np
from scipy.optimize import minimize

from .dynamics import integrate_psi, p_ab_infty
from .errors import ParameterError, LambdaAdaptError, UnsupportedEnvelopeError
from .model import (Exponential, Gaussian, LambdaSystem, PulseSpec,
                    Rectangular, SimGrid, make_pulse)
from .thermo import drive_energy_flux

PARAMETERS = ("linewidth", "detuning", "rate_ratio", "family")
OBJECTIVES = ("p_ab_infty", "w_over_hw")
_FAMILY_NAMES = ("exponential", "gaussian", "rectangular")

# Relative convergence target for both search methods: the parameter
# interval (golden section) or simplex diameter (Nelder-Mead) must fall
# below this fraction of the initial search range.
CONVERGENCE_REL = 1e-4


def _max_workers(n_tasks: int) -> int:
    cap = os.environ.get("LAMBDA_ADAPT_THREADS", "")
    try:
        limit = int(cap) if cap else 0
    except ValueError:
        limit = 0
    if limit <= 0:
        limit = os.cpu_count() or 1
    return max(1, min(limit, n_tasks))


@dataclass(frozen=True)
class SweepSpec:
    """Grid specification for a one-parameter sweep.

    Parameters
    ----------
    parameter : str
        One of ``linewidth`` (envelope bandwidth), ``detuning`` (carrier
        minus transition frequency), ``rate_ratio`` (gamma_b / gamma_a at
        fixed gamma_a + gamma_b) or ``family`` (all three analytic
        envelope families, each swept over the bandwidth grid).
    lo, hi : float
        Grid endpoints, lo < hi.  Bandwidth-like parameters must be
        positive.
    n_points : int
        Grid size, at least 3.
    objective : str
        ``p_ab_infty`` or ``w_over_hw``.
    """

    parameter: str
    lo: float
    hi: float
    n_points: int = 21
    objective: str = "p_ab_infty"

    def __post_init__(self):
        if self.parameter not in PARAMETERS:
            raise ParameterError(
                f"unknown sweep parameter {self.parameter!r}; "
                f"expected one of {PARAMETERS}")
        if self.objective not in OBJECTIVES:
            raise ParameterError(
                f"unknown objective {self.objective!r}; "
                f"expected one of {OBJECTIVES}")
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)
                and self.lo < self.hi):
            raise ParameterError(
                f"need finite lo < hi, got [{self.lo}, {self.hi}]")
        if self.parameter in ("linewidth", "rate_ratio", "family") \
                and self.lo <= 0:
            raise ParameterError(
                f"{self.parameter} grid must be strictly positive, "
                f"lo = {self.lo}")
        if self.n_points < 3:
            raise ParameterError(
                f"n_points must be >= 3, got {self.n_points}")

    def grid(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, self.n_points)


@dataclass
class SweepPoint:
    """One evaluated grid point; ``error`` is set if evaluation failed."""

    value: float
    family: str
    objective: float
    error: str | None = None


@dataclass
class SweepResult:
    spec: SweepSpec
    points: tuple[SweepPoint, ...]

    def values(self) -> np.ndarray:
        return np.array([p.value for p in self.points])

    def objectives(self) -> np.ndarray:
        return np.array([p.objective for p in self.points])

    def as_rows(self) -> list[dict]:
        return [{"parameter": self.spec.parameter, "value": p.value,
                 "family": p.family, "objective": self.spec.objective,
                 "objective_value": p.objective, "error": p.error or ""}
                for p in self.points]


def _family_name(envelope) -> str:
    return type(envelope).__name__.lower()


def _with_bandwidth(envelope, width: float):
    """Rebuild an analytic envelope so its spectral scale equals width."""
    if isinstance(envelope, Exponential):
        return Exponential(linewidth=width)
    if isinstance(envelope, Gaussian):
        return Gaussian(sigma=1.0 / width, offset=envelope.offset)
    if isinstance(envelope, Rectangular):
        return Rectangular(duration=1.0 / width)
    raise UnsupportedEnvelopeError(
        f"cannot set the bandwidth of a {type(envelope).__name__} envelope")


def _envelope_from_name(name: str, width: float):
    if name == "exponential":
        return Exponential(linewidth=width)
    if name == "gaussian":
        return Gaussian(sigma=1.0 / width)
    if name == "rectangular":
        return Rectangular(duration=1.0 / width)
    raise ParameterError(f"unknown envelope family {name!r}")


def apply_parameters(system: LambdaSystem, pulse: PulseSpec,
                     params: Mapping[str, float]) -> tuple[LambdaSystem,
                                                           PulseSpec]:
    """Return (system, pulse) with the named drive parameters replaced.

    ``rate_ratio`` rescales gamma_a and gamma_b at fixed total,
    ``linewidth`` rebuilds the envelope at the given spectral scale and
    ``detuning`` moves the carrier relative to the a-branch transition.
    """
    for name in params:
        if name not in ("linewidth", "detuning", "rate_ratio"):
            raise ParameterError(f"unknown drive parameter {name!r}")
    sys2 = system
    if "rate_ratio" in params:
        r = float(params["rate_ratio"])
        if not r > 0:
            raise ParameterError(f"rate_ratio must be positive, got {r}")
        total = system.gamma_a + system.gamma_b
        sys2 = replace(system, gamma_a=total / (1.0 + r),
                       gamma_b=total * r / (1.0 + r))
    envelope = pulse.envelope
    if "linewidth" in params:
        w = float(params["linewidth"])
        if not w > 0:
            raise ParameterError(f"linewidth must be positive, got {w}")
        envelope = _with_bandwidth(envelope, w)
    carrier = pulse.carrier
    if "detuning" in params:
        carrier = sys2.omega_a + float(params["detuning"])
    return sys2, make_pulse(envelope, carrier, sys2)


def _evaluate(system: LambdaSystem, pulse: PulseSpec, objective: str) -> float:
    # to the settle time plus 10/Gamma: for the exponential envelope,
    # 20/linewidth, after which the drive carries e^{-20} of the transfer
    grid = SimGrid.auto(system, pulse,
                        t_max=pulse.settle_time() + 10.0 / system.gamma_total)
    traj = integrate_psi(system, pulse, grid)
    if objective == "p_ab_infty":
        return p_ab_infty(traj, system)
    if objective == "w_over_hw":
        return drive_energy_flux(traj, pulse, system)
    raise ParameterError(f"unknown objective {objective!r}")


def _resolve_objective(objective) -> Callable[[LambdaSystem, PulseSpec], float]:
    if callable(objective):
        return objective
    if objective in OBJECTIVES:
        return lambda sys_, pulse_: _evaluate(sys_, pulse_, objective)
    raise ParameterError(
        f"objective must be callable or one of {OBJECTIVES}, "
        f"got {objective!r}")


def sweep(spec: SweepSpec, system: LambdaSystem,
          pulse: PulseSpec) -> SweepResult:
    """Evaluate the objective over the grid, in deterministic order.

    Points failing to evaluate are annotated with the error message and
    carry a NaN objective; the sweep continues.  Grid points run on a
    thread pool capped by the LAMBDA_ADAPT_THREADS environment variable.
    """
    fn = _resolve_objective(spec.objective)
    if spec.parameter == "family":
        tasks = [(fam, v, {"linewidth": v})
                 for fam in _FAMILY_NAMES for v in spec.grid()]
    else:
        fam = _family_name(pulse.envelope)
        tasks = [(fam, v, {spec.parameter: v}) for v in spec.grid()]

    def run_one(task):
        fam, value, params = task
        try:
            if spec.parameter == "family":
                env = _envelope_from_name(fam, value)
                sys_v, pulse_v = system, make_pulse(env, pulse.carrier, system)
            else:
                sys_v, pulse_v = apply_parameters(system, pulse, params)
            return SweepPoint(value=float(value), family=fam,
                              objective=fn(sys_v, pulse_v))
        except LambdaAdaptError as exc:
            return SweepPoint(value=float(value), family=fam,
                              objective=float("nan"), error=str(exc))

    with ThreadPoolExecutor(max_workers=_max_workers(len(tasks))) as pool:
        points = tuple(pool.map(run_one, tasks))
    return SweepResult(spec=spec, points=points)


@dataclass
class TraceEntry:
    """One objective evaluation: parameter values and the result."""

    params: dict
    value: float

    def as_dict(self) -> dict:
        return {"params": dict(self.params), "value": self.value}


@dataclass
class MaximizeResult:
    """Best parameters found, with the full evaluation trace.

    ``boundary`` lists parameters whose optimum sits at a declared bound;
    the monochromatic limit shows up this way because the true optimum is
    a limit point, clamped at the linewidth floor.
    """

    params: dict
    value: float
    converged: bool
    boundary: tuple[str, ...]
    n_evals: int
    trace: tuple[TraceEntry, ...]

    def as_dict(self) -> dict:
        return {"params": dict(self.params), "value": self.value,
                "converged": self.converged, "boundary": list(self.boundary),
                "n_evals": self.n_evals,
                "trace": [t.as_dict() for t in self.trace]}


def _golden_max(f, lo: float, hi: float, tol_abs: float, budget: int):
    """Golden-section maximization on [lo, hi]; returns (x, converged)."""
    inv = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    x1 = b - inv * (b - a)
    x2 = a + inv * (b - a)
    f1, f2 = f(x1), f(x2)
    used = 2
    while (b - a) > tol_abs and used < budget:
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + inv * (b - a)
            f2 = f(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - inv * (b - a)
            f1 = f(x1)
        used += 1
    x = 0.5 * (a + b)
    return x, (b - a) <= tol_abs


def maximize(system: LambdaSystem, pulse: PulseSpec,
             bounds: Mapping[str, tuple[float, float]],
             objective="p_ab_infty", *, budget: int = 500,
             linewidth_floor: float | None = None) -> MaximizeResult:
    """Maximize the objective over 1 to 3 drive parameters within bounds.

    One parameter uses golden-section search; two or three use a
    Nelder-Mead simplex on the unit-normalized box.  Both stop when the
    bracket or simplex shrinks below 1e-4 of the initial range.  The
    search never evaluates outside the declared bounds, and every
    evaluation is recorded in the trace.

    The linewidth lower bound is clamped at ``linewidth_floor`` (default
    1e-3 of the total decay rate): the narrowband optimum is a limit, not
    an interior point, so it must be represented by a floor.
    """
    names = list(bounds)
    if not 1 <= len(names) <= 3:
        raise ParameterError(
            f"maximize expects 1 to 3 parameters, got {len(names)}")
    for name in names:
        if name not in ("linewidth", "detuning", "rate_ratio"):
            raise ParameterError(f"unknown drive parameter {name!r}")
    if linewidth_floor is None:
        linewidth_floor = 1e-3 * system.gamma_total
    box = {}
    for name in names:
        lo, hi = (float(bounds[name][0]), float(bounds[name][1]))
        if name == "linewidth":
            lo = max(lo, linewidth_floor)
        if name in ("linewidth", "rate_ratio") and lo <= 0:
            raise ParameterError(f"{name} lower bound must be positive")
        if not lo < hi:
            raise ParameterError(
                f"invalid bounds for {name}: [{lo}, {hi}]")
        box[name] = (lo, hi)

    fn = _resolve_objective(objective)
    trace: list[TraceEntry] = []

    def eval_at(params: dict) -> float:
        sys_p, pulse_p = apply_parameters(system, pulse, params)
        val = float(fn(sys_p, pulse_p))
        trace.append(TraceEntry(params=dict(params), value=val))
        return val

    if len(names) == 1:
        name = names[0]
        lo, hi = box[name]
        tol_abs = CONVERGENCE_REL * (hi - lo)
        x, converged = _golden_max(lambda v: eval_at({name: v}),
                                   lo, hi, tol_abs, budget)
        best = {name: x}
        value = eval_at(best)
    else:
        los = np.array([box[n][0] for n in names])
        his = np.array([box[n][1] for n in names])
        span = his - los

        def from_unit(u: np.ndarray) -> dict:
            u = np.clip(u, 0.0, 1.0)
            return {n: float(v) for n, v in zip(names, los + span * u)}

        def neg(u: np.ndarray) -> float:
            return -eval_at(from_unit(u))

        d = len(names)
        center = np.full(d, 0.5)
        simplex = [center]
        for i in range(d):
            vertex = center.copy()
            vertex[i] = 0.8
            simplex.append(vertex)
        res = minimize(neg, center, method="Nelder-Mead",
                       bounds=[(0.0, 1.0)] * d,
                       options={"initial_simplex": np.array(simplex),
                                "xatol": CONVERGENCE_REL,
                                "fatol": float("inf"),
                                "maxfev": budget, "adaptive": False})
        best = from_unit(res.x)
        value = eval_at(best)
        converged = bool(res.success)

    edge_tol = 10.0 * CONVERGENCE_REL
    boundary = tuple(
        n for n in names
        if best[n] - box[n][0] <= edge_tol * (box[n][1] - box[n][0])
        or box[n][1] - best[n] <= edge_tol * (box[n][1] - box[n][0]))
    return MaximizeResult(params=best, value=value, converged=converged,
                          boundary=boundary, n_evals=len(trace),
                          trace=tuple(trace))
