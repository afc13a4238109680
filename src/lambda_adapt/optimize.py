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
from dataclasses import dataclass, replace
from typing import Callable, Mapping

import numpy as np

from .dynamics import integrate_psi, p_ab_infty
from .entropy import _p_ab_range
from .errors import LambdaAdaptError, NumericalConsistencyError, ParameterError
from .model import (FAMILIES, MAX_GRID_NODES, LambdaSystem, PulseSpec,
                    SimGrid, make_pulse)
from .thermo import drive_energy_flux

# The drive parameters a sweep or a search sets, each with whether it
# must stay positive; a ``family`` sweep sets the linewidth.
DRIVE_PARAMETERS = {"linewidth": True, "detuning": False, "rate_ratio": True}
PARAMETERS = (*DRIVE_PARAMETERS, "family")
OBJECTIVES = ("p_ab_infty", "w_over_hw")

# Relative convergence target of the search: it stops once the simplex,
# on the sine-mapped coordinates v, is no wider than 2 CONVERGENCE_REL in
# any v, which bounds its width in each parameter by this fraction of
# the parameter's range (|dx/dv| <= (hi - lo) / 2).
CONVERGENCE_REL = 1e-4

# A parameter within this fraction of its range from a bound is reported
# as on that bound (``MaximizeResult.boundary``), and probed inward before
# the search counts as done.
EDGE_REL = 10.0 * CONVERGENCE_REL

# Floor of maximize's linewidth bounds, in units of the total decay rate.
LINEWIDTH_FLOOR = 1e-3


def _check_range(name: str, lo: float, hi: float, positive: bool):
    """Refuse [lo, hi] unless lo < hi with a finite span hi - lo (so both
    ends finite), and lo > 0 if ``positive``; a NaN end fails."""
    if not lo < hi:
        raise ParameterError(f"{name} range needs lo < hi, got [{lo}, {hi}]")
    if not math.isfinite(hi - lo):
        raise ParameterError(
            f"{name} range span hi - lo overflows, got [{lo}, {hi}]")
    if positive and not lo > 0:
        raise ParameterError(f"{name} range must be positive, got lo = {lo}")


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
        Grid endpoints, lo < hi, with a finite span hi - lo.
        Bandwidth-like parameters must be positive.
    n_points : int
        Grid size, from 3 to MAX_GRID_NODES.
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
        _check_range(self.parameter, self.lo, self.hi,
                     self.parameter == "family"
                     or DRIVE_PARAMETERS[self.parameter])
        if not 3 <= self.n_points <= MAX_GRID_NODES:
            raise ParameterError(
                f"n_points must be >= 3 and <= MAX_GRID_NODES = "
                f"{MAX_GRID_NODES:.3g}, got {self.n_points}")

    def grid(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, self.n_points)


@dataclass
class SweepPoint:
    """One evaluated grid point; ``error`` is set if evaluation failed."""

    value: float
    family: str
    objective: float
    error: str | None = None


def _family_name(envelope) -> str:
    return type(envelope).__name__.lower()


def apply_parameters(system: LambdaSystem, pulse: PulseSpec,
                     params: Mapping[str, float]) -> tuple[LambdaSystem,
                                                           PulseSpec]:
    """Return (system, pulse) with the named drive parameters replaced.

    ``rate_ratio`` rescales gamma_a and gamma_b at fixed total,
    ``linewidth`` rebuilds the envelope at the given spectral scale and
    ``detuning`` moves the carrier relative to the a-branch transition.
    """
    params = {name: float(value) for name, value in params.items()}
    for name, value in params.items():
        if name not in DRIVE_PARAMETERS:
            raise ParameterError(f"unknown drive parameter {name!r}")
        if DRIVE_PARAMETERS[name] and not value > 0:
            raise ParameterError(f"{name} must be positive, got {value}")
    sys2 = system
    if "rate_ratio" in params:
        r = params["rate_ratio"]
        total = system.gamma_a + system.gamma_b
        sys2 = replace(system, gamma_a=total / (1.0 + r),
                       gamma_b=total * r / (1.0 + r))
    envelope = pulse.envelope
    if "linewidth" in params:
        envelope = envelope.at_scale(params["linewidth"])
    carrier = pulse.carrier
    if "detuning" in params:
        carrier = sys2.omega_a + params["detuning"]
    return sys2, make_pulse(envelope, carrier)


def _evaluate(system: LambdaSystem, pulse: PulseSpec, objective: str) -> float:
    # simulate's default grid, so a point's objective is what simulate
    # writes for that drive
    traj = integrate_psi(system, pulse, SimGrid.auto(system, pulse))
    if objective == "w_over_hw":
        value = drive_energy_flux(traj, pulse, system)
        if math.isfinite(value):
            return value
    else:
        value = p_ab_infty(traj, system)
        lo, hi = _p_ab_range(system)
        if lo <= value <= hi:
            return value
    raise NumericalConsistencyError(
        f"{objective} = {value} is out of range: the run overflowed or "
        "lost its precision")


def _resolve_objective(objective) -> Callable[[LambdaSystem, PulseSpec], float]:
    if callable(objective):
        return objective
    if objective in OBJECTIVES:
        return lambda sys_, pulse_: _evaluate(sys_, pulse_, objective)
    raise ParameterError(
        f"objective must be callable or one of {OBJECTIVES}, "
        f"got {objective!r}")


def sweep(spec: SweepSpec, system: LambdaSystem,
          pulse: PulseSpec) -> tuple[SweepPoint, ...]:
    """One ``SweepPoint`` per grid value, in deterministic order.

    Points failing to evaluate are annotated with the error message and
    carry a NaN objective; the sweep continues.  Points run one after
    another on the calling thread, in grid order (family by family for
    a ``family`` sweep): a point costs about a millisecond of small
    numpy calls, too little for worker threads to win back what they
    spend contending for the interpreter lock.
    """
    fn = _resolve_objective(spec.objective)
    if spec.parameter == "family":
        # each family, at spectral scale 1, swept over the linewidth grid
        name = "linewidth"
        bases = [replace(pulse, envelope=family(1.0))
                 for family in FAMILIES.values()]
    else:
        name, bases = spec.parameter, [pulse]
    tasks = [(base, v) for base in bases for v in spec.grid()]

    def run_one(task):
        base, value = task
        fam = _family_name(base.envelope)
        try:
            sys_v, pulse_v = apply_parameters(system, base, {name: value})
            return SweepPoint(value=float(value), family=fam,
                              objective=fn(sys_v, pulse_v))
        except LambdaAdaptError as exc:
            return SweepPoint(value=float(value), family=fam,
                              objective=float("nan"), error=str(exc))

    return tuple(map(run_one, tasks))


@dataclass
class TraceEntry:
    """One objective evaluation: parameter values and the result."""

    params: dict
    value: float


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


class _BudgetSpent(Exception):
    """The evaluation budget ran out inside a Nelder-Mead step."""


def _nelder_mead(f, simplex: np.ndarray, xatol: float, budget: int):
    """Minimize f over R^d from the given initial simplex.

    Returns (x, f(x), converged) for the best vertex x.  The steps are
    those of scipy's unbounded Nelder-Mead
    (``minimize(method="Nelder-Mead")`` with ``fatol=inf``,
    ``maxfev=budget``, ``adaptive=False``), evaluation for evaluation:
    reflection 1, expansion 2, contraction and shrink 1/2; the budget
    checked before every evaluation; the simplex reordered by
    ``np.argsort`` after each step.  It stops once no vertex is more
    than xatol from the best in any coordinate; converged means it
    stopped with budget to spare.
    """
    sim = np.array(simplex, dtype=float)
    n = sim.shape[1]
    fsim = np.full(n + 1, np.inf)
    calls = 0

    def call(x: np.ndarray) -> float:
        nonlocal calls
        if calls >= budget:
            raise _BudgetSpent
        calls += 1
        return f(x)

    def sort():
        order = np.argsort(fsim)
        return sim[order], fsim[order]

    try:
        for k in range(n + 1):
            fsim[k] = call(sim[k])
    except _BudgetSpent:
        pass
    sim, fsim = sort()
    while calls < budget:
        if np.max(np.abs(sim[1:] - sim[0])) <= xatol:
            break
        xbar = np.add.reduce(sim[:-1], 0) / n
        try:
            xr = 2 * xbar - sim[-1]
            fxr = call(xr)
            if fxr < fsim[0]:
                xe = 3 * xbar - 2 * sim[-1]
                fxe = call(xe)
                sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            else:
                if fxr < fsim[-1]:
                    xc = 1.5 * xbar - 0.5 * sim[-1]
                    fxc = call(xc)
                    keep = fxc <= fxr
                else:
                    xc = 0.5 * xbar + 0.5 * sim[-1]
                    fxc = call(xc)
                    keep = fxc < fsim[-1]
                if keep:
                    sim[-1], fsim[-1] = xc, fxc
                else:
                    for j in range(1, n + 1):
                        sim[j] = sim[0] + 0.5 * (sim[j] - sim[0])
                        fsim[j] = call(sim[j])
        except _BudgetSpent:
            pass
        sim, fsim = sort()
    return sim[0], fsim[0], calls < budget


def _inward_probe_improves(f, v: np.ndarray, f_v: float,
                           budget: int) -> bool:
    """Whether f falls below f_v at v with one coordinate that lies
    within EDGE_REL of its range from a face moved CONVERGENCE_REL of its
    range inward; those coordinates are probed in turn, within the
    budget, until one does."""
    s = np.sin(v)
    for i in np.flatnonzero(np.abs(s) >= 1.0 - 2.0 * EDGE_REL)[:budget]:
        probe = v.copy()
        probe[i] = np.arcsin(s[i] - np.copysign(2.0 * CONVERGENCE_REL, s[i]))
        if f(probe) < f_v:
            return True
    return False


def maximize(system: LambdaSystem, pulse: PulseSpec,
             bounds: Mapping[str, tuple[float, float]],
             objective="p_ab_infty", *, budget: int = 500) -> MaximizeResult:
    """Maximize the objective over 1 to 3 drive parameters within bounds.

    One search serves any count: the Nelder-Mead simplex of
    ``_nelder_mead`` on unbounded coordinates v, each parameter mapped
    into its box as x = lo + (hi - lo)(1 + sin v) / 2 (MINUIT's
    transform for bounded parameters; James & Roos, Comput. Phys.
    Commun. 10, 343 (1975)).  Every v maps into the box, bounds included,
    so the simplex never folds onto a face, and the search evaluates
    nowhere else.  It starts from the box center, v = 0, with one
    vertex per parameter at x = lo + 0.8 (hi - lo), and stops once the
    simplex is no wider than 2 CONVERGENCE_REL in any v, at most
    CONVERGENCE_REL of each range in x.  Every face is a stationary point
    in v, so the simplex can shrink onto, or next to, a face that the
    objective falls toward.  So a search that converges with parameters
    within EDGE_REL of their range from a face probes them in turn, each
    moved CONVERGENCE_REL of its range inward, one evaluation each, and
    only if a probe improves on the vertex does it run once more from
    that vertex (evaluated again), with the same steps and the budget
    left; the better vertex is kept, and the search counts as converged
    if the restart converged or stayed within CONVERGENCE_REL of each
    range of where the first search stopped.  An optimum on a face or in
    a corner costs one probe per face, not the rest of the budget.  Every
    evaluation is recorded in the trace, once: the best value comes back
    with its vertex and is not evaluated again, so ``n_evals`` never
    exceeds the budget.

    The linewidth lower bound is clamped at LINEWIDTH_FLOOR times the
    total decay rate: the narrowband optimum is a limit, not an interior
    point, so it must be represented by a floor.
    """
    if budget < 1:
        raise ParameterError(f"budget must be at least 1, got {budget}")
    names = list(bounds)
    if not 1 <= len(names) <= 3:
        raise ParameterError(
            f"maximize expects 1 to 3 parameters, got {len(names)}")
    box = {}
    for name in names:
        if name not in DRIVE_PARAMETERS:
            raise ParameterError(f"unknown drive parameter {name!r}")
        lo, hi = (float(bounds[name][0]), float(bounds[name][1]))
        if name == "linewidth":
            lo = max(lo, LINEWIDTH_FLOOR * system.gamma_total)
        _check_range(name, lo, hi, DRIVE_PARAMETERS[name])
        box[name] = (lo, hi)

    fn = _resolve_objective(objective)
    trace: list[TraceEntry] = []
    los = np.array([box[n][0] for n in names])
    his = np.array([box[n][1] for n in names])
    span = his - los

    def at(v: np.ndarray) -> dict:
        # each side measured from its nearer bound, so that rounding
        # never leaves the box
        s = np.sin(v)
        x = np.where(s <= 0.0, los + span * ((1.0 + s) / 2.0),
                     his - span * ((1.0 - s) / 2.0))
        return {n: float(xi) for n, xi in zip(names, x)}

    def neg(v: np.ndarray) -> float:
        params = at(v)
        sys_p, pulse_p = apply_parameters(system, pulse, params)
        val = float(fn(sys_p, pulse_p))
        trace.append(TraceEntry(params=params, value=val))
        return -val

    d = len(names)
    step = math.asin(0.6) * np.eye(d)
    v, f_v, converged = _nelder_mead(neg, np.vstack([np.zeros(d), step]),
                                     2.0 * CONVERGENCE_REL, budget)
    if converged and _inward_probe_improves(neg, v, f_v,
                                            budget - len(trace)):
        v2, f_v2, converged2 = _nelder_mead(
            neg, np.vstack([v, v + step]), 2.0 * CONVERGENCE_REL,
            budget - len(trace))
        if f_v2 < f_v:
            converged = converged2 or np.max(np.abs(
                np.sin(v2) - np.sin(v))) <= 2.0 * CONVERGENCE_REL
            v, f_v = v2, f_v2
    best = at(v)

    boundary = tuple(
        n for n in names
        if best[n] - box[n][0] <= EDGE_REL * (box[n][1] - box[n][0])
        or box[n][1] - best[n] <= EDGE_REL * (box[n][1] - box[n][0]))
    return MaximizeResult(params=best, value=-float(f_v), converged=converged,
                          boundary=boundary, n_evals=len(trace),
                          trace=tuple(trace))
