"""One-excitation dynamics of the driven lambda emitter.

Everything here follows from the Wigner-Weisskopf equation of motion for
the excited amplitude in the rotating frame of the a-branch transition,

    d psi~ / dt = -(Gamma/2) psi~ - g_a phi_shape(-c t) e^{-i delta_L t},

with psi~(0) = 0 and Gamma = gamma_a + gamma_b.  The lab-frame amplitude
is psi(t) = psi~(t) e^{-i omega_a t}.  In the frame that rotates at the
carrier, psi^ = psi~ e^{i delta_L t}, the drive carries no phase,

    d psi^ / dt = lambda psi^ + f(t),   lambda = -Gamma/2 + i delta_L,
    f(t) = -g_a phi_shape(-c t),

and the linear coefficient is constant.  Each step propagates psi^
exactly by e^{lambda h} and integrates e^{lambda (h - s)} exactly
against the quadratic through three drive samples (an exponential
integrator: Cox & Matthews 2002, Hochbruck & Ostermann 2010).  The map
is an affine recursion psi^_{n+1} = A psi^_n + w_n that
scipy.signal.lfilter evaluates at C speed.  Neither Gamma nor delta_L
limits the step; only the drive envelope does, plus the Gamma transient
after t = 0 and after each drive discontinuity.

The transfer p_ab = gamma_b int p_e and the work and overlap integrals
are endpoint-corrected trapezoids (Euler-Maclaurin; Davis & Rabinowitz,
Methods of Numerical Integration, 2.9), fourth order on each uniform
stretch.  The derivative the correction needs comes from the amplitude
equation itself, p_e' = -Gamma p_e + 2 Re(conj(f) psi^), so a ledger
closes at 1e-8 on a step at the envelope scale.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.signal import lfilter

from .errors import ConfigurationError, ParameterError
from .model import (MAX_GRID_NODES, InitialMixture, LambdaSystem, PulseSpec,
                    SimGrid)

__all__ = [
    "AmplitudeTrajectory",
    "PopulationSeries",
    "psi_closed_form",
    "integrate_psi",
    "asymptotic_prob_exponential",
    "p_ab_infty",
    "populations",
]


@dataclass(frozen=True)
class AmplitudeTrajectory:
    """Excited-state amplitude on a time grid (rotating frame).

    ``psi`` is psi~(t); multiply by e^{-i omega_a t} for the lab frame.
    ``p_ab`` is the cumulative branch-b transfer gamma_b * int_0^t p_e,
    a fourth-order quadrature on each uniform stretch.
    ``segments`` holds index ranges [i0, i1] of uniform-step stretches;
    the drive is smooth inside each stretch (envelope discontinuities sit
    exactly on the shared boundary nodes).  ``delta_l`` is the carrier
    detuning: psi~ turns at e^{-i delta_L t}, which a step at the
    envelope scale does not resolve, so ``psi_at`` interpolates in the
    carrier frame instead.
    """

    times: np.ndarray
    psi: np.ndarray
    p_e: np.ndarray
    p_ab: np.ndarray
    segments: tuple
    delta_l: float = 0.0

    def __post_init__(self):
        for arr in (self.times, self.psi, self.p_e, self.p_ab):
            arr.flags.writeable = False

    @property
    def t_max(self) -> float:
        return float(self.times[-1])

    @cached_property
    def _carrier_parts(self) -> tuple[np.ndarray, np.ndarray]:
        """Real and imaginary parts of psi^ = psi~ e^{i delta_L t}."""
        psi_hat = self.psi
        if self.delta_l != 0.0:
            psi_hat = psi_hat * np.exp(1j * self.delta_l * self.times)
        return (np.ascontiguousarray(psi_hat.real),
                np.ascontiguousarray(psi_hat.imag))

    def psi_at(self, t):
        """psi~ at times in [0, t_max], interpolated linearly in psi^.

        psi^ moves at the envelope scale, or at |lambda| inside the
        transient windows, and every step is at most 0.01 of that scale
        (0.005 on a default grid), so the error stays near 1e-5 |psi| or
        below (3.6e-6 measured on Exponential(1e-3) detuned by 0.5 at
        the dt ceiling), whatever delta_L * dt is.
        """
        t = np.asarray(t, dtype=float)
        re, im = self._carrier_parts
        psi_hat = (np.interp(t, self.times, re)
                   + 1j * np.interp(t, self.times, im))
        if self.delta_l == 0.0:
            return psi_hat
        return psi_hat * np.exp(-1j * self.delta_l * t)

    def p_ab_final(self) -> float:
        return float(self.p_ab[-1])

    def converged(self, tol: float = 1e-6) -> bool:
        """True when p_ab has stopped growing over the last tenth of the run."""
        t_probe = 0.9 * self.t_max
        probe = np.interp(t_probe, self.times, self.p_ab)
        return abs(self.p_ab[-1] - probe) <= tol


# |z| below which the phi functions are summed as Taylor series; the
# recurrence phi_{k+1} = (phi_k - 1/k!) / z cancels badly near z = 0.
_PHI_SERIES_RADIUS = 1.0
_PHI_SERIES_TERMS = 20
_INV_FACTORIALS = tuple(1.0 / math.factorial(n)
                        for n in range(_PHI_SERIES_TERMS + 4))

# The Gamma transient after t = 0 and after every drive discontinuity is
# integrated at 0.01 / max(Gamma, |delta_L|) for this many 1/Gamma; by
# then it has decayed by e^{-30} and the trajectory follows the envelope.
# At 40 (e^{-20}) the remnant, times the h^2/12 end correction of the
# envelope-scale stretch after it, broke a 1e-8 ledger at linewidth 1e-7.
_TRANSIENT_WINDOW = 60.0


def _phi_series(z: complex) -> tuple[complex, complex, complex]:
    """phi_1, phi_2, phi_3 at z from phi_k(z) = sum_j z^j / (j + k)!."""
    out = []
    for k in (1, 2, 3):
        acc = 0.0 + 0.0j
        # Horner over 1/(j + k)!, j = _PHI_SERIES_TERMS down to 0
        for coeff in _INV_FACTORIALS[_PHI_SERIES_TERMS + k:k - 1:-1]:
            acc = acc * z + coeff
        out.append(acc)
    return out[0], out[1], out[2]


def _phi_closed(z: complex) -> tuple[complex, complex, complex]:
    """phi_1, phi_2, phi_3 at z != 0 from phi_{k+1} = (phi_k - 1/k!) / z."""
    phi1 = complex(np.expm1(complex(z))) / z
    phi2 = (phi1 - 1.0) / z
    phi3 = (phi2 - 0.5) / z
    return phi1, phi2, phi3


def _step_coefficients(lam: complex, h: float):
    """Exact one-step map for y' = lam y + f(t), f quadratic on the step.

    Returns (A, w0, w1, w2) with
    y_{n+1} = A y_n + w0 f(t_n) + w1 f(t_n + h/2) + w2 f(t_n + h):
    A = e^{lam h}, and the w are the integrals of e^{lam (h - s)}
    against the quadratic Lagrange basis on {0, h/2, h}.
    """
    z = lam * h
    phi = _phi_series if abs(z) < _PHI_SERIES_RADIUS else _phi_closed
    phi1, phi2, phi3 = phi(z)
    return (cmath.exp(z),
            h * (phi1 - 3.0 * phi2 + 4.0 * phi3),
            h * (4.0 * phi2 - 8.0 * phi3),
            h * (4.0 * phi3 - phi2))


def _drive(system: LambdaSystem, pulse: PulseSpec, t):
    """Carrier-frame drive term f(t) = -g_a phi_shape(-c t)."""
    g_a = system.coupling("a")
    return -g_a * pulse.shape_at(-system.c_speed * np.asarray(t, dtype=float))


def _drive_nodes(system: LambdaSystem, pulse: PulseSpec,
                 times: np.ndarray) -> np.ndarray:
    """The drive on the nodes of one stretch where it is smooth.

    The two end nodes are nudged inward by 1e-9 of a step, so a
    discontinuity on an end node contributes the value from inside the
    stretch.
    """
    h = times[1] - times[0] if times.size > 1 else 1.0
    t_eval = times.copy()
    t_eval[0] += 1e-9 * h
    t_eval[-1] -= 1e-9 * h
    return _drive(system, pulse, t_eval)


def _cumulative_quadrature(y: np.ndarray, dy: np.ndarray,
                           h: float) -> np.ndarray:
    """int_{t_0}^{t_k} y on a uniform stretch of step h, for every k.

    The trapezoid sum plus the Euler-Maclaurin end correction
    h^2/12 (y'(t_0) - y'(t_k)); the corrections of the single steps
    telescope, so ``dy`` (= y') is needed at the nodes only, and the
    error is O(h^4) per unit time for smooth y.
    """
    q = (0.5 * h) * y
    q += (h * h / 12.0) * dy
    out = np.cumsum(y)
    out *= h
    out -= q
    out += q[0] - h * y[0]
    return out


def _stretches(lo: float, hi: float, dt: float, h_fast: float,
               window: float) -> list[tuple[float, float, float]]:
    """Split a drive-smooth interval into (start, end, max step) pieces.

    The first ``window`` after ``lo`` runs at ``h_fast``, the rest at
    ``dt``; a step already at or below ``h_fast`` keeps one stretch.
    """
    if dt <= h_fast:
        return [(lo, hi, dt)]
    mid = lo + window
    if mid >= hi:
        return [(lo, hi, h_fast)]
    return [(lo, mid, h_fast), (mid, hi, dt)]


def integrate_psi(system: LambdaSystem, pulse: PulseSpec,
                  grid: SimGrid) -> AmplitudeTrajectory:
    """Integrate the excited amplitude over [0, t_max].

    The interval is split at drive breakpoints (rectangular pulse edges,
    the samples of a sampled envelope) so every step sees a smooth
    drive.  This is the only place where Gamma and delta_L set a step:
    inside each smooth interval the first 60/Gamma run at
    0.01 / max(Gamma, |delta_L|), so the quadratures resolve the
    emitter's transient, and the rest at ``grid.dt``, which follows the
    envelope; when ``grid.dt`` is already that fine the interval is one
    stretch.  Each stretch uses a uniform step no larger than its bound.

    The amplitude is exact for a drive that is quadratic on each step,
    so its error is the drive's interpolation error, not a stability or
    order limit in Gamma or delta_L.  p_ab is the trapezoid of p_e plus
    the Euler-Maclaurin end correction h^2/12 (p_e'(t_0) - p_e'(t)) on
    each stretch, with p_e' = -Gamma p_e + 2 Re(conj(f) psi^) at the
    nodes.  A run of more than MAX_GRID_NODES
    steps (a large |delta_L| shrinks the transient step) raises
    ConfigurationError before anything is allocated.
    """
    grid.validate(pulse)
    if pulse.rho != system.rho_density or pulse.c != system.c_speed:
        raise ParameterError("pulse was normalized against a different waveguide")

    bounds = [0.0]
    for tb in sorted(pulse.drive_breakpoints()):
        if 0.0 < tb < grid.t_max:
            bounds.append(float(tb))
    bounds.append(grid.t_max)

    gamma = system.gamma_total
    delta_l = pulse.detuning(system)
    lam = complex(-0.5 * gamma, delta_l)
    h_fast = 0.01 / max(gamma, abs(delta_l))
    window = _TRANSIENT_WINDOW / gamma
    stretches = [piece for lo, hi in zip(bounds[:-1], bounds[1:])
                 for piece in _stretches(lo, hi, grid.dt, h_fast, window)]
    steps = [max(1, math.ceil((hi - lo) / h_max - 1e-9))
             for lo, hi, h_max in stretches]
    if sum(steps) > MAX_GRID_NODES:
        raise ConfigurationError(
            f"trajectory of {sum(steps):.3g} steps exceeds MAX_GRID_NODES = "
            f"{MAX_GRID_NODES:.3g}; the transient windows step at "
            f"0.01 / max(Gamma, |delta_L|) = {h_fast:.3g}"
        )

    n_nodes = sum(steps) + 1
    t_all = np.empty(n_nodes)
    psi_all = np.empty(n_nodes, dtype=complex)
    p_e = np.empty(n_nodes)
    transfer = np.empty(n_nodes)
    psi_all[0] = p_e[0] = transfer[0] = 0.0
    seg_ranges = []
    i0 = 0
    for (lo, hi, _), n in zip(stretches, steps):
        i1 = i0 + n
        h = (hi - lo) / n
        t_seg = t_all[i0:i1 + 1]
        np.multiply(np.arange(n + 1), h, out=t_seg)
        t_seg += lo
        f_nodes = _drive_nodes(system, pulse, t_seg)
        f_half = _drive(system, pulse, t_seg[:-1] + 0.5 * h)
        A, w0, w1, w2 = _step_coefficients(lam, h)
        # node 0 of the recursion carries psi^ at the start of the
        # stretch; the products are formed in place, which is the cheap
        # way for the ~1e4-node stretches of an objective evaluation
        w = np.empty(n + 1, dtype=complex)
        w[0] = psi_all[i0]
        w_steps = w[1:]
        np.multiply(f_nodes[:-1], w0, out=w_steps)
        w_steps += w1 * f_half
        w_steps += w2 * f_nodes[1:]
        psi_seg = psi_all[i0:i1 + 1]
        psi_seg[:] = lfilter([1.0], [1.0, -A], w)
        re, im = psi_seg.real, psi_seg.imag
        p_seg = p_e[i0:i1 + 1]
        np.multiply(re, re, out=p_seg)
        p_seg += im * im
        # p_e' = -Gamma p_e + 2 Re(conj(f) psi^) from the amplitude equation
        dp_seg = f_nodes.real * re
        if np.iscomplexobj(f_nodes):
            dp_seg += f_nodes.imag * im
        dp_seg *= 2.0
        dp_seg -= gamma * p_seg
        transfer[i0:i1 + 1] = transfer[i0] + _cumulative_quadrature(
            p_seg, dp_seg, h)
        seg_ranges.append((i0, i1))
        i0 = i1

    if delta_l != 0.0:
        psi_all *= np.exp(-1j * delta_l * t_all)
    transfer *= system.gamma_b
    return AmplitudeTrajectory(times=t_all, psi=psi_all, p_e=p_e,
                               p_ab=transfer, segments=tuple(seg_ranges),
                               delta_l=delta_l)


def psi_closed_form(system: LambdaSystem, pulse: PulseSpec, t, *,
                    frame: str = "lab"):
    """Exact excited amplitude for the exponential envelope.

    psi(t) = -f e^{-(Gamma/2 + i omega_a) t} (e^{x t} - 1) with
    x = (Gamma - Delta)/2 - i delta_L and f = sqrt(gamma_a Delta) / x.
    At the degenerate point x -> 0 the bracket over x tends to t and the
    series (t + x t^2/2 + ...) is used instead.

    Parameters
    ----------
    frame : {"lab", "rotating"}
        "rotating" drops the e^{-i omega_a t} factor.
    """
    env = pulse.envelope
    if not hasattr(env, "linewidth"):
        raise ParameterError("closed form requires the exponential envelope")
    if frame not in ("lab", "rotating"):
        raise ParameterError(f"unknown frame {frame!r}")
    delta = env.linewidth
    gamma = system.gamma_total
    delta_l = pulse.detuning(system)
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr < 0):
        raise ParameterError("closed form defined for t >= 0")

    x = 0.5 * (gamma - delta) - 1j * delta_l
    amp = math.sqrt(system.gamma_a * delta)
    scale = abs(x) * (float(np.max(t_arr)) if t_arr.size else 0.0)
    if scale < 1e-4:
        # (e^{xt} - 1)/x = t (1 + xt/2 + (xt)^2/6 + ...); exact at x = 0
        xt = x * t_arr
        series = t_arr * (1.0 + xt / 2.0 + xt**2 / 6.0 + xt**3 / 24.0)
        psi = -amp * np.exp(-0.5 * gamma * t_arr) * series
    else:
        # e^{-Gamma t/2}(e^{xt} - 1) expanded to avoid overflow when
        # x t is large and positive (narrow pulses, long times)
        diff = (np.exp(-(0.5 * delta + 1j * delta_l) * t_arr)
                - np.exp(-0.5 * gamma * t_arr))
        psi = -amp * diff / x
    if frame == "lab":
        psi = psi * np.exp(-1j * system.omega_a * t_arr)
    if np.isscalar(t) or getattr(t, "ndim", 0) == 0:
        return complex(psi)
    return psi


def asymptotic_prob_exponential(system: LambdaSystem, linewidth: float,
                                detuning: float = 0.0) -> float:
    """Long-time p_{a->b} for the exponential envelope, any detuning.

    Integrating |psi|^2 of the closed form gives
    p = 4 gamma_a gamma_b (Gamma + Delta) /
        (Gamma [(Gamma + Delta)^2 + 4 delta_L^2]),
    which is regular at the degenerate point Delta = Gamma, delta_L = 0.
    """
    if linewidth <= 0:
        raise ParameterError(f"linewidth must be positive, got {linewidth}")
    gamma = system.gamma_total
    s = gamma + linewidth
    return (4.0 * system.gamma_a * system.gamma_b * s
            / (gamma * (s * s + 4.0 * detuning * detuning)))


def p_ab_infty(traj: AmplitudeTrajectory, system: LambdaSystem) -> float:
    """Long-time transfer p_ab(inf) from a run that has outlived the drive.

    Once the drive is gone p_e decays freely, so the part of the transfer
    integral left after t_max is exactly gamma_b / Gamma * p_e(t_max).
    """
    return float(traj.p_ab[-1]) \
        + system.gamma_b / system.gamma_total * float(traj.p_e[-1])


@dataclass(frozen=True)
class PopulationSeries:
    """Mixture-averaged level populations along a trajectory."""

    times: np.ndarray
    p_a: np.ndarray
    p_b: np.ndarray
    p_e: np.ndarray

    def __post_init__(self):
        for arr in (self.times, self.p_a, self.p_b, self.p_e):
            arr.flags.writeable = False


def populations(system: LambdaSystem, mixture: InitialMixture,
                traj: AmplitudeTrajectory) -> PopulationSeries:
    """p_a, p_b, p_e over time for an initial mixture of |a> and |b>.

    The |b> branch is inert (an a-branch photon cannot raise |b>; the
    oracle's backward-leak check confirms it), so it contributes a
    constant p_b0.  Within the |a> branch probability is conserved:
    p_aa = 1 - p_e - p_ab.
    """
    p_e = mixture.p_a0 * traj.p_e
    p_b = mixture.p_a0 * traj.p_ab + mixture.p_b0
    p_a = mixture.p_a0 * (1.0 - traj.p_e - traj.p_ab)
    return PopulationSeries(times=traj.times.copy(), p_a=p_a, p_b=p_b, p_e=p_e)
