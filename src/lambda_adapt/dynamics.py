"""One-excitation dynamics of the driven lambda emitter.

Everything here follows from the Wigner-Weisskopf equation of motion for
the excited amplitude in the rotating frame of the a-branch transition,

    d psi~ / dt = -(Gamma/2) psi~ - g_a phi_shape(-t) e^{-i delta_L t},

with psi~(0) = 0 and Gamma = gamma_a + gamma_b.  The lab-frame amplitude
is psi(t) = psi~(t) e^{-i omega_a t}.  In the frame that rotates at the
carrier, psi^ = psi~ e^{i delta_L t}, the drive carries no phase,

    d psi^ / dt = lambda psi^ + f(t),   lambda = -Gamma/2 + i delta_L,
    f(t) = -g_a phi_shape(-t),

and the linear coefficient is constant.  Each step propagates psi^
exactly by e^{lambda h} and integrates e^{lambda (h - s)} exactly
against the quadratic through three drive samples (an exponential
integrator: Cox & Matthews 2002, Hochbruck & Ostermann 2010).  The map
is an affine recursion psi^_{n+1} = A psi^_n + w_n, which numpy
evaluates as a scan in a fixed number of vectorized passes
(``_affine_recursion``).  Neither Gamma nor delta_L limits the step;
only the drive envelope does, plus the Gamma transient after t = 0 and
after each drive discontinuity.

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

from .errors import ConfigurationError, ParameterError
from .model import MAX_GRID_NODES, LambdaSystem, PulseSpec, SimGrid

__all__ = [
    "AmplitudeTrajectory",
    "psi_closed_form",
    "integrate_psi",
    "asymptotic_prob_exponential",
    "p_ab_infty",
]


@dataclass(frozen=True)
class AmplitudeTrajectory:
    """Excited-state amplitude on a time grid.

    ``psi_hat`` is the array the integrator propagates: psi^(t), the
    amplitude in the frame that rotates at the carrier, where the drive
    carries no phase.  ``psi_nodes`` forms psi~(t) = psi^(t)
    e^{-i delta_L t}, the amplitude in the frame rotating at omega_a
    (multiply by e^{-i omega_a t} for the lab frame), at chosen nodes;
    on resonance it returns psi^ itself.
    ``p_ab`` is the cumulative branch-b transfer gamma_b * int_0^t p_e,
    a fourth-order quadrature on each uniform stretch.
    ``segments`` holds index ranges [i0, i1] of uniform-step stretches;
    the drive is smooth inside each stretch (envelope discontinuities sit
    exactly on the shared boundary nodes).  ``delta_l`` is the carrier
    detuning: psi~ turns at e^{-i delta_L t}, which a step at the
    envelope scale does not resolve, so ``psi_hat_at`` interpolates psi^.
    """

    times: np.ndarray
    psi_hat: np.ndarray
    p_e: np.ndarray
    p_ab: np.ndarray
    segments: tuple
    delta_l: float = 0.0

    def __post_init__(self):
        for arr in (self.times, self.psi_hat, self.p_e, self.p_ab):
            arr.flags.writeable = False

    @property
    def t_max(self) -> float:
        return float(self.times[-1])

    def psi_nodes(self, idx=slice(None)) -> np.ndarray:
        """psi~ = psi^ e^{-i delta_L t} at the nodes ``idx``.

        Elementwise, so a node's value does not depend on which other
        nodes are taken.  The product is np.multiply(psi^, phase):
        ``psi_hat * phase`` may run in the temporary phase array as
        phase * psi^, and numpy's SIMD complex product rounds some of
        those differently.
        """
        psi_hat = self.psi_hat[idx]
        if self.delta_l == 0.0:
            return psi_hat
        return np.multiply(psi_hat,
                           np.exp(-1j * self.delta_l * self.times[idx]))

    @cached_property
    def _carrier_parts(self) -> tuple[np.ndarray, np.ndarray]:
        """Real and imaginary parts of psi^, contiguous for np.interp."""
        return (np.ascontiguousarray(self.psi_hat.real),
                np.ascontiguousarray(self.psi_hat.imag))

    def psi_hat_at(self, t):
        """psi^ at times in [0, t_max], interpolated linearly.

        psi^ moves at the envelope scale, or at |lambda| inside the
        transient windows, and every step is at most 0.01 of that scale
        (0.005 on a default grid), so the error stays near 1e-5 |psi| or
        below (3.6e-6 measured on Exponential(1e-3) detuned by 0.5 at
        the dt ceiling), whatever delta_L * dt is.
        """
        t = np.asarray(t, dtype=float)
        re, im = self._carrier_parts
        return np.interp(t, self.times, re) + 1j * np.interp(t, self.times, im)

    def converged(self) -> bool:
        """True when p_ab grew by at most 1e-6 over the last tenth of the run."""
        t_probe = 0.9 * self.t_max
        probe = np.interp(t_probe, self.times, self.p_ab)
        return abs(self.p_ab[-1] - probe) <= 1e-6


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


# The affine recursion as a scan (Blelloch, CMU-CS-90-190, 1990; blocked
# as in Martin & Cundy, ICLR 2018).  A lag whose weight |a|^k is below
# 2^-60 is dropped, a rescaled sum keeps |a|^-k below e^_MAX_EXP, and
# an array of _SHORT nodes or fewer (the chunk totals of up to 1.6e4
# nodes) takes the few doubling passes instead of the chunk tables.
_NEGLIGIBLE = 60.0 * math.log(2.0)
_MAX_DOUBLINGS = 6
_SHORT = 128
_MAX_EXP = 230.0
_MAX_CHUNK = 4096


def _powers(a: np.clongdouble, count: int) -> np.ndarray:
    """a^m for m = 0 .. count - 1 in np.clongdouble.

    A running product: each power carries its own roundings only, about
    sqrt(m) ulps of np.clongdouble, so where that is extended (x86) a
    power of a power stays far inside a double ulp.  Powers taken as exp(m log a) instead inherit
    m times the rounding of log a, which over 1e5 nodes reaches 1e-14.
    """
    out = np.full(count, a, dtype=np.clongdouble)
    out[0] = 1.0
    return np.multiply.accumulate(out, out=out)


def _affine_recursion(a, w: np.ndarray) -> np.ndarray:
    """y_0 = w_0, y_{k+1} = a y_k + w_{k+1}, computed in ``w``'s memory.

    ``w`` is a contiguous complex array; ``a`` is a complex or, from the
    scan on the chunk ends, an extended-precision power of one.  Two
    scans, each a fixed number of numpy passes:

    - n <= _SHORT or |a| <= 2^(-60/64): recursive doubling.  Pass j
      adds a^(2^j) times the values 2^j nodes back; after at most
      _MAX_DOUBLINGS passes (log2 _SHORT for a short array) every lag
      whose weight is above 2^-60 is in.  The powers are squared in
      extended precision and rounded once each.
    - otherwise: y_k = a^k sum_{j<=k} w_j a^-j, one prefix sum within
      chunks of about sqrt(n) nodes, short enough that |a|^-k stays
      below e^_MAX_EXP.  The carry into each chunk comes from this
      recursion again, on the chunk totals with a^(chunk length).

    Against the recursion taken in exact arithmetic it stays within
    1e-14 of max |y| (``tests/test_dynamics.py``) where np.clongdouble
    is wider than a double, as the 80-bit type on x86.  Where it is a
    double (MSVC, macOS on arm64) every power of a is a running product
    in doubles and the chunk carries drift with the chunk count: up to
    2.7e-13 of max |y| at 2e5 nodes and |a| -> 1, where the loop in
    doubles drifts by 3.5e-14 (the scan run with complex in place of
    np.clongdouble).
    """
    base, a = np.clongdouble(a), complex(a)
    n = w.size
    if n < 2 or a == 0:
        return w
    decay = -math.log(abs(a))
    if n <= _SHORT or decay * 2 ** _MAX_DOUBLINGS >= _NEGLIGIBLE:
        part = np.empty(n - 1, dtype=complex)
        shift = 1
        while True:
            np.multiply(w[:n - shift], complex(base), out=part[:n - shift])
            w[shift:] += part[:n - shift]
            shift *= 2
            if shift >= n or shift * decay >= _NEGLIGIBLE:
                return w
            base *= base
    size = min(math.isqrt(n) + 1, _MAX_CHUNK)
    if decay:
        size = max(2, min(size, int(_MAX_EXP / decay)))
    full, r = divmod(n, size)
    exact = _powers(base, size + 1)
    pw = exact.astype(complex)
    inv = np.divide(1.0, exact).astype(complex)
    chunks = w[:full * size].reshape(full, size)
    chunks *= inv[:size]
    tail = w[full * size:]
    if full + (r > 0) > 1:
        tail *= inv[:r]
        # carries[c] = a y at the end of chunk c, the start of chunk c + 1
        carries = np.add.reduceat(w, np.arange(0, n, size))
        carries *= pw[size - 1]
        _affine_recursion(exact[size], carries)
        carries *= a
        chunks[1:, 0] += carries[:full - 1]
        if r:
            tail[0] += carries[full - 1]
            np.add.accumulate(tail, out=tail)
            tail *= pw[:r]
    np.add.accumulate(chunks, axis=1, out=chunks)
    chunks *= pw[:size]
    return w


def _drive(system: LambdaSystem, pulse: PulseSpec, t):
    """Carrier-frame drive term f(t) = -g_a phi_shape(-t), where with the
    envelope norm's 1 / (2 pi) the flat coupling g_a = sqrt(gamma_a / (2 pi))
    makes f sqrt(gamma_a) times an amplitude u(t) with int |u|^2 dt = 1."""
    g_a = math.sqrt(system.gamma_a / (2.0 * math.pi))
    return -g_a * pulse.shape_at(-np.asarray(t, dtype=float))


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

    The interval is split at drive breakpoints (the back edge of a
    rectangular pulse) so every step sees a smooth drive.  This is the
    only place where Gamma and delta_L set a step: inside each smooth
    interval the first 60/Gamma run at 0.01 / max(Gamma, |delta_L|), so
    the quadratures resolve the emitter's transient, and the rest at
    ``grid.dt``, which follows the envelope; when ``grid.dt`` is already
    that fine the interval is one stretch.  Each stretch uses a uniform
    step no larger than its bound.

    The amplitude is exact for a drive that is quadratic on each step,
    so its error is the drive's interpolation error, not a stability or
    order limit in Gamma or delta_L.  p_ab is the trapezoid of p_e plus
    the Euler-Maclaurin end correction h^2/12 (p_e'(t_0) - p_e'(t)) on
    each stretch, with p_e' = -Gamma p_e + 2 Re(conj(f) psi^) at the
    nodes.  A run of more than MAX_GRID_NODES
    steps (a large |delta_L| shrinks the transient step) raises
    ConfigurationError before anything is allocated.

    The record stores psi^, the carrier-frame amplitude the steps
    propagate, as ``psi_hat``; the rotation to psi~ is left to the
    readers that want it (``AmplitudeTrajectory.psi_nodes``).
    """
    grid.validate(pulse)

    bounds = [0.0]
    for tb in sorted(pulse.envelope.drive_breakpoints()):
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
    counts = [(hi - lo) / h_max for lo, hi, h_max in stretches]
    # a count can overflow to inf (|delta_L| near the float limit): cap it
    # past MAX_GRID_NODES, which is refused below
    steps = [max(1, math.ceil(min(x, MAX_GRID_NODES + 1.0) - 1e-9))
             for x in counts]
    if sum(steps) > MAX_GRID_NODES:
        raise ConfigurationError(
            f"trajectory of {math.fsum(counts):.3g} steps exceeds "
            f"MAX_GRID_NODES = {MAX_GRID_NODES:.3g}; the transient windows "
            f"step at 0.01 / max(Gamma, |delta_L|) = {h_fast:.3g}"
        )

    n_nodes = sum(steps) + 1
    t_all = np.empty(n_nodes)
    psi_hat = np.empty(n_nodes, dtype=complex)
    p_e = np.empty(n_nodes)
    transfer = np.empty(n_nodes)
    psi_hat[0] = p_e[0] = transfer[0] = 0.0
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
        # the recursion runs in psi^'s own memory: node 0 already holds
        # psi^ at the start of the stretch, and the step terms are formed
        # in place behind it
        psi_seg = psi_hat[i0:i1 + 1]
        w_steps = psi_seg[1:]
        np.multiply(f_nodes[:-1], w0, out=w_steps)
        w_steps += w1 * f_half
        w_steps += w2 * f_nodes[1:]
        _affine_recursion(A, psi_seg)
        re, im = psi_seg.real, psi_seg.imag
        p_seg = p_e[i0:i1 + 1]
        np.multiply(re, re, out=p_seg)
        p_seg += im * im
        # p_e' = -Gamma p_e + 2 Re(conj(f) psi^) from the amplitude
        # equation, 2 f Re psi^ as every envelope's drive is real
        dp_seg = f_nodes * re
        dp_seg *= 2.0
        dp_seg -= gamma * p_seg
        transfer[i0:i1 + 1] = transfer[i0] + _cumulative_quadrature(
            p_seg, dp_seg, h)
        seg_ranges.append((i0, i1))
        i0 = i1

    transfer *= system.gamma_b
    return AmplitudeTrajectory(times=t_all, psi_hat=psi_hat, p_e=p_e,
                               p_ab=transfer, segments=tuple(seg_ranges),
                               delta_l=delta_l)


def psi_closed_form(system: LambdaSystem, pulse: PulseSpec, t):
    """Exact excited amplitude psi~ for the exponential envelope.

    psi~(t) = -f e^{-Gamma t / 2} (e^{x t} - 1) with
    x = (Gamma - Delta)/2 - i delta_L and f = sqrt(gamma_a Delta) / x, in
    the frame rotating at omega_a, the frame of
    ``AmplitudeTrajectory.psi_nodes``.  At the degenerate point x -> 0 the
    bracket over x tends to t and the series (t + x t^2/2 + ...) is used
    instead.
    """
    env = pulse.envelope
    if not hasattr(env, "linewidth"):
        raise ParameterError("closed form requires the exponential envelope")
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
