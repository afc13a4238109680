"""Work, heat, and the energy ledger of a driven run.

Absorbed work is the drive-term quadrature

    W = hbar omega_a * int_0^T -2 g_a Re[phi_a(-t, 0) psi*(t)] dt,

heat is the monitored emission minus the energy parked in |b>,

    Q = hbar omega_a Gamma int p_e dt - hbar delta_ab p_ab(T),

and the ledger W = Q + Delta<H_S> closes to quadrature accuracy.  Both
integrals are fourth-order endpoint-corrected trapezoids on each uniform
stretch of the trajectory: int p_e is p_ab / gamma_b, stored by
integrate_psi, and the work integral is ``drive_overlap_integral``.  The
work integral is only blessed as thermodynamic work on resonance
(delta_L = 0); off resonance the drive also shuffles dispersive energy
that this bookkeeping does not track, so work_absorbed raises
ParameterError and the raw quadrature stays available as
drive_energy_flux for optimization.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalConsistencyError, ParameterError
from .dynamics import (AmplitudeTrajectory, _cumulative_quadrature, _drive,
                       _drive_nodes, p_ab_infty)
from .model import InitialMixture, LambdaSystem, PulseSpec

__all__ = [
    "ThermoLedger",
    "drive_overlap_integral",
    "drive_energy_flux",
    "is_resonant",
    "work_absorbed",
    "heat_dissipated",
    "energy_ledger",
    "adaptation_work_check",
    "interaction_energy",
]

LEDGER_TOL = 1e-8  # relative closure of the first law in energy_ledger


@dataclass(frozen=True)
class ThermoLedger:
    """Energy bookkeeping of one resonant run (hbar = 1 units).

    ``de_sys`` is the energy the system holds at t_max; ``p_ab_infty`` is
    the long-time transfer ``dynamics.p_ab_infty``, which counts the
    decay of the p_e(t_max) still excited.  ``residual`` is W - Q -
    de_sys, ``adaptation_residual`` that of ``adaptation_work_check``.
    """

    w_abs: float
    q_diss: float
    de_sys: float
    residual: float
    w_over_hw: float
    p_ab_infty: float
    adaptation_residual: float


def drive_overlap_integral(traj: AmplitudeTrajectory, pulse: PulseSpec,
                           system: LambdaSystem) -> np.ndarray:
    """int_0^t conj(f) psi^ dtau at every node of the trajectory.

    The integrand conj(f) psi^, f = -g_a phi_shape(-t), is summed on each
    uniform stretch by the endpoint-corrected trapezoid (fourth order).  The
    correction takes the derivative conj(f') psi^ + conj(f) (lambda psi^
    + f), lambda = -Gamma/2 + i delta_L, from the amplitude equation; f'
    comes from differences of the drive samples inside the stretch
    (``np.gradient``: central, one-sided at its ends).  The drive, its
    slope and the integrand are formed a piece of the stretch at a time
    (``dynamics._pieces``), each piece's drive taken one node past its
    inner ends for the central differences there, so only the series
    itself grows with the trajectory.  Twice the real part at t_max is
    ``drive_energy_flux``; ``entropy.overlap_series`` interpolates it.
    The trajectory's psi^ (``psi_hat``) is read as stored.
    """
    lam = complex(-0.5 * system.gamma_total, pulse.detuning(system))
    acc = np.empty(traj.times.size, dtype=complex)
    acc[0] = 0.0
    for i0, i1 in traj.segments:
        t_seg = traj.times[i0:i1 + 1]
        h = (t_seg[-1] - t_seg[0]) / (i1 - i0)
        psi_seg = traj.psi_hat[i0:i1 + 1]
        edge_order = 2 if t_seg.size > 2 else 1

        def terms(a, b):
            lo, hi = max(a - 1, 0), min(b + 1, t_seg.size)
            # every envelope is real, so the drive and its slope are real
            # and their .conj() is the array itself, not a copy
            drive = _drive_nodes(system, pulse, t_seg, lo, hi)
            slope = np.gradient(drive, h, edge_order=edge_order)
            drive, slope = drive[a - lo:b - lo], slope[a - lo:b - lo]
            psi_hat = psi_seg[a:b]
            density = drive.conj() * psi_hat
            # conj(f') psi^ + lam density + |f|^2, summed in that order in
            # place, with |f|^2 squared into the drive's own buffer
            d_density = slope.conj() * psi_hat
            d_density += lam * density
            np.abs(drive, out=drive)
            drive **= 2
            d_density += drive
            return density, d_density

        _cumulative_quadrature(acc[i0:i1 + 1], acc[i0], h, terms)
    return acc


def drive_energy_flux(traj: AmplitudeTrajectory, pulse: PulseSpec,
                      system: LambdaSystem) -> float:
    """Time integral of -2 g_a Re[phi_a(-t, 0) psi*(t)], any detuning.

    Twice the real part of ``drive_overlap_integral`` at t_max: segment
    by segment, so envelope discontinuities (which sit on segment
    boundary nodes) are handled with one-sided limits.
    """
    return 2.0 * float(drive_overlap_integral(traj, pulse, system)[-1].real)


def is_resonant(pulse: PulseSpec, system: LambdaSystem) -> bool:
    """True when |delta_L| <= 1e-12 omega_a, where the work ledger applies."""
    return abs(pulse.detuning(system)) <= 1e-12 * system.omega_a


def work_absorbed(traj: AmplitudeTrajectory, pulse: PulseSpec,
                  system: LambdaSystem) -> float:
    """Work the photon does on the emitter, W = hbar omega_a * flux.

    Raises
    ------
    ParameterError
        If the pulse is off resonance; the drive quadrature then mixes
        dispersive energy exchange into the would-be work.
    """
    if not is_resonant(pulse, system):
        raise ParameterError(
            "work ledger requires a resonant drive; "
            f"delta_L = {pulse.detuning(system):.3g}"
        )
    return system.omega_a * drive_energy_flux(traj, pulse, system)


def heat_dissipated(traj: AmplitudeTrajectory, system: LambdaSystem) -> float:
    """Energy radiated into the waveguide for a run started in |a>.

    Every emission event carries hbar omega_a off the monitored
    transition, and transfers that ended in |b> leave hbar delta_ab
    stored in the system rather than dissipated.  The emitted
    probability Gamma int p_e is (Gamma / gamma_b) p_ab(T), from the
    one quadrature of p_e the trajectory stores.
    """
    p_ab = float(traj.p_ab[-1])
    return (system.omega_a * (system.gamma_total / system.gamma_b * p_ab)
            - system.delta_ab * p_ab)


def energy_ledger(traj: AmplitudeTrajectory, pulse: PulseSpec,
                  system: LambdaSystem) -> ThermoLedger:
    """Close the first law for a resonant run started in |a>, and report
    (not judge) the adaptation-work residual.

    Raises
    ------
    NumericalConsistencyError
        If the trajectory has not converged (t_max too small), if the
        residual W - Q - Delta<H_S> exceeds LEDGER_TOL max(|W|, hbar
        omega_a), or if the dissipated heat comes out negative; a NaN in
        any of them fails too.
    """
    if not traj.converged():
        raise NumericalConsistencyError(
            "trajectory not converged: p_ab still growing near t_max"
        )
    w_abs = work_absorbed(traj, pulse, system)
    q_diss = heat_dissipated(traj, system)
    p_e_end = float(traj.p_e[-1])
    p_ab_end = float(traj.p_ab[-1])
    de_sys = system.omega_a * p_e_end + system.delta_ab * p_ab_end
    residual = w_abs - q_diss - de_sys
    bound = LEDGER_TOL * max(abs(w_abs), system.omega_a)
    # written so that a NaN residual, heat or bound fails
    if not abs(residual) <= bound:
        raise NumericalConsistencyError(
            f"energy ledger residual {residual:.3e} exceeds {bound:.3e}; "
            "the time step is too coarse for this tolerance, or the run "
            "overflowed"
        )
    if not q_diss >= -bound:
        raise NumericalConsistencyError(
            f"dissipated heat came out negative ({q_diss:.3e})"
        )
    p_inf = p_ab_infty(traj, system)
    return ThermoLedger(
        w_abs=w_abs,
        q_diss=q_diss,
        de_sys=de_sys,
        residual=residual,
        w_over_hw=w_abs / system.omega_a,
        p_ab_infty=p_inf,
        adaptation_residual=adaptation_work_check(system, p_inf, w_abs),
    )


def adaptation_work_check(system: LambdaSystem, p_ab_infty: float,
                          w_abs: float) -> float:
    """Residual of p_ab(inf) = (gamma_b / Gamma) W / (hbar omega_a)."""
    predicted = (system.gamma_b / system.gamma_total) * w_abs / system.omega_a
    return p_ab_infty - predicted


def interaction_energy(traj: AmplitudeTrajectory, pulse: PulseSpec,
                       system: LambdaSystem, mixture: InitialMixture,
                       t: float) -> float:
    """Mean interaction energy <H_I>(t).

    Equals p_a0 * 2 hbar g_a Im[psi*(t) phi_a(-t, 0)]; for a real
    envelope on resonance this vanishes identically, so the monitored
    emission inherits the bare transition energy hbar omega_a.  The
    carrier phases of psi~ and of the drive cancel in the product, so it
    is taken in the carrier frame, -p_a0 * 2 hbar Im[conj(psi^) f], from
    psi^ and the drive f(t) = -g_a phi_shape(-t).
    """
    if t < 0 or t > traj.t_max * (1 + 1e-12):
        raise ParameterError(f"t = {t} outside the integrated range")
    psi_hat = complex(traj.psi_hat_at(t))
    drive = complex(_drive(system, pulse, t))
    return -mixture.p_a0 * 2.0 * (psi_hat.conjugate() * drive).imag
