"""Acceptance checks: one test per headline claim of the toolkit.

Each test is self-contained and asserts the physics at its stated
tolerance, with wall-clock budgets enforced where a check is only
meaningful if it is also cheap to run.
"""

import math
import time

import numpy as np
import pytest

from lambda_adapt.dynamics import integrate_psi
from lambda_adapt.entropy import entropy_curve, heat_to_pab
from lambda_adapt.model import (Exponential, Gaussian, InitialMixture,
                                LambdaSystem, Rectangular, SimGrid,
                                make_pulse)
from lambda_adapt.optimize import maximize
from lambda_adapt.oracle import (DiscreteBath, OneExcitationState,
                                 build_hamiltonian, compare,
                                 discretize_pulse, evolve)
from lambda_adapt.thermo import (HBAR, adaptation_work_check,
                                 drive_energy_flux, energy_ledger,
                                 interaction_energy)


def fast_grid(system, pulse, t_max):
    """Grid to t_max at the fixed step 0.01 / max(Gamma, spectral scale,
    |delta_L|)."""
    rate = max(system.gamma_total, pulse.spectral_scale(),
               abs(pulse.detuning(system)))
    return SimGrid(t_max=float(t_max), dt=0.01 / rate)


def p_ab_infty(traj, system):
    """Transfer probability with the exact free-decay tail folded in."""
    return float(traj.p_ab[-1]) \
        + system.gamma_b / system.gamma_total * float(traj.p_e[-1])


def test_monochromatic_limit_reaches_full_transfer():
    start = time.perf_counter()
    s = LambdaSystem(omega_a=50.0, gamma_a=1.0, gamma_b=1.0)
    delta = 1e-3 * s.gamma_total
    pulse = make_pulse(Exponential(delta), s.omega_a, s)
    t_max = 9.5 / delta + 10.0 / s.gamma_total
    traj = integrate_psi(s, pulse, fast_grid(s, pulse, t_max))
    elapsed = time.perf_counter() - start
    assert traj.p_ab_final() == pytest.approx(1.0, abs=2e-3)
    assert elapsed < 10.0


def test_branching_ratio_formula():
    for gamma_a, gamma_b in ((1.0, 1.0), (1.0, 3.0), (3.0, 1.0), (1.0, 9.0)):
        s = LambdaSystem(omega_a=50.0, gamma_a=gamma_a, gamma_b=gamma_b)
        pulse = make_pulse(Exponential(1e-3), s.omega_a, s)
        t_max = 9.5 / 1e-3 + 10.0 / s.gamma_total
        traj = integrate_psi(s, pulse, fast_grid(s, pulse, t_max))
        want = 4.0 * gamma_a * gamma_b / s.gamma_total ** 2
        assert p_ab_infty(traj, s) == pytest.approx(want, abs=5e-3), \
            (gamma_a, gamma_b)


def test_absorbed_work_value():
    s = LambdaSystem(omega_a=50.0, gamma_a=1.0, gamma_b=1.0)

    def work_over_hw(delta):
        pulse = make_pulse(Exponential(delta), s.omega_a, s)
        t_max = 12.0 / delta + 10.0 / s.gamma_total
        traj = integrate_psi(s, pulse, fast_grid(s, pulse, t_max))
        return drive_energy_flux(traj, pulse, s)

    # narrowband limit: the photon deposits twice its own energy.  The
    # finite-width deficit is 2 delta / (gamma + delta), so delta = 1e-3
    # sits a factor of two inside the tolerance.
    assert work_over_hw(1e-3) == pytest.approx(2.0, abs=2e-3)
    for delta in (1e-3, 1e-2, 0.1, 1.0, 3.0, 10.0):
        want = 4.0 * s.gamma_a / (s.gamma_total + delta)
        assert work_over_hw(delta) == pytest.approx(want, rel=1e-4), delta


def test_adaptation_work_relation_across_families():
    start = time.perf_counter()
    for width in (0.3, 0.6, 1.0, 1.8, 3.0):
        for envelope in (Exponential(width), Gaussian(1.0 / width),
                         Rectangular(1.0 / width)):
            for ratio in (0.5, 1.0, 3.0):
                s = LambdaSystem(omega_a=50.0,
                                 gamma_a=2.0 / (1.0 + ratio),
                                 gamma_b=2.0 * ratio / (1.0 + ratio))
                pulse = make_pulse(envelope, s.omega_a, s)
                grid = SimGrid.auto(s, pulse)
                traj = integrate_psi(s, pulse, grid)
                ledger = energy_ledger(traj, pulse, s)
                residual = adaptation_work_check(s, ledger.p_ab_infty,
                                                 ledger.w_abs)
                assert abs(residual) <= 1e-6, (type(envelope).__name__,
                                               width, ratio, residual)
    assert time.perf_counter() - start < 120.0


def test_energy_ledger_closes_on_resonant_runs():
    for delta_ab in (0.0, 0.2):
        for envelope in (Exponential(1.0), Gaussian(1.0), Rectangular(2.0)):
            s = LambdaSystem(omega_a=1.0, delta_ab=delta_ab,
                             gamma_a=1.0, gamma_b=1.0)
            pulse = make_pulse(envelope, s.omega_a, s)
            grid = SimGrid.auto(s, pulse)
            traj = integrate_psi(s, pulse, grid)
            ledger = energy_ledger(traj, pulse, s, tol=1e-8)
            bound = 1e-8 * max(abs(ledger.w_abs), HBAR * s.omega_a)
            assert abs(ledger.residual) <= bound, (delta_ab,
                                                   type(envelope).__name__)


def test_backward_protocol_is_frozen():
    s = LambdaSystem(omega_a=50.0, gamma_a=1.0, gamma_b=1.0)
    bath = DiscreteBath(n_modes=801, bandwidth=40.0 * s.gamma_total)
    h = build_hamiltonian(s, bath, include_backward=True)
    n = bath.n_modes
    for envelope in (Exponential(0.3), Gaussian(1.2), Rectangular(2.0)):
        pulse = make_pulse(envelope, s.omega_a, s)
        amps = discretize_pulse(pulse, bath, s)
        state = OneExcitationState.from_pulse(amps, backward=True)
        run = evolve(h, state, 15.0 / s.gamma_total, bath=bath, system=s,
                     n_out=51)
        leak = float(np.max(np.sum(np.abs(run.states[:, :1 + 2 * n]) ** 2,
                                   axis=1)))
        assert leak <= 1e-12, type(envelope).__name__


def test_entropy_curve_shape():
    s = LambdaSystem(omega_a=1.0, gamma_a=1.0, gamma_b=1.0)
    curve = entropy_curve(s, InitialMixture(0.5, 0.5), n_points=200)
    assert np.all(np.diff(curve.s_e_c) >= -1e-12)
    assert curve.s_e_c[-1] == pytest.approx(math.log(2.0), abs=1e-9)
    k = int(np.argmax(curve.s_e))
    assert 0 < k < curve.s_e.size - 1
    assert curve.s_e[k] > curve.s_e[0]
    assert curve.s_e[k] > curve.s_e[-1]


def test_discrete_bath_reproduces_analytic_dynamics():
    start = time.perf_counter()
    s = LambdaSystem(omega_a=50.0, gamma_a=1.0, gamma_b=1.0)
    pulse = make_pulse(Gaussian(1.2), s.omega_a, s)
    report = compare(s, pulse, InitialMixture(0.5, 0.5))
    assert report.n_modes == 2001
    assert report.bandwidth == pytest.approx(40.0 * s.gamma_total)
    assert report.t_final == pytest.approx(15.0 / s.gamma_total)
    for key in ("p_e", "p_ab", "n_a", "n_b"):
        assert report.deviations[key] <= 1e-3, (key, report.deviations)
    assert report.deviations["s_e"] <= 1e-2, report.deviations
    assert report.passed, report.failures
    assert time.perf_counter() - start < 300.0


def test_interaction_energy_vanishes_only_on_resonance():
    s = LambdaSystem(omega_a=50.0, gamma_a=1.0, gamma_b=1.0)
    mix = InitialMixture(1.0, 0.0)

    pulse = make_pulse(Gaussian(1.0), s.omega_a, s)
    traj = integrate_psi(s, pulse, SimGrid.auto(s, pulse))
    for t in np.linspace(0.0, traj.t_max, 501):
        assert abs(interaction_energy(traj, pulse, s, mix, float(t))) \
            <= 1e-10 * HBAR * s.omega_a

    detuned = make_pulse(Gaussian(1.0), s.omega_a + 2.0 * s.gamma_total, s)
    traj_d = integrate_psi(s, detuned, SimGrid.auto(s, detuned))
    vals = [abs(interaction_energy(traj_d, detuned, s, mix, float(t)))
            for t in np.linspace(0.0, traj_d.t_max, 501)]
    assert max(vals) > 1e-6 * HBAR * s.omega_a


def test_optimizer_recovers_ideal_regime():
    s = LambdaSystem(omega_a=50.0, gamma_a=1.0, gamma_b=1.0)
    pulse = make_pulse(Exponential(1e-3), s.omega_a, s)

    result = maximize(s, pulse, {"detuning": (-0.5, 0.5),
                                 "rate_ratio": (0.25, 4.0)})
    assert abs(result.params["detuning"]) <= 1e-3, result.params
    assert abs(result.params["rate_ratio"] - 1.0) <= 1e-3, result.params
    assert result.value == pytest.approx(1.0, abs=2e-3)

    # both figures of merit pick the same resonant drive: at fixed decay
    # rates the absorbed work is proportional to the transfer probability
    argmax = {}
    for objective in ("p_ab_infty", "w_over_hw"):
        r = maximize(s, pulse, {"detuning": (-0.5, 0.5)},
                     objective=objective, budget=80)
        assert r.converged, objective
        argmax[objective] = r.params["detuning"]
    assert abs(argmax["p_ab_infty"] - argmax["w_over_hw"]) <= 1e-3, argmax


def test_heat_determines_transfer_probability():
    for delta_ab_frac in (0.0, 0.2):
        for delta in (1e-3, 1.0):
            s = LambdaSystem(omega_a=1.0, delta_ab=delta_ab_frac * 1.0,
                             gamma_a=1.0, gamma_b=1.0)
            pulse = make_pulse(Exponential(delta), s.omega_a, s)
            grid = SimGrid.auto(s, pulse)
            traj = integrate_psi(s, pulse, grid)
            ledger = energy_ledger(traj, pulse, s)
            direct = p_ab_infty(traj, s)
            assert heat_to_pab(s, ledger.q_diss) == \
                pytest.approx(direct, abs=1e-6), (delta_ab_frac, delta)
