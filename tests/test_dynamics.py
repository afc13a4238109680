"""Amplitude integration against the exponential closed form."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from lambda_adapt.dynamics import (_PHI_SERIES_RADIUS, _phi_closed,
                                   _phi_series, _step_coefficients,
                                   asymptotic_prob_exponential, integrate_psi,
                                   populations, psi_closed_form)
from lambda_adapt.errors import ConfigurationError, ParameterError
from lambda_adapt.model import (Exponential, Gaussian, InitialMixture,
                                LambdaSystem, Rectangular, SimGrid, make_pulse)


def run(system, envelope, *, detuning=0.0, t_max=None, dt=None):
    pulse = make_pulse(envelope, system.omega_a + detuning, system)
    grid = SimGrid.auto(system, pulse, t_max=t_max, dt=dt)
    return pulse, grid, integrate_psi(system, pulse, grid)


class TestClosedFormAgreement:
    @pytest.mark.parametrize("linewidth", [0.1, 1.0, 2.0, 8.0])
    def test_resonant_exponential(self, linewidth):
        s = LambdaSystem(omega_a=1.0, gamma_a=1.0, gamma_b=1.0)
        _, _, traj = run(s, Exponential(linewidth))
        exact = psi_closed_form(s, make_pulse(Exponential(linewidth), 1.0, s),
                                traj.times, frame="rotating")
        assert np.max(np.abs(traj.psi - exact)) < 1e-9

    def test_detuned_exponential(self):
        s = LambdaSystem(omega_a=20.0, gamma_a=1.0, gamma_b=0.5)
        pulse, _, traj = run(s, Exponential(1.5), detuning=2.0)
        exact = psi_closed_form(s, pulse, traj.times, frame="rotating")
        assert np.max(np.abs(traj.psi - exact)) < 1e-9

    def test_degenerate_point_matches_series(self):
        # Gamma = Delta, delta_L = 0 puts x = 0 in the closed form;
        # the integrator should land on the series branch answer.
        s = LambdaSystem(omega_a=1.0, gamma_a=1.0, gamma_b=1.0)
        pulse, _, traj = run(s, Exponential(2.0), dt=0.002)
        exact = psi_closed_form(s, pulse, traj.times, frame="rotating")
        assert np.max(np.abs(traj.psi - exact)) < 1e-9
        # direct check of the x = 0 limit at one point
        t0 = 0.7
        want = -math.sqrt(2.0) * math.exp(-t0) * t0
        assert psi_closed_form(s, pulse, t0, frame="rotating") == \
            pytest.approx(want, rel=1e-10)

    def test_series_branch_consistent_with_generic(self):
        s = LambdaSystem(omega_a=1.0, gamma_a=1.0, gamma_b=1.0)
        t = np.linspace(0.0, 0.5, 41)
        near = psi_closed_form(s, make_pulse(Exponential(2.0 + 1e-5), 1.0, s), t)
        at = psi_closed_form(s, make_pulse(Exponential(2.0), 1.0, s), t)
        assert np.max(np.abs(near - at)) < 1e-5

    def test_lab_frame_phase(self):
        s = LambdaSystem(omega_a=7.0, gamma_a=1.0, gamma_b=1.0)
        pulse = make_pulse(Exponential(1.0), 7.0, s)
        t = np.array([0.3, 1.1])
        rot = psi_closed_form(s, pulse, t, frame="rotating")
        lab = psi_closed_form(s, pulse, t, frame="lab")
        assert np.allclose(lab, rot * np.exp(-1j * 7.0 * t), rtol=0, atol=1e-14)

    def test_closed_form_rejects_bad_input(self):
        s = LambdaSystem(omega_a=1.0)
        exp_pulse = make_pulse(Exponential(1.0), 1.0, s)
        with pytest.raises(ParameterError):
            psi_closed_form(s, make_pulse(Gaussian(1.0), 1.0, s), 0.5)
        with pytest.raises(ParameterError):
            psi_closed_form(s, exp_pulse, -0.1)
        with pytest.raises(ParameterError):
            psi_closed_form(s, exp_pulse, 0.5, frame="interaction")


class TestExponentialIntegrator:
    def test_narrow_detuned_pulse_at_the_dt_ceiling(self):
        s = LambdaSystem(omega_a=50.0, gamma_a=1.0, gamma_b=1.0)
        pulse, grid, traj = run(s, Exponential(1e-3), detuning=0.3,
                                dt=0.01 / 1e-3)
        exact = psi_closed_form(s, pulse, traj.times, frame="rotating")
        assert np.max(np.abs(traj.psi - exact)) <= 1e-9
        # the transient window runs at 0.01 / Gamma, the rest at grid.dt
        (a0, a1), (b0, b1) = traj.segments
        assert traj.times[a1] == pytest.approx(60.0 / s.gamma_total)
        assert np.allclose(np.diff(traj.times[a0:a1 + 1]),
                           0.01 / s.gamma_total)
        slow = np.diff(traj.times[b0:b1 + 1])
        assert np.all(slow <= grid.dt * (1 + 1e-12))
        assert np.all(slow > 0.9 * grid.dt)

    def test_off_node_values_at_the_dt_ceiling(self):
        # psi~ turns by delta_L dt = 3 rad per slow step; interpolation in
        # the carrier frame keeps values between the nodes exact to the
        # interpolation error of the envelope and the transient
        s = LambdaSystem(omega_a=50.0, gamma_a=1.0, gamma_b=1.0)
        pulse, grid, traj = run(s, Exponential(1e-3), detuning=0.3,
                                dt=0.01 / 1e-3)
        t = traj.times[:-1] + 0.37 * np.diff(traj.times)
        exact = psi_closed_form(s, pulse, t, frame="rotating")
        scale = np.max(np.abs(exact))
        assert np.max(np.abs(traj.psi_at(t) - exact)) <= 3e-5 * scale

    def test_phi_branches_agree_at_the_switch(self):
        for angle in np.linspace(0.0, 2.0 * math.pi, 25):
            z = cmath.rect(_PHI_SERIES_RADIUS, angle)
            for a, b in zip(_phi_series(z), _phi_closed(z)):
                assert abs(a - b) <= 1e-13 * abs(a), (angle, a, b)

    @pytest.mark.parametrize("z", [0.01j, -0.3 + 0.2j, -1.0 + 0.5j,
                                   -4.0 - 3.0j, -40.0 + 2.0j])
    def test_step_is_exact_for_quadratic_drive(self, z):
        # y' = lam y + f, y(0) = 0, f in {1, s, s^2}: compare one step
        # with the quadrature of int_0^h e^{lam (h - s)} f(s) ds
        h = 0.7
        lam = z / h
        A, w0, w1, w2 = _step_coefficients(lam, h)
        assert A == pytest.approx(cmath.exp(z), rel=1e-15)
        for f in (lambda t: 1.0, lambda t: t, lambda t: t * t):
            def integrand(t, part):
                return part(cmath.exp(lam * (h - t)) * f(t))
            want = complex(quad(integrand, 0.0, h, args=(np.real,),
                                epsabs=0, epsrel=1e-13)[0],
                           quad(integrand, 0.0, h, args=(np.imag,),
                                epsabs=0, epsrel=1e-13)[0])
            got = w0 * f(0.0) + w1 * f(0.5 * h) + w2 * f(h)
            assert abs(got - want) <= 1e-12 * abs(want)

    def test_coarse_rectangular_restarts_window_at_the_edge(self):
        s = LambdaSystem(omega_a=1.0, gamma_a=1.0, gamma_b=1.0)
        tau = 100.0
        _, grid, traj = run(s, Rectangular(tau), detuning=0.3,
                            t_max=tau + 40.0, dt=1.0)
        window = 60.0 / s.gamma_total
        starts = [traj.times[i0] for i0, _ in traj.segments]
        assert starts == pytest.approx([0.0, window, tau, tau + window])
        h_fast = 0.01 / s.gamma_total
        for k in (0, 2):
            i0, i1 = traj.segments[k]
            assert np.allclose(np.diff(traj.times[i0:i1 + 1]), h_fast)
        for k in (1, 3):
            i0, i1 = traj.segments[k]
            assert np.allclose(np.diff(traj.times[i0:i1 + 1]), grid.dt)
        # past the edge the drive is off: pure decay, no carrier phase
        i_tau = traj.segments[2][0]
        t_after = traj.times[i_tau:]
        ref = traj.psi[i_tau] * np.exp(-0.5 * s.gamma_total * (t_after - tau))
        assert np.max(np.abs(traj.psi[i_tau:] - ref)) < 1e-10


class TestAsymptoticProbability:
    def test_matches_long_run(self):
        s = LambdaSystem(omega_a=1.0, gamma_a=1.0, gamma_b=3.0)
        _, _, traj = run(s, Exponential(2.0), t_max=80.0)
        want = asymptotic_prob_exponential(s, 2.0)
        assert traj.p_ab_final() == pytest.approx(want, abs=1e-6)

    def test_detuning_suppression(self):
        s = LambdaSystem(omega_a=1.0, gamma_a=1.0, gamma_b=1.0)
        p0 = asymptotic_prob_exponential(s, 1.0, 0.0)
        p2 = asymptotic_prob_exponential(s, 1.0, 2.0)
        # Lorentzian factor (Gamma + Delta)^2 / ((Gamma + Delta)^2 + 4 dL^2)
        assert p2 / p0 == pytest.approx(9.0 / 25.0, rel=1e-12)

    def test_rejects_nonpositive_linewidth(self):
        s = LambdaSystem(omega_a=1.0)
        with pytest.raises(ParameterError):
            asymptotic_prob_exponential(s, 0.0)


class TestRectangularPulse:
    def test_amplitude_continuous_at_edges(self):
        s = LambdaSystem(omega_a=1.0, gamma_a=1.0, gamma_b=1.0)
        tau = 3.0
        _, _, traj = run(s, Rectangular(tau), dt=0.002)
        # psi is continuous across the drive discontinuity at t = tau
        i = np.searchsorted(traj.times, tau)
        assert traj.times[i] == pytest.approx(tau)
        assert abs(traj.psi[i] - traj.psi[i - 1]) < 5e-3
        assert abs(traj.psi[i + 1] - traj.psi[i]) < 5e-3

    def test_pure_decay_after_support(self):
        s = LambdaSystem(omega_a=1.0, gamma_a=1.0, gamma_b=1.0)
        tau = 2.0
        _, _, traj = run(s, Rectangular(tau), t_max=12.0, dt=0.002)
        sel = traj.times >= tau
        t_after = traj.times[sel]
        psi_after = traj.psi[sel]
        ref = psi_after[0] * np.exp(-0.5 * s.gamma_total * (t_after - tau))
        assert np.max(np.abs(psi_after - ref)) < 1e-10

    def test_segments_cover_grid(self):
        s = LambdaSystem(omega_a=1.0, gamma_a=1.0, gamma_b=1.0)
        _, _, traj = run(s, Rectangular(2.0), t_max=10.0)
        assert traj.segments[0][0] == 0
        assert traj.segments[-1][1] == traj.times.size - 1
        for (a0, a1), (b0, _) in zip(traj.segments[:-1], traj.segments[1:]):
            assert a1 == b0


class TestTrajectoryBookkeeping:
    def test_converged_flag(self):
        s = LambdaSystem(omega_a=1.0, gamma_a=1.0, gamma_b=1.0)
        _, _, long_traj = run(s, Exponential(1.0))
        assert long_traj.converged()
        _, _, short_traj = run(s, Exponential(1.0), t_max=1.0)
        assert not short_traj.converged()

    def test_rejects_foreign_pulse(self):
        s = LambdaSystem(omega_a=1.0)
        other = LambdaSystem(omega_a=1.0, rho_density=2.0)
        pulse = make_pulse(Exponential(1.0), 1.0, other)
        grid = SimGrid.auto(s, make_pulse(Exponential(1.0), 1.0, s))
        with pytest.raises(ParameterError):
            integrate_psi(s, pulse, grid)

    def test_refuses_an_oversized_transient_window(self):
        # detuned by 1e7 Gamma, the 60/Gamma window steps at 1e-9: 3e10
        # steps, refused before anything is allocated
        s = LambdaSystem(omega_a=50.0)
        pulse = make_pulse(Gaussian(1.2), 50.0 + 1e7, s)
        grid = SimGrid.auto(s, pulse)
        with pytest.raises(ConfigurationError, match="MAX_GRID_NODES"):
            integrate_psi(s, pulse, grid)

    @settings(max_examples=20, deadline=None)
    @given(linewidth=st.floats(0.1, 6.0),
           ratio=st.floats(0.2, 5.0))
    def test_probability_bounds(self, linewidth, ratio):
        s = LambdaSystem(omega_a=1.0, gamma_a=1.0, gamma_b=ratio)
        _, _, traj = run(s, Exponential(linewidth))
        total = traj.p_e + traj.p_ab
        assert np.all(traj.p_e >= 0.0)
        assert np.all(np.diff(traj.p_ab) >= -1e-15)
        assert np.max(total) <= 1.0 + 1e-9


class TestPopulations:
    def test_sum_to_one(self):
        s = LambdaSystem(omega_a=1.0, gamma_a=1.0, gamma_b=1.0)
        _, _, traj = run(s, Exponential(1.0))
        mix = InitialMixture(0.3, 0.7)
        pops = populations(s, mix, traj)
        total = pops.p_a + pops.p_b + pops.p_e
        assert np.max(np.abs(total - 1.0)) < 1e-12
        assert pops.p_b[0] == pytest.approx(0.7)
        assert pops.p_a[0] == pytest.approx(0.3)

    def test_pure_b_is_inert(self):
        s = LambdaSystem(omega_a=1.0, gamma_a=1.0, gamma_b=1.0)
        _, _, traj = run(s, Exponential(1.0))
        pops = populations(s, InitialMixture(0.0, 1.0), traj)
        assert np.all(pops.p_b == 1.0)
        assert np.all(pops.p_e == 0.0)
