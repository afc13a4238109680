"""Amplitude integration against the exponential closed form."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from lambda_adapt.dynamics import (_PHI_SERIES_RADIUS, AmplitudeTrajectory,
                                   _affine_recursion, _phi_closed, _phi_series,
                                   _step_coefficients,
                                   asymptotic_prob_exponential, integrate_psi,
                                   p_ab_infty, psi_closed_form)
from lambda_adapt.errors import ConfigurationError, ParameterError
from lambda_adapt.model import (Exponential, Gaussian, LambdaSystem,
                                Rectangular, SimGrid, make_pulse)
from lambda_adapt.thermo import drive_energy_flux


def run(system, envelope, *, detuning=0.0, t_max=None, dt=None):
    pulse = make_pulse(envelope, system.omega_a + detuning)
    grid = SimGrid.auto(system, pulse, t_max=t_max, dt=dt)
    return pulse, grid, integrate_psi(system, pulse, grid)


class TestClosedFormAgreement:
    @pytest.mark.parametrize("linewidth", [0.1, 1.0, 2.0, 8.0])
    def test_resonant_exponential(self, linewidth):
        s = LambdaSystem(omega_a=1.0, gamma_a=1.0, gamma_b=1.0)
        _, _, traj = run(s, Exponential(linewidth))
        exact = psi_closed_form(s, make_pulse(Exponential(linewidth), 1.0),
                                traj.times)
        assert np.max(np.abs(traj.psi_nodes() - exact)) < 1e-9

    def test_detuned_exponential(self):
        s = LambdaSystem(omega_a=20.0, gamma_a=1.0, gamma_b=0.5)
        pulse, _, traj = run(s, Exponential(1.5), detuning=2.0)
        exact = psi_closed_form(s, pulse, traj.times)
        assert np.max(np.abs(traj.psi_nodes() - exact)) < 1e-9

    def test_degenerate_point_matches_series(self):
        # Gamma = Delta, delta_L = 0 puts x = 0 in the closed form;
        # the integrator should land on the series branch answer.
        s = LambdaSystem(omega_a=1.0, gamma_a=1.0, gamma_b=1.0)
        pulse, _, traj = run(s, Exponential(2.0), dt=0.002)
        exact = psi_closed_form(s, pulse, traj.times)
        assert np.max(np.abs(traj.psi_nodes() - exact)) < 1e-9
        # direct check of the x = 0 limit at one point
        t0 = 0.7
        want = -math.sqrt(2.0) * math.exp(-t0) * t0
        assert psi_closed_form(s, pulse, t0) == \
            pytest.approx(want, rel=1e-10)

    def test_series_branch_consistent_with_generic(self):
        s = LambdaSystem(omega_a=1.0, gamma_a=1.0, gamma_b=1.0)
        t = np.linspace(0.0, 0.5, 41)
        near = psi_closed_form(s, make_pulse(Exponential(2.0 + 1e-5), 1.0), t)
        at = psi_closed_form(s, make_pulse(Exponential(2.0), 1.0), t)
        assert np.max(np.abs(near - at)) < 1e-5

    def test_closed_form_rejects_bad_input(self):
        s = LambdaSystem(omega_a=1.0)
        exp_pulse = make_pulse(Exponential(1.0), 1.0)
        with pytest.raises(ParameterError):
            psi_closed_form(s, make_pulse(Gaussian(1.0), 1.0), 0.5)
        with pytest.raises(ParameterError):
            psi_closed_form(s, exp_pulse, -0.1)


class TestExponentialIntegrator:
    def test_narrow_detuned_pulse_at_the_dt_ceiling(self):
        s = LambdaSystem(omega_a=50.0, gamma_a=1.0, gamma_b=1.0)
        pulse, grid, traj = run(s, Exponential(1e-3), detuning=0.3,
                                dt=0.01 / 1e-3)
        exact = psi_closed_form(s, pulse, traj.times)
        assert np.max(np.abs(traj.psi_nodes() - exact)) <= 1e-9
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
        exact = psi_closed_form(s, pulse, t) \
            * np.exp(1j * pulse.detuning(s) * t)
        scale = np.max(np.abs(exact))
        assert np.max(np.abs(traj.psi_hat_at(t) - exact)) <= 3e-5 * scale

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
        psi_after = traj.psi_nodes(slice(i_tau, None))
        ref = psi_after[0] * np.exp(-0.5 * s.gamma_total * (t_after - tau))
        assert np.max(np.abs(psi_after - ref)) < 1e-10


class TestAffineRecursion:
    """The numpy scan against the recursion written out as a loop."""

    @staticmethod
    def loop(a, w):
        y = [complex(w[0])]
        for wk in w[1:]:
            y.append(a * y[-1] + complex(wk))
        return np.array(y)

    @staticmethod
    def exact_loop(a, w):
        """The loop in fixed point with 2^-256 resolution, rounded once.

        Python integers hold a = (ar + i ai) / 2^shift exactly and y in
        units of 2^-256, so no platform's float width enters.
        """
        one = 1 << 256
        (ar, dr), (ai, di) = (a.real.as_integer_ratio(),
                              a.imag.as_integer_ratio())
        shift = max(dr, di).bit_length() - 1
        ar <<= shift - dr.bit_length() + 1
        ai <<= shift - di.bit_length() + 1
        yr = yi = 0
        y = []
        for wk in w.tolist():
            yr, yi = (((ar * yr - ai * yi) >> shift)
                      + int(math.ldexp(wk.real, 256)),
                      ((ar * yi + ai * yr) >> shift)
                      + int(math.ldexp(wk.imag, 256)))
            y.append(complex(yr / one, yi / one))
        return np.array(y)

    @pytest.mark.parametrize("log_a, n_nodes", [
        (complex(-0.005, 0.003), 10_000),   # a 0.01 / Gamma transient step
        (complex(-4.0, 1.5), 1_000),        # a step far past the transient
        (complex(-0.3, 0.2), 2),            # a one-step stretch
    ])
    def test_matches_python_loop(self, log_a, n_nodes):
        rng = np.random.default_rng(n_nodes)
        w = rng.normal(size=n_nodes) + 1j * rng.normal(size=n_nodes)
        a = cmath.exp(log_a)
        expected = self.loop(a, w)
        got = _affine_recursion(a, w.copy())
        assert np.max(np.abs(got - expected)) <= 1e-14 * np.max(np.abs(expected))

    # Re log a from an a that underflows to 0 up to |a| -> 1, any turn,
    # 1 to 2e5 nodes, against the loop in exact arithmetic (in doubles
    # its own rounding drifts by 3.5e-14 of max |y| over 2e5 nodes at
    # |a| -> 1).  The scan holds 1e-14 with an extended np.longdouble;
    # where that is a double, its powers are rounded to doubles and it
    # drifts to 2.7e-13.  Examples: the slowest decay with the largest
    # turn at the largest size, a underflowed to 0, a subnormal, |a|^2
    # subnormal, both sides of the switch to recursive doubling, and the
    # longest array that takes the doubling at |a| -> 1.
    @settings(max_examples=60, deadline=None)
    @given(decay=st.floats(-9.0, math.log10(800.0)),
           turn=st.floats(-3.0, 3.0),
           size=st.floats(0.0, math.log10(2e5)),
           seed=st.integers(0, 2 ** 32 - 1))
    @example(decay=-9.0, turn=3.0, size=math.log10(2e5), seed=1)
    @example(decay=math.log10(800.0), turn=1.0, size=2.0, seed=2)
    @example(decay=math.log10(720.0), turn=-2.0, size=2.0, seed=3)
    @example(decay=math.log10(360.0), turn=0.5, size=3.0, seed=4)
    @example(decay=math.log10(0.649), turn=3.0, size=4.0, seed=5)
    @example(decay=math.log10(0.651), turn=-3.0, size=4.0, seed=6)
    @example(decay=-9.0, turn=-3.0, size=math.log10(128.0), seed=7)
    def test_matches_exact_loop(self, decay, turn, size, seed):
        n = int(round(10.0 ** size))
        rng = np.random.default_rng(seed)
        w = rng.normal(size=n) + 1j * rng.normal(size=n)
        a = cmath.exp(complex(-10.0 ** decay, turn))
        expected = self.exact_loop(a, w)
        got = _affine_recursion(a, w.copy())
        extended = np.finfo(np.longdouble).nmant > np.finfo(float).nmant
        bound = 1e-14 if extended else 5e-13
        assert np.max(np.abs(got - expected)) <= bound * np.max(np.abs(expected))


class TestAsymptoticProbability:
    def test_matches_long_run(self):
        s = LambdaSystem(omega_a=1.0, gamma_a=1.0, gamma_b=3.0)
        _, _, traj = run(s, Exponential(2.0), t_max=80.0)
        want = asymptotic_prob_exponential(s, 2.0)
        assert float(traj.p_ab[-1]) == pytest.approx(want, abs=1e-6)

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
        psi = traj.psi_nodes()
        assert abs(psi[i] - psi[i - 1]) < 5e-3
        assert abs(psi[i + 1] - psi[i]) < 5e-3

    def test_pure_decay_after_support(self):
        s = LambdaSystem(omega_a=1.0, gamma_a=1.0, gamma_b=1.0)
        tau = 2.0
        _, _, traj = run(s, Rectangular(tau), t_max=12.0, dt=0.002)
        sel = traj.times >= tau
        t_after = traj.times[sel]
        psi_after = traj.psi_nodes(sel)
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

    def test_refuses_an_oversized_transient_window(self):
        # detuned by 1e7 Gamma, the 60/Gamma window steps at 1e-9: 3e10
        # steps, refused before anything is allocated
        s = LambdaSystem(omega_a=50.0)
        pulse = make_pulse(Gaussian(1.2), 50.0 + 1e7)
        grid = SimGrid.auto(s, pulse)
        with pytest.raises(ConfigurationError, match="MAX_GRID_NODES"):
            integrate_psi(s, pulse, grid)

    def test_objective_and_work_read_the_stored_carrier_frame(self,
                                                              monkeypatch):
        # p_ab(inf) and the work quadrature read psi^ as integrate_psi
        # stored it: neither builds the rotated psi~
        s = LambdaSystem(omega_a=50.0, gamma_a=1.0, gamma_b=2.0)
        pulse, _, traj = run(s, Exponential(0.5), detuning=0.4)

        def rotated(*args):
            raise AssertionError("psi~ was formed")

        monkeypatch.setattr(AmplitudeTrajectory, "psi_nodes", rotated)
        p_ab_infty(traj, s)
        drive_energy_flux(traj, pulse, s)

    @pytest.mark.parametrize("detuning", [0.0, 0.4])
    def test_psi_nodes_is_the_rotating_frame_amplitude(self, detuning):
        s = LambdaSystem(omega_a=50.0, gamma_a=1.0, gamma_b=2.0)
        _, _, traj = run(s, Exponential(0.5), detuning=detuning)
        psi = traj.psi_nodes()
        phase = np.exp(-1j * traj.delta_l * traj.times)
        assert np.array_equal(psi, np.multiply(traj.psi_hat, phase))
        idx = np.arange(0, traj.times.size, 7)
        assert np.array_equal(traj.psi_nodes(idx).view(float),
                              psi[idx].view(float))

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
