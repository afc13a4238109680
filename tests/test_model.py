"""Envelope families, system parameters and grid validation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lambda_adapt.errors import (ConfigurationError, DegenerateInputError,
                                 ParameterError, UnsupportedEnvelopeError)
from lambda_adapt.model import (MAX_GRID_NODES, Exponential, Gaussian,
                                InitialMixture, LambdaSystem, Rectangular,
                                Sampled, SimGrid, envelope_at, make_pulse)


def norm_integral(pulse):
    """Numerical single-photon norm, must equal 1 for any envelope.

    Gauss-Legendre on each piece between the envelope's breakpoints
    (z = -c t over ``drive_breakpoints``), so families with jumps
    (rectangular) or kinks (sampled) are integrated piece by piece
    rather than across the jump; each piece is smooth, and 64 nodes
    integrate it to rounding.
    """
    c = pulse.c
    lo = -1.5 * pulse.settle_time() * c
    kinks = sorted(-c * t for t in pulse.drive_breakpoints())
    edges = np.array([lo, *(z for z in kinks if lo < z < 0.0), 0.0])
    x, w = np.polynomial.legendre.leggauss(64)
    half = 0.5 * np.diff(edges)[:, None]
    z = edges[:-1, None] + half * (x + 1.0)
    val = np.sum(half * w * np.abs(pulse.shape_at(z)) ** 2)
    return val / (2.0 * math.pi * pulse.rho * c)


class TestLambdaSystem:
    def test_defaults(self):
        s = LambdaSystem(omega_a=1.0)
        assert s.gamma_total == 2.0
        assert s.omega_b == 1.0
        assert s.delta_ab == 0.0

    def test_coupling_value(self):
        s = LambdaSystem(omega_a=1.0, gamma_a=2.0, gamma_b=0.5)
        assert s.coupling("a") == pytest.approx(math.sqrt(2.0 / (2 * math.pi)))
        assert s.coupling("b") == pytest.approx(math.sqrt(0.5 / (2 * math.pi)))
        with pytest.raises(ParameterError):
            s.coupling("c")

    @pytest.mark.parametrize("kwargs", [
        {"omega_a": -1.0},
        {"omega_a": 1.0, "gamma_a": 0.0},
        {"omega_a": 1.0, "gamma_b": -0.3},
        {"omega_a": 1.0, "rho_density": 0.0},
        {"omega_a": 1.0, "c_speed": -2.0},
        # delta_ab so large that omega_b would be negative
        {"omega_a": 1.0, "delta_ab": 2.0},
        {"omega_a": math.inf},
        {"omega_a": 1.0, "delta_ab": math.nan},
        # finite rates whose sum Gamma overflows
        {"omega_a": 1.0, "gamma_a": 1e308, "gamma_b": 1e308},
    ])
    def test_rejects_bad_parameters(self, kwargs):
        with pytest.raises(ParameterError):
            LambdaSystem(**kwargs)


class TestEnvelopes:
    @pytest.mark.parametrize("envelope", [
        Exponential(0.7), Gaussian(1.3), Gaussian(2.0, offset=5.0),
        Rectangular(2.5),
    ])
    def test_unit_norm(self, envelope):
        s = LambdaSystem(omega_a=1.0)
        pulse = make_pulse(envelope, 1.0, s)
        assert norm_integral(pulse) == pytest.approx(1.0, abs=1e-9)

    @settings(max_examples=25, deadline=None)
    @given(width=st.floats(0.05, 10.0))
    def test_unit_norm_property(self, width):
        s = LambdaSystem(omega_a=1.0)
        for envelope in (Exponential(width), Gaussian(1.0 / width),
                         Rectangular(1.0 / width)):
            pulse = make_pulse(envelope, 1.0, s)
            assert norm_integral(pulse) == pytest.approx(1.0, abs=1e-7)

    def test_exponential_shape(self):
        s = LambdaSystem(omega_a=1.0)
        p = make_pulse(Exponential(2.0), 1.0, s)
        z = np.array([-3.0, -1.0, 0.0, 0.5])
        vals = p.shape_at(z)
        assert vals[3] == 0.0
        # rising exponential e^{Delta z / 2c} toward the front at z = 0
        assert vals[1] / vals[0] == pytest.approx(math.exp(2.0), rel=1e-12)

    def test_exponential_rejects_nonpositive(self):
        with pytest.raises(ParameterError):
            make_pulse(Exponential(0.0), 1.0, LambdaSystem(omega_a=1.0))

    def test_gaussian_offset_floor(self):
        with pytest.raises(ParameterError):
            make_pulse(Gaussian(1.0, offset=3.0), 1.0,
                       LambdaSystem(omega_a=1.0))

    def test_gaussian_peak_position(self):
        s = LambdaSystem(omega_a=1.0)
        p = make_pulse(Gaussian(1.5, offset=6.0), 1.0, s)
        z = np.linspace(-30.0, 0.0, 30001)
        vals = np.abs(p.shape_at(z))
        assert z[np.argmax(vals)] == pytest.approx(-9.0, abs=2e-3)

    def test_rectangular_support(self):
        s = LambdaSystem(omega_a=1.0)
        p = make_pulse(Rectangular(2.0), 1.0, s)
        inside = p.shape_at(np.array([-1.0]))[0]
        assert inside == pytest.approx(math.sqrt(2.0 * math.pi / 2.0))
        assert p.shape_at(np.array([-2.5]))[0] == 0.0
        assert p.shape_at(np.array([0.5]))[0] == 0.0
        assert p.drive_breakpoints() == (2.0,)

    def test_envelope_at_carrier_phase(self):
        s = LambdaSystem(omega_a=1.0)
        p = make_pulse(Exponential(1.0), 3.0, s)
        z = np.array([-2.0])
        expected = p.shape_at(z)[0] * np.exp(1j * 3.0 * z[0])
        assert envelope_at(p, z)[0] == pytest.approx(expected)


class TestSampled:
    def test_renormalized_on_construction(self):
        s = LambdaSystem(omega_a=1.0)
        z = np.linspace(-8.0, 0.0, 4001)
        raw = 3.7 * np.exp(0.5 * z)
        p = make_pulse(Sampled(z=z, amplitude=raw), 1.0, s)
        assert norm_integral(p) == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("amp", [
        # the trapezoid of |a|^2 gave this triangle a norm of 2/3
        [0.0, 1.0, 0.0],
        [0.3, 1.0j, -0.5 + 0.2j],
    ])
    def test_unit_norm_of_the_interpolant(self, amp):
        s = LambdaSystem(omega_a=1.0)
        z = np.array([-2.0, -1.0, 0.0])
        p = make_pulse(Sampled(z=z, amplitude=np.array(amp, dtype=complex)),
                       1.0, s)
        assert norm_integral(p) == pytest.approx(1.0, abs=1e-12)

    def test_interpolation_between_samples(self):
        s = LambdaSystem(omega_a=1.0)
        z = np.array([-2.0, -1.0, 0.0])
        amp = np.array([0.0, 1.0, 0.0], dtype=complex)
        p = make_pulse(Sampled(z=z, amplitude=amp), 1.0, s)
        mid = p.shape_at(np.array([-1.5]))[0]
        peak = p.shape_at(np.array([-1.0]))[0]
        assert mid == pytest.approx(0.5 * peak)
        assert p.shape_at(np.array([-3.0]))[0] == 0.0

    def test_rejects_unsorted_and_positive_support(self):
        amp = np.ones(3, dtype=complex)
        with pytest.raises(ParameterError):
            Sampled(z=np.array([-1.0, -2.0, 0.0]), amplitude=amp)._check()
        with pytest.raises(ParameterError):
            Sampled(z=np.array([-1.0, 0.0, 1.0]), amplitude=amp)._check()

    def test_zero_norm_degenerate(self):
        s = LambdaSystem(omega_a=1.0)
        z = np.linspace(-1.0, 0.0, 5)
        with pytest.raises(DegenerateInputError):
            make_pulse(Sampled(z=z, amplitude=np.zeros(5, complex)), 1.0, s)


class TestMakePulse:
    def test_rejects_unknown_family(self):
        with pytest.raises(UnsupportedEnvelopeError):
            make_pulse(object(), 1.0, LambdaSystem(omega_a=1.0))

    def test_rejects_nonpositive_carrier(self):
        with pytest.raises(ParameterError):
            make_pulse(Exponential(1.0), 0.0, LambdaSystem(omega_a=1.0))

    @pytest.mark.parametrize("carrier", [math.inf, math.nan])
    def test_rejects_non_finite_carrier(self, carrier):
        with pytest.raises(ParameterError):
            make_pulse(Exponential(1.0), carrier, LambdaSystem(omega_a=1.0))

    def test_detuning(self):
        s = LambdaSystem(omega_a=5.0)
        p = make_pulse(Exponential(1.0), 5.3, s)
        assert p.detuning(s) == pytest.approx(0.3)


class TestInitialMixture:
    def test_distribution_enforced(self):
        with pytest.raises(ParameterError):
            InitialMixture(0.6, 0.6)
        with pytest.raises(ParameterError):
            InitialMixture(1.5, -0.5)

    def test_spontaneous_weights(self):
        s = LambdaSystem(omega_a=1.0, gamma_a=3.0, gamma_b=1.0)
        m = InitialMixture.spontaneous(s)
        assert m.p_a0 == pytest.approx(0.75)
        assert InitialMixture.pure_a().p_b0 == 0.0


class TestSimGrid:
    def setup_method(self):
        self.system = LambdaSystem(omega_a=1.0)
        self.pulse = make_pulse(Exponential(1.0), 1.0, self.system)

    def test_auto_covers_pulse(self):
        g = SimGrid.auto(self.system, self.pulse)
        assert g.t_max >= self.pulse.settle_time()
        # half the envelope ceiling, though Gamma = 2 exceeds the spectral
        # scale; a faster decay or a large detuning changes nothing
        assert g.dt == pytest.approx(0.005 / self.pulse.spectral_scale(),
                                     rel=1e-12)
        fast = LambdaSystem(omega_a=1.0, gamma_b=100.0)
        detuned = make_pulse(Exponential(1.0), 51.0, fast)
        assert SimGrid.auto(fast, detuned).dt == g.dt

    def test_rejects_coarse_dt(self):
        with pytest.raises(ConfigurationError):
            SimGrid(t_max=10.0, dt=0.1).validate(self.pulse)

    def test_dt_ceiling_is_the_envelope_scale(self):
        # spectral scale 1 < Gamma = 2: the ceiling is 0.01 / 1, not
        # 0.01 / Gamma, because the propagator absorbs Gamma exactly
        assert self.pulse.spectral_scale() < self.system.gamma_total
        ceiling = 0.01 / self.pulse.spectral_scale()
        for dt, ok in ((ceiling, True), (ceiling * 1.01, False)):
            grid = SimGrid(t_max=10.0, dt=dt)
            if ok:
                grid.validate(self.pulse)
            else:
                with pytest.raises(ConfigurationError, match="too coarse"):
                    grid.validate(self.pulse)

    def test_node_count_is_capped(self):
        dt = 0.004
        for nodes, ok in ((MAX_GRID_NODES, True), (MAX_GRID_NODES + 1, False),
                          (math.nan, False)):
            grid = SimGrid(t_max=nodes * dt, dt=dt)
            if ok:
                grid.validate(self.pulse)
            else:
                with pytest.raises(ConfigurationError, match="MAX_GRID_NODES"):
                    grid.validate(self.pulse)
