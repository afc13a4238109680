"""Envelope families, system parameters and grid validation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import ndtr, wofz

from lambda_adapt.errors import (ConfigurationError, ParameterError,
                                 UnsupportedEnvelopeError)
from lambda_adapt.model import (MAX_GRID_NODES, Exponential, Gaussian,
                                InitialMixture, LambdaSystem, Rectangular,
                                SimGrid, _erfcx, make_pulse)


def norm_integral(pulse):
    """Numerical single-photon norm, must equal 1 for any envelope.

    Gauss-Legendre on each piece between the envelope's breakpoints
    (z = -t over ``drive_breakpoints``), so a family with a jump
    (rectangular) is integrated piece by piece rather than across the
    jump; each piece is smooth, and 64 nodes
    integrate it to rounding.
    """
    lo = -1.5 * pulse.envelope.settle_time()
    kinks = sorted(-t for t in pulse.envelope.drive_breakpoints())
    edges = np.array([lo, *(z for z in kinks if lo < z < 0.0), 0.0])
    x, w = np.polynomial.legendre.leggauss(64)
    half = 0.5 * np.diff(edges)[:, None]
    z = edges[:-1, None] + half * (x + 1.0)
    val = np.sum(half * w * np.abs(pulse.shape_at(z)) ** 2)
    return val / (2.0 * math.pi)


class TestLambdaSystem:
    def test_defaults(self):
        s = LambdaSystem(omega_a=1.0)
        assert s.gamma_total == 2.0
        assert s.omega_b == 1.0
        assert s.delta_ab == 0.0

    @pytest.mark.parametrize("kwargs", [
        {"omega_a": -1.0},
        {"omega_a": 1.0, "gamma_a": 0.0},
        {"omega_a": 1.0, "gamma_b": -0.3},
        # omega_a on the boundary, and a NaN rate that no sign test catches
        {"omega_a": 0.0},
        {"omega_a": 1.0, "gamma_a": math.nan},
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
        Exponential(0.7), Gaussian(1.3), Gaussian(2.0),
        Rectangular(2.5),
    ])
    def test_unit_norm(self, envelope):
        pulse = make_pulse(envelope, 1.0)
        assert norm_integral(pulse) == pytest.approx(1.0, abs=1e-9)

    @settings(max_examples=25, deadline=None)
    @given(width=st.floats(0.05, 10.0))
    def test_unit_norm_property(self, width):
        for envelope in (Exponential(width), Gaussian(1.0 / width),
                         Rectangular(1.0 / width)):
            pulse = make_pulse(envelope, 1.0)
            assert norm_integral(pulse) == pytest.approx(1.0, abs=1e-7)

    def test_exponential_shape(self):
        p = make_pulse(Exponential(2.0), 1.0)
        z = np.array([-3.0, -1.0, 0.0, 0.5])
        vals = p.shape_at(z)
        assert vals[3] == 0.0
        # rising exponential e^{Delta z / 2} toward the front at z = 0
        assert vals[1] / vals[0] == pytest.approx(math.exp(2.0), rel=1e-12)

    def test_exponential_rejects_nonpositive(self):
        with pytest.raises(ParameterError):
            make_pulse(Exponential(0.0), 1.0)

    def test_gaussian_peak_position(self):
        # centered 8 rms widths before the emitter
        p = make_pulse(Gaussian(1.5), 1.0)
        z = np.linspace(-30.0, 0.0, 30001)
        vals = np.abs(p.shape_at(z))
        assert z[np.argmax(vals)] == pytest.approx(-12.0, abs=2e-3)

    def test_gaussian_norm_constant_matches_ndtr(self):
        # the truncated weight is Phi(8), taken from math.erfc
        env = Gaussian(1.3)
        weight = env.sigma * math.sqrt(2.0 * math.pi) * ndtr(8.0)
        assert env.norm_constant() == math.sqrt(2.0 * math.pi / weight)

    def test_rectangular_support(self):
        p = make_pulse(Rectangular(2.0), 1.0)
        inside = p.shape_at(np.array([-1.0]))[0]
        assert inside == pytest.approx(math.sqrt(2.0 * math.pi / 2.0))
        assert p.shape_at(np.array([-2.5]))[0] == 0.0
        assert p.shape_at(np.array([0.5]))[0] == 0.0
        assert p.envelope.drive_breakpoints() == (2.0,)


def quad_spectrum(pulse, delta, edges):
    """integral shape(z) e^{-i delta z} dz by QUADPACK's Fourier rule.

    QAWO (``quad`` with a cos / sin weight) on each piece between the
    given z edges, the real and imaginary parts of the shape apart; each
    piece is smooth, and the rule meets 1e-12 relative or 1e-14 absolute.
    """
    total = 0j
    for lo, hi in zip(edges[:-1], edges[1:]):
        for part, unit in ((np.real, 1.0), (np.imag, 1j)):
            def f(z):
                return part(pulse.shape_at(np.array([z]))[0])
            cos, sin = (quad(f, lo, hi, weight=w, wvar=delta, epsabs=1e-14,
                             epsrel=1e-12, limit=500)[0]
                        for w in ("cos", "sin"))
            total += unit * (cos - 1j * sin)
    return total


# the detunings hold the delta = 0 bin and the edges of an 801-mode comb
# over 40 Gamma at Gamma = 2
_DETUNINGS = np.array([0.0, 1e-9, 0.37, -2.5, 7.9, -40.0, 40.0])


class TestSpectrum:
    @pytest.mark.parametrize("envelope, lo", [
        (Exponential(0.5), -80.0 / 0.5),        # amplitude e^-40 at lo
        (Gaussian(1.2), -(8.0 + 16.0) * 1.2),   # e^-64 at lo
        (Gaussian(0.5), -(8.0 + 16.0) * 0.5),
        (Rectangular(2.0), -2.0),
    ])
    def test_matches_quadrature(self, envelope, lo):
        pulse = make_pulse(envelope, 50.0)
        edges = np.array([lo, 0.0])
        ref = np.array([quad_spectrum(pulse, d, edges) for d in _DETUNINGS])
        got = pulse.envelope.spectrum(_DETUNINGS)
        assert got.shape == _DETUNINGS.shape
        scale = np.max(np.abs(ref))
        assert np.max(np.abs(got - ref)) <= 1e-10 * scale

    def test_exact_at_zero_detuning(self):
        rect = Rectangular(2.0).spectrum(np.array([0.0]))
        assert rect[0] == Rectangular(2.0).norm_constant() * 2.0
        expo = Exponential(0.5).spectrum(np.zeros(1))
        assert expo[0] == pytest.approx(
            Exponential(0.5).norm_constant() / 0.25, rel=1e-15)

    def test_gaussian_tail_matches_faddeeva(self):
        # e^{-b^2} erfc(a + i b) = e^{-a^2 - 2iab} w(i (a + i b)), with w
        # scipy's Faddeeva function, a = 4 and out to |b| = 60
        sigma = 0.8
        pulse = make_pulse(Gaussian(sigma), 50.0)
        delta = np.linspace(-60.0, 60.0, 4801) / sigma
        a, b = 4.0, sigma * delta
        ref = (2.0 * np.exp(-b * b + 2j * a * b)
               - np.exp(-a * a) * wofz(1j * (a + 1j * b)))
        ref *= pulse.envelope.norm_constant() * sigma * math.sqrt(math.pi)
        got = pulse.envelope.spectrum(delta)
        assert np.max(np.abs(got - ref)) <= 1e-10 * np.max(np.abs(ref))
        # the continued fraction itself: the two differ by 1.2e-14 here,
        # about what scipy's w is good to
        w = a + 1j * b
        tail = _erfcx(w)
        assert np.max(np.abs(tail - wofz(1j * w)) / np.abs(tail)) <= 3e-14

class TestMakePulse:
    def test_rejects_unknown_family(self):
        with pytest.raises(UnsupportedEnvelopeError):
            make_pulse(object(), 1.0)

    def test_rejects_nonpositive_carrier(self):
        with pytest.raises(ParameterError):
            make_pulse(Exponential(1.0), 0.0)

    @pytest.mark.parametrize("carrier", [math.inf, math.nan])
    def test_rejects_non_finite_carrier(self, carrier):
        with pytest.raises(ParameterError):
            make_pulse(Exponential(1.0), carrier)

    def test_detuning(self):
        s = LambdaSystem(omega_a=5.0)
        p = make_pulse(Exponential(1.0), 5.3)
        assert p.detuning(s) == pytest.approx(0.3)


class TestInitialMixture:
    @pytest.mark.parametrize("p_a0", [1.5, -0.5, math.nan],
                             ids=["above", "below", "nan"])
    def test_distribution_enforced(self, p_a0):
        with pytest.raises(ParameterError):
            InitialMixture(p_a0)


class TestSimGrid:
    def setup_method(self):
        self.system = LambdaSystem(omega_a=1.0)
        self.pulse = make_pulse(Exponential(1.0), 1.0)

    def test_auto_covers_pulse(self):
        g = SimGrid.auto(self.system, self.pulse)
        assert g.t_max >= self.pulse.envelope.settle_time()
        # half the envelope ceiling, though Gamma = 2 exceeds the spectral
        # scale; a faster decay or a large detuning changes nothing
        scale = self.pulse.envelope.spectral_scale()
        assert g.dt == pytest.approx(0.005 / scale, rel=1e-12)
        fast = LambdaSystem(omega_a=1.0, gamma_b=100.0)
        detuned = make_pulse(Exponential(1.0), 51.0)
        assert SimGrid.auto(fast, detuned).dt == g.dt

    def test_rejects_coarse_dt(self):
        with pytest.raises(ConfigurationError):
            SimGrid(t_max=10.0, dt=0.1).validate(self.pulse)

    def test_dt_ceiling_is_the_envelope_scale(self):
        # spectral scale 1 < Gamma = 2: the ceiling is 0.01 / 1, not
        # 0.01 / Gamma, because the propagator absorbs Gamma exactly
        assert self.pulse.envelope.spectral_scale() < self.system.gamma_total
        ceiling = 0.01 / self.pulse.envelope.spectral_scale()
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
