"""Environment spectrum, entropies and the heat inversion."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lambda_adapt import entropy
from lambda_adapt.dynamics import integrate_psi
from lambda_adapt.entropy import (EnvSpectrum, asymptotic_spectrum,
                                  classical_entropy, entropy_curve,
                                  env_eigenvalues, heat_to_pab,
                                  normalized_overlap_sq, overlap_series,
                                  quantum_branch_entropy, von_neumann)
from lambda_adapt.errors import NumericalConsistencyError, ParameterError
from lambda_adapt.model import (Exponential, Gaussian, InitialMixture,
                                LambdaSystem, Rectangular, SimGrid,
                                make_pulse)
from lambda_adapt.thermo import drive_energy_flux


def dense_eigenvalues(mixture, psi_sq, n_a, n_b, overlap_sq):
    """Same spectrum from an explicit matrix, basis {vac, 1_b, free, perp}.

    Tracing the system out of the a-started branch leaves the mixture
    psi_sq |vac><vac| + n_b |1_b><1_b| + n_a |u><u| with the scattered
    photon u = o |free> + sqrt(1 - o^2) |perp>; the b-started branch
    contributes the free pulse itself.
    """
    o = math.sqrt(overlap_sq)
    u = np.array([0.0, 0.0, o, math.sqrt(max(1.0 - o * o, 0.0))])
    vac = np.array([1.0, 0.0, 0.0, 0.0])
    one_b = np.array([0.0, 1.0, 0.0, 0.0])
    free = np.array([0.0, 0.0, 1.0, 0.0])
    rho = mixture.p_a0 * (psi_sq * np.outer(vac, vac)
                          + n_b * np.outer(one_b, one_b)
                          + n_a * np.outer(u, u)) \
        + mixture.p_b0 * np.outer(free, free)
    return np.sort(np.linalg.eigvalsh(rho))[::-1]


class TestEigenvalues:
    @pytest.mark.parametrize("args", [
        (0.5, 0.0, 0.7, 0.3, 0.4),
        (0.25, 0.1, 0.5, 0.4, 0.9),
        (1.0, 0.0, 0.2, 0.8, 0.0),
        (0.0, 0.05, 0.55, 0.4, 1.0),
    ])
    def test_matches_dense_diagonalization(self, args):
        p_a0, psi_sq, n_a, n_b, overlap_sq = args
        mix = InitialMixture(p_a0)
        lams = env_eigenvalues(mix, psi_sq, n_a, n_b, overlap_sq)
        want = dense_eigenvalues(mix, psi_sq, n_a, n_b, overlap_sq)
        assert np.max(np.abs(lams - want)) < 1e-12
        assert lams.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(np.diff(lams) <= 0.0)

    def test_arrays_give_one_spectrum_per_element(self):
        rows = [(0.0, 0.7, 0.3, 0.4), (0.1, 0.5, 0.4, 0.9),
                (0.05, 0.55, 0.4, 1.0), (0.0, 0.2, 0.8, 0.0)]
        mix = InitialMixture(0.3)
        psi_sq, n_a, n_b, overlap_sq = (np.array(c) for c in zip(*rows))
        lams = env_eigenvalues(mix, psi_sq, n_a, n_b, overlap_sq)
        assert lams.shape == (4, 4)
        entropies = von_neumann(lams)
        for k, row in enumerate(rows):
            one = env_eigenvalues(mix, *row)
            assert np.array_equal(lams[k], one)
            assert entropies[k] == von_neumann(one)
        assert np.array_equal(quantum_branch_entropy(n_a, n_b, psi_sq),
                              [quantum_branch_entropy(*r[1:3], r[0])
                               for r in rows])
        with pytest.raises(ParameterError):
            env_eigenvalues(mix, psi_sq, n_a, n_b + 0.1, overlap_sq)

    def test_rejects_bad_weights(self):
        mix = InitialMixture(0.5)
        with pytest.raises(ParameterError):
            env_eigenvalues(mix, 0.5, 0.5, 0.5, 0.0)
        with pytest.raises(ParameterError):
            env_eigenvalues(mix, -0.1, 0.6, 0.5, 0.0)
        with pytest.raises(ParameterError):
            env_eigenvalues(mix, 0.0, 0.5, 0.5, 1.5)

    @pytest.mark.parametrize("k", range(4),
                             ids=["psi_sq", "n_a", "n_b", "overlap_sq"])
    def test_rejects_nan(self, k):
        args = [0.0, 0.5, 0.5, 0.1]
        args[k] = math.nan
        with pytest.raises(ParameterError):
            env_eigenvalues(InitialMixture(0.5), *args)


class TestVonNeumann:
    def test_basic_values(self):
        assert von_neumann([1.0, 0.0, 0.0]) == 0.0
        assert von_neumann([0.5, 0.5]) == pytest.approx(math.log(2.0))
        assert von_neumann(np.full(4, 0.25)) == pytest.approx(math.log(4.0))

    def test_pure_spectrum_is_a_positive_zero(self):
        # one spectrum and a stack; a mixed one keeps every bit of -sum
        assert not np.signbit(von_neumann([1.0, 0.0, 0.0]))
        stack = von_neumann([[0.0, 1.0], [0.0, 0.0], [0.25, 0.75]])
        assert not np.any(np.signbit(stack[:2])) and not np.any(stack[:2])
        terms = np.array([0.25, 0.75]) * np.log([0.25, 0.75])
        assert stack[2] == -np.sum(terms)

    def test_zero_times_log_zero(self):
        assert von_neumann([0.3, 0.7, 0.0, 0.0]) == \
            pytest.approx(-(0.3 * math.log(0.3) + 0.7 * math.log(0.7)))

    def test_rejects_invalid_spectra(self):
        with pytest.raises(ParameterError):
            von_neumann([-0.2, 1.2])
        with pytest.raises(ParameterError):
            von_neumann([0.9, 0.9])

    def test_rejects_nan(self):
        with pytest.raises(ParameterError):
            von_neumann([math.nan, 0.5, 0.5, 0.0])

    def test_branch_entropy_alias(self):
        assert quantum_branch_entropy(0.5, 0.5, 0.0) == \
            pytest.approx(math.log(2.0))


class TestAsymptoticSpectrum:
    def test_no_transfer_is_pure(self):
        s = LambdaSystem(omega_a=1.0, gamma_a=1.0, gamma_b=1.0)
        spec = asymptotic_spectrum(s, InitialMixture(0.5), 0.0, 0.0)
        # overlap 1 - (Gamma / 2 gamma_b) p = 1 on N_a = 1
        assert spec.n_a == 1.0
        assert spec.overlap_sq == 1.0
        assert spec.psi_sq == 0.0 and spec.n_b == 0.0
        assert spec.s_e == 0.0

    def test_full_transfer_orthogonal(self):
        s = LambdaSystem(omega_a=1.0, gamma_a=1.0, gamma_b=1.0)
        mix = InitialMixture(0.5)
        spec = asymptotic_spectrum(s, mix, 1.0, 0.0)
        assert spec.n_a == pytest.approx(0.0, abs=1e-15)
        assert spec.overlap_sq == 0.0
        # the overlap 1 - p vanishes with N_a: |.|^2 / N_a = 1 - p
        near = asymptotic_spectrum(s, mix, 1.0 - 1e-6, 0.0)
        assert near.overlap_sq == pytest.approx(1e-6, rel=1e-9)

    def test_range_depends_on_rates(self):
        s = LambdaSystem(omega_a=1.0, gamma_a=1.0, gamma_b=3.0)
        mix = InitialMixture(0.5)
        p_max = 4.0 * 3.0 / 16.0
        asymptotic_spectrum(s, mix, p_max, 0.0)  # boundary is allowed
        # overlap 1 - (Gamma / 2 gamma_b) p = 2/3 on N_a = 1/2 at p = 1/2
        mid = asymptotic_spectrum(s, mix, 0.5, 0.0)
        assert mid.overlap_sq == pytest.approx(8.0 / 9.0, rel=1e-15)
        with pytest.raises(ParameterError):
            asymptotic_spectrum(s, mix, p_max + 1e-6, 0.0)
        with pytest.raises(ParameterError):
            asymptotic_spectrum(s, mix, -0.01, 0.0)

    @pytest.mark.parametrize("rates", [(1.0, 1.0), (1.0, 3.0)])
    def test_rounding_excess_is_clamped(self, rates):
        # p_ab(inf) a rounding excess above its maximum: the spectrum is
        # formed from the maximum, so N_a stays in env_eigenvalues' range
        s = LambdaSystem(omega_a=1.0, gamma_a=rates[0], gamma_b=rates[1])
        mix = InitialMixture(0.5)
        p_max = 4.0 * rates[0] * rates[1] / sum(rates) ** 2
        spec = asymptotic_spectrum(s, mix, p_max * (1.0 + 1e-10), 0.0)
        at_max = asymptotic_spectrum(s, mix, p_max, 0.0)
        assert spec.n_b == p_max
        assert spec.n_a == 1.0 - p_max
        assert spec.overlap_sq == at_max.overlap_sq
        assert np.array_equal(spec.lambdas, at_max.lambdas)
        # inside the range nothing is clamped
        assert asymptotic_spectrum(s, mix, 0.3 * p_max, 0.0).n_b == 0.3 * p_max

    def test_refuses_an_array_with_one_value_out_of_range(self):
        s = LambdaSystem(omega_a=1.0, gamma_a=1.0, gamma_b=3.0)
        mix = InitialMixture(0.5)
        p = np.linspace(0.0, 0.75, 7)
        assert asymptotic_spectrum(s, mix, p, 0.0).s_e.shape == (7,)
        for k, bad in ((3, 0.75 + 1e-6), (0, -0.01)):
            q = p.copy()
            q[k] = bad
            with pytest.raises(ParameterError, match=repr(bad)):
                asymptotic_spectrum(s, mix, q, 0.0)

    def test_imaginary_part_adds_to_the_overlap(self):
        # overlap 1 - p + 0.25i on N_a = 1 - p at p = 1/2: |.|^2 / N_a
        s = LambdaSystem(omega_a=1.0, gamma_a=1.0, gamma_b=1.0)
        spec = asymptotic_spectrum(s, InitialMixture(0.5), 0.5, 0.25)
        assert spec.overlap_sq == pytest.approx(0.625, rel=1e-15)

    def test_rejects_nan(self):
        s = LambdaSystem(omega_a=1.0)
        mix = InitialMixture(0.5)
        with pytest.raises(ParameterError):
            asymptotic_spectrum(s, mix, math.nan, 0.0)
        with pytest.raises(ParameterError, match="nan"):
            asymptotic_spectrum(s, mix, np.array([0.1, math.nan, 0.2]), 0.0)


def compare_grid_run(s, pulse):
    """The trajectory oracle.compare integrates: SimGrid.auto to 15/Gamma."""
    grid = SimGrid.auto(s, pulse, t_max=15.0 / s.gamma_total)
    return integrate_psi(s, pulse, grid)


def exponential_overlap(s, linewidth, detuning, t):
    """sqrt(N_a) <free | phi_a>(t) for the exponential envelope.

    1 - (gamma_a Delta / x) [(1 - e^{-Delta t}) / Delta
                             - (1 - e^{-kappa t}) / kappa]
    with x = (Gamma - Delta)/2 - i delta_L, kappa = (Gamma + Delta)/2
    - i delta_L, from the closed-form amplitude.
    """
    x = 0.5 * (s.gamma_total - linewidth) - 1j * detuning
    kappa = 0.5 * (s.gamma_total + linewidth) - 1j * detuning
    bracket = (-np.expm1(-linewidth * t) / linewidth
               + np.expm1(-kappa * t) / kappa)
    return 1.0 - s.gamma_a * linewidth / x * bracket


class TestOverlapSeries:
    @pytest.mark.parametrize("detuning", [0.0, 0.3])
    def test_exponential_closed_form(self, detuning):
        s = LambdaSystem(omega_a=50.0, gamma_a=1.0, gamma_b=1.0)
        pulse = make_pulse(Exponential(0.5), 50.0 + detuning)
        traj = compare_grid_run(s, pulse)
        t = np.linspace(0.0, traj.t_max, 301)
        got = overlap_series(traj, pulse, s, t)
        want = exponential_overlap(s, 0.5, detuning, t)
        assert np.max(np.abs(got - want)) <= 1e-6

    def test_limit_is_the_asymptotic_overlap(self):
        s = LambdaSystem(omega_a=1.0, gamma_a=1.0, gamma_b=1.0)
        pulse = make_pulse(Gaussian(1.0), 1.0)
        traj = integrate_psi(s, pulse, SimGrid.auto(s, pulse, dt=0.002))
        end = overlap_series(traj, pulse, s, traj.t_max)
        p = float(traj.p_ab[-1])
        # 1 - (Gamma / 2 gamma_b) p_ab(inf), here 1 - p_ab(inf)
        assert end.real == pytest.approx(1.0 - p, abs=1e-6)
        assert abs(end.imag) < 1e-12
        spec = asymptotic_spectrum(s, InitialMixture(0.5), p, 0.0)
        assert normalized_overlap_sq(end, spec.n_a) == \
            pytest.approx(spec.overlap_sq, abs=1e-6)

    @pytest.mark.parametrize("envelope, detuning", [
        (Gaussian(1.0), 0.0), (Exponential(0.5), 0.4),
        (Rectangular(2.0), 0.0), (Rectangular(2.0), -0.7)])
    def test_real_part_is_half_the_flux(self, envelope, detuning):
        s = LambdaSystem(omega_a=50.0, gamma_a=1.0, gamma_b=2.0)
        pulse = make_pulse(envelope, 50.0 + detuning)
        traj = compare_grid_run(s, pulse)
        end = overlap_series(traj, pulse, s, traj.t_max)
        flux = drive_energy_flux(traj, pulse, s)
        assert end.real == pytest.approx(1.0 - 0.5 * flux, abs=1e-12)

    def test_rectangular_is_continuous_across_the_edge(self):
        # resonant flat drive f = -sqrt(gamma_a / tau) on [0, tau]:
        # the overlap is 1 - (2 gamma_a / (Gamma tau))
        # [t - (2/Gamma)(1 - e^{-Gamma t/2})] up to tau, flat afterwards
        s = LambdaSystem(omega_a=50.0, gamma_a=1.0, gamma_b=1.0)
        tau = 2.0
        pulse = make_pulse(Rectangular(tau), 50.0)
        traj = compare_grid_run(s, pulse)
        assert tau in traj.times
        g = s.gamma_total
        t = np.linspace(0.0, traj.t_max, 301)
        t_in = np.minimum(t, tau)
        want = 1.0 - 2.0 * s.gamma_a / (g * tau) * (
            t_in + 2.0 / g * np.expm1(-0.5 * g * t_in))
        assert np.max(np.abs(overlap_series(traj, pulse, s, t) - want)) <= 1e-6
        edge = overlap_series(traj, pulse, s, tau + np.array([-1e-9, 0.0, 1e-9]))
        assert np.max(np.abs(np.diff(edge))) <= 1e-9

    def test_normalization_guards_an_empty_branch(self):
        got = normalized_overlap_sq(np.array([0.5, 0.3 + 0.4j, 1e-8]),
                                    np.array([0.5, 0.2, 1e-15]))
        assert got.tolist() == [0.5, 1.0, 0.0]


class TestEntropyCurve:
    def test_endpoints_and_shape(self):
        s = LambdaSystem(omega_a=1.0, gamma_a=1.0, gamma_b=1.0)
        curve = entropy_curve(s, InitialMixture(0.5), n_points=200)
        assert curve.n_b[0] == 0.0
        assert curve.n_b[-1] == pytest.approx(1.0)
        assert curve.s_e[0] == pytest.approx(0.0, abs=1e-15)
        assert curve.s_e_c[0] == pytest.approx(0.0, abs=1e-15)
        assert curve.s_e_c[-1] == pytest.approx(math.log(2.0), abs=1e-12)
        # classical entropy grows monotonically with the transfer
        assert np.all(np.diff(curve.s_e_c) >= -1e-12)
        # total entropy peaks strictly inside the sweep
        k = int(np.argmax(curve.s_e))
        assert 0 < k < curve.s_e.size - 1

    def test_pinned_midpoint(self):
        s = LambdaSystem(omega_a=1.0, gamma_a=1.0, gamma_b=1.0)
        mix = InitialMixture(0.5)
        spec = asymptotic_spectrum(s, mix, 0.5, 0.0)
        assert spec.s_e == pytest.approx(0.8482831849148855, abs=1e-12)
        assert spec.s_e_c == pytest.approx(0.5017095946349128, abs=1e-12)

    def test_pure_a_start_has_no_classical_part(self):
        s = LambdaSystem(omega_a=1.0, gamma_a=1.0, gamma_b=1.0)
        curve = entropy_curve(s, InitialMixture(1.0), n_points=50)
        assert np.max(np.abs(curve.s_e_c)) < 1e-12

    def test_asymmetric_rates_cap_the_sweep(self):
        s = LambdaSystem(omega_a=1.0, gamma_a=3.0, gamma_b=1.0)
        curve = entropy_curve(s, InitialMixture(0.5), n_points=40)
        assert curve.n_b[-1] == pytest.approx(12.0 / 16.0)

    def test_rejects_tiny_grid(self):
        s = LambdaSystem(omega_a=1.0)
        with pytest.raises(ParameterError):
            entropy_curve(s, InitialMixture(0.5), n_points=1)

    @settings(max_examples=40, deadline=None)
    @given(p_a0=st.floats(0.0, 1.0), p=st.floats(0.0, 1.0))
    def test_entropy_dominates_quantum_part(self, p_a0, p):
        # concavity: S_E >= p_a0 S_q, so S_E^c never goes negative
        s = LambdaSystem(omega_a=1.0, gamma_a=1.0, gamma_b=1.0)
        mix = InitialMixture(p_a0)
        spec = asymptotic_spectrum(s, mix, p, 0.0)
        assert spec.s_e >= p_a0 * spec.s_q - 1e-12
        assert spec.s_e_c >= 0.0

    def test_as_dict_keys(self):
        s = LambdaSystem(omega_a=1.0)
        spec = asymptotic_spectrum(s, InitialMixture(0.5), 0.3, 0.0)
        d = spec.as_dict()
        assert set(d) == {"lambdas", "psi_sq", "n_a", "n_b", "overlap_sq",
                          "s_e", "s_q", "s_e_c"}
        assert d["lambdas"] == sorted(d["lambdas"], reverse=True)
        assert all(type(v) is float for k, v in d.items() if k != "lambdas")

    @settings(max_examples=40, deadline=None)
    @given(gamma_b=st.floats(0.05, 20.0), p_a0=st.floats(0.0, 1.0),
           n_points=st.integers(2, 60))
    # a float64 scalar's ** 2 rounded apart from the array's square here
    @example(gamma_b=9.968641960386988, p_a0=0.9896624645079342,
             n_points=20)
    def test_curve_is_the_spectrum_at_each_point(self, gamma_b, p_a0,
                                                 n_points):
        # one instant and a whole curve take the same operations, so
        # they agree to the bit
        s = LambdaSystem(omega_a=1.0, gamma_a=1.0, gamma_b=gamma_b)
        mix = InitialMixture(p_a0)
        curve = entropy_curve(s, mix, n_points=n_points)
        for k, p in enumerate(curve.n_b):
            one = asymptotic_spectrum(s, mix, float(p), 0.0)
            assert one.n_b == p
            assert curve.s_e[k] == one.s_e
            assert curve.s_e_c[k] == one.s_e_c

    @pytest.mark.parametrize("gamma_a, gamma_b, n_points", [
        (1.0, 1.0, 200), (3.0, 1.0, 4097), (1.0, 0.6, 20001),
        (1e-300, 1e20, 100_000),    # p_max / (n - 1) underflows to 0
    ])
    def test_grid_is_linspace_in_any_block(self, gamma_a, gamma_b,
                                           n_points):
        s = LambdaSystem(omega_a=1.0, gamma_a=gamma_a, gamma_b=gamma_b)
        mix = InitialMixture(0.5)
        curve = entropy_curve(s, mix, n_points=n_points)
        grid = np.linspace(0.0, entropy._p_max(s), n_points)
        assert curve.n_b.tobytes() == grid.tobytes()
        cut = n_points // 3
        parts = [entropy_curve(s, mix, n_points, 0, cut),
                 entropy_curve(s, mix, n_points, cut)]
        for name in ("n_b", "s_e", "s_e_c"):
            joined = np.concatenate([getattr(p, name) for p in parts])
            assert joined.tobytes() == getattr(curve, name).tobytes()

    def test_curve_builds_one_spectrum(self, monkeypatch):
        calls = []
        build = EnvSpectrum.from_branches

        def counted(*args, **kwargs):
            calls.append(args)
            return build(*args, **kwargs)

        monkeypatch.setattr(entropy.EnvSpectrum, "from_branches", counted)
        s = LambdaSystem(omega_a=1.0, gamma_a=1.0, gamma_b=3.0)
        curve = entropy_curve(s, InitialMixture(0.5), n_points=200)
        assert len(calls) == 1
        assert curve.s_e.shape == curve.s_e_c.shape == (200,)


class TestClassicalEntropy:
    def test_subtraction(self):
        assert classical_entropy(1.0, InitialMixture(0.5), 0.4) == \
            pytest.approx(0.8)

    def test_clips_rounding_noise(self):
        assert classical_entropy(0.4, InitialMixture(1.0),
                                 0.4 + 1e-15) == 0.0

    def test_arrays(self):
        mix = InitialMixture(0.5)
        s_e = np.array([1.0, 0.2, 0.4])
        s_q = np.array([0.4, 0.4 + 1e-15, 0.0])
        got = classical_entropy(s_e, mix, s_q)
        assert got.tolist() == [0.8, 0.0, 0.4]
        assert type(classical_entropy(1.0, mix, 0.4)) is float
        with pytest.raises(NumericalConsistencyError):
            classical_entropy(s_e, mix, np.array([0.4, 0.41, 0.0]))

    def test_rejects_nan(self):
        mix = InitialMixture(0.5)
        with pytest.raises(NumericalConsistencyError):
            classical_entropy(math.nan, mix, 0.1)
        with pytest.raises(NumericalConsistencyError):
            classical_entropy(np.array([1.0, math.nan]), mix, 0.1)


class TestHeatInversion:
    @pytest.mark.parametrize("delta_ab", [0.0, 0.2])
    def test_round_trip(self, delta_ab):
        s = LambdaSystem(omega_a=1.0, delta_ab=delta_ab,
                         gamma_a=1.0, gamma_b=2.0)
        for p in (0.0, 0.3, 0.88):
            q = p * (s.omega_a * s.gamma_total / s.gamma_b - s.delta_ab)
            assert heat_to_pab(s, q) == pytest.approx(p, abs=1e-15)

    def test_refuses_a_heat_that_is_not_finite(self):
        for q in (math.nan, math.inf, -math.inf):
            with pytest.raises(ParameterError, match="q_diss"):
                heat_to_pab(LambdaSystem(omega_a=1.0), q)
