"""Sweeps and derivative-free maximization of drive objectives."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lambda_adapt import optimize
from lambda_adapt.dynamics import asymptotic_prob_exponential, integrate_psi
from lambda_adapt.errors import ParameterError
from lambda_adapt.model import (Exponential, Gaussian, LambdaSystem, SimGrid,
                                make_pulse)
from lambda_adapt.optimize import (CONVERGENCE_REL, SweepSpec, _evaluate,
                                   apply_parameters, maximize, sweep)


@pytest.fixture()
def system():
    return LambdaSystem(omega_a=50.0, gamma_a=1.0, gamma_b=1.0)


@pytest.fixture()
def pulse(system):
    return make_pulse(Exponential(1.0), system.omega_a, system)


class TestSweepSpec:
    @pytest.mark.parametrize("kwargs", [
        {"parameter": "phase", "lo": 0.0, "hi": 1.0},
        {"parameter": "detuning", "lo": 1.0, "hi": 1.0},
        {"parameter": "detuning", "lo": 0.0, "hi": float("inf")},
        {"parameter": "linewidth", "lo": -1.0, "hi": 1.0},
        {"parameter": "linewidth", "lo": 0.1, "hi": 1.0, "n_points": 2},
        {"parameter": "linewidth", "lo": 0.1, "hi": 1.0,
         "objective": "speed"},
    ])
    def test_rejects_bad_specs(self, kwargs):
        with pytest.raises(ParameterError):
            SweepSpec(**kwargs)

    def test_grid(self):
        spec = SweepSpec("linewidth", 1.0, 3.0, n_points=5)
        assert np.allclose(spec.grid(), [1.0, 1.5, 2.0, 2.5, 3.0])


class TestApplyParameters:
    def test_rate_ratio_keeps_total(self, system, pulse):
        sys2, _ = apply_parameters(system, pulse, {"rate_ratio": 4.0})
        assert sys2.gamma_total == pytest.approx(system.gamma_total)
        assert sys2.gamma_b / sys2.gamma_a == pytest.approx(4.0)

    def test_linewidth_and_detuning(self, system, pulse):
        _, p2 = apply_parameters(system, pulse,
                                 {"linewidth": 0.5, "detuning": 0.3})
        assert p2.envelope.linewidth == 0.5
        assert p2.carrier == pytest.approx(system.omega_a + 0.3)

    def test_gaussian_keeps_its_offset(self, system):
        g = make_pulse(Gaussian(1.0, offset=9.0), system.omega_a, system)
        _, p2 = apply_parameters(system, g, {"linewidth": 2.0})
        assert p2.envelope.sigma == pytest.approx(0.5)
        assert p2.envelope.offset == 9.0

    def test_rejects_unknown_or_invalid(self, system, pulse):
        with pytest.raises(ParameterError):
            apply_parameters(system, pulse, {"phase": 0.1})
        with pytest.raises(ParameterError):
            apply_parameters(system, pulse, {"rate_ratio": -1.0})


class TestObjective:
    @pytest.mark.parametrize("ratio", [0.25, 1.0, 4.0])
    @pytest.mark.parametrize("linewidth", [1e-3, 1e-2, 0.1, 1.0])
    def test_p_ab_infty_matches_closed_form(self, system, linewidth, ratio):
        pulse = make_pulse(Exponential(linewidth), system.omega_a, system)
        sys_r, pulse_r = apply_parameters(system, pulse,
                                          {"rate_ratio": ratio})
        result = sweep(SweepSpec("detuning", -0.5, 0.5, n_points=5),
                       sys_r, pulse_r)
        want = [asymptotic_prob_exponential(sys_r, linewidth, d)
                for d in result.values()]
        assert np.max(np.abs(result.objectives() - want)) <= 1e-6

    @pytest.mark.parametrize("envelope, detuning, dt", [
        # the default grid's 0.005 / spectral scale, broadband or
        # narrowband, whatever Gamma = 2 and delta_L are
        (Gaussian(1.2), 0.3, 0.006),
        (Gaussian(0.25), 0.0, 0.00125),
        (Gaussian(0.25), 5.0, 0.00125),
        (Exponential(1e-3), 0.3, 5.0),
        (Exponential(0.1), 0.0, 0.05),
    ])
    def test_grid_step(self, monkeypatch, system, envelope, detuning, dt):
        pulse = make_pulse(envelope, system.omega_a + detuning, system)
        grids = []

        def spy(sys_, pulse_, grid):
            grids.append(grid)
            return integrate_psi(sys_, pulse_, grid)

        monkeypatch.setattr(optimize, "integrate_psi", spy)
        _evaluate(system, pulse, "p_ab_infty")
        t_max = pulse.settle_time() + 10.0 / system.gamma_total
        assert grids == [SimGrid.auto(system, pulse, t_max=t_max)]
        assert grids[0].dt == pytest.approx(dt, rel=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(log_width=st.floats(-3.0, 0.0), detuning=st.floats(-0.5, 0.5),
           ratio=st.floats(0.25, 4.0))
    def test_p_ab_infty_bounded(self, log_width, detuning, ratio):
        base = LambdaSystem(omega_a=50.0, gamma_a=1.0, gamma_b=1.0)
        linewidth = 10.0 ** log_width
        s, pulse = apply_parameters(
            base, make_pulse(Exponential(1.0), base.omega_a, base),
            {"linewidth": linewidth, "detuning": detuning,
             "rate_ratio": ratio})
        value = _evaluate(s, pulse, "p_ab_infty")
        cap = 4.0 * s.gamma_a * s.gamma_b / s.gamma_total ** 2
        assert 0.0 <= value <= cap + 1e-9
        assert value == pytest.approx(
            asymptotic_prob_exponential(s, linewidth, detuning), abs=1e-6)


class TestSweep:
    def test_linewidth_monotone_for_exponential(self, system, pulse):
        spec = SweepSpec("linewidth", 0.05, 4.0, n_points=9)
        result = sweep(spec, system, pulse)
        obj = result.objectives()
        assert np.all(np.diff(obj) < 0.0)
        want = [asymptotic_prob_exponential(system, w)
                for w in result.values()]
        assert np.max(np.abs(obj - want)) < 1e-4

    def test_detuning_curve_is_even(self, system, pulse):
        spec = SweepSpec("detuning", -3.0, 3.0, n_points=7)
        obj = sweep(spec, system, pulse).objectives()
        assert np.allclose(obj, obj[::-1], atol=1e-6)
        assert np.argmax(obj) == 3

    def test_rate_ratio_peaks_at_one(self, system, pulse):
        spec = SweepSpec("rate_ratio", 0.25, 4.0, n_points=16)
        result = sweep(spec, system, pulse)
        values = result.values()
        obj = result.objectives()
        k = int(np.argmax(obj))
        assert abs(values[k] - 1.0) <= (values[1] - values[0])

    def test_family_covers_all_three(self, system, pulse):
        spec = SweepSpec("family", 0.5, 2.0, n_points=3)
        result = sweep(spec, system, pulse)
        rows = result.as_rows()
        assert len(rows) == 9
        assert {r["family"] for r in rows} == {"exponential", "gaussian",
                                               "rectangular"}
        assert all(np.isfinite(r["objective_value"]) for r in rows)

    def test_failed_point_is_annotated(self, pulse):
        # a detuning of -2 pushes the carrier of a unit-frequency system
        # negative, which the pulse constructor refuses
        s = LambdaSystem(omega_a=1.0, gamma_a=1.0, gamma_b=1.0)
        p = make_pulse(Exponential(1.0), 1.0, s)
        spec = SweepSpec("detuning", -2.0, 2.0, n_points=5)
        result = sweep(spec, s, p)
        errs = [pt for pt in result.points if pt.error]
        assert errs
        assert all(np.isnan(pt.objective) for pt in errs)
        good = [pt for pt in result.points if not pt.error]
        assert all(np.isfinite(pt.objective) for pt in good)

    def test_thread_cap_is_deterministic(self, system, pulse, monkeypatch):
        spec = SweepSpec("linewidth", 0.5, 2.0, n_points=5)
        base = sweep(spec, system, pulse).objectives()
        monkeypatch.setenv("LAMBDA_ADAPT_THREADS", "1")
        serial = sweep(spec, system, pulse).objectives()
        assert np.array_equal(base, serial)


class TestMaximize:
    def test_one_parameter_detuning(self, system, pulse):
        result = maximize(system, pulse, {"detuning": (-2.0, 2.0)})
        assert result.converged
        assert abs(result.params["detuning"]) < 4 * CONVERGENCE_REL * 4.0
        assert result.boundary == ()
        assert result.n_evals == len(result.trace)
        assert result.value == pytest.approx(
            asymptotic_prob_exponential(system, 1.0), abs=1e-4)

    def test_narrowband_limit_reports_boundary(self, system, pulse):
        result = maximize(system, pulse, {"linewidth": (1e-6, 2.0)},
                          linewidth_floor=0.05, budget=60)
        assert "linewidth" in result.boundary
        assert result.params["linewidth"] >= 0.05

    def test_trace_respects_bounds_and_reruns_identically(self, system,
                                                          pulse):
        bounds = {"detuning": (-1.0, 1.0)}
        r1 = maximize(system, pulse, bounds, budget=40)
        r2 = maximize(system, pulse, bounds, budget=40)
        assert [t.as_dict() for t in r1.trace] == \
            [t.as_dict() for t in r2.trace]
        for entry in r1.trace:
            assert -1.0 <= entry.params["detuning"] <= 1.0

    def test_two_parameters_recover_resonant_balanced(self, system):
        # keep the pulse moderately wide so each evaluation stays cheap
        pulse = make_pulse(Exponential(0.5), system.omega_a, system)
        result = maximize(system, pulse,
                          {"detuning": (-1.0, 1.0),
                           "rate_ratio": (0.25, 4.0)}, budget=200)
        assert result.converged
        assert abs(result.params["detuning"]) < 5e-3
        assert abs(result.params["rate_ratio"] - 1.0) < 2e-2
        assert result.value == pytest.approx(
            asymptotic_prob_exponential(system, 0.5), abs=1e-3)

    def test_callable_objective(self, system, pulse):
        def bump(sys_, pulse_):
            d = pulse_.carrier - sys_.omega_a
            return 1.0 / (1.0 + d * d)

        result = maximize(system, pulse, {"detuning": (-1.0, 2.0)},
                          objective=bump)
        assert result.converged
        assert abs(result.params["detuning"]) < 1e-3
        assert result.value == pytest.approx(1.0, abs=1e-6)

    def test_input_guards(self, system, pulse):
        with pytest.raises(ParameterError):
            maximize(system, pulse, {})
        with pytest.raises(ParameterError):
            maximize(system, pulse, {"phase": (0.0, 1.0)})
        with pytest.raises(ParameterError):
            maximize(system, pulse, {"detuning": (2.0, -2.0)})
        with pytest.raises(ParameterError):
            maximize(system, pulse, {"rate_ratio": (-1.0, 2.0)},
                     linewidth_floor=0.0)
