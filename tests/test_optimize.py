"""Sweeps and derivative-free maximization of drive objectives."""

import dataclasses
import math
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lambda_adapt import optimize
from lambda_adapt.dynamics import (asymptotic_prob_exponential, integrate_psi,
                                   p_ab_infty)
from lambda_adapt.entropy import _p_max
from lambda_adapt.errors import NumericalConsistencyError, ParameterError
from lambda_adapt.model import (FAMILIES, MAX_GRID_NODES, Exponential,
                                Gaussian, LambdaSystem, Rectangular, SimGrid,
                                make_pulse)
from lambda_adapt.optimize import (CONVERGENCE_REL, LINEWIDTH_FLOOR,
                                   SweepSpec, _evaluate, apply_parameters,
                                   maximize, sweep)


def columns(points):
    """A sweep's grid values and objectives, as two arrays."""
    return (np.array([p.value for p in points]),
            np.array([p.objective for p in points]))


@pytest.fixture()
def system():
    return LambdaSystem(omega_a=50.0, gamma_a=1.0, gamma_b=1.0)


@pytest.fixture()
def pulse(system):
    return make_pulse(Exponential(1.0), system.omega_a)


class TestSweepSpec:
    @pytest.mark.parametrize("kwargs", [
        {"parameter": "phase", "lo": 0.0, "hi": 1.0},
        {"parameter": "detuning", "lo": 1.0, "hi": 1.0},
        {"parameter": "detuning", "lo": 0.0, "hi": float("inf")},
        {"parameter": "detuning", "lo": -1e308, "hi": 1e308},
        {"parameter": "linewidth", "lo": -1.0, "hi": 1.0},
        {"parameter": "linewidth", "lo": 0.1, "hi": 1.0, "n_points": 2},
        {"parameter": "linewidth", "lo": 0.1, "hi": 1.0,
         "n_points": MAX_GRID_NODES + 1},
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

    def test_rejects_unknown_or_invalid(self, system, pulse):
        with pytest.raises(ParameterError):
            apply_parameters(system, pulse, {"phase": 0.1})
        with pytest.raises(ParameterError):
            apply_parameters(system, pulse, {"rate_ratio": -1.0})


class TestObjective:
    @pytest.mark.parametrize("ratio", [0.25, 1.0, 4.0])
    @pytest.mark.parametrize("linewidth", [1e-3, 1e-2, 0.1, 1.0])
    def test_p_ab_infty_matches_closed_form(self, system, linewidth, ratio):
        pulse = make_pulse(Exponential(linewidth), system.omega_a)
        sys_r, pulse_r = apply_parameters(system, pulse,
                                          {"rate_ratio": ratio})
        values, obj = columns(sweep(
            SweepSpec("detuning", -0.5, 0.5, n_points=5), sys_r, pulse_r))
        want = [asymptotic_prob_exponential(sys_r, linewidth, d)
                for d in values]
        assert np.max(np.abs(obj - want)) <= 1e-6

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
        pulse = make_pulse(envelope, system.omega_a + detuning)
        grids = []

        def spy(sys_, pulse_, grid):
            grids.append(grid)
            return integrate_psi(sys_, pulse_, grid)

        monkeypatch.setattr(optimize, "integrate_psi", spy)
        _evaluate(system, pulse, "p_ab_infty")
        # simulate's default grid, horizon included
        assert grids == [SimGrid.auto(system, pulse)]
        assert grids[0].dt == pytest.approx(dt, rel=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(log_width=st.floats(-3.0, 0.0), detuning=st.floats(-0.5, 0.5),
           ratio=st.floats(0.25, 4.0))
    def test_p_ab_infty_bounded(self, log_width, detuning, ratio):
        base = LambdaSystem(omega_a=50.0, gamma_a=1.0, gamma_b=1.0)
        linewidth = 10.0 ** log_width
        s, pulse = apply_parameters(
            base, make_pulse(Exponential(1.0), base.omega_a),
            {"linewidth": linewidth, "detuning": detuning,
             "rate_ratio": ratio})
        value = _evaluate(s, pulse, "p_ab_infty")
        cap = 4.0 * s.gamma_a * s.gamma_b / s.gamma_total ** 2
        assert 0.0 <= value <= cap + 1e-9
        assert value == pytest.approx(
            asymptotic_prob_exponential(s, linewidth, detuning), abs=1e-6)


def overflowed(gamma_b):
    """gamma_a = 1e300 overflows the trajectory: with gamma_b = 1e300 too,
    p_ab(inf) comes out near 5e270, far above its maximum of 1; with
    gamma_b = 1, the drive's work comes out NaN."""
    s = LambdaSystem(omega_a=50.0, gamma_a=1e300, gamma_b=gamma_b)
    return s, make_pulse(Gaussian(1.2), s.omega_a)


class TestOverflow:
    def test_out_of_range_p_ab_infty_is_refused(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with pytest.raises(NumericalConsistencyError,
                               match="p_ab_infty = 5.*out of range"):
                _evaluate(*overflowed(1e300), "p_ab_infty")

    def test_non_finite_value_is_refused(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with pytest.raises(NumericalConsistencyError,
                               match="w_over_hw = nan"):
                _evaluate(*overflowed(1.0), "w_over_hw")

    def test_sweep_point_records_the_error(self):
        s, pulse = overflowed(1e300)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            points = sweep(SweepSpec("linewidth", 0.5, 2.0, n_points=3),
                           s, pulse)
        assert all("out of range" in pt.error for pt in points)
        assert np.all(np.isnan(columns(points)[1]))

    def test_underflowed_maximum_gives_every_point_one_verdict(self):
        # gamma_b = 1 against gamma_a = 1e300 puts p_max at 4e-300, far
        # below the quadrature noise of p_ab(inf) (about 1e-30, of either
        # sign): the range, relative to p_max, refuses every point
        s, pulse = overflowed(1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            points = sweep(SweepSpec("linewidth", 0.01, 4.0), s, pulse)
        assert len(points) == 21
        assert all("is out of range" in pt.error for pt in points)
        assert np.all(np.isnan(columns(points)[1]))
        with pytest.raises(NumericalConsistencyError, match="out of range"):
            maximize(s, pulse, {"detuning": (-0.5, 0.5)}, budget=8)

    @pytest.mark.parametrize("gamma_a, gamma_b", [
        (1.0, 2.4e-13), (1.0, 2.6e-13), (1.0, 1e-300), (1e-20, 1.0)])
    def test_maximum_at_the_slack(self, gamma_a, gamma_b):
        # a tiny p_max = 4 gamma_a gamma_b / Gamma^2, down to 4e-300, is
        # resolved: the point evaluates to the p_ab(inf) simulate writes
        # for the same drive (0.71 p_max), on either side of where an
        # absolute 1e-12 slack would swallow it (gamma_b = 2.5e-13)
        s = LambdaSystem(omega_a=50.0, gamma_a=gamma_a, gamma_b=gamma_b)
        pulse = make_pulse(Gaussian(1.2), s.omega_a)
        want = p_ab_infty(integrate_psi(s, pulse, SimGrid.auto(s, pulse)), s)
        assert _evaluate(s, pulse, "p_ab_infty") == want
        assert 0.7 * _p_max(s) < want <= _p_max(s)
        assert math.isfinite(_evaluate(s, pulse, "w_over_hw"))

    def test_maximize_raises(self):
        s, pulse = overflowed(1e300)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with pytest.raises(NumericalConsistencyError):
                maximize(s, pulse, {"detuning": (-0.5, 0.5)}, budget=8)


class TestSweep:
    def test_linewidth_monotone_for_exponential(self, system, pulse):
        spec = SweepSpec("linewidth", 0.05, 4.0, n_points=9)
        values, obj = columns(sweep(spec, system, pulse))
        assert np.all(np.diff(obj) < 0.0)
        want = [asymptotic_prob_exponential(system, w) for w in values]
        assert np.max(np.abs(obj - want)) < 1e-4

    def test_detuning_curve_is_even(self, system, pulse):
        spec = SweepSpec("detuning", -3.0, 3.0, n_points=7)
        obj = columns(sweep(spec, system, pulse))[1]
        assert np.allclose(obj, obj[::-1], atol=1e-6)
        assert np.argmax(obj) == 3

    def test_rate_ratio_peaks_at_one(self, system, pulse):
        spec = SweepSpec("rate_ratio", 0.25, 4.0, n_points=16)
        values, obj = columns(sweep(spec, system, pulse))
        k = int(np.argmax(obj))
        assert abs(values[k] - 1.0) <= (values[1] - values[0])

    def test_family_covers_all_three(self, system, pulse):
        spec = SweepSpec("family", 0.5, 2.0, n_points=3)
        points = sweep(spec, system, pulse)
        assert len(points) == 9
        assert {p.family for p in points} == {"exponential", "gaussian",
                                              "rectangular"}
        assert all(np.isfinite(p.objective) for p in points)

    def test_family_rows_are_linewidth_sweeps(self, system):
        # a detuned carrier of any family is kept for all three
        pulse = make_pulse(Rectangular(0.7), system.omega_a + 0.2)
        family = sweep(SweepSpec("family", 0.5, 2.0, n_points=3), system,
                       pulse)
        points = ()
        for envelope in (Exponential(1.0), Gaussian(1.0), Rectangular(1.0)):
            p = make_pulse(envelope, pulse.carrier)
            points += sweep(SweepSpec("linewidth", 0.5, 2.0, n_points=3),
                            system, p)
        assert family == points

    def test_failed_point_is_annotated(self, pulse):
        # a detuning of -2 pushes the carrier of a unit-frequency system
        # negative, which the pulse constructor refuses
        s = LambdaSystem(omega_a=1.0, gamma_a=1.0, gamma_b=1.0)
        p = make_pulse(Exponential(1.0), 1.0)
        spec = SweepSpec("detuning", -2.0, 2.0, n_points=5)
        points = sweep(spec, s, p)
        errs = [pt for pt in points if pt.error]
        assert errs
        assert all(np.isnan(pt.objective) for pt in errs)
        good = [pt for pt in points if not pt.error]
        assert all(np.isfinite(pt.objective) for pt in good)

    def test_points_run_once_in_grid_order_on_the_calling_thread(
            self, system, pulse, monkeypatch):
        calls = []

        def objective(sys_, pulse_, name):
            calls.append((threading.get_ident(), sys_, pulse_.envelope,
                          pulse_.carrier, name))
            return float(len(calls))

        monkeypatch.setattr(optimize, "_evaluate", objective)
        here = threading.get_ident()
        spec = SweepSpec("detuning", -1.0, 1.0, n_points=5)
        points = sweep(spec, system, pulse)
        assert calls == [(here, system, pulse.envelope, system.omega_a + d,
                          "p_ab_infty") for d in spec.grid()]
        assert [p.objective for p in points] == [1.0, 2.0, 3.0, 4.0, 5.0]
        calls.clear()
        spec = SweepSpec("family", 0.5, 2.0, n_points=3,
                         objective="w_over_hw")
        sweep(spec, system, pulse)
        assert calls == [(here, system, family(1.0).at_scale(v),
                          pulse.carrier, "w_over_hw")
                         for family in FAMILIES.values() for v in spec.grid()]


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
        result = maximize(system, pulse, {"linewidth": (0.05, 2.0)},
                          budget=60)
        assert "linewidth" in result.boundary
        assert result.params["linewidth"] >= 0.05

    def test_linewidth_bound_is_clamped_at_the_floor(self, system, pulse):
        # an objective that, like p_ab(inf), grows as the pulse narrows,
        # cheap enough to run the search down to the floor
        floor = LINEWIDTH_FLOOR * system.gamma_total
        result = maximize(system, pulse, {"linewidth": (1e-6, 2.0)},
                          objective=lambda s_, p_: -p_.envelope.linewidth,
                          budget=60)
        assert "linewidth" in result.boundary
        assert min(t.params["linewidth"] for t in result.trace) >= floor
        # the search stops within CONVERGENCE_REL of the range
        assert result.params["linewidth"] <= floor + CONVERGENCE_REL * 2.0

    def test_trace_respects_bounds_and_reruns_identically(self, system,
                                                          pulse):
        bounds = {"detuning": (-1.0, 1.0)}
        r1 = maximize(system, pulse, bounds, budget=40)
        r2 = maximize(system, pulse, bounds, budget=40)
        assert dataclasses.asdict(r1) == dataclasses.asdict(r2)
        for entry in r1.trace:
            assert -1.0 <= entry.params["detuning"] <= 1.0

    def test_spent_budget_counts_each_evaluation_once(self, system, pulse):
        # the best vertex comes back with its value: nothing is evaluated
        # after the search, so a spent budget of k reports k evaluations,
        # one trace entry each, and the last entry is the search's own
        calls = []

        def bump(sys_, pulse_):
            calls.append(pulse_.carrier - sys_.omega_a)
            d = calls[-1] - 0.3
            return 1.0 / (1.0 + d * d)

        for budget in (1, 2, 20):
            calls.clear()
            result = maximize(system, pulse, {"detuning": (-1.0, 2.0)},
                              objective=bump, budget=budget)
            assert not result.converged
            assert result.n_evals == len(result.trace) == len(calls) \
                == budget
            *earlier, last = result.trace
            assert last not in earlier
            best = max(result.trace, key=lambda e: e.value)
            assert (result.params, result.value) == (best.params, best.value)

    def test_optimum_near_a_face_is_found_inside(self, system):
        # rate_ratio's optimum of 1 lies 1/16 of the range above its lower
        # face: a simplex whose reflections are clipped onto the box folds
        # onto that face and stops at p_ab 0.790123
        pulse = make_pulse(Exponential(0.5), system.omega_a)
        result = maximize(system, pulse, {"detuning": (-0.1, 2.0),
                                          "rate_ratio": (0.8, 4.0)})
        assert result.converged
        assert result.boundary == ()
        assert f"{result.value:.6f}" == "0.800000"

    @pytest.mark.parametrize("bounds", [
        {"linewidth": (1.333521432163324, 1.7782794100389228),
         "detuning": (0.0, 0.0625),
         "rate_ratio": (5.754602676005731, 6.5208191203301125)},
        {"linewidth": (1.0, 12.41), "rate_ratio": (3.955, 29.22),
         "detuning": (0.0, 0.0625)},
    ], ids=["box_a", "box_b"])
    def test_leaves_the_face_the_objective_falls_toward(self, system,
                                                        bounds):
        # the first search shrinks onto the upper detuning face, where p_ab
        # is least (0.302268 and 0.428820); the optimum is on the lower one
        pulse = make_pulse(Exponential(0.5), system.omega_a)
        result = maximize(system, pulse, bounds)
        assert result.converged
        assert abs(result.value - box_optimum(system, bounds, 0.5)) <= 1e-6
        assert result.params["detuning"] <= 1e-6

    def test_corner_optimum_leaves_the_budget(self, system):
        # the optimum is the corner of the three lower faces: no probe
        # inward improves on it, so no restart spends the budget
        # re-converging there (365 evaluations, then 3 probes)
        pulse = make_pulse(Exponential(0.5), system.omega_a)
        bounds = {"linewidth": (0.8058, 8.058),
                  "rate_ratio": (1.1331, 13.80), "detuning": (0.0, 0.1875)}
        result = maximize(system, pulse, bounds)
        assert result.converged
        assert abs(result.value - box_optimum(system, bounds, 0.5)) <= 1e-6
        assert result.n_evals <= 400

    def test_two_parameters_recover_resonant_balanced(self, system):
        # keep the pulse moderately wide so each evaluation stays cheap
        pulse = make_pulse(Exponential(0.5), system.omega_a)
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
            maximize(system, pulse, {"rate_ratio": (-1.0, 2.0)})
        for budget in (0, -3):
            with pytest.raises(ParameterError, match="budget"):
                maximize(system, pulse, {"detuning": (-1.0, 1.0)},
                         budget=budget)

        def never(sys_, pulse_):
            raise AssertionError("evaluated before the bounds were checked")

        with pytest.raises(ParameterError, match="detuning.*overflows"):
            maximize(system, pulse, {"rate_ratio": (0.5, 2.0),
                                     "detuning": (-1e308, 1e308)},
                     objective=never)

    def test_refuses_an_unknown_objective(self, system, pulse):
        with pytest.raises(ParameterError, match="objective"):
            maximize(system, pulse, {"detuning": (-1.0, 1.0)},
                     objective="bogus")

    @pytest.mark.parametrize("name, lo, hi", [
        *((name, lo, hi) for name in ("linewidth", "detuning", "rate_ratio")
          for lo, hi in ((2.0, 1.0), (1.0, 1.0), (math.nan, 1.0),
                         (1.0, math.nan), (1.0, math.inf))),
        ("detuning", -1e308, 1e308),          # span overflows
        ("detuning", -math.inf, 0.0),
        ("rate_ratio", 0.0, 1.0),             # lower bound not positive
        ("rate_ratio", -1.0, 1.0),
        ("linewidth", -2.0, -1.0),            # below the floor
    ])
    def test_refuses_the_ranges_a_sweep_refuses(self, system, pulse, name,
                                                lo, hi):
        # one range rule serves both; maximize raises before evaluating
        def never(sys_, pulse_):
            raise AssertionError("evaluated before the bounds were checked")

        with pytest.raises(ParameterError, match=name):
            SweepSpec(name, lo, hi)
        with pytest.raises(ParameterError, match=name):
            maximize(system, pulse, {name: (lo, hi)}, objective=never)


def box_optimum(system, bounds, base_linewidth):
    """The largest p_ab(inf) over the box, for an exponential pulse of
    ``base_linewidth``, resonant, and ``system``'s equal rates (rate
    ratio 1), where the box does not move them.

    p_ab(inf) = 4 gamma_a gamma_b (Gamma + Delta)
    / (Gamma ((Gamma + Delta)^2 + 4 delta^2)) is a factor
    r / (1 + r)^2 in the rate ratio r, which peaks at 1, times a factor
    in (Delta, delta) that falls with |delta| at any linewidth Delta and,
    at fixed delta, peaks where Gamma + Delta = 2 |delta|."""
    gamma = system.gamma_total
    lo, hi = bounds.get("rate_ratio", (1.0, 1.0))
    r = min(max(1.0, lo), hi)
    lo, hi = bounds.get("detuning", (0.0, 0.0))
    delta = min(max(0.0, lo), hi)
    lo, hi = bounds.get("linewidth", (base_linewidth, base_linewidth))
    lo = max(lo, LINEWIDTH_FLOOR * gamma)
    width = min(max(2.0 * abs(delta) - gamma, lo), hi)
    best = dataclasses.replace(system, gamma_a=gamma / (1.0 + r),
                               gamma_b=gamma * r / (1.0 + r))
    return asymptotic_prob_exponential(best, width, delta)


@st.composite
def boxes(draw):
    """Bounds on 1 to 3 of linewidth, detuning and rate_ratio; linewidth
    boxes may reach below the floor, detuning boxes may exclude 0 and
    rate_ratio boxes may exclude 1, so optima lie inside, on faces and in
    corners."""
    names = draw(st.lists(st.sampled_from(("linewidth", "detuning",
                                           "rate_ratio")),
                          min_size=1, max_size=3, unique=True))
    bounds = {}
    for name in names:
        if name == "linewidth":
            lo = draw(st.floats(-3.5, 0.3))
            bounds[name] = (10.0 ** lo, 10.0 ** (max(lo, -2.6)
                                                 + draw(st.floats(0.1, 2.0))))
        elif name == "detuning":
            lo = draw(st.floats(-2.0, 2.0))
            bounds[name] = (lo, lo + draw(st.floats(0.05, 3.0)))
        else:
            lo = draw(st.floats(-2.0, 2.0))
            bounds[name] = (math.exp(lo),
                            math.exp(lo + draw(st.floats(0.1, 3.0))))
    return bounds


class TestBoxOptimum:
    @settings(max_examples=30, deadline=None)
    @given(bounds=boxes())
    def test_finds_the_closed_form_optimum_inside_the_box(self, bounds):
        system = LambdaSystem(omega_a=50.0, gamma_a=1.0, gamma_b=1.0)
        pulse = make_pulse(Exponential(0.5), system.omega_a)
        result = maximize(system, pulse, bounds)
        assert result.converged
        assert abs(result.value - box_optimum(system, bounds, 0.5)) <= 1e-6
        floor = LINEWIDTH_FLOOR * system.gamma_total
        for entry in result.trace:
            for name, (lo, hi) in bounds.items():
                if name == "linewidth":
                    lo = max(lo, floor)
                assert lo <= entry.params[name] <= hi


def start_simplex(d):
    """The initial simplex ``maximize`` builds on the sine-mapped
    coordinates: the box center, v = 0, then one vertex per axis moved to
    asin(0.6), which maps to 0.8 of the range."""
    return np.vstack([np.zeros(d), math.asin(0.6) * np.eye(d)])


def rosenbrock(x):
    u, v = 4.0 * x - 2.0
    return float((1.0 - u) ** 2 + 100.0 * (v - u * u) ** 2)


class TestNelderMead:
    """The numpy port takes scipy's unbounded Nelder-Mead steps exactly."""

    @pytest.mark.parametrize("budget", [7, 30, 500])
    @pytest.mark.parametrize("f, d", [
        (lambda x: float((x[0] - 0.31) ** 2 + 2.0 * (x[1] - 0.67) ** 2), 2),
        (lambda x: float(-x[0] - 2.0 * x[1]), 2),    # unbounded below
        (rosenbrock, 2),
        (lambda x: float(np.sum((x - [0.2, 0.9, 0.45]) ** 2)), 3),
        (lambda x: 1.0, 2),
        (lambda x: float(np.sum(np.abs(x - [0.6, 0.1]))), 2),
    ], ids=["quadratic", "corner", "rosenbrock", "quadratic3", "flat",
            "abs"])
    def test_matches_scipy(self, f, d, budget):
        from scipy.optimize import minimize

        def recorder(calls):
            def wrapped(x):
                calls.append(np.array(x, copy=True))
                return f(x)
            return wrapped

        ours, theirs = [], []
        x, fx, converged = optimize._nelder_mead(
            recorder(ours), start_simplex(d), CONVERGENCE_REL, budget)
        res = minimize(recorder(theirs), np.zeros(d), method="Nelder-Mead",
                       options={"initial_simplex": start_simplex(d),
                                "xatol": CONVERGENCE_REL,
                                "fatol": float("inf"), "maxfev": budget,
                                "adaptive": False})
        assert len(ours) == len(theirs) <= budget
        assert all(np.array_equal(a, b) for a, b in zip(ours, theirs))
        assert np.array_equal(x, res.x)
        assert fx == res.fun
        assert converged == bool(res.success)
