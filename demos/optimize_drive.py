"""Locate the optimal driving regime by direct search.

Sweeps the carrier detuning and the envelope bandwidth, then runs a
two-parameter derivative-free search over (detuning, rate ratio).  The
optimum lands on resonance with balanced decay rates, and sits against
the narrowband floor in bandwidth: ideal adaptation is the slow-drive
limit, not an interior point.
"""

import numpy as np

from lambda_adapt.model import Exponential, LambdaSystem, make_pulse
from lambda_adapt.optimize import SweepSpec, maximize, sweep


def main():
    s = LambdaSystem(omega_a=50.0, gamma_a=1.0, gamma_b=1.0)
    pulse = make_pulse(Exponential(0.5), s.omega_a)

    print("-- detuning sweep, exponential drive, Delta = 0.5, Gamma = 2 --")
    spec = SweepSpec("detuning", -4.0, 4.0, n_points=17)
    for pt in sweep(spec, s, pulse):
        bar = "#" * int(round(40 * pt.objective))
        print(f"delta_L = {pt.value:+5.1f}  p_ab = {pt.objective:.4f}  {bar}")

    print("\n-- bandwidth sweep on resonance --")
    spec = SweepSpec("linewidth", 0.05, 4.0, n_points=9)
    for pt in sweep(spec, s, pulse):
        print(f"Delta = {pt.value:5.2f}  p_ab = {pt.objective:.4f}")
    print("monotone toward the narrowband limit; the optimum is a floor,")
    print("not a peak.")

    print("\n-- 2d search over (detuning, rate ratio), Delta = 0.5 --")
    result = maximize(s, pulse,
                      {"detuning": (-2.0, 2.0), "rate_ratio": (0.25, 4.0)},
                      objective="p_ab_infty", budget=200)
    d = result.params["detuning"]
    r = result.params["rate_ratio"]
    formula = 1.0 / (1.0 + 0.5 / s.gamma_total)
    print(f"argmax: delta_L = {d:+.4f}, gamma_b/gamma_a = {r:.4f}")
    print(f"value : p_ab = {result.value:.6f} "
          f"(closed form at this point: 1/(1 + Delta/Gamma) = {formula:.6f})")
    print(f"converged = {result.converged}, evaluations = {result.n_evals}, "
          f"boundary = {list(result.boundary) or 'none'}")


if __name__ == "__main__":
    main()
