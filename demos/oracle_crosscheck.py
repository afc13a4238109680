"""Brute-force check of the analytic pipeline on a discretized bath.

Replaces the two continua by 2001-mode combs, solves the full
one-excitation Schroedinger equation with no Wigner-Weisskopf input, and
compares populations, branch weights, entropy, work and heat against the
analytic machinery.  Also shows the irreversibility statement as the
selection rule it is: nothing couples the mirrored pulse on |b> to the
states that could undo the transfer.
"""

import time

import numpy as np

from lambda_adapt.model import (Gaussian, InitialMixture, LambdaSystem,
                                make_pulse)
from lambda_adapt.oracle import DiscreteBath, build_hamiltonian, compare


def main():
    s = LambdaSystem(omega_a=50.0, gamma_a=1.0, gamma_b=1.0)
    pulse = make_pulse(Gaussian(1.2), s.omega_a)
    mix = InitialMixture(0.5)

    print("-- oracle vs analytic, default bath (2001 modes, B = 40 Gamma) --")
    t0 = time.perf_counter()
    report = compare(s, pulse, mix)
    dt = time.perf_counter() - t0
    print(f"{'quantity':>8s} {'deviation':>12s} {'tolerance':>10s}")
    for name, dev in report.deviations.items():
        print(f"{name:>8s} {dev:12.3e} {report.tolerances[name]:10.0e}")
    print(f"norm drift {report.norm_drift:.2e}, "
          f"verdict: {'pass' if report.passed else 'FAIL'}  ({dt:.1f} s)")

    print("\n-- backward protocol: |b> with the mirrored a photon --")
    bath = DiscreteBath(n_modes=801, bandwidth=40.0 * s.gamma_total)
    n = bath.n_modes
    dense = np.zeros((1 + 3 * n, 1 + 3 * n), dtype=complex)
    dense[:1 + 2 * n, :1 + 2 * n] = build_hamiltonian(s, bath).toarray()
    # |b,1_a j> sits at delta_ab + omega_a + d_j; the rotating-wave
    # coupling <e,0|H|s,1_k j> = g_k delta_{s,k} gives it g_a delta_{b,a}
    # = 0, and no other term of H reaches it
    back = slice(1 + 2 * n, None)
    dense[back, back] = np.diag(s.delta_ab + s.omega_a + bath.offsets())
    block = dense[back, :1 + 2 * n]
    print(f"<b,1_a j|H|forward> block {block.shape[0]} x {block.shape[1]}: "
          f"max |entry| = {np.max(np.abs(block)):.1e}, "
          f"nonzero entries = {np.count_nonzero(block)}")
    print("\nan a-branch photon cannot raise |b>, so the organized state is")
    print("dynamically frozen: adaptation here is strictly one-way.")


if __name__ == "__main__":
    main()
