"""What bench/tracer.py reads off an oracle run, which holds no snapshots
until ``states`` is read."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from lambda_adapt.model import LambdaSystem
from lambda_adapt.oracle import DiscreteBath, build_hamiltonian, evolve

_PATH = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"
_SPEC = importlib.util.spec_from_file_location("tracer", _PATH)
tracer = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tracer)


@pytest.mark.parametrize("span", ["oracle.evolve_forward",
                                  "oracle.evolve_backward"])
def test_evolve_span_reads_dim_and_drift(span):
    s = LambdaSystem(omega_a=50.0, gamma_a=1.0, gamma_b=1.0)
    h = build_hamiltonian(s, DiscreteBath(401, 20.0 * s.gamma_total))
    y0 = np.zeros(h.dim, dtype=complex)
    y0[0] = 1.0
    run = evolve(h, y0, 2.0, n_out=21)
    assert "states" not in vars(run)
    assert tracer._COUNTS[span](run) == h.dim
    assert tracer._EXTRAS[span](run) == {"norm_drift": run.norm_drift}
