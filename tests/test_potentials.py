import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.interpolate
from scipy.interpolate import CubicSpline

import hexspec
from hexspec.errors import DomainError
from hexspec.potentials import PotentialSpec, parse_potential


def test_tabulated_spline_is_built_once(monkeypatch):
    samples = 3.0 * np.cos(2.0 * np.pi * np.linspace(0.0, 1.0, 33)) ** 2
    t = np.linspace(0.0, 1.0, 101)
    # the spline as built before it was kept, one per call, on the
    # symmetrised samples
    sym = np.asarray(PotentialSpec.tabulated(samples).samples)
    expected = CubicSpline(np.linspace(0.0, 1.0, sym.size), sym)(t)
    built = []

    class Counted(CubicSpline):
        def __init__(self, *args, **kwargs):
            built.append(1)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(scipy.interpolate, "CubicSpline", Counted)
    V = PotentialSpec.tabulated(samples)
    for _ in range(3):
        assert V(t).tobytes() == expected.tobytes()
    assert len(built) == 1
    assert V == PotentialSpec.tabulated(samples)
    assert hash(V) == hash(PotentialSpec.tabulated(samples))


def test_import_leaves_scipy_unloaded():
    # only tabulated potentials need scipy, and they import it on first use
    src = os.path.dirname(os.path.dirname(hexspec.__file__))
    env = dict(os.environ, PYTHONPATH=src, PYTHONWARNINGS="error::RuntimeWarning")
    code = "import sys, hexspec; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=env, check=True).stdout
    assert out.strip() == "False"


@pytest.mark.parametrize("spec", ["mathieu:1e8", "mathieu:-1e8"])
def test_deep_mathieu_wells_construct(spec):
    # a cosine well is even by construction; rounding alone puts
    # V(t) - V(1 - t) at 6.9e-8 here
    V = parse_potential(spec)
    assert V.max_value == pytest.approx(1e8)


@pytest.mark.parametrize("spec", ["mathieu:nan", "mathieu:inf", "mathieu:-inf"])
def test_non_finite_mathieu_amplitude_is_rejected(spec):
    with pytest.raises(DomainError, match="amplitude"):
        parse_potential(spec)
