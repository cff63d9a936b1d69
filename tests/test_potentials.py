import numpy as np
from scipy.interpolate import CubicSpline

from hexspec import potentials
from hexspec.potentials import PotentialSpec


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

    monkeypatch.setattr(potentials, "CubicSpline", Counted)
    V = PotentialSpec.tabulated(samples)
    for _ in range(3):
        assert V(t).tobytes() == expected.tobytes()
    assert len(built) == 1
    assert V == PotentialSpec.tabulated(samples)
    assert hash(V) == hash(PotentialSpec.tabulated(samples))
