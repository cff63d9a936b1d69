import numpy as np
import pytest

from hexspec import hill, jacobi, verify
from hexspec.intervals import BandList
from hexspec.qlambda import QSpectrum


def test_trace_identity_check_passes():
    ok, detail = verify._check_trace_identity()
    assert ok, detail


def test_trace_identity_check_fails_on_perturbed_product(monkeypatch):
    exact = jacobi.transfer_D_product
    tilt = np.array([[1.0, 0.0], [0.0, 1.0 + 1e-6]])
    monkeypatch.setattr(
        jacobi, "transfer_D_product", lambda *args: exact(*args) @ tilt
    )
    ok, detail = verify._check_trace_identity()
    assert not ok, detail


def test_band_dirichlet_check_passes():
    ok, detail = verify._check_band_dirichlet()
    assert ok, detail


@pytest.mark.parametrize("perturb", [
    lambda dirs: [d + 1e-6 for d in dirs],  # off the open gaps of mathieu:20
    lambda dirs: dirs[1:],  # one missing: the sign pattern breaks
])
def test_band_dirichlet_check_fails_on_perturbed_eigenvalues(monkeypatch, perturb):
    exact = verify.dirichlet_eigenvalues
    monkeypatch.setattr(verify, "dirichlet_eigenvalues",
                        lambda *args: perturb(exact(*args)))
    ok, detail = verify._check_band_dirichlet()
    assert not ok, detail


@pytest.mark.parametrize("perturb", [
    lambda out: (out[0], out[1], out[2], out[3] + 1e-8) + out[4:],  # Delta off
    lambda out: out[:5] + (out[5] + 1,),  # one Dirichlet eigenvalue too many
])
def test_half_interval_check_fails_on_perturbed_half_run(monkeypatch, perturb):
    exact = hill._rk4_fundamental
    monkeypatch.setattr(hill, "_rk4_fundamental", lambda *args: perturb(exact(*args)))
    ok, detail = verify._check_half_interval()
    assert not ok, detail


def test_banded_vs_dense_check_fails_on_moved_edges(monkeypatch):
    exact = jacobi.rational_spectrum

    def moved(p, q):
        s = exact(p, q)
        return BandList(s.lo + 1e-10, s.hi + 1e-10)

    monkeypatch.setattr(jacobi, "rational_spectrum", moved)
    ok, detail = verify._check_banded_vs_dense()
    assert not ok and "Sigma edge 1.00e-10" in detail, detail


@pytest.mark.parametrize("even_only", [False, True], ids=["every-q", "even-q"])
def test_banded_vs_dense_check_fails_on_a_wrong_mirror(monkeypatch, even_only):
    # p > q/2 solved as 1/q instead of (q - p)/q; with even_only, 7/10 is the
    # only flux of the check that sees it
    mirror = jacobi.mirror_numerator

    def wrong(p, q):
        p %= q
        return 1 if 2 * p > q and (q % 2 == 0 or not even_only) else mirror(p, q)

    monkeypatch.setattr(jacobi, "mirror_numerator", wrong)
    ok, detail = verify._check_banded_vs_dense()
    assert not ok, detail


def test_q_symmetry_check_fails_on_a_moved_positive_half(monkeypatch):
    # Sigma reaches -3, so the 2q Q-bands split into q negative and q
    # positive ones; moving the positive ones keeps 0 in the set
    exact = verify.q_spectrum

    def moved(sigma):
        b = exact(sigma).bands
        shift = np.where(np.arange(len(b)) >= len(b) // 2, 1e-10, 0.0)
        return QSpectrum(BandList(b.lo + shift, b.hi + shift))

    monkeypatch.setattr(verify, "q_spectrum", moved)
    ok, detail = verify._check_q_symmetry()
    assert not ok and detail == "symmetry/zero fails at 0/1", detail
