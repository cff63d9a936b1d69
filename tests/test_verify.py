import numpy as np

from hexspec import jacobi, verify


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
