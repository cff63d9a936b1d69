import pytest

from hexspec import dynamics

ACCEPTANCE_RESULTS = []


def record_acceptance(number: int, description: str, ok: bool, detail: str,
                      seconds: float) -> None:
    ACCEPTANCE_RESULTS.append((number, description, ok, detail, seconds))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for number, desc, ok, detail, seconds in sorted(ACCEPTANCE_RESULTS):
        status = "PASS" if ok else "FAIL"
        terminalreporter.write_line(
            f"[{status}] criterion {number:2d} ({desc}): {detail} "
            f"[{seconds:.2f}s]"
        )


@pytest.fixture
def d_product_calls(monkeypatch):
    """Records the length n of every transfer product that `dynamics` makes.
    The cache of G_q is cleared first, so the counts do not depend on the
    tests run before."""
    calls = []
    product = dynamics._d_product
    dynamics._gq_scaled.cache_clear()

    def counted(lam, theta, alpha, n, renorm=False):
        calls.append(n)
        return product(lam, theta, alpha, n, renorm)

    monkeypatch.setattr(dynamics, "_d_product", counted)
    return calls
