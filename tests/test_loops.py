import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hexspec import loops
from hexspec.errors import DomainError
from hexspec.hill import dirichlet_eigenvalues, integrate_monodromy
from hexspec.loops import (
    build_TPhi,
    double_hexagon_loop,
    double_hexagon_state,
    hexagon_loop,
    rank_TPhi,
    verify_vertex_conditions,
)
from hexspec.potentials import parse_potential

V0 = parse_potential("zero")
VM = parse_potential("mathieu:20")


def test_zero_flux_matrix_is_all_ones_pattern():
    T = build_TPhi(hexagon_loop(0.0), 0.0)
    assert np.all(np.isin(np.round(T.real, 12), (0.0, 1.0)))
    assert np.max(np.abs(T.imag)) == 0.0
    assert np.count_nonzero(T) == 12


@settings(max_examples=40, deadline=None)
@given(phi=st.floats(0.0, 2.0 * math.pi), gamma1=st.integers(-3, 3))
def test_alternating_phase_sum_invariant(phi, gamma1):
    for loop in (hexagon_loop(phi, gamma1), double_hexagon_loop(phi, gamma1)):
        target = (loop.q_enc * phi) % (2.0 * math.pi)
        got = loop.alternating_phase_sum() % (2.0 * math.pi)
        dev = min(abs(got - target), 2.0 * math.pi - abs(got - target))
        assert dev < 1e-9


def test_row_reduced_diagonal_end():
    # eliminating forward, the last pivot is 1 - e^{i q Phi}
    for phi in (0.7, 1.9):
        loop = double_hexagon_loop(phi)
        T = build_TPhi(loop, phi).copy()
        n = loop.n_edges
        for col in range(n - 1):
            piv = T[col, col]
            for row in range(col + 1, n):
                if abs(T[row, col]) > 0:
                    T[row] -= T[row, col] / piv * T[col]
        assert T[n - 1, n - 1] == pytest.approx(
            1.0 - np.exp(1j * loop.q_enc * phi), abs=1e-12
        )


def test_rank_dichotomy_examples():
    assert rank_TPhi(double_hexagon_loop(math.pi), math.pi) == 9
    assert rank_TPhi(double_hexagon_loop(math.pi / 2), math.pi / 2) == 10
    assert rank_TPhi(hexagon_loop(0.0), 0.0) == 5


def test_rank_dichotomy_full_grid():
    for phi in np.linspace(0.0, 2.0 * math.pi, 100):
        loop = double_hexagon_loop(float(phi))
        x = (2.0 * phi) % (2.0 * math.pi)
        expected = 9 if min(x, 2.0 * math.pi - x) < 1e-9 else 10
        assert rank_TPhi(loop, float(phi)) == expected


def test_state_rejects_non_dirichlet_lambda():
    with pytest.raises(DomainError):
        double_hexagon_state(0.3, 12.34, V=V0)


def test_exact_dirichlet_eigenvalues_are_accepted():
    # the kernel puts (n pi)^2 5.8e-7 relative off at n = 100; the count's
    # window, 1e-6 relative, takes the exact eigenvalue all the same
    for n in (1, 21, 50, 100):
        assert double_hexagon_state(0.5, (n * math.pi) ** 2, V=V0).slicing_coeff == 1.0


def test_kernel_branch_at_pi():
    lam = dirichlet_eigenvalues(V0, 50.0)[0]
    st_ = double_hexagon_state(math.pi, lam, V=V0)
    assert st_.slicing_coeff == 0.0
    assert verify_vertex_conditions(st_, math.pi)["max_violation"] <= 1e-10


def test_solve_branch_at_half_pi():
    lam = dirichlet_eigenvalues(V0, 50.0)[0]
    st_ = double_hexagon_state(math.pi / 2, lam, V=V0)
    assert st_.slicing_coeff == 1.0
    assert verify_vertex_conditions(st_, math.pi / 2)["max_violation"] <= 1e-10


def test_states_for_both_potentials_three_eigenvalues():
    for V, lmax in ((V0, 100.0), (VM, 250.0)):
        for lam in dirichlet_eigenvalues(V, lmax)[:3]:
            for phi in (0.0, math.pi / 2, math.pi):
                st_ = double_hexagon_state(phi, lam, V=V)
                rep = verify_vertex_conditions(st_, phi)
                assert rep["max_violation"] <= 1e-10


def test_perturbed_state_detected():
    lam = dirichlet_eigenvalues(V0, 50.0)[0]
    st_ = double_hexagon_state(math.pi / 2, lam, V=V0)
    coeffs = np.array(st_.outer_coeffs)
    coeffs[3] += 1e-3
    bad = dataclasses.replace(st_, outer_coeffs=tuple(coeffs))
    assert verify_vertex_conditions(bad, math.pi / 2)["max_violation"] >= 1e-4


def test_zeroed_state_trivially_satisfied():
    lam = dirichlet_eigenvalues(V0, 50.0)[0]
    st_ = double_hexagon_state(math.pi, lam, V=V0)
    zero = dataclasses.replace(
        st_, outer_coeffs=(0.0,) * 10, slicing_coeff=0.0
    )
    assert verify_vertex_conditions(zero, math.pi)["max_violation"] == 0.0


def test_state_and_checks_integrate_once(monkeypatch):
    lam = dirichlet_eigenvalues(VM, 100.0)[1]
    calls = []

    def counted(V, energy):
        calls.append(energy)
        return integrate_monodromy(V, energy)

    monkeypatch.setattr(loops, "integrate_monodromy", counted)
    state = double_hexagon_state(0.0, lam, V=VM)
    reports = [verify_vertex_conditions(state, phi) for phi in (0.0, math.pi / 2, math.pi)]
    # the state tests lambda by the Sturm count; each check integrates once
    assert calls == [lam] * 3
    assert all(r["s1p"] == integrate_monodromy(VM, lam).s1p for r in reports)


def _coeffs_to_40_digits(phi):
    """T a = y solved in 40-digit arithmetic, T built in mpmath from the
    phases of the gamma_1 = 0 loop: diagonal and cyclic superdiagonal, e^{i beta} on even
    rows and 1 on odd ones; y = -1 at rows 1 and 6."""
    mp = pytest.importorskip("mpmath")
    beta = double_hexagon_loop(phi).beta_tilde
    with mp.workdps(40):
        T = mp.zeros(10, 10)
        for k in range(10):
            odd = k % 2
            T[k, k] = 1 if odd else mp.expj(beta[k])
            T[k, (k + 1) % 10] = 1 if odd else mp.expj(beta[k + 1])
        y = mp.matrix([0, -1, 0, 0, 0, 0, -1, 0, 0, 0])
        return np.array([complex(x) for x in mp.lu_solve(T, y)])


@pytest.mark.parametrize("phi", [x for eps in (1e-9, 1e-8, 1e-7, 1e-6)
                                 for x in (eps, math.pi - eps, math.pi + eps)])
def test_states_near_the_flux_lattice(phi):
    # T's smallest singular value falls like |2 Phi mod 2 pi| here, so two
    # backward-stable solvers differ along its near-kernel; the state exists
    # all the same, and its coefficients are those of an exact solve
    exact = _coeffs_to_40_digits(phi)
    for V in (V0, VM):
        for lam in dirichlet_eigenvalues(V, 100.0)[:2]:
            st_ = double_hexagon_state(phi, lam, V=V)
            assert st_.slicing_coeff == 1.0
            assert verify_vertex_conditions(st_, phi)["max_violation"] <= 1e-10
            a = np.array(st_.outer_coeffs)
            assert np.max(np.abs(a - exact)) <= 1e-8 * np.max(np.abs(exact))
