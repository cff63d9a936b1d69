"""Compactly supported loop eigenstates: the vertex-condition matrix T_Phi(n)
for simply closed loops on the hexagonal lattice, its rank dichotomy, and
double-hexagon Dirichlet eigenstates with a slicing edge."""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyError, DomainError
from .hill import DEFAULT_STEPS, _rk4_fundamental
from .potentials import PotentialSpec, parse_potential

#: numerical-rank threshold, relative to the largest singular value
RANK_RTOL = 1e-10

#: tolerance for q*Phi in 2*pi*Z decisions
FLUX_LATTICE_TOL = 1e-9


@dataclass(frozen=True)
class LoopSpec:
    """A simply closed loop of n_edges edges enclosing q_enc hexagons, with
    the per-edge boundary phases beta_tilde (zero on f/g-type edges and
    -Phi*gamma_1 on h-type edges)."""

    n_edges: int
    beta_tilde: tuple[float, ...]
    q_enc: int

    def __post_init__(self):
        if self.n_edges < 6 or self.n_edges % 2:
            raise DomainError("loop needs an even number >= 6 of edges")
        if len(self.beta_tilde) != self.n_edges:
            raise DomainError("need one phase per edge")
        if self.n_edges != 2 + 4 * self.q_enc:
            raise DomainError("a loop around q hexagons has 2+4q edges")

    def alternating_phase_sum(self) -> float:
        """sum_j (-1)^j beta_tilde_j with 1-based j; equals q_enc*Phi mod 2pi."""
        return sum(self.beta_tilde[1::2]) - sum(self.beta_tilde[0::2])


def _hexagon_row(phi: float, gamma1: int, q_enc: int) -> LoopSpec:
    """The loop around a row of q_enc hexagons, 2 + 4 q_enc edges: the h-type
    edges of hexagon k, 0-based 4k+2 and 4k+5, carry the lattice-offset
    phases -Phi*(gamma_1+1) and -Phi*gamma_1, the f/g-type ones none."""
    beta = [0.0] * (2 + 4 * q_enc)
    for k in range(q_enc):
        beta[4 * k + 2] = -phi * (gamma1 + 1)
        beta[4 * k + 5] = -phi * gamma1
    return LoopSpec(n_edges=len(beta), beta_tilde=tuple(beta), q_enc=q_enc)


def hexagon_loop(phi: float, gamma1: int = 0) -> LoopSpec:
    """Single-hexagon loop (6 edges, one enclosed hexagon)."""
    return _hexagon_row(phi, gamma1, 1)


def double_hexagon_loop(phi: float, gamma1: int = 0) -> LoopSpec:
    """Outer loop of two adjacent hexagons (10 edges, q_enc = 2)."""
    return _hexagon_row(phi, gamma1, 2)


def build_TPhi(loop: LoopSpec, phi: float) -> np.ndarray:
    """Vertex-condition matrix on the loop's derivative coefficients: row k
    pairs edges k and k+1 (cyclic, 0-based), so T is its diagonal plus its
    cyclic superdiagonal.  Even rows sit at terminal vertices and carry the
    phases e^{i beta_k}, e^{i beta_{k+1}}; odd rows sit at initial vertices
    with entries 1, 1; the last odd row closes the loop."""
    target = (loop.q_enc * phi) % (2.0 * math.pi)
    got = loop.alternating_phase_sum() % (2.0 * math.pi)
    dev = min(abs(got - target), 2.0 * math.pi - abs(got - target))
    if dev > 1e-9:
        raise DomainError("loop phases inconsistent with flux: "
                          f"alternating sum off by {dev:.2e}")
    n = loop.n_edges
    phase = [cmath.exp(1j * b) for b in loop.beta_tilde]
    diag, sup = np.ones(n, dtype=complex), np.ones(n, dtype=complex)
    diag[0::2], sup[0::2] = phase[0::2], phase[1::2]
    k = np.arange(n)
    T = np.zeros((n, n), dtype=complex)
    T[k, k], T[k, (k + 1) % n] = diag, sup
    return T


def rank_TPhi(loop: LoopSpec, phi: float) -> int:
    """Numerical rank of T_Phi(n): n iff q_enc*Phi is not a multiple of 2pi,
    n-1 otherwise."""
    s = np.linalg.svd(build_TPhi(loop, phi), compute_uv=False)
    return int(np.sum(s > RANK_RTOL * s[0]))


@dataclass(frozen=True)
class DoubleHexState:
    """Dirichlet eigenstate on two adjacent hexagons: coefficients a_j of the
    per-edge Dirichlet eigenfunction s_lambda along the outer loop, plus an
    optional slicing-edge contribution."""

    outer_coeffs: tuple[complex, ...]
    slicing_coeff: complex
    slicing_beta: float
    dirichlet_lambda: float
    gamma1: int
    potential: PotentialSpec


def double_hexagon_state(phi: float, dirichlet_lambda: float, gamma1: int = 0,
                         V: PotentialSpec | None = None) -> DoubleHexState:
    """Construct the double-hexagon eigenstate at a Dirichlet eigenvalue.

    For 2*Phi in 2*pi*Z the state is a kernel vector of T_Phi(10) with the
    slicing edge unused; otherwise it is the unique solution of T a = y where
    y couples the slicing edge into rows 2 and 7.
    """
    if V is None:
        V = parse_potential("zero")
    # lambda is a Dirichlet eigenvalue iff hill's exact Sturm count steps
    # across it.  delta is wider than the 2^-40 cell bisection leaves an
    # eigenvalue in, and than the RK4 error of the kernel's eigenvalues below
    # COUNT_LAMBDA_MAX (5.8e-7 relative at (100 pi)^2, so exact ones pass);
    # it is far narrower than the spacing of Dirichlet eigenvalues.  |s(1)|
    # <= tol is not scale-free: per unit of lambda at the first eigenvalue,
    # s(1) moves by 0.11 at mathieu:20 and by 2.3e7 at mathieu:1000.
    delta = 1e-6 * max(1.0, abs(dirichlet_lambda))
    lams = dirichlet_lambda + np.array([-delta, delta])
    n_dir = _rk4_fundamental(V, lams, DEFAULT_STEPS)[5]
    if n_dir[0] == n_dir[1]:
        raise DomainError(f"lambda={dirichlet_lambda} is not a Dirichlet eigenvalue "
                          f"(the Dirichlet count is {n_dir[0]} within {delta:.1e} of it)")
    T = build_TPhi(double_hexagon_loop(phi, gamma1), phi)
    slicing_beta = 0.0  # the shared edge is f/g-type: zero phase
    x = (2.0 * phi) % (2.0 * math.pi)
    if min(x, 2.0 * math.pi - x) < FLUX_LATTICE_TOL:  # 2 Phi on the lattice
        _, s, vh = np.linalg.svd(T)
        if s[-1] > RANK_RTOL * s[0]:
            raise ConsistencyError("expected a nontrivial kernel of T")
        a = vh[-1].conj()
        slice_coeff = 0.0 + 0.0j
    else:
        y = np.zeros(10, dtype=complex)
        y[[1, 6]] = -1.0, -cmath.exp(1j * slicing_beta)
        # T's smallest singular value falls like |2 Phi mod 2 pi| near the
        # lattice, where solvers differ along its near-kernel; the residual
        # and verify_vertex_conditions are what test the state.  The residual
        # is bounded as a backward error, ||T|| <= 2: a grows like
        # 1/|Phi - pi| near pi for odd gamma_1
        a = np.linalg.solve(T, y)
        scale = max(1.0, np.max(np.abs(y)), np.max(np.abs(a)))
        if np.max(np.abs(T @ a - y)) > 1e-12 * scale:
            raise ConsistencyError("residual too large for T a = y")
        slice_coeff = 1.0 + 0.0j
    return DoubleHexState(outer_coeffs=tuple(a), slicing_coeff=slice_coeff,
                          slicing_beta=slicing_beta, dirichlet_lambda=dirichlet_lambda,
                          gamma1=gamma1, potential=V)


def verify_vertex_conditions(state: DoubleHexState, phi: float) -> dict:
    """Independently re-evaluate every vertex condition of the 11-edge
    configuration using the integrated s_lambda endpoint data.

    Each edge carries psi = a * s_lambda, so psi vanishes at all vertices
    (continuity is exact) and the derivative sums use s'(0) = 1 and
    s'(1) = s1p.  s(1) and s'(1) come from one run at DEFAULT_STEPS, the
    discretisation whose Dirichlet count defines lambda: a finer run moves
    the eigenvalue by its RK4 error, which a deep well magnifies.
    """
    _, _, s1, s1p = (float(x[0]) for x in _rk4_fundamental(
        state.potential, [state.dirichlet_lambda], DEFAULT_STEPS)[:4])
    loop = double_hexagon_loop(phi, state.gamma1)
    a = state.outer_coeffs
    n = loop.n_edges
    violations = []
    # vertex k (1-based) sits between edges k and k+1 (cyclic)
    for k in range(1, n + 1):
        j1, j2 = k - 1, k % n
        if k % 2:  # terminal vertex: phased condition on psi'(1)
            total = s1p * (cmath.exp(1j * loop.beta_tilde[j1]) * a[j1]
                           + cmath.exp(1j * loop.beta_tilde[j2]) * a[j2])
            if k == 7:
                total += cmath.exp(1j * state.slicing_beta) * state.slicing_coeff * s1p
        else:  # initial vertex: plain condition on psi'(0)
            total = a[j1] + a[j2]
            if k == 2:
                total += state.slicing_coeff  # psi'(0) = 1 on the slicing edge
        violations.append(abs(total))
    # continuity: psi values at vertices are a * s(1) or a * s(0) = 0
    value_residual = abs(s1) * max(*map(abs, a), abs(state.slicing_coeff))
    return {
        "max_violation": max(max(violations), value_residual),
        "derivative_violations": violations,
        "continuity_residual": value_residual,
        "s1p": s1p,
    }
