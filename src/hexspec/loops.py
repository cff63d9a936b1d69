"""Compactly supported loop eigenstates: the vertex-condition matrix T_Phi(n)
for simply closed loops on the hexagonal lattice, its rank dichotomy, and
double-hexagon Dirichlet eigenstates with a slicing edge."""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyError, DomainError
from .hill import integrate_monodromy
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
        return sum(
            (b if j % 2 == 0 else -b)
            for j, b in enumerate(self.beta_tilde, start=1)
        )


def hexagon_loop(phi: float, gamma1: int = 0) -> LoopSpec:
    """Single-hexagon loop (6 edges, one enclosed hexagon); the two h-type
    edges sit at positions 3 and 6 and carry the lattice-offset phases."""
    beta = [0.0] * 6
    beta[2] = -phi * (gamma1 + 1)
    beta[5] = -phi * gamma1
    return LoopSpec(n_edges=6, beta_tilde=tuple(beta), q_enc=1)


def double_hexagon_loop(phi: float, gamma1: int = 0) -> LoopSpec:
    """Outer loop of two adjacent hexagons (10 edges, q_enc = 2); the h-type
    pattern of the single hexagon repeats on both halves."""
    beta = [0.0] * 10
    beta[2] = -phi * (gamma1 + 1)
    beta[5] = -phi * gamma1
    beta[6] = -phi * (gamma1 + 1)
    beta[9] = -phi * gamma1
    return LoopSpec(n_edges=10, beta_tilde=tuple(beta), q_enc=2)


def build_TPhi(loop: LoopSpec, phi: float) -> np.ndarray:
    """Vertex-condition matrix on the loop's derivative coefficients.

    Odd rows k pair edges (k, k+1) at a terminal vertex and carry the phases
    e^{i beta}; even rows pair (k+1, k+2) at an initial vertex with entries 1;
    the final row closes the loop with 1s in the first and last columns.
    """
    target = (loop.q_enc * phi) % (2.0 * math.pi)
    got = loop.alternating_phase_sum() % (2.0 * math.pi)
    dev = min(abs(got - target), 2.0 * math.pi - abs(got - target))
    if dev > 1e-9:
        raise DomainError(
            f"loop phases inconsistent with flux: alternating sum off by {dev:.2e}"
        )
    n = loop.n_edges
    T = np.zeros((n, n), dtype=complex)
    for k in range(0, n - 1, 2):  # 0-based odd rows of the display
        T[k, k] = cmath.exp(1j * loop.beta_tilde[k])
        T[k, k + 1] = cmath.exp(1j * loop.beta_tilde[k + 1])
    for k in range(1, n - 2, 2):
        T[k, k] = 1.0
        T[k, k + 1] = 1.0
    T[n - 1, 0] = 1.0
    T[n - 1, n - 1] = 1.0
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


@functools.lru_cache(maxsize=64)
def _monodromy(V: PotentialSpec, lam: float):
    """integrate_monodromy once per (V, lam), shared by a state and its checks."""
    return integrate_monodromy(V, lam)


def double_hexagon_state(
    phi: float,
    dirichlet_lambda: float,
    gamma1: int = 0,
    V: PotentialSpec | None = None,
) -> DoubleHexState:
    """Construct the double-hexagon eigenstate at a Dirichlet eigenvalue.

    For 2*Phi in 2*pi*Z the state is a kernel vector of T_Phi(10) with the
    slicing edge unused; otherwise it is the unique solution of T a = y where
    y couples the slicing edge into rows 2 and 7.
    """
    if V is None:
        V = parse_potential("zero")
    s1 = _monodromy(V, dirichlet_lambda).s1
    if abs(s1) > 1e-6:
        raise DomainError(f"lambda={dirichlet_lambda} is not a Dirichlet eigenvalue "
                          f"(s(1)={s1:.2e})")
    loop = double_hexagon_loop(phi, gamma1)
    T = build_TPhi(loop, phi)
    slicing_beta = 0.0  # the shared edge is f/g-type: zero phase
    x = (2.0 * phi) % (2.0 * math.pi)
    on_lattice = min(x, 2.0 * math.pi - x) < FLUX_LATTICE_TOL
    if on_lattice:
        _, s, vh = np.linalg.svd(T)
        if s[-1] > RANK_RTOL * s[0]:
            raise ConsistencyError("expected a nontrivial kernel of T")
        a = vh[-1].conj()
        slice_coeff = 0.0 + 0.0j
    else:
        y = np.zeros(10, dtype=complex)
        y[1] = -1.0
        y[6] = -cmath.exp(1j * slicing_beta)
        a = np.linalg.solve(T, y)
        # cross-check with an independent factorization
        a2, *_ = np.linalg.lstsq(T, y, rcond=None)
        if np.max(np.abs(a - a2)) > 1e-10 * (1.0 + np.max(np.abs(a))):
            raise ConsistencyError("solver disagreement for T a = y")
        if np.max(np.abs(T @ a - y)) > 1e-12 * max(1.0, np.max(np.abs(y))):
            raise ConsistencyError("residual too large for T a = y")
        slice_coeff = 1.0 + 0.0j
    return DoubleHexState(
        outer_coeffs=tuple(a),
        slicing_coeff=slice_coeff,
        slicing_beta=slicing_beta,
        dirichlet_lambda=dirichlet_lambda,
        gamma1=gamma1,
        potential=V,
    )


def verify_vertex_conditions(state: DoubleHexState, phi: float) -> dict:
    """Independently re-evaluate every vertex condition of the 11-edge
    configuration using the integrated s_lambda endpoint data.

    Each edge carries psi = a * s_lambda, so psi vanishes at all vertices
    (continuity is exact) and the derivative sums use s'(0) = 1 and
    s'(1) = s1p from the monodromy.
    """
    V = state.potential
    sol = _monodromy(V, state.dirichlet_lambda)
    s1p = sol.s1p
    loop = double_hexagon_loop(phi, state.gamma1)
    a = state.outer_coeffs
    n = loop.n_edges
    violations = []
    # vertex k (1-based) sits between edges k and k+1 (cyclic); odd k are
    # terminal vertices (phased condition on psi'(1)), even k are initial
    # vertices (plain condition on psi'(0))
    for k in range(1, n + 1):
        j1, j2 = k - 1, k % n
        if k % 2 == 1:
            total = s1p * (
                cmath.exp(1j * loop.beta_tilde[j1]) * a[j1]
                + cmath.exp(1j * loop.beta_tilde[j2]) * a[j2]
            )
            if k == 7:
                total += cmath.exp(1j * state.slicing_beta) * state.slicing_coeff * s1p
        else:
            total = a[j1] + a[j2]
            if k == 2:
                total += state.slicing_coeff  # psi'(0) = 1 on the slicing edge
        violations.append(abs(total))
    # continuity: psi values at vertices are a * s(1) or a * s(0) = 0
    value_residual = max(
        abs(sol.s1) * max((abs(x) for x in a), default=0.0),
        abs(sol.s1) * abs(state.slicing_coeff),
    )
    return {
        "max_violation": max(max(violations), value_residual),
        "derivative_violations": violations,
        "continuity_residual": value_residual,
        "s1p": s1p,
    }
