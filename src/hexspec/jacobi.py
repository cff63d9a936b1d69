"""Reduced quasi-periodic Jacobi operator at rational flux: transfer matrices,
Chambers' polynomial G_q, the decoupled block M_q, the periodic block M_{q,nu},
and the per-theta / full rational-flux band structure."""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import ConsistencyError
from .flux import Flux, check_reduced, mirror_numerator
from .intervals import BandList


def coeff_c(theta) -> complex:
    """Off-diagonal coefficient c(theta) = 1 + e^{-2 pi i theta}."""
    return 1.0 + np.exp(-2j * np.pi * np.asarray(theta, dtype=float))


def coeff_v(theta) -> float:
    """Diagonal coefficient v(theta) = 2 cos(2 pi theta)."""
    return 2.0 * np.cos(2.0 * np.pi * np.asarray(theta, dtype=float))


def _d_product(lam, theta, alpha: float, n: int, renorm: bool = False):
    """Entries (a, b, c, d) and log scale of D_n(theta) = D(theta + (n-1) alpha)
    ... D(theta), with lam and theta broadcast against each other.

    The coupling is written as the analytic continuation
    -cbar(theta - alpha) = -(1 + e^{2 pi i (theta - alpha)}), so theta may be
    complex.  The n factors are multiplied by a pairwise tree, each later one
    times the earlier, odd levels padded with the identity; memory is linear
    in n, at most ~135 bytes per step and batch element.  With renorm, each
    product of a level is divided by its Frobenius norm, and the log scale
    sums their logs; otherwise it stays zero.
    """
    shape = np.broadcast_shapes(np.shape(lam), np.shape(theta))
    log_scale = np.zeros(shape)
    if n == 0:
        return (*(np.full(shape, v, dtype=complex) for v in (1, 0, 0, 1)), log_scale)
    th = theta + np.arange(n).reshape((n,) + (1,) * len(shape)) * alpha
    m = [np.broadcast_to(e, (n,) + shape) for e in (
        lam - 2.0 * np.cos(2.0 * np.pi * th),
        -(1.0 + np.exp(2j * np.pi * (th - alpha))),
        1.0 + np.exp(-2j * np.pi * th),
        0j)]
    while len(m[0]) > 1:
        if len(m[0]) % 2:
            m = [np.concatenate((e, np.full((1,) + shape, v)))
                 for e, v in zip(m, (1.0, 0.0, 0.0, 1.0))]
        (xa, xb, xc, xd), (ya, yb, yc, yd) = ([e[k::2] for e in m] for k in (0, 1))
        m = [ya * xa + yb * xc, ya * xb + yb * xd, yc * xa + yd * xc, yc * xb + yd * xd]
        if renorm:
            nrm = np.maximum(np.sqrt(sum(np.abs(e) ** 2 for e in m)), 1e-300)
            log_scale += np.log(nrm).sum(axis=0)
            m = [e / nrm for e in m]
    return (*(np.asarray(e[0], dtype=complex) for e in m), log_scale)


def transfer_D_product(lam: float, theta: float, flux: Flux, n: int) -> np.ndarray:
    """D_n(theta) = D(theta + (n-1) alpha) ... D(theta + alpha) D(theta)."""
    a, b, c, d, _ = _d_product(lam, theta, flux.alpha, n)
    return np.array([[a, b], [c, d]], dtype=complex)


def chambers_Gq(lam, p: int, q: int, theta0: float | None = None):
    """Chambers' theta-independent polynomial G_q(lambda).

    tr(D_q(theta)) = -2 cos(2 pi q theta) + G_q(lambda); we evaluate at
    theta0 = 1/(4q), which stays away from the decoupling lattice and from
    the extremizers of the trace.
    """
    check_reduced(p, q)
    if theta0 is None:
        theta0 = 1.0 / (4.0 * q)
    a, _, _, d, _ = _d_product(np.asarray(lam, dtype=complex), theta0, p / q, q)
    g = a + d + 2.0 * math.cos(2.0 * math.pi * q * theta0)
    g = np.real_if_close(g, tol=1e6)
    if np.iscomplexobj(g) and np.max(np.abs(np.imag(g))) > 1e-8 * (1 + np.max(np.abs(g))):
        raise ConsistencyError("Chambers polynomial came out complex")
    return np.real(g)


def build_Mq(p: int, q: int) -> np.ndarray:
    """Decoupled q x q block M_q, real symmetric.

    Satisfies det(lam*I - M_q) = tr(D_q(theta)) at every theta in
    1/2 + (1/q)Z.  Every such theta gives the same block: the restriction of
    the infinite matrix between two vanishing couplings, i.e. the Bloch
    block at theta = 1/2, where c(1/2) = 0 removes the corner.
    """
    return _bloch_blocks(p, q, [0.5], [0.0])[0]


def _bloch_coefficients(p: int, q: int, thetas, phases):
    """The entries of the periodic q x q Jacobi blocks, one per (theta,
    phase) pair: the diagonal v(theta - j p/q), shape (n, q), the
    off-diagonal |c(theta - (j+1) p/q)|, shape (n, q - 1), and the corner
    phase * |c(theta)|, shape (n,)."""
    thetas = np.asarray(thetas, dtype=float)
    shifted = thetas[:, None] - np.arange(q) * (p / q)
    corner = np.asarray(phases) * np.abs(coeff_c(thetas))
    return coeff_v(shifted), np.abs(coeff_c(shifted[:, 1:])), corner


def _bloch_blocks(p: int, q: int, thetas, phases) -> np.ndarray:
    """Periodic q x q Jacobi blocks, one per (theta, phase) pair, shape
    (len(thetas), q, q), from _bloch_coefficients: the corner goes to
    (0, q - 1) and its conjugate to (q - 1, 0), added onto shared entries
    (q <= 2).  Real phases give a real float64 array, complex ones a complex
    array."""
    diag, off, corner = _bloch_coefficients(p, q, thetas, phases)
    j = np.arange(q)
    M = np.zeros((corner.size, q, q), dtype=corner.dtype)
    M[:, j, j] = diag
    M[:, j[1:], j[:-1]] = off
    M[:, j[:-1], j[1:]] = off
    M[:, 0, q - 1] += corner
    M[:, q - 1, 0] += np.conj(corner)
    return M


def _banded_blocks(p: int, q: int, thetas, phases) -> np.ndarray:
    """The real blocks of _bloch_blocks (real phases) in LAPACK lower band
    storage of the ring order 0, q-1, 1, q-2, ..., shape (len(thetas),
    min(q, 3), q); no q x q array is formed.  Ring neighbours sit two apart
    (row 2), except the corner at column 0 and the middle edge at column
    q-2 (row 1).  At q = 2 the corner is added onto the middle edge and at
    q = 1 both corners onto the diagonal, as _bloch_blocks adds them."""
    diag, off, corner = _bloch_coefficients(p, q, thetas, phases)
    j = np.arange(q)
    ring = np.where(j % 2, q - 1 - j // 2, j // 2)
    ab = np.zeros((corner.size, min(q, 3), q))
    ab[:, 0] = diag[:, ring]
    if q == 1:
        ab[:, 0, 0] = diag[:, 0] + corner + corner
        return ab
    ab[:, 1, q - 2] = off[:, min(ring[-2:])]
    ab[:, 1, 0] += corner
    if q > 2:
        ab[:, 2, :q - 2] = off[:, np.minimum(ring[:-2], ring[2:])]
    return ab


def _banded_spectrum(p: int, q: int, thetas) -> tuple[np.ndarray, np.ndarray]:
    """The elementwise min and max of the ascending eigenvalues of the
    nu = 1/2 block at thetas[0] and the nu = 0 block at thetas[1], each
    solved by LAPACK dsbev on its band array: O(q^2) time, O(q) memory."""
    from scipy.linalg.lapack import dsbev  # keeps scipy out of `import hexspec`

    eigs = []
    for ab in _banded_blocks(p, q, thetas, [-1.0, 1.0]):
        w, _, info = dsbev(ab, compute_v=0, lower=1)
        if info != 0:
            raise ConsistencyError(f"dsbev failed with info={info} at p/q={p}/{q}")
        eigs.append(w)
    # both arrays ascend, so their elementwise min and max do too
    return np.minimum(*eigs), np.maximum(*eigs)


def theta_spectrum(p: int, q: int, theta: float) -> BandList:
    """Per-theta spectrum: q possibly-touching bands whose k-th endpoints are
    the k-th eigenvalues of the nu=1/2 and nu=0 periodic blocks."""
    check_reduced(p, q)
    los, his = _banded_spectrum(p, q, (theta, theta))
    # interlacing: consecutive bands may touch but must not overlap
    overlap = his[:-1] - los[1:]
    if q > 1 and np.max(overlap) > 1e-9 * (1.0 + np.max(np.abs(his))):
        raise ConsistencyError(
            f"band interlacing violated for p/q={p}/{q}, theta={theta}: "
            f"max overlap {np.max(overlap):.3e}"
        )
    return BandList(los, his)


# tr D_q(theta) = G_q(lam) - 2 cos(2 pi q theta) (Chambers), so the per-theta
# window closes over theta to I_q = [-3, 6] for odd q and [-6, 3] for even q.
# G_q = min I_q on the whole spectrum of the nu = 1/2 block at the first angle
# and G_q = max I_q on that of the nu = 0 block at the second.
def _theta_stars(q: int) -> tuple[float, float]:
    if q % 2 == 0:
        return (q + 1) / (2.0 * q), 1.0 / (6.0 * q)
    return (3.0 * q - 1.0) / (6.0 * q), (q - 1.0) / (2.0 * q)


def rational_spectrum(p: int, q: int) -> BandList:
    """Sigma_{2 pi p/q} = G_q^{-1}(I_q), I_q = [-3, 6] for odd q and [-6, 3]
    for even q: the union over theta of the per-theta spectra, exactly q
    possibly-touching bands.  Band k runs between the k-th eigenvalues of the
    nu = 1/2 block at the first extremizing angle (G_q = min I_q) and of the
    nu = 0 block at the second (G_q = max I_q), from _banded_spectrum (the
    dense blocks of _bloch_blocks remain the tests' oracle).  The bottom edge
    is exactly -3 for every p/q (Chambers), and each block is B B^T - 3 I for
    a real cyclic bidiagonal B, so Sigma >= -3.  The eigensolve puts the
    bottom band's ends a few ulp off, so lo is pinned to -3 and hi to at
    least -3: else the band could invert, or q_spectrum open a gap at 0.

    Flux p/q and (q - p)/q give complex-conjugate operators, so their Sigma
    coincide: both members of the pair are solved at mirror_numerator(p, q)
    = min(p mod q, q - p mod q) and get the same read-only BandList, from a
    cache of the last 256 solves."""
    check_reduced(p, q)
    return _sigma(mirror_numerator(p, q), q)


# In reduced_fractions order q - p comes fewer than phi(q) < q calls after p,
# so a sweep over all q <= 256 finds every mirror in the cache.
@lru_cache(maxsize=256)
def _sigma(p: int, q: int) -> BandList:
    """Sigma_{p/q} for 0 <= p <= q/2, the -3 check and pins included."""
    los, his = _banded_spectrum(p, q, _theta_stars(q))
    if abs(los[0] + 3.0) > 1e-10:
        raise ConsistencyError(f"bottom of Sigma for p/q={p}/{q} is {los[0]!r}, not -3")
    los[0], his[0] = -3.0, max(his[0], -3.0)
    return BandList(los, his)
