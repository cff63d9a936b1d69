"""Quantum-graph spectrum assembly: pull the Q-operator spectrum back through
the Hill discriminant on each band, adjoin the flux-independent Dirichlet
eigenvalues, locate Dirac points, and build the Hofstadter-butterfly dataset."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError
from .flux import Flux, reduced_fractions
from .hill import (
    DEFAULT_STEPS,
    BandInverter,
    HillBand,
    bands_window,
    discriminant_batch,
    dirichlet_eigenvalues,
    hill_bands_first_n,
)
from .intervals import BandList
from .jacobi import rational_spectrum
from .potentials import PotentialSpec
from .qlambda import QSpectrum, q_spectrum


@dataclass(frozen=True)
class GraphSpectrum:
    """Spectral content of one Hill band at one rational flux."""

    hill_band_index: int
    hill_band: HillBand
    continuous_bands: BandList
    dirichlet_points: tuple[float, ...]
    dirac_point: float


@dataclass(frozen=True)
class ButterflyDataset:
    """Rows (p, q, hill_band_index, lo, hi) plus flux-independent Dirichlet
    lines, for all reduced p/q up to a denominator cap."""

    rows: tuple[tuple[int, int, int, float, float], ...]
    dirichlet_lines: tuple[float, ...]
    potential: str
    q_max: int
    n_hill_bands: int


def _pullback(qspectra: list[QSpectrum], band: HillBand, inv) -> list[np.ndarray]:
    """Pull the Q-bands of each spectrum back into one Hill band: clip them to
    [-1, 1], invert every endpoint in one call to the band's inverter, and
    return per spectrum its (lo, hi) rows in Q-band order."""
    clipped = [
        [(max(w1, -1.0), min(w2, 1.0))
         for w1, w2 in qs.bands.intervals if not (w2 < -1.0 or w1 > 1.0)]
        for qs in qspectra
    ]
    targets = np.array([w for pairs in clipped for pair in pairs for w in pair])
    lams = inv(targets).reshape(-1, 2)
    if band.monotonicity == "decreasing":
        lams = lams[:, ::-1]
    splits = np.cumsum([len(pairs) for pairs in clipped])[:-1]
    return np.split(lams, splits)


@lru_cache(maxsize=8)
def _hill_side(V: PotentialSpec, n_bands: int):
    """Flux-independent Hill data: bands, one batched inverter per band, and
    the Dirichlet eigenvalues up to the last band edge plus one.  The bands
    and the Dirichlet eigenvalues share one window, so one counting pass."""
    bands = tuple(hill_bands_first_n(V, n_bands))
    inverters = tuple(BandInverter(V, b) for b in bands)
    dirs = dirichlet_eigenvalues(V, bands_window(V, n_bands))
    dir_all = tuple(d for d in dirs if d < bands[-1].beta + 1.0)
    return bands, inverters, dir_all


def graph_spectrum(
    V: PotentialSpec, flux: Flux, n_bands: int
) -> list[GraphSpectrum]:
    """Continuous graph bands per Hill band at rational flux, with the band's
    Dirichlet edge eigenvalues and Dirac point attached."""
    if not flux.is_rational:
        raise DomainError("graph_spectrum needs rational flux; use dynamics "
                          "covers for irrational flux")
    bands, inverters, dir_all = _hill_side(V, n_bands)
    qs = q_spectrum(rational_spectrum(flux.p, flux.q))
    out = []
    for k, (band, inv) in enumerate(zip(bands, inverters), start=1):
        cont = BandList.from_pairs(_pullback([qs], band, inv)[0])
        dirs = tuple(e for e in (band.alpha, band.beta)
                     if any(abs(d - e) < 1e-6 for d in dir_all))
        dirac = float(inv(0.0)[0])
        out.append(GraphSpectrum(k, band, cont, dirs, dirac))
    return out


def dirac_points(V: PotentialSpec, n_bands: int) -> list[float]:
    """Per Hill band, the unique energy with Delta = 0."""
    bands, inverters, _ = _hill_side(V, n_bands)
    return [float(inv(0.0)[0]) for inv in inverters]


def butterfly(
    V: PotentialSpec, q_max: int, n_bands: int, threads: int = 1
) -> ButterflyDataset:
    """Band dataset over all reduced p/q with q <= q_max and the first
    n_bands Hill bands.

    All discriminant inversions per Hill band are batched through one
    spline-accelerated inverter, so the cost is one dense discriminant
    sampling per band plus cheap eigensolves per flux.  `threads` is
    accepted for compatibility and ignored: the fluxes run in one thread.
    """
    bands, inverters, dir_lines = _hill_side(V, n_bands)
    fracs = reduced_fractions(q_max)
    qspectra = [q_spectrum(rational_spectrum(p, q)) for p, q in fracs]

    rows = []
    for k, (band, inv) in enumerate(zip(bands, inverters), start=1):
        for (p, q), pairs in zip(fracs, _pullback(qspectra, band, inv)):
            rows.extend((p, q, k, float(lo), float(hi)) for lo, hi in pairs)
    rows.sort(key=lambda r: (r[1], r[0], r[2], r[3]))
    return ButterflyDataset(
        rows=tuple(rows),
        dirichlet_lines=dir_lines,
        potential=V.describe(),
        q_max=q_max,
        n_hill_bands=n_bands,
    )


def local_symmetry_check(V: PotentialSpec, flux: Flux, band_index: int) -> dict:
    """Verify that the Delta-image of the computed graph bands in one Hill
    band is symmetric under negation; returns a report with the deviation."""
    spec = graph_spectrum(V, flux, band_index)[band_index - 1]
    # the step-doubled discriminant, 2 * DEFAULT_STEPS, at all edges at once
    ws = np.sort(discriminant_batch(V, spec.continuous_bands.endpoints(), 2 * DEFAULT_STEPS))
    deviation = float(np.max(np.abs(ws + ws[::-1]))) if ws.size else 0.0
    return {
        "hill_band": band_index,
        "flux": str(flux),
        "delta_image_endpoints": ws.tolist(),
        "max_asymmetry": deviation,
        "symmetric": deviation <= 1e-10,
    }
