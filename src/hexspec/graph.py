"""Quantum-graph spectrum assembly: pull the Q-operator spectrum back through
the Hill discriminant on each band, adjoin the flux-independent Dirichlet
eigenvalues, locate Dirac points, and build the Hofstadter-butterfly dataset."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError
from .flux import Flux, mirror_numerator, reduced_fractions
from .hill import (
    BandInverter,
    HillBand,
    bands_window,
    dirichlet_eigenvalues,
    hill_bands_first_n,
)
from .intervals import BandList
from .jacobi import rational_spectrum
from .potentials import PotentialSpec
from .qlambda import q_spectrum


@dataclass(frozen=True)
class GraphSpectrum:
    """Spectral content of one Hill band at one rational flux."""

    hill_band_index: int
    hill_band: HillBand
    continuous_bands: BandList
    dirichlet_points: tuple[float, ...]
    dirac_point: float


@dataclass(frozen=True, eq=False)
class ButterflyDataset:
    """Rows as one read-only record array with the fields p, q, hill_band, lo,
    hi (lo <= hi), plus flux-independent Dirichlet lines, for all reduced p/q
    up to a denominator cap, and the accuracy of each Hill band's inverter."""

    rows: np.recarray
    dirichlet_lines: tuple[float, ...]
    potential: str
    q_max: int
    n_hill_bands: int
    # per Hill band: the inverter's model_error and its residual
    # max |Delta_model(lambda) - w| over the pulled-back endpoints
    inverter_model_error: tuple[float, ...]
    inverter_residual: tuple[float, ...]


def _graph(inverters, fracs: list[tuple[int, int]]):
    """Pull Sigma_{p/q} back through Delta into every Hill band for each
    (p, q) of fracs: each band's inverter takes every Q-band end in one call.
    Flux p/q and its mirror (q - p)/q share Sigma, so only one flux of each
    pair is pulled back and its rows are copied to the other; the inverter
    gives a target the same bits in any batch, so the copy is what a second
    inversion would give.  Returns the read-only rows (p, q, hill_band, lo,
    hi), flux by flux in the order of fracs, then by band, then by (lo, hi),
    and per band the model residual max |Delta(lambda) - w| over the ends."""
    pairs: dict[tuple[int, int], int] = {}
    pair = np.array([pairs.setdefault((mirror_numerator(p, q), q), len(pairs))
                     for p, q in fracs])
    qbands = [q_spectrum(rational_spectrum(p, q)).bands for p, q in pairs]
    counts = np.array([len(b) for b in qbands])
    w = np.concatenate([np.stack((b.lo, b.hi), axis=1) for b in qbands])
    fcounts = counts[pair]
    flux = np.repeat(np.arange(len(fracs)), fcounts)
    fstart = np.cumsum(fcounts) - fcounts
    j = np.arange(len(flux)) - fstart[flux]
    # the j-th end of flux f is end src of w, which holds the ends pair by pair
    src = (np.cumsum(counts) - counts)[pair][flux] + j
    n = len(inverters)
    rows = np.recarray(n * len(flux), formats="i8,i8,i8,f8,f8", names="p,q,hill_band,lo,hi")
    rows.p, rows.q = np.repeat(np.reshape(fracs, (-1, 2)), n * fcounts, axis=0).T
    # flux f's rows are n runs of fcounts[f], one per band, from n * fstart[f]
    run = n * fstart[flux] + j
    by_pair = np.repeat(np.arange(len(counts)), counts)
    residuals = []
    for k, inv in enumerate(inverters):
        lams = inv(w)
        residuals.append(float(np.max(np.abs(inv.delta(lams) - w), initial=0.0)))
        # the image of [w1, w2] is [min, max] of its ends' images, whichever way
        # Delta runs, also where rounding swaps the images of a point band's ends
        lams = np.sort(lams, axis=1)
        order = np.lexsort((lams[:, 1], lams[:, 0], by_pair))
        dest = run + k * fcounts[flux]
        rows.hill_band[dest] = k + 1
        rows.lo[dest], rows.hi[dest] = lams[order[src]].T
    rows.flags.writeable = False
    return rows, tuple(residuals)


@lru_cache(maxsize=8)
def _hill_side(V: PotentialSpec, n_bands: int):
    """Flux-independent Hill data: bands, one batched inverter per band, the
    Dirichlet eigenvalues up to the last band edge plus one, and per band its
    Dirichlet edges and Dirac point.  The bands and the Dirichlet eigenvalues
    share one window, so one counting pass."""
    bands = tuple(hill_bands_first_n(V, n_bands))
    inverters = tuple(BandInverter(V, b) for b in bands)
    dirs = dirichlet_eigenvalues(V, bands_window(V, n_bands))
    dir_all = tuple(d for d in dirs if d < bands[-1].beta + 1.0)
    dir_edges = tuple(tuple(e for e in (b.alpha, b.beta)
                            if any(abs(d - e) < 1e-6 for d in dir_all)) for b in bands)
    diracs = tuple(float(inv(0.0)[0]) for inv in inverters)
    return bands, inverters, dir_all, dir_edges, diracs


def graph_spectrum(
    V: PotentialSpec, flux: Flux, n_bands: int
) -> list[GraphSpectrum]:
    """Continuous graph bands per Hill band at rational flux, with the band's
    Dirichlet edge eigenvalues and Dirac point attached."""
    if not flux.is_rational:
        raise DomainError("graph_spectrum needs rational flux; use dynamics "
                          "covers for irrational flux")
    bands, inverters, _, dir_edges, diracs = _hill_side(V, n_bands)
    rows, _ = _graph(inverters, [(flux.p, flux.q)])
    per_band = zip(bands, np.split(rows, n_bands), dir_edges, diracs)
    return [GraphSpectrum(k, band, BandList(r.lo, r.hi), dirs, dirac)
            for k, (band, r, dirs, dirac) in enumerate(per_band, start=1)]


def dirac_points(V: PotentialSpec, n_bands: int) -> list[float]:
    """Per Hill band, the unique energy with Delta = 0."""
    *_, diracs = _hill_side(V, n_bands)
    return list(diracs)


def butterfly(
    V: PotentialSpec, q_max: int, n_bands: int, threads: int = 1
) -> ButterflyDataset:
    """Band dataset over all reduced p/q with q <= q_max and the first
    n_bands Hill bands: the pull-back's rows sorted by q, p, band, lo, hi.

    All discriminant inversions per Hill band are batched through one call
    of the band's inverter, a Chebyshev model of Delta built from 32
    energies, so the Hill side costs one small integration per band plus
    cheap eigensolves per flux.  Sigma_{p/q} = Sigma_{(q-p)/q}, so one flux
    of each mirror pair is solved and pulled back, and the columns (p, q, k)
    and (q - p, q, k) are equal bit for bit.  `threads` is accepted for
    compatibility and ignored: the fluxes run in one thread.
    """
    if q_max < 1:
        raise DomainError(f"q_max must be >= 1, got {q_max}")
    _, inverters, dir_lines, _, _ = _hill_side(V, n_bands)
    rows, residuals = _graph(inverters, reduced_fractions(q_max))
    return ButterflyDataset(
        rows=rows,
        dirichlet_lines=dir_lines,
        potential=V.describe(),
        q_max=q_max,
        n_hill_bands=n_bands,
        inverter_model_error=tuple(inv.model_error for inv in inverters),
        inverter_residual=residuals,
    )
