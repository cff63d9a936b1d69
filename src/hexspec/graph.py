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

    hill_band: HillBand
    continuous_bands: BandList
    dirichlet_points: tuple[float, ...]
    dirac_point: float

    @property
    def hill_band_index(self) -> int:
        return self.hill_band.index


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


def _graph(inverter, fracs: list[tuple[int, int]]):
    """Pull Sigma_{p/q} back through Delta into every Hill band for each
    (p, q) of fracs: the inverter takes the Q-band ends of whole mirror pairs
    in blocks of at most one pass, all bands in one call.
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
    n = len(inverter.bands)
    fcounts = counts[pair]
    rows = np.recarray(n * fcounts.sum(), formats="i4,i4,i2,f8,f8", names="p,q,hill_band,lo,hi")
    # p and q one int32 column at a time: 4 bytes per row beside the rows
    for name, col in zip(("p", "q"), np.reshape(np.asarray(fracs, dtype=np.int32), (-1, 2)).T):
        rows[name] = np.repeat(col, n * fcounts)
    # flux f's rows are n runs of fcounts[f], one per band, from n * fstart[f];
    # w holds the ends pair by pair, pair p's in rows pstart[p] to pend[p]
    fstart = np.cumsum(fcounts) - fcounts
    pend = np.cumsum(counts)
    pstart = pend - counts
    by_pair = np.repeat(np.arange(len(counts)), counts)
    # blocks of as many whole pairs (at least one) as fit in an eighth of all
    # the ends, but in no less than a quarter of one pass of the inverter and
    # no more than one: a block's working set, some 15 arrays of its size,
    # then follows the rows of small calls, and large ones use whole passes.
    # by_pair is the sort's first key, so a block's sort is one of all's
    size = np.clip(len(w) // 4, inverter.chunk // 4, inverter.chunk)  # ends
    cuts = [0]
    while cuts[-1] < len(counts):
        fit = np.searchsorted(pend, pstart[cuts[-1]] + size // 2, "right")
        cuts.append(max(cuts[-1] + 1, fit))
    residual = np.zeros(n)
    for p0, p1 in zip(cuts, cuts[1:]):
        e0, e1 = pstart[p0], pend[p1 - 1]
        lams = inverter(w[e0:e1])
        error = np.abs(inverter.delta(lams) - w[e0:e1])
        residual = np.maximum(residual, error.max(axis=(1, 2)))
        # the image of [w1, w2] is [min, max] of its ends' images, whichever way
        # Delta runs, also where rounding swaps the images of a point band's ends
        lams.sort(axis=2)
        # the block's fluxes f: end j of f is row pstart[pair[f]] + j of w
        f = np.flatnonzero((p0 <= pair) & (pair < p1))
        fc = fcounts[f]
        j = np.arange(fc.sum()) - np.repeat(np.cumsum(fc) - fc, fc)
        src = np.repeat(pstart[pair[f]] - e0, fc) + j
        for k, lam in enumerate(lams):
            order = np.lexsort((lam[:, 1], lam[:, 0], by_pair[e0:e1]))
            dest = np.repeat(n * fstart[f] + k * fc, fc) + j
            rows.hill_band[dest] = k + 1
            rows.lo[dest], rows.hi[dest] = lam[order[src]].T
    rows.flags.writeable = False
    return rows, tuple(residual.tolist())


@lru_cache(maxsize=8)
def _hill_side(V: PotentialSpec, n_bands: int):
    """Flux-independent Hill data: bands, one inverter for them all, the
    Dirichlet eigenvalues up to the last band edge plus one, and per band its
    Dirichlet edges and Dirac point.  The bands and the Dirichlet eigenvalues
    share one window, so one counting pass, whose floats the band edges are:
    an edge is a Dirichlet point when it is in the Dirichlet tuple, however
    narrow its band, and at a closed gap both bands keep it."""
    bands = tuple(hill_bands_first_n(V, n_bands))
    inverter = BandInverter(V, bands)
    dirs = dirichlet_eigenvalues(V, bands_window(V, n_bands))
    dir_all = tuple(d for d in dirs if d < bands[-1].beta + 1.0)
    dir_edges = tuple(tuple(e for e in (b.alpha, b.beta) if e in dir_all) for b in bands)
    diracs = tuple(inverter(0.0)[:, 0].tolist())
    return bands, inverter, dir_all, dir_edges, diracs


def graph_spectrum(
    V: PotentialSpec, flux: Flux, n_bands: int
) -> list[GraphSpectrum]:
    """Continuous graph bands per Hill band at rational flux, with the band's
    Dirichlet edge eigenvalues and Dirac point attached."""
    if not flux.is_rational:
        raise DomainError(f"graph_spectrum needs a rational flux, got {flux}: write it "
                          "as p/q, or use dynamics covers for irrational flux")
    bands, inverter, _, dir_edges, diracs = _hill_side(V, n_bands)
    rows, _ = _graph(inverter, [(flux.p, flux.q)])
    per_band = zip(bands, np.split(rows, n_bands), dir_edges, diracs)
    return [GraphSpectrum(band, BandList(r.lo, r.hi), dirs, dirac)
            for band, r, dirs, dirac in per_band]


def dirac_points(V: PotentialSpec, n_bands: int) -> list[float]:
    """Per Hill band, the unique energy with Delta = 0."""
    *_, diracs = _hill_side(V, n_bands)
    return list(diracs)


def butterfly(
    V: PotentialSpec, q_max: int, n_bands: int, threads: int = 1
) -> ButterflyDataset:
    """Band dataset over all reduced p/q with q <= q_max and the first
    n_bands Hill bands: the pull-back's rows sorted by q, p, band, lo, hi.

    The discriminant inversions of all Hill bands are batched through one
    inverter, a Chebyshev model of Delta per band built from 32 energies of
    each, called once per block of mirror pairs, so the Hill side costs one
    small integration plus cheap eigensolves per flux.
    Sigma_{p/q} = Sigma_{(q-p)/q}, so one flux of each mirror pair is solved
    and pulled back, and the columns (p, q, k) and (q - p, q, k) are equal
    bit for bit.  `threads` is accepted for compatibility and ignored: the
    fluxes run in one thread.
    """
    if q_max < 1:
        raise DomainError(f"q_max must be >= 1, got {q_max}")
    _, inverter, dir_lines, _, _ = _hill_side(V, n_bands)
    rows, residuals = _graph(inverter, reduced_fractions(q_max))
    return ButterflyDataset(
        rows=rows,
        dirichlet_lines=dir_lines,
        potential=V.describe(),
        q_max=q_max,
        n_hill_bands=n_bands,
        inverter_model_error=inverter.model_error,
        inverter_residual=residuals,
    )
