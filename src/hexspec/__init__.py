"""Spectral analysis of the magnetic Schrödinger operator on the hexagonal
quantum graph: Hill bands, the reduced quasi-periodic Jacobi operator at
rational flux, Hofstadter-butterfly datasets, Lyapunov diagnostics, and
compactly supported loop eigenstates."""

from .errors import ConsistencyError, DomainError, HexspecError, IntegrationError
from .flux import Flux, continued_fraction, golden_flux, parse_flux, reduced_fractions
from .graph import ButterflyDataset, GraphSpectrum, butterfly, dirac_points, graph_spectrum
from .hill import (
    HillBand,
    MonodromySolution,
    dirichlet_eigenvalues,
    discriminant_batch,
    hill_bands,
    integrate_monodromy,
    invert_discriminant_on_band,
)
from .intervals import BandList
from .jacobi import build_Mq, chambers_Gq, rational_spectrum, theta_spectrum
from .dynamics import (
    CocycleConfig,
    CoverEstimate,
    acceleration,
    complexified_le,
    holder_probe,
    irrational_cover,
    lyapunov,
)
from .loops import (
    DoubleHexState,
    LoopSpec,
    build_TPhi,
    double_hexagon_loop,
    double_hexagon_state,
    hexagon_loop,
    rank_TPhi,
    verify_vertex_conditions,
)
from .potentials import PotentialSpec, parse_potential
from .qlambda import QSpectrum, q_norm_bound, q_spectrum

__version__ = "0.1.0"
