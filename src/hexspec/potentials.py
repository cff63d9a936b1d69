"""Edge potentials on [0, 1].

The model assumes the potential is even about t = 1/2; this symmetry is
what makes the cosine- and sine-type fundamental solutions satisfy
c(1) = s'(1).  Every kind is even by construction: a cosine well about 1/2,
and tabulated samples symmetrised before the spline is built (a not-a-knot
spline of symmetric samples on symmetric knots is even).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import DomainError

_SYMMETRIZE_WARN = 1e-8


@dataclass(frozen=True)
class PotentialSpec:
    """Even potential V on [0,1]: zero, a cosine well, or tabulated samples."""

    kind: str  # "zero" | "mathieu" | "tabulated"
    amplitude: float = 0.0
    samples: tuple[float, ...] = field(default_factory=tuple)

    def __post_init__(self):
        if self.kind not in ("zero", "mathieu", "tabulated"):
            raise DomainError(f"unknown potential kind {self.kind!r}")
        if self.kind == "mathieu" and not np.isfinite(self.amplitude):
            raise DomainError(f"mathieu amplitude must be finite, got {self.amplitude}")
        if self.kind == "tabulated":
            arr = np.asarray(self.samples, dtype=float)
            if arr.size < 2:
                raise DomainError("tabulated potential needs >= 2 samples")
            if not np.all(np.isfinite(arr)):
                raise DomainError("tabulated potential has non-finite values")
            dev = np.max(np.abs(arr - arr[::-1]))
            if dev > _SYMMETRIZE_WARN:
                warnings.warn(
                    f"tabulated potential deviates from evenness by {dev:.3g}; "
                    "symmetrizing",
                    stacklevel=2,
                )
            sym = 0.5 * (arr + arr[::-1])
            object.__setattr__(self, "samples", tuple(sym))

    @staticmethod
    def zero() -> "PotentialSpec":
        return PotentialSpec("zero")

    @staticmethod
    def mathieu(amplitude: float) -> "PotentialSpec":
        return PotentialSpec("mathieu", amplitude=float(amplitude))

    @staticmethod
    def tabulated(samples) -> "PotentialSpec":
        return PotentialSpec("tabulated", samples=tuple(float(s) for s in samples))

    @cached_property
    def _spline(self):
        """The tabulated V, built on first use and kept; not a field, so
        equality and hashing still see the samples only.  scipy is imported
        here, as only tabulated potentials need it."""
        from scipy.interpolate import CubicSpline

        arr = np.asarray(self.samples)
        t = np.linspace(0.0, 1.0, arr.size)
        return CubicSpline(t, arr)

    def __call__(self, t):
        """Evaluate V at t (scalar or array) in [0, 1]."""
        t = np.asarray(t, dtype=float)
        if self.kind == "zero":
            return np.zeros_like(t)
        if self.kind == "mathieu":
            return self.amplitude * np.cos(2.0 * np.pi * t)
        return self._spline(t)

    @property
    def min_value(self) -> float:
        return float(np.min(self(np.linspace(0.0, 1.0, 1025))))

    @property
    def max_value(self) -> float:
        return float(np.max(self(np.linspace(0.0, 1.0, 1025))))

    def describe(self) -> str:
        if self.kind == "zero":
            return "zero"
        if self.kind == "mathieu":
            return f"mathieu:{self.amplitude:g}"
        return f"tabulated[{len(self.samples)}]"


def parse_potential(spec: str) -> PotentialSpec:
    """Parse a CLI potential string: "zero", "mathieu:<amp>", "file:<path>"."""
    spec = spec.strip()
    if spec == "zero":
        return PotentialSpec.zero()
    if spec.startswith("mathieu:"):
        try:
            amp = float(spec.split(":", 1)[1])
        except ValueError as exc:
            raise DomainError(f"bad mathieu amplitude in {spec!r}") from exc
        return PotentialSpec.mathieu(amp)
    if spec.startswith("file:"):
        path = Path(spec.split(":", 1)[1])
        if not path.is_file():
            raise DomainError(f"potential file not found: {path}")
        try:
            values = [float(line) for line in path.read_text().split()]
        except ValueError as exc:
            raise DomainError(f"non-numeric sample in potential file {path}") from exc
        return PotentialSpec.tabulated(values)
    raise DomainError(f"cannot parse potential {spec!r}")
