"""Magnetic flux representations: reduced rationals and real values with
continued-fraction convergents."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import DomainError

GOLDEN_MEAN = (math.sqrt(5.0) - 1.0) / 2.0


def continued_fraction(alpha: float) -> list[tuple[int, int]]:
    """Convergents p_n/q_n of alpha in (0,1), up to and including the first
    within math.ulp(alpha) of alpha: past it the float holds no more digits.

    The expansion is of the float's exact value, so each pair is reduced and
    satisfies |alpha - p_n/q_n| <= 1/(q_n q_{n+1}).  It ends at the latest
    where p_n/q_n equals that value, so it always ends.
    """
    if not (0.0 < alpha < 1.0 and math.isfinite(1.0 / alpha)):
        raise DomainError(f"alpha must lie in (0,1) with 1/alpha finite, got {alpha}")
    out: list[tuple[int, int]] = []
    # recurrences p_n = a_n p_{n-1} + p_{n-2}, same for q
    p_prev, q_prev = 1, 0
    p_cur, q_cur = 0, 1
    x = rest = Fraction(alpha)
    while abs(x - Fraction(p_cur, q_cur)) > math.ulp(alpha):
        a, rest = divmod(1 / rest, 1)
        p_prev, p_cur = p_cur, a * p_cur + p_prev
        q_prev, q_cur = q_cur, a * q_cur + q_prev
        out.append((p_cur, q_cur))
    return out


def check_reduced(p: int, q: int | None) -> None:
    """Raise DomainError unless p/q is a reduced flux: q >= 1, gcd(p, q) = 1."""
    if q is None or q < 1:
        raise DomainError(f"flux {p}/{q} needs a positive denominator")
    if math.gcd(p, q) != 1:
        raise DomainError(f"flux {p}/{q} is not reduced")


@dataclass(frozen=True)
class Flux:
    """Flux quantum alpha = Phi/(2 pi), either an exact reduced rational or a
    real number carrying its convergents."""

    p: int | None = None
    q: int | None = None
    value: float | None = None
    convergents: tuple[tuple[int, int], ...] = field(default=())

    def __post_init__(self):
        if self.p is not None:
            check_reduced(self.p, self.q)
        elif self.value is None:
            raise DomainError("flux needs either p/q or a real value")

    @classmethod
    def rational(cls, p: int, q: int) -> "Flux":
        # lowest terms with q > 0; p/0 stays as given, for check_reduced's error
        g = math.gcd(p, q) * (1 if q > 0 else -1) if q else 1
        return cls(p=p // g, q=q // g)

    @classmethod
    def real(cls, value: float) -> "Flux":
        frac = value - math.floor(value)
        conv = continued_fraction(frac) if 0 < frac < 1 else []
        return cls(value=value, convergents=tuple(conv))

    @property
    def is_rational(self) -> bool:
        return self.p is not None

    @property
    def alpha(self) -> float:
        """Flux quantum as a float."""
        if self.is_rational:
            return self.p / self.q
        return self.value

    def __str__(self) -> str:
        if self.is_rational:
            return f"{self.p}/{self.q}"
        return repr(self.value)


def golden_flux() -> Flux:
    """The golden-mean flux quantum (sqrt(5)-1)/2, all partial quotients 1."""
    return Flux.real(GOLDEN_MEAN)


def reduced_fractions(q_max: int) -> list[tuple[int, int]]:
    """All reduced p/q with 1 <= q <= q_max and 0 <= p < q, ordered by (q, p)."""
    return [(p, q) for q in range(1, q_max + 1) for p in range(q) if math.gcd(p, q) == 1]


def mirror_numerator(p: int, q: int) -> int:
    """min(p mod q, (q - p) mod q), the numerator that flux p/q shares with
    its mirror (q - p)/q: their operators are complex conjugates, so their
    spectra coincide."""
    p %= q
    return min(p, q - p)


def parse_flux(text: str) -> Flux:
    """Parse "golden", "p/q", or a decimal into a Flux; a decimal is taken
    mod 1, as the spectrum is periodic in the flux with period 1."""
    text = text.strip()
    if text == "golden":
        return golden_flux()
    if "/" in text:
        num, _, den = text.partition("/")
        try:
            p, q = int(num), int(den)
        except ValueError as exc:
            raise DomainError(f"bad rational flux {text!r}") from exc
        return Flux.rational(p, q)
    try:
        value = Fraction(text) % 1  # exactly: 2.3 - 2 is 0.2999999999999998
    except ValueError as exc:
        raise DomainError(f"bad flux {text!r}") from exc
    return Flux.real(float(value))
