#!/usr/bin/env python3
"""Track the nested rational-convergent covers of an irrational-flux spectrum:
per level, the convergent, the cover measure, q times the measure of the
uninflated rational spectrum Sigma_{p/q} (about 4.57 at q >= 1597, so |Sigma|
falls like 1/q), and whether the next cover is contained in the inflated
current one.

Example:
    python scripts/cantor_covers.py --alpha golden --levels 9
    python scripts/cantor_covers.py --levels 18    # to q = 6765, ~3 s
"""

import argparse
import math
import sys

from hexspec.dynamics import fitted_holder_constant, irrational_cover
from hexspec.errors import DomainError
from hexspec.flux import parse_flux
from hexspec.jacobi import rational_spectrum


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--alpha", default="golden")
    ap.add_argument("--levels", type=int, default=9)
    ap.add_argument("--c2", type=float, default=None,
                    help="Holder constant C2 of the cover radius C2 |alpha - p_n/q_n|^(1/2), "
                         "alpha the flux quantum; default 1.5 x max holder_probe ratio")
    args = ap.parse_args()

    try:
        flux = parse_flux(args.alpha)
    except DomainError as exc:
        ap.error(str(exc))
    if args.levels < 0:
        ap.error(f"--levels must be >= 0, got {args.levels}")
    if args.c2 is not None and not 0.0 <= args.c2 < math.inf:
        ap.error(f"--c2 must be finite and >= 0, got {args.c2}")
    conv = flux.convergents[: args.levels + 1]
    if not conv:
        ap.error(f"--alpha {args.alpha} has no convergents: give an irrational flux")
    if args.c2 is None and len(conv) < 4:
        # C2 is fitted on the pairs of consecutive convergents from index 2 on
        ap.error(f"fitting C2 needs 4 convergents, and --alpha {args.alpha} "
                 f"--levels {args.levels} gives {len(conv)}: raise --levels or give --c2")

    try:  # a q above jacobi.Q_MAX is refused
        c2 = fitted_holder_constant(conv) if args.c2 is None else args.c2
        # rational_spectrum caches each Sigma_{p_n/q_n}, so the fit, the covers
        # and the q|Sigma| column solve it once
        covers = [irrational_cover(flux.alpha, n, c2) for n in range(len(conv))]
    except DomainError as exc:
        ap.error(str(exc))
    if args.c2 is None:
        print(f"# fitted C2 = {c2:.3f} from {len(conv) - 3} consecutive pairs")
    print(f"{'n':>3} {'p/q':>11} {'|S_n|':>9} {'|S_n|*q':>9} {'q|Sigma|':>9} "
          f"{'bands':>6}  nested")
    for c, nxt in zip(covers, covers[1:] + [None]):
        nested = "-"
        if nxt is not None:
            radius = c2 * math.sqrt(abs(c.p_n / c.q_n - nxt.p_n / nxt.q_n))
            nested = "yes" if c.intervals.inflated(radius).covers(nxt.intervals) else "NO"
        m, q = c.intervals.measure, c.q_n
        print(f"{c.n:>3} {c.p_n:>5}/{q:<5} {m:9.4f} {m * q:9.3f} "
              f"{rational_spectrum(c.p_n, q).measure * q:9.4f} {len(c.intervals):>6}  {nested}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
