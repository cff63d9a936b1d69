#!/usr/bin/env python3
"""Track the nested rational-convergent covers of an irrational-flux spectrum:
per level, the convergent, the cover measure, q times the measure of the
uninflated rational spectrum Sigma_{p/q} (about 4.57 at q >= 1597, so |Sigma|
falls like 1/q), and whether the next cover is contained in the inflated
current one.

Example:
    python scripts/cantor_covers.py --alpha golden --levels 9
    python scripts/cantor_covers.py --levels 18    # to q = 6765, ~10 s
"""

import argparse
import math
import sys

from hexspec.dynamics import holder_probe, irrational_cover
from hexspec.flux import Flux, parse_flux
from hexspec.jacobi import rational_spectrum


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--alpha", default="golden")
    ap.add_argument("--levels", type=int, default=9)
    ap.add_argument("--c2", type=float, default=None,
                    help="Holder constant; default 1.5 x max probed ratio")
    args = ap.parse_args()

    flux = parse_flux(args.alpha)
    conv = flux.convergents[: args.levels + 1]

    c2 = args.c2
    if c2 is None:
        ratios = [
            holder_probe(Flux.rational(*a), Flux.rational(*b))["ratio"]
            for a, b in zip(conv[2:], conv[3:])
        ]
        c2 = 1.5 * max(ratios)
        print(f"# fitted C2 = {c2:.3f} from {len(ratios)} consecutive pairs")

    covers = [irrational_cover(flux.alpha, n, c2) for n in range(len(conv))]
    print(f"{'n':>3} {'p/q':>11} {'|S_n|':>9} {'|S_n|*q':>9} {'q|Sigma|':>9} "
          f"{'bands':>6}  nested")
    for a, b in zip(covers, covers[1:] + [None]):
        nested = "-"
        if b is not None:
            radius = c2 * math.sqrt(abs(a.p_n / a.q_n - b.p_n / b.q_n))
            nested = "yes" if a.intervals.inflated(radius).merged().covers(b.intervals) else "NO"
        m = a.intervals.measure
        sigma = rational_spectrum(a.p_n, a.q_n).measure
        print(f"{a.n:>3} {a.p_n:>5}/{a.q_n:<5} {m:9.4f} {m * a.q_n:9.3f} "
              f"{sigma * a.q_n:9.4f} {len(a.intervals):>6}  {nested}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
