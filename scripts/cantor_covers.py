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

from hexspec.dynamics import holder_radius, holder_ratio
from hexspec.errors import DomainError
from hexspec.flux import Flux, parse_flux
from hexspec.jacobi import rational_spectrum


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--alpha", default="golden")
    ap.add_argument("--levels", type=int, default=9)
    ap.add_argument("--c2", type=float, default=None,
                    help="Holder constant; default 1.5 x max probed ratio")
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
    # each Sigma_{p_n/q_n} is solved once; holder_ratio and holder_radius are
    # the formulas of holder_probe and irrational_cover, applied to these
    sigmas = [rational_spectrum(p, q) for p, q in conv]

    c2 = args.c2
    if c2 is None:
        ratios = [
            holder_ratio(s1, s2, Flux.rational(*a).phi, Flux.rational(*b).phi)[1]
            for a, b, s1, s2 in zip(conv[2:], conv[3:], sigmas[2:], sigmas[3:])
        ]
        c2 = 1.5 * max(ratios)
        print(f"# fitted C2 = {c2:.3f} from {len(ratios)} consecutive pairs")

    covers = [s.inflated(holder_radius(c2, flux.alpha, p / q))
              for (p, q), s in zip(conv, sigmas)]
    print(f"{'n':>3} {'p/q':>11} {'|S_n|':>9} {'|S_n|*q':>9} {'q|Sigma|':>9} "
          f"{'bands':>6}  nested")
    for n, ((p, q), sigma, cover) in enumerate(zip(conv, sigmas, covers)):
        nested = "-"
        if n + 1 < len(conv):
            p1, q1 = conv[n + 1]
            radius = holder_radius(c2, p / q, p1 / q1)
            nested = "yes" if cover.inflated(radius).covers(covers[n + 1]) else "NO"
        m = cover.measure
        print(f"{n:>3} {p:>5}/{q:<5} {m:9.4f} {m * q:9.3f} "
              f"{sigma.measure * q:9.4f} {len(cover):>6}  {nested}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
