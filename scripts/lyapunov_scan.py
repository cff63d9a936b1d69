#!/usr/bin/env python3
"""Scan the Lyapunov exponent over energy at a given flux and print a small
table, marking which energies the current rational-convergent cover puts on
or off the spectrum.

Example:
    python scripts/lyapunov_scan.py --flux golden --lambdas -6:10:33
"""

import argparse
import sys

from hexspec.cli import _parse_lambdas
from hexspec.dynamics import CocycleConfig, irrational_cover, lyapunov
from hexspec.errors import DomainError
from hexspec.flux import parse_flux


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--flux", default="golden")
    ap.add_argument("--lambdas", default="-6:10:33", help="comma list or a:b:n grid")
    ap.add_argument("--theta-samples", type=int, default=256,
                    help="midpoint quadrature nodes in x = q theta")
    ap.add_argument("--max-n", type=int, default=2 ** 14,
                    help="largest convergent denominator q")
    ap.add_argument("--cover-level", type=int, default=8)
    ap.add_argument("--c2", type=float, default=2.0,
                    help="Holder constant C2 of the cover radius C2 |alpha - p/q|^(1/2), "
                         "alpha the flux quantum")
    args = ap.parse_args()

    try:
        flux = parse_flux(args.flux)
        lams = _parse_lambdas(args.lambdas)
        cfg = CocycleConfig(flux=flux, theta_samples=args.theta_samples,
                            max_n=args.max_n)
        cover = irrational_cover(flux.alpha, args.cover_level, args.c2)
        ests = [lyapunov(lam, cfg) for lam in lams]
    except DomainError as exc:
        ap.error(str(exc))

    print(f"# flux = {flux}, cover level {cover.n} (q = {cover.q_n})")
    print(f"{'lambda':>10}  {'L':>10}  {'conv':>5}  in-cover")
    for lam, est in zip(lams, ests):
        inside = cover.intervals.contains(lam, tol=1e-12)
        print(f"{lam:10.4f}  {est.value:10.6f}  {str(est.converged):>5}  "
              f"{'yes' if inside else 'no'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
