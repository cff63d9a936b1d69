"""Command-line front end: band structures, butterfly datasets, Lyapunov
scans, irrational-flux covers, loop states, and the invariant suite.

All artifacts are deterministic: floats printed with 15 significant digits,
UTF-8, "\n" line endings.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from collections.abc import Iterable, Iterator

import numpy as np

from . import verify as verify_mod
from .dynamics import CocycleConfig, irrational_cover, lyapunov
from .errors import DomainError, HexspecError
from .flux import parse_flux
from .graph import ButterflyDataset, butterfly, graph_spectrum
from .hill import bands_window, dirichlet_eigenvalues
from .loops import double_hexagon_state, verify_vertex_conditions
from .potentials import parse_potential

# butterfly rows per SVG write: a chunk's coordinate list and its string peak
# at about 250 bytes per row, 4 MB here
_SVG_CHUNK = 16384
# energies per lyapunov scan: ~130 bytes and ~1.0 ms each, 18 minutes at the bound
LAMBDAS_MAX = 2 ** 20


def _fmt(x: float) -> str:
    return f"{x:.15g}"


def _write_text(path: str | None, chunks: Iterable[str]) -> None:
    """Write the chunks to path, or to stdout if path is None or "-"."""
    if path is None or path == "-":
        sys.stdout.writelines(chunks)
        return
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(chunks)


def _cmd_bands(args) -> int:
    V = parse_potential(args.potential)
    flux = parse_flux(args.flux)
    specs = graph_spectrum(V, flux, args.hill_bands)
    all_bands = [list(iv) for s in specs for iv in s.continuous_bands.intervals]
    payload = {
        "potential": V.describe(),
        "p": flux.p,
        "q": flux.q,
        "bands": all_bands,
        "measure": sum(hi - lo for lo, hi in all_bands),
        "hill_bands": [
            {
                "index": s.hill_band_index,
                "alpha": s.hill_band.alpha,
                "beta": s.hill_band.beta,
                "dirac_point": s.dirac_point,
                "dirichlet_points": list(s.dirichlet_points),
                "bands": [list(iv) for iv in s.continuous_bands.intervals],
            }
            for s in specs
        ],
    }
    _write_text(args.output, [json.dumps(payload, indent=2) + "\n"])
    return 0


def _butterfly_csv(ds: ButterflyDataset) -> Iterator[str]:
    """The rows as CSV, one string per column, a run of equal (p, q, hill_band).
    A column's lo,hi text is formatted once per q and bits of its ends, so a
    mirror column, equal bit for bit, reuses it and any other gets its own."""
    yield "p,q,hill_band,lo,hi\n"
    p, q, k, lo, hi = ds.rows.p, ds.rows.q, ds.rows.hill_band, ds.rows.lo, ds.rows.hi
    cut = (p[1:] != p[:-1]) | (q[1:] != q[:-1]) | (k[1:] != k[:-1])
    starts = np.flatnonzero(np.concatenate(([len(p) > 0], cut)))
    texts, q_prev = {}, None  # one q's texts at a time: mirror columns share q
    for a, b, pa, qa, ka in zip(starts.tolist(), [*starts[1:].tolist(), len(p)],
                                p[starts].tolist(), q[starts].tolist(), k[starts].tolist()):
        if qa != q_prev:
            texts, q_prev = {}, qa
        ends = np.stack((lo[a:b], hi[a:b]), axis=1)
        body = texts.get(key := ends.tobytes())
        if body is None:  # %.15g prints the same digits as _fmt; one format per column
            body = texts[key] = "%.15g,%.15g\n" * (b - a) % tuple(ends.ravel().tolist())
        prefix = "%d,%d,%d," % (pa, qa, ka)
        yield prefix + body[:-1].replace("\n", "\n" + prefix) + "\n"


def _butterfly_svg(ds: ButterflyDataset) -> Iterator[str]:
    width, height, ml, mb = 900, 640, 60, 40
    pad = 0.02 * (ds.rows.hi.max() - ds.rows.lo.min())
    y0, y1 = ds.rows.lo.min() - pad, ds.rows.hi.max() + pad

    def X(a):  # flux
        return ml + a * (width - ml - 20)

    def Y(v):  # energy, inverted axis
        return (height - mb) - (v - y0) / (y1 - y0) * (height - mb - 20)

    yield (f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">\n'
           f'<rect width="{width}" height="{height}" fill="white"/>\n'
           f'<text x="{width / 2:.0f}" y="{height - 8}" font-size="14" '
           'text-anchor="middle">flux quantum p/q</text>\n'
           f'<text x="16" y="{height / 2:.0f}" font-size="14" text-anchor="middle" '
           f'transform="rotate(-90 16 {height / 2:.0f})">energy</text>\n')
    for i in range(0, len(ds.rows), _SVG_CHUNK):
        rows = ds.rows[i:i + _SVG_CHUNK]
        x = X(rows.p / rows.q)
        coords = np.column_stack((x, Y(rows.lo), x, Y(rows.hi))).ravel().tolist()
        # %.2f prints what {:.2f} prints; one format per chunk
        yield ('<line x1="%.2f" y1="%.2f" x2="%.2f" y2="%.2f" stroke="black" '
               'stroke-width="0.6"/>\n') * len(rows) % tuple(coords)
    for d in ds.dirichlet_lines:
        if y0 <= d <= y1:
            yield (f'<line x1="{X(0):.2f}" y1="{Y(d):.2f}" x2="{X(1):.2f}" y2="{Y(d):.2f}" '
                   'stroke="red" stroke-width="0.8" stroke-dasharray="6 4"/>\n')
    yield "</svg>\n"


def _cmd_butterfly(args) -> int:
    out = args.output or "butterfly.csv"
    if out == "-":
        raise DomainError("butterfly --output must be a file path: the CSV gets a .json sidecar")
    ds = butterfly(parse_potential(args.potential), args.qmax, args.hill_bands)
    _write_text(out, _butterfly_csv(ds))
    sidecar = {
        "potential": ds.potential,
        "q_max": ds.q_max,
        "n_hill_bands": ds.n_hill_bands,
        "dirichlet_lines": list(ds.dirichlet_lines),
        "inverter_model_error": list(ds.inverter_model_error),
        "inverter_residual": list(ds.inverter_residual),
    }
    _write_text(out + ".json", [json.dumps(sidecar, indent=2) + "\n"])
    if args.svg:
        _write_text(args.svg, _butterfly_svg(ds))
    return 0


def _parse_lambdas(text: str) -> list[float]:
    try:
        a, b, n = text.split(":") if ":" in text else (0, 0, text.count(",") + 1)
        if not 1 <= int(n) <= LAMBDAS_MAX:  # checked before a grid of n is built
            raise DomainError(f"bad lambdas {text!r}: {int(n)} energies, not in [1, {LAMBDAS_MAX}]")
        grid = np.linspace(float(a), float(b), int(n)) if ":" in text else text.split(",")
        lams = [float(x) for x in grid]
    except DomainError:
        raise
    except ValueError as exc:
        raise DomainError(f"bad lambdas {text!r}: a comma list or lo:hi:n") from exc
    if not all(math.isfinite(x) for x in lams):
        raise DomainError(f"bad lambdas {text!r}: every energy must be finite")
    return lams


def _cmd_lyapunov(args) -> int:
    flux = parse_flux(args.flux)
    cfg = CocycleConfig(flux=flux, theta_samples=args.theta_samples,
                        max_n=args.max_n, tolerance=args.tolerance)
    lines = ["lambda,L,converged"]
    for lam in _parse_lambdas(args.lambdas):
        est = lyapunov(lam, cfg)
        lines.append(f"{_fmt(lam)},{_fmt(est.value)},{int(est.converged)}")
    _write_text(args.output, ["\n".join(lines) + "\n"])
    return 0


def _cmd_cover(args) -> int:
    alpha = parse_flux(args.alpha).alpha
    est = irrational_cover(alpha, args.level, args.c2)
    payload = {
        "alpha": alpha,
        "n": est.n,
        "p": est.p_n,
        "q": est.q_n,
        "radius": est.radius,
        "bands": [list(iv) for iv in est.intervals.intervals],
        "measure": est.intervals.measure,
        "bound": est.bound,
    }
    _write_text(args.output, [json.dumps(payload, indent=2) + "\n"])
    return 0


def _cmd_loopstate(args) -> int:
    V = parse_potential(args.potential)
    k = args.lambda_index
    if k < 1:
        raise DomainError(f"lambda-index must be >= 1, got {k}")
    # bands_window(V, k) lies above the k-th Dirichlet eigenvalue
    lam = dirichlet_eigenvalues(V, bands_window(V, k))[k - 1]
    state = double_hexagon_state(args.phi, lam, gamma1=args.gamma, V=V)
    report = verify_vertex_conditions(state, args.phi)
    payload = {
        "phi": args.phi,
        "dirichlet_lambda": lam,
        "gamma1": args.gamma,
        "outer_coeffs": [[a.real, a.imag] for a in state.outer_coeffs],
        "slicing_coeff": [state.slicing_coeff.real, state.slicing_coeff.imag],
        "slicing_beta": state.slicing_beta,
        "max_violation": report["max_violation"],
    }
    _write_text(args.output, [json.dumps(payload, indent=2) + "\n"])
    return 0


def _cmd_verify(args) -> int:
    ok = verify_mod.run_all()
    return 0 if ok else 2


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="hexspec")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bands", help="graph band structure at rational flux")
    p.add_argument("--potential", default="zero")
    p.add_argument("--flux", required=True)
    p.add_argument("--hill-bands", type=int, default=1)
    p.add_argument("--output", default=None)
    p.set_defaults(fn=_cmd_bands)

    p = sub.add_parser("butterfly", help="butterfly dataset over reduced p/q")
    p.add_argument("--potential", default="zero")
    p.add_argument("--qmax", type=int, default=50)
    p.add_argument("--hill-bands", type=int, default=5)
    p.add_argument("--output", default=None)
    p.add_argument("--svg", default=None)
    p.set_defaults(fn=_cmd_butterfly)

    p = sub.add_parser("lyapunov", help="Lyapunov exponent scan")
    p.add_argument("--flux", default="golden")
    p.add_argument("--lambdas", default="-6:10:17",
                   help="comma list or lo:hi:n range")
    p.add_argument("--theta-samples", type=int, default=256, help="quadrature nodes")
    p.add_argument("--max-n", type=int, default=2 ** 14, help="largest denominator q")
    p.add_argument("--tolerance", type=float, default=5e-3, help="convergent Cauchy test")
    p.add_argument("--output", default=None)
    p.set_defaults(fn=_cmd_lyapunov)

    p = sub.add_parser("cover", help="certified cover at irrational flux")
    p.add_argument("--alpha", default="golden")
    p.add_argument("--level", type=int, default=6)
    p.add_argument("--c2", type=float, default=2.0)
    p.add_argument("--output", default=None)
    p.set_defaults(fn=_cmd_cover)

    p = sub.add_parser("loopstate", help="double-hexagon Dirichlet eigenstate")
    p.add_argument("--phi", type=float, required=True)
    p.add_argument("--lambda-index", type=int, default=1)
    p.add_argument("--potential", default="zero")
    p.add_argument("--gamma", type=int, default=0)
    p.add_argument("--output", default=None)
    p.set_defaults(fn=_cmd_loopstate)

    p = sub.add_parser("verify", help="run the cross-module invariant suite")
    p.set_defaults(fn=_cmd_verify)
    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        for name, value in vars(args).items():
            if isinstance(value, float) and not math.isfinite(value):
                raise DomainError(f"--{name.replace('_', '-')} must be finite, got {value}")
        return args.fn(args)
    # OSError: an unwritable --output; MemoryError: a grid too large to allocate
    except (HexspecError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
