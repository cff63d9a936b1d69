"""The four workloads: inputs from a seed, the calls into hexspec, and the
checks of hexspec's outputs against the independent references.

Every call into the program goes through a module attribute
(``graph.graph_spectrum(...)``), so the traced run can wrap it there.  Each
``check`` returns a Report; checks are written as functions of plain data so
the tests can feed them perturbed results.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from hexspec import cli, dynamics, graph, jacobi, qlambda
from hexspec.flux import Flux
from hexspec.potentials import PotentialSpec

import references as ref

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
TOL_LAM = 1e-8      # Hill-side energies: RK4 at 4096 steps agrees to ~1e-10
TOL_W = 1e-7        # Delta values at pulled-back band edges
TOL_SIGMA = 1e-9    # Bloch eigenvalues against Sigma_{p/q}
MAX_ERRORS = 10


@dataclass
class Report:
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    n_errors: int = 0

    def error(self, text: str) -> None:
        self.n_errors += 1
        if len(self.errors) < MAX_ERRORS:
            self.errors.append(text)

    @property
    def correct(self) -> bool:
        return self.n_errors == 0


def reduced_fractions(q_max: int) -> list[tuple[int, int]]:
    """0/1 and every reduced p/q with 2 <= q <= q_max, 1 <= p < q."""
    return [(0, 1)] + [(p, q) for q in range(2, q_max + 1)
                       for p in range(1, q) if math.gcd(p, q) == 1]


def golden_convergents(n: int) -> list[tuple[int, int]]:
    """p_k/q_k = F_k/F_{k+1} for k = 1..n (all partial quotients are 1)."""
    a, b, out = 1, 1, []
    for _ in range(n):
        out.append((a, b))
        a, b = b, a + b
    return out


def mathieu(amplitude: float):
    return lambda t: amplitude * np.cos(2.0 * np.pi * np.asarray(t, dtype=float))


def check_column(report: Report, where: str, bands, lo_edge: float, hi_edge: float,
                 dirac: float, q: int) -> bool:
    """Graph bands of one flux in one Hill band: sorted, inside the Hill band,
    non-overlapping, 2q of them (or 2q + 1 when the point band {0} of the
    known Dirac-edge fault pulls back to the Dirac point), and one contains
    the Dirac point."""
    ok = True
    prev_hi = -math.inf
    for lo, hi in bands:
        if not (lo_edge - TOL_LAM <= lo <= hi <= hi_edge + TOL_LAM):
            report.error(f"{where}: band [{lo}, {hi}] outside Hill band "
                         f"[{lo_edge}, {hi_edge}]")
            ok = False
        if lo < prev_hi - TOL_LAM:
            report.error(f"{where}: bands overlap at {lo}")
            ok = False
        prev_hi = hi
    point_bands = [b for b in bands
                   if b[1] - b[0] <= TOL_LAM and abs(b[0] - dirac) <= TOL_LAM]
    if not (len(bands) == 2 * q or (len(bands) == 2 * q + 1 and point_bands)):
        report.error(f"{where}: {len(bands)} bands, expected {2 * q}")
        ok = False
    if not ref.contains(bands, dirac, TOL_LAM):
        report.error(f"{where}: Dirac point {dirac} not in any band")
        ok = False
    return ok


def check_symmetric(report: Report, where: str, ws) -> None:
    """Negation symmetry of a sorted set of Delta values."""
    ws = np.sort(np.asarray(ws, dtype=float))
    dev = float(np.max(np.abs(ws + ws[::-1]))) if ws.size else 0.0
    if dev > TOL_W:
        report.error(f"{where}: Delta-image asymmetric by {dev:.3g}")


def to_sigma_axis(w_bands) -> list[tuple[float, float]]:
    """Map Delta-image bands w to x = 9 w^2 - 3, the Sigma axis."""
    out = []
    for a, b in w_bands:
        ends = (9.0 * a * a - 3.0, 9.0 * b * b - 3.0)
        lo = -3.0 if a <= 0.0 <= b else min(ends)
        out.append((lo, max(ends)))
    return out


def check_bloch(report: Report, where: str, sigma, p: int, q: int, angles,
                tol: float) -> None:
    """Eigenvalues of the reference Bloch matrix at (theta, nu) lie in sigma."""
    for theta, nu in angles:
        for e in ref.bloch_eigenvalues(p, q, theta, nu):
            if not ref.contains(sigma, float(e), tol):
                report.error(f"{where}: Bloch eigenvalue {e:.15g} at theta={theta:.6f}, "
                             f"nu={nu:.6f} not in Sigma")


class Workload:
    name: str

    def output_bytes(self, inp: dict) -> int:
        """Bytes of files the run wrote; only the CLI workload writes any."""
        return 0


# ----------------------------------------------------------------- butterfly


class Butterfly(Workload):
    """V = 0, every reduced p/q with q <= 50, 5 Hill bands, through the CLI
    with the CSV written.  The seed picks only the Sigma check sample."""

    name = "butterfly"
    q_max, n_bands = 50, 5

    def inputs(self, seed: int, out_dir: Path) -> dict:
        rng = np.random.default_rng(seed)
        fracs = reduced_fractions(self.q_max)
        picks = rng.choice(len(fracs), size=8, replace=False)
        sample = [(fracs[i], [tuple(rng.random(2)) for _ in range(3)]) for i in picks]
        path = out_dir / "butterfly.csv"
        argv = ["butterfly", "--potential", "zero", "--qmax", str(self.q_max),
                "--hill-bands", str(self.n_bands), "--output", str(path)]
        return {"argv": argv, "csv": path, "fracs": fracs, "sample": sample,
                "V": PotentialSpec.zero()}

    def solve(self, inp: dict):
        return cli.main(inp["argv"])

    def output_bytes(self, inp: dict) -> int:
        path = inp["csv"]
        return sum(os.path.getsize(p) for p in (path, Path(str(path) + ".json"))
                   if os.path.exists(p))

    def read(self, inp: dict) -> tuple[dict, list[float]]:
        cols: dict = {}
        with open(inp["csv"], newline="") as fh:
            for row in csv.DictReader(fh):
                key = (int(row["p"]), int(row["q"]), int(row["hill_band"]))
                cols.setdefault(key, []).append((float(row["lo"]), float(row["hi"])))
        with open(str(inp["csv"]) + ".json") as fh:
            lines = json.load(fh)["dirichlet_lines"]
        return cols, lines

    def check(self, inp: dict, rc) -> Report:
        report = Report()
        if rc != 0:
            report.error(f"hexspec butterfly exited with {rc}")
            return report
        cols, lines = self.read(inp)
        return self.check_data(inp, cols, lines)

    def check_data(self, inp: dict, cols: dict, lines: list[float]) -> Report:
        report = Report()
        expected = [ref.free_dirichlet(k) for k in range(1, self.n_bands + 1)]
        if len(lines) != len(expected) or any(
                abs(a - b) > TOL_LAM for a, b in zip(lines, expected)):
            report.error(f"Dirichlet lines {lines} != k^2 pi^2")
        keys = {(p, q, k) for p, q in inp["fracs"] for k in range(1, self.n_bands + 1)}
        if set(cols) != keys:
            report.error(f"{len(set(cols) ^ keys)} (p, q, band) columns missing or extra")
        for p, q, k in sorted(keys & set(cols)):
            report.attempted += 1
            bands = sorted(cols[(p, q, k)])
            lo_edge, hi_edge = ref.free_band(k)
            where = f"p/q={p}/{q} band {k}"
            check_column(report, where, bands, lo_edge, hi_edge, ref.free_dirac(k), q)
            w_bands = [tuple(sorted((ref.free_delta(lo), ref.free_delta(hi))))
                       for lo, hi in bands]
            check_symmetric(report, where, [w for b in w_bands for w in b])
            m = ref.measure(w_bands)
            if m > ref.q_measure_bound(q) + TOL_W:
                report.error(f"{where}: |Delta-image| {m:.6g} exceeds the sigma(Q) "
                             f"bound {ref.q_measure_bound(q):.6g}")
        for (p, q), angles in inp["sample"]:
            for k in range(1, self.n_bands + 1):
                w_bands = [tuple(sorted((ref.free_delta(lo), ref.free_delta(hi))))
                           for lo, hi in cols.get((p, q, k), [])]
                check_bloch(report, f"p/q={p}/{q} band {k}", to_sigma_axis(w_bands),
                            p, q, angles, tol=1e-7)
        return report


# --------------------------------------------------------------------- bands


class Bands(Workload):
    """mathieu:20, 3 Hill bands, graph_spectrum at one seeded p for every
    q = 11..30 (the q set is fixed so every seed does the same work)."""

    name = "bands"
    amplitude, n_bands = 20.0, 3
    qs = range(11, 31)

    def inputs(self, seed: int, out_dir: Path) -> dict:
        rng = np.random.default_rng(seed)
        fluxes, sample = [], []
        for q in self.qs:
            ps = [p for p in range(1, q) if math.gcd(p, q) == 1]
            fluxes.append(Flux.rational(int(rng.choice(ps)), q))
            # two mirror pairs of pulled-back band edges in one Hill band
            sample.append((int(rng.integers(1, self.n_bands + 1)),
                           [int(j) for j in rng.integers(0, 2 * q, size=2)]))
        return {"V": PotentialSpec.mathieu(self.amplitude), "fluxes": fluxes,
                "sample": sample}

    def solve(self, inp: dict):
        return [graph.graph_spectrum(inp["V"], f, self.n_bands) for f in inp["fluxes"]]

    def check(self, inp: dict, specs) -> Report:
        V = mathieu(self.amplitude)
        hf = ref.HillFourier(V)
        hill = {"bands": hf.bands(self.n_bands), "dirac": hf.dirac_points(self.n_bands),
                "dirichlet": ref.dirichlet_eigenvalues(V, 2 * self.n_bands)}
        data = [[(s.hill_band_index, s.hill_band.alpha, s.hill_band.beta, s.dirac_point,
                  list(s.dirichlet_points), list(s.continuous_bands.intervals))
                 for s in per_flux] for per_flux in specs]
        return self.check_data(inp, data, hill, hf.delta)

    def check_data(self, inp: dict, data, hill: dict, delta) -> Report:
        report = Report()
        if len(data) != len(inp["fluxes"]):
            report.error(f"{len(data)} results for {len(inp['fluxes'])} fluxes")
        for flux, per_flux, (k_sample, js) in zip(inp["fluxes"], data, inp["sample"]):
            if [row[0] for row in per_flux] != list(range(1, self.n_bands + 1)):
                report.error(f"p/q={flux}: Hill band indices {[r[0] for r in per_flux]}")
                continue
            for k, alpha, beta, dirac, dirs, bands in per_flux:
                report.attempted += 1
                where = f"p/q={flux} band {k}"
                (ra, rb), rd = hill["bands"][k - 1], hill["dirac"][k - 1]
                if abs(alpha - ra) > TOL_LAM or abs(beta - rb) > TOL_LAM:
                    report.error(f"{where}: edges [{alpha}, {beta}] vs Hill's "
                                 f"method [{ra}, {rb}]")
                if abs(dirac - rd) > TOL_LAM:
                    report.error(f"{where}: Dirac point {dirac} vs Hill's method {rd}")
                # for even V every Dirichlet eigenvalue is a band edge
                want = [e for e in (ra, rb)
                        if min(abs(e - d) for d in hill["dirichlet"]) < 1e-6]
                if len(dirs) != len(want) or any(
                        abs(a - b) > TOL_LAM for a, b in zip(sorted(dirs), want)):
                    report.error(f"{where}: Dirichlet points {dirs} vs {want}")
                bands = sorted(bands)
                if not check_column(report, where, bands, ra, rb, rd, flux.q):
                    continue
                if k != k_sample:
                    continue
                ends = sorted(e for b in bands for e in b)
                for j in js:
                    j = min(j, len(ends) // 2 - 1)
                    wa = delta(ends[j], k)
                    wb = delta(ends[-1 - j], k)
                    if abs(wa + wb) > TOL_W or (abs(wa) >= 1.0 and flux.q > 1):
                        report.error(f"{where}: Delta at mirror edges {ends[j]}, "
                                     f"{ends[-1 - j]} is {wa}, {wb}")
        return report


# ------------------------------------------------------------------- spectra


class Spectra(Workload):
    """Sigma_{p/q} and sigma(Q) for every reduced p/q with q <= 100, plus the
    golden-mean covers at convergents q_n <= 233 and their nesting.  The seed
    picks only the Bloch-matrix sample."""

    name = "spectra"
    q_max, levels, c2 = 100, 12, 2.0

    def inputs(self, seed: int, out_dir: Path) -> dict:
        rng = np.random.default_rng(seed)
        fracs = reduced_fractions(self.q_max)
        picks = rng.choice(len(fracs), size=150, replace=False)
        sample = [(fracs[i], [tuple(rng.random(2)) for _ in range(2)]) for i in picks]
        return {"fracs": fracs, "sample": sample, "alpha": GOLDEN}

    def solve(self, inp: dict):
        sigmas = [jacobi.rational_spectrum(p, q) for p, q in inp["fracs"]]
        qspecs = [qlambda.q_spectrum(s) for s in sigmas]
        covers = [dynamics.irrational_cover(inp["alpha"], n, self.c2)
                  for n in range(self.levels)]
        nested = [a.intervals.inflated(
                      self.c2 * math.sqrt(abs(a.p_n / a.q_n - b.p_n / b.q_n))
                  ).covers(b.intervals) for a, b in zip(covers, covers[1:])]
        return sigmas, qspecs, covers, nested

    def check(self, inp: dict, out) -> Report:
        sigmas, qspecs, covers, nested = out
        return self.check_data(
            inp, [list(s.intervals) for s in sigmas],
            [list(s.bands.intervals) for s in qspecs],
            [(c.p_n, c.q_n, list(c.intervals.intervals)) for c in covers], nested)

    @staticmethod
    def dirac_edge_fault(qb, q: int) -> bool:
        """sigma(Q) of the known fault: 2q + 1 bands, the extra one the point
        {0} in a ~1e-8 gap between the two middle bands."""
        return (len(qb) == 2 * q + 1 and qb[q] == (0.0, 0.0)
                and -1e-6 < qb[q - 1][1] < 0.0 < qb[q + 1][0] < 1e-6)

    def check_data(self, inp: dict, sigmas, qbands, covers, nested) -> Report:
        report = Report()
        for (p, q), sig, qb in zip(inp["fracs"], sigmas, qbands):
            report.attempted += 1
            where = f"p/q={p}/{q}"
            if not (len(qb) == 2 * q and qb[q - 1][1] == 0.0 == qb[q][0]):
                if self.dirac_edge_fault(qb, q):
                    report.failed += 1
                else:
                    report.error(f"{where}: sigma(Q) has {len(qb)} bands, not 2q "
                                 "touching at 0")
                continue
            m = ref.measure(sig)
            if not m < ref.sigma_measure_bound(q):
                report.error(f"{where}: |Sigma| = {m} >= 16 pi/(3q)")
            if abs(min(lo for lo, _ in sig) + 3.0) > 1e-12:
                report.error(f"{where}: min Sigma = {min(lo for lo, _ in sig)!r}, not -3")
            if any(abs(a + d) > 1e-12 or abs(b + c) > 1e-12
                   for (a, b), (c, d) in zip(qb, reversed(qb))):
                report.error(f"{where}: sigma(Q) not symmetric")
            if q > 1 and not -1.0 < qb[0][0] <= qb[-1][1] < 1.0:
                report.error(f"{where}: sigma(Q) not inside (-1, 1)")
            # compare on the Sigma axis x = 9 y^2 - 3, where the square root's
            # blow-up of rounding at x = -3 is undone
            if any(abs(9.0 * y * y - 3.0 - x) > 1e-11
                   for (lo, hi), (a, b) in zip(qb[q:], sig) for y, x in ((lo, a), (hi, b))):
                report.error(f"{where}: sigma(Q) is not +-sqrt(Sigma/9 + 1/3)")
        sigma_of = dict(zip(inp["fracs"], sigmas))
        for (p, q), angles in inp["sample"]:
            check_bloch(report, f"p/q={p}/{q}", sigma_of.get((p, q), []), p, q,
                        angles, TOL_SIGMA)
        conv = golden_convergents(len(covers))
        prev_m = math.inf
        for n, ((p, q), (cp, cq, iv)) in enumerate(zip(conv, covers)):
            report.attempted += 1
            if (cp, cq) != (p, q):
                report.error(f"cover {n}: convergent {cp}/{cq}, expected {p}/{q}")
            radius = self.c2 * math.sqrt(abs(inp["alpha"] - p / q))
            m = ref.measure(iv)
            if m > ref.sigma_measure_bound(q) + 2 * q * radius + 1e-12:
                report.error(f"cover {n}: measure {m} above |Sigma| bound + 2 q r")
            if not m < prev_m:
                report.error(f"cover {n}: measure {m} does not shrink")
            prev_m = m
        own = [ref.covers(ref.inflate(a[2], self.c2 * math.sqrt(abs(a[0] / a[1] - b[0] / b[1]))),
                          b[2]) for a, b in zip(covers, covers[1:])]
        if not all(own) or list(nested) != own:
            report.error(f"cover nesting: program {list(nested)}, reference {own}")
        return report


# ------------------------------------------------------------------ lyapunov


class Lyapunov(Workload):
    """Golden flux: L at one seeded energy in each of 10 equal strata of
    [-6.5, 6.5] plus the Dirac energy -3, and the acceleration at lambda = 0
    for eps in {+-0.5, +-1, +-2}."""

    name = "lyapunov"
    strata, eps = 10, (0.5, -0.5, 1.0, -1.0, 2.0, -2.0)

    def inputs(self, seed: int, out_dir: Path) -> dict:
        rng = np.random.default_rng(seed)
        edges = np.linspace(-6.5, 6.5, self.strata + 1)
        energies = [float(x) for x in rng.uniform(edges[:-1], edges[1:])] + [-3.0]
        flux = Flux.real(GOLDEN)
        picks = [int(i) for i in rng.choice(self.strata, size=2, replace=False)]
        return {"flux": flux, "config": dynamics.CocycleConfig(flux=flux),
                "energies": energies, "ref_sample": picks + [self.strata],
                "ref_offsets": [float(x) for x in rng.random(3)]}

    def solve(self, inp: dict):
        ests = [dynamics.lyapunov(lam, inp["config"]) for lam in inp["energies"]]
        accs = [dynamics.acceleration(0.0, inp["flux"], e) for e in self.eps]
        return ests, accs

    def check(self, inp: dict, out) -> Report:
        ests, accs = out
        cfg = inp["config"]
        refs = {i: ref.lyapunov_product(inp["energies"][i], GOLDEN, ests[i].n_used,
                                        cfg.theta_samples * 3 // 4 + 1, off)
                for i, off in zip(inp["ref_sample"], inp["ref_offsets"])}
        return self.check_data(inp, [e.value for e in ests], accs, refs)

    def check_data(self, inp: dict, values, accs, refs) -> Report:
        report = Report()
        tol = inp["config"].tolerance
        for lam, L in zip(inp["energies"], values):
            report.attempted += 1
            if L < -tol:
                report.error(f"L({lam}) = {L} < 0")
            if lam == -3.0 and abs(L) >= 0.02:
                report.error(f"|L(-3)| = {abs(L)} at the Dirac energy, not < 0.02")
        for i, r in refs.items():
            if abs(values[i] - r) > 2.0 * tol:
                report.error(f"L({inp['energies'][i]}) = {values[i]}, reference "
                             f"product gives {r}")
        for eps, a in zip(self.eps, accs):
            report.attempted += 1
            if abs(a - round(a)) > 0.05:
                report.error(f"acceleration {a} at eps={eps} not near an integer")
            if abs(eps) == 2.0 and abs(abs(a) - 1.0) > 0.02:
                report.error(f"acceleration {a} at eps={eps} not within 0.02 of +-1")
        return report


WORKLOADS = {w.name: w for w in (Butterfly(), Bands(), Spectra(), Lyapunov())}
