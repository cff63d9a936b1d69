import json
import math
from itertools import chain

import numpy as np
import pytest

from hexspec.cli import _butterfly_csv, _butterfly_svg, main
from hexspec.graph import ButterflyDataset, butterfly
from hexspec.hill import dirichlet_eigenvalues
from hexspec.potentials import parse_potential

V0 = parse_potential("zero")


def test_bands_half_flux_json(tmp_path):
    out = tmp_path / "bands.json"
    rc = main(["bands", "--potential", "zero", "--flux", "1/2",
               "--hill-bands", "1", "--output", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["p"] == 1 and payload["q"] == 2
    assert len(payload["bands"]) == 4
    assert payload["hill_bands"][0]["dirac_point"] == pytest.approx(
        (math.pi / 2) ** 2, abs=1e-8
    )


def test_bands_bad_flux_exit_code():
    rc = main(["bands", "--flux", "1/0"])
    assert rc == 1


def test_bands_non_numeric_potential_file(tmp_path, capsys):
    bad = tmp_path / "v.txt"
    bad.write_text("0.0\nnp.float64(1.0)\n0.0\n")
    assert main(["bands", "--flux", "1/2", "--potential", f"file:{bad}"]) == 1
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("argv", [
    ["bands", "--flux", "1/3", "--potential", "mathieu:20", "--hill-bands", "0"],
    ["bands", "--flux", "1/3", "--potential", "mathieu:20", "--hill-bands", "-2"],
    ["butterfly", "--hill-bands", "0"],
    ["butterfly", "--qmax", "0"],
    ["lyapunov", "--lambdas=1:2:x"],
    ["lyapunov", "--lambdas=abc"],
    ["lyapunov", "--lambdas=-6:10:0"],
    ["cover", "--level", "-1"],
    ["cover", "--c2", "-1"],
    ["cover", "--c2", "inf"],
    ["loopstate", "--phi", "nan"],
    ["loopstate", "--phi", "1.0", "--lambda-index", "0"],
    ["bands", "--flux", "0/0"],
    ["lyapunov", "--flux", "0/0"],
    ["cover", "--alpha", "0/0"],
    ["lyapunov", "--lambdas=nan,inf"],
    ["lyapunov", "--tolerance", "nan"],
    # band 1 of these wells is narrower than the cell its edges are bisected to
    ["bands", "--flux", "1/3", "--potential", "mathieu:1800"],
    ["bands", "--flux", "1/3", "--potential", "mathieu:-1800"],
    ["butterfly", "--qmax", "3", "--hill-bands", "1", "--potential", "mathieu:1800"],
    ["bands", "--flux", "1/3", "--potential", "mathieu:nan"],
    ["bands", "--flux", "1/3", "--potential", "mathieu:inf"],
    ["bands", "--flux", "golden"],
    # the cocycle product overflows above |lambda| = 1.16e77
    ["lyapunov", "--lambdas=1.2e77"],
    ["lyapunov", "--tolerance", "0"],
])
def test_bad_inputs_exit_with_an_error_line(argv, tmp_path, capsys):
    if argv[0] == "butterfly":
        argv = argv + ["--output", str(tmp_path / "bf.csv")]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error:")
    assert not list(tmp_path.iterdir())


def test_deep_mathieu_well_is_past_the_counting_range(capsys):
    assert main(["bands", "--flux", "1/3", "--potential", "mathieu:1e8"]) == 1
    assert "above the range where 4096 steps count eigenvalues" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["bands", "--flux", "1/3"],
                                  ["butterfly", "--qmax", "2", "--hill-bands", "1"]])
@pytest.mark.parametrize("where", ["a directory", "a missing directory"])
def test_unwritable_output_exits_with_an_error_line(argv, where, tmp_path, capsys):
    out = tmp_path if where == "a directory" else tmp_path / "missing" / "out.json"
    assert main(argv + ["--output", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_verify_passes(capsys):
    assert main(["verify"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 15 and all(ln.startswith("[PASS]") for ln in lines)


def test_butterfly_artifacts_and_determinism(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert main(["butterfly", "--qmax", "3", "--hill-bands", "1",
                 "--output", str(out1)]) == 0
    assert main(["butterfly", "--qmax", "3", "--hill-bands", "1",
                 "--output", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    text = out1.read_text()
    assert text.splitlines()[0] == "p,q,hill_band,lo,hi"
    assert "\r" not in text
    sidecar = json.loads((tmp_path / "a.csv.json").read_text())
    assert sidecar["dirichlet_lines"][0] == pytest.approx(math.pi ** 2, abs=1e-8)
    for key in ("inverter_model_error", "inverter_residual"):
        assert len(sidecar[key]) == 1 and 0.0 <= sidecar[key][0] < 1e-10


def _one_string_csv(rows):
    # oracle: the whole file as one %-formatted string
    body = "%d,%d,%d,%.15g,%.15g\n" * len(rows) % tuple(chain.from_iterable(rows))
    return "p,q,hill_band,lo,hi\n" + body


def _per_row_svg(rows, dirichlet_lines):
    # oracle: the SVG with its coordinates computed row by row
    width, height, ml, mb = 900, 640, 60, 40
    ys = [v for r in rows for v in (r[3], r[4])]
    y0, y1 = min(ys), max(ys)
    pad = 0.02 * (y1 - y0)
    y0, y1 = y0 - pad, y1 + pad

    def X(a):
        return ml + a * (width - ml - 20)

    def Y(v):
        return (height - mb) - (v - y0) / (y1 - y0) * (height - mb - 20)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.0f}" y="{height - 8}" font-size="14" '
        'text-anchor="middle">flux quantum p/q</text>',
        f'<text x="16" y="{height / 2:.0f}" font-size="14" text-anchor="middle" '
        f'transform="rotate(-90 16 {height / 2:.0f})">energy</text>',
    ]
    for p, q, _k, lo, hi in rows:
        a = p / q
        parts.append(
            f'<line x1="{X(a):.2f}" y1="{Y(lo):.2f}" x2="{X(a):.2f}" '
            f'y2="{Y(hi):.2f}" stroke="black" stroke-width="0.6"/>'
        )
    for d in dirichlet_lines:
        if y0 <= d <= y1:
            parts.append(
                f'<line x1="{X(0):.2f}" y1="{Y(d):.2f}" x2="{X(1):.2f}" '
                f'y2="{Y(d):.2f}" stroke="red" stroke-width="0.8" '
                'stroke-dasharray="6 4"/>'
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def test_butterfly_csv_matches_row_format():
    rows = ((0, 1, 1, -0.0, 0.0), (1, 3, 2, 1e-300, 2.0 / 3.0),
            (12, 49, 5, 246.74011002812327, 1.5e16), (1, 2, 1, -1e-5, 123456789.0))
    dirichlet = (math.pi ** 2, -1.0)
    recs = np.rec.fromrecords(rows, names="p,q,hill_band,lo,hi")
    ds = ButterflyDataset(recs, dirichlet, "zero", 49, 5, (), ())
    lines = ["p,q,hill_band,lo,hi"] + [f"{p},{q},{k},{lo:.15g},{hi:.15g}"
                                       for p, q, k, lo, hi in rows]
    assert "".join(_butterfly_csv(ds)) == "\n".join(lines) + "\n" == _one_string_csv(rows)
    assert "".join(_butterfly_svg(ds)) == _per_row_svg(rows, dirichlet)


def test_streamed_writers_match_one_shot_across_chunks(monkeypatch):
    monkeypatch.setattr("hexspec.cli._SVG_CHUNK", 7)
    ds = butterfly(parse_potential("zero"), 12, 2)
    rows = ds.rows.tolist()
    assert len(rows) > 100 * 7
    csv = list(_butterfly_csv(ds))
    columns = {(p, q, k) for p, q, k, _lo, _hi in rows}
    assert len(csv) == 1 + len(columns)  # the header, then one string per column
    assert "".join(csv) == _one_string_csv(rows)
    svg = list(_butterfly_svg(ds))
    assert len(svg) > -(-len(rows) // 7)  # the header, one string per chunk, the rest
    assert "".join(svg) == _per_row_svg(rows, ds.dirichlet_lines)


def _dataset(rows):
    recs = np.rec.fromrecords(rows, formats="i4,i4,i2,f8,f8", names="p,q,hill_band,lo,hi")
    return ButterflyDataset(recs, (), "zero", 3, 2, (), ())


# one ulp apart, and the last of 15 digits tells them apart
_X, _X_UP = 1.234567890123455, math.nextafter(1.234567890123455, 2.0)


@pytest.mark.parametrize("ends, mirror_ends", [
    ([(-3.0, -2.5), (0.25, _X)], [(-3.0, -2.5), (0.25, _X)]),
    ([(-3.0, -2.5), (0.25, _X)], [(-3.0, -2.5), (0.25, _X_UP)]),
    ([(-3.0, -2.5), (0.0, 0.0)], [(-3.0, -2.5), (-0.0, 0.0)]),
], ids=["equal bits", "one ulp", "signed zero"])
def test_csv_formats_each_column_from_its_own_bits(ends, mirror_ends):
    # a writer that copied the text of (1, 3, k) to its mirror (2, 3, k)
    # would print wrong digits in the last two cases
    assert "%.15g" % _X != "%.15g" % _X_UP
    rows = [(0, 1, 1, -3.0, 6.0), (1, 2, 1, -3.0, 0.0),  # q = 1, 2: their own mirrors
            *[(1, 3, k, lo, hi) for k in (1, 2) for lo, hi in ends],
            *[(2, 3, k, lo, hi) for k in (1, 2) for lo, hi in mirror_ends]]
    assert "".join(_butterfly_csv(_dataset(rows))) == _one_string_csv(rows)


def test_csv_of_no_rows_is_the_header():
    assert "".join(_butterfly_csv(_dataset([]))) == "p,q,hill_band,lo,hi\n" == _one_string_csv([])


def test_butterfly_rejects_stdout_output(tmp_path, monkeypatch, capsys):
    # the CSV needs a real path for its .json sidecar, so "-" is no file name
    monkeypatch.chdir(tmp_path)
    assert main(["butterfly", "--qmax", "2", "--hill-bands", "1", "--output", "-"]) == 1
    assert capsys.readouterr().err.startswith("error:")
    assert not list(tmp_path.iterdir())


def test_butterfly_svg(tmp_path):
    out = tmp_path / "bf.csv"
    svg = tmp_path / "bf.svg"
    assert main(["butterfly", "--qmax", "2", "--hill-bands", "1",
                 "--output", str(out), "--svg", str(svg)]) == 0
    text = svg.read_text()
    assert text.startswith("<svg") and "</svg>" in text


def test_butterfly_svg_dash_is_stdout(tmp_path, monkeypatch, capsys):
    # "-" sends the SVG to stdout, as --output - does for the other commands
    monkeypatch.chdir(tmp_path)
    assert main(["butterfly", "--qmax", "2", "--hill-bands", "1",
                 "--output", "bf.csv", "--svg", "-"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("<svg") and out.endswith("</svg>\n")
    assert sorted(f.name for f in tmp_path.iterdir()) == ["bf.csv", "bf.csv.json"]


def test_lyapunov_csv(tmp_path):
    out = tmp_path / "le.csv"
    # 2 sqrt(2) lies in every fiber spectrum at half flux (L ~ 0); 10 is
    # far outside (L large)
    assert main(["lyapunov", "--flux", "1/2",
                 "--lambdas", "2.8284271247461903,10",
                 "--output", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "lambda,L,converged"
    rows = [ln.split(",") for ln in lines[1:]]
    assert abs(float(rows[0][1])) < 0.05
    assert float(rows[1][1]) > 0.2


def test_cover_json(tmp_path):
    out = tmp_path / "cover.json"
    assert main(["cover", "--level", "5", "--c2", "1.0",
                 "--output", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["q"] == 13
    assert payload["measure"] <= payload["bound"] + 1e-12


def test_loopstate_json(tmp_path):
    out = tmp_path / "state.json"
    assert main(["loopstate", "--phi", str(math.pi / 2), "--lambda-index", "1",
                 "--output", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["max_violation"] <= 1e-10
    assert len(payload["outer_coeffs"]) == 10


def test_loopstate_near_the_flux_lattice(tmp_path):
    out = tmp_path / "state.json"
    assert main(["loopstate", "--phi", "1e-6", "--output", str(out)]) == 0
    assert json.loads(out.read_text())["slicing_coeff"] == [1.0, 0.0]


def test_loopstate_in_a_deep_well(tmp_path):
    # the Sturm count accepts lambda_1; the check reads s(1) = 2.9e-7 in the
    # run that defines lambda_1, not in a finer one that moves it
    out = tmp_path / "state.json"
    assert main(["loopstate", "--phi", "1.0", "--lambda-index", "1",
                 "--potential", "mathieu:1000", "--output", str(out)]) == 0
    assert json.loads(out.read_text())["max_violation"] == pytest.approx(2.92e-7, rel=0.02)


def test_loopstate_in_a_deeper_well(tmp_path):
    # bisection leaves lambda_1 within 2^-41 = 4.5e-13 of the eigenvalue of
    # the run at its steps, and s(1) moves by 8.3e9 per unit of lambda there,
    # so |s(1)| <= 3.8e-3 and max |a| = 1; a run at twice the steps reads
    # s(1) = 1.46 at this lambda
    out = tmp_path / "state.json"
    assert main(["loopstate", "--phi", "1.0", "--lambda-index", "1",
                 "--potential", "mathieu:1500", "--output", str(out)]) == 0
    assert json.loads(out.read_text())["max_violation"] <= 3.8e-3


def test_loopstate_bad_index():
    assert main(["loopstate", "--phi", "0.5", "--lambda-index", "999"]) == 1


def test_loopstate_finds_close_dirichlet_pair(tmp_path):
    # the lowest Dirichlet pair of this double well is 0.018 apart
    t = np.linspace(0.0, 1.0, 401)
    well = tmp_path / "well.txt"
    np.savetxt(well, 3000.0 * np.exp(-(((t - 0.5) / 0.06) ** 2)), fmt="%.17g")
    out = tmp_path / "state.json"
    assert main(["loopstate", "--phi", str(math.pi / 2), "--potential", f"file:{well}",
                 "--lambda-index", "1", "--output", str(out)]) == 0
    assert json.loads(out.read_text())["dirichlet_lambda"] == pytest.approx(52.046, abs=2e-3)


def test_loopstate_takes_its_window_from_the_index(tmp_path):
    # the sixth Dirichlet eigenvalue of V = 0, 36 pi^2, lies above 250; any
    # window gives each eigenvalue the same bits
    out = tmp_path / "state.json"
    dirs = dirichlet_eigenvalues(V0, 1000.0)
    assert dirs[2] == dirichlet_eigenvalues(V0, 250.0)[2]
    for k in (3, 6):
        assert main(["loopstate", "--phi", "1.0", "--lambda-index", str(k),
                     "--output", str(out)]) == 0
        assert json.loads(out.read_text())["dirichlet_lambda"] == dirs[k - 1]
    with pytest.raises(SystemExit):
        main(["loopstate", "--phi", "1.0", "--lambda-max", "250"])


# the default scan (golden flux, -6:10:17) as the one-factor-per-step
# product gave it; the Dirac energy -3 is the ill-conditioned one
DEFAULT_LYAPUNOV_SCAN = [
    (-6, 1.70044552323829), (-5, 1.47037675181174), (-4, 1.13944729846962),
    (-3, 0.000250059250063459), (-2, 0.54739285259767), (-1, 0.622968633718315),
    (0, 0.489106470678292), (1, 0.799272281516184), (2, 0.728005087469535),
    (3, 0.314853824912597), (4, 1.10732500783654), (5, 1.45823932722695),
    (6, 1.6942709202375), (7, 1.87718753102937), (8, 2.02817018616522),
    (9, 2.15741509051108), (10, 2.27073756903944),
]


def test_default_lyapunov_scan_is_pinned(tmp_path):
    out = tmp_path / "lyap.csv"
    assert main(["lyapunov", "--output", str(out)]) == 0
    rows = [ln.split(",") for ln in out.read_text().splitlines()[1:]]
    assert [float(r[0]) for r in rows] == [lam for lam, _ in DEFAULT_LYAPUNOV_SCAN]
    assert [r[2] for r in rows] == ["1"] * len(DEFAULT_LYAPUNOV_SCAN)
    for (lam, want), row in zip(DEFAULT_LYAPUNOV_SCAN, rows):
        # a reassociated product moves L by rounding: 1.0e-9 at the Dirac
        # energy, where the square root magnifies G_q's error, 1e-15 elsewhere
        assert abs(float(row[1]) - want) <= 1e-8, lam


def test_lyapunov_takes_any_max_n(tmp_path):
    out = tmp_path / "lyap.csv"
    assert main(["lyapunov", "--max-n", "10000", "--lambdas=-3", "--output", str(out)]) == 0
    assert out.read_text().splitlines()[1].endswith(",1")
