import math

import numpy as np
import pytest

import shearspec as ss
from shearspec.core import spectral_to_temporal_array, write_columns
from shearspec.errors import DataFormatError

from conftest import SHEAR, TAU


def test_interfere_formula():
    # the record is a 50:50 recombination of the delayed arm a = psi~(w) e^{i w tau}
    # and the sheared arm b = psi~(w + W): plus/minus = 1/4 |a +- b|^2
    g = ss.SpectralGrid(1.0, 0.01, 8)
    rng = np.random.default_rng(0)
    mode = ss.normalize(g, rng.normal(size=8) + 1j * rng.normal(size=8))
    shear, tau = 0.015, 120.0
    rec = ss.ideal_interferogram(mode, ss.ShearConfig(shear=shear, delay=tau))
    a = mode.amplitude * np.exp(1j * g.omegas * tau)
    b = ss.apply_shear(mode, -shear).amplitude
    assert rec.grid == g
    assert np.allclose(rec.plus, 0.25 * np.abs(a + b) ** 2, atol=1e-14)
    assert np.allclose(rec.minus, 0.25 * np.abs(a - b) ** 2, atol=1e-14)
    assert np.all(rec.plus >= 0) and np.all(rec.minus >= 0)


def test_ideal_record_termwise():
    # S+- = 1/4 { S(w) + S(w+W) +- 2 Re[psi~(w) psi~*(w+W) e^{i w tau}] }
    # evaluated independently through the trig interpolant of the mode
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(20):
        n = 64
        g = ss.SpectralGrid(rng.uniform(1.0, 3.0), rng.uniform(1e-2, 3e-2), n)
        mode = ss.normalize(g, rng.normal(size=n) + 1j * rng.normal(size=n))
        shear = rng.uniform(-1.0, 1.0) * g.span / 5.0
        tau = rng.uniform(0.2, 0.8) * math.pi / g.omega_step
        rec = ss.ideal_interferogram(mode, ss.ShearConfig(shear=shear, delay=tau))
        scale = g.time_step / math.sqrt(2.0 * math.pi)
        psi = mode.amplitude
        psi_w = scale * np.exp(1j * np.outer(g.omegas + shear, g.times)) @ (
            spectral_to_temporal_array(psi, g)
        )
        cross = 2.0 * np.real(psi * np.conj(psi_w) * np.exp(1j * g.omegas * tau))
        base = np.abs(psi) ** 2 + np.abs(psi_w) ** 2
        worst = max(worst, float(np.max(np.abs(rec.plus - 0.25 * (base + cross)))))
        worst = max(worst, float(np.max(np.abs(rec.minus - 0.25 * (base - cross)))))
    assert worst < 1e-12


def test_output_sum_cancels_fringes(quad_record, quad_mode, grid):
    total = quad_record.plus + quad_record.minus
    direct = np.abs(quad_mode.amplitude) ** 2
    sheared = np.abs(ss.apply_shear(quad_mode, -SHEAR).amplitude) ** 2
    assert np.max(np.abs(total - 0.5 * (direct + sheared))) < 1e-12


def test_fringe_spacing(grid):
    # cross term oscillates as cos(omega*tau): zeros spaced pi/tau
    mode = ss.synthesize(ss.PulseSpec(830.0, 8.0), grid)
    rec = ss.ideal_interferogram(mode, ss.ShearConfig(shear=SHEAR, delay=TAU))
    diff = rec.plus - rec.minus
    core = np.abs(grid.omegas - ss.wavelength_to_omega(830.0)) < 0.01
    sign_changes = int(np.sum(np.diff(np.sign(diff[core])) != 0))
    expected = 0.02 * TAU / math.pi
    assert sign_changes == pytest.approx(expected, abs=3)


def test_shear_headroom(grid, quad_mode):
    with pytest.raises(ValueError):
        ss.ideal_interferogram(quad_mode, ss.ShearConfig(shear=0.26 * grid.span, delay=TAU))
    with pytest.raises(ValueError, match="finite"):
        ss.ShearConfig(shear=math.inf, delay=TAU)


def test_detect_counts_deterministic(quad_record):
    a = ss.detect_counts(quad_record, 1_000_000, 123)
    b = ss.detect_counts(quad_record, 1_000_000, 123)
    c = ss.detect_counts(quad_record, 1_000_000, 124)
    assert np.array_equal(a.plus, b.plus) and np.array_equal(a.minus, b.minus)
    assert not np.array_equal(a.plus, c.plus)
    assert a.kind == "counts"


def test_detect_counts_statistics(quad_record):
    rec = ss.detect_counts(quad_record, 1_000_000, 9)
    total = float(np.sum(rec.plus) + np.sum(rec.minus))
    # Poisson total: mean 1e6, sd 1e3
    assert abs(total - 1_000_000) < 5_000
    assert np.all(rec.plus == np.round(rec.plus))
    # at high counts the record tracks the ideal intensities
    big = ss.detect_counts(quad_record, 10_000_000, 9)
    ideal_share = quad_record.plus / float(np.sum(quad_record.plus) + np.sum(quad_record.minus))
    got_share = big.plus / 10_000_000.0
    assert np.max(np.abs(got_share - ideal_share)) < 5e-4


def test_detect_counts_rejects_bad_input(quad_record):
    counts = ss.detect_counts(quad_record, 1000, 1)
    with pytest.raises(ValueError):
        ss.detect_counts(counts, 1000, 1)  # already a counts record
    # past MAX_COUNTS = 2**53 a count need not be an exact float, and the
    # record would read as "ideal"
    for total in (-5, 2**53 + 1, 2**62, math.nan):
        with pytest.raises(ValueError, match="total_counts"):
            ss.detect_counts(quad_record, total, 1)
    assert ss.detect_counts(quad_record, 2**53, 1).kind == "counts"
    with pytest.raises(ValueError):
        ss.detect_counts(quad_record, 1000, -1)
    zero = ss.Interferogram(
        quad_record.grid,
        np.zeros(quad_record.grid.n_points),
        np.zeros(quad_record.grid.n_points),
    )
    with pytest.raises(ValueError):
        ss.detect_counts(zero, 1000, 1)


def test_interferogram_validation(grid):
    n = grid.n_points
    with pytest.raises(ValueError):
        ss.Interferogram(grid, np.zeros(n - 1), np.zeros(n))
    with pytest.raises(ValueError):
        ss.Interferogram(grid, -np.ones(n), np.ones(n))


def test_interferogram_stores_a_read_only_copy(grid):
    plus, minus = np.ones(grid.n_points), np.ones(grid.n_points)
    rec = ss.Interferogram(grid, plus, minus)
    plus[0] = 2.0  # the caller's array stays writable
    assert rec.plus[0] == 1.0
    assert minus.flags.writeable
    for arr in (rec.plus, rec.minus):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 2.0


def test_csv_roundtrip_ideal(tmp_path, quad_record):
    path = tmp_path / "rec.csv"
    ss.save_interferogram_csv(quad_record, path)
    back = ss.load_interferogram_csv(path)
    assert back.kind == "ideal"
    assert back.grid == quad_record.grid
    # repr round trip is exact for finite floats
    assert np.array_equal(back.plus, quad_record.plus)
    assert np.array_equal(back.minus, quad_record.minus)


def test_csv_roundtrip_rebuilds_exact_grid(tmp_path):
    rng = np.random.default_rng(5)
    path = tmp_path / "rec.csv"
    for _ in range(20):
        n = int(rng.choice([8, 64, 4096]))
        g = ss.make_grid(rng.uniform(0.5, 5.0), rng.uniform(1e-3, 1.0), n)
        rec = ss.Interferogram(g, np.ones(n), np.ones(n))
        ss.save_interferogram_csv(rec, path)
        back = ss.load_interferogram_csv(path).grid
        # the column can fit several steps an ulp apart; each rebuilds it exactly
        assert np.array_equal(back.omegas, g.omegas)


def test_csv_roundtrip_counts(tmp_path, quad_record):
    rec = ss.detect_counts(quad_record, 1_000_000, 3)
    path = tmp_path / "counts.csv"
    ss.save_interferogram_csv(rec, path)
    back = ss.load_interferogram_csv(path)
    assert back.kind == "counts"
    assert np.array_equal(back.plus, rec.plus)


def test_csv_roundtrip_keeps_kind_and_values(tmp_path, quad_record):
    n = quad_record.grid.n_points
    whole = ss.Interferogram(quad_record.grid, np.arange(n, dtype=float), np.ones(n))
    empty = ss.Interferogram(quad_record.grid, np.zeros(n), np.zeros(n))
    huge = ss.Interferogram(quad_record.grid, np.full(n, 1e20), np.ones(n))
    records = (whole, empty, ss.detect_counts(quad_record, 1_000_000, 3), quad_record, huge)
    # whole numbers up to 2**53 with some intensity are counts, whatever built the record
    assert [rec.kind for rec in records] == ["counts", "ideal", "counts", "ideal", "ideal"]
    path = tmp_path / "rec.csv"
    for rec in records:
        ss.save_interferogram_csv(rec, path)
        back = ss.load_interferogram_csv(path)
        assert back.kind == rec.kind
        assert np.array_equal(back.plus, rec.plus) and np.array_equal(back.minus, rec.minus)


def _refuse(*args, **kwargs):
    raise ValueError("refused")


def _outcome(path):
    try:
        return ss.load_interferogram_csv(path)
    except DataFormatError as exc:
        return str(exc)


def assert_reads_like_row_loop(path, monkeypatch):
    """The loader's outcome on `path` is the row loop's alone (np.loadtxt
    refusing every file): the same record bit for bit, or the same error."""
    got = _outcome(path)
    with monkeypatch.context() as m:
        m.setattr(np, "loadtxt", _refuse)
        want = _outcome(path)
    if isinstance(want, str):
        assert got == want
        return got
    assert isinstance(got, ss.Interferogram), got
    geometry = [(r.grid.omega_start, r.grid.omega_step, r.grid.n_points) for r in (got, want)]
    assert geometry[0] == geometry[1]
    assert got.kind == want.kind
    assert got.plus.tobytes() == want.plus.tobytes()
    assert got.minus.tobytes() == want.minus.tobytes()
    return got


@pytest.fixture(scope="module")
def counts_lines(tmp_path_factory, quad_record):
    path = tmp_path_factory.mktemp("counts") / "rec.csv"
    ss.save_interferogram_csv(ss.detect_counts(quad_record, 1_000_000, 3), path)
    return path.read_text(encoding="utf-8").splitlines(keepends=True)


def _edit_cell(line: str, column: int, cell: str) -> str:
    cells = line.rstrip("\n").split(",")
    cells[column] = cell
    return ",".join(cells) + "\n"


def test_csv_writer_output_takes_the_bulk_path(tmp_path, quad_record, counts_lines, monkeypatch):
    shapes = []

    def spy(*args, **kwargs):
        table = real(*args, **kwargs)
        shapes.append(table.shape)
        return table

    real = np.loadtxt
    monkeypatch.setattr(np, "loadtxt", spy)
    counts, ideal = tmp_path / "counts.csv", tmp_path / "ideal.csv"
    counts.write_text("".join(counts_lines), encoding="utf-8")
    ss.save_interferogram_csv(quad_record, ideal)
    for path in (counts, ideal):
        assert_reads_like_row_loop(path, monkeypatch)
    assert shapes == [(quad_record.grid.n_points, 3)] * 2


@pytest.mark.parametrize("variant", [
    "crlf", "cr", "bom", "bom-crlf", "blank-lines", "no-final-newline", "spaces",
    "quoted", "underscore", "unicode-digits",
])
def test_csv_variants_read_like_the_row_loop(tmp_path, counts_lines, variant, monkeypatch):
    """Line ends, blank lines and cells csv and float() accept: the loader
    returns the row loop's record, whichever path reads it."""
    lines = list(counts_lines)
    body = lines[1:]
    prefix = ""
    if variant in ("crlf", "bom-crlf"):
        lines = [line.replace("\n", "\r\n") for line in lines]
    if variant == "cr":
        lines = [line.replace("\n", "\r") for line in lines]
    if variant.startswith("bom"):
        prefix = "\ufeff"
    if variant == "blank-lines":
        lines = [lines[0], "\n"] + body[:100] + ["\n", "\r\n"] + body[100:] + ["\n"]
    if variant == "no-final-newline":
        lines[-1] = lines[-1].rstrip("\n")
    if variant == "spaces":
        lines[5] = " " + lines[5].replace(",", " , ").replace("\n", " \n")
    if variant == "quoted":
        lines = [",".join(f'"{c}"' for c in line.rstrip("\n").split(",")) + "\n" for line in lines]
    if variant == "underscore":
        lines[7] = _edit_cell(lines[7], 1, "1_0")
    if variant == "unicode-digits":
        lines[7] = _edit_cell(lines[7], 2, "\u0661\u0660")  # Arabic-Indic 10
    path = tmp_path / "rec.csv"
    path.write_text(prefix + "".join(lines), encoding="utf-8", newline="")
    got = assert_reads_like_row_loop(path, monkeypatch)
    assert isinstance(got, ss.Interferogram) and got.kind == "counts"
    if variant == "underscore":
        assert got.plus[6] == 10.0
    if variant == "unicode-digits":
        assert got.minus[6] == 10.0


def test_csv_malformed_reports_line(tmp_path, quad_record, counts_lines, monkeypatch):
    path = tmp_path / "rec.csv"
    ss.save_interferogram_csv(quad_record, path)
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)

    bad = tmp_path / "truncated.csv"
    bad.write_text("".join(lines[:5]) + "1.23,4.56\n", encoding="utf-8")
    with pytest.raises(DataFormatError, match=r":6:"):
        ss.load_interferogram_csv(bad)

    bad.write_text("".join(lines[:5]) + "1.23,abc,4.56\n", encoding="utf-8")
    with pytest.raises(DataFormatError, match=r":6:"):
        ss.load_interferogram_csv(bad)

    bad.write_text("omega,plus\n", encoding="utf-8")
    with pytest.raises(DataFormatError, match="header"):
        ss.load_interferogram_csv(bad)

    bad.write_text("", encoding="utf-8")
    with pytest.raises(DataFormatError, match="empty"):
        ss.load_interferogram_csv(bad)

    # rows np.loadtxt refuses, or would read otherwise, as the row loop reports them
    body = counts_lines
    malformed = {
        "whitespace-only line": body[:6] + ["   \n"] + body[6:],
        "tab-only line": body[:6] + ["\t\n"] + body[6:],
        "trailing comma": body[:6] + [body[6].replace("\n", ",\n")] + body[7:],
        "trailing commas": [body[0]] + [line.replace("\n", ",\n") for line in body[1:]],
        "comment line": body[:6] + ["# note\n"] + body[6:],
        "trailing comment": body[:6] + [body[6].replace("\n", " # note\n")] + body[7:],
        "two columns": [body[0]] + [line.rsplit(",", 1)[0] + "\n" for line in body[1:]],
        "one column": [body[0]] + [line.split(",", 1)[0] + "\n" for line in body[1:]],
        "empty cell": body[:6] + [_edit_cell(body[6], 1, "")] + body[7:],
        "hex cell": body[:6] + [_edit_cell(body[6], 1, "0x1p3")] + body[7:],
        "CR inside a row": body[:6] + [body[6].replace(",", "\r,", 1)] + body[7:],
        "CRLF, then a bad cell": [line.replace("\n", "\r\n") for line in body[:6]]
        + [_edit_cell(body[6], 2, "abc")] + body[7:],
    }
    for name, rows in malformed.items():
        bad.write_text("".join(rows), encoding="utf-8", newline="")
        message = assert_reads_like_row_loop(bad, monkeypatch)
        line = 2 if name in ("trailing commas", "two columns", "one column") else 7
        assert isinstance(message, str) and f":{line}:" in message, (name, message)
    bad.write_text(body[0], encoding="utf-8")  # a header and no rows
    assert "row count 0" in assert_reads_like_row_loop(bad, monkeypatch)
    bad.write_bytes(("".join(body[:6])).encode() + b"\xff,1,2\n")
    assert "not UTF-8" in assert_reads_like_row_loop(bad, monkeypatch)


def test_csv_rejects_bad_geometry(tmp_path, quad_record, monkeypatch):
    path = tmp_path / "rec.csv"
    ss.save_interferogram_csv(quad_record, path)
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)

    bad = tmp_path / "short.csv"
    bad.write_text("".join(lines[:6]), encoding="utf-8")  # 5 rows
    with pytest.raises(DataFormatError, match="power of two"):
        ss.load_interferogram_csv(bad)
    # the same rows in CRLF, CR-only, after a BOM, with blank lines, or one row
    # with 4 columns: each as the row loop reads it
    for text in ("".join(lines[:6]).replace("\n", "\r\n"), "".join(lines[:6]).replace("\n", "\r"),
                 "\ufeff" + "".join(lines[:6]), "".join(lines[:3]) + "\n\n" + "".join(lines[3:8]),
                 lines[0] + "1.0,2.0,3.0,4.0\n"):
        bad.write_text(text, encoding="utf-8", newline="")
        message = assert_reads_like_row_loop(bad, monkeypatch)
        assert "power of two" in message or ":2: expected 3 columns" in message, message

    rows = [lines[0]] + [f"{1.0 + 0.01 * i * i!r},1.0,1.0\n" for i in range(8)]
    bad.write_text("".join(rows), encoding="utf-8")
    with pytest.raises(DataFormatError, match="uniformly spaced"):
        ss.load_interferogram_csv(bad)

    # a NaN omega in the first, an interior or the last row names the file
    for row in (1, len(lines) // 2, len(lines) - 1):
        cells = lines[row].split(",", 1)
        bad.write_text("".join(lines[:row] + ["nan," + cells[1]] + lines[row + 1:]),
                       encoding="utf-8")
        with pytest.raises(DataFormatError, match="not finite") as exc:
            ss.load_interferogram_csv(bad)
        assert str(bad) in str(exc.value)

    # a negative or non-finite count cell is refused by Interferogram, naming the file
    for cell in ("-1", "nan", "inf"):
        cells = lines[3].rsplit(",", 1)
        bad.write_text("".join(lines[:3] + [f"{cells[0]},{cell}\n"] + lines[4:]),
                       encoding="utf-8")
        with pytest.raises(DataFormatError, match="minus must be non-negative and finite") as exc:
            ss.load_interferogram_csv(bad)
        assert str(bad) in str(exc.value)


def test_csv_omega_column_from_another_writer(tmp_path, quad_record):
    # 15 significant digits: no ulp candidate rebuilds the column, so the
    # reader keeps the whole-span step estimate
    g = quad_record.grid
    text = [f"{w:.15g}" for w in g.omegas]
    column = np.array([float(t) for t in text])
    path = tmp_path / "other.csv"
    write_columns(path, "omega_rad_per_fs,plus,minus", text, quad_record.plus, quad_record.minus)
    back = ss.load_interferogram_csv(path).grid
    assert back.omega_step == (column[-1] - column[0]) / (g.n_points - 1)
    assert not np.array_equal(back.omegas, column)  # no step rebuilds it bit for bit
    assert back == g
    assert np.max(np.abs(back.omegas - column)) < 1e-14


def test_csv_omega_column_past_the_ulp_search_keeps_the_estimate(tmp_path):
    # 8 rows with a step of 1e-5 rad/fs: ulp(omega_max) / (7 ulp(step)) puts
    # the search radius at 37451 ulps, past its 2**14 cap, so the reader takes
    # the whole-span estimate without a search; here it rebuilds the column
    g = ss.SpectralGrid(2.2697, 1e-5, 8)
    omegas = g.omegas
    estimate = (omegas[-1] - omegas[0]) / (g.n_points - 1)
    radius = int(np.spacing(omegas[-1]) / ((g.n_points - 1) * np.spacing(estimate))) + 2
    assert radius == 37451
    path = tmp_path / "wide.csv"
    ones = np.ones(g.n_points)
    write_columns(path, "omega_rad_per_fs,plus,minus", list(map(repr, omegas.tolist())), ones, ones)
    back = ss.load_interferogram_csv(path).grid
    assert back.omega_step == estimate
    assert back.omegas.tobytes() == omegas.tobytes()
    assert back == g
