"""The column and JSON writers against the per-row writers they replaced.

The reference writers below are the package's earlier implementations, kept
verbatim in behaviour: every CSV must match them byte for byte, and every
JSON file must parse to the same values.
"""

import json

import numpy as np
import pytest

import shearspec as ss
from shearspec.analysis import save_views
from shearspec.cli import main
from shearspec.core import WRITE_BLOCK_ROWS, spectral_to_temporal_array, write_columns
from shearspec.reconstruction import result_to_dict


# ---- reference writers ---------------------------------------------------------

def ref_write_columns(path, header, fmt, *columns):
    """The earlier write_columns: one `fmt.format(*row)` per row, one join."""
    rows = map(fmt.format, *(c if isinstance(c, list) else c.tolist() for c in columns))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(header + "\n" + "".join(rows))


def ref_interferogram_csv(interf, path):
    counts = interf.kind == "counts"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("omega_rad_per_fs,plus,minus\n")
        for w, p, m in zip(interf.grid.omegas, interf.plus, interf.minus):
            if counts:
                fh.write(f"{float(w)!r},{int(p)},{int(m)}\n")
            else:
                fh.write(f"{float(w)!r},{float(p)!r},{float(m)!r}\n")


def ref_wigner_csv(t_axis, omega_axis, values, path):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("t_fs,omega_rad_per_fs,w_value\n")
        for i, t in enumerate(t_axis):
            for j, w in enumerate(omega_axis):
                fh.write(f"{float(t)!r},{float(w)!r},{float(values[i, j])!r}\n")


def ref_artifacts(outdir, truth, result):
    grid = result.grid
    rec_mode = result.mode()
    with open(outdir / "spectrum.csv", "w", encoding="utf-8", newline="") as fh:
        fh.write("omega_rad_per_fs,truth,recovered\n")
        for w, a, b in zip(grid.omegas, truth.intensity(), rec_mode.intensity()):
            fh.write(f"{float(w)!r},{float(a)!r},{float(b)!r}\n")
    truth_phase = np.unwrap(truth.phase())  # anchored at the grid centre, like the recovery
    truth_phase = truth_phase - truth_phase[grid.n_points // 2]
    with open(outdir / "phase.csv", "w", encoding="utf-8", newline="") as fh:
        fh.write("omega_rad_per_fs,truth_rad,recovered_rad,valid\n")
        for w, a, b, v in zip(grid.omegas, truth_phase, result.phase_rad, result.valid_mask):
            fh.write(f"{float(w)!r},{float(a)!r},{float(b)!r},{int(v)}\n")
    truth_t = np.abs(spectral_to_temporal_array(truth.amplitude, grid)) ** 2
    rec_t = np.abs(spectral_to_temporal_array(rec_mode.amplitude, grid)) ** 2
    with open(outdir / "temporal.csv", "w", encoding="utf-8", newline="") as fh:
        fh.write("t_fs,truth,recovered\n")
        for t, a, b in zip(grid.times, truth_t, rec_t):
            fh.write(f"{float(t)!r},{float(a)!r},{float(b)!r}\n")


def ref_json(data, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, sort_keys=True, indent=2)
        fh.write("\n")


def ref_result_dict(result):
    """The earlier result.json layout, which also carried the omega axis."""
    data = result_to_dict(result)
    data["omega_rad_per_fs"] = result.grid.omegas.tolist()
    return data


# ---- fixtures ------------------------------------------------------------------

@pytest.fixture(scope="module")
def counts_record(quad_record):
    return ss.detect_counts(quad_record, 1_000_000, 5)


@pytest.fixture(scope="module")
def counts_result(counts_record, shear_cfg, settings):
    return ss.reconstruct(counts_record, shear_cfg, settings)


# ---- CSV: byte equality ------------------------------------------------------------

BLOCK = WRITE_BLOCK_ROWS


@pytest.mark.parametrize("rows", [1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3])
def test_write_columns_matches_format_rows(tmp_path, rows):
    rng = np.random.default_rng(rows)
    special = np.array([-0.0, 0.0, 5e-324, -5e-324, 1e16, 1e-5, 1e22, 1.5, -2.0, 0.1])
    floats = np.resize(np.concatenate([special, rng.normal(size=16) * 1e3]), rows)
    floats[rng.permutation(rows)[: rows // 3]] = rng.normal(size=rows // 3)
    ints = rng.integers(-(2**40), 2**40, size=rows)
    flags = rng.random(rows) < 0.5
    text = [repr(v) for v in rng.random(rows)]
    write_columns(tmp_path / "new.csv", "f,i,b,s", floats, ints, flags, text)
    ref_write_columns(tmp_path / "ref.csv", "f,i,b,s", "{!r},{!r},{:d},{}\n",
                      floats, ints, flags, text)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
    # one column, and a column of text that is a tuple, as SpectralGrid.omega_text is
    write_columns(tmp_path / "new.csv", "s", tuple(text))
    ref_write_columns(tmp_path / "ref.csv", "s", "{}\n", text)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_write_columns_refuses_unequal_lengths(tmp_path):
    with pytest.raises(ValueError, match="differ in length"):
        write_columns(tmp_path / "bad.csv", "a,b", np.zeros(3), np.zeros(4))


def test_grid_text_is_the_repr_of_each_node(grid):
    assert grid.omega_text == tuple(repr(w) for w in grid.omegas.tolist())
    # formatted once per grid, and a tuple, so no caller can edit the shared cells
    assert grid.omega_text is grid.omega_text and isinstance(grid.omega_text, tuple)


@pytest.mark.parametrize("kind", ["ideal", "counts"])
def test_interferogram_csv_matches_row_loop(tmp_path, kind, quad_record, counts_record):
    rec = quad_record if kind == "ideal" else counts_record
    ss.save_interferogram_csv(rec, tmp_path / "new.csv")
    ref_interferogram_csv(rec, tmp_path / "ref.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_wigner_csv_matches_row_loop(tmp_path, quad_mode, grid):
    # the 128 x 256 map of `analyze --wigner`
    n = grid.n_points
    t_axis, om_axis = grid.times[n // 4 : 3 * n // 4 : 16], grid.omegas[::16]
    values = ss.wigner(quad_mode, t_axis, om_axis)
    assert values.shape[0] != values.shape[1]  # catches a transposed layout
    ss.save_wigner_csv(quad_mode, tmp_path / "new.csv")
    ref_wigner_csv(t_axis, om_axis, values, tmp_path / "ref.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
    assert values.shape == (128, 256)


def test_artifact_csvs_match_row_loop(tmp_path, quad_mode, counts_result):
    new, ref = tmp_path / "new", tmp_path / "ref"
    new.mkdir()
    ref.mkdir()
    files = save_views(str(new), quad_mode, counts_result)
    ref_artifacts(ref, quad_mode, counts_result)
    assert files == ["spectrum.csv", "phase.csv", "temporal.csv"]
    assert not counts_result.valid_mask.all() and counts_result.valid_mask.any()
    for name in files:
        assert (new / name).read_bytes() == (ref / name).read_bytes(), name


# ---- JSON: exact round trips -------------------------------------------------------

def assert_results_equal(a, b):
    assert a.grid == b.grid
    for name in ("amplitude_abs", "phase_rad", "valid_mask", "phase_difference"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    assert a.coefficients == b.coefficients
    assert a.diagnostics == b.diagnostics


def test_result_json_roundtrip(tmp_path, counts_result):
    path = tmp_path / "result.json"
    ss.save_result(counts_result, path)
    assert_results_equal(ss.load_result(path), counts_result)

    ref_json(result_to_dict(counts_result), tmp_path / "ref.json")
    assert json.loads(path.read_text()) == json.loads((tmp_path / "ref.json").read_text())
    lines = path.read_text(encoding="utf-8").splitlines()
    keys = sorted(result_to_dict(counts_result))
    assert lines[0] == "{" and lines[-1] == "}"
    assert [json.loads("{" + line.rstrip(",") + "}").popitem()[0] for line in lines[1:-1]] == keys


def test_truth_mode_json_roundtrip(tmp_path, quad_mode):
    path = tmp_path / "truth_mode.json"
    held = ss.save_mode(quad_mode, path)
    raw = json.loads(path.read_text(encoding="utf-8"))
    assert np.array_equal(raw["amplitude_abs"], np.abs(quad_mode.amplitude))
    assert np.array_equal(raw["phase_rad"], np.angle(quad_mode.amplitude))
    back = ss.load_mode(path)
    assert back.grid == quad_mode.grid
    expected = np.abs(quad_mode.amplitude) * np.exp(1j * np.angle(quad_mode.amplitude))
    assert np.array_equal(back.amplitude, expected)
    # save_mode returns the mode its file holds, bit for bit
    assert held.grid == back.grid
    assert held.amplitude.tobytes() == back.amplitude.tobytes()

    ref = {"grid": {"omega_start": quad_mode.grid.omega_start,
                    "omega_step": quad_mode.grid.omega_step, "n_points": quad_mode.grid.n_points},
           "amplitude_abs": np.abs(quad_mode.amplitude).tolist(),
           "phase_rad": np.angle(quad_mode.amplitude).tolist()}
    ref_json(ref, tmp_path / "ref.json")
    assert raw == json.loads((tmp_path / "ref.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", ["quadratic", "compensated", "v-phase", "lambda-phase"])
def test_result_json_read_as_a_mode_is_the_result_mode(tmp_path, name):
    # analyze --truth reads a result.json as a mode file: the mode's bits,
    # the signed zeros of its empty wings included, are result.mode()'s
    assert main(["pipeline", "--preset", name, "--out", str(tmp_path), "--quiet"]) == 0
    path = tmp_path / "result.json"
    result = ss.load_result(path)
    assert not (result.amplitude_abs > 0).all()
    assert ss.load_mode(path).amplitude.tobytes() == result.mode().amplitude.tobytes()


def test_old_layout_result_still_loads(tmp_path, counts_result):
    path = tmp_path / "old_result.json"
    ref_json(ref_result_dict(counts_result), path)
    text = path.read_text(encoding="utf-8")
    assert '\n  "omega_rad_per_fs": [\n' in text
    assert_results_equal(ss.load_result(path), counts_result)
