import math

import numpy as np
import pytest

import shearspec as ss
from shearspec.analysis import _find_peaks

from conftest import OMEGA0, FWHM_W


def test_transform_limited_profile():
    fine = ss.make_grid(OMEGA0, 20.0 * FWHM_W, 8192)
    mode = ss.synthesize(ss.PulseSpec(830.0, 8.0), fine)
    fwhm, peaks = ss.temporal_profile(mode)
    # gaussian: intensity FWHM in time is 4 ln2 / FWHM_omega
    assert fwhm == pytest.approx(4.0 * math.log(2.0) / FWHM_W, rel=5e-3)
    assert len(peaks) == 1
    assert peaks[0] == pytest.approx(0.0, abs=1.0)
    assert ss.transform_limit_ratio(mode, fwhm) == pytest.approx(1.0, abs=1e-9)


def test_chirped_profile(grid):
    mode = ss.synthesize(ss.PulseSpec(830.0, 8.0, "polynomial", (0.0, 8.7e4, 0.0)), grid)
    fwhm, peaks = ss.temporal_profile(mode)
    dt0 = 4.0 * math.log(2.0) / FWHM_W
    stretched = dt0 * math.sqrt(1.0 + (4.0 * math.log(2.0) * 8.7e4 / dt0**2) ** 2)
    assert fwhm == pytest.approx(stretched, rel=1e-3)
    assert len(peaks) == 1
    assert ss.transform_limit_ratio(mode, fwhm) == pytest.approx(stretched / dt0, rel=2e-2)


def test_v_profile_two_peaks(grid):
    mode = ss.synthesize(ss.PulseSpec(830.0, 8.0, "v_lambda", v_slope=1050.0), grid)
    _, peaks = ss.temporal_profile(mode)
    assert len(peaks) == 2
    assert sorted(peaks)[0] == pytest.approx(-1050.0, abs=15.0)
    assert sorted(peaks)[1] == pytest.approx(1050.0, abs=15.0)


def ref_find_peaks(x, y, threshold):
    """The package's earlier per-bin loop, kept as the reference."""
    level = threshold * float(np.max(y))
    peaks = []
    for i in range(1, len(y) - 1):
        if y[i] >= level and y[i] > y[i - 1] and y[i] >= y[i + 1]:
            denom = y[i - 1] - 2.0 * y[i] + y[i + 1]
            shift = 0.0
            if denom < 0:
                shift = 0.5 * (y[i - 1] - y[i + 1]) / denom
            peaks.append(float(x[i] + shift * (x[i] - x[i - 1])))
    return peaks


@pytest.mark.parametrize("case", ["random", "plateau", "two-peak"])
def test_find_peaks_matches_loop(case, grid):
    x = grid.times
    if case == "random":
        y = np.random.default_rng(5).random(x.size)
    elif case == "plateau":  # flat tops, a shelf and a tie between neighbours
        y = np.zeros(x.size)
        y[100:140] = 1.0
        y[500:503] = [0.5, 0.7, 0.7]
        y[503:510] = 0.9
        y[900:902] = 0.3
    else:
        y = np.exp(-(((x - 300.0) / 80.0) ** 2)) + 0.6 * np.exp(-(((x + 700.0) / 50.0) ** 2))
    got = _find_peaks(x, y, 0.1)
    ref = ref_find_peaks(x, y, 0.1)
    assert got == ref  # the same floats, bit for bit
    assert len(ref) > (100 if case == "random" else 1)
    assert all(type(t) is float for t in got)


def test_orthogonality_self(quad_mode):
    overlap, spectral_l1, temporal_l1 = ss.orthogonality_report(quad_mode, quad_mode)
    assert overlap == pytest.approx(1.0, abs=1e-12)
    assert spectral_l1 == pytest.approx(0.0, abs=1e-12)
    assert temporal_l1 == pytest.approx(0.0, abs=1e-12)


def test_orthogonality_v_lambda(grid):
    v = ss.synthesize(ss.PulseSpec(830.0, 8.0, "v_lambda", v_slope=1050.0), grid)
    lam = ss.synthesize(ss.PulseSpec(830.0, 8.0, "v_lambda", v_slope=-1100.0), grid)
    overlap, spectral_l1, temporal_l1 = ss.orthogonality_report(v, lam)
    # same spectrum, nearly disjoint temporal structure
    assert overlap == pytest.approx(0.00160, abs=2e-4)
    assert spectral_l1 < 1e-12
    assert temporal_l1 == pytest.approx(0.370, abs=5e-3)


def test_orthogonality_displaced(grid):
    a = ss.synthesize(ss.PulseSpec(830.0, 8.0), grid)
    # delayed far beyond the ~127 fs duration
    b = ss.SpectralMode(grid, a.amplitude * np.exp(1j * grid.omegas * 1500.0))
    overlap, spectral_l1, temporal_l1 = ss.orthogonality_report(a, b)
    assert overlap < 1e-12
    assert spectral_l1 < 1e-12
    assert temporal_l1 == pytest.approx(2.0, abs=1e-6)


def test_v_phase_slope_exact(grid):
    v = ss.synthesize(ss.PulseSpec(830.0, 8.0, "v_lambda", v_slope=1050.0), grid)
    weights = np.abs(v.amplitude) ** 2
    every = np.ones(grid.n_points, dtype=bool)
    slope, err = ss.v_phase_slope(np.unwrap(np.angle(v.amplitude)), weights, grid, every)
    assert slope == pytest.approx(1050.0, rel=1e-9)
    assert err < 1e-6

    lam = ss.synthesize(ss.PulseSpec(830.0, 8.0, "v_lambda", v_slope=-1100.0), grid)
    slope2, _ = ss.v_phase_slope(
        np.unwrap(np.angle(lam.amplitude)), np.abs(lam.amplitude) ** 2, grid, every
    )
    assert slope2 == pytest.approx(-1100.0, rel=1e-9)


def test_v_phase_slope_ignores_linear_part(grid):
    # the |x| coefficient separates from plain group delay
    v = ss.synthesize(ss.PulseSpec(830.0, 8.0, "v_lambda", v_slope=700.0), grid)
    moved = ss.SpectralMode(grid, v.amplitude * np.exp(1j * grid.omegas * 400.0))
    slope, _ = ss.v_phase_slope(
        np.unwrap(np.angle(moved.amplitude)), np.abs(moved.amplitude) ** 2, grid,
        np.ones(grid.n_points, dtype=bool),
    )
    assert slope == pytest.approx(700.0, rel=1e-9)


def test_v_phase_slope_needs_bins(grid):
    weights = np.zeros(grid.n_points)
    weights[:3] = 1.0
    with pytest.raises(ValueError):
        ss.v_phase_slope(
            np.zeros(grid.n_points), weights, grid, np.ones(grid.n_points, dtype=bool)
        )


def test_v_phase_slope_checks_its_inputs(grid):
    # the fit's input checks live in masked_fit, which the V slope shares
    v = ss.synthesize(ss.PulseSpec(830.0, 8.0, "v_lambda", v_slope=1050.0), grid)
    phase = np.unwrap(np.angle(v.amplitude))
    weights = np.abs(v.amplitude) ** 2
    every = np.ones(grid.n_points, dtype=bool)
    with pytest.raises(ValueError, match="does not match the grid"):
        ss.v_phase_slope(phase[:-1], weights, grid, every)
    with pytest.raises(ValueError, match="does not match the grid"):
        ss.v_phase_slope(phase, weights[:-1], grid, every)
    negative = weights.copy()
    negative[0] = -1.0
    with pytest.raises(ValueError, match="non-negative"):
        ss.v_phase_slope(phase, negative, grid, every)

def test_wigner_csv_format(tmp_path, quad_mode, grid):
    # the export axes: 128 central times by 256 frequencies, every 16th bin at N=4096
    n = grid.n_points
    t_axis = grid.times[n // 4 : 3 * n // 4 : 16]
    om_axis = grid.omegas[::16]
    path = tmp_path / "wigner.csv"
    ss.save_wigner_csv(quad_mode, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "t_fs,omega_rad_per_fs,w_value"
    assert len(lines) == 1 + 128 * 256 == 1 + len(t_axis) * len(om_axis)
    t0, w0, v0 = (float(tok) for tok in lines[1].split(","))
    assert t0 == t_axis[0] and w0 == om_axis[0]
    assert v0 == ss.wigner(quad_mode, t_axis, om_axis)[0, 0]
    t1, w1, _ = (float(tok) for tok in lines[-1].split(","))
    assert t1 == t_axis[-1] and w1 == om_axis[-1]
