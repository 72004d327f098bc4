import math

import numpy as np
import pytest

import shearspec as ss
from shearspec.core import spectral_to_temporal_array

from conftest import OMEGA0, FWHM_W


def test_pulse_spec_validation():
    with pytest.raises(ValueError):
        ss.PulseSpec(-830.0, 8.0)
    with pytest.raises(ValueError):
        ss.PulseSpec(830.0, 0.0)
    with pytest.raises(ValueError):
        ss.PulseSpec(830.0, 8.0, "sawtooth")
    with pytest.raises(ValueError):
        ss.PulseSpec(830.0, 8.0, "tabulated", table_omega=(1.0,), table_phase=(0.0,))
    with pytest.raises(ValueError):
        ss.PulseSpec(830.0, 8.0, "tabulated", table_omega=(1.0, 2.0), table_phase=(0.0,))
    for amplitude in ((1.0, -0.5), (0.0, 0.0), (1.0,)):
        with pytest.raises(ValueError, match="table_amplitude"):
            ss.PulseSpec(830.0, 8.0, "tabulated", table_omega=(1.0, 2.0), table_phase=(0.0, 0.0),
                         table_amplitude=amplitude)



TABLE = {"table_omega": (2.2, 2.35), "table_phase": (0.0, 0.0)}


@pytest.mark.parametrize(
    "kind, fields, named",
    [("v_lambda", {"poly_coeffs": (0.0, 8.7e4)}, "poly_coeffs"),
     ("tabulated", {**TABLE, "poly_coeffs": (1.0,)}, "poly_coeffs"),
     ("polynomial", {"v_slope": 1050.0}, "v_slope"),
     ("tabulated", {**TABLE, "v_slope": -1100.0}, "v_slope"),
     ("polynomial", {"table_amplitude": (1.0, 1.0)}, "table_amplitude"),
     ("v_lambda", {"v_slope": 1050.0, "table_omega": (2.2, 2.35)}, "table_omega"),
     ("polynomial", {"table_phase": (0.0,)}, "table_phase")],
    ids=["poly under v_lambda", "poly under tabulated", "slope under polynomial",
         "slope under tabulated", "amplitude under polynomial", "omega under v_lambda",
         "phase under polynomial"],
)
def test_pulse_spec_refuses_a_field_its_kind_ignores(kind, fields, named):
    # synthesize would drop the field's phase without a word
    with pytest.raises(ValueError, match=f"{named} is ignored by phase_kind '{kind}'"):
        ss.PulseSpec(830.0, 8.0, kind, **fields)


def test_pulse_spec_takes_another_kinds_field_that_carries_nothing():
    spec = ss.PulseSpec(830.0, 8.0, "v_lambda", poly_coeffs=(0.0, -0.0, 0.0), v_slope=1050.0)
    assert spec.poly_coeffs == (0.0, 0.0, 0.0)
    assert ss.PulseSpec(830.0, 8.0, "tabulated", poly_coeffs=(), **TABLE).v_slope == 0.0

def test_pulse_spec_derived_quantities():
    spec = ss.PulseSpec(830.0, 8.0)
    assert spec.omega_center == pytest.approx(OMEGA0, rel=1e-14)
    assert spec.fwhm_omega == pytest.approx(FWHM_W, rel=1e-14)
    assert spec.fwhm_omega == pytest.approx(0.0218743, rel=1e-5)


def test_gaussian_spectrum_fwhm(grid):
    mode = ss.synthesize(ss.PulseSpec(830.0, 8.0), grid)
    inten = np.abs(mode.amplitude) ** 2
    peak = float(np.max(inten))
    for probe in (OMEGA0 - FWHM_W / 2, OMEGA0 + FWHM_W / 2):
        val = float(np.interp(probe, grid.omegas, inten))
        assert val == pytest.approx(0.5 * peak, rel=1e-3)
    assert np.sum(inten) * grid.omega_step == pytest.approx(1.0, rel=1e-12)


def test_polynomial_phase_applied(grid):
    coeffs = (120.0, 2.0e4, 1.0e5)
    mode = ss.synthesize(ss.PulseSpec(830.0, 8.0, "polynomial", coeffs), grid)
    x = grid.omegas - OMEGA0
    expected = coeffs[0] * x + coeffs[1] * x**2 / 2.0 + coeffs[2] * x**3 / 6.0
    got = np.unwrap(np.angle(mode.amplitude))
    core = np.abs(x) < 2.0 * FWHM_W
    d = got[core] - expected[core]
    d -= d[len(d) // 2]  # anchor constant
    assert np.max(np.abs(d)) < 1e-9


def test_grid_must_cover_pulse():
    tight = ss.make_grid(OMEGA0, 3.0 * FWHM_W, 64)
    with pytest.raises(ValueError):
        ss.synthesize(ss.PulseSpec(830.0, 8.0), tight)


def test_v_pulse_twin_lobes(grid):
    mode = ss.synthesize(ss.PulseSpec(830.0, 8.0, "v_lambda", v_slope=1050.0), grid)
    inten = np.abs(spectral_to_temporal_array(mode.amplitude, mode.grid)) ** 2
    times = grid.times
    left = int(np.argmax(np.where(times < 0, inten, 0.0)))
    right = int(np.argmax(np.where(times > 0, inten, 0.0)))
    # lobes sit at the group delays +-v_slope, within one time bin
    assert times[left] == pytest.approx(-1050.0, abs=grid.time_step)
    assert times[right] == pytest.approx(1050.0, abs=grid.time_step)
    assert inten[left] == pytest.approx(inten[right], rel=1e-9)


def test_tabulated_phase_exact_on_linear_table(grid):
    # a linear table interpolates exactly, so the synthesized phase is phi1*x
    table_w = (grid.omegas[0], grid.omegas[-1])
    phi1 = 250.0
    table_p = tuple(phi1 * (w - OMEGA0) for w in table_w)
    mode = ss.synthesize(
        ss.PulseSpec(830.0, 8.0, "tabulated", table_omega=table_w, table_phase=table_p),
        grid,
    )
    x = grid.omegas - OMEGA0
    got = np.unwrap(np.angle(mode.amplitude))
    core = np.abs(x) < 2.0 * FWHM_W
    d = got[core] - phi1 * x[core]
    d -= d[len(d) // 2]
    assert np.max(np.abs(d)) < 1e-9


def test_tabulated_amplitude_sampled_from_the_gaussian(grid):
    # a table on the grid's own bins interpolates exactly: the Gaussian mode comes back
    gaussian = ss.synthesize(ss.PulseSpec(830.0, 8.0), grid)
    n = grid.n_points
    spec = ss.PulseSpec(830.0, 8.0, "tabulated", table_omega=tuple(grid.omegas),
                        table_phase=(0.0,) * n, table_amplitude=tuple(gaussian.amplitude.real))
    mode = ss.synthesize(spec, grid)
    assert np.max(np.abs(mode.amplitude - gaussian.amplitude)) < 1e-12


def test_apply_delay_shifts_centroid(grid):
    # the delay convention ideal_interferogram uses for its delayed arm
    mode = ss.synthesize(ss.PulseSpec(830.0, 8.0), grid)
    moved = ss.SpectralMode(grid, mode.amplitude * np.exp(1j * grid.omegas * 300.0))
    ratio = moved.amplitude / mode.amplitude
    assert np.max(np.abs(ratio - np.exp(1j * grid.omegas * 300.0))) < 1e-12

    def centroid(m):
        w = np.abs(spectral_to_temporal_array(m.amplitude, m.grid)) ** 2
        return float(np.sum(m.grid.times * w) / np.sum(w))

    assert centroid(moved) - centroid(mode) == pytest.approx(300.0, abs=1e-6)
    assert np.sum(np.abs(moved.amplitude) ** 2) * grid.omega_step == pytest.approx(1.0, rel=1e-12)


def test_apply_shear_matches_trig_interpolant():
    rng = np.random.default_rng(7)
    g = ss.SpectralGrid(2.0, 4e-3, 128)
    v = rng.normal(size=128) + 1j * rng.normal(size=128)
    mode = ss.normalize(g, v)
    shear = 0.37 * g.omega_step  # deliberately off-grid
    out = ss.apply_shear(mode, -shear)
    direct = (g.time_step / math.sqrt(2.0 * math.pi)) * np.exp(
        1j * np.outer(g.omegas + shear, g.times)
    ) @ spectral_to_temporal_array(mode.amplitude, mode.grid)
    assert np.max(np.abs(out.amplitude - direct)) < 1e-10


def test_apply_shear_headroom_guard(grid, quad_mode):
    with pytest.raises(ValueError):
        ss.apply_shear(quad_mode, 0.3 * grid.span)
    same = ss.apply_shear(quad_mode, 0.0)
    assert np.array_equal(same.amplitude, quad_mode.amplitude)


def test_apply_shear_preserves_norm(grid, quad_mode):
    out = ss.apply_shear(quad_mode, -ss.shear_nm_to_omega(0.58, 830.0))
    assert np.sum(np.abs(out.amplitude) ** 2) * grid.omega_step == pytest.approx(1.0, rel=1e-9)
