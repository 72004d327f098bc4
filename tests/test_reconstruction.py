import json
import math
import warnings
from dataclasses import fields, replace
from fractions import Fraction

import numpy as np
import pytest

import shearspec as ss
from shearspec.errors import ConfigError, DataFormatError, ReconstructionError
from shearspec import reconstruction as rc
from shearspec.cli import main
from shearspec.core import spectral_to_temporal_array

from conftest import OMEGA0, FWHM_W, SHEAR, TAU, gaussian_weights
from stats import calibrated_sweep, fisher_bound, overlap_up_to_arrival, sweep

SIGMA = FWHM_W / (2.0 * math.sqrt(2.0 * math.log(2.0)))


def ref_coarse_delay_guess(interf):
    """The package's earlier, separate sideband search for a calibration
    without a delay: its own transform of plus - minus over the whole time
    axis, and the first maximum of |F| over t > 4 time steps."""
    if not float(np.sum(interf.plus) + np.sum(interf.minus)) > 0:
        raise ReconstructionError("record carries no intensity")
    f = np.abs(spectral_to_temporal_array(interf.plus - interf.minus, interf.grid))
    t = interf.grid.times
    sel = t > 4.0 * interf.grid.time_step
    if not np.any(sel):
        raise ReconstructionError("grid too small to locate a sideband")
    i = int(np.flatnonzero(sel)[np.argmax(f[sel])])
    if f[i] <= 0:
        raise ReconstructionError("record shows no positive-time sideband")
    return float(t[i])


# ---- settings ----------------------------------------------------------------

def test_settings_for_delay_defaults():
    st = ss.FtsiSettings()
    assert [f.name for f in fields(st)] == ["filter_width", "amplitude_floor"]
    assert st.filter_width is None
    support = st.width(TAU) * rc._SUPPORT_PER_WIDTH
    assert support == pytest.approx(2.0 * TAU / 3.0, rel=1e-12)
    # super-gaussian order 6: support where the window exceeds 1/1000
    assert support == pytest.approx(
        st.width(TAU) * (math.log(1000.0) / math.log(2.0)) ** (1.0 / 12.0), rel=1e-12
    )


def test_settings_validation():
    # one integrator, one order-6 super-Gaussian window, the envelope bias always corrected
    retired = {"integration_method": "concatenation", "filter_shape": "super_gaussian",
               "filter_order": 6, "correct_envelope_bias": True}
    for name, value in retired.items():
        with pytest.raises(TypeError):
            ss.FtsiSettings(**{name: value})
    with pytest.raises(ValueError):
        ss.FtsiSettings(amplitude_floor=-0.1)
    for width in (0.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            ss.FtsiSettings(filter_width=width)


# ---- spectrum + phase difference ----------------------------------------------

def test_recover_spectrum_is_summed_outputs(quad_record, quad_mode, settings):
    spec = rc._sideband(quad_record, settings, TAU).spectrum
    assert np.all(spec >= 0)
    assert np.sum(spec) * quad_record.grid.omega_step == pytest.approx(1.0, rel=1e-9)
    # fringes cancel: the sum tracks the mean single-arm spectrum
    direct = np.abs(quad_mode.amplitude) ** 2
    sheared = np.abs(ss.apply_shear(quad_mode, -SHEAR).amplitude) ** 2
    assert np.max(np.abs(spec - 0.5 * (direct + sheared))) < 1e-9


def test_sideband_snr_needs_a_noise_floor(quad_mode, quad_record, settings):
    # a noiseless record's floor is its rounding noise, so its SNR is finite,
    # the zero-shear calibration record searched without a delay included
    assert math.isfinite(rc._sideband(quad_record, settings, TAU).snr)
    zero_shear = ss.ideal_interferogram(quad_mode, ss.ShearConfig(shear=0.0, delay=TAU))
    assert math.isfinite(rc._sideband(zero_shear, settings, None).snr)
    # at 29 ps, near the 29.4 ps longest delay, no bin of |F| lies 2*width
    # from both t = 0 and the peak: no floor, so no SNR
    far = ss.ideal_interferogram(quad_mode, ss.ShearConfig(shear=SHEAR, delay=29000.0))
    with pytest.raises(ReconstructionError, match="no noise floor.*shorter delay or more n_points"):
        rc._sideband(far, settings, 29000.0)


def test_extract_phase_difference_analytic(quad_record, settings, grid):
    dphi, sb = ss.extract_phase_difference(quad_record, settings, TAU)
    x = grid.omegas - OMEGA0
    p2, p3 = 8.7e4, 5.0e5
    pred = -p2 * (SHEAR * x + SHEAR**2 / 2.0) - p3 * (
        3.0 * x**2 * SHEAR + 3.0 * x * SHEAR**2 + SHEAR**3
    ) / 6.0
    core = np.abs(x) < 2.0 * SIGMA
    assert np.max(np.abs(dphi[core] - pred[core])) < 1e-9
    assert np.all(sb.valid[core])
    assert sb.visibility == pytest.approx(0.98944, abs=1e-3)
    assert sb.t_peak == pytest.approx(TAU, abs=300.0)
    assert sb.snr > 1e6


def test_reconstruct_passes_fringe_numbers_through(quad_record, shear_cfg, settings):
    rec = ss.detect_counts(quad_record, 1_000_000, 3)
    dphi, sb = ss.extract_phase_difference(rec, settings, TAU)
    out = ss.reconstruct(rec, shear_cfg, settings)
    fringe = {"visibility": sb.visibility, "sideband_snr": sb.snr, "sideband_time_fs": sb.t_peak}
    for key, value in fringe.items():
        assert out.diagnostics[key] == value
    assert np.array_equal(out.valid_mask, sb.valid) and not sb.valid.all()
    assert np.array_equal(out.phase_difference, dphi)


def test_filter_collision(quad_record):
    wide = ss.FtsiSettings(filter_width=TAU / 1.1)
    with pytest.raises(ReconstructionError, match="DC / mirror-sideband region"):
        ss.extract_phase_difference(quad_record, wide, TAU)


def test_flat_record_has_no_sideband(grid, quad_record, settings):
    flat = ss.Interferogram(
        grid, quad_record.plus + quad_record.minus, quad_record.plus + quad_record.minus
    )
    with pytest.raises(ReconstructionError, match="no sideband energy"):
        ss.extract_phase_difference(flat, settings, TAU)


def test_zero_record_is_degenerate(grid, quad_record, settings):
    zero = ss.Interferogram(grid, np.zeros(grid.n_points), np.zeros(grid.n_points))
    with pytest.raises(ReconstructionError, match="record carries no intensity"):
        ss.extract_phase_difference(zero, settings, TAU)


def test_extract_rejects_bad_tau(quad_record, settings):
    with pytest.raises(ConfigError):
        ss.extract_phase_difference(quad_record, settings, -10.0)
    # fringes need >= 4 samples per period 2*pi/tau
    too_fast = 2.0 * math.pi / quad_record.grid.omega_step
    with pytest.raises(ConfigError):
        ss.extract_phase_difference(
            quad_record, ss.FtsiSettings(), too_fast
        )
    # the search window [tau - width, tau + width] must end short of t = 0
    with pytest.raises(ConfigError, match="below the delay"):
        ss.extract_phase_difference(quad_record, ss.FtsiSettings(filter_width=TAU), TAU)


# ---- integration ---------------------------------------------------------------

def test_integrate_constant_gives_line(grid):
    c = 0.3
    ph = ss.integrate_phase(np.full(grid.n_points, c), SHEAR, grid, gaussian_weights(grid))
    x = grid.omegas - 0.5 * (grid.omegas[0] + grid.omegas[-1])
    slope = np.polyfit(x, ph, 1)[0]
    assert slope == pytest.approx(-c / SHEAR, rel=1e-12)
    resid = ph - np.polyval(np.polyfit(x, ph, 1), x)
    assert np.max(np.abs(resid)) < 1e-9


def test_integrate_linear_recovers_quadratic(grid):
    # dphi for phi = phi2 x^2/2: -phi2*(W x + W^2/2); each ladder is exact at
    # its rungs, and linear interpolation W/4 apart bends the fit very little
    x = grid.omegas - OMEGA0
    p2 = 8.7e4
    dphi = -p2 * (SHEAR * x + SHEAR**2 / 2.0)
    weights = gaussian_weights(grid)
    ph = ss.integrate_phase(dphi, SHEAR, grid, weights)
    fit = ss.fit_phase_polynomial(ph, weights, grid, np.ones(grid.n_points, dtype=bool))
    assert fit.coefficient(2) == pytest.approx(p2, abs=0.01)
    assert fit.coefficient(3) == pytest.approx(0.0, abs=0.05)


@pytest.mark.parametrize("factor", [1.0, -1.0, 0.02, 3.0], ids=["W", "-W", "sub-bin", "3W"])
def test_integrate_cubic_phase_at_any_shear(grid, factor):
    # one ladder interpolated between rungs 3W apart reads an overlap of 0.9945 here
    x = grid.omegas - OMEGA0
    truth = 8.7e4 * x**2 / 2.0 + 5.0e5 * x**3 / 6.0
    shear = factor * SHEAR
    dphi = truth - (8.7e4 * (x + shear) ** 2 / 2.0 + 5.0e5 * (x + shear) ** 3 / 6.0)
    weights = gaussian_weights(grid)
    ph = ss.integrate_phase(dphi, shear, grid, weights)
    overlap = abs(np.sum(weights * np.exp(1j * (ph - truth)))) ** 2 / np.sum(weights) ** 2
    assert overlap > 0.9999


def test_integrate_is_linear_in_dphi(grid):
    # the same weights give the same linear map phi = K dphi
    rng = np.random.default_rng(5)
    d1, d2 = rng.normal(size=(2, grid.n_points))
    weights = gaussian_weights(grid)
    phi1, phi2 = (ss.integrate_phase(d, SHEAR, grid, weights) for d in (d1, d2))
    both = ss.integrate_phase(2.5 * d1 - 0.7 * d2, SHEAR, grid, weights)
    assert np.max(np.abs(both - (2.5 * phi1 - 0.7 * phi2))) < 1e-12 * np.max(np.abs(both))


@pytest.mark.parametrize("shear", [SHEAR, -SHEAR], ids=["W", "-W"])
def test_integrate_continues_at_the_edge_slope(grid, shear):
    # weights only in the core: beyond the lattice phi runs on at -dphi/W of
    # the flat, bridged wings, whatever the phase inside
    x = grid.omegas - OMEGA0
    core = np.abs(x) < 2.0 * SIGMA
    dphi = np.interp(x, x[core], np.sin(x[core] / SIGMA))
    weights = np.where(core, gaussian_weights(grid), 0.0)
    ph = ss.integrate_phase(dphi, shear, grid, weights)
    step = grid.omega_step
    for wing in (x < -2.0 * SIGMA - abs(shear), x > 2.0 * SIGMA + abs(shear)):
        slopes = np.diff(ph[wing]) / step
        assert np.allclose(slopes, -dphi[wing][0] / shear, rtol=1e-9, atol=0.0)


def test_integrate_validation(grid):
    weights = gaussian_weights(grid)
    # the lattice stays O(n_points), and the shear within the grid's headroom
    for shear in (0.0, 0.2 * grid.omega_step, math.nan, 0.25 * grid.span, -math.inf):
        with pytest.raises(ConfigError):
            ss.integrate_phase(np.zeros(grid.n_points), shear, grid, weights)
    with pytest.raises(ValueError):
        ss.integrate_phase(np.zeros(16), SHEAR, grid, weights)
    with pytest.raises(ValueError):
        ss.integrate_phase(np.zeros(grid.n_points), SHEAR, grid, weights[:16])
    with pytest.raises(ValueError):
        ss.integrate_phase(np.zeros(grid.n_points), SHEAR, grid, np.zeros(grid.n_points))


# ---- polynomial fit ------------------------------------------------------------

def test_fit_exact_cubic(grid):
    # the fit expands about the center bin, which make_grid puts at omega0
    x = grid.omegas - OMEGA0
    phase = 120.0 * x + 8.7e4 * x**2 / 2.0 + 5.0e5 * x**3 / 6.0
    fit = ss.fit_phase_polynomial(
        phase, gaussian_weights(grid), grid, np.ones(grid.n_points, dtype=bool)
    )
    assert fit.coefficient(1) == pytest.approx(120.0, rel=1e-9)
    assert fit.coefficient(2) == pytest.approx(8.7e4, rel=1e-9)
    assert fit.coefficient(3) == pytest.approx(5.0e5, rel=1e-9)
    for n in (1, 2, 3):
        assert fit.stderr(n) >= 0.0
    with pytest.raises(ValueError):
        fit.coefficient(4)
    with pytest.raises(ValueError, match="order 4"):
        fit.stderr(4)


def test_fit_needs_enough_bins(grid):
    weights = np.zeros(grid.n_points)
    weights[:3] = 1.0
    with pytest.raises(ValueError):
        ss.fit_phase_polynomial(
            np.zeros(grid.n_points), weights, grid, np.ones(grid.n_points, dtype=bool)
        )


def ref_wls_svd(columns, y, weights):
    """The WLS solve the centred Gram solve replaced: an SVD lstsq of the
    weighted design (constant column first), errors from sigma^2 pinv(A^T A)."""
    sw = np.sqrt(weights)
    a = np.column_stack([np.ones_like(y), *columns]) * sw[:, None]
    b = y * sw
    coef = np.linalg.lstsq(a, b, rcond=None)[0]
    resid = b - a @ coef
    cov = float(resid @ resid) / (len(y) - a.shape[1]) * np.linalg.pinv(a.T @ a)
    return coef, np.sqrt(np.clip(np.diag(cov), 0.0, None))


def exact_line_fit(x, y, weights):
    """Slope and its standard error of the WLS line y = c + s*x, in exact
    rational arithmetic on the float inputs, rounded once at the end."""
    xs, ys, ws = ([Fraction(v) for v in a.tolist()] for a in (x, y, weights))
    wsum = sum(ws)
    x_mean = sum(w * v for w, v in zip(ws, xs)) / wsum
    y_mean = sum(w * v for w, v in zip(ws, ys)) / wsum
    dx = [v - x_mean for v in xs]
    sxx = sum(w * d * d for w, d in zip(ws, dx))
    slope = sum(w * d * v for w, d, v in zip(ws, dx, ys)) / sxx
    rss = sum(w * (v - y_mean - slope * d) ** 2 for w, d, v in zip(ws, dx, ys))
    return float(slope), math.sqrt(rss / (len(xs) - 2) / sxx)


@pytest.mark.parametrize("n", [4096, 65536])
@pytest.mark.parametrize("name", ["quadratic", "compensated", "v-phase", "lambda-phase"])
def test_weighted_lstsq_matches_the_svd_solve(name, n):
    # the Taylor and V-slope designs of each preset's counts record, on the
    # bins fit_phase_polynomial and v_phase_slope fit
    cfg = ss.preset(name)
    cfg = replace(cfg, grid=replace(cfg.grid, n_points=n))
    sc = ss.shear_config(cfg)
    ideal = ss.ideal_interferogram(ss.synthesize(cfg.pulse, ss.build_grid(cfg)), sc)
    rec = ss.detect_counts(ideal, cfg.interferometer.total_counts, cfg.interferometer.seed)
    spectrum = (rec.plus + rec.minus) / (
        float(np.sum(rec.plus) + np.sum(rec.minus)) * rec.grid.omega_step
    )
    dphi, sb = rc.extract_phase_difference(rec, ss.ftsi_settings(cfg), sc.delay)
    mask = sb.valid
    phase = rc.integrate_phase(dphi, sc.shear, rec.grid, spectrum * mask)
    use = np.flatnonzero((spectrum > 0) & mask)
    x = rec.grid.omegas[use] - rec.grid.omega_center
    for basis in (rc._taylor_basis, lambda x: [np.abs(x), x]):
        coef, err = rc.masked_fit(phase, spectrum, rec.grid, mask, basis, 5, "the design")
        want_coef, want_err = ref_wls_svd(basis(x), phase[use], spectrum[use])
        assert coef == pytest.approx(want_coef, rel=1e-10, abs=0)
        assert err == pytest.approx(want_err, rel=1e-12, abs=0)
    fit = ss.fit_phase_polynomial(phase, spectrum, rec.grid, mask)
    coef, err = rc.masked_fit(phase, spectrum, rec.grid, mask, rc._taylor_basis, 5, "the design")
    assert fit == rc.PhaseFit(tuple(coef[1:]), tuple(err[1:]))


def test_weighted_lstsq_fits_the_calibration_line_exactly(quad_mode, settings):
    # calibrate_delay's line: masked_fit of the carrier-free dphi against
    # omega - omega0 over the valid bins, weighted by |Z|^2.  The slope is
    # the delay's small offset from the carrier, so it is held to the exact
    # fit along with its error, and the coefficients to an SVD solve
    zero_shear = ss.ShearConfig(shear=0.0, delay=TAU)
    rec = ss.detect_counts(ss.ideal_interferogram(quad_mode, zero_shear), 1_000_000,
                           ss.derive_seed(7, "counts", 0))
    dphi, sb = rc.extract_phase_difference(rec, settings, TAU)
    weights = np.abs(sb.z) ** 2
    coef, err = rc.masked_fit(dphi, weights, rec.grid, sb.valid, lambda x: [x], 3, "the delay")
    use = sb.valid & (weights > 0)
    x, y, w = rec.grid.omegas[use] - rec.grid.omega_center, dphi[use], weights[use]
    assert coef == pytest.approx(ref_wls_svd([x], y, w)[0], rel=1e-10, abs=0)
    slope, slope_err = exact_line_fit(x, y, w)
    assert coef[1] == pytest.approx(slope, rel=1e-12, abs=0)
    assert err[1] == pytest.approx(slope_err, rel=1e-12, abs=0)
    est = ss.calibrate_delay(rec, settings, TAU)
    assert (est.tau_fs, est.stderr_fs) == (sb.tau + coef[1], err[1])


# ---- full reconstruction -------------------------------------------------------

def test_noiseless_presets_reach_reference_fidelity():
    expected = {
        "quadratic": 0.99975,
        "v-phase": 0.99956,
        "lambda-phase": 0.99947,
    }
    for name, target in expected.items():
        cfg = ss.preset(name)
        grid = ss.build_grid(cfg)
        mode = ss.synthesize(cfg.pulse, grid)
        icfg = ss.shear_config(cfg)
        rec = ss.ideal_interferogram(mode, icfg)
        out = ss.reconstruct(rec, icfg, ss.ftsi_settings(cfg))
        assert ss.mode_overlap(out.mode(), mode) == pytest.approx(target, abs=5e-4), name


def test_preset_reconstruction_settings():
    for name in ss.PRESETS:
        assert ss.ftsi_settings(ss.preset(name)) == ss.FtsiSettings(), name


@pytest.mark.parametrize("name", sorted(ss.PRESETS))
def test_every_preset_reaches_fidelity_under_the_default_settings(tmp_path, name):
    # one integrator: the V/Lambda kinks need no preset setting (midpoint
    # integration read 0.9978/0.9976 on them).  The presets keep the default
    # settings, and the overlap is trial 0's with its own truth: for
    # `compensated`, the stage-2 pulse.
    assert main(["pipeline", "--preset", name, "--noiseless", "--quiet", "--out",
                 str(tmp_path)]) == 0
    summary = json.loads((tmp_path / "summary.json").read_text(encoding="utf-8"))
    assert summary["overlap_with_truth"] >= 0.9997


def test_noiseless_quadratic_coefficients(quad_record, shear_cfg, settings):
    out = ss.reconstruct(quad_record, shear_cfg, settings)
    assert out.coefficients.coefficient(2) == pytest.approx(8.7e4, abs=1.0)
    assert out.coefficients.coefficient(3) == pytest.approx(5.0e5, abs=500.0)
    assert out.diagnostics["envelope_bias_corrected"] is True
    assert out.diagnostics["tau_fs_used"] == TAU


def test_noiseless_quadratic_at_65536_points(quad_pulse, shear_cfg, settings):
    # the transforms above 16384 points, where numpy computes the products
    # of temporaries in place (temporary elision)
    mode = ss.synthesize(quad_pulse, ss.make_grid(OMEGA0, 10.0 * FWHM_W, 65536))
    out = ss.reconstruct(ss.ideal_interferogram(mode, shear_cfg), shear_cfg, settings)
    assert out.coefficients.coefficient(2) == pytest.approx(8.7e4, abs=5.0)
    assert ss.mode_overlap(out.mode(), mode) > 0.999


@pytest.mark.parametrize("n", [4096, 65536])
def test_window_support_limited_matches_dense(n):
    # the sideband stage evaluates the window only on its support mask:
    # the dense window is exactly 0.0 off it and the same on it
    t = ss.make_grid(OMEGA0, 10.0 * FWHM_W, n).times
    w = ss.FtsiSettings().width(TAU)
    for c in (t[0] + 0.3 * TAU, t[-1] - 0.3 * TAU, TAU):
        dense = np.exp(-math.log(2.0) * ((t - c) / w) ** 12)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x = (t - c) / w
            on = np.abs(x) < rc._WINDOW_REACH
            got = np.exp(-math.log(2.0) * x[on] ** (2 * rc.FILTER_ORDER))
        assert not np.any(dense[~on]), c
        assert got.tobytes() == dense[on].tobytes(), c


def test_group_delay_branch(grid, shear_cfg, settings):
    # phi1 within the unambiguous window comes back exactly
    mode = ss.synthesize(ss.PulseSpec(830.0, 8.0, "polynomial", (800.0,)), grid)
    rec = ss.ideal_interferogram(mode, shear_cfg)
    out = ss.reconstruct(rec, shear_cfg, settings)
    assert out.coefficients.coefficient(1) == pytest.approx(800.0, abs=2.0)
    assert ss.mode_overlap(out.mode(), mode) > 0.999

    # beyond +-pi/shear the record is periodic: 2500 fs aliases down by 2*pi/W
    mode2 = ss.synthesize(ss.PulseSpec(830.0, 8.0, "polynomial", (2500.0,)), grid)
    rec2 = ss.ideal_interferogram(mode2, shear_cfg)
    out2 = ss.reconstruct(rec2, shear_cfg, settings)
    alias = 2500.0 - 2.0 * math.pi / SHEAR
    assert out2.coefficients.coefficient(1) == pytest.approx(alias, abs=3.0)


def test_envelope_bias_correction(quad_record, quad_mode, shear_cfg, grid):
    def centroid(amp):
        w = amp**2
        return float(np.sum(grid.omegas * w) / np.sum(w))

    truth = centroid(np.abs(quad_mode.amplitude))
    on = ss.reconstruct(quad_record, shear_cfg, ss.FtsiSettings())
    # the summed outputs, uncorrected, carry the -W/2 bias that reconstruct removes
    total = float(np.sum(quad_record.plus) + np.sum(quad_record.minus))
    off = np.sqrt((quad_record.plus + quad_record.minus) / (total * grid.omega_step))
    assert centroid(on.amplitude_abs) - truth == pytest.approx(0.0, abs=1e-9)
    assert centroid(off) - truth == pytest.approx(-SHEAR / 2.0, rel=1e-5)


def test_carrier_error_adds_quadratic_phase(quad_record, shear_cfg, settings):
    # assumed tau high by dtau adds (omega-omega0)^2 * dtau / (2 W)
    out = ss.reconstruct(quad_record, shear_cfg, settings)
    dtau = 50.0
    wrong = ss.ShearConfig(shear=SHEAR, delay=TAU + dtau)
    out_wrong = ss.reconstruct(quad_record, wrong, ss.FtsiSettings())
    added = out_wrong.coefficients.coefficient(2) - out.coefficients.coefficient(2)
    assert added == pytest.approx(dtau / SHEAR, rel=1e-3)


def test_amplitude_floor_masks_wings(quad_record, shear_cfg):
    strict = ss.reconstruct(
        quad_record, shear_cfg, ss.FtsiSettings(amplitude_floor=0.05)
    )
    loose = ss.reconstruct(
        quad_record, shear_cfg, ss.FtsiSettings(amplitude_floor=0.001)
    )
    assert int(strict.valid_mask.sum()) < int(loose.valid_mask.sum())


# ---- delay calibration ---------------------------------------------------------

def test_fisher_bound_of_the_quadratic_record(quad_record, quad_mode):
    # the quadratic preset's record: N = 4096, 0.58 nm shear, tau = 10 ps
    bound = fisher_bound(quad_record, 1e6, SHEAR, quad_mode)
    assert bound[0] == pytest.approx(0.796, abs=5e-4)
    assert bound[1] == pytest.approx(72.74, abs=0.1)
    assert bound[2] == pytest.approx(1.126e4, abs=5)
    # the bound scales as 1/sqrt(counts)
    low = fisher_bound(quad_record, 1e4, SHEAR, quad_mode)
    assert low == pytest.approx(np.sqrt(100.0) * bound, rel=1e-12)


@pytest.mark.parametrize("counts, ceiling", [(1e6, 1.7), (1e4, 3.5)])
def test_quadratic_phi2_scatter_against_the_bound(quad_record, quad_mode, counts, ceiling):
    # 40 seeds: sd / bound reads 104.6 / 72.74 = 1.44 at 1e6 counts and
    # 2158 / 727.4 = 2.97 at 1e4; a sharper window or error model only lowers it
    phi2 = sweep("quadratic", counts, range(40), lambda r, truth: r.coefficients.coefficient(2))
    sd, bound = phi2.std(ddof=1), fisher_bound(quad_record, counts, SHEAR, quad_mode)[1]
    assert abs(phi2.mean() - 8.7e4) <= 3.0 * sd / np.sqrt(len(phi2))
    # no unbiased estimator beats the Cramer-Rao bound; 0.9 allows the sd's own scatter
    assert 0.9 * bound <= sd <= ceiling * bound


def test_calibrated_delay_error_moves_phi1_by_omega0_over_the_shear(quad_record, quad_mode):
    # 40 seeds at 1e6 counts, each calibrated on its own zero-shear record:
    # tau reads 10000.029 +- 0.151 fs (sd), while its mean reported stderr,
    # 0.045 fs, is 3.4x below that scatter; phi2 sd 112.3 against the bound
    # 72.74 (1.54x)
    rows = calibrated_sweep("quadratic", 1e6, range(40), lambda r, truth, cal: (
        cal.tau_fs, r.coefficients.coefficient(1), r.coefficients.coefficient(2),
        overlap_up_to_arrival(r.mode(), truth)))
    tau, phi1, phi2, arrival = rows.T
    assert abs(tau.mean() - TAU) <= 3.0 * tau.std(ddof=1) / np.sqrt(len(tau))
    assert tau.std(ddof=1) <= 0.25
    bound = fisher_bound(quad_record, 1e6, SHEAR, quad_mode)[1]
    assert 0.9 * bound <= phi2.std(ddof=1) <= 2.0 * bound
    # A delay error dtau reconstructs the carrier line omega0 * dtau as a
    # linear dphi, so phi1 moves by omega0/W = 1431.0 fs per fs (fitted
    # 1431.6, correlation 0.99999).  Once reconstruct carries the
    # calibration's carrier line, phi1 no longer follows tau: this
    # expectation then becomes a phi1 sd of at most 5 fs and a median overlap
    # with the truth of at least 0.998 (today 216.7 fs and 0.124).
    slope = np.polyfit(tau - TAU, phi1, 1)[0]
    assert slope == pytest.approx(OMEGA0 / SHEAR, rel=0.01)
    assert np.corrcoef(tau, phi1)[0, 1] >= 0.999
    # Only the arrival time is lost: up to it, the calibrated shape already
    # matches the truth (median 0.99919, minimum 0.99893, against mode_overlap's
    # 0.124 and 2.5e-7).  overlap_up_to_arrival is the fidelity for analyze
    # --truth to report next to overlap_with_truth once the carrier line is
    # carried; that clause's median of 0.998 is then read on both.
    assert np.median(arrival) >= 0.998
    assert arrival.min() >= 0.995


@pytest.mark.parametrize("shift_fs, ceiling", [(200.0, 0.04), (1234.5, 1e-30)])
def test_overlap_up_to_arrival_forgives_a_time_shift(quad_mode, shift_fs, ceiling):
    # a linear spectral phase x * t0 only delays the pulse: mode_overlap
    # falls with the shift (0.032 and 1.3e-32), the overlap up to arrival
    # stays 1 (1 - 1.6e-8 and 1 - 1.3e-8)
    x = quad_mode.grid.omegas - quad_mode.grid.omega_center
    late = ss.SpectralMode(quad_mode.grid, quad_mode.amplitude * np.exp(1j * x * shift_fs))
    assert ss.mode_overlap(quad_mode, late) <= ceiling
    assert overlap_up_to_arrival(quad_mode, late) >= 1.0 - 1e-6


def test_calibrate_noiseless_exact(quad_mode, settings):
    zero_shear = ss.ShearConfig(shear=0.0, delay=TAU)
    rec = ss.ideal_interferogram(quad_mode, zero_shear)
    est = ss.calibrate_delay(rec, settings, TAU)
    assert est.tau_fs == pytest.approx(TAU, rel=1e-12)
    assert est.stderr_fs >= 0.0
    assert est.sideband_snr > 1e6


def test_calibrate_with_counts(quad_mode, settings):
    zero_shear = ss.ShearConfig(shear=0.0, delay=TAU)
    ideal = ss.ideal_interferogram(quad_mode, zero_shear)
    for seed in range(10):
        rec = ss.detect_counts(ideal, 1_000_000, ss.derive_seed(7, "counts", seed))
        est = ss.calibrate_delay(rec, settings, TAU)
        assert abs(est.tau_fs - TAU) / TAU < 1e-3


def test_calibrate_starved_counts(quad_mode, settings):
    zero_shear = ss.ShearConfig(shear=0.0, delay=TAU)
    starved = ss.detect_counts(ss.ideal_interferogram(quad_mode, zero_shear), 20, 1)
    with pytest.raises(ReconstructionError, match="calibration record unusable"):
        ss.calibrate_delay(starved, settings, TAU)


def test_calibrate_without_a_delay_searches_the_record(quad_mode, settings):
    # the CLI's --calibrate-from with no --tau-fs: the search starts at the
    # record's own sideband, and a record without counts is named as the
    # calibration record
    ideal = ss.ideal_interferogram(quad_mode, ss.ShearConfig(shear=0.0, delay=TAU))
    guess = ref_coarse_delay_guess(ideal)
    assert ss.calibrate_delay(ideal, settings, None) == ss.calibrate_delay(ideal, settings, guess)
    n = quad_mode.grid.n_points
    zero = ss.Interferogram(quad_mode.grid, np.zeros(n), np.zeros(n))
    with pytest.raises(ReconstructionError,
                       match="calibration record unusable: record carries no intensity"):
        ss.calibrate_delay(zero, settings, None)


def test_calibrate_needs_eight_valid_bins(quad_mode, settings):
    # five bins far above the rest leave only them over the amplitude floor;
    # the difference record, and so its sideband, is unchanged
    zero_shear = ss.ShearConfig(shear=0.0, delay=TAU)
    rec = ss.ideal_interferogram(quad_mode, zero_shear)
    center = quad_mode.grid.n_points // 2
    spike = np.zeros(quad_mode.grid.n_points)
    spike[center - 2 : center + 3] = 1e6 * float(np.max(rec.plus + rec.minus))
    spiked = ss.Interferogram(rec.grid, rec.plus + spike, rec.minus + spike)
    assert int(np.sum(spiked.plus + spiked.minus >= settings.amplitude_floor
                      * np.max(spiked.plus + spiked.minus))) == 5
    for tau in (TAU, None):
        with pytest.raises(ReconstructionError,
                           match="calibration record unusable: fewer than 8 bins"):
            ss.calibrate_delay(spiked, settings, tau)
    # the bin check comes first: the five bins alone, in both outputs, carry
    # no sideband either
    with pytest.raises(ReconstructionError,
                       match="calibration record unusable: fewer than 8 bins"):
        ss.calibrate_delay(ss.Interferogram(rec.grid, spike, spike), settings, None)


def test_coarse_delay_guess(quad_mode, quad_record, settings):
    # without a delay the sideband stage centres its search where the earlier
    # separate search did, on its own transform of the record
    ideal = ss.ideal_interferogram(quad_mode, ss.ShearConfig(shear=0.0, delay=TAU))
    records = [ideal, quad_record] + [ss.detect_counts(ideal, counts, seed)
                                      for counts in (300, 1_000_000) for seed in range(3)]
    for rec in records:
        guess = ref_coarse_delay_guess(rec)
        assert guess == pytest.approx(TAU, rel=0.05)
        assert rc._sideband(rec, settings, None).tau == guess
    grid = quad_mode.grid
    zero = ss.Interferogram(grid, np.zeros(grid.n_points), np.zeros(grid.n_points))
    flat = ss.Interferogram(grid, quad_record.plus + quad_record.minus,
                            quad_record.plus + quad_record.minus)
    # eight bins reach t = 3 time steps at most
    tiny = ss.Interferogram(ss.SpectralGrid(2.0, 0.01, 8), np.ones(8), np.full(8, 0.5))
    for rec, message in ((zero, "record carries no intensity"),
                         (flat, "record shows no positive-time sideband"),
                         (tiny, "grid too small to locate a sideband")):
        with pytest.raises(ReconstructionError, match=message):
            ref_coarse_delay_guess(rec)
        with pytest.raises(ReconstructionError, match="calibration record unusable: " + message):
            ss.calibrate_delay(rec, settings, None)


def test_calibration_refuses_a_fit_outside_its_window(quad_mode, settings):
    # |F| of a zero-shear record peaks within half a time step of the delay,
    # so a fitted delay more than a step from the peak bin is refused: at 100
    # counts each of these 20 seeds is refused or lands within two steps of
    # the delay; at 1e6 counts every fit lies within a femtosecond of it
    ideal = ss.ideal_interferogram(quad_mode, ss.ShearConfig(shear=0.0, delay=TAU))
    step = ideal.grid.time_step
    for tau in (TAU, None):
        off_peak = 0
        for seed in range(20):
            try:
                est = ss.calibrate_delay(ss.detect_counts(ideal, 100, seed), settings, tau)
            except ReconstructionError as exc:
                assert str(exc).startswith("calibration record unusable: ")
                off_peak += "from the sideband peak" in str(exc)
            else:
                assert abs(est.tau_fs - TAU) <= 2.0 * step
            est = ss.calibrate_delay(ss.detect_counts(ideal, 1_000_000, seed), settings, tau)
            assert abs(est.tau_fs - TAU) < 1.0
        assert off_peak == 13
    with pytest.raises(ReconstructionError, match=r"calibration record unusable: fitted delay "
                       r"9461\.6 fs lies more than a time step \(28\.7 fs\) from the sideband "
                       r"peak at 10024\.7 fs"):
        ss.calibrate_delay(ss.detect_counts(ideal, 100, 17), settings, TAU)


def test_calibration_lands_within_two_time_steps(quad_mode, settings):
    # 40 zero-shear seeds at 300 and 1e3 counts: every delay accepted lies
    # within two time steps of the truth, and most seeds are accepted
    ideal = ss.ideal_interferogram(quad_mode, ss.ShearConfig(shear=0.0, delay=TAU))
    for counts, least in ((300, 20), (1000, 35)):
        accepted = 0
        for seed in range(40):
            rec = ss.detect_counts(ideal, counts, ss.derive_seed(seed, "counts", 0))
            try:
                est = ss.calibrate_delay(rec, settings, None)
            except ReconstructionError as exc:
                assert str(exc).startswith("calibration record unusable: ")
                continue
            assert abs(est.tau_fs - TAU) <= 2.0 * rec.grid.time_step
            accepted += 1
        assert accepted >= least


def test_calibration_of_a_fringe_free_record(quad_mode, settings):
    # plus = minus: the strongest |F| bin past 4 time steps can lie beyond
    # pi / (2 * omega_step), where the fringes are unresolvable, so the search
    # stops there; each record then returns or is refused as a calibration
    # record, never as a config error
    ideal = ss.ideal_interferogram(quad_mode, ss.ShearConfig(shear=0.0, delay=TAU))
    half = 0.5 * (ideal.plus + ideal.minus)
    flat = ss.Interferogram(ideal.grid, half, half.copy())
    for seed in range(40):
        try:
            ss.calibrate_delay(ss.detect_counts(flat, 1_000_000, seed), settings, None)
        except ReconstructionError as exc:
            assert str(exc).startswith("calibration record unusable: ")


# ---- serialization -------------------------------------------------------------

def test_result_roundtrip(tmp_path, quad_record, shear_cfg, settings):
    out = ss.reconstruct(quad_record, shear_cfg, settings)
    path = tmp_path / "result.json"
    ss.save_result(out, path)
    back = ss.load_result(path)
    assert back.grid == out.grid
    assert np.max(np.abs(back.amplitude_abs - out.amplitude_abs)) < 1e-15
    assert np.max(np.abs(back.phase_rad - out.phase_rad)) < 1e-15
    assert np.array_equal(back.valid_mask, out.valid_mask)
    assert back.coefficients.coefficient(2) == out.coefficients.coefficient(2)
    assert back.diagnostics["visibility"] == out.diagnostics["visibility"]


def test_result_bytes_deterministic(tmp_path, quad_record, shear_cfg, settings):
    out = ss.reconstruct(quad_record, shear_cfg, settings)
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    ss.save_result(out, a)
    ss.save_result(out, b)
    assert a.read_bytes() == b.read_bytes()


def test_result_stores_read_only_copies(quad_record, shear_cfg, settings):
    out = ss.reconstruct(quad_record, shear_cfg, settings)
    arrays = {name: np.array(getattr(out, name)) for name in
              ("amplitude_abs", "phase_rad", "valid_mask", "phase_difference")}
    copy = ss.ReconstructionResult(out.grid, **arrays, coefficients=out.coefficients)
    for name, arr in arrays.items():
        arr[0] = not arr[0] if arr.dtype == bool else arr[0] + 1.0
        assert arr.flags.writeable, name
        stored = getattr(copy, name)
        assert stored[0] == getattr(out, name)[0], name
        assert not stored.flags.writeable, name


@pytest.mark.parametrize("n_points", [4096.9, "4096"])
def test_result_load_rejects_non_integral_n_points(tmp_path, quad_record, shear_cfg, settings,
                                                   n_points):
    path = tmp_path / "result.json"
    ss.save_result(ss.reconstruct(quad_record, shear_cfg, settings), path)
    data = json.loads(path.read_text(encoding="utf-8"))
    data["grid"]["n_points"] = n_points
    path.write_text(json.dumps(data), encoding="utf-8")
    with pytest.raises(DataFormatError, match="n_points"):
        ss.load_result(path)


@pytest.mark.parametrize(
    "name,edit",
    [
        ("amplitude_abs", lambda vals: [repr(vals[0])] + vals[1:]),
        ("phase_rad", lambda vals: [True] + vals[1:]),
        ("valid_mask", lambda vals: ["false"] * len(vals)),
        ("valid_mask", lambda vals: [int(v) for v in vals]),
    ],
    ids=["string", "bool-in-float", "string-mask", "integer-mask"],
)
def test_result_load_takes_the_number_rule_for_the_arrays(tmp_path, quad_record, shear_cfg,
                                                          settings, name, edit):
    path = tmp_path / "result.json"
    ss.save_result(ss.reconstruct(quad_record, shear_cfg, settings), path)
    data = json.loads(path.read_text(encoding="utf-8"))
    data[name] = edit(data[name])
    path.write_text(json.dumps(data), encoding="utf-8")
    with pytest.raises(DataFormatError, match=name):
        ss.load_result(path)


def test_result_load_rejects_malformed(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{", encoding="utf-8")
    with pytest.raises(DataFormatError):
        ss.load_result(path)
    path.write_text(json.dumps({"grid": {"omega_start": 1.0, "omega_step": 0.1, "n_points": 8}}),
                    encoding="utf-8")
    with pytest.raises(DataFormatError):
        ss.load_result(path)
