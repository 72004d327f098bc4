"""End-to-end acceptance checks.

Each check prints one "criterion N" line with the measured numbers before
asserting, so a verbose run (pytest -v -s) reads as a checklist.  Criteria 3
and 4 carry sub-checks asserted separately.  Two criterion-3 sub-checks fail
by construction of the scenarios, not by bugs, and are reported honestly:
the V and Lambda modes' mutual overlap (0.0017; the exact modes' is 0.0016)
lies below the [0.01, 0.11] band, and their temporal intensities are nearly
disjoint (L1 distance 0.375, and 0.370 even between the exact modes, against
a 0.05 bound).  Criterion 4 passes for every preset with the same settings:
the one integrator, concatenation on four interleaved ladders, keeps the
V/Lambda slope kink, and the default window (support 2*tau/3, about
0.55*tau wide) is wide enough for the sideband's kink tails; the midpoint
rule with a tau/3 window capped their noiseless fidelity near 0.997.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

import shearspec as ss
from shearspec.cli import main
from shearspec.core import spectral_to_temporal_array, temporal_to_spectral_array

from conftest import TAU


def report(num, label, ok, detail):
    print(f"criterion {num} ({label}): {'PASS' if ok else 'FAIL'} ({detail})", flush=True)


def test_criterion_1_quadratic_recovery(quad_record, shear_cfg, settings):
    t0 = time.perf_counter()
    hits = 0
    phi2 = []
    for seed in range(50):
        rec = ss.detect_counts(quad_record, 1_000_000, ss.derive_seed(seed, "counts", 0))
        fit = ss.reconstruct(rec, shear_cfg, settings).coefficients
        phi2.append(fit.coefficient(2))
        hits += int(
            abs(fit.coefficient(2) - 8.7e4) < 2e3 and abs(fit.coefficient(3) - 5.0e5) < 2e5
        )
    elapsed = time.perf_counter() - t0
    detail = (
        f"{hits}/50 seeds in tolerance, phi2 {np.mean(phi2):.1f} "
        f"+- {np.std(phi2):.1f} fs^2, {elapsed:.1f} s"
    )
    report(1, "quadratic phase recovery", hits >= 45 and elapsed < 10.0, detail)
    assert hits >= 45
    assert elapsed < 10.0


def test_criterion_2_compensation(grid, quad_pulse, quad_record, shear_cfg, settings):
    hits = 0
    residuals = []
    for seed in range(50):
        rec1 = ss.detect_counts(quad_record, 1_000_000, ss.derive_seed(seed, "counts", 0))
        fitted = ss.reconstruct(rec1, shear_cfg, settings).coefficients.coefficient(2)
        coeffs = list(quad_pulse.poly_coeffs)
        coeffs[1] -= fitted
        mode2 = ss.synthesize(replace(quad_pulse, poly_coeffs=tuple(coeffs)), grid)
        rec2 = ss.detect_counts(
            ss.ideal_interferogram(mode2, shear_cfg),
            1_000_000,
            ss.derive_seed(seed, "counts-stage2", 0),
        )
        resid = ss.reconstruct(rec2, shear_cfg, settings).coefficients.coefficient(2)
        residuals.append(resid)
        hits += int(abs(resid) < 2e3)
    detail = f"{hits}/50 seeds with |phi2| < 2e3, residual {np.mean(residuals):.1f} +- {np.std(residuals):.1f} fs^2"
    report(2, "phi2 compensation", hits >= 45, detail)
    assert hits >= 45


@pytest.fixture(scope="module")
def v_lambda_runs():
    runs = {}
    for name in ("v-phase", "lambda-phase"):
        cfg = ss.preset(name)
        mode = ss.synthesize(cfg.pulse, ss.build_grid(cfg))
        sc = ss.shear_config(cfg)
        rec = ss.detect_counts(
            ss.ideal_interferogram(mode, sc),
            cfg.interferometer.total_counts,
            ss.derive_seed(cfg.interferometer.seed, "counts", 0),
        )
        runs[name] = ss.reconstruct(rec, sc, ss.ftsi_settings(cfg))
    return runs


def _slope(result):
    slope, _ = ss.v_phase_slope(
        result.phase_rad, result.amplitude_abs**2, result.grid, result.valid_mask
    )
    return slope


def test_criterion_3_slopes(v_lambda_runs):
    sv = _slope(v_lambda_runs["v-phase"])
    sl = _slope(v_lambda_runs["lambda-phase"])
    ok = abs(abs(sv) - 1050.0) < 100.0 and abs(abs(sl) - 1100.0) < 200.0
    report(3, "V/Lambda slopes", ok, f"V {sv:.1f} fs (target +1050), Lambda {sl:.1f} fs (target -1100)")
    assert abs(abs(sv) - 1050.0) < 100.0
    assert abs(abs(sl) - 1100.0) < 200.0


def test_criterion_3_mode_overlap(v_lambda_runs):
    overlap = ss.mode_overlap(
        v_lambda_runs["v-phase"].mode(), v_lambda_runs["lambda-phase"].mode()
    )
    report(3, "V/Lambda overlap in [0.01, 0.11]", 0.01 <= overlap <= 0.11, f"overlap {overlap:.4f}")
    assert 0.01 <= overlap <= 0.11


def test_criterion_3_spectral_distance(v_lambda_runs):
    _, d, _ = ss.orthogonality_report(
        v_lambda_runs["v-phase"].mode(), v_lambda_runs["lambda-phase"].mode()
    )
    report(3, "V/Lambda spectral L1", d < 0.05, f"distance {d:.4f}")
    assert d < 0.05


def test_criterion_3_temporal_distance(v_lambda_runs):
    _, _, d = ss.orthogonality_report(
        v_lambda_runs["v-phase"].mode(), v_lambda_runs["lambda-phase"].mode()
    )
    report(3, "V/Lambda temporal L1", d < 0.05, f"distance {d:.4f}")
    assert d < 0.05


@pytest.mark.parametrize(
    "name", ["quadratic", "compensated", "v-phase", "lambda-phase"]
)
def test_criterion_4_noiseless_fidelity(name):
    cfg = ss.preset(name)
    grid = ss.build_grid(cfg)
    sc = ss.shear_config(cfg)
    settings = ss.ftsi_settings(cfg)
    t0 = time.perf_counter()
    mode = ss.synthesize(cfg.pulse, grid)
    if cfg.compensate_phi2:
        fitted = ss.reconstruct(
            ss.ideal_interferogram(mode, sc), sc, settings
        ).coefficients.coefficient(2)
        coeffs = list(cfg.pulse.poly_coeffs)
        coeffs[1] -= fitted
        mode = ss.synthesize(replace(cfg.pulse, poly_coeffs=tuple(coeffs)), grid)
    result = ss.reconstruct(ss.ideal_interferogram(mode, sc), sc, settings)
    elapsed = time.perf_counter() - t0
    overlap = ss.mode_overlap(result.mode(), mode)
    ok = overlap > 0.999 and elapsed < 1.0
    report(4, f"noiseless fidelity {name}", ok, f"overlap {overlap:.6f}, {elapsed:.2f} s")
    assert elapsed < 1.0
    assert overlap > 0.999


def test_criterion_5_record_matches_termwise_sum():
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(100):
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
    report(5, "interferogram termwise oracle", worst < 1e-12, f"worst per-bin error {worst:.2e}")
    assert worst < 1e-12


def test_criterion_6_transform_invariants():
    rng = np.random.default_rng(7)
    worst_rt = worst_par = 0.0
    for _ in range(1000):
        n = int(rng.choice([8, 16, 32, 64, 128, 256]))
        g = ss.SpectralGrid(rng.uniform(0.5, 5.0), rng.uniform(1e-3, 5e-2), n)
        vals = rng.normal(size=n) + 1j * rng.normal(size=n)
        mode = ss.normalize(g, vals)
        tm = spectral_to_temporal_array(mode.amplitude, mode.grid)
        back = temporal_to_spectral_array(tm, g)
        worst_rt = max(worst_rt, float(np.max(np.abs(back - mode.amplitude))))
        spectral_norm = float(np.sum(np.abs(mode.amplitude) ** 2) * g.omega_step)
        temporal_norm = float(np.sum(np.abs(tm) ** 2) * g.time_step)
        worst_par = max(worst_par, abs(spectral_norm - temporal_norm))

    from test_core import smooth_random_mode

    worst_marg = 0.0
    for _ in range(20):
        mode = smooth_random_mode(rng)
        g = mode.grid
        t_lim = 0.5 * math.pi / g.omega_step
        t_axis = np.linspace(-t_lim, t_lim, g.n_points + 1)
        w = ss.wigner(mode, t_axis, g.omegas)
        ref_f = np.abs(mode.amplitude) ** 2
        marg_f = np.trapezoid(w, t_axis, axis=0)
        worst_marg = max(worst_marg, float(np.max(np.abs(marg_f - ref_f)) / np.max(ref_f)))
        scale = g.omega_step / math.sqrt(2.0 * math.pi)
        psi_t = scale * np.exp(-1j * np.outer(t_axis, g.omegas)) @ mode.amplitude
        ref_t = np.abs(psi_t) ** 2
        marg_t = np.trapezoid(w, g.omegas, axis=1)
        worst_marg = max(worst_marg, float(np.max(np.abs(marg_t - ref_t)) / np.max(ref_t)))

    ok = worst_rt < 1e-10 and worst_par < 1e-10 and worst_marg < 1e-6
    detail = (
        f"round trip {worst_rt:.2e}, Parseval {worst_par:.2e} over 1000 modes; "
        f"Wigner marginals {worst_marg:.2e} rel over 20 smooth modes"
    )
    report(6, "transform invariants", ok, detail)
    assert worst_rt < 1e-10
    assert worst_par < 1e-10
    assert worst_marg < 1e-6


def test_criterion_7_delay_sensitivity(quad_record, shear_cfg, settings):
    base = ss.reconstruct(quad_record, shear_cfg, settings)
    off = ss.reconstruct(
        quad_record, ss.ShearConfig(shear=shear_cfg.shear, delay=TAU + 50.0), settings
    )
    added = off.coefficients.coefficient(2) - base.coefficients.coefficient(2)
    predicted = 50.0 / shear_cfg.shear
    rel = abs(added - predicted) / predicted
    detail = f"added phi2 {added:.1f} fs^2 vs predicted {predicted:.1f}, rel {rel:.2e}"
    report(7, "carrier delay sensitivity", rel < 1e-3, detail)
    assert rel < 1e-3


def test_criterion_8_delay_calibration(quad_mode):
    worst = 0.0
    for tau in (5000.0, 10000.0):
        zero_shear = ss.ShearConfig(shear=0.0, delay=tau)
        ideal = ss.ideal_interferogram(quad_mode, zero_shear)
        cal_settings = ss.FtsiSettings()
        for seed in range(50):
            rec = ss.detect_counts(ideal, 1_000_000, ss.derive_seed(seed, "counts", 0))
            cal = ss.calibrate_delay(rec, cal_settings, tau)
            worst = max(worst, abs(cal.tau_fs - tau) / tau)
    report(8, "zero-shear delay calibration", worst < 1e-3, f"worst relative error {worst:.2e}")
    assert worst < 1e-3


def test_criterion_9_determinism(tmp_path):
    argv = ["pipeline", "--preset", "quadratic", "--quiet", "--out"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(argv + [str(a)]) == 0
    assert main(argv + [str(b)]) == 0
    same = (a / "result.json").read_bytes() == (b / "result.json").read_bytes()
    report(9, "deterministic result JSON", same, "byte-identical" if same else "bytes differ")
    assert same
