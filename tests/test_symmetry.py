"""Relations the physics fixes exactly, whatever the pulse: the record-to-mode
chain must map each transformation of the mode or the instrument onto the
matching change of (phi1, phi2, phi3), or of the recovered phase.

Noiseless records of the presets at N = 4096 and of random smooth modes at
N = 2048, and 1e6-count `quadratic` records, all at the presets' shear and
delay.  Each tolerance is the largest residual measured on the same records
(quoted beside it) times 40 or more, mostly rounded up to a power of ten:
round-off passes, and a sign or direction error, which moves phi2 by about
1e5 fs^2 or a random mode's phase by several rad, does not.
"""

import dataclasses
import math

import numpy as np
import pytest

import shearspec as ss

from conftest import FWHM_W, OMEGA0, SHEAR, TAU
from stats import counts_record, preset_chain


def _taylor(result):
    return np.array([result.coefficients.coefficient(k) for k in (1, 2, 3)])


def _run(mode, sc, settings, record=None):
    """(phi1, phi2, phi3), the overlap with mode, and the result."""
    record = ss.ideal_interferogram(mode, sc) if record is None else record
    result = ss.reconstruct(record, sc, settings)
    return _taylor(result), ss.mode_overlap(result.mode(), mode), result


@pytest.fixture(scope="module")
def base(quad_mode, shear_cfg, settings):
    return _run(quad_mode, shear_cfg, settings)


def test_conjugate_mode_negates_the_phase(quad_mode, grid, shear_cfg, settings, base):
    # measured sums 1.5e-9 fs, -6.1e-9 fs^2, 1.5e-5 fs^3; overlap equal to 2e-15
    conj = ss.normalize(grid, np.conj(quad_mode.amplitude))
    taylor, overlap, _ = _run(conj, shear_cfg, settings)
    assert np.all(np.abs(taylor + base[0]) <= [1e-6, 1e-6, 1e-2])
    assert overlap == pytest.approx(base[1], abs=1e-12)


def test_time_shift_adds_to_phi1_only(quad_mode, grid, shear_cfg, settings, base):
    # psi * exp(i x t0) arrives t0 later: phi1 + 200 fs to 1.6e-10 fs,
    # phi2 and phi3 move by 1.8e-9 fs^2 and 1.7e-6 fs^3
    t0 = 200.0
    x = grid.omegas - grid.omega_center
    shifted = ss.normalize(grid, quad_mode.amplitude * np.exp(1j * x * t0))
    taylor, overlap, _ = _run(shifted, shear_cfg, settings)
    assert np.all(np.abs(taylor - base[0] - [t0, 0.0, 0.0]) <= [1e-7, 1e-6, 1e-3])
    assert overlap == pytest.approx(base[1], abs=1e-12)


def test_reversed_shear_leaves_the_phase(quad_mode, settings, base):
    # W -> -W: phi2 moves 2.3e-4 fs^2 and phi3 0.18 fs^3 (against 8.7e4 and
    # 5e5), the overlap goes 0.999755 -> 0.999756
    taylor, overlap, _ = _run(quad_mode, ss.ShearConfig(shear=-SHEAR, delay=TAU), settings)
    assert np.all(np.abs(taylor - base[0]) <= [1e-3, 1e-1, 10.0])
    assert overlap == pytest.approx(base[1], abs=1e-4)


@pytest.mark.parametrize("tau", [6000.0, 8000.0, 12000.0])
def test_another_admissible_delay_leaves_the_phase(quad_mode, settings, base, tau):
    # phi2 moves at most 1.6e-8 fs^2, phi1 2e-9 fs, phi3 4.2e-6 fs^3; overlap to 1e-14
    taylor, overlap, _ = _run(quad_mode, ss.ShearConfig(shear=SHEAR, delay=tau), settings)
    assert np.all(np.abs(taylor - base[0]) <= [1e-7, 1e-5, 1e-3])
    assert overlap == pytest.approx(base[1], abs=1e-12)


def test_swapped_outputs_shift_phi1_by_pi_over_the_shear(quad_mode, quad_record, shear_cfg,
                                                          settings, base):
    # Swapping plus and minus is an interferometer phase of pi, which the
    # chain reads as a constant pi in dphi: phi1 moves by -pi/W = -1980.968 fs
    # (to 1.8e-10 fs) and phi2 by 1.2e-8 fs^2.  Once reconstruct carries a
    # calibrated carrier phase, a calibrated pi reconstructs at the arrival
    # time of a phase of 0, and this expectation changes.
    swapped = dataclasses.replace(quad_record, plus=quad_record.minus, minus=quad_record.plus)
    taylor, _, _ = _run(quad_mode, shear_cfg, settings, swapped)
    assert np.all(np.abs(taylor - base[0] - [-np.pi / SHEAR, 0.0, 0.0]) <= [1e-7, 1e-5, 1e-3])


@pytest.fixture(scope="module", params=["v-phase", "lambda-phase"])
def kinked_runs(request, settings):
    """(mode, [(overlap, result) at +W, the same at -W]) of a kinked preset."""
    cfg = ss.preset(request.param)
    mode = ss.synthesize(cfg.pulse, ss.build_grid(cfg))
    runs = [_run(mode, ss.ShearConfig(shear=shear, delay=TAU), settings)[1:]
            for shear in (SHEAR, -SHEAR)]
    return mode, runs


def test_kinked_phase_under_reversed_shear_keeps_slope_and_overlap(kinked_runs):
    # A kinked phase's phi3 follows the shear's sign (v-phase +9.27e5 fs^3 at
    # +W, -9.27e5 at -W), so only the V slope and the overlap are compared:
    # they move by 0.012 fs and 2.4e-7 (v-phase), 0.036 fs and 1.6e-5 (lambda)
    slopes, overlaps = [], []
    for overlap, result in kinked_runs[1]:
        slope, _ = ss.v_phase_slope(result.phase_rad, result.amplitude_abs**2, result.grid,
                                    result.valid_mask)
        slopes.append(slope)
        overlaps.append(overlap)
    assert slopes[1] == pytest.approx(slopes[0], abs=10.0)
    assert overlaps[1] == pytest.approx(overlaps[0], abs=1e-3)


def test_kinked_phase_phi3_vanishes_on_the_common_mask(kinked_runs):
    # The flip of phi3 with the shear's sign is the fit's, not the phase's.
    # The fit weights each run by its sideband spectrum [S(w) + S(w+W)]/2,
    # which moves with W; weighted by the truth's |psi|^2 instead, phi3
    # reads +-1.48e5 (v-phase) and -+1.55e5 (lambda), as does the truth's own
    # fit on each run's mask.  On the bins both runs keep, where the truth's
    # phi3 is 0, it reads -153 / -361 (v-phase) and +748 / -97 fs^3 (lambda).
    mode, runs = kinked_runs
    common = runs[0][1].valid_mask & runs[1][1].valid_mask
    for _, result in runs:
        fit = ss.fit_phase_polynomial(result.phase_rad, mode.intensity(), result.grid, common)
        assert abs(fit.coefficient(3)) <= 3e4


# ---- random smooth modes -------------------------------------------------------

SIGMA = FWHM_W / (2.0 * math.sqrt(2.0 * math.log(2.0)))


@pytest.fixture(scope="module", params=[0, 1, 2])
def random_run(request, shear_cfg, settings):
    """(grid, mode, base result, base overlap) of a random smooth mode.

    A Gaussian amplitude times exp(i sum_k a_k sin(k x / 2 sigma + b_k)),
    k = 1..4, a ~ N(0, 1.5), b ~ U(0, 2 pi): phases of 2-5 rad that the
    fit's cubic does not describe, so the relations are checked bin by bin
    on the recovered phase.  2048 points is the smallest grid that resolves
    these fringes at the preset shear and delay.
    """
    grid = ss.make_grid(OMEGA0, 10.0 * FWHM_W, 2048)
    x = grid.omegas - grid.omega_center
    rng = np.random.default_rng(request.param)
    a, b = rng.normal(0.0, 1.5, 4), rng.uniform(0.0, 2.0 * np.pi, 4)
    phase = sum(a[k] * np.sin((k + 1) * x / (2.0 * SIGMA) + b[k]) for k in range(4))
    mode = ss.normalize(grid, np.exp(-(x**2) / (4.0 * SIGMA**2) + 1j * phase))
    _, overlap, result = _run(mode, shear_cfg, settings)
    return grid, mode, result, overlap


def _phase_residual(result, base, expected=0.0, mask=None):
    """Largest |phase - base phase - expected| [rad] over the base's valid bins (or mask)."""
    mask = base.valid_mask if mask is None else mask
    return float(np.max(np.abs(result.phase_rad - base.phase_rad - expected)[mask]))


def test_random_mode_conjugate_negates_the_phase(random_run, shear_cfg, settings):
    # the two phases sum to at most 1.2e-10 rad over the 595 valid bins
    grid, mode, base, _ = random_run
    _, _, result = _run(ss.normalize(grid, np.conj(mode.amplitude)), shear_cfg, settings)
    assert np.array_equal(result.valid_mask, base.valid_mask)
    assert _phase_residual(result, base, -2.0 * base.phase_rad) <= 1e-8


def test_random_mode_time_shift_adds_a_linear_phase(random_run, shear_cfg, settings):
    # t0 = 200 fs: the phase moves by x t0 to 1.6e-11 rad
    grid, mode, base, _ = random_run
    x = grid.omegas - grid.omega_center
    shifted = ss.normalize(grid, mode.amplitude * np.exp(1j * x * 200.0))
    _, _, result = _run(shifted, shear_cfg, settings)
    assert _phase_residual(result, base, x * 200.0) <= 1e-9


def test_random_mode_another_delay_leaves_the_phase(random_run, settings):
    # tau = 8000 fs: 2.2e-10 rad, and the overlap moves 3.6e-14
    _, mode, base, overlap = random_run
    _, moved, result = _run(mode, ss.ShearConfig(shear=SHEAR, delay=8000.0), settings)
    assert _phase_residual(result, base) <= 1e-8
    assert moved == pytest.approx(overlap, abs=1e-12)


def test_random_mode_reversed_shear_leaves_the_phase(random_run, settings):
    # W -> -W on the bins both masks keep (581 of 595): 4.1e-4, 1.4e-3 and
    # 2.3e-3 rad, so 0.1 rad is 43x the largest, and a negated phase would
    # miss by 4-11 rad; the overlap (0.99970-0.99997) moves at most 1.8e-6
    _, mode, base, overlap = random_run
    _, moved, result = _run(mode, ss.ShearConfig(shear=-SHEAR, delay=TAU), settings)
    assert _phase_residual(result, base, mask=base.valid_mask & result.valid_mask) <= 0.1
    assert moved == pytest.approx(overlap, abs=1e-4)


# ---- counts ----------------------------------------------------------------------

def test_swapped_outputs_on_counts_shift_phi1_by_pi_over_the_shear():
    # The same relation as on the noiseless record, on 10 of the 1e6-count
    # records `stats.sweep` draws: phi1 moves by -pi/W to 1.9e-9 fs, phi2 by
    # at most 1.4e-8 fs^2 and phi3 by 2.7e-6 fs^3; the valid mask and the
    # amplitude are bit-identical, and the overlap with the truth goes from
    # 0.9989-0.9993 to at most 2.5e-6.  Once reconstruct carries a calibrated
    # carrier phase, the phi1 expectation changes, as on the noiseless record.
    sc, settings, truth, ideal = preset_chain("quadratic")
    for seed in range(10):
        record = counts_record(ideal, 1e6, seed)
        base = ss.reconstruct(record, sc, settings)
        swapped = ss.reconstruct(dataclasses.replace(record, plus=record.minus, minus=record.plus),
                                 sc, settings)
        step = _taylor(swapped) - _taylor(base) - [-np.pi / SHEAR, 0.0, 0.0]
        assert np.all(np.abs(step) <= [1e-7, 1e-6, 1e-3]), seed
        assert np.array_equal(swapped.valid_mask, base.valid_mask)
        assert np.array_equal(swapped.amplitude_abs, base.amplitude_abs)
        assert ss.mode_overlap(base.mode(), truth) >= 0.998
        assert ss.mode_overlap(swapped.mode(), truth) <= 1e-3
