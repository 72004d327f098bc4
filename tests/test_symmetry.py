"""Relations the physics fixes exactly, whatever the pulse: the record-to-mode
chain must map each transformation of the mode or the instrument onto the
matching change of (phi1, phi2, phi3).

Noiseless records at N = 4096, the presets' shear and delay.  Each tolerance
is the residual measured on the same record (quoted beside it) times 50 or
more, rounded up to a power of ten: round-off passes, and a sign or
direction error, which moves phi2 by about 1e5 fs^2, does not.
"""

import dataclasses

import numpy as np
import pytest

import shearspec as ss

from conftest import SHEAR, TAU


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


@pytest.mark.parametrize("name", ["v-phase", "lambda-phase"])
def test_kinked_phase_under_reversed_shear_keeps_slope_and_overlap(name, settings):
    # A kinked phase's phi3 follows the shear's sign (v-phase +9.27e5 fs^3 at
    # +W, -9.27e5 at -W), so only the V slope and the overlap are compared:
    # they move by 0.012 fs and 2.4e-7 (v-phase), 0.036 fs and 1.6e-5 (lambda)
    cfg = ss.preset(name)
    mode = ss.synthesize(cfg.pulse, ss.build_grid(cfg))
    runs = []
    for shear in (SHEAR, -SHEAR):
        _, overlap, result = _run(mode, ss.ShearConfig(shear=shear, delay=TAU), settings)
        slope, _ = ss.v_phase_slope(result.phase_rad, result.amplitude_abs**2, result.grid,
                                    result.valid_mask)
        runs.append((slope, overlap))
    (slope_p, overlap_p), (slope_n, overlap_n) = runs
    assert slope_n == pytest.approx(slope_p, abs=10.0)
    assert overlap_n == pytest.approx(overlap_p, abs=1e-3)
