"""The record-to-phase kernel against the formulas it replaced.

The reference functions below are the package's earlier implementations of
the sideband isolation, the phase difference, the Taylor fit and the
reconstructed mode: boolean masks over the whole time axis, an argmin for
the filter edge, the t >= 0 noise median, the complex carrier
exp(-i*omega*tau) and the basis x**n / n!.  The kernel must find the same
bins and agree with them to the last digits, on every preset at two sizes.
"""

import functools
import math
from dataclasses import replace

import numpy as np
import pytest

import shearspec as ss
from shearspec import reconstruction as rc
from shearspec.core import spectral_to_temporal_array, temporal_to_spectral_array

PRESETS = ("quadratic", "compensated", "v-phase", "lambda-phase")


# ---- reference kernel ----------------------------------------------------------

def ref_isolate_sideband(interf, settings, tau):
    """Returns (z, snr, t_pk, |F| at the edge bin)."""
    grid = interf.grid
    w = settings.width(tau)
    f = spectral_to_temporal_array(interf.plus - interf.minus, grid)
    t = grid.times
    mag = np.abs(f)
    search = np.abs(t - tau) <= w
    i_pk = int(np.flatnonzero(search)[np.argmax(mag[search])])
    t_pk = float(t[i_pk])
    peak = float(mag[i_pk])
    off = (t >= 2.0 * w) & (np.abs(t - t_pk) >= 2.0 * w)
    floor = float(np.median(mag[off])) if np.any(off) else 0.0
    snr = peak / floor if floor > 0 else math.inf
    i_edge = int(np.argmin(np.abs(t - (t_pk - w))))
    x = (t - t_pk) / w
    inside = np.abs(x) < (760.0 / math.log(2.0)) ** (1.0 / (2 * rc.FILTER_ORDER))
    window = np.zeros_like(x)
    window[inside] = np.exp(-math.log(2.0) * x[inside] ** (2 * rc.FILTER_ORDER))
    z = temporal_to_spectral_array(f * window, grid)
    return z, snr, t_pk, mag[i_edge]


def ref_extract_phase_difference(interf, settings, tau):
    grid = interf.grid
    s = interf.plus + interf.minus
    mask = s >= settings.amplitude_floor * float(np.max(s))
    z, snr, t_pk, _ = ref_isolate_sideband(interf, settings, tau)
    zc = z * np.exp(-1j * grid.omegas * tau)
    idx = np.flatnonzero(mask)
    dphi = np.interp(grid.omegas, grid.omegas[idx], np.unwrap(np.angle(zc)[idx]))
    center = dphi[grid.n_points // 2]
    dphi = dphi - 2.0 * math.pi * np.round(center / (2.0 * math.pi))
    vis = float(np.median(2.0 * np.abs(z[mask]) / s[mask]))
    return dphi, mask, {"visibility": vis, "sideband_snr": snr, "sideband_time_fs": t_pk}


def ref_fit_phase_polynomial(phase, weights, grid, max_order, mask):
    return rc.masked_fit(
        phase, weights, grid, mask,
        lambda x: [x**n / math.factorial(n) for n in range(1, max_order + 1)],
        max_order + 2, "the requested order",
    )[0][1:]


def ref_mode_amplitude(result):
    return result.amplitude_abs * np.exp(1j * result.phase_rad)


# ---- the records ---------------------------------------------------------------

@functools.cache
def case(name, n):
    """The preset's counts record at n points, with its shear config and settings."""
    cfg = ss.preset(name)
    cfg = replace(cfg, grid=replace(cfg.grid, n_points=n))
    truth = ss.synthesize(cfg.pulse, ss.build_grid(cfg))
    sc = ss.shear_config(cfg)
    ideal = ss.ideal_interferogram(truth, sc)
    rec = ss.detect_counts(ideal, cfg.interferometer.total_counts, cfg.interferometer.seed)
    return rec, sc, ss.ftsi_settings(cfg)


PARAMS = pytest.mark.parametrize("n", [4096, 65536])
NAMES = pytest.mark.parametrize("name", PRESETS)


@NAMES
@PARAMS
def test_sideband_bins_are_the_masks(name, n):
    # t_peak and snr cover the search and floor bins, edge the argmin edge
    # bin, and z, byte for byte, the window bins
    rec, sc, st = case(name, n)
    sb = rc._sideband(rec, st, sc.delay)
    z, snr, t_pk, edge = ref_isolate_sideband(rec, st, sc.delay)
    assert (sb.t_peak, sb.snr, sb.edge) == (t_pk, snr, edge)
    assert sb.z.tobytes() == z.tobytes()


@NAMES
@PARAMS
def test_phase_difference_matches_the_reference(name, n):
    rec, sc, st = case(name, n)
    dphi, sb = rc.extract_phase_difference(rec, st, sc.delay)
    ref_dphi, ref_mask, ref_fringe = ref_extract_phase_difference(rec, st, sc.delay)
    assert np.array_equal(sb.valid, ref_mask)
    assert np.max(np.abs(dphi - ref_dphi)[sb.valid]) <= 1e-9
    assert sb.snr == ref_fringe["sideband_snr"]
    assert sb.visibility == pytest.approx(ref_fringe["visibility"], rel=1e-12)
    assert sb.t_peak == ref_fringe["sideband_time_fs"]


@NAMES
@PARAMS
def test_dphi_is_bridged_by_np_interp_over_the_valid_bins(name, n):
    # integrate_phase reads dphi past the valid bins: across the masked gaps
    # inside the valid span dphi is np.interp over the valid bins, bit for
    # bit, and in the wings it holds the end values
    rec, sc, st = case(name, n)
    dphi, sb = rc.extract_phase_difference(rec, st, sc.delay)
    omegas = rec.grid.omegas
    idx = np.flatnonzero(sb.valid)
    gaps = idx[0] + np.flatnonzero(~sb.valid[idx[0] : idx[-1]])
    assert gaps.size > 0
    unwrapped = np.unwrap(np.angle(sb.z[idx]) - omegas[idx] * sb.tau)
    # the branch pin subtracts one 2*pi*k from every bin
    shift = 2.0 * math.pi * np.round((unwrapped[0] - dphi[idx[0]]) / (2.0 * math.pi))
    assert dphi[idx].tobytes() == (unwrapped - shift).tobytes()
    bridged = np.interp(omegas[gaps], omegas[idx], unwrapped) - shift
    assert dphi[gaps].tobytes() == bridged.tobytes()
    assert np.all(dphi[: idx[0]] == dphi[idx[0]]) and np.all(dphi[idx[-1] :] == dphi[idx[-1]])


@NAMES
@PARAMS
def test_reconstruction_matches_the_reference(name, n):
    rec, sc, st = case(name, n)
    out = ss.reconstruct(rec, sc, st)
    ref_dphi, mask, _ = ref_extract_phase_difference(rec, st, sc.delay)
    total = float(np.sum(rec.plus) + np.sum(rec.minus))
    spectrum = (rec.plus + rec.minus) / (total * rec.grid.omega_step)
    phase = rc.integrate_phase(ref_dphi, sc.shear, rec.grid, spectrum * mask)
    want = ref_fit_phase_polynomial(phase, spectrum, rec.grid, 3, mask)
    # phi1 of a pulse with no group delay is a fraction of a fs, so it gets an
    # absolute floor: 1e-8 fs tilts the phase by 3e-10 rad across the valid bins
    for got, ref, floor in zip(out.coefficients.coefficients, want, (1e-8, 0.0, 0.0)):
        assert got == pytest.approx(ref, rel=1e-9, abs=floor)
    amplitude = out.mode().amplitude
    ref_amplitude = ref_mode_amplitude(out)
    assert np.max(np.abs(amplitude - ref_amplitude)) <= 1e-12 * np.max(np.abs(ref_amplitude))
    # the bins with no amplitude are +0.0; the others are the whole-array
    # |a| cos, |a| sin bit for bit
    lit = out.amplitude_abs > 0
    assert not lit.all()
    assert not np.signbit(amplitude.view(float)[np.repeat(~lit, 2)]).any()
    assert not np.any(amplitude[~lit])
    r, phase = out.amplitude_abs, out.phase_rad
    assert amplitude.real[lit].tobytes() == (r * np.cos(phase))[lit].tobytes()
    assert amplitude.imag[lit].tobytes() == (r * np.sin(phase))[lit].tobytes()
