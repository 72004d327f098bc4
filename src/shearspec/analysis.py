"""Derived quantities: temporal profiles, mode comparisons, a run's report
and views, Wigner export."""

from __future__ import annotations

import os

import numpy as np

from .core import (
    SpectralMode,
    column_text,
    mode_overlap,
    normalize,
    spectral_to_temporal_array,
    wigner,
    write_columns,
)
from .reconstruction import fit_to_dict, masked_fit

PEAK_THRESHOLD = 0.1  # a temporal peak reaches this fraction of the maximum


def _half_max_width(x: np.ndarray, y: np.ndarray) -> float:
    """Outermost half-maximum crossing distance, linearly interpolated."""
    half = 0.5 * float(np.max(y))
    idx = np.flatnonzero(y >= half)  # never empty: the maximum reaches half of itself
    i0, i1 = int(idx[0]), int(idx[-1])
    left = x[i0]
    if i0 > 0:
        f = (half - y[i0 - 1]) / (y[i0] - y[i0 - 1])
        left = x[i0 - 1] + f * (x[i0] - x[i0 - 1])
    right = x[i1]
    if i1 < len(x) - 1:
        f = (half - y[i1 + 1]) / (y[i1] - y[i1 + 1])
        right = x[i1 + 1] + f * (x[i1] - x[i1 + 1])
    return float(right - left)


def _find_peaks(x: np.ndarray, y: np.ndarray, threshold: float) -> list:
    """Local maxima above threshold * max, parabolically refined.

    Bin i is a peak if y[i] >= level, y[i] > y[i-1] and y[i] >= y[i+1]: a
    flat top counts once, at its first bin.
    """
    level = threshold * float(np.max(y))
    left, mid, right = y[:-2], y[1:-1], y[2:]
    i = np.flatnonzero((mid >= level) & (mid > left) & (mid >= right)) + 1
    denom = y[i - 1] - 2.0 * y[i] + y[i + 1]
    shift = np.divide(0.5 * (y[i - 1] - y[i + 1]), denom, out=np.zeros(i.size), where=denom < 0)
    return (x[i] + shift * (x[i] - x[i - 1])).tolist()


def _temporal_intensity(mode: SpectralMode) -> np.ndarray:
    return np.abs(spectral_to_temporal_array(mode.amplitude, mode.grid)) ** 2


def temporal_profile(mode: SpectralMode) -> tuple[float, list]:
    """(fwhm_fs, peak_times_fs): the FWHM of the temporal intensity (outermost
    half-max crossings), and its peaks above PEAK_THRESHOLD of the maximum."""
    intensity = _temporal_intensity(mode)
    times = mode.grid.times
    return _half_max_width(times, intensity), _find_peaks(times, intensity, PEAK_THRESHOLD)


def transform_limit_ratio(mode: SpectralMode, fwhm_fs: float) -> float:
    """Temporal FWHM relative to the zero-phase (transform-limited) version.

    fwhm_fs is temporal_profile(mode)[0], which the caller has already.
    """
    flat = normalize(mode.grid, np.abs(mode.amplitude))
    return float(fwhm_fs / temporal_profile(flat)[0])


def orthogonality_report(a: SpectralMode, b: SpectralMode) -> tuple[float, float, float]:
    """(overlap, spectral_l1, temporal_l1): |<a|b>|^2 plus the L1 distances of
    the normalized spectral and temporal intensity profiles.

    Distances lie in [0, 2]; 0 for identical profiles, 2 for disjoint.
    """
    ov = mode_overlap(a, b)  # ValueError if the grids differ
    dw = a.grid.omega_step
    l1_spec = float(np.sum(np.abs(a.intensity() - b.intensity())) * dw)
    ta, tb = _temporal_intensity(a), _temporal_intensity(b)
    l1_temp = float(np.sum(np.abs(ta - tb)) * a.grid.time_step)
    return ov, l1_spec, l1_temp


def v_phase_slope(
    mode_phase: np.ndarray, weights: np.ndarray, grid, mask: np.ndarray
) -> tuple[float, float]:
    """Signed V-slope: WLS coefficient of |omega-omega0| in the basis
    {1, |x|, x}, on the bins of mask.  Positive for a V profile, negative
    for a Lambda.  Returns (slope_fs, stderr_fs).
    """
    coef, err = masked_fit(
        mode_phase, weights, grid, mask, lambda x: [np.abs(x), x], 5, "a V slope"
    )
    return float(coef[1]), float(err[1])


def report(result, truth: SpectralMode | None = None) -> dict:
    """The report of a result: its temporal profile, fit, diagnostics and V
    slope, and with a truth mode its distances to it."""
    mode = result.mode()
    fwhm, peaks = temporal_profile(mode)
    out = {
        "fwhm_fs": fwhm,
        "peak_count": len(peaks),
        "peak_times_fs": peaks,
        "transform_limit_ratio": transform_limit_ratio(mode, fwhm),
        "coefficients": fit_to_dict(result.coefficients),
        "diagnostics": dict(result.diagnostics),
    }
    spectrum = result.amplitude_abs**2
    slope, slope_err = v_phase_slope(result.phase_rad, spectrum, result.grid, result.valid_mask)
    out["v_slope_fs"] = slope
    out["v_slope_fs_stderr"] = slope_err
    if truth is not None:
        (out["overlap_with_truth"], out["spectral_l1_vs_truth"],
         out["temporal_l1_vs_truth"]) = orthogonality_report(mode, truth)
    return out


def save_views(outdir: str, truth: SpectralMode, result) -> list:
    """Write spectrum.csv, phase.csv and temporal.csv, truth against recovered,
    under outdir; return their names."""
    grid, mode = result.grid, result.mode()
    # unwrapped and anchored at the grid centre, like the recovered phase
    truth_phase = np.unwrap(truth.phase())
    truth_phase -= truth_phase[grid.n_points // 2]
    tables = {  # file: header, columns
        "spectrum.csv": ("omega_rad_per_fs,truth,recovered",
                         grid.omega_text, truth.intensity(), mode.intensity()),
        "phase.csv": ("omega_rad_per_fs,truth_rad,recovered_rad,valid",
                      grid.omega_text, truth_phase, result.phase_rad, result.valid_mask),
        "temporal.csv": ("t_fs,truth,recovered", grid.times,
                         _temporal_intensity(truth), _temporal_intensity(mode)),
    }
    for name, table in tables.items():
        write_columns(os.path.join(outdir, name), *table)
    return list(tables)


def save_wigner_csv(mode: SpectralMode, path) -> None:
    """Write the mode's Wigner map, wigner(mode, t, omega), as long-format CSV:
    t_fs,omega_rad_per_fs,w_value (one row per cell, t slowest).

    t is every (N/256)-th grid time of the central half: grid times lie on
    wigner()'s half-step lattice, and |t| <= pi/(2*domega) keeps the map
    alias-free.  omega is every (N/256)-th grid frequency.  So the map is
    128 x 256 for N >= 256.  Each axis value is formatted once; the t column
    repeats each t cell and the omega column tiles the omega cells, both by
    reference.
    """
    grid = mode.grid
    n, stride = grid.n_points, max(1, grid.n_points // 256)
    t, omega = grid.times[n // 4 : 3 * n // 4 : stride], grid.omegas[::stride]
    values = wigner(mode, t, omega)
    t_text, omega_text = column_text(t), column_text(omega)
    per_t = len(omega_text)
    write_columns(path, "t_fs,omega_rad_per_fs,w_value",
                  [c for c in t_text for _ in range(per_t)],
                  omega_text * len(t_text), values.ravel())
