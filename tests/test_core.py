import dataclasses
import json
import math
import os
import subprocess
import sys
import tracemalloc
import types
from pathlib import Path

import numpy as np
import pytest

import shearspec as ss
from shearspec.core import spectral_to_temporal_array, temporal_to_spectral_array
from shearspec.errors import DataFormatError

from conftest import OMEGA0, FWHM_W


def test_wavelength_conversion_literal():
    assert ss.wavelength_to_omega(830.0) == pytest.approx(
        2.0 * math.pi * 299.792458 / 830.0, rel=1e-14
    )
    with pytest.raises(ValueError):
        ss.wavelength_to_omega(0.0)
    with pytest.raises(ValueError):
        ss.wavelength_to_omega(-500.0)


def test_shear_conversion_literal():
    # first-order dispersion of omega(lambda) at 830 nm
    assert ss.shear_nm_to_omega(0.58, 830.0) == pytest.approx(
        2.0 * math.pi * 299.792458 * 0.58 / 830.0**2, rel=1e-14
    )
    assert ss.shear_nm_to_omega(0.58, 830.0) == pytest.approx(1.585888e-3, rel=1e-6)
    with pytest.raises(ValueError):
        ss.shear_nm_to_omega(0.58, 0.0)
    for centre in (1e-300, 1e200):  # the square under- and overflows
        with pytest.raises(ValueError, match="does not convert"):
            ss.shear_nm_to_omega(0.58, centre)


def test_grid_construction():
    g = ss.make_grid(1.0, 0.1, 8)
    assert g.omegas[0] == pytest.approx(0.95)
    assert g.omega_step == pytest.approx(0.0125)
    assert g.n_points == 8
    assert g.span == pytest.approx(0.1)
    with pytest.raises(ValueError):
        ss.SpectralGrid(1.0, 0.1, 7)
    with pytest.raises(ValueError):
        ss.SpectralGrid(1.0, 0.1, 4)
    with pytest.raises(ValueError):
        ss.SpectralGrid(1.0, -0.1, 8)
    with pytest.raises(ValueError):
        ss.make_grid(1.0, 0.0, 8)
    for start, step in ((math.nan, 0.1), (1.0, math.inf)):
        with pytest.raises(ValueError, match="finite"):
            ss.SpectralGrid(start, step, 8)


def test_grid_dual_time_axis():
    g = ss.make_grid(2.0, 0.5, 64)
    # dual grid is centered, step 2*pi/(n*domega)
    assert g.time_step == pytest.approx(2.0 * math.pi / (64 * g.omega_step), rel=1e-14)
    assert g.time_start == pytest.approx(-math.pi / g.omega_step, rel=1e-14)
    assert g.times[32] == pytest.approx(0.0, abs=1e-12)


def test_grid_equality_tolerant():
    g = ss.make_grid(2.0, 0.5, 64)
    h = ss.SpectralGrid(g.omega_start * (1.0 + 1e-12), g.omega_step, 64)
    assert g == h
    assert g != ss.SpectralGrid(g.omega_start * (1.0 + 1e-6), g.omega_step, 64)
    assert g != ss.SpectralGrid(g.omega_start, g.omega_step, 128)
    assert g != "x"  # __eq__ declines a non-grid, so != falls back to identity


def test_transform_roundtrip_and_parseval():
    rng = np.random.default_rng(11)
    worst_rt = worst_par = 0.0
    for _ in range(50):
        n = int(rng.choice([32, 64, 128, 256]))
        g = ss.SpectralGrid(rng.uniform(0.5, 4.0), rng.uniform(1e-4, 1e-2), n)
        v = rng.normal(size=n) + 1j * rng.normal(size=n)
        f = spectral_to_temporal_array(v, g)
        back = temporal_to_spectral_array(f, g)
        worst_rt = max(worst_rt, float(np.max(np.abs(back - v))))
        worst_par = max(
            worst_par,
            abs(float(np.sum(np.abs(v) ** 2) * g.omega_step - np.sum(np.abs(f) ** 2) * g.time_step)),
        )
    assert worst_rt < 1e-10
    assert worst_par < 1e-10


def test_forward_transform_matches_direct_sum():
    rng = np.random.default_rng(5)
    g = ss.SpectralGrid(2.0, 3e-3, 64)
    v = rng.normal(size=64) + 1j * rng.normal(size=64)
    f = spectral_to_temporal_array(v, g)
    direct = (g.omega_step / math.sqrt(2.0 * math.pi)) * np.exp(
        -1j * np.outer(g.times, g.omegas)
    ) @ v
    assert np.max(np.abs(f - direct)) < 1e-12


def ref_spectral_to_temporal(values, grid):
    """The forward transform as written before the grid cached its factors."""
    n = grid.n_points
    signs = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    ft = np.fft.fft(np.asarray(values, dtype=np.complex128) * signs)
    phase = np.exp(-1j * grid.omega_start * (grid.time_start + grid.time_step * np.arange(n)))
    return (grid.omega_step / math.sqrt(2.0 * math.pi)) * phase * ft


def ref_temporal_to_spectral(values, grid):
    """The inverse transform as written before the grid cached its factors."""
    n = grid.n_points
    times = grid.time_start + grid.time_step * np.arange(n)
    pre = np.asarray(values, dtype=np.complex128) * np.exp(1j * grid.omega_start * times)
    ift = np.fft.ifft(pre) * n
    signs = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    return (grid.time_step / math.sqrt(2.0 * math.pi)) * signs * ift


@pytest.mark.parametrize("n", [4096, 8192, 16384, 65536])
def test_cached_transforms_match_inline_formulas(n):
    # Below 16384 complex points (256 KB) the arithmetic is the same, so the
    # bits are.  From there numpy's temporary elision let the old inverse
    # compute exp(...) * values in place, and complex multiplication is not
    # bitwise commutative, so the last ulp may differ.
    rng = np.random.default_rng(n)
    g = ss.make_grid(OMEGA0, 10.0 * FWHM_W, n)
    real = rng.normal(size=n)
    for values in (real, real + 1j * rng.normal(size=n)):
        for ours, ref in ((spectral_to_temporal_array, ref_spectral_to_temporal),
                          (temporal_to_spectral_array, ref_temporal_to_spectral)):
            got, want = ours(values, g), ref(values, g)
            assert got.dtype == want.dtype == np.complex128
            if n < 16384:
                assert got.tobytes() == want.tobytes(), ours.__name__
            else:
                ulp = np.spacing(np.max(np.abs(want)))
                assert np.max(np.abs(got - want)) <= 4.0 * ulp, ours.__name__


def test_grid_arrays_cached_read_only_and_per_instance():
    g = ss.make_grid(2.0, 0.5, 64)
    assert g.omegas is g.omegas and g.times is g.times
    for arr in (g.omegas, g.times, *g._transform_factors):
        with pytest.raises(ValueError):
            arr[0] = 0.0
    f = spectral_to_temporal_array(np.ones(64), g)
    f[0] = 0.0  # results are the caller's, not the cache
    assert np.array_equal(f[1:], spectral_to_temporal_array(np.ones(64), g)[1:])

    h = dataclasses.replace(g, omega_start=g.omega_start + 0.25)
    assert h.omegas is not g.omegas
    assert np.array_equal(h.omegas, g.omegas + 0.25)
    assert not np.array_equal(h._transform_factors[1], g._transform_factors[1])
    assert np.array_equal(h.times, g.times)  # the dual axis depends on the step only
    assert h.times is not g.times


def test_mode_roundtrip_public_api(grid, quad_mode):
    back = temporal_to_spectral_array(spectral_to_temporal_array(quad_mode.amplitude, grid), grid)
    assert np.max(np.abs(back - quad_mode.amplitude)) < 1e-12


def test_mode_overlap_limits(grid, quad_mode):
    assert ss.mode_overlap(quad_mode, quad_mode) == pytest.approx(1.0, abs=1e-12)
    # orthogonal pair: disjoint spectral supports
    half = grid.n_points // 2
    a = np.zeros(grid.n_points, dtype=complex)
    b = np.zeros(grid.n_points, dtype=complex)
    a[: half - 64] = 1.0
    b[half + 64 :] = 1.0
    ma = ss.normalize(grid, a)
    mb = ss.normalize(grid, b)
    assert ss.mode_overlap(ma, mb) == pytest.approx(0.0, abs=1e-15)
    assert 0.0 <= ss.mode_overlap(ma, mb) <= 1.0
    other = ss.make_grid(grid.omega_center, 2.0 * grid.span, grid.n_points)
    with pytest.raises(ValueError, match="different grids"):
        ss.mode_overlap(ma, ss.normalize(other, a))


def test_normalize_unit_norm_and_anchor(grid):
    rng = np.random.default_rng(2)
    v = rng.normal(size=grid.n_points) + 1j * rng.normal(size=grid.n_points)
    m = ss.normalize(grid, v)
    assert np.sum(np.abs(m.amplitude) ** 2) * grid.omega_step == pytest.approx(1.0, rel=1e-12)
    center = m.amplitude[grid.n_points // 2]
    assert center.imag == pytest.approx(0.0, abs=1e-12)
    assert center.real > 0
    # real non-negative samples, with the centre bin empty or not, come out
    # as the plain scaled samples, bit for bit: the anchor rotates by exp(-i*0)
    for r in (np.abs(v), np.where(np.arange(grid.n_points) == grid.n_points // 2, 0.0, np.abs(v))):
        plain = r.astype(complex)
        plain /= math.sqrt(float(np.sum(np.abs(plain) ** 2) * grid.omega_step))
        assert ss.normalize(grid, r).amplitude.tobytes() == plain.tobytes()
    with pytest.raises(ValueError):
        ss.normalize(grid, np.zeros(grid.n_points, dtype=complex))


def smooth_random_mode(rng, n=256):
    g = ss.make_grid(rng.uniform(1.5, 3.0), rng.uniform(0.05, 0.2), n)
    om = g.omegas
    c = 0.5 * (om[0] + om[-1])
    sig = g.span * rng.uniform(0.03, 0.05)
    x = (om - c) / g.span
    amp = np.exp(-((om - c) ** 2) / (4.0 * sig**2)) * (1.0 + 0.3 * np.polyval(rng.normal(size=3), x))
    ph = np.polyval(rng.normal(size=4) * 3.0, x)
    return ss.normalize(g, amp * np.exp(1j * ph))


def ref_wigner_quadrature(mode, t_axis, omega_axis):
    """The package's earlier direct quadrature, kept as the reference.

    Amplitudes interpolated at omega +- x for every lag x with support
    overlap, times an (n_x, n_t) kernel matrix exp(2i x t).  Returns the
    real map, shape (len(t_axis), len(omega_axis)).
    """
    grid = mode.grid
    omegas, amp = grid.omegas, mode.amplitude

    def sample(points):
        return np.interp(points, omegas, amp.real, left=0.0, right=0.0) + 1j * np.interp(
            points, omegas, amp.imag, left=0.0, right=0.0
        )

    m_max = grid.n_points - 1
    x = grid.omega_step * np.arange(-m_max, m_max + 1)
    x = x[np.abs(x) <= 0.5 * grid.span]
    up = sample(omega_axis[:, None] + x[None, :])
    dn = sample(omega_axis[:, None] - x[None, :])
    w = (np.conj(up) * dn) @ np.exp(2j * np.outer(x, t_axis)) * (grid.omega_step / math.pi)
    return w.real.T


def ref_wigner_unfolded(mode, t_axis, omega_axis, rows=32):
    """The lag sum with no fold: a full-length inverse FFT over the lag.

    W = (domega/pi) sum_m conj(a[j+m]) a[j-m] e^{2 pi i m p/N}, a = 0 off
    the grid, for m in [-N/2, N/2) put in FFT order; `rows` frequencies at a
    time.  Returns the real map, shape (len(t_axis), len(omega_axis)).
    """
    grid = mode.grid
    n = grid.n_points
    j = np.rint((omega_axis - grid.omega_start) / grid.omega_step).astype(int)
    p = np.rint(t_axis / (0.5 * grid.time_step)).astype(int)
    amp = np.concatenate([np.zeros(n), mode.amplitude, np.zeros(n)])
    m = np.fft.ifftshift(np.arange(-n // 2, n // 2))
    out = np.empty((len(j), len(p)))
    for lo in range(0, len(j), rows):
        jj = j[lo : lo + rows, None] + n
        lag = np.conj(amp[jj + m]) * amp[jj - m]
        w = np.fft.ifft(lag, axis=1)[:, p % n] * (n * grid.omega_step / math.pi)
        out[lo : lo + rows] = w.real
    return out.T


@pytest.fixture(scope="module")
def mode_16k(quad_pulse):
    g = ss.make_grid(OMEGA0, 10.0 * FWHM_W, 16384)
    return ss.synthesize(quad_pulse, g)


def cli_axes(g):
    """The axes of `analyze --wigner`: 128 central times by 256 frequencies."""
    n = g.n_points
    return g.times[n // 4 : 3 * n // 4 : n // 256], g.omegas[:: n // 256]


def test_wigner_fold_matches_unfolded_sum(mode_16k):
    t_axis, om_axis = cli_axes(mode_16k.grid)
    ref = ref_wigner_unfolded(mode_16k, t_axis, om_axis)
    w = ss.wigner(mode_16k, t_axis, om_axis)
    assert w.shape == ref.shape == (128, 256)
    assert np.max(np.abs(w - ref)) <= 1e-12 * np.max(np.abs(ref))


def ref_wigner_every_row(mode, t_axis, omega_axis):
    """core.wigner as it was before it skipped the rows off the mode's
    support: the same fold, summed over every requested frequency."""
    grid = mode.grid
    n = grid.n_points
    j = np.rint((omega_axis - grid.omega_start) / grid.omega_step).astype(np.intp)
    p = np.rint(t_axis / (0.5 * grid.time_step)).astype(np.intp) % n
    stride = math.gcd(n, *p.tolist())
    period = n // stride
    padded = np.zeros(2 * n, dtype=np.complex128)
    padded[n // 2 : n // 2 + n] = mode.amplitude
    ahead = np.lib.stride_tricks.sliding_window_view(np.conj(padded), period)
    behind = np.lib.stride_tricks.sliding_window_view(padded[::-1], period)
    folded = np.zeros((len(j), period), dtype=np.complex128)
    for c0 in range(0, n, period):
        block = ahead[j + c0]
        block *= behind[(n - 1 + c0) - j]
        folded += block
    w = np.fft.ifft(folded, axis=1, out=folded)[:, p // stride]
    w *= np.where(p % 2 == 0, 1.0, -1.0) * (period * grid.omega_step / math.pi)
    return np.ascontiguousarray(w.real.T)


def test_wigner_rows_off_the_support_match_every_row_sum(grid, quad_mode, quad_record,
                                                        shear_cfg, settings):
    n = grid.n_points
    recovered = ss.reconstruct(ss.detect_counts(quad_record, 1_000_000, 2), shear_cfg,
                               settings).mode()
    cut = quad_mode.amplitude.copy()
    cut[: n // 3] = cut[n // 2 + 40 :] = 0.0
    clipped = ss.normalize(grid, cut)
    half = 0.5 * grid.time_step
    t_cli, om_cli = grid.times[n // 4 : 3 * n // 4 : 16], grid.omegas[::16]
    odd_t = np.array([-n // 4, -64, 0, 37, 512]) * half  # fold length n
    rng = np.random.default_rng(3)
    shuffled = grid.omegas[rng.permutation(n)[:200]]

    def with_edges(mode, om_axis):  # the bins just off and on each end of the support
        support = np.flatnonzero(mode.amplitude)
        return np.concatenate([om_axis, grid.omegas[support[[0, 0, -1, -1]] + [-1, 0, 0, 1]]])

    cases = [(recovered, t_cli, with_edges(recovered, om_cli)),
             (clipped, t_cli, with_edges(clipped, om_cli)),
             (clipped, odd_t, with_edges(clipped, shuffled)),
             (clipped, t_cli, grid.omegas[: n // 4 : 8])]  # every row off the support
    for mode, t_axis, om_axis in cases:
        support = np.flatnonzero(mode.amplitude)
        j = np.rint((om_axis - grid.omega_start) / grid.omega_step)
        assert np.any((j < support[0]) | (j > support[-1]))  # the axis runs past it
        want = ref_wigner_every_row(mode, t_axis, om_axis)
        assert ss.wigner(mode, t_axis, om_axis).tobytes() == want.tobytes()
    assert not np.any(want)


def test_wigner_memory_is_the_folded_map(mode_16k):
    # the unfolded lag products alone are 256 x 16384 complex, 67 MB
    t_axis, om_axis = cli_axes(mode_16k.grid)
    tracemalloc.start()
    try:
        ss.wigner(mode_16k, t_axis, om_axis)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


@pytest.mark.parametrize("case", ["odd-p", "half-period"])
def test_wigner_fold_lengths_match_quadrature(case, grid, quad_mode):
    n = grid.n_points
    half = 0.5 * grid.time_step
    if case == "odd-p":  # one odd p: gcd 1, so the fold length is n
        p = np.array([-n // 4, -64, 0, 37, 512])
    else:  # p = -n/2 and n/2 fold onto one column, with the signs (-1)^p
        p = np.arange(-n // 2, n // 2 + 1, n // 16)
    t_axis, om_axis = p * half, grid.omegas[::16]
    ref = ref_wigner_quadrature(quad_mode, t_axis, om_axis)
    w = ss.wigner(quad_mode, t_axis, om_axis)
    assert np.max(np.abs(w - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("case", ["cli-axes", "smooth-random"])
def test_wigner_fft_matches_quadrature(case, grid, quad_mode):
    if case == "cli-axes":  # the axes of `analyze --wigner` at N=4096
        mode, n = quad_mode, grid.n_points
        t_axis, om_axis = grid.times[n // 4 : 3 * n // 4 : 16], grid.omegas[::16]
    else:
        mode = smooth_random_mode(np.random.default_rng(11))
        t_lim = 0.5 * math.pi / mode.grid.omega_step
        t_axis, om_axis = np.linspace(-t_lim, t_lim, mode.grid.n_points + 1), mode.grid.omegas
    ref = ref_wigner_quadrature(mode, t_axis, om_axis)
    w = ss.wigner(mode, t_axis, om_axis)
    assert w.shape == ref.shape
    assert np.max(np.abs(w - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_wigner_axes_must_lie_on_the_lattice(grid, quad_mode):
    # t on the half-step lattice p*dt/2, omega on the grid nodes
    with pytest.raises(ValueError, match="t_axis"):
        ss.wigner(quad_mode, np.array([0.0, 0.25 * grid.time_step]), grid.omegas[::64])
    with pytest.raises(ValueError, match="omega_axis"):
        ss.wigner(quad_mode, np.array([0.0]), grid.omegas[::64] + 0.5 * grid.omega_step)
    with pytest.raises(ValueError, match="one-dimensional"):
        ss.wigner(quad_mode, np.zeros((1, 1)), grid.omegas[::64])


@pytest.mark.parametrize("empty", ["t_axis", "omega_axis"])
def test_wigner_empty_axis_is_named(empty, grid, quad_mode):
    axes = {"t_axis": np.array([0.0]), "omega_axis": grid.omegas[::64]}
    axes[empty] = np.array([])
    with pytest.raises(ValueError, match=empty):
        ss.wigner(quad_mode, **axes)


def test_wigner_marginals_random_smooth():
    rng = np.random.default_rng(3)
    worst_f = worst_t = 0.0
    for _ in range(5):
        mode = smooth_random_mode(rng)
        g = mode.grid
        n = g.n_points
        t_lim = 0.5 * math.pi / g.omega_step
        t_axis = np.linspace(-t_lim, t_lim, n + 1)
        w = ss.wigner(mode, t_axis, g.omegas)

        ref_f = np.abs(mode.amplitude) ** 2
        marg_f = np.trapezoid(w, t_axis, axis=0)
        worst_f = max(worst_f, float(np.max(np.abs(marg_f - ref_f)) / np.max(ref_f)))

        scale = g.omega_step / math.sqrt(2.0 * math.pi)
        psi_t = scale * np.exp(-1j * np.outer(t_axis, g.omegas)) @ mode.amplitude
        ref_t = np.abs(psi_t) ** 2
        marg_t = np.trapezoid(w, g.omegas, axis=1)
        worst_t = max(worst_t, float(np.max(np.abs(marg_t - ref_t)) / np.max(ref_t)))
    assert worst_f < 1e-9
    assert worst_t < 1e-9


def test_wigner_total_is_norm(grid, quad_mode):
    n = grid.n_points
    t_lim = 0.5 * math.pi / grid.omega_step
    t_axis = np.linspace(-t_lim, t_lim, 513)
    om_axis = grid.omegas[::8]
    w = ss.wigner(quad_mode, t_axis, om_axis)
    marg_t = np.trapezoid(w, om_axis, axis=1)
    assert np.trapezoid(marg_t, t_axis) == pytest.approx(1.0, rel=1e-3)


def test_wigner_chirp_tilt(grid):
    # quadratic phase slants the distribution: group delay phi2*(omega-omega0)
    mode = ss.synthesize(ss.PulseSpec(830.0, 8.0, "polynomial", (0.0, 8.7e4, 0.0)), grid)
    n = grid.n_points
    t_axis = grid.times[n // 4 : 3 * n // 4 : 8]
    om_axis = grid.omegas[::8]
    w = ss.wigner(mode, t_axis, om_axis)
    colsum = np.sum(w, axis=0)
    mask = colsum > 1e-3 * np.max(colsum)
    cent = (w.T @ t_axis) / np.where(colsum != 0, colsum, 1.0)
    design = np.vstack([om_axis[mask] - OMEGA0, np.ones(int(mask.sum()))]).T
    slope, intercept = np.linalg.lstsq(design, cent[mask], rcond=None)[0]
    assert slope == pytest.approx(8.7e4, abs=100.0)
    assert intercept == pytest.approx(0.0, abs=1.0)


def test_wigner_alias_guard(grid, quad_mode):
    t_lim = 0.5 * math.pi / grid.omega_step
    with pytest.raises(ValueError):
        ss.wigner(quad_mode, np.array([0.0, 1.01 * t_lim]), grid.omegas[::64])
    with pytest.raises(ValueError):
        ss.wigner(quad_mode, np.array([0.0]), np.array([grid.omegas[-1] + grid.omega_step]))


def test_mode_serialization_roundtrip(tmp_path, grid, quad_mode):
    path = tmp_path / "mode.json"
    ss.save_mode(quad_mode, path)
    back = ss.load_mode(path)
    assert back.grid == grid
    assert np.max(np.abs(back.amplitude - quad_mode.amplitude)) < 1e-12


def test_mode_load_rejects_malformed(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(DataFormatError):
        ss.load_mode(path)
    path.write_text(json.dumps({"grid": {"omega_start": 1.0}}), encoding="utf-8")
    with pytest.raises(DataFormatError):
        ss.load_mode(path)


@pytest.mark.parametrize(
    "key,value",
    [("n_points", 4096.9), ("n_points", "4096"), ("n_points", True), ("omega_start", "2.27")],
)
def test_mode_load_takes_the_number_rule_for_the_grid(tmp_path, quad_mode, key, value):
    path = tmp_path / "mode.json"
    ss.save_mode(quad_mode, path)
    data = json.loads(path.read_text(encoding="utf-8"))
    data["grid"][key] = value
    path.write_text(json.dumps(data), encoding="utf-8")
    with pytest.raises(DataFormatError, match="grid"):
        ss.load_mode(path)


@pytest.mark.parametrize(
    "value", [repr, lambda v: False], ids=["string", "bool-in-float"]
)
def test_mode_load_takes_the_number_rule_for_the_arrays(tmp_path, quad_mode, value):
    # the replaced bin is far in the wing, so a misread value still loads
    path = tmp_path / "mode.json"
    ss.save_mode(quad_mode, path)
    data = json.loads(path.read_text(encoding="utf-8"))
    data["amplitude_abs"][0] = value(data["amplitude_abs"][0])
    path.write_text(json.dumps(data), encoding="utf-8")
    with pytest.raises(DataFormatError, match="amplitude_abs"):
        ss.load_mode(path)


def test_records_store_a_read_only_copy(grid, quad_mode):
    # constructors copy their arrays: the caller's array stays writable and
    # its later edits do not reach the record
    amp = np.array(quad_mode.amplitude)
    mode = ss.SpectralMode(grid, amp)
    amp[0] = 1.0
    assert amp.flags.writeable
    assert mode.amplitude[0] == quad_mode.amplitude[0]
    assert not mode.amplitude.flags.writeable
    with pytest.raises(ValueError):
        mode.amplitude[0] = 1.0


def _fake_libc(monkeypatch) -> list:
    """Stand in for ctypes.CDLL(None) with a mallopt that records its calls
    and applies none; return the list of calls."""
    calls = []
    libc = types.SimpleNamespace(mallopt=lambda param, value: calls.append((param, value)) or 1)
    monkeypatch.setattr(ss.core.ctypes, "CDLL", lambda name: libc)
    return calls


def _policy_applies(monkeypatch) -> bool:
    """Whether the import-time allocator policy applies in this process,
    asked without calling glibc again."""
    with monkeypatch.context() as m:
        _fake_libc(m)
        return ss.core._keep_freed_arrays()


# a fresh process: glibc raises its dynamic thresholds as large chunks are
# freed, so after other tests the parent's loop can read few faults too
_RECON_LOOP = """
import dataclasses, resource
import shearspec as ss
cfg = ss.preset("quadratic")
cfg = dataclasses.replace(cfg, grid=dataclasses.replace(cfg.grid, n_points=65536))
truth = ss.synthesize(cfg.pulse, ss.build_grid(cfg))
shear, settings = ss.shear_config(cfg), ss.ftsi_settings(cfg)
ideal = ss.ideal_interferogram(truth, shear)

def op(seed):
    rec = ss.detect_counts(ideal, cfg.interferometer.total_counts, seed)
    return ss.mode_overlap(ss.reconstruct(rec, shear, settings).mode(), truth)

for seed in range(3):
    op(seed)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for seed in range(3, 13):
    op(seed)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 10)
"""


def test_recon_op_reuses_freed_work_arrays(monkeypatch):
    # glibc returns freed arrays of 128 KiB or more to the kernel by default,
    # and each N=65536 op faulted about 1100-1700 pages back in; with the
    # policy set at import the steady loop reuses the heap
    pytest.importorskip("resource")
    if not _policy_applies(monkeypatch):
        pytest.skip("not glibc, or glibc's own malloc controls are set")
    src = str(Path(ss.__file__).resolve().parents[1])
    pythonpath = [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    # one BLAS thread, as the benchmark runs: the default pool can triple an op
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(pythonpath), OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    run = subprocess.run([sys.executable, "-c", _RECON_LOOP], env=env, capture_output=True,
                         text=True, check=True)
    faults = float(run.stdout)
    assert faults < 50, f"{faults:.0f} minor page faults per op"


@pytest.fixture
def no_malloc_controls(monkeypatch):
    for name in ("MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_", "MALLOC_TOP_PAD_",
                 "MALLOC_MMAP_MAX_", "GLIBC_TUNABLES"):
        monkeypatch.delenv(name, raising=False)
    return monkeypatch


def test_allocator_policy_sets_both_thresholds(no_malloc_controls):
    calls = _fake_libc(no_malloc_controls)
    try:
        os.confstr("CS_GNU_LIBC_VERSION")
    except (AttributeError, OSError, ValueError):
        pytest.skip("no glibc")
    assert ss.core._keep_freed_arrays() is True
    # M_MMAP_THRESHOLD 32 MiB, M_TRIM_THRESHOLD 128 MiB
    assert calls == [(-3, 32 << 20), (-1, 128 << 20)]


def _confstr_fails(name):
    raise ValueError(f"unrecognized configuration name: {name}")


@pytest.mark.parametrize(
    "setup",
    [
        lambda m: m.setattr(ss.core.os, "confstr", _confstr_fails),
        lambda m: m.setenv("MALLOC_TRIM_THRESHOLD_", "131072"),
        lambda m: m.setenv("GLIBC_TUNABLES", "glibc.malloc.trim_threshold=131072"),
    ],
    ids=["no-confstr", "MALLOC_TRIM_THRESHOLD_", "GLIBC_TUNABLES"],
)
def test_allocator_policy_skips(setup, no_malloc_controls):
    # off glibc, or where the user set glibc's own controls, nothing is set
    calls = _fake_libc(no_malloc_controls)
    setup(no_malloc_controls)
    assert ss.core._keep_freed_arrays() is False
    assert calls == []
