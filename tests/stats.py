"""Statistical references for tests: the Cramér–Rao bound of a shearing record,
the seed sweeps, at the preset delay or a calibrated one, that a scatter is
measured over, and a mode overlap that forgives the arrival time."""

import math

import numpy as np

import shearspec as ss


def fisher_bound(ideal, counts, shear, mode):
    """Cramér–Rao sd of (phi1, phi2, phi3) [fs, fs^2, fs^3] for an ideal instrument.

    `ideal` is mode's noise-free record at `shear`, detected with `counts`
    expected photons in all.  Given n_i photons in bin i, the plus output
    draws Binomial(n_i, (1 + V cos D) / 2), with V cos D = (plus - minus) /
    (plus + minus) and V = 2ab / (a^2 + b^2), a = |psi~(omega)|,
    b = |psi~(omega + W)|; mode supplies a and b, which the record alone
    does not separate.  Per bin the information in D is
    n_i (V^2 - (V cos D)^2) / (1 - (V cos D)^2), and D moves with phi_k
    along (x^k - (x + W)^k) / k!, x = omega - omega0, so the Fisher matrix
    sums those column products; amplitude and shear are taken as known.
    """
    grid = ideal.grid
    total = ideal.plus + ideal.minus
    use = total > 0
    n = counts * total[use] / total.sum()
    v_cos = (ideal.plus - ideal.minus)[use] / total[use]
    a = np.abs(mode.amplitude[use])
    b = np.abs(ss.apply_shear(mode, -shear).amplitude[use])
    v = 2.0 * a * b / (a**2 + b**2)
    info = n * (v**2 - v_cos**2) / (1.0 - v_cos**2)
    x = grid.omegas[use] - grid.omega_center
    design = np.array([(x**k - (x + shear) ** k) / math.factorial(k) for k in (1, 2, 3)])
    return np.sqrt(np.diag(np.linalg.inv((design * info) @ design.T)))


def overlap_up_to_arrival(a, b):
    """max over t of |<a|b exp(-ixt)>|^2: mode_overlap up to an arrival-time shift.

    The inner product at every t is one FFT of conj(a) * b * domega,
    zero-padded 16x so t steps by 2 pi / (16 N domega); a parabola through
    the largest |.|^2 sample and its two neighbours refines the peak.
    """
    inner = np.conj(a.amplitude) * b.amplitude * a.grid.omega_step
    power = np.abs(np.fft.fft(inner, 16 * inner.size)) ** 2
    i = int(np.argmax(power))
    left, peak, right = power[i - 1], power[i], power[(i + 1) % power.size]
    curvature = left - 2.0 * peak + right
    if curvature < 0:
        peak -= (left - right) ** 2 / (8.0 * curvature)
    return float(peak)


def preset_chain(preset):
    """A preset's ShearConfig, FtsiSettings, synthesized mode and its ideal record."""
    cfg = ss.preset(preset)
    sc, settings = ss.shear_config(cfg), ss.ftsi_settings(cfg)
    truth = ss.synthesize(cfg.pulse, ss.build_grid(cfg))
    return sc, settings, truth, ss.ideal_interferogram(truth, sc)


def counts_record(ideal, counts, seed):
    """Seed s's record of `ideal`: detect_counts with derive_seed(s, "counts", 0)."""
    return ss.detect_counts(ideal, counts, ss.derive_seed(seed, "counts", 0))


def sweep(preset, counts, seeds, fn):
    """fn(result, truth) for each seed's reconstruction of a preset's record.

    Seed s draws `counts_record(ideal, counts, s)` from the preset's ideal
    record, and the preset's shear, delay and settings reconstruct it; truth
    is the preset's synthesized mode.  Returns the values as an array, one
    row per seed.
    """
    sc, settings, truth, ideal = preset_chain(preset)
    return np.array([
        fn(ss.reconstruct(counts_record(ideal, counts, s), sc, settings), truth) for s in seeds
    ])


def calibrated_sweep(preset, counts, seeds, fn):
    """fn(result, truth, calibration) for each seed, reconstructed at a calibrated delay.

    Seed s draws a zero-shear record of the preset's truth with
    `derive_seed(s, "cal", 0)` and fits its delay with `calibrate_delay`,
    searching around the preset's delay; the record that `sweep` draws for s
    is then reconstructed at `calibration.tau_fs`.  One row per seed.
    """
    sc, settings, truth, ideal = preset_chain(preset)
    zero_shear = ss.ideal_interferogram(truth, ss.ShearConfig(0.0, sc.delay))
    rows = []
    for s in seeds:
        cal_record = ss.detect_counts(zero_shear, counts, ss.derive_seed(s, "cal", 0))
        calibration = ss.calibrate_delay(cal_record, settings, sc.delay)
        at_tau = ss.ShearConfig(sc.shear, calibration.tau_fs)
        rows.append(fn(ss.reconstruct(counts_record(ideal, counts, s), at_tau, settings), truth,
                       calibration))
    return np.array(rows)
